//! CPU time of threads, from `/proc`.
//!
//! CPU time leaves out what wall time also counts: time a thread waits to
//! be woken, and time the hypervisor runs other guests on this machine's
//! CPUs (steal). On a shared host those swing from run to run; CPU time per
//! unit of work moves only with the work itself.

/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time in ms from a `/proc/.../stat` file, or 0.
fn stat_cpu_ms(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC * 1e3
}

/// CPU time of the calling thread, in ms.
pub fn this_thread_ms() -> f64 {
    stat_cpu_ms("/proc/thread-self/stat")
}

/// CPU time of this process's threads whose name starts with `prefix`,
/// in ms.
pub fn threads_named_ms(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .map(|t| stat_cpu_ms(&t.path().join("stat").to_string_lossy()))
        .sum()
}

/// Host-wide CPU time so far, in clock ticks: `(steal, total)` from the
/// first line of `/proc/stat`. Steal is time the hypervisor ran something
/// else while this machine's CPUs were ready to run.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
