//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `lda-native-batch` — offline LDA posterior sampling on the emitted-C
//!   backend, two chains on two threads;
//! * `hlr-tape-batch` — HLR under HMC on the tape interpreter, two chains;
//! * `serve-mixed-open` — open-loop arrivals at two fixed offered rates
//!   into `augur-serve`.
//!
//! Inputs come from `augurv2::workloads` with `--seed`. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics of a traced run, whose spans the
//! benchmark records around its own calls into each layer. Earlier stdout
//! lines record the host facts, other facts of the run, and every figure
//! measured untraced, latency included (printed, not gated). Any failed
//! correctness check makes the run exit with code 1.

mod batch;
mod cpu;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

use augurv2::augur::RunReport;
use stats::Metrics;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sweeps_per_s", "1/s"),
    ("ess_per_s", "1/s"),
    ("cpu_ms_per_sweep", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Kernel units whose wall share and acceptance rate the traced run
/// reports, as `(model, unit)`; see [`kernel_unit`].
pub const KERNEL_UNITS: [(&str, &str); 8] = [
    ("lda", "theta"),
    ("lda", "phi"),
    ("lda", "z"),
    ("hlr", "hmc"),
    ("hgmm", "pi"),
    ("hgmm", "mu"),
    ("hgmm", "sigma"),
    ("hgmm", "z"),
];

/// Per-layer metrics with their units. The traced run of every workload
/// reports each one; a layer a workload does not use reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("latency_p50_ms.low", "ms"),
        ("latency_p90_ms.low", "ms"),
        ("latency_p50_ms.high", "ms"),
        ("latency_p90_ms.high", "ms"),
        ("compile.model_ms", "ms"),
        ("plan.cold_ms", "ms"),
        ("plan.hit_ms", "ms"),
        ("plan.respecialize_ms", "ms"),
        ("plan.hits", "count"),
        ("plan.misses", "count"),
        ("plan.respecializes", "count"),
        ("native.cc_ms", "ms"),
        ("native.disk_hits", "count"),
        ("sweep.native_ms_per_sweep", "ms"),
        ("sweep.tape_ms_per_sweep", "ms"),
        ("sweep.small_us_per_sweep", "us"),
        ("kernel.divergences", "count"),
        ("kernel.numerical_events", "count"),
        ("session.bind_ms", "ms"),
        ("session.init_ms", "ms"),
        ("checkpoint.snapshot_ms", "ms"),
        ("checkpoint.restore_ms", "ms"),
        ("checkpoint.render_ms", "ms"),
        ("checkpoint.parse_ms", "ms"),
        ("checkpoint.bytes", "bytes"),
        ("diag.fold_us", "us"),
        ("diag.ess_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.latency_p99_ms.low", "ms"),
        ("serve.latency_p99_ms.high", "ms"),
        ("serve.latency_max_ms.low", "ms"),
        ("serve.latency_max_ms.high", "ms"),
        ("serve.migrations", "count"),
        ("serve.queue_high_water", "count"),
        ("serve.retries", "count"),
        ("serve.timeouts", "count"),
        ("serve.shed", "count"),
        ("serve.generator_late_ms.low", "ms"),
        ("serve.generator_late_ms.high", "ms"),
        ("serve.backlog_end.low", "count"),
        ("serve.backlog_end.high", "count"),
        ("serve.submit_us", "us"),
        ("serve.metrics_ms", "ms"),
        ("obs.scrape_ms", "ms"),
        ("obs.scrape_bytes", "bytes"),
        ("trace.accounted_share", "share"),
        ("trace.overhead_share", "share"),
        ("trace.spans", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (model, unit) in KERNEL_UNITS {
        out.push((format!("kernel.{model}.{unit}.wall_share"), "share"));
        out.push((format!("kernel.{model}.{unit}.accept_rate"), "share"));
    }
    for layer in trace::LAYERS {
        out.push((format!("self.{layer}_share"), "share"));
    }
    out
}

/// The short unit name of a schedule label: `hmc` for an HMC block,
/// otherwise the lower-cased parameter the unit updates
/// (`Gibbs Single(Sigma)` is `sigma`).
fn kernel_unit(label: &str) -> String {
    if label.starts_with("HMC") {
        return "hmc".into();
    }
    let inner = label.split('(').nth(1).unwrap_or(label);
    inner
        .trim_end_matches(')')
        .split(',')
        .next()
        .unwrap_or("")
        .trim()
        .to_lowercase()
}

/// Adds `model`'s kernel-unit wall shares and acceptance rates, summed
/// over `reports`, and its divergences and numerical events to the
/// running totals.
pub fn kernel_metrics(m: &mut Metrics, model: &str, reports: &[&RunReport]) {
    let mut units: BTreeMap<String, (f64, u64, u64)> = BTreeMap::new();
    let (mut div, mut nev) = (0u64, 0u64);
    for r in reports {
        for k in &r.kernels {
            let u = units.entry(kernel_unit(&k.kernel)).or_default();
            u.0 += k.stats.wall_secs;
            u.1 += k.stats.proposals;
            u.2 += k.stats.accepts;
            div += k.stats.divergences;
            nev += k.stats.numerical_events;
        }
    }
    let wall: f64 = units.values().map(|u| u.0).sum();
    for (unit, (secs, proposals, accepts)) in units {
        m.set(
            format!("kernel.{model}.{unit}.wall_share"),
            secs / wall.max(1e-12),
            "share",
        );
        m.set(
            format!("kernel.{model}.{unit}.accept_rate"),
            accepts as f64 / proposals.max(1) as f64,
            "share",
        );
    }
    let add = |m: &mut Metrics, name: &str, v: u64| {
        let old = m.get(name).unwrap_or(0.0);
        m.set(name, old + v as f64, "count");
    };
    add(m, "kernel.divergences", div);
    add(m, "kernel.numerical_events", nev);
}

/// Reports 0 for every per-layer metric a workload leaves unset: that
/// layer does no work on it.
fn fill_zeros(m: &mut Metrics) {
    for (name, unit) in per_layer() {
        if m.get(&name).is_none() {
            m.set(name, 0.0, unit);
        }
    }
}

/// What a run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Everything a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end figures, measured with tracing off.
    pub e2e: Metrics,
    /// Per-layer figures (traced run only).
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Extra facts printed before the result line.
    pub info: Vec<(String, String)>,
}

/// Correctness checks of one run.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// This run's scratch directory, the `TMPDIR` of the process and of
/// the C compiler it starts; removed at exit.
static SCRATCH: OnceLock<PathBuf> = OnceLock::new();

/// Creates the run's own empty scratch directory inside the build tree and
/// points `TMPDIR` at it. Call before any other thread starts.
fn make_scratch() {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let dir = std::env::current_dir()
        .expect("working directory is readable")
        .join(base)
        .join("perfbench-tmp")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory in the build tree");
    std::env::set_var("TMPDIR", &dir);
    SCRATCH
        .set(dir)
        .expect("the scratch directory is made once");
}

/// Empties the scratch directory, so the next native build finds no
/// cached artifact and runs the C compiler.
pub fn empty_scratch() {
    let dir = SCRATCH.get().expect("main made the scratch directory");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("recreate the scratch directory");
}

fn remove_scratch() {
    if let Some(dir) = SCRATCH.get() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of `cc --version`, or why there is none.
fn cc_version() -> String {
    match std::process::Command::new("cc").arg("--version").output() {
        Ok(out) => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string(),
        Err(e) => format!("no cc: {e}"),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(m: &Metrics) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything this process (and the C compiler it starts) writes to
    // a temporary directory stays inside the build tree.
    make_scratch();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host = format!(
        "{{\"host\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"cc\": {}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cc_version()),
    );
    let ticks0 = cpu::host_ticks();
    let outcome = match args.workload.as_str() {
        "lda-native-batch" => batch::lda(&ctx),
        "hlr-tape-batch" => batch::hlr(&ctx),
        "serve-mixed-open" => {
            let _ = write!(
                host,
                ", \"offered_rps\": {{\"low\": {}, \"high\": {}}}",
                serve::RATE_LOW,
                serve::RATE_HIGH
            );
            serve::run(&ctx)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            remove_scratch();
            return ExitCode::from(2);
        }
    };
    remove_scratch();
    let ticks1 = cpu::host_ticks();
    let steal = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    let _ = write!(host, ", \"steal_share\": {steal}}}}}");
    println!("{host}");
    let mut outcome = outcome;
    outcome.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    outcome
        .info
        .push(("checks_passed".into(), outcome.checks.passed.to_string()));
    let info: Vec<String> = outcome
        .info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));

    // Every figure measured untraced, gated or not.
    println!("{{\"untraced\": {}}}", metrics_json(&outcome.e2e));
    let mut checks = outcome.checks;
    let shown = if args.trace {
        let mut shown = std::mem::take(&mut outcome.layers);
        // Latency is too unsteady on a shared host to gate; the traced run
        // reports the untraced pass's figures beside the layers.
        for (name, (v, unit)) in outcome.e2e.iter() {
            if name.starts_with("latency_") {
                shown.set(name.clone(), *v, unit);
            }
        }
        fill_zeros(&mut shown);
        let declared: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        for (name, _) in shown.iter() {
            checks.check(
                "per-layer metric is declared",
                declared.contains(name),
                || name.clone(),
            );
        }
        shown
    } else {
        let mut shown = Metrics::default();
        for (name, unit) in END_TO_END {
            let v = outcome.e2e.get(name).unwrap_or(f64::NAN);
            checks.check(
                "end-to-end metric is positive",
                v.is_finite() && v > 0.0,
                || format!("{name} = {v}"),
            );
            shown.set(name, v, unit);
        }
        shown
    };
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.ok(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&shown)
    );
    if checks.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
