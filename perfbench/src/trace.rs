//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around each call it makes into a
//! layer's public functions; nothing inside the program is instrumented.
//! Each span carries a name, start, end, parent (the span open on the
//! same thread when it started) and a request id. Spans stay in memory
//! and are summarised when the run ends.
//!
//! A disabled recorder turns every `enter` into a branch, so the
//! untraced run executes the same benchmark code as the traced one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    req: u64,
    start: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = self.tracer.now_ns();
        OPEN.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in nesting order");
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            req: self.req,
            start: self.start,
            end,
        };
        self.tracer
            .spans
            .lock()
            .expect("span log poisoned by a panic")
            .push(span);
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops.
    pub fn enter(&self, name: &'static str, req: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent: None,
                name,
                req,
                start: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Guard {
            tracer: self,
            id,
            parent,
            name,
            req,
            start: self.now_ns(),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name, req);
        f()
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned by a panic"))
    }
}

/// The layer a span's call belongs to, named by crate/module. Spans the
/// benchmark opens around its own steps belong to `bench`.
pub fn layer(name: &str) -> &'static str {
    match name {
        "Model::compile" | "ModelRegistry::register" => "compile",
        "Model::plan" | "RegisteredModel::plan" => "plan",
        "Plan::native_module" => "native",
        "Plan::session" | "Session::init" => "session",
        "Session::try_sweep" | "Session::sample" | "Session::log_joint" => "sweep",
        "Session::report" | "RunReport::digest" | "ExplainPlan::render" => "report",
        "Session::checkpoint" | "Session::restore" | "Checkpoint::render" | "Checkpoint::parse" => {
            "checkpoint"
        }
        "diag::ess" | "diag::split_rhat" | "OnlineParamDiag" => "diag",
        "ModelRegistry::resolve"
        | "Service::start"
        | "Service::submit"
        | "Service::metrics"
        | "Service::shutdown"
        | "Ticket::try_wait" => "serve",
        "GET /metrics" => "obs",
        _ => "bench",
    }
}

/// Every layer `layer` can return, in report order.
pub const LAYERS: [&str; 11] = [
    "compile",
    "plan",
    "native",
    "session",
    "sweep",
    "report",
    "checkpoint",
    "diag",
    "serve",
    "obs",
    "bench",
];

/// Self time of every span: its duration minus the time its children
/// cover. Children open and close on their parent's thread, so they
/// nest inside it without overlapping each other.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut own: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(t) = own.get_mut(&p) {
                *t = t.saturating_sub(s.dur_ns());
            }
        }
    }
    own
}

/// Self time summed per layer, in nanoseconds, over the spans `keep`
/// selects.
pub fn layer_self_ns(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
    for s in spans.iter().filter(|s| keep(s)) {
        *out.entry(layer(s.name)).or_default() += own[&s.id];
    }
    out
}

/// Durations in milliseconds of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}
