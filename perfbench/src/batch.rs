//! The two offline workloads: `lda-native-batch` and `hlr-tape-batch`.
//!
//! A run has three parts:
//!
//! 1. set-up: source text → `Model::compile` → `Model::plan` → (native)
//!    `Plan::native_module` → one bound, initialised session per chain.
//!    It runs once before the sweeps and again after every round;
//!    `setup_s` is the median;
//! 2. `ROUNDS` rounds of a low block (one chain alone) and a high block
//!    (`CHAINS` chains on their own threads, one per core), after a
//!    warm-up of the high chains. Every sweep is timed. Sweep throughput
//!    and ESS/s come from the high blocks;
//! 3. correctness: native and tape states agree bit for bit after a short
//!    prefix, `ChainPlan` reproduces the high chains' first draws, the low
//!    chain draws what high chain 0 draws, a checkpoint round-trips, and
//!    the workload's own check holds.
//!
//! The `latency_*` metrics of a batch workload are per-sweep wall times:
//! `.low` with one chain running, `.high` with every chain running.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

use augurv2::augur::chains::chain_seed;
use augurv2::augur::{
    diag, ChainPlan, Checkpoint, ExecBackend, HostValue, McmcConfig, Model, Plan, PlanCacheStats,
    RunReport, Session, SessionConfig,
};
use augurv2::augur_serve::hermetic_config;
use augurv2::{models, workloads};

use crate::stats::{mean, median, quantile_of_groups, rounded_quantiles, Metrics};
use crate::trace::{self, Tracer};
use crate::{cpu, empty_scratch, kernel_metrics, Ctx, Outcome};

/// Chains of the high phase; one thread each, so at most `nproc`.
const CHAINS: usize = 2;
const LDA_TOPICS: usize = 20;

/// One batch workload, fully generated from the seed.
struct Spec {
    model: &'static str,
    source: &'static str,
    args: Vec<HostValue>,
    data: Vec<(&'static str, HostValue)>,
    record: &'static [&'static str],
    backend: ExecBackend,
    mcmc: McmcConfig,
    /// Set-ups after each round, besides the first one; `setup_s` is the
    /// median of them all.
    setups_per_round: usize,
    /// Leading sweeps of every high-phase chain, run before the first
    /// round and left out of every metric.
    warmup: usize,
    /// Nominal sweeps per second of one chain, which sizes the phases
    /// from `--seconds`.
    rate: f64,
    /// Sweeps compared bit for bit between the native and tape backends,
    /// and between `ChainPlan` and the high phase.
    prefix: usize,
}

impl Spec {
    fn config(&self, seed: u64) -> SessionConfig {
        SessionConfig {
            backend: self.backend,
            mcmc: self.mcmc.clone(),
            ..hermetic_config(seed)
        }
    }
}

pub fn lda(ctx: &Ctx) -> Outcome {
    // 20 topics, 200 documents of ~200 tokens over a 2,000-word
    // vocabulary: the Fig. 12 model at a size where a native sweep
    // takes tens of milliseconds.
    let topics = LDA_TOPICS;
    let corpus = workloads::lda_corpus(topics, 200, 2000, 200, ctx.seed);
    let tokens = corpus.tokens;
    let spec = Spec {
        model: "lda",
        source: models::LDA,
        args: vec![
            HostValue::Int(topics as i64),
            HostValue::Int(corpus.docs.len() as i64),
            HostValue::VecF(vec![0.5; topics]),
            HostValue::VecF(vec![0.1; corpus.vocab]),
            HostValue::VecI(corpus.lens),
        ],
        data: vec![("w", HostValue::RaggedI(corpus.docs))],
        record: &["theta"],
        backend: ExecBackend::Native,
        mcmc: McmcConfig::default(),
        setups_per_round: 1,
        warmup: 20,
        rate: 20.0,
        prefix: 3,
    };
    let mut out = run(ctx, &spec, check_simplex);
    out.info.push(("tokens".into(), tokens.to_string()));
    out
}

pub fn hlr(ctx: &Ctx) -> Outcome {
    // German-credit shape (N = 1000, D = 24) under the heuristic
    // schedule `HMC Block(sigma2, b, theta)`, with the E4 step size. At a
    // step of 0.01 the chain random-walks and the median-component ESS of
    // a few thousand draws varies by half between seeds, more than any
    // bound could absorb; at 0.03 ESS/s follows the sampler's speed.
    let (n, d) = (1000, 24);
    let data = workloads::logistic_data(n, d, ctx.seed);
    let spec = Spec {
        model: "hlr",
        source: models::HLR,
        args: vec![
            HostValue::Real(1.0),
            HostValue::Int(n as i64),
            HostValue::Int(d as i64),
            HostValue::Ragged(data.x),
        ],
        data: vec![("y", HostValue::VecF(data.y))],
        record: &["theta", "b", "sigma2"],
        backend: ExecBackend::Tape,
        mcmc: McmcConfig {
            step_size: 0.03,
            leapfrog_steps: 10,
            ..McmcConfig::default()
        },
        setups_per_round: 4,
        warmup: 150,
        rate: 90.0,
        prefix: 20,
    };
    let truth = data.true_theta;
    run(ctx, &spec, |chains, out| {
        check_posterior_mean(chains, &truth, out)
    })
}

/// Every recorded LDA θ_d is a point of the simplex.
fn check_simplex(chains: &[ChainRun], out: &mut Outcome) {
    let ok = chains.iter().all(|c| {
        c.draws["theta"].iter().all(|row| {
            row.chunks(LDA_TOPICS).all(|t| {
                t.iter().all(|x| (0.0..=1.0).contains(x))
                    && (t.iter().sum::<f64>() - 1.0).abs() < 1e-9
            })
        })
    });
    out.checks
        .check("LDA theta rows lie on the simplex", ok, || {
            "a row left the simplex".into()
        });
}

/// HLR's posterior mean of θ, pooled over the post-warm-up draws of all
/// chains, must lie near the θ that generated the data: within
/// `Z_TOLERANCE` posterior standard deviations in every component. The
/// reference is the data generator, not the compiler. For a correct
/// sampler the largest of the 24 deviations is about 2 sd, and above 5
/// with probability below 1e-4.
fn check_posterior_mean(chains: &[ChainRun], truth: &[f64], out: &mut Outcome) {
    const Z_TOLERANCE: f64 = 5.0;
    let mut worst = (0.0f64, 0.0f64);
    for (j, t) in truth.iter().enumerate() {
        let vals: Vec<f64> = chains
            .iter()
            .flat_map(|c| c.post_warmup("theta", j))
            .collect();
        let m = mean(&vals);
        let sd =
            (vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (vals.len() - 1) as f64).sqrt();
        let err = (m - t).abs();
        if err / sd > worst.0 {
            worst = (err / sd, err);
        }
    }
    out.info
        .push(("hlr_theta_worst_z".into(), format!("{}", worst.0)));
    out.info
        .push(("hlr_theta_worst_abs_err".into(), format!("{}", worst.1)));
    out.checks.check(
        "HLR posterior mean of theta near true_theta",
        worst.0 <= Z_TOLERANCE,
        || {
            format!(
                "a component lies {} posterior sds (|error| {}) from the truth",
                worst.0, worst.1
            )
        },
    );
}

/// What one set-up repetition produced.
struct Setup {
    plan: Plan,
    secs: f64,
    cc_ms: f64,
    disk_hit: bool,
    stats: PlanCacheStats,
}

/// Source text to sweep-ready sessions, with spans around each call.
fn setup(spec: &Spec, seed: u64, tr: &Tracer, out: &mut Outcome) -> Option<Setup> {
    let native = spec.backend == ExecBackend::Native;
    if native {
        // An empty artifact directory: the build below must run the C
        // compiler instead of loading a cached object.
        empty_scratch();
    }
    let (args, data) = (spec.args.clone(), spec.data.clone());
    let _root = tr.enter("setup", 0);
    let t0 = Instant::now();
    let model = tr
        .span("Model::compile", 0, || Model::compile(spec.source))
        .expect("model compiles");
    let plan = tr
        .span("Model::plan", 0, || model.plan(args, data))
        .expect("model plans");
    let (mut cc_ms, mut disk_hit) = (0.0, false);
    if native {
        match tr.span("Plan::native_module", 0, || plan.native_module()) {
            Ok(m) => (cc_ms, disk_hit) = (m.compile_secs() * 1e3, m.disk_hit()),
            Err(e) => {
                out.checks.check("native module builds", false, || e);
                return None;
            }
        }
    }
    for c in 0..CHAINS {
        let mut s = tr
            .span("Plan::session", 0, || {
                plan.session(spec.config(chain_seed(seed, c)))
            })
            .expect("session binds");
        if !check_backend(spec, &s, out) {
            return None;
        }
        tr.span("Session::init", 0, || s.init())
            .expect("session initialises");
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = model.cache_stats();
    Some(Setup {
        plan,
        secs,
        cc_ms,
        disk_hit,
        stats,
    })
}

/// A native run must really run native code: without this check a
/// missing C toolchain would silently measure the tape.
fn check_backend(spec: &Spec, s: &Session, out: &mut Outcome) -> bool {
    let ok = s.backend() == spec.backend && s.backend_fallback().is_none();
    out.checks
        .check("session runs on the requested backend", ok, || {
            format!(
                "wanted {:?}, got {:?} ({:?})",
                spec.backend,
                s.backend(),
                s.backend_fallback()
            )
        });
    ok
}

/// Rounds of one low block and one high block each. Spreading both
/// phases over the whole run lets slow drift in the host's speed reach
/// them alike.
const ROUNDS: usize = 5;

/// What a chain thread is told to do next.
enum Cmd {
    /// Run this many sweeps, then report back.
    Sweeps(usize),
    /// Stop, returning the chain's record.
    Stop,
}

/// One chain's timed sweeps.
struct ChainRun {
    /// Recorded draws: `draws[param][sweep][component]`.
    draws: HashMap<&'static str, Vec<Vec<f64>>>,
    /// Leading draws left out of ESS.
    warmup: usize,
    /// Wall time of every sweep, in ms.
    sweep_ms: Vec<f64>,
    /// Sweeps done at the end of each block.
    block_ends: Vec<usize>,
    /// CPU time of each block, in ms.
    block_cpu_ms: Vec<f64>,
    failed: u64,
    report: RunReport,
    /// Rendered checkpoint size, when the chain ran the checkpoint probe.
    checkpoint_bytes: Option<usize>,
}

impl ChainRun {
    /// Sweep times of each block after the warm-up.
    fn blocks(&self) -> impl Iterator<Item = &[f64]> {
        let starts = std::iter::once(0).chain(self.block_ends.iter().copied());
        starts
            .zip(&self.block_ends)
            .map(|(a, &b)| &self.sweep_ms[a..b])
            .skip(usize::from(self.warmup > 0))
    }

    fn post_warmup(&self, param: &str, j: usize) -> Vec<f64> {
        self.draws[param]
            .iter()
            .skip(self.warmup)
            .map(|row| row[j])
            .collect()
    }
}

/// Which chain a thread runs.
struct Role {
    /// The chain's session seed.
    seed: u64,
    /// Leading sweeps left out of every metric.
    warmup: usize,
    /// Whether the chain ends with the checkpoint probe.
    probe: bool,
}

/// A chain on its own thread: binds a session for chain seed `seed`,
/// then runs the sweeps it is told to, one span-rooted block at a time,
/// so the time it waits for orders belongs to no span.
fn chain_thread(
    spec: &Spec,
    plan: &Plan,
    role: Role,
    tr: &Tracer,
    cmds: mpsc::Receiver<Cmd>,
    done: mpsc::Sender<()>,
) -> ChainRun {
    let Role {
        seed,
        warmup,
        probe,
    } = role;
    let mut s = {
        let _root = tr.enter("bind", 0);
        let mut s = tr
            .span("Plan::session", 0, || plan.session(spec.config(seed)))
            .expect("binds");
        tr.span("Session::init", 0, || s.init())
            .expect("initialises");
        s
    };
    let mut draws: HashMap<&'static str, Vec<Vec<f64>>> =
        spec.record.iter().map(|p| (*p, Vec::new())).collect();
    let (mut sweep_ms, mut block_ends, mut block_cpu_ms, mut failed) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    let _ = done.send(());
    while let Ok(Cmd::Sweeps(n)) = cmds.recv() {
        let _root = tr.enter("block", 0);
        let cpu0 = cpu::this_thread_ms();
        for _ in 0..n {
            if failed > 0 {
                break;
            }
            let t = Instant::now();
            let r = tr.span("Session::try_sweep", 0, || s.try_sweep());
            sweep_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match r {
                Ok(()) => {
                    for (p, rows) in &mut draws {
                        rows.push(s.param(p).expect("recorded parameters exist").to_vec());
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: sweep failed: {e}");
                    failed += 1;
                }
            }
        }
        block_ends.push(sweep_ms.len());
        block_cpu_ms.push(cpu::this_thread_ms() - cpu0);
        let _ = done.send(());
    }
    let _root = tr.enter("finish", 0);
    let report = tr.span("Session::report", 0, || s.report());
    let checkpoint_bytes = if probe {
        checkpoint_probe(spec, &mut s, tr)
    } else {
        None
    };
    ChainRun {
        draws,
        warmup,
        sweep_ms,
        block_ends,
        block_cpu_ms,
        failed,
        report,
        checkpoint_bytes,
    }
}

/// The low and high phases of one pass.
struct Phases {
    low: ChainRun,
    high: Vec<ChainRun>,
    /// Wall seconds of the high blocks, summed.
    high_secs: f64,
}

/// Sweeps of the low chain alone and of `CHAINS` chains at once, in
/// `ROUNDS` alternating blocks. The amount of work comes from `seconds`
/// and the workload's nominal sweep rate, so it is the same on every
/// commit and a chain's draws, and so its ESS, do not depend on speed.
fn phases(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
    between_rounds: &mut dyn FnMut(),
) -> Phases {
    let per_round =
        |share: f64| ((seconds * share * spec.rate / ROUNDS as f64).ceil() as usize).max(2);
    let (low_block, high_block) = (per_round(1.0 / 3.0), per_round(2.0 / 3.0));
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        // The low chain shares high chain 0's seed: the check in `run`
        // compares their draws.
        let chains: Vec<_> = (0..=CHAINS)
            .map(|i| {
                let (tx, rx) = mpsc::channel();
                let done = done_tx.clone();
                let role = if i == 0 {
                    Role {
                        seed: chain_seed(seed, 0),
                        warmup: 0,
                        probe: true,
                    }
                } else {
                    Role {
                        seed: chain_seed(seed, i - 1),
                        warmup: spec.warmup,
                        probe: false,
                    }
                };
                let handle = scope.spawn(move || chain_thread(spec, plan, role, tr, rx, done));
                (tx, handle)
            })
            .collect();
        let wait = |n: usize| {
            for _ in 0..n {
                done_rx.recv().expect("a chain thread died");
            }
        };
        wait(chains.len());
        let high = &chains[1..];
        for (tx, _) in high {
            let _ = tx.send(Cmd::Sweeps(spec.warmup));
        }
        wait(high.len());
        let mut high_secs = 0.0;
        for _ in 0..ROUNDS {
            let _ = chains[0].0.send(Cmd::Sweeps(low_block));
            wait(1);
            let t0 = Instant::now();
            for (tx, _) in high {
                let _ = tx.send(Cmd::Sweeps(high_block));
            }
            wait(high.len());
            high_secs += t0.elapsed().as_secs_f64();
            between_rounds();
        }
        let mut runs: Vec<ChainRun> = chains
            .into_iter()
            .map(|(tx, handle)| {
                let _ = tx.send(Cmd::Stop);
                handle.join().expect("chain thread panicked")
            })
            .collect();
        let low = runs.remove(0);
        Phases {
            low,
            high: runs,
            high_secs,
        }
    })
}

/// ESS per wall second of the high phase: for every recorded component,
/// `augur::diag::ess` of each chain's post-warm-up trace, summed over
/// chains, over the high blocks' wall seconds; then the median over
/// components (a minimum over thousands of LDA components would be an
/// extreme value, not a typical one).
fn ess_per_s(spec: &Spec, phases: &Phases, tr: &Tracer) -> f64 {
    let _root = tr.enter("ess", 0);
    let mut per_component = Vec::new();
    for p in spec.record {
        let width = phases.high[0].draws[p].first().map_or(0, Vec::len);
        for j in 0..width {
            let ess: f64 = phases
                .high
                .iter()
                .map(|c| {
                    let xs = c.post_warmup(p, j);
                    tr.span("diag::ess", 0, || diag::ess(&xs))
                })
                .sum();
            per_component.push(ess / phases.high_secs);
        }
    }
    median(&per_component)
}

/// Native and tape states agree bit for bit after a short prefix, and
/// `ChainPlan` fans out the same chains as the high phase.
fn check_prefix(spec: &Spec, plan: &Plan, seed: u64, high: &[ChainRun], out: &mut Outcome) {
    let cfg = spec.config(chain_seed(seed, 0));
    let prefix_state = |backend: ExecBackend| -> Result<Checkpoint, String> {
        let mut s = plan
            .session(SessionConfig {
                backend,
                ..cfg.clone()
            })
            .map_err(|e| e.to_string())?;
        if s.backend() != backend {
            return Err(format!("{backend:?} fell back: {:?}", s.backend_fallback()));
        }
        s.init().map_err(|e| e.to_string())?;
        for _ in 0..spec.prefix {
            s.try_sweep().map_err(|e| e.to_string())?;
        }
        Ok(s.checkpoint())
    };
    match (
        prefix_state(ExecBackend::Native),
        prefix_state(ExecBackend::Tape),
    ) {
        (Ok(n), Ok(t)) => out.checks.check(
            "native and tape states bit-identical after the prefix",
            n.buffers == t.buffers && n.rng_state == t.rng_state && n.work == t.work,
            || format!("states differ after {} sweeps", spec.prefix),
        ),
        (n, t) => out
            .checks
            .check("prefix sessions run", false, || format!("{n:?} / {t:?}")),
    }

    let chains = ChainPlan::new(plan)
        .config(spec.config(seed))
        .chains(CHAINS)
        .sweeps(spec.prefix)
        .record(spec.record)
        .threads(CHAINS)
        .run();
    match chains {
        Ok(chains) => {
            let same = chains.draws.iter().zip(high).all(|(cp, mine)| {
                spec.record
                    .iter()
                    .all(|p| (0..spec.prefix).all(|s| bits(&cp[s][*p]) == bits(&mine.draws[p][s])))
            });
            out.checks
                .check("ChainPlan reproduces the high phase's draws", same, || {
                    format!("draws differ within the first {} sweeps", spec.prefix)
                });
        }
        Err(e) => out.checks.check("ChainPlan runs", false, || e.to_string()),
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Snapshot → render → parse → restore on a live session; the round trip
/// must give back the same state. Returns the rendered size in bytes, or
/// `None` when the round trip failed.
fn checkpoint_probe(spec: &Spec, s: &mut Session, tr: &Tracer) -> Option<usize> {
    let state = |s: &Session| -> Vec<Vec<u64>> {
        spec.record
            .iter()
            .map(|p| bits(s.param(p).expect("recorded parameters exist")))
            .collect()
    };
    let before = state(s);
    let ck = tr.span("Session::checkpoint", 0, || s.checkpoint());
    let text = tr.span("Checkpoint::render", 0, || ck.render());
    let parsed = match tr.span("Checkpoint::parse", 0, || Checkpoint::parse(&text)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: checkpoint does not parse: {e}");
            return None;
        }
    };
    let restored = tr.span("Session::restore", 0, || s.restore(&parsed));
    let same = parsed.buffers == ck.buffers && parsed.rng_state == ck.rng_state;
    (restored.is_ok() && same && state(s) == before).then_some(text.len())
}

fn run(ctx: &Ctx, spec: &Spec, model_check: impl Fn(&[ChainRun], &mut Outcome)) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(ctx.traced);
    let off = Tracer::new(false);

    // Set-ups are spread over the run, between rounds, so they meet the
    // same host conditions as the sweeps.
    let Some(first) = setup(spec, ctx.seed, &tracer, &mut out) else {
        return out;
    };
    let plan = &first.plan;
    let mut setups = Vec::new();
    let mut more_setups = || {
        for _ in 0..spec.setups_per_round {
            setups.extend(setup(spec, ctx.seed, &tracer, &mut Outcome::default()));
        }
    };

    // A traced run measures the phases twice, untraced first, and reports
    // the difference as the tracing overhead.
    let seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let base = phases(spec, plan, ctx.seed, seconds, &off, &mut more_setups);
    let traced = ctx
        .traced
        .then(|| phases(spec, plan, ctx.seed, seconds, &tracer, &mut || {}));
    let expected = spec.setups_per_round * ROUNDS;
    out.checks
        .check("every set-up succeeds", setups.len() == expected, || {
            format!("{} of {expected} set-ups failed", expected - setups.len())
        });
    let setups: Vec<&Setup> = std::iter::once(&first).chain(&setups).collect();
    let secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    out.e2e.set("setup_s", median(&secs), "s");

    check_prefix(spec, plan, ctx.seed, &base.high, &mut out);
    // The low chain and high chain 0 share a seed: a chain's draws must
    // not depend on what runs beside it.
    let n = base.low.sweep_ms.len().min(base.high[0].sweep_ms.len());
    let same = spec
        .record
        .iter()
        .all(|p| (0..n).all(|s| bits(&base.low.draws[p][s]) == bits(&base.high[0].draws[p][s])));
    out.checks.check(
        "a chain's draws do not depend on its neighbours",
        same,
        || "the low chain and high chain 0 diverged".into(),
    );
    out.checks.check(
        "checkpoint round-trips through render and parse",
        base.low.checkpoint_bytes.is_some(),
        || "the restored state differs".into(),
    );
    model_check(&base.high, &mut out);

    let runs = || std::iter::once(&base.low).chain(&base.high);
    out.attempted = runs().map(|c| c.sweep_ms.len() as u64).sum();
    out.failed = runs().map(|c| c.failed).sum();
    let high_sweeps: usize = base
        .high
        .iter()
        .map(|c| c.sweep_ms.len() - spec.warmup)
        .sum();
    out.e2e
        .set("sweeps_per_s", high_sweeps as f64 / base.high_secs, "1/s");
    out.e2e
        .set("ess_per_s", ess_per_s(spec, &base, &off), "1/s");
    // The high chains' CPU time over their high blocks (the warm-up block
    // left out), per chain-sweep.
    let high_cpu_ms: f64 = base
        .high
        .iter()
        .map(|c| c.block_cpu_ms[1..].iter().sum::<f64>())
        .sum();
    out.e2e
        .set("cpu_ms_per_sweep", high_cpu_ms / high_sweeps as f64, "ms");
    // Per-round quantiles, then their median: both chains' sweeps of one
    // high block form one group.
    let high_rounds = |p: &Phases| -> Vec<Vec<f64>> {
        let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); ROUNDS];
        for c in &p.high {
            for (r, block) in c.blocks().enumerate() {
                rounds[r].extend_from_slice(block);
            }
        }
        rounds
    };
    let (low, high) = (|| base.low.blocks(), high_rounds(&base));
    out.info
        .push(("rounds_p50_ms.low".into(), rounded_quantiles(low(), 0.5)));
    out.info.push((
        "rounds_p50_ms.high".into(),
        rounded_quantiles(high.iter().map(Vec::as_slice), 0.5),
    ));
    out.e2e
        .set("latency_p50_ms.low", quantile_of_groups(low(), 0.5), "ms");
    out.e2e
        .set("latency_p90_ms.low", quantile_of_groups(low(), 0.9), "ms");
    out.e2e.set(
        "latency_p50_ms.high",
        quantile_of_groups(high.iter().map(Vec::as_slice), 0.5),
        "ms",
    );
    out.e2e.set(
        "latency_p90_ms.high",
        quantile_of_groups(high.iter().map(Vec::as_slice), 0.9),
        "ms",
    );
    out.info.push((
        "fail_share".into(),
        format!("{}", out.failed as f64 / out.attempted as f64),
    ));
    out.info
        .push(("low_sweeps".into(), base.low.sweep_ms.len().to_string()));
    out.info
        .push(("high_sweeps".into(), high_sweeps.to_string()));
    out.info.push(("setups".into(), setups.len().to_string()));

    if let Some(traced) = traced {
        ess_per_s(spec, &traced, &tracer);
        let pooled = |p: &Phases| median(&high_rounds(p).concat());
        let overhead = pooled(&traced) / pooled(&base) - 1.0;
        out.layers = layer_metrics(spec, &setups, &traced, &tracer, overhead);
    }
    out
}

/// The traced run's per-layer figures.
fn layer_metrics(
    spec: &Spec,
    setups: &[&Setup],
    traced: &Phases,
    tracer: &Tracer,
    overhead: f64,
) -> Metrics {
    let spans = tracer.take();
    let mut m = Metrics::default();
    let med = |name: &str| median(&trace::durations_ms(&spans, name));
    let total = |name: &str| trace::durations_ms(&spans, name).iter().sum::<f64>();
    m.set("compile.model_ms", med("Model::compile"), "ms");
    m.set("plan.cold_ms", med("Model::plan"), "ms");
    let stats = setups
        .iter()
        .fold(PlanCacheStats::default(), |a, s| PlanCacheStats {
            hits: a.hits + s.stats.hits,
            misses: a.misses + s.stats.misses,
            respecializes: a.respecializes + s.stats.respecializes,
            ..a
        });
    m.set("plan.hits", stats.hits as f64, "count");
    m.set("plan.misses", stats.misses as f64, "count");
    m.set("plan.respecializes", stats.respecializes as f64, "count");
    if spec.backend == ExecBackend::Native {
        m.set(
            "native.cc_ms",
            median(&setups.iter().map(|s| s.cc_ms).collect::<Vec<_>>()),
            "ms",
        );
        m.set(
            "native.disk_hits",
            setups.iter().filter(|s| s.disk_hit).count() as f64,
            "count",
        );
        m.set("sweep.native_ms_per_sweep", med("Session::try_sweep"), "ms");
    } else {
        m.set("sweep.tape_ms_per_sweep", med("Session::try_sweep"), "ms");
    }
    m.set("session.bind_ms", med("Plan::session"), "ms");
    m.set("session.init_ms", med("Session::init"), "ms");
    m.set("checkpoint.snapshot_ms", med("Session::checkpoint"), "ms");
    m.set("checkpoint.restore_ms", med("Session::restore"), "ms");
    m.set("checkpoint.render_ms", med("Checkpoint::render"), "ms");
    m.set("checkpoint.parse_ms", med("Checkpoint::parse"), "ms");
    m.set(
        "checkpoint.bytes",
        traced.low.checkpoint_bytes.unwrap_or(0) as f64,
        "bytes",
    );
    m.set("diag.ess_ms", total("diag::ess"), "ms");
    let reports: Vec<&RunReport> = traced.high.iter().map(|c| &c.report).collect();
    kernel_metrics(&mut m, spec.model, &reports);

    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns())
        .sum();
    let by_layer = trace::layer_self_ns(&spans, |_| true);
    for (layer, ns) in &by_layer {
        m.set(
            format!("self.{layer}_share"),
            *ns as f64 / roots as f64,
            "share",
        );
    }
    m.set(
        "trace.accounted_share",
        1.0 - by_layer["bench"] as f64 / roots as f64,
        "share",
    );
    m.set("trace.overhead_share", overhead, "share");
    m.set("trace.spans", spans.len() as f64, "count");
    m
}
