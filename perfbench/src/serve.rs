//! `serve-mixed-open`: open-loop arrivals into `augur-serve`.
//!
//! One generator thread sends requests on a fixed, seeded Poisson
//! schedule that alternates `ROUNDS` times between two constant offered
//! rates (`low`, `high`) and polls `Ticket::try_wait` between sends; the
//! poll interval bounds the timing error. Each request's latency runs from
//! its *scheduled* send, so a stalled service cannot hide the queue it
//! builds (no coordinated omission). A second thread scrapes `/metrics`
//! about once a second. Latency is printed but not gated (it moves with
//! the host's steal); the gated speed metric is the shard workers' CPU
//! time per served chain-sweep.
//!
//! The traced run replays the same request stream through the library
//! path a shard worker takes — `resolve` → `plan` → per slice {`session`
//! → `init`/`restore` → `sample(8)` → fold → `checkpoint`} →
//! `report().digest()` — with a span around every call, on a fresh
//! registry whose plan cache sees the same hits and respecializations as
//! the served run.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use augurv2::augur::chains::chain_seed;
use augurv2::augur::diag::OnlineParamDiag;
use augurv2::augur::{
    diag, ChainPlan, Checkpoint, HostValue, McmcConfig, PlanEvent, RunReport, SessionConfig,
};
use augurv2::augur_math::{Matrix, Prng};
use augurv2::augur_serve::{
    hermetic_config, ExplainRequest, MetricsSnapshot, ModelRegistry, ModelSpec, Request, Response,
    SampleOutput, SampleRequest, ScoreRequest, ServeError, Service, ServiceConfig,
};
use augurv2::{models, workloads};

use crate::stats::{mean, median, quantile, quantile_of_groups, rounded_quantiles, Metrics};
use crate::trace::{self, Span, Tracer};
use crate::{cpu, kernel_metrics, Ctx, Outcome};

/// Offered rate of the low phase, requests per second.
pub const RATE_LOW: f64 = 40.0;
/// Offered rate of the high phase, requests per second.
pub const RATE_HIGH: f64 = 80.0;
/// Name prefix of the service's shard worker threads.
const WORKER_THREADS: &str = "augur-serve-";
/// Chains and sweeps of every `sample` request.
const CHAINS: usize = 2;
const SWEEPS: usize = 48;
/// Chains checkpoint and move to the next shard every this many sweeps.
const MIGRATE_EVERY: usize = 8;
/// Interval between `/metrics` scrapes.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
/// Longest sleep of the generator between polls of its open tickets.
const POLL: Duration = Duration::from_micros(200);
/// A ticket still open this long after its segment's last send ends the
/// pass; the run then fails its "every ticket resolves" check.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Service set-ups after every segment, besides the first; `setup_s` is
/// the median of them all.
const SETUPS_PER_SEGMENT: usize = 2;
/// Served `sample` requests re-run through `ChainPlan` and the replay.
const RERUN: usize = 6;

/// The three models at the shapes `sustained_load` serves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ModelKind {
    Hgmm,
    Lda,
    Hlr,
}

const MODELS: [ModelKind; 3] = [ModelKind::Hgmm, ModelKind::Lda, ModelKind::Hlr];

impl ModelKind {
    fn name(self) -> &'static str {
        match self {
            ModelKind::Hgmm => "hgmm",
            ModelKind::Lda => "lda",
            ModelKind::Hlr => "hlr",
        }
    }

    fn source(self) -> &'static str {
        match self {
            ModelKind::Hgmm => models::HGMM,
            ModelKind::Lda => models::LDA,
            ModelKind::Hlr => models::HLR,
        }
    }

    fn record(self) -> &'static str {
        match self {
            ModelKind::Hgmm => "mu",
            ModelKind::Lda | ModelKind::Hlr => "theta",
        }
    }

    /// Arguments and data at the `sustained_load` shapes, from `seed`.
    fn inputs(self, seed: u64) -> Inputs {
        match self {
            ModelKind::Hgmm => {
                let (k, d, n) = (2, 2, 40);
                let data = workloads::hgmm_data(k, d, n, seed);
                let args = vec![
                    HostValue::Int(k as i64),
                    HostValue::Int(n as i64),
                    HostValue::VecF(vec![1.0; k]),
                    HostValue::VecF(vec![0.0; d]),
                    HostValue::Mat(Matrix::identity(d).scale(50.0)),
                    HostValue::Real((d + 2) as f64),
                    HostValue::Mat(Matrix::identity(d)),
                ];
                (args, vec![("y".into(), HostValue::Ragged(data.points))])
            }
            ModelKind::Lda => lda_inputs(lda_corpus(seed)),
            ModelKind::Hlr => {
                let (n, d) = (30, 3);
                let data = workloads::logistic_data(n, d, seed);
                let args = vec![
                    HostValue::Real(1.0),
                    HostValue::Int(n as i64),
                    HostValue::Int(d as i64),
                    HostValue::Ragged(data.x),
                ];
                (args, vec![("y".into(), HostValue::VecF(data.y))])
            }
        }
    }

    fn config(self, seed: u64) -> SessionConfig {
        match self {
            ModelKind::Hlr => SessionConfig {
                mcmc: McmcConfig {
                    step_size: 0.05,
                    leapfrog_steps: 8,
                    ..McmcConfig::default()
                },
                ..hermetic_config(seed)
            },
            _ => hermetic_config(seed),
        }
    }
}

/// A request's positional arguments and named data.
type Inputs = (Vec<HostValue>, Vec<(String, HostValue)>);

fn lda_corpus(seed: u64) -> workloads::Corpus {
    workloads::lda_corpus(2, 8, 12, 8, seed)
}

fn lda_inputs(corpus: workloads::Corpus) -> Inputs {
    let topics = 2;
    let args = vec![
        HostValue::Int(topics),
        HostValue::Int(corpus.docs.len() as i64),
        HostValue::VecF(vec![0.5; topics as usize]),
        HostValue::VecF(vec![0.1; corpus.vocab]),
        HostValue::VecI(corpus.lens),
    ];
    (args, vec![("w".into(), HostValue::RaggedI(corpus.docs))])
}

/// The usual LDA corpus with the last `m` tokens of document `i` moved
/// to document `j`, for the `k`-th triple `(i, j, m)`: the same tokens,
/// so the same work, under document lengths no other triple gives, so
/// the plan cache has never seen the shape.
fn novel_lda(seed: u64, k: usize) -> Inputs {
    let mut corpus = lda_corpus(seed);
    let lens: Vec<usize> = corpus.docs.iter().map(Vec::len).collect();
    let triples: Vec<(usize, usize, usize)> = (0..lens.len())
        .flat_map(|i| {
            (0..lens.len())
                .filter(move |&j| j != i)
                .map(move |j| (i, j))
        })
        .flat_map(|(i, j)| (1..lens[i]).map(move |m| (i, j, m)))
        .collect();
    let (i, j, m) = triples[k % triples.len()];
    let moved = corpus.docs[i].split_off(lens[i] - m);
    corpus.docs[j].extend(moved);
    corpus.lens = corpus.docs.iter().map(|d| d.len() as i64).collect();
    lda_inputs(corpus)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Sample,
    Score,
    Explain,
}

/// One request of the stream, kept so it can be replayed.
struct Prepared {
    kind: Kind,
    model: ModelKind,
    /// Carries a data shape no earlier request had.
    novel: bool,
    args: Vec<HostValue>,
    data: Vec<(String, HostValue)>,
    config: SessionConfig,
    /// Offset of its scheduled send from the start of its segment.
    due: Duration,
    /// The run alternates `ROUNDS` times between the phases; this is the
    /// request's slot in that sequence.
    segment: usize,
}

impl Prepared {
    fn request(&self) -> Request {
        let (model, args, data) = (
            self.model.name().to_string(),
            self.args.clone(),
            self.data.clone(),
        );
        match self.kind {
            Kind::Sample => Request::Sample(SampleRequest {
                model,
                version: None,
                args,
                data,
                chains: CHAINS,
                sweeps: SWEEPS,
                record: vec![self.model.record().to_string()],
                config: Some(self.config.clone()),
                migrate_every: None,
                deadline: None,
            }),
            Kind::Score => Request::Score(ScoreRequest {
                model,
                version: None,
                args,
                data,
                config: Some(self.config.clone()),
                deadline: None,
            }),
            Kind::Explain => Request::Explain(ExplainRequest {
                model,
                version: None,
                args,
                data,
                deadline: None,
            }),
        }
    }
}

/// The phases' offered rates and their shares of the run's seconds.
const PHASES: [(&str, f64, f64); 2] = [("low", RATE_LOW, 0.4), ("high", RATE_HIGH, 0.6)];
/// Each phase is split into this many segments, alternating low and
/// high, so slow drift in the host's speed reaches both phases alike.
const ROUNDS: usize = 5;

/// The request stream of both phases, from the seed. Every 12th request
/// is an LDA `sample` with a data shape no earlier request had, so it
/// respecializes its plan; one in 12 is a
/// `score` and one in 12 an `explain`; the rest are `sample` requests
/// round-robin over the three models at their usual shapes.
fn stream(seed: u64, seconds: f64) -> Vec<Prepared> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5EED_0FA1);
    let lda = ModelKind::Lda.inputs(seed);
    let mut out = Vec::new();
    let (mut samples, mut novel, mut other) = (0usize, 0usize, 0usize);
    let segments = (0..ROUNDS).flat_map(|_| PHASES.iter());
    for (segment, (_, rate, share)) in segments.enumerate() {
        let span = seconds * share / ROUNDS as f64;
        let mut t = rng.exponential(*rate);
        while t < span {
            let i = out.len();
            let (kind, model, is_novel) = match i % 12 {
                9 => {
                    novel += 1;
                    (Kind::Sample, ModelKind::Lda, true)
                }
                10 | 11 => {
                    other += 1;
                    let kind = if i % 12 == 10 {
                        Kind::Score
                    } else {
                        Kind::Explain
                    };
                    (kind, MODELS[other % 3], false)
                }
                _ => {
                    samples += 1;
                    (Kind::Sample, MODELS[samples % 3], false)
                }
            };
            let request_seed = seed.wrapping_mul(1000).wrapping_add(i as u64);
            let (args, data) = match (is_novel, model) {
                (true, _) => novel_lda(seed, novel),
                // Token ids are part of the plan-cache key, so LDA requests
                // share one corpus; HGMM and HLR requests bring their own
                // real-valued data under one shape.
                (false, ModelKind::Lda) => lda.clone(),
                (false, m) => m.inputs(request_seed),
            };
            out.push(Prepared {
                kind,
                model,
                novel: is_novel,
                args,
                data,
                config: model.config(request_seed),
                due: Duration::from_secs_f64(t),
                segment,
            });
            t += rng.exponential(*rate);
        }
    }
    out
}

fn register(registry: &ModelRegistry, tr: &Tracer) {
    for m in MODELS {
        tr.span("ModelRegistry::register", 0, || {
            registry.register(m.name(), ModelSpec::new(m.source()))
        })
        .expect("benchmark models compile");
    }
}

/// Register + start + warm-up: what a user waits for before the first
/// request is served. The warm-up plans every model's usual shape once.
fn setup(tr: &Tracer) -> (Service, f64) {
    let _root = tr.enter("setup", 0);
    let t0 = Instant::now();
    let registry = ModelRegistry::new();
    register(&registry, tr);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServiceConfig {
        workers,
        migrate_every: MIGRATE_EVERY as u64,
        telemetry_addr: Some("127.0.0.1:0".into()),
        fault: None,
        ..ServiceConfig::default()
    };
    let service = tr.span("Service::start", 0, || Service::start(registry, config));
    let tickets: Vec<_> = MODELS
        .iter()
        .map(|m| {
            let (args, data) = m.inputs(0);
            let req = SampleRequest {
                model: m.name().into(),
                version: None,
                args,
                data,
                chains: 1,
                sweeps: 2,
                record: vec![m.record().into()],
                config: Some(m.config(0)),
                migrate_every: None,
                deadline: None,
            };
            tr.span("Service::submit", 0, || {
                service.submit(Request::Sample(req))
            })
        })
        .collect();
    for t in tickets {
        t.wait().expect("warm-up request succeeds");
    }
    (service, t0.elapsed().as_secs_f64())
}

/// One `/metrics` scrape over plain TCP; returns the response size.
fn scrape(addr: SocketAddr) -> Result<usize, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(|e| e.to_string())?;
    if !body.starts_with("HTTP/1.1 200") || !body.contains("augur_") {
        return Err(format!("unexpected /metrics answer: {:.80}", body));
    }
    Ok(body.len())
}

/// What one phase of the generator saw.
#[derive(Default)]
struct PhaseStats {
    /// Latency of every request, from its scheduled send, in ms, one
    /// vector per segment.
    latency_ms: Vec<Vec<f64>>,
    /// How late each send left, in ms.
    late_ms: Vec<f64>,
    /// Requests still open at a segment's last send, the most over the
    /// phase's segments.
    backlog_end: usize,
    /// How many more requests were open at a segment's last send than at
    /// its middle one, the most over the phase's segments.
    backlog_growth: usize,
    /// From each segment's start to its last completion, summed.
    wall_secs: f64,
}

/// One pass of the stream through a started service.
struct Pass {
    phases: Vec<PhaseStats>,
    /// Every answer, by stream index (`None`: never resolved).
    answers: Vec<Option<Result<Response, ServeError>>>,
    latency_ms: Vec<f64>,
    /// CPU time of the shard workers during the segments, in ms.
    worker_cpu_ms: f64,
    scrapes: Vec<(f64, Result<usize, String>)>,
    snapshot: MetricsSnapshot,
}

fn drive(
    service: &Service,
    reqs: &[Prepared],
    tr: &Tracer,
    between_segments: &mut dyn FnMut(),
) -> Pass {
    let addr = service.telemetry_addr().expect("the exporter is on");
    let stop = AtomicBool::new(false);
    let mut answers: Vec<Option<Result<Response, ServeError>>> =
        reqs.iter().map(|_| None).collect();
    let mut latency_ms = vec![f64::NAN; reqs.len()];
    let mut phases: Vec<PhaseStats> = PHASES.iter().map(|_| PhaseStats::default()).collect();
    let mut worker_cpu_ms = 0.0;
    let scrapes = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut out = Vec::new();
            let mut next = Instant::now() + SCRAPE_EVERY;
            while !stop.load(Ordering::Relaxed) {
                if Instant::now() >= next {
                    let t = Instant::now();
                    let r = tr.span("GET /metrics", 0, || scrape(addr));
                    out.push((t.elapsed().as_secs_f64() * 1e3, r));
                    next += SCRAPE_EVERY;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            out
        });
        let mut prepared: Vec<Option<Request>> = reqs.iter().map(|r| Some(r.request())).collect();
        for segment in 0..ROUNDS * PHASES.len() {
            let idx: Vec<usize> = (0..reqs.len())
                .filter(|&i| reqs[i].segment == segment)
                .collect();
            let _root = tr.enter("segment", 0);
            let cpu0 = cpu::threads_named_ms(WORKER_THREADS);
            let start = Instant::now() + Duration::from_millis(2);
            let mut stats = PhaseStats::default();
            let mut backlog_mid = 0;
            let mut open: Vec<(usize, augurv2::augur_serve::Ticket, Instant)> = Vec::new();
            let mut poll = |open: &mut Vec<(usize, augurv2::augur_serve::Ticket, Instant)>| {
                if open.is_empty() {
                    return;
                }
                let _g = tr.enter("Ticket::try_wait", 0);
                open.retain(|(i, ticket, due)| match ticket.try_wait() {
                    Some(answer) => {
                        latency_ms[*i] = due.elapsed().as_secs_f64() * 1e3;
                        answers[*i] = Some(answer);
                        false
                    }
                    None => true,
                });
            };
            for (n, &i) in idx.iter().enumerate() {
                let due = start + reqs[i].due;
                loop {
                    poll(&mut open);
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep(POLL.min(due - now));
                }
                stats.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let req = prepared[i].take().expect("each request is sent once");
                let ticket = tr.span("Service::submit", i as u64, || service.submit(req));
                open.push((i, ticket, due));
                if n == idx.len() / 2 {
                    backlog_mid = open.len();
                }
            }
            stats.backlog_end = open.len();
            let last_send = Instant::now();
            while !open.is_empty() && last_send.elapsed() < DRAIN_LIMIT {
                poll(&mut open);
                std::thread::sleep(POLL);
            }
            stats.wall_secs = start.elapsed().as_secs_f64();
            let backlog_left = open.len();
            let segment_ms = idx
                .iter()
                .map(|&i| latency_ms[i])
                .filter(|l| l.is_finite())
                .collect();
            let ph = &mut phases[segment % PHASES.len()];
            ph.latency_ms.push(segment_ms);
            ph.late_ms.extend(stats.late_ms);
            ph.backlog_end = ph.backlog_end.max(stats.backlog_end);
            ph.backlog_growth = ph
                .backlog_growth
                .max(stats.backlog_end.saturating_sub(backlog_mid));
            ph.wall_secs += stats.wall_secs;
            worker_cpu_ms += cpu::threads_named_ms(WORKER_THREADS) - cpu0;
            if backlog_left > 0 {
                break;
            }
            between_segments();
        }
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("scraper thread panicked")
    });
    let snapshot = tr.span("Service::metrics", 0, || service.metrics());
    Pass {
        phases,
        answers,
        latency_ms,
        worker_cpu_ms,
        scrapes,
        snapshot,
    }
}

/// Median over a request's recorded components of the ESS summed over
/// its chains.
fn request_ess(out: &SampleOutput, param: &str, tr: &Tracer) -> f64 {
    let width = out.draws[0].first().map_or(0, |s| s[param].len());
    let per_component: Vec<f64> = (0..width)
        .map(|j| {
            out.draws
                .iter()
                .map(|chain| {
                    let xs: Vec<f64> = chain.iter().map(|s| s[param][j]).collect();
                    tr.span("diag::ess", 0, || diag::ess(&xs))
                })
                .sum()
        })
        .collect();
    median(&per_component)
}

/// One replayed request's results.
struct Replayed {
    draws: Vec<Vec<HashMap<String, Vec<f64>>>>,
    digests: Vec<String>,
    reports: Vec<RunReport>,
    last_checkpoint: Option<Checkpoint>,
}

/// Replays requests through the library path a shard worker takes, on
/// its own registry, recording what the plan cache did for each.
struct Replayer {
    registry: ModelRegistry,
    plans: Vec<(PlanEvent, f64)>,
    sweeps: usize,
}

impl Replayer {
    fn new(tr: &Tracer) -> Replayer {
        let registry = ModelRegistry::new();
        register(&registry, tr);
        let mut r = Replayer {
            registry,
            plans: Vec::new(),
            sweeps: 0,
        };
        // The service's warm-up, so the stream meets the same cache.
        for m in MODELS {
            let (args, data) = m.inputs(0);
            let warm = Prepared {
                kind: Kind::Sample,
                model: m,
                novel: false,
                args,
                data,
                config: m.config(0),
                due: Duration::ZERO,
                segment: 0,
            };
            r.replay(&warm, 1, 2, u64::MAX, tr)
                .expect("warm-up replays");
        }
        r
    }

    fn replay(
        &mut self,
        p: &Prepared,
        chains: usize,
        sweeps: usize,
        id: u64,
        tr: &Tracer,
    ) -> Result<Replayed, String> {
        let _root = tr.enter("request", id);
        let name = p.model.name();
        let model = tr
            .span("ModelRegistry::resolve", id, || {
                self.registry.resolve(name, None)
            })
            .ok_or_else(|| format!("{name} is not registered"))?;
        let data: Vec<(&str, HostValue)> = p
            .data
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let args = p.args.clone();
        let t = Instant::now();
        let plan = tr
            .span("RegisteredModel::plan", id, || model.plan(args, data))
            .map_err(|e| e.to_string())?;
        self.plans
            .push((plan.cache_event(), t.elapsed().as_secs_f64() * 1e3));
        let mut out = Replayed {
            draws: Vec::new(),
            digests: Vec::new(),
            reports: Vec::new(),
            last_checkpoint: None,
        };
        match p.kind {
            Kind::Score => {
                let mut s = tr
                    .span("Plan::session", id, || plan.session(p.config.clone()))
                    .map_err(|e| e.to_string())?;
                tr.span("Session::init", id, || s.init())
                    .map_err(|e| e.to_string())?;
                let lj = tr.span("Session::log_joint", id, || s.log_joint());
                if !lj.is_finite() {
                    return Err(format!("log joint {lj}"));
                }
            }
            Kind::Explain => {
                let s = tr
                    .span("Plan::session", id, || plan.session(p.model.config(0)))
                    .map_err(|e| e.to_string())?;
                let text = tr.span("ExplainPlan::render", id, || s.explain().render());
                if text.is_empty() {
                    return Err("empty explain".into());
                }
            }
            Kind::Sample => {
                let record = [p.model.record()];
                let mut fold: Vec<OnlineParamDiag> = Vec::new();
                for c in 0..chains {
                    let _chain = tr.enter("chain", id);
                    let cfg = SessionConfig {
                        seed: chain_seed(p.config.seed, c),
                        ..p.config.clone()
                    };
                    let (mut done, mut ckpt, mut draws) = (0, None::<Checkpoint>, Vec::new());
                    while done < sweeps {
                        let mut s = tr
                            .span("Plan::session", id, || plan.session(cfg.clone()))
                            .map_err(|e| e.to_string())?;
                        match &ckpt {
                            Some(ck) => tr
                                .span("Session::restore", id, || s.restore(ck))
                                .map_err(|e| e.to_string())?,
                            None => tr
                                .span("Session::init", id, || s.init())
                                .map_err(|e| e.to_string())?,
                        }
                        let slice = MIGRATE_EVERY.min(sweeps - done);
                        let d = tr
                            .span("Session::sample", id, || s.sample(slice, &record))
                            .map_err(|e| e.to_string())?;
                        tr.span("OnlineParamDiag", id, || {
                            fold_slice(&mut fold, chains, c, &d, record[0])
                        });
                        draws.extend(d);
                        done += slice;
                        self.sweeps += slice;
                        if done < sweeps {
                            ckpt = Some(tr.span("Session::checkpoint", id, || s.checkpoint()));
                        } else {
                            let report = tr.span("Session::report", id, || s.report());
                            out.digests
                                .push(tr.span("RunReport::digest", id, || report.digest()));
                            out.reports.push(report);
                        }
                    }
                    out.last_checkpoint = ckpt;
                    out.draws.push(draws);
                }
            }
        }
        Ok(out)
    }
}

/// The service's slice-boundary fold: push the slice's draws into the
/// streaming estimators, then re-derive ESS and split-R̂ for every
/// component.
fn fold_slice(
    fold: &mut Vec<OnlineParamDiag>,
    chains: usize,
    chain: usize,
    slice: &[HashMap<String, Vec<f64>>],
    param: &str,
) {
    for sweep in slice {
        let values = &sweep[param];
        if fold.len() < values.len() {
            fold.resize(values.len(), OnlineParamDiag::new(chains));
        }
        for (d, &v) in fold.iter_mut().zip(values) {
            d.push(chain, v);
        }
    }
    for d in fold.iter() {
        std::hint::black_box((d.ess_sum(), d.split_rhat().ok()));
    }
}

/// Set-up, then the stream. Two more set-ups (each shut down again)
/// follow every segment, so set-up meets the same host conditions as the
/// requests. Returns the pass, the set-up seconds, and the service.
fn pass(reqs: &[Prepared], tr: &Tracer) -> (Pass, Vec<f64>, Service) {
    let (service, first) = setup(tr);
    let mut secs = vec![first];
    let mut more_setups = || {
        for _ in 0..SETUPS_PER_SEGMENT {
            let (extra, s) = setup(tr);
            secs.push(s);
            tr.span("Service::shutdown", 0, || extra.shutdown());
        }
    };
    let pass = drive(&service, reqs, tr, &mut more_setups);
    (pass, secs, service)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(ctx.traced);
    let off = Tracer::new(false);
    let seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let reqs = stream(ctx.seed, seconds);

    let (base, setup_secs, service) = pass(&reqs, &off);
    out.e2e.set("setup_s", median(&setup_secs), "s");
    out.info
        .push(("setups".into(), setup_secs.len().to_string()));
    record_end_to_end(&reqs, &base, &mut out, &off);
    check_answers(&reqs, &base, &mut out);
    check_reruns(ctx.seed, &reqs, &base, &service, &mut out);
    service.shutdown();

    if ctx.traced {
        let (traced, _, service) = pass(&reqs, &tracer);
        tracer.span("Service::shutdown", 0, || service.shutdown());
        let overhead = mean(&traced.latency_ms) / mean(&base.latency_ms) - 1.0;
        out.layers = layer_metrics(&reqs, &base, &traced, &tracer, overhead, &mut out);
    }
    out
}

fn record_end_to_end(reqs: &[Prepared], pass: &Pass, out: &mut Outcome, tr: &Tracer) {
    let wall: f64 = pass.phases.iter().map(|p| p.wall_secs).sum();
    let mut sweeps = 0usize;
    let mut ess = 0.0;
    for (p, a) in reqs.iter().zip(&pass.answers) {
        if let (Kind::Sample, Some(Ok(Response::Sample(s)))) = (p.kind, a) {
            sweeps += s.draws.iter().map(Vec::len).sum::<usize>();
            ess += request_ess(s, p.model.record(), tr);
        }
    }
    out.e2e.set("sweeps_per_s", sweeps as f64 / wall, "1/s");
    // Everything the shard workers did — plan, bind, restore, sample,
    // fold, checkpoint, and the score and explain requests — per served
    // chain-sweep.
    out.e2e
        .set("cpu_ms_per_sweep", pass.worker_cpu_ms / sweeps as f64, "ms");
    out.e2e.set("ess_per_s", ess / wall, "1/s");
    for ((name, _, _), ph) in PHASES.iter().zip(&pass.phases) {
        let segments = || ph.latency_ms.iter().map(Vec::as_slice);
        out.info.push((
            format!("rounds_p50_ms.{name}"),
            rounded_quantiles(segments(), 0.5),
        ));
        out.info.push((
            format!("rounds_p90_ms.{name}"),
            rounded_quantiles(segments(), 0.9),
        ));
        out.e2e.set(
            format!("latency_p50_ms.{name}"),
            quantile_of_groups(segments(), 0.5),
            "ms",
        );
        out.e2e.set(
            format!("latency_p90_ms.{name}"),
            quantile_of_groups(segments(), 0.9),
            "ms",
        );
        out.info.push((
            format!("requests.{name}"),
            segments().map(<[f64]>::len).sum::<usize>().to_string(),
        ));
        out.info
            .push((format!("backlog_end.{name}"), ph.backlog_end.to_string()));
        // A queue that grew through a segment is reported, not averaged
        // away: the service did not keep up with the offered rate.
        let growing = ph.backlog_growth > 4;
        out.info
            .push((format!("backlog_growing.{name}"), growing.to_string()));
        out.info.push((
            format!("generator_late_p99_ms.{name}"),
            quantile(&ph.late_ms, 0.99).to_string(),
        ));
    }
    let failed = pass
        .answers
        .iter()
        .filter(|a| !matches!(a, Some(Ok(_))))
        .count();
    out.attempted += reqs.len() as u64;
    out.failed += failed as u64;
    out.info.push((
        "fail_share".into(),
        (failed as f64 / reqs.len().max(1) as f64).to_string(),
    ));
    out.info
        .push(("scrapes".into(), pass.scrapes.len().to_string()));
}

/// Every ticket resolved, every answer is a success of the right kind.
fn check_answers(reqs: &[Prepared], pass: &Pass, out: &mut Outcome) {
    let unresolved = pass.answers.iter().filter(|a| a.is_none()).count();
    out.checks
        .check("every ticket resolves", unresolved == 0, || {
            format!("{unresolved} still open")
        });
    for (i, (p, a)) in reqs.iter().zip(&pass.answers).enumerate() {
        let ok = match (p.kind, a) {
            (Kind::Sample, Some(Ok(Response::Sample(s)))) => {
                s.draws.len() == CHAINS && s.draws.iter().all(|c| c.len() == SWEEPS)
            }
            (Kind::Score, Some(Ok(Response::Score(s)))) => s.log_joint.is_finite(),
            (Kind::Explain, Some(Ok(Response::Explain(e)))) => !e.explain.is_empty(),
            (_, None) => continue,
            _ => false,
        };
        out.checks
            .check("request answered correctly", ok, || match a {
                Some(Err(e)) => format!("request {i} failed: {e}"),
                _ => format!("request {i} ({:?}) got a wrong answer", p.kind),
            });
    }
    let scrapes_ok = !pass.scrapes.is_empty() && pass.scrapes.iter().all(|(_, r)| r.is_ok());
    out.checks
        .check("/metrics answers every scrape", scrapes_ok, || {
            format!("{:?}", pass.scrapes.iter().find(|(_, r)| r.is_err()))
        });
}

/// A fixed, seeded subset of served `sample` requests, re-run through
/// `ChainPlan` and through the replay, must match the served draws and
/// report digests byte for byte.
fn check_reruns(seed: u64, reqs: &[Prepared], pass: &Pass, service: &Service, out: &mut Outcome) {
    let samples: Vec<usize> = (0..reqs.len())
        .filter(|&i| reqs[i].kind == Kind::Sample)
        .collect();
    let mut rng = Prng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut chosen: Vec<usize> = (0..RERUN.min(samples.len()))
        .map(|_| samples[rng.below(samples.len())])
        .collect();
    // Always include one request with a novel shape.
    chosen.extend(samples.iter().copied().find(|&i| reqs[i].novel));
    let off = Tracer::new(false);
    let mut replayer = Replayer::new(&off);
    for i in chosen {
        let p = &reqs[i];
        let Some(Ok(Response::Sample(served))) = &pass.answers[i] else {
            continue;
        };
        let model = service
            .registry()
            .resolve(p.model.name(), None)
            .expect("registered");
        let data: Vec<(&str, HostValue)> = p
            .data
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let plan = model
            .plan(p.args.clone(), data)
            .expect("served shape plans");
        let record = [p.model.record()];
        let chains = ChainPlan::new(&plan)
            .config(p.config.clone())
            .chains(CHAINS)
            .sweeps(SWEEPS)
            .record(&record)
            .run();
        let same = chains
            .as_ref()
            .is_ok_and(|c| draws_equal(&c.draws, &served.draws));
        out.checks
            .check("ChainPlan re-run matches served draws", same, || {
                format!("request {i}")
            });
        let replayed = replayer.replay(p, CHAINS, SWEEPS, i as u64, &off);
        let same = replayed.as_ref().is_ok_and(|r| {
            draws_equal(&r.draws, &served.draws) && r.digests == served.report_digests
        });
        out.checks.check(
            "replay matches served draws and report digests",
            same,
            || format!("request {i}: {:?}", replayed.as_ref().err()),
        );
    }
}

fn draws_equal(a: &[Vec<HashMap<String, Vec<f64>>>], b: &[Vec<HashMap<String, Vec<f64>>>]) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(ca, cb)| {
            ca.len() == cb.len()
                && ca.iter().zip(cb).all(|(sa, sb)| {
                    sa.len() == sb.len()
                        && sa
                            .iter()
                            .all(|(k, v)| sb.get(k).is_some_and(|w| bits(v) == bits(w)))
                })
        })
}

/// The traced pass and the replay of its stream, summarised per layer.
fn layer_metrics(
    reqs: &[Prepared],
    base: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    overhead: f64,
    out: &mut Outcome,
) -> Metrics {
    let mut m = Metrics::default();
    // Served figures of the untraced pass.
    for ((name, _, _), ph) in PHASES.iter().zip(&base.phases) {
        let all: Vec<f64> = ph.latency_ms.concat();
        m.set(
            format!("serve.latency_p99_ms.{name}"),
            quantile(&all, 0.99),
            "ms",
        );
        m.set(
            format!("serve.latency_max_ms.{name}"),
            all.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        m.set(
            format!("serve.generator_late_ms.{name}"),
            quantile(&ph.late_ms, 0.99),
            "ms",
        );
        m.set(
            format!("serve.backlog_end.{name}"),
            ph.backlog_end as f64,
            "count",
        );
    }
    let snap = &base.snapshot;
    m.set("serve.migrations", snap.migrations as f64, "count");
    m.set(
        "serve.queue_high_water",
        snap.queue_high_water as f64,
        "count",
    );
    m.set("serve.retries", snap.retries as f64, "count");
    m.set("serve.timeouts", snap.timeouts as f64, "count");
    m.set("serve.shed", snap.shed as f64, "count");
    let stats = snap.models.iter().fold((0, 0, 0), |a, s| {
        (
            a.0 + s.stats.hits,
            a.1 + s.stats.misses,
            a.2 + s.stats.respecializes,
        )
    });
    m.set("plan.hits", stats.0 as f64, "count");
    m.set("plan.misses", stats.1 as f64, "count");
    m.set("plan.respecializes", stats.2 as f64, "count");
    let scrape_ms: Vec<f64> = traced.scrapes.iter().map(|s| s.0).collect();
    let scrape_bytes: Vec<f64> = traced
        .scrapes
        .iter()
        .filter_map(|s| s.1.as_ref().ok().map(|b| *b as f64))
        .collect();
    m.set("obs.scrape_ms", median(&scrape_ms), "ms");
    m.set("obs.scrape_bytes", median(&scrape_bytes), "bytes");

    // Replay the traced pass's stream on a fresh registry.
    let mut replayer = Replayer::new(tracer);
    let mut reports: BTreeMap<&str, Vec<RunReport>> = BTreeMap::new();
    let mut checkpoints: BTreeMap<&str, Checkpoint> = BTreeMap::new();
    for (i, p) in reqs.iter().enumerate() {
        match replayer.replay(p, CHAINS, SWEEPS, i as u64, tracer) {
            Ok(r) => {
                reports.entry(p.model.name()).or_default().extend(r.reports);
                if let Some(ck) = r.last_checkpoint {
                    checkpoints.insert(p.model.name(), ck);
                }
            }
            Err(e) => out
                .checks
                .check("replay succeeds", false, || format!("request {i}: {e}")),
        }
    }
    // Rendering and parsing are off the served path: one probe per model.
    {
        let _root = tracer.enter("checkpoint-probe", 0);
        let mut bytes = Vec::new();
        for (model, ck) in &checkpoints {
            let text = tracer.span("Checkpoint::render", 0, || ck.render());
            let parsed = tracer.span("Checkpoint::parse", 0, || Checkpoint::parse(&text));
            out.checks.check(
                "served checkpoint round-trips",
                parsed.is_ok_and(|p| p.buffers == ck.buffers),
                || model.to_string(),
            );
            bytes.push(text.len() as f64);
        }
        m.set("checkpoint.bytes", median(&bytes), "bytes");
    }
    {
        let _root = tracer.enter("ess", 0);
        for (p, a) in reqs.iter().zip(&traced.answers) {
            if let Some(Ok(Response::Sample(s))) = a {
                request_ess(s, p.model.record(), tracer);
            }
        }
    }
    let spans = tracer.take();
    let med = |name: &str| median(&trace::durations_ms(&spans, name));
    m.set("compile.model_ms", med("ModelRegistry::register"), "ms");
    let plan_ms = |e: PlanEvent| {
        median(
            &replayer
                .plans
                .iter()
                .filter(|(ev, _)| *ev == e)
                .map(|(_, ms)| *ms)
                .collect::<Vec<_>>(),
        )
    };
    m.set("plan.cold_ms", plan_ms(PlanEvent::Cold), "ms");
    m.set("plan.hit_ms", plan_ms(PlanEvent::Hit), "ms");
    m.set(
        "plan.respecialize_ms",
        plan_ms(PlanEvent::Respecialize),
        "ms",
    );
    let sample_ms: f64 = trace::durations_ms(&spans, "Session::sample").iter().sum();
    m.set(
        "sweep.small_us_per_sweep",
        sample_ms * 1e3 / replayer.sweeps.max(1) as f64,
        "us",
    );
    for (model, rs) in &reports {
        let refs: Vec<&RunReport> = rs.iter().collect();
        kernel_metrics(&mut m, model, &refs);
    }
    m.set("session.bind_ms", med("Plan::session"), "ms");
    m.set("session.init_ms", med("Session::init"), "ms");
    m.set("checkpoint.snapshot_ms", med("Session::checkpoint"), "ms");
    m.set("checkpoint.restore_ms", med("Session::restore"), "ms");
    m.set("checkpoint.render_ms", med("Checkpoint::render"), "ms");
    m.set("checkpoint.parse_ms", med("Checkpoint::parse"), "ms");
    m.set("diag.fold_us", med("OnlineParamDiag") * 1e3, "us");
    m.set(
        "diag.ess_ms",
        trace::durations_ms(&spans, "diag::ess").iter().sum(),
        "ms",
    );
    m.set("serve.submit_us", med("Service::submit") * 1e3, "us");
    m.set("serve.metrics_ms", med("Service::metrics"), "ms");

    // Critical path of every replayed request of the stream: its own
    // spans plus those of its slowest chain (the service runs chains on
    // different shards at once). Served latency minus that work is the
    // derived queue wait.
    let served: Vec<(usize, f64)> = (0..reqs.len())
        .filter(|&i| traced.latency_ms[i].is_finite())
        .map(|i| (i, traced.latency_ms[i]))
        .collect();
    let (layer_ns, work_ms) = critical_path(
        &spans,
        &served.iter().map(|(i, _)| *i as u64).collect::<Vec<_>>(),
    );
    let total_latency: f64 = served.iter().map(|(_, l)| l).sum();
    let queue_ms = total_latency - work_ms;
    m.set(
        "serve.queue_wait_ms",
        queue_ms / served.len().max(1) as f64,
        "ms",
    );
    for (layer, ns) in &layer_ns {
        m.set(
            format!("self.{layer}_share"),
            *ns as f64 / 1e6 / total_latency,
            "share",
        );
    }
    m.set(
        "trace.accounted_share",
        1.0 - layer_ns["bench"] as f64 / 1e6 / total_latency,
        "share",
    );
    m.set("trace.overhead_share", overhead, "share");
    m.set("trace.spans", spans.len() as f64, "count");
    m
}

/// Per-layer self time (ns) on the critical path of the replayed
/// requests `ids`, and that path's total length (ms).
fn critical_path(spans: &[Span], ids: &[u64]) -> (BTreeMap<&'static str, u64>, f64) {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let wanted: std::collections::HashSet<u64> = ids.iter().copied().collect();
    // The request root and chain span each replay span belongs to.
    let ancestry = |s: &Span| -> (Option<u64>, Option<u64>) {
        let (mut cur, mut chain) = (s, None);
        loop {
            if cur.name == "chain" {
                chain = Some(cur.id);
            }
            match cur.parent.and_then(|p| by_id.get(&p)) {
                Some(p) => cur = p,
                None => return ((cur.name == "request").then_some(cur.id), chain),
            }
        }
    };
    let mut slowest: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "chain" && wanted.contains(&s.req))
    {
        let e = slowest.entry(s.req).or_insert((s.id, 0));
        if s.dur_ns() > e.1 {
            *e = (s.id, s.dur_ns());
        }
    }
    let keep = |s: &Span| {
        if !wanted.contains(&s.req) {
            return false;
        }
        match ancestry(s) {
            (Some(_), None) => true,
            (Some(_), Some(chain)) => slowest.get(&s.req).is_some_and(|(id, _)| *id == chain),
            _ => false,
        }
    };
    let layers = trace::layer_self_ns(spans, keep);
    let total: u64 = layers.values().sum();
    (layers, total as f64 / 1e6)
}
