//! Differential tests for the two execution strategies.
//!
//! The flat instruction tape (`ExecBackend::Tape`) must reproduce the
//! reference tree-walking interpreter (`ExecBackend::Tree`)
//! *bit-for-bit*: both draw every `Par` iteration from the same
//! per-iteration splitmix RNG stream, so any divergence — a reordered draw, a different
//! rounding, a skipped work charge that shifts a reseed — shows up as a
//! trace mismatch, not just a statistical wobble. Every kernel flavor
//! (Gibbs, ESlice, HMC, NUTS, MH, MALA, Slice) is exercised over the
//! paper's three benchmark models.

use augur::prelude::*;
use augur_math::Matrix;
use augurv2::{models, workloads};

/// Runs one sampler and returns the recorded traces as raw bits:
/// `out[sweep][cell]`, concatenating the recorded parameters in order.
#[allow(clippy::too_many_arguments)]
fn bit_trace(
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    record: &[&str],
    sweeps: usize,
    exec: ExecBackend,
) -> Vec<Vec<u64>> {
    let compiled = match sched {
        Some(s) => Model::with_schedule(model, s),
        None => Model::compile(model),
    }
    .expect("model parses");
    let mut s = compiled
        .plan(args, data)
        .expect("model plans")
        .session(SessionConfig {
            backend: exec,
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..Default::default() },
            seed: 0xD1FF,
            ..Default::default()
        })
        .expect("session binds");
    s.init().unwrap();
    s.sample(sweeps, record)
        .unwrap()
        .iter()
        .map(|snap| {
            record
                .iter()
                .flat_map(|p| snap[*p].iter().map(|x| x.to_bits()))
                .collect()
        })
        .collect()
}

/// Asserts tape and tree agree exactly (localizing the first divergence).
fn assert_tape_matches_tree(
    label: &str,
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    record: &[&str],
    sweeps: usize,
) {
    let tree = bit_trace(
        model,
        sched,
        args.clone(),
        data.clone(),
        record,
        sweeps,
        ExecBackend::Tree,
    );
    let tape = bit_trace(model, sched, args, data, record, sweeps, ExecBackend::Tape);
    for (s, (a, b)) in tree.iter().zip(&tape).enumerate() {
        assert_eq!(a, b, "{label}: tape diverged from tree at sweep {s}");
    }
    assert_eq!(tree.len(), tape.len(), "{label}: sweep counts differ");
}

fn hgmm_args(k: usize, d: usize, n: usize) -> Vec<HostValue> {
    vec![
        HostValue::Int(k as i64),
        HostValue::Int(n as i64),
        HostValue::VecF(vec![1.0; k]),
        HostValue::VecF(vec![0.0; d]),
        HostValue::Mat(Matrix::identity(d).scale(50.0)),
        HostValue::Real((d + 2) as f64),
        HostValue::Mat(Matrix::identity(d)),
    ]
}

#[test]
fn hgmm_tape_matches_tree_for_every_kernel_flavor() {
    let (k, d, n) = (2, 2, 40);
    let data = workloads::hgmm_data(k, d, n, 91);
    let flavors: [(&str, Option<&str>); 7] = [
        ("gibbs", None), // heuristic: conjugate Gibbs everywhere
        ("eslice", Some("Gibbs pi (*) ESlice mu (*) Gibbs Sigma (*) Gibbs z")),
        ("hmc", Some("Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z")),
        ("nuts", Some("Gibbs pi (*) NUTS mu (*) Gibbs Sigma (*) Gibbs z")),
        ("mh", Some("Gibbs pi (*) MH mu (*) Gibbs Sigma (*) Gibbs z")),
        ("mala", Some("Gibbs pi (*) MALA mu (*) Gibbs Sigma (*) Gibbs z")),
        ("slice", Some("Gibbs pi (*) Slice mu (*) Gibbs Sigma (*) Gibbs z")),
    ];
    for (label, sched) in flavors {
        assert_tape_matches_tree(
            &format!("hgmm/{label}"),
            models::HGMM,
            sched,
            hgmm_args(k, d, n),
            vec![("y", HostValue::Ragged(data.points.clone()))],
            &["pi", "mu", "Sigma", "z"],
            25,
        );
    }
}

#[test]
fn lda_tape_matches_tree() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    assert_tape_matches_tree(
        "lda/gibbs",
        models::LDA,
        None, // heuristic: Dirichlet–Categorical Gibbs + enumeration
        vec![
            HostValue::Int(topics as i64),
            HostValue::Int(corpus.docs.len() as i64),
            HostValue::VecF(vec![0.5; topics]),
            HostValue::VecF(vec![0.1; corpus.vocab]),
            HostValue::VecI(corpus.lens.clone()),
        ],
        vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        &["theta", "phi", "z"],
        15,
    );
}

#[test]
fn hlr_tape_matches_tree_for_gradient_kernels() {
    let d = 4;
    let data = workloads::logistic_data(60, d, 17);
    let flavors: [(&str, Option<&str>); 5] = [
        ("heuristic", None), // blocked HMC over the continuous parameters
        ("nuts", Some("NUTS sigma2 b theta")),
        ("mala", Some("MALA sigma2 b theta")),
        ("mh", Some("MH sigma2 b theta")),
        ("slice", Some("Slice sigma2 b theta")),
    ];
    for (label, sched) in flavors {
        assert_tape_matches_tree(
            &format!("hlr/{label}"),
            models::HLR,
            sched,
            vec![
                HostValue::Real(1.0),
                HostValue::Int(60),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", HostValue::VecF(data.y.clone()))],
            &["sigma2", "b", "theta"],
            25,
        );
    }
}

/// Builds a sampler exactly like [`bit_trace`], runs it, and returns the
/// deterministic digest of its run report.
fn report_digest(
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    sweeps: usize,
    exec: ExecBackend,
) -> String {
    let compiled = match sched {
        Some(s) => Model::with_schedule(model, s),
        None => Model::compile(model),
    }
    .expect("model parses");
    let mut s = compiled
        .plan(args, data)
        .expect("model plans")
        .session(SessionConfig {
            backend: exec,
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..Default::default() },
            seed: 0xD1FF,
            ..Default::default()
        })
        .expect("session binds");
    s.init().unwrap();
    for _ in 0..sweeps {
        s.sweep();
    }
    s.report().digest()
}

/// The deterministic half of a [`RunReport`] — schedule, sweep count,
/// per-kernel counters, work — must be byte-identical across execution
/// strategies, for all three benchmark
/// models: the same contract the traces obey, extended to observability.
#[test]
fn run_reports_are_identical_across_strategies() {
    type Case = (
        &'static str,
        &'static str,
        Option<&'static str>,
        Vec<HostValue>,
        Vec<(&'static str, HostValue)>,
    );
    let (k, d, n) = (2, 2, 40);
    let hgmm_data = workloads::hgmm_data(k, d, n, 91);
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let hlr_d = 4;
    let hlr_data = workloads::logistic_data(60, hlr_d, 17);
    let cases: Vec<Case> = vec![
        (
            "hgmm",
            models::HGMM,
            Some("Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z"),
            hgmm_args(k, d, n),
            vec![("y", HostValue::Ragged(hgmm_data.points.clone()))],
        ),
        (
            "lda",
            models::LDA,
            None,
            vec![
                HostValue::Int(topics as i64),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; topics]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ],
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        ),
        (
            "hlr",
            models::HLR,
            Some("NUTS sigma2 b theta"),
            vec![
                HostValue::Real(1.0),
                HostValue::Int(60),
                HostValue::Int(hlr_d as i64),
                HostValue::Ragged(hlr_data.x.clone()),
            ],
            vec![("y", HostValue::VecF(hlr_data.y.clone()))],
        ),
    ];
    for (label, model, sched, args, data) in cases {
        let sweeps = 10;
        let reference = report_digest(
            model,
            sched,
            args.clone(),
            data.clone(),
            sweeps,
            ExecBackend::Tree,
        );
        assert!(reference.contains("sweeps=10"), "{label}: digest missing sweeps");
        let got = report_digest(model, sched, args, data, sweeps, ExecBackend::Tape);
        assert_eq!(reference, got, "{label}: report digest diverged (tape)");
    }
}

/// Builds a sampler exactly like [`bit_trace`], runs it, and returns the
/// deterministic digest of its phase profile (schedule + sweeps + total
/// and per-step work counters; wall times and op-class counts excluded).
fn profile_digest(
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    sweeps: usize,
    exec: ExecBackend,
) -> String {
    let compiled = match sched {
        Some(s) => Model::with_schedule(model, s),
        None => Model::compile(model),
    }
    .expect("model parses");
    let mut s = compiled
        .plan(args, data)
        .expect("model plans")
        .session(SessionConfig {
            backend: exec,
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..Default::default() },
            seed: 0xD1FF,
            timers: true,
            ..Default::default()
        })
        .expect("session binds");
    s.init().unwrap();
    for _ in 0..sweeps {
        s.sweep();
    }
    s.profile().digest()
}

/// The work-counter portion of a phase [`augur::Profile`] — schedule,
/// sweeps, total work, per-step work — must be byte-identical across
/// execution strategies with timers on, for
/// all three benchmark models. Wall times and tape op-class counts are
/// deliberately outside the digest (the tree interpreter retires no tape
/// instructions), so this pins exactly the deterministic half.
#[test]
fn profile_digests_are_identical_across_strategies() {
    type Case = (
        &'static str,
        &'static str,
        Option<&'static str>,
        Vec<HostValue>,
        Vec<(&'static str, HostValue)>,
    );
    let (k, d, n) = (2, 2, 40);
    let hgmm_data = workloads::hgmm_data(k, d, n, 91);
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let hlr_d = 4;
    let hlr_data = workloads::logistic_data(60, hlr_d, 17);
    let cases: Vec<Case> = vec![
        (
            "hgmm",
            models::HGMM,
            Some("Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z"),
            hgmm_args(k, d, n),
            vec![("y", HostValue::Ragged(hgmm_data.points.clone()))],
        ),
        (
            "lda",
            models::LDA,
            None,
            vec![
                HostValue::Int(topics as i64),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; topics]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ],
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        ),
        (
            "hlr",
            models::HLR,
            Some("NUTS sigma2 b theta"),
            vec![
                HostValue::Real(1.0),
                HostValue::Int(60),
                HostValue::Int(hlr_d as i64),
                HostValue::Ragged(hlr_data.x.clone()),
            ],
            vec![("y", HostValue::VecF(hlr_data.y.clone()))],
        ),
    ];
    for (label, model, sched, args, data) in cases {
        let sweeps = 10;
        let reference = profile_digest(
            model,
            sched,
            args.clone(),
            data.clone(),
            sweeps,
            ExecBackend::Tree,
        );
        assert!(reference.contains("sweeps=10"), "{label}: digest missing sweeps");
        assert!(reference.contains(":work="), "{label}: digest missing per-step work");
        let got = profile_digest(model, sched, args, data, sweeps, ExecBackend::Tape);
        assert_eq!(reference, got, "{label}: profile digest diverged (tape)");
    }
}

/// Every kernel unit of the three benchmark models must name the
/// conditional rewrite (or the fallback reason) that produced it — the
/// explain plan may never show a unit without a per-factor rewrite line.
#[test]
fn explain_names_a_rewrite_for_every_kernel_unit() {
    let (k, d, n) = (2, 2, 40);
    let hgmm_data = workloads::hgmm_data(k, d, n, 91);
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let hlr_d = 4;
    let hlr_data = workloads::logistic_data(60, hlr_d, 17);
    type Case<'a> = (&'a str, &'a str, Vec<HostValue>, Vec<(&'a str, HostValue)>);
    let cases: Vec<Case> = vec![
        (
            "hgmm",
            models::HGMM,
            hgmm_args(k, d, n),
            vec![("y", HostValue::Ragged(hgmm_data.points.clone()))],
        ),
        (
            "lda",
            models::LDA,
            vec![
                HostValue::Int(topics as i64),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; topics]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ],
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        ),
        (
            "hlr",
            models::HLR,
            vec![
                HostValue::Real(1.0),
                HostValue::Int(60),
                HostValue::Int(hlr_d as i64),
                HostValue::Ragged(hlr_data.x.clone()),
            ],
            vec![("y", HostValue::VecF(hlr_data.y.clone()))],
        ),
    ];
    for (label, model, args, data) in cases {
        let compiled = Model::compile(model).expect("model parses");
        let s = compiled
            .plan(args, data)
            .expect("model plans")
            .session(SessionConfig::default())
            .expect("session binds");
        let plan = s.explain();
        let density = plan
            .root
            .children
            .iter()
            .find(|c| c.name == "density")
            .unwrap_or_else(|| panic!("{label}: explain plan has no density span"));
        assert!(!density.children.is_empty(), "{label}: density span has no units");
        for unit in &density.children {
            assert!(
                !unit.attrs.is_empty(),
                "{label}: {} has no factor rewrite attributes",
                unit.name
            );
            for (factor, rewrite) in &unit.attrs {
                assert!(
                    !rewrite.is_empty(),
                    "{label}: {} {factor} has an empty rewrite description",
                    unit.name
                );
            }
        }
    }
}

/// The untimed explain-plan render for LDA is part of the crate's
/// observable behavior: it pins which §3.3 rewrite fired for every
/// factor, the planned schedule and per-unit strategies, the
/// size-inference allocation table, and the Blk decisions.
#[test]
fn golden_explain_plan_for_lda() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let model = Model::compile(models::LDA).unwrap();
    let s = model
        .plan(
            vec![
                HostValue::Int(topics as i64),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; topics]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ],
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        )
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    let got = s.explain().render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lda_explain.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file exists; run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got.trim(),
        expected.trim(),
        "explain plan changed; if intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// The tape compiler's output for a fixed small model is part of the
/// crate's observable behavior (it is what `Session::disasm` shows users
/// and what the fusion rules produce); pin it.
#[test]
fn golden_disassembly_of_normal_normal_gibbs() {
    let model = Model::compile(
        "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }",
    )
    .unwrap();
    let s = model
        .plan(
            vec![HostValue::Int(4), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(vec![1.2, 0.8, 1.0, 1.4]))],
        )
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    let names = s.proc_names();
    let disasm: Vec<String> = names.iter().map(|n| s.disasm(n)).collect();
    let got = names
        .iter()
        .zip(&disasm)
        .map(|(n, d)| format!("== {n} ==\n{d}"))
        .collect::<Vec<_>>()
        .join("\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/normal_normal_tape.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file exists; run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got.trim(),
        expected.trim(),
        "tape disassembly changed; if intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}
