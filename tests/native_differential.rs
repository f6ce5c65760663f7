//! Differential tests for the native (emit-C-and-`dlopen`) backend.
//!
//! `ExecBackend::Native` must reproduce the reference tree-walking
//! interpreter — and therefore the tape — *bit-for-bit* on the paper's
//! three benchmark models: the same trajectories, the same run-report
//! digest, and the same profile work digest. The compiled C charges the
//! identical work counters and draws from the identical per-thread RNG
//! streams, so any divergence (a fused multiply-add, a reordered draw, a
//! skipped work charge) surfaces as a trace mismatch on sweep one.
//!
//! When the host has no C toolchain (or `AUGUR_CC` points at a
//! nonexistent binary), every test here still passes: sessions record a
//! fallback reason and run on the tape, and the differential assertions
//! are skipped with a note.

use augur::codegen::{CodegenTarget, SymbolKind};
use augur::prelude::*;
use augur_math::Matrix;
use augurv2::{models, workloads};

/// Whether the native backend is selectable on this host: the feature
/// is on and a C toolchain answers the probe (or the probe plan's
/// artifact is already in the disk cache, which needs no compiler).
fn native_available() -> bool {
    let model = Model::compile(
        "(N) => {
            param p ~ Beta(1.0, 1.0) ;
            data y[n] ~ Bernoulli(p) for n <- 0 until N ;
        }",
    )
    .unwrap();
    let plan = model
        .plan(vec![HostValue::Int(2)], vec![("y", HostValue::VecF(vec![1.0, 0.0]))])
        .unwrap();
    plan.backends()
        .iter()
        .any(|b| b.backend == ExecBackend::Native && b.available)
}

fn config(backend: ExecBackend) -> SessionConfig {
    SessionConfig {
        backend,
        mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..Default::default() },
        seed: 0xD1FF,
        ..Default::default()
    }
}

/// Runs one sampler and returns the recorded trajectories as raw bits
/// (`out[sweep][cell]`), the run-report digest, and the profile work
/// digest. Panics if a `Native` session silently fell back.
#[allow(clippy::too_many_arguments)]
fn run(
    label: &str,
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    record: &[&str],
    sweeps: usize,
    backend: ExecBackend,
) -> (Vec<Vec<u64>>, String, String) {
    let compiled = match sched {
        Some(s) => Model::with_schedule(model, s),
        None => Model::compile(model),
    }
    .expect("model parses");
    let mut s = compiled
        .plan(args, data)
        .expect("model plans")
        .session(config(backend))
        .expect("session binds");
    if backend == ExecBackend::Native {
        assert_eq!(
            s.backend(),
            ExecBackend::Native,
            "{label}: native session fell back: {:?}",
            s.backend_fallback()
        );
    }
    s.init().unwrap();
    let traces: Vec<Vec<u64>> = s
        .sample(sweeps, record)
        .unwrap()
        .iter()
        .map(|snap| {
            record
                .iter()
                .flat_map(|p| snap[*p].iter().map(|x| x.to_bits()))
                .collect()
        })
        .collect();
    (traces, s.report().digest(), s.profile().digest())
}

/// Native vs tree trajectories, and native vs tape report/profile
/// digests.
#[allow(clippy::too_many_arguments)]
fn assert_native_matches(
    label: &str,
    model: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    record: &[&str],
    sweeps: usize,
) {
    if !native_available() {
        eprintln!("{label}: no C toolchain, skipping native differential");
        return;
    }
    let (tree, _, _) = run(
        label,
        model,
        sched,
        args.clone(),
        data.clone(),
        record,
        sweeps,
        ExecBackend::Tree,
    );
    let (_, tape_report, tape_profile) = run(
        label,
        model,
        sched,
        args.clone(),
        data.clone(),
        record,
        sweeps,
        ExecBackend::Tape,
    );
    let (native, report, profile) =
        run(label, model, sched, args, data, record, sweeps, ExecBackend::Native);
    assert_eq!(tree.len(), native.len(), "{label}: sweep counts differ");
    for (s, (a, b)) in tree.iter().zip(&native).enumerate() {
        assert_eq!(a, b, "{label}: native diverged from tree at sweep {s}");
    }
    assert_eq!(report, tape_report, "{label}: report digest");
    assert_eq!(profile, tape_profile, "{label}: profile digest");
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

fn lda_args(topics: usize, corpus: &augurv2::workloads::Corpus) -> Vec<HostValue> {
    vec![
        HostValue::Int(topics as i64),
        HostValue::Int(corpus.docs.len() as i64),
        HostValue::VecF(vec![0.5; topics]),
        HostValue::VecF(vec![0.1; corpus.vocab]),
        HostValue::VecI(corpus.lens.clone()),
    ]
}

#[test]
fn hgmm_native_matches_tree_and_tape() {
    let (k, d, n) = (2, 2, 40);
    let data = workloads::hgmm_data(k, d, n, 91);
    assert_native_matches(
        "hgmm/gibbs",
        models::HGMM,
        None,
        hgmm_args(k, d, n),
        vec![("y", HostValue::Ragged(data.points.clone()))],
        &["pi", "mu", "Sigma", "z"],
        25,
    );
}

#[test]
fn lda_native_matches_tree_and_tape() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    assert_native_matches(
        "lda/gibbs",
        models::LDA,
        None,
        lda_args(topics, &corpus),
        vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        &["theta", "phi", "z"],
        15,
    );
}

#[test]
fn hlr_native_matches_tree_and_tape() {
    let d = 4;
    let data = workloads::logistic_data(60, d, 17);
    assert_native_matches(
        "hlr/hmc",
        models::HLR,
        None, // heuristic: blocked HMC over the continuous parameters
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

/// When this plan's `backends()` row says `Native` is available (a
/// toolchain answers the probe, or the plan's artifact is already in
/// the disk cache): a `Native` session really runs natively — no
/// fallback, procedures covered. When it says unavailable: the session
/// records the reason, runs on the tape, and stays bit-identical to a
/// tape session — the graceful-degradation contract of the redesigned
/// API. Either way, what `backends()` promises is what sessions do.
#[test]
fn native_runs_or_records_a_fallback_reason() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let model = Model::compile(models::LDA).unwrap();
    let plan = model
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap();
    let promised = plan
        .backends()
        .iter()
        .any(|b| b.backend == ExecBackend::Native && b.available);
    let mut s = plan.session(config(ExecBackend::Native)).unwrap();
    s.init().unwrap();
    let draws = s.sample(5, &["theta"]).unwrap();
    if promised {
        assert_eq!(s.backend(), ExecBackend::Native);
        assert_eq!(s.backend_fallback(), None);
        let module = plan.native_module().expect("toolchain or cached artifact present");
        assert!(module.covered() > 0, "no procedure compiled natively");
    } else {
        assert_eq!(s.backend(), ExecBackend::Tape, "fallback runs on the tape");
        let reason = s.backend_fallback().expect("fallback reason recorded");
        assert!(!reason.is_empty());
    }
    // Either way the draws are the tape's draws, bit for bit.
    let mut t = plan.session(config(ExecBackend::Tape)).unwrap();
    t.init().unwrap();
    let tape_draws = t.sample(5, &["theta"]).unwrap();
    for (a, b) in draws.iter().zip(&tape_draws) {
        let (a, b) = (&a["theta"], &b["theta"]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The emitted C for the LDA plan is part of the crate's observable
/// behavior: one translation unit, restrict-qualified flat buffers,
/// inlined hot-path distribution code, and the exported `aug_procs`
/// entry table. Pin it (pure emission — no toolchain needed).
#[test]
fn golden_native_c_for_lda() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let model = Model::compile(models::LDA).unwrap();
    let plan = model
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap();
    let unit = plan.emit(CodegenTarget::C).unwrap();
    assert!(
        unit.symbols.iter().all(|s| s.kind == SymbolKind::NativeProc),
        "C target emits native procs only: {:?}",
        unit.symbols
    );
    assert!(!unit.symbols.is_empty(), "LDA should have native-covered procedures");
    let got = &unit.source;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lda_native.c");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, got).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file exists; run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got.trim(),
        expected.trim(),
        "emitted C changed; if intentional, rerun with UPDATE_GOLDEN=1, review the diff, \
         and bump CODEGEN_VERSION if the ABI or semantics moved"
    );
}
