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

use augur::{CodegenTarget, SymbolKind};
use augur::prelude::*;
use augur_backend::RunError;
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

/// Native vs tree and tape trajectories, and native vs tape
/// report/profile digests.
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
    let (tape, tape_report, tape_profile) = run(
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
    assert_eq!(tape, native, "{label}: native diverged from tape");
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

/// The z-update at 20 topics: the candidate loop runs its unchecked
/// version (with register accumulation over a column-major phi table)
/// and the draw runs in C on a 20-weight stack buffer — the shape of the
/// Fig. 12 benchmark, small enough to diff against the tree.
#[test]
fn lda_twenty_topics_native_matches_tree_and_tape() {
    let topics = 20;
    let corpus = workloads::lda_corpus(topics, 20, 200, 30, 13);
    assert_native_matches(
        "lda20/gibbs",
        models::LDA,
        None,
        lda_args(topics, &corpus),
        vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        &["theta", "phi", "z"],
        6,
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

/// The body of procedure `name` in an emitted translation unit.
fn proc_source<'a>(unit: &'a str, name: &str) -> &'a str {
    let head = format!(": {name} */");
    let start = unit.find(&head).unwrap_or_else(|| panic!("no procedure {name}"));
    let rest = &unit[start..];
    let end = rest[1..].find("/* proc ").map(|e| e + 1).unwrap_or(rest.len());
    &rest[..end]
}

/// Log tables replace per-trip `log` calls only where they are exact
/// and pay off (pure emission — no toolchain needed): the LDA z-update
/// reads both theta and phi through tables — theta row-major (its topic
/// loop walks one document's row), phi column-major (the loop walks one
/// word's column across topics) — in both versions of the topic loop,
/// while a Categorical density outside any loop reads the live buffer.
/// (The write guard — a procedure that stores or samples into the
/// weights keeps `aug_cat_ll` — is pinned on hand-built procedures in
/// the emitter's unit tests; no benchmark model has such a procedure.)
#[test]
fn log_tables_cover_read_only_weights_in_loops() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 10, 60, 20, 5);
    let lda = Model::compile(models::LDA)
        .unwrap()
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap()
        .emit(CodegenTarget::C)
        .unwrap()
        .source;
    let z = proc_source(&lda, "u2_gibbs");
    assert_eq!(z.matches("aug_log_table(").count(), 1, "theta table:\n{z}");
    assert_eq!(z.matches("aug_log_table_t(").count(), 1, "phi table:\n{z}");
    assert_eq!(z.matches("aug_cat_ll_tab(").count(), 2, "{z}");
    assert_eq!(z.matches("aug_cat_ll_tabc(").count(), 2, "{z}");
    assert!(!z.contains("aug_cat_ll("), "no live-buffer lookup left:\n{z}");

    let single = Model::compile(
        "(K, alpha) => { param p ~ Dirichlet(alpha) ; data y ~ Categorical(p) ; }",
    )
    .unwrap()
    .plan(
        vec![HostValue::Int(3), HostValue::VecF(vec![1.0; 3])],
        vec![("y", HostValue::Real(1.0))],
    )
    .unwrap()
    .emit(CodegenTarget::C)
    .unwrap()
    .source;
    let ll = proc_source(&single, "model_ll");
    assert!(ll.contains("aug_cat_ll("), "{ll}");
    assert!(!ll.contains("aug_log_table(") && !ll.contains("aug_cat_ll_tab("), "{ll}");
}

/// A native bounds trap (now a `noreturn` C path) still surfaces as the
/// tape's typed error: same kernel label, same message. Document 2's
/// length is raised past its token row, so the phi update reads one
/// token past the row's end.
#[test]
fn native_bounds_trap_matches_the_tape_error() {
    let topics = 3;
    let mut corpus = workloads::lda_corpus(topics, 6, 40, 10, 5);
    corpus.lens[2] += 3;
    let plan = Model::compile(models::LDA)
        .unwrap()
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap();
    let first_error = |backend: ExecBackend| {
        let mut s = plan.session(config(backend)).unwrap();
        s.init().unwrap();
        let err = s.try_sweep().expect_err("the raised length must trap");
        (err, s.backend(), s.backend_fallback().map(str::to_owned))
    };
    let (tape, _, _) = first_error(ExecBackend::Tape);
    assert_eq!(
        tape,
        RunError::OutOfBounds {
            kernel: "Gibbs Single(phi)".into(),
            detail: "index 8 out of bounds for slice of 8".into(),
        }
    );
    if !native_available() {
        eprintln!("trap parity: no C toolchain, skipping the native side");
        return;
    }
    let (native, backend, fallback) = first_error(ExecBackend::Native);
    assert_eq!(backend, ExecBackend::Native, "native session fell back: {fallback:?}");
    assert_eq!(fallback, None);
    assert_eq!(native, tape);
}

/// The draw's own assertion traps in C with the tape's message. A token
/// id past the vocabulary gives every topic a `-inf` phi term, so every
/// logit of that token is `-inf`; with the z-update scheduled first, the
/// sweep fails in `categorical_log`'s "all weights are zero" assertion
/// on both backends, and the native session does not fall back.
#[test]
fn native_draw_trap_matches_the_tape_error() {
    let topics = 3;
    let mut corpus = workloads::lda_corpus(topics, 6, 40, 10, 5);
    corpus.docs[2][1] = corpus.vocab as i64 + 4;
    let plan = Model::with_schedule(
        models::LDA,
        "Gibbs z (*) Gibbs theta (*) Gibbs phi",
    )
    .unwrap()
    .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
    .unwrap();
    let first_error = |backend: ExecBackend| {
        let mut s = plan.session(config(backend)).unwrap();
        s.init().unwrap();
        let err = s.try_sweep().expect_err("the out-of-vocabulary token must trap");
        (err, s.backend(), s.backend_fallback().map(str::to_owned))
    };
    let (tape, _, _) = first_error(ExecBackend::Tape);
    assert_eq!(
        tape,
        RunError::WorkerPanic {
            kernel: "Gibbs Single(z)".into(),
            detail: "categorical_log: all weights are zero".into(),
        }
    );
    if !native_available() {
        eprintln!("draw trap parity: no C toolchain, skipping the native side");
        return;
    }
    let (native, backend, fallback) = first_error(ExecBackend::Native);
    assert_eq!(backend, ExecBackend::Native, "native session fell back: {fallback:?}");
    assert_eq!(fallback, None);
    let module = plan.native_module().expect("native module built");
    assert!(module.skipped().is_empty(), "every update runs in C: {:?}", module.skipped());
    assert_eq!(native, tape);
}
