//! **A1–A3 / §5.4** — ablations of the Blk-IL optimizations: each row
//! toggles one optimization and reports the GPU virtual time per sweep
//! of the same workload, plus the optimizer's counts, with the
//! optimization on and off.
//!
//! - A1: summation-block conversion on the HLR gradient (the §7.2 Adult
//!   observation);
//! - A2: loop commuting on a K ≪ N model (the mu-statistics loops of a
//!   wide flat mixture);
//! - A3: inlining of structured sampling primitives (the Dirichlet draws
//!   of LDA's θ/φ updates) to expose their inner parallel dimension.
//!
//! Virtual time is deterministic, so the table is reproducible byte for
//! byte. Writes `results/ablations.md`.

use augur::{DeviceConfig, HostValue, McmcConfig, Model, OptFlags, SessionConfig, Target};
use augur_bench::{emit, hgmm_args, lda_args};
use augurv2::{models, workloads};
use std::fmt::Write as _;

const SWEEPS: usize = 3;

/// GPU virtual seconds per sweep and the optimizer's report for one
/// flag setting.
fn gpu_run(
    src: &str,
    args: Vec<HostValue>,
    data: (&str, HostValue),
    flags: OptFlags,
    mcmc: McmcConfig,
) -> (f64, augur_blk::OptReport) {
    let mut s = Model::compile(src)
        .expect("model parses")
        .plan_opt(args, vec![data], flags)
        .expect("model plans")
        .session(SessionConfig {
            target: Target::Gpu(DeviceConfig::titan_black_like()),
            mcmc,
            ..Default::default()
        })
        .expect("session builds");
    s.init().expect("init runs");
    let before = s.virtual_secs();
    for _ in 0..SWEEPS {
        s.sweep();
    }
    ((s.virtual_secs() - before) / SWEEPS as f64, s.opt_report())
}

fn main() {
    let (n, d) = (5000, 14);
    let hlr = workloads::logistic_data(n, d, 3001);
    let hlr_mcmc = McmcConfig { step_size: 0.02, leapfrog_steps: 4, ..Default::default() };
    let a1 = |sum_blk| {
        gpu_run(
            models::HLR,
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(hlr.x.clone()),
            ],
            ("y", HostValue::VecF(hlr.y.clone())),
            OptFlags { sum_blk, ..Default::default() },
            hlr_mcmc.clone(),
        )
    };

    let (k, dim, n_mix) = (3, 2, 5000);
    let mix = workloads::hgmm_data(k, dim, n_mix, 3002);
    let a2 = |commute| {
        gpu_run(
            models::HGMM,
            hgmm_args(k, dim, n_mix),
            ("y", HostValue::Ragged(mix.points.clone())),
            OptFlags { commute, ..Default::default() },
            McmcConfig::default(),
        )
    };

    let topics = 20;
    let corpus = workloads::lda_corpus(5, 50, 2000, 40, 3003);
    let a3 = |inline| {
        gpu_run(
            models::LDA,
            lda_args(topics, &corpus),
            ("w", HostValue::RaggedI(corpus.docs.clone())),
            OptFlags { inline, ..Default::default() },
            McmcConfig::default(),
        )
    };

    let mut out = String::new();
    let _ = writeln!(out, "# A1–A3 — §5.4 Blk-IL optimization ablations (GPU virtual time)\n");
    let _ = writeln!(
        out,
        "| ablation | workload | s/sweep on | s/sweep off | off/on | report on | report off |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let rows = [
        ("A1 sumBlk conversion", format!("HLR N={n} D={d}"), a1(true), a1(false)),
        ("A2 loop commuting", format!("HGMM K={k} D={dim} N={n_mix}"), a2(true), a2(false)),
        (
            "A3 primitive inlining",
            format!("LDA K={topics} docs={}", corpus.docs.len()),
            a3(true),
            a3(false),
        ),
    ];
    for (name, workload, (on, r_on), (off, r_off)) in rows {
        let _ = writeln!(
            out,
            "| {name} | {workload} | {on:.4e} | {off:.4e} | {:.3}x | {} | {} |",
            off / on,
            r_on.describe(),
            r_off.describe()
        );
    }
    let _ = writeln!(
        out,
        "\n{SWEEPS} sweeps after init on `DeviceConfig::titan_black_like()`. \
         Each row toggles one `OptFlags` field and leaves the rest at their defaults."
    );
    emit("ablations", &out);
}
