//! Exact pins of the simulated device's virtual clock.
//!
//! `shape_claims.rs` checks who wins (ratios); this suite checks that
//! the cost accounting itself does not drift: for HGMM, LDA and HLR at
//! small fixed shapes and seeds, the bit pattern of `virtual_secs()`
//! and every `device_counters()` field after a fixed number of sweeps
//! must equal the recorded values — on the GPU target (blk tapes) and
//! on the CPU target under both the tree-walker and the tape.

use augur::{DeviceConfig, ExecBackend, HostValue, McmcConfig, Model, SessionConfig, Target};
use augur_math::Matrix;
use augurv2::{models, workloads};

const SWEEPS: usize = 4;

/// One pinned run: the clock's bit pattern, then the counters in
/// declaration order (launches, threads, work_units, atomic_ops,
/// reductions, transfer_bytes, tape_instrs).
type Pin = (u64, [u64; 7]);

fn run(model: &str, target: Target, backend: ExecBackend) -> Pin {
    let (src, args, data, mcmc) = match model {
        "hgmm" => {
            let (k, d, n) = (3, 2, 60);
            let data = workloads::hgmm_data(k, d, n, 71);
            let args = vec![
                HostValue::Int(k as i64),
                HostValue::Int(n as i64),
                HostValue::VecF(vec![1.0; k]),
                HostValue::VecF(vec![0.0; d]),
                HostValue::Mat(Matrix::identity(d).scale(50.0)),
                HostValue::Real((d + 2) as f64),
                HostValue::Mat(Matrix::identity(d)),
            ];
            (models::HGMM, args, ("y", HostValue::Ragged(data.points)), McmcConfig::default())
        }
        "lda" => {
            let (topics, corpus) = (5, workloads::lda_corpus(5, 8, 50, 20, 72));
            let args = vec![
                HostValue::Int(topics as i64),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; topics]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ];
            (models::LDA, args, ("w", HostValue::RaggedI(corpus.docs)), McmcConfig::default())
        }
        "hlr" => {
            let (n, d) = (50, 4);
            let data = workloads::logistic_data(n, d, 73);
            let args = vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x),
            ];
            let mcmc = McmcConfig { step_size: 0.02, leapfrog_steps: 4, ..Default::default() };
            (models::HLR, args, ("y", HostValue::VecF(data.y)), mcmc)
        }
        other => unreachable!("unknown model {other}"),
    };
    let mut s = Model::compile(src)
        .unwrap()
        .plan(args, vec![data])
        .unwrap()
        .session(SessionConfig { target, backend, seed: 11, mcmc, ..Default::default() })
        .unwrap();
    s.init().unwrap();
    for _ in 0..SWEEPS {
        s.sweep();
    }
    let c = s.device_counters();
    (
        s.virtual_secs().to_bits(),
        [
            c.launches,
            c.threads,
            c.work_units,
            c.atomic_ops,
            c.reductions,
            c.transfer_bytes,
            c.tape_instrs,
        ],
    )
}

fn lanes() -> [(&'static str, Target, ExecBackend); 3] {
    [
        ("gpu", Target::Gpu(DeviceConfig::titan_black_like()), ExecBackend::Tape),
        ("cpu-tree", Target::Cpu, ExecBackend::Tree),
        ("cpu-tape", Target::Cpu, ExecBackend::Tape),
    ]
}

fn check(model: &str, expected: [Pin; 3]) {
    for ((lane, target, backend), want) in lanes().into_iter().zip(expected) {
        let got = run(model, target, backend);
        assert_eq!(
            got, want,
            "{model}/{lane}: virtual clock drifted (got {} s, {got:?})",
            f64::from_bits(got.0)
        );
    }
}

#[test]
fn hgmm_virtual_clock_is_pinned() {
    check(
        "hgmm",
        [
            (0x3f46d536563cf35d, [27, 1053, 51433, 2160, 0, 1984, 12374]),
            (0x3f05985fe125c518, [0, 0, 51487, 0, 0, 0, 0]),
            (0x3f05985fe125c518, [0, 0, 51487, 0, 0, 0, 13504]),
        ],
    );
}

#[test]
fn lda_virtual_clock_is_pinned() {
    check(
        "lda",
        [
            (0x3f58ff3f231790a5, [23, 446, 167216, 1264, 0, 7736, 37379]),
            (0x3f2189e7b637530c, [0, 0, 167262, 0, 0, 0, 0]),
            (0x3f2189e7b637530c, [0, 0, 167262, 0, 0, 0, 37612]),
        ],
    );
}

#[test]
fn hlr_virtual_clock_is_pinned() {
    check(
        "hlr",
        [
            (0x3f624dabf7989203, [137, 4412, 108347, 336, 84, 2296, 37201]),
            (0x3f18a74b1af6f56b, [0, 0, 117557, 0, 0, 0, 0]),
            (0x3f18a74b1af6f56b, [0, 0, 117557, 0, 0, 0, 29304]),
        ],
    );
}
