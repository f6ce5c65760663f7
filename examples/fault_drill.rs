//! Fault-tolerance drill: exercises the environment-driven recovery
//! machinery end to end, the way CI runs it.
//!
//! The sampler configuration honors three environment variables:
//!
//! - `AUGUR_FAULT`  — a deterministic fault-injection plan, e.g.
//!   `nan@proc:u3_gibbs:sweep=7`, `panic@proc:u3_gibbs:sweep=5`, `io@trace`
//! - `AUGUR_CKPT` / `AUGUR_CKPT_EVERY` — periodic checkpoint snapshots
//!
//! The drill runs a small HGMM chain under whatever faults the
//! environment injects and reports what the guardrails caught. Injected
//! NaNs must end as recorded numerical events with a finite chain;
//! injected procedure panics must surface as one typed error per attempt —
//! never a process abort. Exit status 0 means every fault was contained.
//!
//! Run with, e.g.:
//! `AUGUR_FAULT='nan@proc:u3_gibbs:sweep=7' cargo run --example fault_drill`

use augur::prelude::*;
use augur_math::Matrix;
use augurv2::{models, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (k, d, n) = (2, 2, 60);
    let data = workloads::hgmm_data(k, d, n, 42);
    let model = Model::compile(models::HGMM)?;
    let plan = model.plan(
        vec![
            HostValue::Int(k as i64),
            HostValue::Int(n as i64),
            HostValue::VecF(vec![1.0; k]),
            HostValue::VecF(vec![0.0; d]),
            HostValue::Mat(Matrix::identity(d).scale(50.0)),
            HostValue::Real((d + 2) as f64),
            HostValue::Mat(Matrix::identity(d)),
        ],
        vec![("y", HostValue::Ragged(data.points.clone()))],
    )?;
    let mut sampler = plan.session(SessionConfig::default())?;
    sampler.init()?;

    // The default panic hook prints a backtrace before `try_sweep`'s
    // isolation catches the unwind; silence it so the drill's log shows
    // only what the guardrails report.
    std::panic::set_hook(Box::new(|_| {}));

    let sweeps = 20u64;
    let mut typed_errors = 0u64;
    for _ in 0..sweeps {
        if let Err(e) = sampler.try_sweep() {
            // An injected panic is keyed to its sweep and a failed sweep
            // is not counted as done, so a persistent fault would repeat
            // forever; one typed report per drill is the contract.
            typed_errors += 1;
            println!("contained: {e}");
            break;
        }
    }

    let report = sampler.report();
    let events: u64 = report.kernels.iter().map(|kr| kr.stats.numerical_events).sum();
    println!(
        "sweeps done: {}, numerical events: {events}, typed errors: {typed_errors}, \
         trace records dropped: {}",
        sampler.sweeps(),
        report.trace_records_dropped
    );

    // Whatever was injected, the surviving state must be finite.
    for name in sampler.param_names().to_vec() {
        let buf = sampler.param(&name)?;
        if buf.iter().any(|x| !x.is_finite()) {
            return Err(format!("`{name}` left non-finite after the drill").into());
        }
    }
    println!("drill ok: all faults contained, state finite");
    Ok(())
}
