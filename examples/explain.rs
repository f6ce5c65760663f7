//! Explain plans and the phase profiler, end to end.
//!
//! Walks the observability surface added on top of the compiler
//! pipeline: `Session::explain()` shows what the compiler did to the
//! model — which §3.3 conditional rewrite fired for every kernel unit
//! (or why it fell back to a generic sampler), the Kernel IL schedule,
//! the size-inference allocation table with per-buffer byte bounds, and
//! the Blk-IL optimization decisions — while `Session::profile()` shows
//! where a run spent its effort: per-schedule-step work and wall time,
//! tape op-class counts, and the peak-memory watermark.
//!
//! The work-counter portion of `Profile::digest()` is deterministic: it
//! is byte-identical across the tree, tape, and native execution
//! strategies, which makes it a cheap cross-strategy regression oracle
//! (wall times, of course, are not).
//!
//! Run with: `cargo run --release --example explain`

use augur::prelude::*;
use augurv2::{models, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topics = 4;
    let corpus = workloads::lda_corpus(topics, 30, 100, 30, 7);

    let model = Model::compile(models::LDA)?;
    let plan = model.plan(
        vec![
            HostValue::Int(topics as i64),
            HostValue::Int(corpus.docs.len() as i64),
            HostValue::VecF(vec![0.5; topics]),
            HostValue::VecF(vec![0.1; corpus.vocab]),
            HostValue::VecI(corpus.lens.clone()),
        ],
        vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
    )?;
    let mut sampler = plan.session(SessionConfig::default())?;

    // Part 1: the compile-time explain plan. Untimed render is stable
    // across runs (goldens diff it); render_timed() adds per-phase wall
    // times; to_json() is the machine-readable form.
    println!("=== explain plan ===\n{}", sampler.explain().render());

    // Part 2: run, then read the phase profile.
    sampler.init()?;
    sampler.sample(50, &[])?;
    let profile = sampler.profile();
    println!("=== profile ===\n{profile}");

    // The digest covers only deterministic work counters — pin it in a
    // test and it holds across execution strategies.
    println!("digest: {}", profile.digest());

    // Folded stacks feed straight into flamegraph.pl / speedscope.
    println!("\n=== folded stacks ===\n{}", profile.folded());

    // Static size-inference bound vs. bytes the run actually touched.
    println!(
        "memory: bound {} bytes, touched {} bytes",
        profile.mem.bound_bytes, profile.mem.touched_bytes
    );
    Ok(())
}
