//! The shape-generic Cuda/C emitter, exercised through
//! `augur_backend::codegen::emit` and the codegen types the `augur`
//! facade re-exports at its root.
//!
//! These pins cover what emission consolidated in `augur_backend::codegen`:
//! the C flavor's OpenMP pragmas and sweep driver, the Cuda flavor's
//! kernels/atomics, the HMC and ESlice library calls, up-front buffer
//! declarations — plus the symbol manifest a [`CodegenUnit`] now carries
//! so consumers read structure from data instead of grepping the text.

use augur::{CodegenTarget, CodegenUnit, SymbolKind};
use augur_backend::codegen::emit;
use augur::prelude::*;

const GMM: &str = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
    param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
    param z[n] ~ Categorical(pis) for n <- 0 until N ;
    data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
}"#;

const HLR: &str = r#"(lambda, N, D, x) => {
    param sigma2 ~ Exponential(lambda) ;
    param b ~ Normal(0.0, sigma2) ;
    param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
    data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
}"#;

/// Runs the shape-generic phases (parse, typecheck, Density IL,
/// schedule, Low-- lowering) and renders the requested flavor.
fn unit(src: &str, sched: Option<&str>, target: CodegenTarget) -> CodegenUnit {
    let model = match sched {
        Some(s) => Model::with_schedule(src, s),
        None => Model::compile(src),
    }
    .unwrap();
    let dm = model.density_model();
    let sched = match sched {
        Some(s) => augur_kernel::parse_schedule(s).unwrap(),
        None => augur_kernel::heuristic_schedule(dm).unwrap(),
    };
    let kp = augur_kernel::plan(dm, &sched).unwrap();
    let lowered = augur_low::lower(dm, &kp).unwrap();
    emit(&lowered, target)
}

#[test]
fn c_flavor_has_openmp_pragmas_and_sweep() {
    let c = unit(GMM, None, CodegenTarget::C).source;
    assert!(c.contains("#include \"augur_runtime.h\""));
    assert!(c.contains("#pragma omp parallel for"), "{c}");
    assert!(c.contains("void mcmc_sweep(augur_rng *rng)"));
    assert!(c.contains("u0_gibbs(rng); /* Gibbs: resamples mu"), "{c}");
    // finite-sum Gibbs draws from log weights
    assert!(c.contains("augur_categorical_logits_sample"), "{c}");
}

#[test]
fn cuda_flavor_has_kernels_and_atomics() {
    let cu = unit(GMM, None, CodegenTarget::Cuda).source;
    assert!(cu.contains("__global__ void"), "{cu}");
    assert!(cu.contains("blockIdx.x * blockDim.x + threadIdx.x"), "{cu}");
    assert!(cu.contains("atomicAdd(&"), "{cu}");
    assert!(cu.contains("<<<"), "kernel launches: {cu}");
}

#[test]
fn hmc_sweep_calls_library_update() {
    let c = unit(HLR, None, CodegenTarget::C).source;
    assert!(c.contains("augur_hmc_update(rng, u0_ll, u0_grad)"), "{c}");
    assert!(c.contains("/* block: sigma2, b, theta */"), "{c}");
    // the AD-generated gradient calls the paper's grad primitives
    assert!(c.contains("augur_bernoullilogit_grad2("), "{c}");
}

#[test]
fn eslice_schedule_renders_library_call() {
    let c = unit(GMM, Some("ESlice mu (*) Gibbs z"), CodegenTarget::C).source;
    assert!(c.contains("augur_eslice_update(rng, u0_lik, u0_prior_sample)"), "{c}");
}

#[test]
fn buffers_are_declared_up_front() {
    let c = unit(GMM, None, CodegenTarget::C).source;
    // sufficient statistics of the conjugate mu update
    assert!(c.contains("static augur_buf_t u0_t0_cnt;"), "{c}");
    assert!(c.contains("static augur_buf_t u0_t0_sum;"), "{c}");
}

/// Every emitted function shows up in the symbol manifest with the
/// right kind, and the manifest distills into the launch counts the
/// gpu-sim cost model consumes.
#[test]
fn symbol_manifest_matches_the_emitted_text() {
    let c = unit(GMM, None, CodegenTarget::C);
    assert_eq!(c.symbols_of(SymbolKind::SweepDriver).count(), 1);
    for s in c.symbols_of(SymbolKind::Proc) {
        assert!(
            c.source.contains(&format!("double {}(augur_rng *rng)", s.name)),
            "{} missing from C source",
            s.name
        );
    }

    let cu = unit(GMM, None, CodegenTarget::Cuda);
    let kernels: Vec<_> = cu
        .symbols
        .iter()
        .filter(|s| matches!(s.kind, SymbolKind::CudaKernel { .. }))
        .collect();
    assert!(!kernels.is_empty(), "GMM should emit Cuda kernels");
    for s in &kernels {
        assert!(
            cu.source.contains(&format!("__global__ void {}(", s.name)),
            "{} missing from Cuda source",
            s.name
        );
    }
    assert!(
        kernels.iter().any(|s| s.kind == SymbolKind::CudaKernel { atomic: true }),
        "the sufficient-statistics kernel serializes through atomicAdd"
    );

    let m = cu.manifest();
    assert_eq!(m.kernels, kernels.len());
    assert!(m.atomic_kernels >= 1);
    assert!(m.atomic_kernels <= m.kernels);
}
