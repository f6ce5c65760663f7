//! Golden tests for the generated code on the benchmark models: lock the
//! *structure* of every compiled update so rewrite/lowering regressions
//! surface as diffs here.

use augur::Model;
use augurv2::models;

fn code(src: &str, sched: Option<&str>) -> String {
    let model = match sched {
        Some(s) => Model::with_schedule(src, s),
        None => Model::compile(src),
    }
    .unwrap();
    model.compile_info().code
}

#[test]
fn hgmm_gibbs_structure_is_stable() {
    let c = code(models::HGMM, None);
    // π: Dirichlet counts over assignments
    assert!(c.contains("u0_t0_cnt[z[n]] += 1.0;"), "{c}");
    assert!(c.contains("pi = Dirichlet(vec_add(alpha, u0_t0_cnt)).samp;"), "{c}");
    // μ: per-cluster sums under the categorical-indexing rewrite
    assert!(c.contains("u1_t0_sum[z[n]] += y[n];"), "{c}");
    assert!(c.contains("mu[k] = MvNormal("), "{c}");
    // Σ: scatter accumulation and the InvWishart posterior
    assert!(c.contains("u2_t0_scatter[z[n]] += outer_sub(y[n], mu[z[n]]);"), "{c}");
    assert!(c.contains("Sigma[k] = InvWishart((nu + u2_t0_cnt[k]), mat_add(Psi, u2_t0_scatter[k])).samp;"), "{c}");
    // z: parallel finite-sum enumeration over len(pi) candidates
    assert!(c.contains("loop Seq (u3_c <- 0 until len(pi))"), "{c}");
    assert!(c.contains("z[n] = CategoricalLogits(u3_w).samp;"), "{c}");
    // initializer samples in declaration order
    let init_pos = c.find("init_params() {").expect("init proc");
    assert!(c[init_pos..].contains("pi = Dirichlet(alpha).samp;"));
}

#[test]
fn lda_gibbs_structure_is_stable() {
    let c = code(models::LDA, None);
    // θ: per-document topic counts (factoring rule, no indicator)
    assert!(c.contains("u0_t0_cnt[d][z[d][j]] += 1.0;"), "{c}");
    assert!(c.contains("theta[d] = Dirichlet(vec_add(alpha, u0_t0_cnt[d])).samp;"), "{c}");
    // φ: per-topic word counts (categorical-indexing rewrite)
    assert!(c.contains("u1_t0_cnt[z[d][j]][w[d][j]] += 1.0;"), "{c}");
    assert!(c.contains("phi[k] = Dirichlet(vec_add(beta, u1_t0_cnt[k])).samp;"), "{c}");
    // z: both factors scored per candidate
    assert!(c.contains("u2_w[u2_c] += Categorical(theta[d]).ll(u2_c);"), "{c}");
    assert!(c.contains("u2_w[u2_c] += Categorical(phi[u2_c]).ll(w[d][j]);"), "{c}");
}

#[test]
fn hlr_hmc_structure_is_stable() {
    let c = code(models::HLR, None);
    // stabilized logit-form likelihood in ll and grad
    assert!(c.contains("BernoulliLogit((dot(x[n], theta) + b)).ll(y[n])"), "{c}");
    assert!(c.contains("BernoulliLogit((dot(x[n], theta) + b)).grad2(y[n])"), "{c}");
    // adjoint accumulation: vector chain rule through dot, scalar into b
    assert!(c.contains("u0_adj_theta += vec_scale("), "{c}");
    assert!(c.contains("u0_adj_b += BernoulliLogit"), "{c}");
    // the prior's variance gradient — the §5.4 contention example
    assert!(c.contains("u0_adj_sigma2 += Normal(0.0, sigma2).grad3(theta[j]);"), "{c}");
}

#[test]
fn gmm_eslice_structure_is_stable() {
    let c = code(models::GMM, Some("ESlice mu (*) Gibbs z"));
    // likelihood-only procedure for the slice (prior excluded)
    let lik_start = c.find("u0_lik() {").expect("lik proc");
    let lik_end = c[lik_start..].find("}\n").unwrap() + lik_start;
    let lik = &c[lik_start..lik_end];
    assert!(lik.contains("MvNormal(mu[z[n]], Sigma).ll(x[n])"), "{lik}");
    assert!(!lik.contains("MvNormal(mu_0, Sigma_0)"), "{lik}");
    // prior sampler and prior mean writers
    assert!(c.contains("u0_nu[k] = MvNormal(mu_0, Sigma_0).samp;"), "{c}");
    assert!(c.contains("u0_pm[k] = mu_0;"), "{c}");
}

#[test]
fn cuda_emission_structure_is_stable() {
    use augur::SymbolKind;
    let model = Model::compile(models::HGMM).unwrap();
    let unit = model.emit_unit(augur::CodegenTarget::Cuda).unwrap();
    // one kernel per top-level parallel loop, read off the symbol
    // manifest rather than grepped out of the text; canonical prologue
    let kernels: Vec<_> = unit
        .symbols
        .iter()
        .filter(|s| matches!(s.kind, SymbolKind::CudaKernel { .. }))
        .collect();
    assert!(kernels.len() >= 6, "{kernels:?}");
    assert!(
        kernels.iter().any(|s| s.kind == SymbolKind::CudaKernel { atomic: true }),
        "counting kernels serialize through atomics: {kernels:?}"
    );
    let cu = unit.source;
    assert_eq!(cu.matches("__global__ void").count(), kernels.len(), "{cu}");
    assert!(cu.contains("int n = blockIdx.x * blockDim.x + threadIdx.x + 0;"), "{cu}");
    // counting kernels use atomicAdd
    assert!(cu.contains("atomicAdd(&u0_t0_cnt[z[n]], 1.0);"), "{cu}");
    // the sweep is the ⊗-composition in schedule order
    let sweep = cu.find("void mcmc_sweep").unwrap();
    let (p0, p1, p2, p3) = (
        cu[sweep..].find("u0_gibbs").unwrap(),
        cu[sweep..].find("u1_gibbs").unwrap(),
        cu[sweep..].find("u2_gibbs").unwrap(),
        cu[sweep..].find("u3_gibbs").unwrap(),
    );
    assert!(p0 < p1 && p1 < p2 && p2 < p3);
}
