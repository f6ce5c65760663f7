// Needs the external `proptest` crate, which the hermetic offline build
// does not vendor. Enable with `--features proptest-tests` on a machine
// with network access.
#![cfg(feature = "proptest-tests")]

//! Pipeline fuzzing: randomly composed (well-formed) models must make it
//! through every compiler stage and a few sweeps without panicking, and
//! must leave the state at a finite log-joint.

use augur::{HostValue, McmcConfig, Model, SessionConfig};
use augur_dist::Prng;
use proptest::prelude::*;

/// One randomly chosen scalar prior, with its support class.
#[derive(Debug, Clone, Copy)]
enum ScalarPrior {
    Normal,
    Gamma,
    Beta,
    Exponential,
    InvGamma,
}

impl ScalarPrior {
    fn decl(self, name: &str, mean_ref: Option<&str>) -> String {
        match self {
            ScalarPrior::Normal => {
                let mean = mean_ref.unwrap_or("0.0");
                format!("param {name} ~ Normal({mean}, 1.5) ;")
            }
            ScalarPrior::Gamma => format!("param {name} ~ Gamma(2.0, 2.0) ;"),
            ScalarPrior::Beta => format!("param {name} ~ Beta(2.0, 2.0) ;"),
            ScalarPrior::Exponential => format!("param {name} ~ Exponential(1.0) ;"),
            ScalarPrior::InvGamma => format!("param {name} ~ InvGamma(3.0, 2.0) ;"),
        }
    }

    /// Can this parameter serve as a Normal likelihood's mean (real line)?
    fn real_line(self) -> bool {
        matches!(self, ScalarPrior::Normal)
    }

    /// Can this parameter serve as a Normal likelihood's variance?
    fn positive(self) -> bool {
        matches!(self, ScalarPrior::Gamma | ScalarPrior::Exponential | ScalarPrior::InvGamma)
    }
}

fn arb_prior() -> impl Strategy<Value = ScalarPrior> {
    prop_oneof![
        Just(ScalarPrior::Normal),
        Just(ScalarPrior::Gamma),
        Just(ScalarPrior::Beta),
        Just(ScalarPrior::Exponential),
        Just(ScalarPrior::InvGamma),
    ]
}

/// Composes a model: a chain of scalar priors (later Normals may reference
/// earlier ones as means), an optional vector layer, and a Normal/
/// Bernoulli/Poisson data declaration wired to compatible parameters.
#[derive(Debug, Clone)]
struct FuzzModel {
    src: String,
    n: usize,
    likelihood: u8, // 0 = Normal, 1 = Bernoulli(sigmoid), 2 = Poisson(exp)
}

fn arb_model() -> impl Strategy<Value = FuzzModel> {
    (
        prop::collection::vec(arb_prior(), 1..4),
        any::<bool>(), // vector layer?
        0u8..3,        // likelihood family
        2usize..7,     // data size
        any::<bool>(), // chain means?
    )
        .prop_map(|(priors, vector_layer, likelihood, n, chain)| {
            let mut src = String::from("(N) => {\n");
            let mut names: Vec<(String, ScalarPrior)> = Vec::new();
            for (i, p) in priors.iter().enumerate() {
                let name = format!("s{i}");
                let mean_ref = if chain && p.real_line() {
                    names.iter().rev().find(|(_, q)| q.real_line()).map(|(n, _)| n.clone())
                } else {
                    None
                };
                src.push_str("  ");
                src.push_str(&p.decl(&name, mean_ref.as_deref()));
                src.push('\n');
                names.push((name, *p));
            }
            // pick a mean-capable and a variance-capable parameter
            let mean = names
                .iter()
                .find(|(_, p)| p.real_line())
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| "0.0".to_owned());
            let var = names
                .iter()
                .find(|(_, p)| p.positive())
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| "1.0".to_owned());
            let loc = if vector_layer {
                src.push_str(&format!(
                    "  param w[n] ~ Normal({mean}, {var}) for n <- 0 until N ;\n"
                ));
                "w[n]".to_owned()
            } else {
                mean.clone()
            };
            match likelihood {
                0 => src.push_str(&format!(
                    "  data y[n] ~ Normal({loc}, 1.0) for n <- 0 until N ;\n"
                )),
                1 => src.push_str(&format!(
                    "  data y[n] ~ Bernoulli(sigmoid({loc})) for n <- 0 until N ;\n"
                )),
                _ => src.push_str(&format!(
                    "  data y[n] ~ Poisson(exp({loc})) for n <- 0 until N ;\n"
                )),
            }
            src.push('}');
            FuzzModel { src, n, likelihood }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_models_compile_and_run(model in arb_model(), seed in 0u64..1000) {
        let mut rng = Prng::seed_from_u64(seed);
        let y: Vec<f64> = (0..model.n)
            .map(|_| match model.likelihood {
                0 => rng.normal(0.0, 1.0),
                1 => f64::from(rng.bernoulli(0.5)),
                _ => rng.poisson(2.0) as f64,
            })
            .collect();
        // The heuristic must always produce *some* plan for these models.
        let compiled = Model::compile(&model.src)
            .unwrap_or_else(|e| panic!("compile failed on:\n{}\n{e}", model.src));
        prop_assert!(!compiled.kernel().is_empty());
        let mut s = compiled
            .plan(vec![HostValue::Int(model.n as i64)], vec![("y", HostValue::VecF(y))])
            .unwrap_or_else(|e| panic!("planning failed on:\n{}\n{e}", model.src))
            .session(SessionConfig {
                seed,
                mcmc: McmcConfig { step_size: 0.02, leapfrog_steps: 4, ..Default::default() },
                ..Default::default()
            })
            .unwrap_or_else(|e| panic!("build failed on:\n{}\n{e}", model.src));
        s.init().unwrap();
        for _ in 0..5 {
            s.sweep();
        }
        let lj = s.log_joint();
        prop_assert!(lj.is_finite(), "log joint {lj} on:\n{}", model.src);
        // every parameter stays finite
        for p in s.param_names().to_vec() {
            let vals = s.param(&p).unwrap().to_vec();
            prop_assert!(vals.iter().all(|v| v.is_finite()), "{p} went non-finite");
        }
    }

    /// The Cuda/C emitter must render every random model without panicking.
    #[test]
    fn random_models_emit_native_code(model in arb_model()) {
        let compiled = Model::compile(&model.src).unwrap();
        let c = compiled.emit_native(augur::CodegenTarget::C)
            .unwrap_or_else(|e| panic!("emit failed on:\n{}\n{e}", model.src));
        prop_assert!(c.contains("void mcmc_sweep"));
        let cu = compiled.emit_native(augur::CodegenTarget::Cuda).unwrap();
        prop_assert!(cu.contains("__global__") || !cu.contains("parBlk"));
    }
}
