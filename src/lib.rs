//! Umbrella crate for the AugurV2 reproduction: re-exports the compiler
//! pipeline ([`augur`]), the baselines ([`augur_jags`], [`augur_stan`]),
//! and shared workload generators used by the examples, integration
//! tests, and benchmark harness.

#![deny(missing_docs)]

pub use augur;
pub use augur_backend;
pub use augur_dist;
pub use augur_jags;
pub use augur_math;
pub use augur_serve;
pub use augur_stan;

pub mod models;
pub mod workloads;
