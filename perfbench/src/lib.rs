//! End-to-end and per-layer benchmark of the bft-cupft stack.
//!
//! Every measurement is taken from outside the crates: the benchmark
//! generates a seeded input, hands a [`trace::Traced`] runtime adapter to
//! the public `cupft_core::run_scenario_on`, and reads the outcome and the
//! adapter's timestamps back. See `README.md` for the workloads and what
//! each metric means.

pub mod measure;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
