//! End-to-end and per-layer benchmark of the AGCM dynamical core.
//!
//! One binary, `agcm-e2e-bench`, runs one named workload per invocation:
//!
//! ```text
//! agcm-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times seven repetitions of the workload with the
//! tracer off and prints the end-to-end metrics, medians over the
//! repetitions; with `--trace 1` it runs one more repetition with the
//! `agcm_obs` tracer on and prints the per-layer metrics.  Every
//! repetition's final model state is checked against an independently
//! computed reference.  The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run's provenance block.  The process exits nonzero when the result
//! is incorrect or the traced layers do not reconcile.
//!
//! The benchmark calls only the public API of the repository crates and
//! adds no instrumentation to them.

pub mod check;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod workload;
