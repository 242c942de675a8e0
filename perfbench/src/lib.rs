//! End-to-end and per-layer benchmark of the StreamBox-HBM engine.
//!
//! The benchmark links the engine crates and measures them from outside:
//! it wraps the public `Source`, `Operator`, `StatelessOperator` and
//! `CheckpointHooks` traits ([`wrap`]), reads the engine's metrics
//! registry, checks every run's output against a plain reference
//! ([`oracle`]), and reports host-clock and modelled-clock metrics
//! ([`measure`]). See `README.md` beside this crate for the workloads and
//! metrics.

pub mod clock;
pub mod measure;
pub mod oracle;
pub mod workload;
pub mod wrap;
