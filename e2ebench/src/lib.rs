//! The repository benchmark: end-to-end workloads over the public API
//! of the `ccindex` crates, and a traced run that measures each layer.
//! `src/main.rs` is the command line; README.md describes the
//! workloads and metrics.

pub mod catalog;
pub mod gen;
pub mod layers;
pub mod load;
pub mod stats;
pub mod traced;
pub mod workloads;
