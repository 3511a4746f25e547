//! Benchmark of the Ring KVS reproduction: four closed-loop workloads
//! measured end to end, and a traced mode that splits puts and gets by
//! layer. See `perfbench/README.md`.

pub mod analysis;
pub mod harness;
pub mod load;
pub mod oracle;
pub mod report;
pub mod trace;
pub mod workloads;
