//! The SEACMA-rs benchmark: five named workloads, nine end-to-end
//! metrics, and a per-layer ledger from a separate traced run. See
//! `README.md` beside this package and `BENCHMARK.json` at the
//! repository root.
//!
//! Every layer is measured from outside, by timing calls into the
//! crates' public functions; nothing under `crates/` knows this package
//! exists.

pub mod cli;
pub mod compare;
pub mod corpus;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod querymix;
pub mod schedule;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
