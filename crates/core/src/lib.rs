//! # seacma-core
//!
//! The end-to-end SEACMA discovery-and-tracking pipeline — Figure 2 of
//! *"What You See is NOT What You Get: Discovering and Tracking Social
//! Engineering Attack Campaigns"* (Vadrevu & Perdisci, IMC 2019) — plus
//! the typed rows behind every table of the evaluation.
//!
//! Pipeline stages (circled numbers are the paper's):
//!
//! 1. **Seed ad networks** ① — the 11 low-tier networks with manually
//!    derived invariant patterns.
//! 2. **Publisher reversal** ② — a PublicWWW-style source search turns
//!    the invariants into a crawlable publisher pool, split into the
//!    institutional pool and the residential pool (sites running cloaking
//!    networks).
//! 3. **Crawling** ③ — the parallel crawler farm visits every publisher
//!    with four Browser/OS profiles, clicking size-ranked elements and
//!    recording landings.
//! 4. **Screenshot hashing** ④ and **clustering** ⑤ — 128-bit dhash +
//!    DBSCAN over `(dhash, e2LD)` pairs, θc domain filter.
//! 5. **Campaign tracking (milking)** ⑥ — milkable-URL extraction from
//!    backtracking graphs, source validation, 14-day milking with GSB and
//!    VirusTotal measurement.
//! 6. **Ad attribution** ⑦ — invariant matching over involved-URL sets;
//!    unknown attacks feed the new-ad-network discovery loop that widens
//!    the publisher pool.
//!
//! Use [`Pipeline`] to run stages individually or
//! [`Pipeline::run_to_completion`] for the whole measurement. [`report`]
//! computes the rows of Tables 1–4, the Figure 2 funnel, the cluster
//! breakdown, the milking views and the ethics cost analysis; the side
//! experiments ([`adblock`], [`parking`], [`invariants`], [`ablation`])
//! compute theirs; `seacma-report` turns them all into tables.

#![deny(missing_docs)]

pub mod ablation;
pub mod adblock;
pub mod config;
pub mod detecteval;
pub mod export;
pub mod invariants;
pub mod label;
pub mod newnet;
pub mod parking;
pub mod pipeline;
pub mod report;

pub use config::{PipelineConfig, RunArgs};
pub use label::{BenignKind, ClusterLabel};
pub use pipeline::{DiscoveryOutput, Pipeline, PipelineRun, TrackingOutput};

// Re-export the workspace API surface so downstream users (examples,
// benches) can depend on `seacma-core` alone.
pub use seacma_blacklist as blacklist;
pub use seacma_browser as browser;
pub use seacma_crawler as crawler;
pub use seacma_detect as detect;
pub use seacma_graph as graph;
pub use seacma_milker as milker;
pub use seacma_simweb as simweb;
pub use seacma_tracker as tracker;
pub use seacma_vision as vision;
