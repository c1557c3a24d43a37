//! # seacma-tracker — incremental campaign tracking across epochs
//!
//! The paper *discovers* SE campaigns by batch-clustering landing
//! screenshots (§3.3) and then *tracks* them over months of crawling (§5).
//! Re-clustering the whole corpus at every epoch is O(total) per update;
//! this crate maintains campaign state **online**:
//!
//! - [`IncrementalClusterer`] — streaming DBSCAN over the insert-capable
//!   [`HammingIndex`](seacma_vision::index::HammingIndex), byte-identical
//!   to batch [`cluster_screenshots`](seacma_vision::cluster::cluster_screenshots)
//!   at every prefix (pinned by `tests/proptests.rs` and gated again by the
//!   benchmark's `track-replay` workload);
//! - [`CampaignLedger`] — stable campaign identities plus a life journal:
//!   birth, growth, e2LD rotation, θc promotion/demotion, dormancy, death,
//!   reactivation and merges;
//! - [`CampaignTracker`] — the epoch-driven facade the pipeline's `track`
//!   phase drives, with byte-identical JSON snapshot/resume.

#![deny(missing_docs)]

pub mod incremental;
pub mod ledger;
pub mod tracker;

pub use incremental::{ClustererState, IncrementalClusterer, Settled};
pub use ledger::{
    Boundary, CampaignEvent, CampaignLedger, CampaignRecord, LedgerConfig, LedgerEvent, LedgerState,
    LifeState, ObservedCluster, RecordState,
};
pub use tracker::{CampaignTracker, EpochSummary, TrackerConfig};
