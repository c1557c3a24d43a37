//! # seacma-daemon — the resident SEACMA process with a reputation query API
//!
//! The batch pipeline (`seacma-core`) answers "what happened" after a
//! measurement finishes; operators also need "what is this URL *right
//! now*". This crate turns the crawl → cluster → milk → track loop into a
//! **resident process**: a single writer drives the incremental
//! [`CampaignTracker`](seacma_tracker::CampaignTracker) epoch by epoch,
//! one batch of the feed per epoch, and any number of reader threads serve
//! reputation queries concurrently — URL → campaign, dhash →
//! nearest campaign (via the exact banded Hamming index), campaign id →
//! lifecycle state.
//!
//! The architecture is epoch-swap over immutable snapshots:
//!
//! - [`Daemon::close_epoch`] freezes the tracker boundary into a
//!   [`ReputationSnapshot`] and publishes it into the [`SnapshotCell`]
//!   with a pointer swap under a briefly-held write lock — the only
//!   writer/reader synchronization point (the superseded snapshot is
//!   dropped after the lock is released);
//! - [`QueryHandle`] (cloneable, `Send + Sync`) clones the published
//!   `Arc` under a briefly-held read lock and answers from that frozen
//!   snapshot, so reads **never block on an in-flight epoch** and a
//!   mid-epoch query answers exactly as of the last closed boundary;
//! - each snapshot also carries a frozen
//!   [`Detector`](seacma_detect::Detector) view, so
//!   [`QueryHandle::detect`] scores whole page-load observations (dhash +
//!   structural signals) online — the daemon's second workload class,
//!   gated byte-identical against `seacma-detect`'s naive-scan oracle;
//! - the restart story is the tracker's byte-identical snapshot/resume:
//!   [`Daemon::to_json`] / [`Daemon::from_json`] round-trip the full
//!   resumable state, under live query load, without a byte of drift.
//!
//! Exactness is checked the same way the tracker itself is gated: the
//! [`offline`] oracle rebuilds every epoch's snapshot from **batch**
//! primitives only, and the property suites plus the benchmark's serve
//! workloads require the daemon's served answers to be byte-identical to
//! the oracle's before any throughput number is reported.
//!
//! ```
//! use seacma_daemon::{Daemon, UrlVerdict};
//! use seacma_tracker::TrackerConfig;
//! use seacma_vision::cluster::ScreenshotPoint;
//! use seacma_vision::dhash::Dhash;
//!
//! let mut daemon = Daemon::new(TrackerConfig::default());
//! let handle = daemon.handle(); // move clones of this to reader threads
//!
//! // One epoch: a campaign rotating 6 domains around one visual template.
//! daemon.ingest_all((0..12u32).map(|i| {
//!     ScreenshotPoint::new(Dhash(0xFACE ^ (1 << (i % 3))), format!("evil{}.club", i % 6))
//! }));
//! daemon.close_epoch();
//!
//! assert!(matches!(handle.url("http://evil4.club/win"), UrlVerdict::Tracked { .. }));
//! let hit = handle.dhash(Dhash(0xFACE ^ 0b11)).expect("within the eps ball");
//! assert_eq!(hit.campaign, 0);
//! assert!(handle.campaign(0).unwrap().qualified);
//! ```

#![deny(missing_docs)]

pub mod daemon;
pub mod dash;
pub mod offline;
pub mod query;
pub mod snapshot;

pub use daemon::Daemon;
pub use query::{CampaignStatus, DhashMatch, UrlVerdict};
pub use snapshot::{QueryHandle, ReputationSnapshot, SnapshotCell};
