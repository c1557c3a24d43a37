//! # seacma-milker
//!
//! Continuous SEACMA campaign tracking ("milking", paper §3.5, §4.2, §4.5).
//!
//! SE attack pages live on throw-away domains, but the ad-loading chain
//! contains longer-lived upstream URLs. After the crawl, the pipeline:
//!
//! 1. **validates** each candidate `(URL, UA)` pair by re-visiting it and
//!    comparing the landing screenshot against the campaign's visual
//!    representative ([`sources::validate_candidates`]) — matches become
//!    *milking sources*;
//! 2. **milks** every source once per 15 virtual minutes for 14 virtual
//!    days ([`scheduler::Milker`]), recording every never-before-seen
//!    attack domain;
//! 3. checks each new domain against the GSB simulator every 30 minutes
//!    (continuing 12 days past the milking window, plus a final lookup two
//!    months later) to measure detection rates and listing lag;
//! 4. interacts with landing pages, harvesting the polymorphic binaries
//!    and driving the VirusTotal submit → wait → rescan flow.
//!
//! The scheduler entry point is
//! [`Milker::run_parallel`](scheduler::Milker::run_parallel): per-source
//! timelines are simulated on worker threads (every session is a pure
//! function of `(seed, url, ua, time)`) and a sequential merge sweep
//! applies all cross-source state in time-major `(tick, source)` order,
//! so the outcome is byte-identical at any worker count. The one-thread
//! session-by-session scheduler it replaced lives on as the test-only
//! reference in `scheduler.rs` that the invariance tests compare against.

#![deny(missing_docs)]

pub mod downloads;
mod merge;
pub mod scheduler;
mod simulate;
pub mod sources;
pub mod trackfeed;

pub use downloads::MilkedFile;
pub use scheduler::{DomainDiscovery, Milker, MilkingConfig, MilkingOutcome};
pub use sources::{validate_candidates, MilkingCandidate, MilkingSource};
