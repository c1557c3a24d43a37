//! # seacma-detect
//!
//! Online, per-page-load social-engineering detection served from the live
//! campaign index.
//!
//! The source paper discovers SE campaigns *offline*: crawl, screenshot,
//! cluster dhashes, track. Its follow-ups (SENet, arXiv 2401.05569; PP3D,
//! arXiv 2510.18465) argue the real defense is an **online** classifier
//! fast enough to sit on the browser's page-load path and able to
//! generalize to campaigns it has never seen. This crate is that layer for
//! the seacma substrate:
//!
//! * [`PageObservation`] — what one page load yields: the fused screenshot
//!   [`Dhash`](seacma_vision::dhash::Dhash) plus [`PageSignals`], cheap
//!   structural features read straight off the instrumented browser log
//!   and the served document (redirect-chain length, third-party e2LD
//!   count, scam-phone / survey-gateway / page-locking tells).
//! * [`Detector`] — scores an observation against a frozen snapshot of the
//!   campaign tracker's point set in three stages: an exact banded
//!   [`HammingIndex`](seacma_vision::index::HammingIndex) probe at the
//!   clustering radius (the approximate-kNN front-end; a hit is a
//!   *seen-campaign* match), a **radius-escalated** second probe a few
//!   bits wider (near-miss generalization: a new creative variant of a
//!   known campaign), and a deterministic feature-threshold score for
//!   index misses — the never-seen-campaign path, where only the
//!   structural tells can speak.
//! * [`Verdict`] — the scored answer, one of `Campaign` / `NearCampaign` /
//!   `Suspicious` / `Benign`.
//! * [`oracle::linear_verdict`] — an independent naive O(n) scan
//!   implementing the same contract; the exactness harness pins the
//!   indexed detector byte-identical to it across insertion orders and
//!   snapshot/resume.
//!
//! Every stage is deterministic and allocation-free on the hot path
//! ([`Detector::detect_with`] reuses a caller scratch buffer), so the
//! daemon can serve `detect` queries from an epoch-published snapshot
//! (one `Arc` clone under a briefly-held read lock per query) at
//! six-figure QPS.

#![deny(missing_docs)]

pub mod detector;
pub mod feature;
pub mod oracle;

pub use detector::{Detector, DetectorConfig, Verdict};
pub use feature::{PageObservation, PageSignals};
