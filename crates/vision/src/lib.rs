//! # seacma-vision
//!
//! Visual-analysis substrate for the SEACMA campaign-discovery pipeline
//! (Vadrevu & Perdisci, IMC 2019, §3.3).
//!
//! The paper clusters screenshots of third-party landing pages reached by
//! clicking on ads. Pages that show the *same* social-engineering attack are
//! visually near-identical even though they are hosted on many throw-away
//! domains; benign pages are visually diverse. The pipeline therefore:
//!
//! 1. takes a screenshot of every landing page ([`Bitmap`]),
//! 2. computes a 128-bit *difference hash* ([`dhash128`]),
//! 3. pairs each hash with the page's effective second-level domain and
//!    clusters the pairs with DBSCAN over Hamming distance
//!    ([`cluster_screenshots`]),
//! 4. keeps only clusters spanning at least `theta_c` distinct domains —
//!    the signature of a blacklist-evading campaign ([`ClusterParams`]).
//!
//! Everything in this crate is pure and deterministic; it has no knowledge
//! of the simulator and can be reused on real screenshot corpora.
//!
//! Clustering runs sub-quadratically: region queries go through the exact
//! pigeonhole-banded [`HammingIndex`] (see [`index`]) rather than an O(n²)
//! pairwise scan.

#![deny(missing_docs)]

pub mod bitmap;
pub mod cluster;
pub mod dbscan;
pub mod dhash;
pub mod index;
mod noise;

pub use bitmap::Bitmap;
pub use cluster::{cluster_screenshots, ClusterParams, ScreenshotClusters, ScreenshotPoint};
pub use dbscan::{dbscan_with, Label, RegionQuery};
pub use dhash::{dhash128, hamming, normalized_hamming, Dhash};
pub use index::HammingIndex;
