//! Deterministic analysis reports and dashboard primitives for SEACMA.
//!
//! This crate turns measurement outputs (pipeline runs, daemon snapshots,
//! checked-in bench artifacts) into three renderings of the SAME
//! computed tables:
//!
//! 1. A single self-contained HTML report ([`compose_html`]) — inline CSS,
//!    no scripts, no external assets, byte-identical across runs at a
//!    fixed seed.
//! 2. Std-only ANSI terminal lines ([`ansi`]) for the `seacmad` live
//!    dashboard — no ratatui, no curses, just SGR escapes.
//! 3. Plain-text grids ([`compose_text`], [`Table::render_text`]) — what
//!    `seacma discover` and `report` print.
//!
//! The unit of extension is the [`Analysis`] trait: implement `compute`
//! (inputs → [`Table`]) and reuse the default projections. The twenty
//! shipped analyses — the paper's Tables 1–4, Figures 2 and 4, the §4.3–
//! §4.5 and §6 side results among them — live in [`analyses`] and are
//! assembled by [`standard_analyses`].
//!
//! ```
//! use seacma_report::{compose_html, standard_analyses, ReportInputs};
//!
//! // An empty input bundle still renders a complete, valid report —
//! // every analysis shows its deterministic "(no data)" row.
//! let html = compose_html("Empty report", &standard_analyses(), &ReportInputs::new(42));
//! assert!(html.contains("(no data)"));
//! assert_eq!(html, compose_html("Empty report", &standard_analyses(), &ReportInputs::new(42)));
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyses;
pub mod analysis;
pub mod ansi;
pub mod html;
pub mod inputs;
pub mod table;

pub use analyses::{
    AdblockCoverage, AdnetAttribution, BenchTrajectory, BlacklistEnrichment, BlacklistLag,
    CampaignGrowth, CampaignStatistics, ClusterCensus, ClusterSizeDistribution,
    ClusteringAblation, EthicsCost, InvariantMining, MilkedDomains, MilkedFeeds, MilkedFileScans,
    OnlineDetection, ParkingFilter, PipelineFunnel, PublisherCategories, SourceTimeline,
};
pub use analysis::{compose_html, compose_text, standard_analyses, Analysis};
pub use inputs::{load_bench_dir, BenchPoint, CampaignObs, ReportInputs, DETECT_SERIES};
pub use table::{Cell, Table};
