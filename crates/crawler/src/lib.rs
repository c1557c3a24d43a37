//! # seacma-crawler
//!
//! The crawler farm (paper §3.2): container-like browser replicas visiting
//! publisher sites in parallel, clicking where ads are likely armed, and
//! logging everything needed downstream — screenshots (as perceptual
//! hashes), redirect chains, involved-URL sets and milkable candidates.
//!
//! Key behaviours reproduced from the paper:
//!
//! * **Click heuristics** — elements are ranked by rendered size (big
//!   images/iframes carry the ad listeners); clicks at one spot repeat a
//!   tunable number of times because greedy publishers stack several ad
//!   networks on the same elements.
//! * **Ad-trigger detection** — a click "exercised an ad" iff it opened a
//!   tab or navigated to a third-party (different e2LD) URL.
//! * **Session discipline** — after each ad interaction the browser is
//!   reopened and the publisher reloaded; a visit ends when the click
//!   budget, the ad budget or the per-site timeout is exhausted.
//! * **Vantage split** — sites embedding cloaking networks (Propeller,
//!   Clickadu) must be crawled from residential IP space to observe
//!   SEACMA ads at all.
//! * **Determinism under parallelism** — each visit's virtual start time
//!   is a pure function of its position in the schedule (a fixed number
//!   of *virtual* crawler lanes), so the dataset is identical no matter
//!   how many OS threads execute it.

#![deny(missing_docs)]

pub mod farm;
pub mod record;
pub mod visit;

pub use farm::{CrawlFarm, CrawlSchedule};
pub use record::{CrawlDataset, LandingRecord, SiteVisit};
pub use visit::{visit_publisher_reusing, CrawlPolicy, VisitScratch};
