//! Pipeline configuration.

use seacma_util::impl_json_struct;

use seacma_crawler::{CrawlPolicy, CrawlSchedule};
use seacma_milker::MilkingConfig;
use seacma_simweb::{UaProfile, WorldConfig};
use seacma_tracker::LedgerConfig;
use seacma_vision::cluster::ClusterParams;

/// Everything that parameterizes one end-to-end measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// World generation parameters (seed, scale).
    pub world: WorldConfig,
    /// Per-visit crawl budgets.
    pub crawl: CrawlPolicy,
    /// Virtual-time crawl schedule (lanes × session length fixes the
    /// crawl span, which must cover several campaign rotation periods for
    /// the θc filter to see multi-domain campaigns).
    pub schedule: CrawlSchedule,
    /// Browser/OS profiles to crawl with (paper: all four).
    pub uas: Vec<UaProfile>,
    /// Worker threads for the two sharded stages — the crawl farm and the
    /// milking simulate phase (0 ⇒ available parallelism). Both are
    /// byte-identical at any worker count; clustering is sequential.
    pub workers: usize,
    /// Fraction of the residential (cloaking-network) pool actually
    /// visited — the paper managed 11,182 of 34,068 sites over
    /// residential links.
    pub residential_visit_fraction: f64,
    /// Clustering parameters (dhash DBSCAN + θc).
    pub clustering: ClusterParams,
    /// Milking cadence and measurement windows.
    pub milking: MilkingConfig,
    /// Cap on milking sources (paper ran 505 `(URL, UA)` pairs).
    pub max_milking_sources: usize,
    /// Epochs the crawl phase is replayed through the campaign tracker as
    /// (contiguous prefix chunks of the flattened landing order, so the
    /// final tracker snapshot equals the batch discovery clustering).
    pub crawl_track_epochs: usize,
    /// Dormancy/death thresholds for the campaign lifecycle ledger.
    pub track_ledger: LedgerConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            crawl: CrawlPolicy::default(),
            schedule: CrawlSchedule::default(),
            uas: UaProfile::ALL.to_vec(),
            workers: 0,
            residential_visit_fraction: 0.33,
            clustering: ClusterParams::default(),
            milking: MilkingConfig::default(),
            max_milking_sources: 505,
            crawl_track_epochs: 4,
            track_ledger: LedgerConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// A reduced configuration for fast tests and examples: a few hundred
    /// publishers, two UAs, short milking.
    pub fn small(seed: u64) -> Self {
        Self {
            world: WorldConfig {
                seed,
                n_publishers: 600,
                n_hidden_only_publishers: 60,
                n_advertisers: 40,
                campaign_scale: 0.3,
                ..Default::default()
            },
            uas: vec![UaProfile::ChromeMac, UaProfile::ChromeAndroid],
            // Few publishers ⇒ stretch the schedule so the crawl still
            // spans several rotation periods.
            schedule: CrawlSchedule {
                lanes: 2,
                session_len: seacma_simweb::SimDuration::from_minutes(20),
                ..Default::default()
            },
            milking: MilkingConfig {
                duration: seacma_simweb::SimDuration::from_days(3),
                lookup_tail: seacma_simweb::SimDuration::from_days(2),
                ..Default::default()
            },
            max_milking_sources: 120,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = PipelineConfig::default();
        assert_eq!(c.uas.len(), 4);
        assert_eq!(c.max_milking_sources, 505);
        assert_eq!(c.clustering.theta_c, 5);
        assert_eq!(c.milking.period.minutes(), 15);
        assert_eq!(c.milking.duration.minutes(), 14 * 24 * 60);
    }

    #[test]
    fn small_config_is_smaller() {
        let s = PipelineConfig::small(1);
        let d = PipelineConfig::default();
        assert!(s.world.n_publishers < d.world.n_publishers);
        assert!(s.milking.duration < d.milking.duration);
    }
}
impl_json_struct!(PipelineConfig {
    world,
    crawl,
    schedule,
    uas,
    workers,
    residential_visit_fraction,
    clustering,
    milking,
    max_milking_sources,
    crawl_track_epochs,
    track_ledger,
});
