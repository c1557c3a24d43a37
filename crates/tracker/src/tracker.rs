//! The epoch-driven campaign tracker: streaming clusterer + lifecycle
//! ledger behind one ingest/end-epoch API, with byte-identical
//! snapshot/resume.

use seacma_util::json::{self, JsonError};
use seacma_util::impl_json_struct;
use seacma_util::sym::{SharedArena, Sym};
use seacma_vision::cluster::{ClusterParams, ScreenshotClusters, ScreenshotPoint};
use seacma_vision::dhash::Dhash;

use crate::incremental::{ClustererState, IncrementalClusterer};
use crate::ledger::{Boundary, CampaignLedger, LedgerConfig, LedgerEvent, LedgerState};

/// Tracker parameters: the clustering knobs (shared with the batch
/// pipeline — exactness requires identical values) plus the ledger's
/// dormancy windows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrackerConfig {
    /// DBSCAN + θc parameters, as in the batch clustering step.
    pub params: ClusterParams,
    /// Dormancy/death thresholds.
    pub ledger: LedgerConfig,
}

/// What one closed epoch looked like: how many clusters the boundary
/// held plus the ledger events the observation produced. The cluster
/// list itself is not materialized here — [`CampaignTracker::clusters`]
/// derives it on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// The epoch index (0-based, assigned in close order).
    pub epoch: u32,
    /// Points ingested during the epoch.
    pub ingested: u32,
    /// DBSCAN clusters at the boundary, before θc filtering — equals
    /// `tracker.clusters().total_clusters()`.
    pub clusters: u32,
    /// Clusters spanning ≥ θc distinct e2LDs at the boundary — equals
    /// `tracker.clusters().campaigns.len()`.
    pub campaigns: u32,
    /// Lifecycle events journaled at the boundary.
    pub events: Vec<LedgerEvent>,
}

/// Online campaign tracker (see the crate docs for the architecture).
///
/// ```
/// use seacma_tracker::{CampaignTracker, TrackerConfig};
/// use seacma_vision::cluster::ScreenshotPoint;
/// use seacma_vision::dhash::Dhash;
///
/// let mut tracker = CampaignTracker::new(TrackerConfig::default());
/// for i in 0..12u32 {
///     let p = ScreenshotPoint::new(Dhash(0xFACE ^ (1 << (i % 3))), format!("evil{}.club", i % 6));
///     tracker.ingest(p);
/// }
/// let summary = tracker.end_epoch();
/// assert_eq!(summary.campaigns, 1);
/// assert_eq!(tracker.clusters().campaigns.len(), 1);
/// assert_eq!(tracker.ledger().campaigns().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignTracker {
    config: TrackerConfig,
    clusterer: IncrementalClusterer,
    ledger: CampaignLedger,
    epoch: u32,
    epoch_ingested: u32,
}

impl CampaignTracker {
    /// A fresh tracker with a private symbol arena.
    pub fn new(config: TrackerConfig) -> Self {
        Self::with_arena(config, SharedArena::new())
    }

    /// A fresh tracker interning e2LDs into `arena` — the pipeline hands
    /// its world arena in so crawl-record symbols flow straight into
    /// [`CampaignTracker::ingest_sym`] without string round-trips.
    pub fn with_arena(config: TrackerConfig, arena: SharedArena) -> Self {
        Self {
            config,
            clusterer: IncrementalClusterer::with_arena(config.params, arena),
            ledger: CampaignLedger::new(config.ledger),
            epoch: 0,
            epoch_ingested: 0,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    /// The next epoch to be closed (number of closed epochs so far).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Total points ingested since birth (including duplicates).
    pub fn points_ingested(&self) -> usize {
        self.clusterer.len()
    }

    /// The lifecycle ledger.
    pub fn ledger(&self) -> &CampaignLedger {
        &self.ledger
    }

    /// The distinct `(dhash, e2LD)` points seen so far, in arrival order —
    /// the clustering domain the ledger's
    /// [`assignments`](CampaignLedger::assignments) index into.
    /// Materialized from the hot columns on demand; the daemon's snapshot
    /// path uses the column accessors ([`CampaignTracker::dhashes`],
    /// [`CampaignTracker::e2ld_syms`]) instead.
    pub fn unique_points(&self) -> Vec<ScreenshotPoint> {
        self.clusterer.unique_points()
    }

    /// Number of distinct `(dhash, e2LD)` pairs seen so far.
    pub fn unique_len(&self) -> usize {
        self.clusterer.unique_len()
    }

    /// The arena every e2LD symbol in this tracker resolves against.
    pub fn arena(&self) -> &SharedArena {
        self.clusterer.arena()
    }

    /// The contiguous dhash column, one entry per unique point.
    pub fn dhashes(&self) -> &[Dhash] {
        self.clusterer.dhashes()
    }

    /// The e2LD symbol column, parallel to [`CampaignTracker::dhashes`].
    pub fn e2ld_syms(&self) -> &[Sym] {
        self.clusterer.e2ld_syms()
    }

    /// Feeds one screenshot point into the current epoch.
    pub fn ingest(&mut self, point: ScreenshotPoint) {
        self.clusterer.insert_ref(point.dhash, &point.e2ld);
        self.epoch_ingested += 1;
    }

    /// Feeds one pre-interned point into the current epoch — the
    /// zero-string hot path. `e2ld` must come from this tracker's arena
    /// ([`CampaignTracker::arena`]).
    pub fn ingest_sym(&mut self, dhash: Dhash, e2ld: Sym) {
        self.clusterer.insert_sym(dhash, e2ld);
        self.epoch_ingested += 1;
    }

    /// Feeds a batch of points into the current epoch.
    pub fn ingest_all(&mut self, points: impl IntoIterator<Item = ScreenshotPoint>) {
        for p in points {
            self.ingest(p);
        }
    }

    /// Closes the current epoch: settles the clusterer (only the points
    /// this epoch touched, and the ambiguous borders, are placed again),
    /// journals lifecycle events for the clusters that changed — every
    /// other record takes only its quiet transitions — and advances the
    /// epoch counter. The cost is the epoch plus one pass over the ledger's
    /// records, not the history; the summary's cluster counts are the
    /// ledger's maintained tallies. The full [`ScreenshotClusters`]
    /// (medoids, string domain sets) is [`CampaignTracker::clusters`]' job,
    /// paid by callers that read it. The first close after
    /// [`CampaignTracker::from_json`] reports every cluster.
    pub fn end_epoch(&mut self) -> EpochSummary {
        let settled = self.clusterer.settle();
        let clusterer = &self.clusterer;
        let boundary = Boundary {
            clusters: &settled.clusters,
            moved: &settled.moved,
            absorbed: &settled.absorbed,
            key_of: |u| clusterer.key_of(u),
            n_unique: clusterer.unique_len(),
        };
        let arena = clusterer.arena().read();
        let events =
            self.ledger.observe(self.epoch, &boundary, self.config.params.theta_c, &arena);
        drop(arena);
        let (clusters, campaigns) = self.ledger.cluster_counts();
        let summary = EpochSummary {
            epoch: self.epoch,
            ingested: self.epoch_ingested,
            clusters,
            campaigns,
            events,
        };
        self.epoch += 1;
        self.epoch_ingested = 0;
        summary
    }

    /// The live cluster snapshot — byte-identical to batch
    /// [`cluster_screenshots`](seacma_vision::cluster::cluster_screenshots)
    /// over everything ingested so far, in ingestion order.
    pub fn clusters(&self) -> ScreenshotClusters {
        self.clusterer.clusters()
    }

    /// Serializes the full tracker state (clusterer + ledger + epoch
    /// counters) to canonical JSON. Snapshots of equal trackers are
    /// byte-identical, and [`CampaignTracker::from_json`] resumes a run
    /// that is byte-identical to never having snapshotted.
    pub fn to_json(&self) -> String {
        json::to_string(&TrackerState {
            config: self.config,
            clusterer: self.clusterer.to_state(),
            ledger: self.ledger.to_state(&self.clusterer.arena().read()),
            epoch: self.epoch,
            epoch_ingested: self.epoch_ingested,
        })
    }

    /// Restores a tracker from a [`CampaignTracker::to_json`] snapshot.
    /// The text is outside input: a truncated or internally inconsistent
    /// snapshot (a column of the wrong length, an index out of range) is
    /// an `Err`, never a panic here or at a later epoch close.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let state: TrackerState = json::from_str(text)?;
        state.validate()?;
        let clusterer = IncrementalClusterer::from_state(state.clusterer)?;
        // The ledger re-interns its domains against the clusterer's
        // just-restored arena — every campaign domain is an e2LD the
        // clusterer already interned, so symbol values land exactly where
        // a never-snapshotted run put them.
        let ledger = CampaignLedger::from_state(state.ledger, clusterer.arena());
        Ok(Self {
            config: state.config,
            clusterer,
            ledger,
            epoch: state.epoch,
            epoch_ingested: state.epoch_ingested,
        })
    }
}

/// Serialized form of [`CampaignTracker`].
#[derive(Debug, Clone, PartialEq)]
struct TrackerState {
    config: TrackerConfig,
    clusterer: ClustererState,
    ledger: LedgerState,
    epoch: u32,
    epoch_ingested: u32,
}

impl TrackerState {
    /// Checks what ties the ledger to the clusterer's points (whose
    /// internal invariants [`IncrementalClusterer::from_state`] checks):
    /// ledger assignments that name existing records, records
    /// whose id is their position and whose epochs are ordered —
    /// everything an epoch close or a reputation snapshot indexes or
    /// subtracts by — and counters the next ingest or close can advance
    /// without overflowing.
    fn validate(&self) -> Result<(), JsonError> {
        if self.epoch == u32::MAX || self.epoch_ingested > self.clusterer.n_original {
            return Err(JsonError::msg(
                "epoch counters out of range (epoch at u32::MAX, or more points ingested \
                 this epoch than in total)",
            ));
        }
        let n = self.clusterer.points.len();
        let records = &self.ledger.records;
        if self.ledger.assign.len() > n
            || self.ledger.assign.iter().flatten().any(|&id| id as usize >= records.len())
        {
            return Err(JsonError::msg("ledger assignments name a missing point or record"));
        }
        for (i, r) in records.iter().enumerate() {
            if r.id as usize != i
                || r.birth_epoch > r.last_growth_epoch
                || r.last_growth_epoch > self.epoch
            {
                return Err(JsonError::msg(format!(
                    "ledger record {i}: id or epochs out of order"
                )));
            }
        }
        Ok(())
    }
}

impl_json_struct!(TrackerConfig { params, ledger });
impl_json_struct!(TrackerState { config, clusterer, ledger, epoch, epoch_ingested });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{CampaignEvent, LifeState};
    use seacma_vision::cluster::cluster_screenshots;
    use seacma_vision::dhash::Dhash;

    /// `count` near-duplicates of `base` across `n_domains` domains.
    fn campaign_points(base: u128, count: usize, n_domains: usize, tag: &str) -> Vec<ScreenshotPoint> {
        (0..count)
            .map(|i| {
                ScreenshotPoint::new(
                    Dhash(base ^ (1u128 << (i % 3))),
                    format!("{tag}{}.xyz", i % n_domains),
                )
            })
            .collect()
    }

    #[test]
    fn epoch_snapshots_match_batch_prefixes() {
        let mut all: Vec<ScreenshotPoint> = Vec::new();
        let mut tracker = CampaignTracker::new(TrackerConfig::default());
        let epochs = [
            campaign_points(0xAAAA_BBBB, 10, 6, "a"),
            campaign_points(u128::MAX << 40, 8, 5, "b"),
            campaign_points(0xAAAA_BBBB, 6, 9, "a"),
        ];
        for batch in epochs {
            all.extend(batch.iter().cloned());
            tracker.ingest_all(batch);
            let summary = tracker.end_epoch();
            let batch_clusters = cluster_screenshots(&all, TrackerConfig::default().params);
            assert_eq!(tracker.clusters(), batch_clusters, "epoch {}", summary.epoch);
            assert_eq!(summary.clusters as usize, batch_clusters.total_clusters());
            assert_eq!(summary.campaigns as usize, batch_clusters.campaigns.len());
        }
        assert_eq!(tracker.epoch(), 3);
        assert_eq!(tracker.points_ingested(), 24);
    }

    #[test]
    fn lifecycle_flows_through_epochs() {
        let config = TrackerConfig {
            ledger: LedgerConfig { quiet_window: 1, death_window: 2 },
            ..Default::default()
        };
        let mut tracker = CampaignTracker::new(config);
        tracker.ingest_all(campaign_points(0xFACE, 12, 6, "evil"));
        let s0 = tracker.end_epoch();
        assert!(s0.events.iter().any(|e| matches!(e.event, CampaignEvent::Born { .. })));
        assert_eq!(tracker.ledger().campaigns().count(), 1);

        // Quiet epoch: dormancy after quiet_window = 1.
        let s1 = tracker.end_epoch();
        assert!(s1.events.iter().any(|e| matches!(e.event, CampaignEvent::WentDormant { .. })));
        // Another quiet epoch: death after death_window = 2.
        let s2 = tracker.end_epoch();
        assert!(s2.events.iter().any(|e| matches!(e.event, CampaignEvent::Died { .. })));
        assert_eq!(tracker.ledger().record(0).state, LifeState::Dead);

        // Rotation resumes: reactivation plus DomainRotated events.
        tracker.ingest_all(campaign_points(0xFACE, 8, 8, "evil"));
        let s3 = tracker.end_epoch();
        assert!(s3.events.iter().any(|e| matches!(e.event, CampaignEvent::Reactivated { .. })));
        assert!(s3
            .events
            .iter()
            .any(|e| matches!(&e.event, CampaignEvent::DomainRotated { domain, .. } if domain == "evil7.xyz")));
    }

    #[test]
    fn snapshot_resume_is_byte_identical() {
        let mut tracker = CampaignTracker::new(TrackerConfig::default());
        tracker.ingest_all(campaign_points(0xBEEF, 9, 6, "x"));
        tracker.end_epoch();
        tracker.ingest_all(campaign_points(0x1234, 7, 3, "y"));

        let snap = tracker.to_json();
        let mut resumed = CampaignTracker::from_json(&snap).expect("snapshot parses");
        assert_eq!(resumed.to_json(), snap, "round-trip is stable");

        // Continue both runs identically: mid-epoch state included.
        let tail = campaign_points(0xBEEF, 5, 9, "x");
        tracker.ingest_all(tail.clone());
        resumed.ingest_all(tail);
        tracker.end_epoch();
        resumed.end_epoch();
        assert_eq!(resumed.to_json(), tracker.to_json());
        assert_eq!(resumed.clusters(), tracker.clusters());
    }

    #[test]
    fn ingest_sym_matches_ingest() {
        let arena = seacma_util::sym::SharedArena::new();
        arena.intern("unrelated-preexisting.example");
        let mut by_sym = CampaignTracker::with_arena(TrackerConfig::default(), arena.clone());
        let mut by_struct = CampaignTracker::new(TrackerConfig::default());
        let epochs = [
            campaign_points(0xD00D, 9, 4, "e"),
            campaign_points(0xD00D, 5, 7, "e"),
        ];
        for batch in &epochs {
            for p in batch {
                let sym = arena.intern(&p.e2ld);
                by_sym.ingest_sym(p.dhash, sym);
                by_struct.ingest(p.clone());
            }
            assert_eq!(by_sym.end_epoch(), by_struct.end_epoch());
        }
        // The serialized state resolves symbols, so it is arena-independent.
        assert_eq!(by_sym.to_json(), by_struct.to_json());
    }
}
