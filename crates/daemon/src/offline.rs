//! The offline oracle: per-epoch reputation snapshots derived from the
//! **batch** pipeline primitives only.
//!
//! This module never touches the incremental code paths — points are
//! re-deduplicated from scratch, labels come from batch DBSCAN over a
//! freshly built [`HammingIndex`], and the lifecycle ledger is replayed
//! through its public [`observe`](CampaignLedger::observe) entry point.
//! Comparing the daemon's served answers against these snapshots is
//! therefore a genuine two-implementation exactness check, the same
//! methodology as the tracker's batch-vs-incremental gate.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use seacma_tracker::{Boundary, CampaignLedger, ObservedCluster, TrackerConfig};
use seacma_util::sym::SymbolArena;
use seacma_vision::cluster::ScreenshotPoint;
use seacma_vision::dbscan::dbscan_with;
use seacma_vision::dhash::Dhash;
use seacma_vision::index::HammingIndex;

use crate::query::CampaignStatus;
use crate::snapshot::ReputationSnapshot;

/// Replays `batches` (one per epoch) through the batch pipeline and
/// returns the reputation snapshot after each epoch: element `e` is the
/// oracle for every query served between the close of epoch `e` and the
/// close of epoch `e + 1`.
///
/// ```
/// use seacma_daemon::{offline::replay_batches, Daemon};
/// use seacma_tracker::TrackerConfig;
/// use seacma_vision::cluster::ScreenshotPoint;
/// use seacma_vision::dhash::Dhash;
/// use seacma_util::json;
///
/// let batch: Vec<ScreenshotPoint> = (0..12u32)
///     .map(|i| ScreenshotPoint::new(Dhash(0xFACE ^ (1 << (i % 3))), format!("evil{}.club", i % 6)))
///     .collect();
/// let oracle = replay_batches(TrackerConfig::default(), &[batch.clone()]);
///
/// let mut daemon = Daemon::new(TrackerConfig::default());
/// daemon.ingest_all(batch);
/// daemon.close_epoch();
/// let live = daemon.handle().snapshot();
/// assert_eq!(oracle[0].epoch(), live.epoch());
/// assert_eq!(
///     json::to_string(&live.lookup_domain("evil2.club")),
///     json::to_string(&oracle[0].lookup_domain("evil2.club")),
/// );
/// ```
pub fn replay_batches(
    config: TrackerConfig,
    batches: &[Vec<ScreenshotPoint>],
) -> Vec<ReputationSnapshot> {
    let mut ledger = CampaignLedger::new(config.ledger);
    // The replay's own private arena for the ledger's domain symbols —
    // persistent across epochs, like the tracker's, but never shared with
    // the incremental paths under test.
    let mut arena = SymbolArena::new();
    let mut all: Vec<ScreenshotPoint> = Vec::new();
    let mut snapshots = Vec::with_capacity(batches.len());
    for (e, batch) in batches.iter().enumerate() {
        all.extend(batch.iter().cloned());

        // Batch dedup, first-occurrence order (as `cluster_screenshots`).
        let mut uniq: Vec<ScreenshotPoint> = Vec::new();
        let mut originals: Vec<u32> = Vec::new(); // multiplicity per unique
        let mut seen: HashMap<(Dhash, &str), usize> = HashMap::new();
        for p in &all {
            match seen.entry((p.dhash, p.e2ld.as_str())) {
                Entry::Occupied(slot) => originals[*slot.get()] += 1,
                Entry::Vacant(slot) => {
                    slot.insert(uniq.len());
                    uniq.push(p.clone());
                    originals.push(1);
                }
            }
        }

        // Batch labels: fresh index, full DBSCAN over the whole prefix.
        let hashes: Vec<Dhash> = uniq.iter().map(|p| p.dhash).collect();
        let mut index = HammingIndex::build(&hashes, config.params.eps);
        let labels = dbscan_with(&mut index, config.params.min_pts);

        // Ledger observation input, every cluster in batch-id order
        // (key = batch id): unique size, original-multiplicity weight,
        // sorted distinct domains; every point counts as moved, so the
        // ledger's votes come from the member scan alone.
        let n_clusters =
            labels.iter().filter_map(|l| l.cluster_id()).max().map_or(0, |m| m + 1);
        let mut observed: Vec<ObservedCluster> = (0..n_clusters as u32)
            .map(|key| ObservedCluster { key, size: 0, weight: 0, domains: Vec::new() })
            .collect();
        let mut domain_sets: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); n_clusters];
        for (u, l) in labels.iter().enumerate() {
            if let Some(id) = l.cluster_id() {
                observed[id].size += 1;
                observed[id].weight += originals[u];
                domain_sets[id].insert(uniq[u].e2ld.as_str());
            }
        }
        for (o, ds) in observed.iter_mut().zip(domain_sets) {
            // BTreeSet iteration is string-sorted, matching the ledger's
            // domain-order invariant after interning.
            o.domains = ds.into_iter().map(|d| arena.intern(d)).collect();
        }
        let moved: Vec<u32> = (0..uniq.len() as u32).collect();
        let boundary = Boundary {
            clusters: &observed,
            moved: &moved,
            absorbed: &[],
            key_of: |u: u32| labels[u as usize].cluster_id().map(|id| id as u32),
            n_unique: uniq.len(),
        };
        ledger.observe(e as u32, &boundary, config.params.theta_c, &arena);

        let statuses =
            ledger.records().iter().map(|r| CampaignStatus::from_record(r, &arena)).collect();
        snapshots.push(ReputationSnapshot::from_parts(
            (e + 1) as u32,
            uniq,
            ledger.assignments().to_vec(),
            statuses,
            config.params.eps,
        ));
    }
    snapshots
}
