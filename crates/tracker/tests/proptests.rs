//! Property suites for the incremental tracker, on the in-tree
//! deterministic harness (`seacma_util::prop`).
//!
//! The two load-bearing properties from ISSUE 4:
//!
//! 1. **Exactness** — incremental labels equal a batch
//!    `cluster_screenshots` over the same prefix, at every epoch boundary,
//!    for random corpora, random epoch splits and random insertion orders;
//! 2. **Snapshot/resume** — serializing the tracker at an arbitrary point
//!    (including mid-epoch) and resuming produces byte-identical snapshots
//!    and summaries to the uninterrupted run.
//!
//! `EpochSummary` carries only cluster *counts*; each suite that closes an
//! epoch also compares `tracker.clusters()` at the boundary, so the full
//! list stays pinned to the batch path.

use seacma_tracker::{CampaignTracker, IncrementalClusterer, TrackerConfig};
use seacma_util::forall;
use seacma_util::prop::Rng;
use seacma_vision::cluster::{cluster_screenshots, ClusterParams, ScreenshotPoint};
use seacma_vision::dhash::Dhash;

/// A corpus with planted near-duplicate campaigns (rotating domains),
/// exact duplicates and background noise — every dedup/border/noise path.
fn gen_corpus(rng: &mut Rng, n: usize) -> Vec<ScreenshotPoint> {
    let n_centers = rng.range(1, 5);
    let centers: Vec<u128> = (0..n_centers).map(|_| rng.u128()).collect();
    (0..n)
        .map(|i| {
            let roll = rng.f64();
            if roll < 0.7 {
                let c = rng.below(centers.len() as u64) as usize;
                let mut h = centers[c];
                for _ in 0..rng.below(4) {
                    h ^= 1u128 << rng.below(128);
                }
                ScreenshotPoint::new(Dhash(h), format!("c{c}d{}.xyz", rng.below(6)))
            } else if roll < 0.8 && i > 0 {
                // Exact duplicate pressure is rare in random hashes;
                // plant some.
                let c = rng.below(centers.len() as u64) as usize;
                ScreenshotPoint::new(Dhash(centers[c]), format!("c{c}d0.xyz"))
            } else {
                ScreenshotPoint::new(Dhash(rng.u128()), format!("noise{i}.com"))
            }
        })
        .collect()
}

/// Random parameter draws exercise the min_pts and θc boundaries too.
fn gen_params(rng: &mut Rng) -> ClusterParams {
    ClusterParams {
        eps: *rng.pick(&[0.05, 0.1, 0.15]),
        min_pts: rng.range(1, 6),
        theta_c: rng.range(1, 5),
    }
}

/// Splits `0..n` into 1..=5 random contiguous epoch chunks.
fn gen_epoch_splits(rng: &mut Rng, n: usize) -> Vec<usize> {
    let epochs = rng.range(1, 6);
    let mut cuts: Vec<usize> = (0..epochs - 1).map(|_| rng.below(n as u64 + 1) as usize).collect();
    cuts.push(n);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[test]
fn incremental_equals_batch_at_every_epoch_boundary() {
    forall!(40, |rng| {
        let params = gen_params(rng);
        let n = rng.range(10, 90);
        let pts = gen_corpus(rng, n);
        let mut inc = IncrementalClusterer::new(params);
        let mut fed = 0;
        for cut in gen_epoch_splits(rng, pts.len()) {
            for p in &pts[fed..cut] {
                inc.insert(p.clone());
            }
            fed = cut;
            assert_eq!(
                inc.clusters(),
                cluster_screenshots(&pts[..cut], params),
                "prefix {cut} of {} with {params:?}",
                pts.len()
            );
        }
    });
}

#[test]
fn epoch_summary_counts_match_the_cluster_list_at_every_epoch() {
    forall!(40, |rng| {
        let config = TrackerConfig { params: gen_params(rng), ..Default::default() };
        let n = rng.range(10, 90);
        let pts = gen_corpus(rng, n);
        let mut tracker = CampaignTracker::new(config);
        let mut fed = 0;
        for cut in gen_epoch_splits(rng, pts.len()) {
            tracker.ingest_all(pts[fed..cut].iter().cloned());
            fed = cut;
            let summary = tracker.end_epoch();
            let clusters = tracker.clusters();
            assert_eq!(clusters, cluster_screenshots(&pts[..cut], config.params), "prefix {cut}");
            assert_eq!(summary.clusters as usize, clusters.total_clusters(), "prefix {cut}");
            assert_eq!(summary.campaigns as usize, clusters.campaigns.len(), "prefix {cut}");
        }
    });
}

#[test]
fn exactness_holds_for_random_insertion_orders() {
    // Both paths see the *same* shuffled order (batch clustering is
    // order-sensitive in its cluster numbering, so the comparison must
    // be over a shared order — the property is incremental == batch, not
    // order-invariance).
    forall!(30, |rng| {
        let params = gen_params(rng);
        let n = rng.range(10, 70);
        let mut pts = gen_corpus(rng, n);
        // Fisher–Yates with the harness rng.
        for i in (1..pts.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            pts.swap(i, j);
        }
        let mut inc = IncrementalClusterer::new(params);
        for (i, p) in pts.iter().enumerate() {
            inc.insert(p.clone());
            if i % 7 == 0 || i + 1 == pts.len() {
                assert_eq!(inc.clusters(), cluster_screenshots(&pts[..=i], params));
            }
        }
    });
}

#[test]
fn snapshot_resume_is_byte_identical_to_uninterrupted() {
    forall!(25, |rng| {
        let config = TrackerConfig { params: gen_params(rng), ..Default::default() };
        let n = rng.range(10, 60);
        let pts = gen_corpus(rng, n);
        let cut = rng.below(pts.len() as u64 + 1) as usize;

        let mut whole = CampaignTracker::new(config);
        let mut front = CampaignTracker::new(config);
        for p in &pts[..cut] {
            whole.ingest(p.clone());
            front.ingest(p.clone());
        }
        // Sometimes snapshot at an epoch boundary, sometimes mid-epoch.
        if rng.bool(0.5) {
            assert_eq!(whole.end_epoch(), front.end_epoch());
            assert_eq!(whole.clusters(), front.clusters());
        }
        let snap = front.to_json();
        let mut resumed = CampaignTracker::from_json(&snap).expect("snapshot parses");
        assert_eq!(resumed.to_json(), snap, "serialize∘deserialize is the identity");

        for p in &pts[cut..] {
            whole.ingest(p.clone());
            resumed.ingest(p.clone());
        }
        let summary = whole.end_epoch();
        assert_eq!(summary, resumed.end_epoch(), "summaries agree after resume");
        let clusters = whole.clusters();
        assert_eq!(clusters, resumed.clusters(), "cluster lists agree after resume");
        assert_eq!(summary.clusters as usize, clusters.total_clusters());
        assert_eq!(summary.campaigns as usize, clusters.campaigns.len());
        assert_eq!(whole.to_json(), resumed.to_json(), "final snapshots byte-identical");
    });
}
