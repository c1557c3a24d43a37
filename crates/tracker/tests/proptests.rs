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
//! Since ISSUE 16 also: **border-only bookkeeping** — at every prefix the
//! clusterer keeps core-neighbour lists for non-core points only, each
//! equal to the brute-force set — a checked-in **parent-format snapshot**
//! that must resume byte-identically, and a **hostile-snapshot** table
//! (`from_json` answers `Err`, never a panic now or at the next close).
//!
//! Also **incremental close == full observation** — the
//! tracker's close, which observes only the clusters the epoch touched,
//! equals a reference that re-clusters everything in batch and hands the
//! ledger every cluster, summary for summary and ledger byte for byte,
//! with one hand-built row per rule that marks a cluster changed.
//!
//! `EpochSummary` carries only cluster *counts*; each suite that closes an
//! epoch also compares `tracker.clusters()` at the boundary, so the full
//! list stays pinned to the batch path.

use std::collections::{BTreeSet, HashMap};

use seacma_tracker::{
    Boundary, CampaignEvent, CampaignLedger, CampaignTracker, EpochSummary, IncrementalClusterer,
    LedgerConfig, ObservedCluster, TrackerConfig,
};
use seacma_util::forall;
use seacma_util::json::{self, Value};
use seacma_util::prop::Rng;
use seacma_util::sym::SymbolArena;
use seacma_vision::cluster::{cluster_screenshots, ClusterParams, ScreenshotPoint};
use seacma_vision::dbscan::dbscan_with;
use seacma_vision::dhash::{hamming, Dhash};
use seacma_vision::index::{radius_for_eps, HammingIndex};

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
                inc.insert_ref(p.dhash, &p.e2ld);
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
            inc.insert_ref(p.dhash, &p.e2ld);
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
        let ends = gen_epoch_splits(rng, pts.len());
        // Snapshot anywhere: at an epoch boundary or mid-epoch.
        let cut = rng.below(pts.len() as u64 + 1) as usize;

        let mut whole = CampaignTracker::new(config);
        let mut front = CampaignTracker::new(config);
        let mut resumed: Option<CampaignTracker> = None;
        let mut summaries = (Vec::new(), Vec::new());
        for (i, p) in pts.iter().enumerate() {
            if i == cut {
                let snap = front.to_json();
                let back = CampaignTracker::from_json(&snap).expect("snapshot parses");
                assert_eq!(back.to_json(), snap, "serialize∘deserialize is the identity");
                resumed = Some(back);
            }
            let other = resumed.as_mut().unwrap_or(&mut front);
            whole.ingest(p.clone());
            other.ingest(p.clone());
            if ends.contains(&(i + 1)) {
                summaries.0.push(whole.end_epoch());
                summaries.1.push(other.end_epoch());
            }
        }
        let mut resumed = match resumed {
            Some(resumed) => resumed,
            None => CampaignTracker::from_json(&front.to_json()).expect("snapshot parses"),
        };
        assert_eq!(summaries.0, summaries.1, "summary sequences agree across the resume");
        let summary = whole.end_epoch();
        assert_eq!(summary, resumed.end_epoch(), "summaries agree after resume");
        let clusters = whole.clusters();
        assert_eq!(clusters, resumed.clusters(), "cluster lists agree after resume");
        assert_eq!(summary.clusters as usize, clusters.total_clusters());
        assert_eq!(summary.campaigns as usize, clusters.campaigns.len());
        assert_eq!(whole.to_json(), resumed.to_json(), "final snapshots byte-identical");
    });
}

#[test]
fn resume_with_a_migration_pending_matches_uninterrupted() {
    // Each hand-built migration, snapshotted after its second epoch's
    // points arrived but before the close that moves the border.
    for (epochs, theta_c) in [(migration_through_a_union(), 5), (migration_through_a_new_core(), 5)] {
        let config = hand_config(theta_c);
        let mut whole = CampaignTracker::new(config);
        whole.ingest_all(epochs[0].iter().cloned());
        whole.end_epoch();
        whole.ingest_all(epochs[1].iter().cloned());
        let mut resumed = CampaignTracker::from_json(&whole.to_json()).expect("snapshot parses");
        let (a, b) = (whole.end_epoch(), resumed.end_epoch());
        assert!(a.events.iter().any(|e| matches!(e.event, CampaignEvent::Demoted { .. })));
        assert_eq!(a, b, "the pending migration closes the same way");
        let tail = group(low(60, 84), 119, "t");
        for t in [vec![], tail] {
            whole.ingest_all(t.iter().cloned());
            resumed.ingest_all(t.iter().cloned());
            assert_eq!(whole.end_epoch(), resumed.end_epoch());
        }
        assert_eq!(whole.to_json(), resumed.to_json());
    }
}

#[test]
fn core_neighbour_lists_are_kept_for_borders_only_at_every_prefix() {
    forall!(40, |rng| {
        let params = gen_params(rng);
        let n = rng.range(10, 70);
        let pts = gen_corpus(rng, n);
        let radius = radius_for_eps(params.eps);
        let mut inc = IncrementalClusterer::new(params);
        for (i, p) in pts.iter().enumerate() {
            inc.insert_ref(p.dhash, &p.e2ld);
            let state = inc.to_state();
            let at = format!("prefix {} with {params:?}", i + 1);
            // Brute-force neighbourhoods (each counting the point itself).
            let uniq = &state.points;
            let hoods: Vec<Vec<u32>> = uniq
                .iter()
                .map(|a| {
                    (0..uniq.len() as u32)
                        .filter(|&q| hamming(a.dhash, uniq[q as usize].dhash) <= radius)
                        .collect()
                })
                .collect();
            let is_core = |u: usize| hoods[u].len() >= params.min_pts;
            let mut listed = 0;
            let mut non_core = 0;
            for u in 0..uniq.len() {
                assert_eq!(state.core[u], is_core(u), "core flag of {u}, {at}");
                assert_eq!(
                    state.neighbor_count[u] as usize,
                    params.min_pts.min(hoods[u].len()),
                    "count of {u}, {at}"
                );
                if is_core(u) {
                    assert!(state.core_neighbors[u].is_empty(), "core {u} keeps a list, {at}");
                } else {
                    let mut got = state.core_neighbors[u].clone();
                    got.sort_unstable();
                    let want: Vec<u32> = hoods[u]
                        .iter()
                        .copied()
                        .filter(|&q| q as usize != u && is_core(q as usize))
                        .collect();
                    assert_eq!(got, want, "core neighbours of non-core {u}, {at}");
                    listed += got.len();
                    non_core += 1;
                }
            }
            assert!(listed <= params.min_pts.saturating_sub(2) * non_core, "list volume, {at}");
        }
    });
}

/// A tracker snapshot written by the commit before the border-only
/// bookkeeping (PR 14's code: full neighbour counts, core-neighbour lists
/// on core points too), taken after `fixture_sequence()[..20]`, one epoch
/// close, and `[20..30]` mid-epoch.
const PARENT_FORMAT_SNAPSHOT: &str = include_str!("fixtures/tracker_pr14.json");

/// The ingestion sequence behind [`PARENT_FORMAT_SNAPSHOT`] plus a tail:
/// two campaigns, noise, one exact duplicate, a border of the first
/// campaign (`border.club`) and, in the tail, the point that tips that
/// border over `min_pts` (`tip.club`).
fn fixture_sequence() -> Vec<ScreenshotPoint> {
    const A: u128 = 0x0123_4567_89AB_CDEF_0F1E_2D3C_4B5A_6978;
    let mut seq: Vec<ScreenshotPoint> = (0..45u32)
        .map(|i| match i % 4 {
            0 | 1 => ScreenshotPoint::new(
                Dhash(A ^ (1u128 << (i * 7 % 64)) ^ (1u128 << (64 + i * 5 % 32))),
                format!("a{}.club", i % 7),
            ),
            2 => ScreenshotPoint::new(Dhash(!A ^ (1u128 << (i % 3))), format!("b{}.xyz", i % 5)),
            _ => ScreenshotPoint::new(
                Dhash(u128::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835)),
                format!("noise{i}.com"),
            ),
        })
        .collect();
    let border = seq[0].dhash.0 ^ (0xFFFu128 << 100);
    seq.insert(9, ScreenshotPoint::new(Dhash(border), "border.club"));
    seq.insert(38, ScreenshotPoint::new(Dhash(border ^ (1u128 << 127)), "tip.club"));
    seq.insert(25, seq[4].clone());
    seq
}

#[test]
fn parent_format_snapshot_resumes_byte_identically() {
    let seq = fixture_sequence();
    let config = TrackerConfig::default();
    let mut resumed =
        CampaignTracker::from_json(PARENT_FORMAT_SNAPSHOT).expect("parent-format snapshot loads");
    assert_eq!(resumed.clusters(), cluster_screenshots(&seq[..30], config.params));
    assert_ne!(
        resumed.to_json(),
        PARENT_FORMAT_SNAPSHOT,
        "the fixture must stay in the parent format (lists on core points), or this test \
         checks nothing: do not regenerate it"
    );

    let mut fresh = CampaignTracker::new(config);
    fresh.ingest_all(seq[..20].iter().cloned());
    fresh.end_epoch();
    fresh.ingest_all(seq[20..30].iter().cloned());
    assert_eq!(resumed.to_json(), fresh.to_json(), "load normalises to what this code writes");

    resumed.ingest_all(seq[30..].iter().cloned());
    fresh.ingest_all(seq[30..].iter().cloned());
    assert_eq!(resumed.end_epoch(), fresh.end_epoch());
    assert_eq!(resumed.to_json(), fresh.to_json(), "resume then continue == never snapshotted");
    assert_eq!(resumed.clusters(), cluster_screenshots(&seq, config.params));
}

/// A real two-epoch tracker over [`fixture_sequence`], stopped mid-epoch,
/// and the number of unique points its closed epoch held.
fn fixture_tracker() -> (CampaignTracker, usize) {
    let seq = fixture_sequence();
    let mut tracker = CampaignTracker::new(TrackerConfig::default());
    tracker.ingest_all(seq[..20].iter().cloned());
    tracker.end_epoch();
    let closed = tracker.unique_len();
    tracker.ingest_all(seq[20..].iter().cloned());
    (tracker, closed)
}

#[test]
fn snapshots_with_first_seen_epoch_stamps_resume_byte_identically() {
    // Older snapshots carry one more column, `first_epoch` (the epoch each
    // unique point arrived in), between the clusterer and the ledger.
    // Nothing read it, so loading skips it.
    let (tracker, closed) = fixture_tracker();
    let text = tracker.to_json();
    let stamps: Vec<&str> =
        (0..tracker.unique_len()).map(|u| if u < closed { "0" } else { "1" }).collect();
    let at = text.find(",\"ledger\":").expect("the ledger follows the clusterer");
    let old = format!("{},\"first_epoch\":[{}]{}", &text[..at], stamps.join(","), &text[at..]);
    let resumed = CampaignTracker::from_json(&old).expect("a stamped snapshot loads");
    assert_eq!(resumed.to_json(), text);
}

#[test]
fn mutated_snapshots_are_errors_or_trackers_that_reserialise() {
    // One truncation or one changed byte of a real snapshot: `from_json`
    // answers `Err`, or a tracker that serialises, reloads to the same
    // text and survives the next ingest and close. Never a panic.
    let (tracker, _) = fixture_tracker();
    let base = tracker.to_json().into_bytes();
    let tail = fixture_sequence();
    forall!(300, |rng| {
        let mut bytes = base.clone();
        let at = rng.below(bytes.len() as u64) as usize;
        if rng.bool(0.2) {
            bytes.truncate(at);
        } else if rng.bool(0.5) {
            bytes[at] = *rng.pick(b"0123456789-.,:[]{}\"aefnlrstu");
        } else {
            bytes[at] = rng.u8();
        }
        let Ok(mut loaded) = CampaignTracker::from_json(&String::from_utf8_lossy(&bytes)) else {
            return;
        };
        let text = loaded.to_json();
        let again = CampaignTracker::from_json(&text).expect("a loaded tracker reloads");
        assert_eq!(again.to_json(), text, "byte {at}");
        loaded.ingest_all(tail[..8].iter().cloned());
        loaded.end_epoch();
    });
}

/// `snapshot` with the array at `path` (object keys and array positions,
/// outermost first) edited by `edit`.
fn with_array_edited(snapshot: &str, path: &[&str], edit: impl FnOnce(&mut Vec<Value>)) -> String {
    let mut root = json::parse(snapshot).expect("base snapshot parses");
    let mut at = &mut root;
    for step in path {
        at = match at {
            Value::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == step).expect("key").1,
            Value::Arr(items) => &mut items[step.parse::<usize>().expect("array position")],
            other => panic!("cannot step into {other:?}"),
        };
    }
    let Value::Arr(items) = at else { panic!("{path:?} is not an array") };
    edit(items);
    json::to_string(&root)
}

#[test]
fn corrupt_snapshots_are_errors_not_panics() {
    let base = PARENT_FORMAT_SNAPSHOT;
    let unedited = with_array_edited(base, &["clusterer", "parent"], |_| {});
    assert!(CampaignTracker::from_json(&unedited).is_ok(), "the edit helper round-trips");

    let uint = |v: u32| Value::UInt(u128::from(v));
    let set = |path: &[&str], at: usize, v: Value| with_array_edited(base, path, |a| a[at] = v);
    let replaced = |from: &str, to: &str| {
        assert_eq!(base.matches(from).count(), 1, "{from} names one place in the fixture");
        base.replacen(from, to, 1)
    };
    // In the fixture: point 0 is a core root, 4 and 5 hang under it, 3 is
    // noise, 9 is a border whose one core neighbour is 0; 30 originals,
    // of which point 4 holds 4 and 25; epoch 1 is open, 10 points in.
    let mut hostile: Vec<(String, String)> = vec![
        ("parent out of range".into(), set(&["clusterer", "parent"], 0, uint(999_999))),
        ("parent above the point".into(), set(&["clusterer", "parent"], 1, uint(5))),
        ("parent not a root".into(), set(&["clusterer", "parent"], 5, uint(4))),
        (
            "core neighbour out of range".into(),
            set(&["clusterer", "core_neighbors"], 9, Value::Arr(vec![uint(999_999)])),
        ),
        (
            "core neighbour not core".into(),
            set(&["clusterer", "core_neighbors"], 9, Value::Arr(vec![uint(3)])),
        ),
        ("core flag without the count".into(), set(&["clusterer", "core"], 3, Value::Bool(true))),
        ("count without the core flag".into(), set(&["clusterer", "neighbor_count"], 3, uint(3))),
        ("empty originals".into(), set(&["clusterer", "originals"], 2, Value::Arr(vec![]))),
        (
            "descending originals".into(),
            set(&["clusterer", "originals"], 4, Value::Arr(vec![uint(25), uint(4)])),
        ),
        (
            "original beyond n_original".into(),
            set(&["clusterer", "originals"], 0, Value::Arr(vec![uint(30)])),
        ),
        (
            "two points claim one original index".into(),
            set(&["clusterer", "originals"], 5, Value::Arr(vec![uint(25)])),
        ),
        // Counters the next ingest or close would overflow, or that run
        // ahead of the originals the points claim.
        (
            "n_original at u32::MAX".into(),
            replaced("\"n_original\":30", "\"n_original\":4294967295"),
        ),
        (
            "n_original past the claimed originals".into(),
            replaced("\"n_original\":30", "\"n_original\":31"),
        ),
        ("epoch at u32::MAX".into(), replaced("\"epoch\":1,", "\"epoch\":4294967295,")),
        (
            "more ingested this epoch than in total".into(),
            replaced("\"epoch_ingested\":10", "\"epoch_ingested\":31"),
        ),
        (
            "one (dhash, e2LD) pair listed twice".into(),
            with_array_edited(base, &["clusterer", "points"], |a| a[1] = a[0].clone()),
        ),
        ("assignment to a missing record".into(), set(&["ledger", "assign"], 0, uint(77))),
        (
            "ledger record out of position".into(),
            with_array_edited(base, &["ledger", "records"], |a| a.swap(0, 1)),
        ),
    ];
    for column in ["points", "originals", "neighbor_count", "core", "parent", "core_neighbors"] {
        let short = with_array_edited(base, &["clusterer", column], |a| {
            a.pop();
        });
        hostile.push((format!("short column {column}"), short));
    }
    for cut in (0..base.len()).step_by(97) {
        hostile.push((format!("truncated at byte {cut}"), base[..cut].to_string()));
    }
    for (what, text) in &hostile {
        assert!(CampaignTracker::from_json(text).is_err(), "{what}: accepted");
    }
}

/// The reference epoch close: batch DBSCAN over a fresh index on every
/// point so far, every cluster handed to a ledger of its own as a full
/// observation (every point moved, key = batch id) — the shape of the
/// daemon's offline replay, sharing no clustering code with the tracker.
struct Reference {
    config: TrackerConfig,
    ledger: CampaignLedger,
    arena: SymbolArena,
    all: Vec<ScreenshotPoint>,
    epoch: u32,
}

impl Reference {
    fn new(config: TrackerConfig) -> Self {
        let ledger = CampaignLedger::new(config.ledger);
        Self { config, ledger, arena: SymbolArena::new(), all: Vec::new(), epoch: 0 }
    }

    fn close(&mut self, batch: &[ScreenshotPoint]) -> EpochSummary {
        self.all.extend(batch.iter().cloned());
        let mut uniq: Vec<&ScreenshotPoint> = Vec::new();
        let mut weight: Vec<u32> = Vec::new();
        let mut seen: HashMap<(Dhash, &str), usize> = HashMap::new();
        for p in &self.all {
            let slot = *seen.entry((p.dhash, p.e2ld.as_str())).or_insert_with(|| {
                uniq.push(p);
                weight.push(0);
                uniq.len() - 1
            });
            weight[slot] += 1;
        }
        let hashes: Vec<Dhash> = uniq.iter().map(|p| p.dhash).collect();
        let params = self.config.params;
        let labels = dbscan_with(&mut HammingIndex::build(&hashes, params.eps), params.min_pts);
        let n_clusters = labels.iter().filter_map(|l| l.cluster_id()).max().map_or(0, |m| m + 1);
        let mut observed: Vec<ObservedCluster> = (0..n_clusters as u32)
            .map(|key| ObservedCluster { key, size: 0, weight: 0, domains: Vec::new() })
            .collect();
        let mut domains: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); n_clusters];
        for (u, l) in labels.iter().enumerate() {
            if let Some(c) = l.cluster_id() {
                observed[c].size += 1;
                observed[c].weight += weight[u];
                domains[c].insert(uniq[u].e2ld.as_str());
            }
        }
        for (o, ds) in observed.iter_mut().zip(domains) {
            o.domains = ds.into_iter().map(|d| self.arena.intern(d)).collect();
        }
        let moved: Vec<u32> = (0..uniq.len() as u32).collect();
        let boundary = Boundary {
            clusters: &observed,
            moved: &moved,
            absorbed: &[],
            key_of: |u: u32| labels[u as usize].cluster_id().map(|c| c as u32),
            n_unique: uniq.len(),
        };
        let events = self.ledger.observe(self.epoch, &boundary, params.theta_c, &self.arena);
        let campaigns = observed.iter().filter(|o| o.domains.len() >= params.theta_c).count();
        self.epoch += 1;
        EpochSummary {
            epoch: self.epoch - 1,
            ingested: batch.len() as u32,
            clusters: n_clusters as u32,
            campaigns: campaigns as u32,
            events,
        }
    }

    /// The ledger as the tracker serializes it.
    fn ledger_json(&self) -> String {
        json::to_string(&self.ledger.to_state(&self.arena))
    }
}

/// The `"ledger"` member of a tracker snapshot.
fn ledger_json_of(tracker: &CampaignTracker) -> String {
    let Value::Obj(members) = json::parse(&tracker.to_json()).expect("snapshot parses") else {
        panic!("a tracker snapshot is an object");
    };
    let (_, ledger) = members.into_iter().find(|(k, _)| k == "ledger").expect("ledger member");
    json::to_string(&ledger)
}

/// Feeds `epochs` to a tracker, to a twin that is resumed from its own
/// snapshot before every close (so every close is a full one), and to the
/// reference; every boundary must agree. Returns every summary.
fn close_all_three_ways(config: TrackerConfig, epochs: &[Vec<ScreenshotPoint>]) -> Vec<EpochSummary> {
    let mut tracker = CampaignTracker::new(config);
    let mut twin = CampaignTracker::new(config);
    let mut reference = Reference::new(config);
    let mut summaries = Vec::new();
    for (e, batch) in epochs.iter().enumerate() {
        tracker.ingest_all(batch.iter().cloned());
        twin.ingest_all(batch.iter().cloned());
        twin = CampaignTracker::from_json(&twin.to_json()).expect("own snapshot loads");
        let summary = tracker.end_epoch();
        assert_eq!(summary, reference.close(batch), "summary of epoch {e}");
        assert_eq!(summary, twin.end_epoch(), "full close of epoch {e}");
        assert_eq!(ledger_json_of(&tracker), reference.ledger_json(), "ledger after epoch {e}");
        assert_eq!(tracker.to_json(), twin.to_json(), "snapshot after epoch {e}");
        summaries.push(summary);
    }
    summaries
}

/// A corpus rich in borders: planted near-duplicate groups, points at
/// about the clustering radius from a group centre (borders, bridges and
/// ambiguous borders between groups), exact duplicates and noise.
fn gen_border_corpus(rng: &mut Rng, n: usize, radius: u32) -> Vec<ScreenshotPoint> {
    let centers: Vec<u128> = (0..rng.range(2, 6)).map(|_| rng.u128()).collect();
    let mut out: Vec<ScreenshotPoint> = Vec::with_capacity(n);
    for i in 0..n {
        let c = rng.below(centers.len() as u64) as usize;
        let roll = rng.f64();
        let mut h = centers[c];
        let flips = if roll < 0.55 {
            rng.below(3) as u32
        } else if roll < 0.8 {
            (radius + rng.below(5) as u32).saturating_sub(2)
        } else if roll < 0.9 && !out.is_empty() {
            let p = out[rng.below(out.len() as u64) as usize].clone();
            out.push(p);
            continue;
        } else {
            out.push(ScreenshotPoint::new(Dhash(rng.u128()), format!("noise{i}.com")));
            continue;
        };
        for _ in 0..flips {
            h ^= 1u128 << rng.below(128);
        }
        out.push(ScreenshotPoint::new(Dhash(h), format!("c{c}d{}.xyz", rng.below(7))));
    }
    out
}

#[test]
fn incremental_close_equals_full_observation_at_every_boundary() {
    forall!(64, |rng| {
        let params = ClusterParams {
            eps: *rng.pick(&[0.05, 0.1, 0.15]),
            min_pts: rng.range(2, 6),
            theta_c: rng.range(1, 5),
        };
        let ledger = LedgerConfig { quiet_window: rng.range(1, 3) as u32, death_window: 3 };
        let n = rng.range(20, 120);
        let pts = gen_border_corpus(rng, n, radius_for_eps(params.eps));
        // Random epoch splits, empty epochs included.
        let mut cuts: Vec<usize> =
            (0..rng.range(1, 9)).map(|_| rng.below(pts.len() as u64 + 1) as usize).collect();
        cuts.push(pts.len());
        cuts.sort_unstable();
        let mut fed = 0;
        let epochs: Vec<Vec<ScreenshotPoint>> = cuts
            .into_iter()
            .map(|cut| {
                let batch = pts[fed..cut].to_vec();
                fed = cut;
                batch
            })
            .collect();
        close_all_three_ways(TrackerConfig { params, ledger }, &epochs);
    });
}

/// `base` plus three near-duplicates, each flipping one of the high bits
/// `bits..bits + 3` — four mutually adjacent points, all core at
/// `min_pts = 4` — with domains `{tag}0..{tag}3`.
fn group(base: u128, bits: u32, tag: &str) -> Vec<ScreenshotPoint> {
    (0..4u32)
        .map(|i| {
            let h = if i == 0 { base } else { base ^ (1u128 << (bits + i)) };
            ScreenshotPoint::new(Dhash(h), format!("{tag}{i}.com"))
        })
        .collect()
}

/// Four mutually adjacent groups of bits for the hand-built rows (radius
/// 12 at the default `eps`): `low(a, b)` sets bits `a..b`.
fn low(a: u32, b: u32) -> u128 {
    (a..b).fold(0, |h, bit| h | (1u128 << bit))
}

/// The event kinds of one summary, for row assertions.
fn kinds(s: &EpochSummary) -> Vec<&'static str> {
    s.events
        .iter()
        .map(|e| match e.event {
            CampaignEvent::Born { .. } => "Born",
            CampaignEvent::Grew { .. } => "Grew",
            CampaignEvent::DomainRotated { .. } => "DomainRotated",
            CampaignEvent::Promoted { .. } => "Promoted",
            CampaignEvent::Demoted { .. } => "Demoted",
            CampaignEvent::WentDormant { .. } => "WentDormant",
            CampaignEvent::Died { .. } => "Died",
            CampaignEvent::Reactivated { .. } => "Reactivated",
            CampaignEvent::MergedInto { .. } => "MergedInto",
        })
        .collect()
}

fn hand_config(theta_c: usize) -> TrackerConfig {
    TrackerConfig {
        params: ClusterParams { eps: 0.1, min_pts: 4, theta_c },
        ledger: LedgerConfig { quiet_window: 1, death_window: 2 },
    }
}

/// Border `q` of cluster X; a second epoch makes the older point `y` core,
/// so `q` (which gained a core neighbour) moves to the new cluster Y.
fn migration_through_a_new_core() -> Vec<Vec<ScreenshotPoint>> {
    let (y, q, x) = (0u128, low(0, 12), low(0, 24));
    let mut first = vec![
        ScreenshotPoint::new(Dhash(y), "y0.com"),
        ScreenshotPoint::new(Dhash(q), "q.com"),
    ];
    first.extend(group(x, 99, "x"));
    let second = group(y, 109, "y").split_off(1);
    vec![first, second]
}

#[test]
fn migration_through_a_new_core_is_seen() {
    let s = close_all_three_ways(hand_config(2), &migration_through_a_new_core());
    // Y's root (point 0) is older than X's, so its birth comes first.
    assert_eq!(kinds(&s[1]), ["Born", "WentDormant"], "X loses q to the new Y");
    assert_eq!(s[1].clusters, 2);
}

/// Border `x` between components C and B (labelled C, the older), then a
/// bridge `y` unions B into the even older A: `x` now belongs to A∪B and
/// C loses it, though nothing adjacent to C was touched.
fn migration_through_a_union() -> Vec<Vec<ScreenshotPoint>> {
    let mut first = group(low(24, 48), 99, "a");
    first.extend(group(low(0, 24), 104, "c"));
    first.extend(group(0, 109, "b"));
    first.push(ScreenshotPoint::new(Dhash(low(0, 12)), "x.com"));
    let y = low(24, 36);
    let second = vec![
        ScreenshotPoint::new(Dhash(y), "y0.com"),
        ScreenshotPoint::new(Dhash(y ^ (1u128 << 120)), "y1.com"),
        ScreenshotPoint::new(Dhash(y ^ (1u128 << 121)), "y2.com"),
    ];
    vec![first, second]
}

#[test]
fn migration_through_a_union_is_seen() {
    let s = close_all_three_ways(hand_config(5), &migration_through_a_union());
    assert_eq!(kinds(&s[0]), ["Born", "Born", "Born"]);
    let merged = s[1].events.iter().filter(|e| matches!(e.event, CampaignEvent::MergedInto { .. }));
    assert_eq!(merged.count(), 1, "B merges into A");
    assert!(kinds(&s[1]).contains(&"Demoted"), "C loses x.com and falls below θc");
}

#[test]
fn a_duplicates_only_epoch_grows() {
    let first = group(low(0, 24), 99, "d");
    let second = vec![first[0].clone(), first[2].clone(), first[2].clone()];
    let s = close_all_three_ways(hand_config(2), &[first, second]);
    assert_eq!(kinds(&s[1]), ["Grew"]);
}

#[test]
fn epochs_without_ingest_take_only_quiet_transitions() {
    let first = group(low(0, 24), 99, "q");
    let s = close_all_three_ways(hand_config(2), &[first, vec![], vec![], vec![]]);
    assert_eq!(kinds(&s[1]), ["WentDormant"]);
    assert_eq!(kinds(&s[2]), ["Died"]);
    assert!(s[3].events.is_empty());
}

#[test]
fn a_bridge_merges_two_campaigns() {
    let mut first = group(low(24, 48), 99, "a");
    first.extend(group(0, 109, "b"));
    let y = low(24, 36);
    let second = vec![
        ScreenshotPoint::new(Dhash(y), "y0.com"),
        ScreenshotPoint::new(Dhash(y ^ (1u128 << 120)), "y1.com"),
        ScreenshotPoint::new(Dhash(y ^ (1u128 << 121)), "y2.com"),
    ];
    let s = close_all_three_ways(hand_config(2), &[first, second]);
    assert_eq!(kinds(&s[1])[0], "MergedInto");
    assert_eq!(s[1].clusters, 1);
}

#[test]
fn a_border_that_leaves_demotes_its_campaign() {
    // The new-core migration at θc = 5: X spans five domains with q, four
    // without.
    let s = close_all_three_ways(hand_config(5), &migration_through_a_new_core());
    assert_eq!(kinds(&s[0]), ["Born"]);
    assert_eq!(s[0].campaigns, 1);
    assert_eq!(kinds(&s[1]), ["Born", "Demoted", "WentDormant"]);
    assert!(matches!(s[1].events[1].event, CampaignEvent::Demoted { domains: 4, .. }));
    assert_eq!(s[1].campaigns, 1, "Y, with q.com, is the campaign now");
}
