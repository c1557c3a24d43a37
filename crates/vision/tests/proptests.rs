//! Property-based tests for the vision substrate, on the in-tree
//! deterministic harness (`seacma_util::prop`).

use seacma_util::forall;
use seacma_util::prop::Rng;

use seacma_vision::bitmap::Bitmap;
use seacma_vision::cluster::{cluster_screenshots, ClusterParams, ScreenshotPoint};
use seacma_vision::dbscan::{dbscan_with, Label, RegionQuery};
use seacma_vision::dhash::{dhash128, hamming, normalized_hamming, Dhash};
use seacma_vision::index::HammingIndex;

/// DBSCAN parameters of the naive reference.
struct DbscanParams {
    eps: f64,
    min_pts: usize,
}

/// The naive region query every indexed path must match: a linear scan
/// over a pairwise distance closure, O(n) per query.
struct FnRegion<F> {
    n: usize,
    eps: f64,
    dist: F,
}

impl<F: FnMut(usize, usize) -> f64> RegionQuery for FnRegion<F> {
    fn len(&self) -> usize {
        self.n
    }

    fn region(&mut self, p: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.n).filter(|&q| (self.dist)(p, q) <= self.eps));
    }
}

/// Naive O(n²) DBSCAN over `n` points with pairwise distance `dist`.
fn dbscan(n: usize, params: DbscanParams, dist: impl FnMut(usize, usize) -> f64) -> Vec<Label> {
    dbscan_with(&mut FnRegion { n, eps: params.eps, dist }, params.min_pts)
}

/// A random bitmap with 4–39 pixel sides.
fn gen_bitmap(rng: &mut Rng) -> Bitmap {
    let w = rng.range(4, 40);
    let h = rng.range(4, 40);
    let px = (0..w * h).map(|_| rng.u8()).collect();
    Bitmap::from_pixels(w, h, px)
}

/// Hamming distance is a metric: symmetry + identity + triangle.
#[test]
fn hamming_is_a_metric() {
    forall!(|rng| {
        let (a, b, c) = (Dhash(rng.u128()), Dhash(rng.u128()), Dhash(rng.u128()));
        assert_eq!(hamming(a, b), hamming(b, a));
        assert_eq!(hamming(a, a), 0);
        assert!(hamming(a, c) <= hamming(a, b) + hamming(b, c));
    });
}

/// Normalized distance stays in [0, 1].
#[test]
fn normalized_hamming_in_unit_interval() {
    forall!(|rng| {
        let d = normalized_hamming(Dhash(rng.u128()), Dhash(rng.u128()));
        assert!((0.0..=1.0).contains(&d));
    });
}

/// Display/parse of a hash round-trips.
#[test]
fn dhash_display_parse_roundtrip() {
    forall!(|rng| {
        let h = Dhash(rng.u128());
        assert_eq!(Dhash::parse(&h.to_string()), Some(h));
    });
}

/// dhash is invariant under constant brightness shifts (gradient signs
/// are unchanged when every pixel moves by the same amount).
#[test]
fn dhash_brightness_shift_invariant() {
    forall!(|rng| {
        let bm = gen_bitmap(rng);
        let shift = rng.range(1, 60) as u8;
        let shifted = Bitmap::from_pixels(
            bm.width(),
            bm.height(),
            bm.pixels().iter().map(|&p| p / 2 + shift / 2).collect(),
        );
        let base = Bitmap::from_pixels(
            bm.width(),
            bm.height(),
            bm.pixels().iter().map(|&p| p / 2).collect(),
        );
        // Halving first avoids saturation; then the +shift/2 is a pure shift.
        let d = hamming(dhash128(&base), dhash128(&shifted));
        assert_eq!(d, 0);
    });
}

/// Small perturbations keep the hash within the DBSCAN eps ball.
#[test]
fn dhash_noise_stability() {
    forall!(|rng| {
        let seed = rng.u64();
        // A structured image (not constant): diagonal gradient.
        let mut bm = Bitmap::new(64, 40);
        for y in 0..40 {
            for x in 0..64 {
                bm.set(x, y, ((x * 3 + y * 2) % 251) as u8);
            }
        }
        let mut noisy = bm.clone();
        noisy.perturb(seed, 4);
        let d = hamming(dhash128(&bm), dhash128(&noisy));
        assert!(d <= 12, "noise moved the hash {} bits", d);
    });
}

/// Resize to the same dimensions is the identity.
#[test]
fn resize_identity() {
    forall!(|rng| {
        let bm = gen_bitmap(rng);
        let same = bm.resize(bm.width(), bm.height());
        assert_eq!(same, bm);
    });
}

/// DBSCAN labels exactly the input points and ids are contiguous.
#[test]
fn dbscan_labels_are_well_formed() {
    forall!(|rng| {
        let points = rng.vec_of(0, 59, |r| r.f64_range(0.0, 100.0));
        let labels = dbscan(
            points.len(),
            DbscanParams { eps: 2.0, min_pts: 3 },
            |a, b| (points[a] - points[b]).abs(),
        );
        assert_eq!(labels.len(), points.len());
        let mut ids: Vec<usize> = labels.iter().filter_map(|l| l.cluster_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(i, *id, "cluster ids must be contiguous from 0");
        }
        // Every cluster must contain at least one core point => at least
        // min_pts members (core + density-reachable neighbours).
        for id in ids {
            let size = labels.iter().filter(|l| l.cluster_id() == Some(id)).count();
            assert!(size >= 3, "cluster {} has only {} members", id, size);
        }
    });
}

/// Clustering partitions: every input index appears in exactly one
/// cluster or is noise.
#[test]
fn clustering_is_a_partition() {
    forall!(|rng| {
        let hashes = rng.vec_of(0, 49, Rng::u128);
        let pts: Vec<ScreenshotPoint> = hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| ScreenshotPoint::new(Dhash(h), format!("dom{}.com", i % 7)))
            .collect();
        let out = cluster_screenshots(&pts, ClusterParams::default());
        let mut seen = vec![0usize; pts.len()];
        for c in out.campaigns.iter().chain(&out.filtered) {
            for &m in &c.members {
                seen[m] += 1;
            }
        }
        let clustered: usize = seen.iter().sum();
        assert_eq!(clustered + out.noise, pts.len());
        assert!(seen.iter().all(|&s| s <= 1), "a point appeared in two clusters");
    });
}

/// θc filter: every reported campaign spans at least θc domains.
#[test]
fn campaigns_respect_theta_c() {
    forall!(|rng| {
        let n_domains = rng.range(1, 12);
        let pts: Vec<ScreenshotPoint> = (0..30)
            .map(|i| {
                ScreenshotPoint::new(
                    Dhash(0xFACE ^ (1 << (i % 2))),
                    format!("d{}.net", i % n_domains),
                )
            })
            .collect();
        let params = ClusterParams::default();
        let out = cluster_screenshots(&pts, params);
        for c in &out.campaigns {
            assert!(c.domain_count() >= params.theta_c);
        }
        if n_domains < params.theta_c {
            assert!(out.campaigns.is_empty());
        } else {
            assert_eq!(out.campaigns.len(), 1);
        }
    });
}

/// A random dhash corpus mixing planted near-duplicate clusters with
/// uniform noise — the workload shape of a screenshot crawl.
fn gen_dhash_corpus(rng: &mut Rng) -> Vec<Dhash> {
    let n_clusters = rng.range(0, 4);
    let mut hashes: Vec<Dhash> = Vec::new();
    for _ in 0..n_clusters {
        let base = rng.u128();
        let members = rng.range(2, 12);
        for _ in 0..members {
            let mut h = base;
            for _ in 0..rng.below(4) {
                h ^= 1u128 << rng.below(128);
            }
            hashes.push(Dhash(h));
        }
    }
    let noise = rng.range(0, 30);
    hashes.extend((0..noise).map(|_| Dhash(rng.u128())));
    hashes
}

/// The tentpole exactness property: indexed DBSCAN labels equal naive
/// DBSCAN labels on random dhash corpora, across the eps range the
/// ablation sweeps (paper setting 0.1 ± a binding).
#[test]
fn indexed_dbscan_equals_naive() {
    forall!(|rng| {
        let hashes = gen_dhash_corpus(rng);
        for eps in [0.05, 0.1, 0.2] {
            let naive = dbscan(hashes.len(), DbscanParams { eps, min_pts: 3 }, |a, b| {
                normalized_hamming(hashes[a], hashes[b])
            });
            let mut index = HammingIndex::build(&hashes, eps);
            let indexed = dbscan_with(&mut index, 3);
            assert_eq!(indexed, naive, "eps={eps} n={}", hashes.len());
        }
    });
}

/// Adversarial band-boundary cases: points at Hamming distance exactly r
/// and exactly r + 1 from a base, with the differing bits packed so they
/// straddle band boundaries or saturate single bands — the configurations
/// where an off-by-one in the pigeonhole banding would show up.
#[test]
fn indexed_dbscan_exact_at_band_boundaries() {
    forall!(128, |rng| {
        let eps = *rng.pick(&[0.05f64, 0.1, 0.2]);
        let r = (eps * 128.0).floor() as u32;
        let base = rng.u128();
        let mut hashes = vec![Dhash(base)];
        // Distance exactly r: contiguous run starting at a random offset
        // (wraps across band boundaries for most offsets).
        let start = rng.below(128) as u32;
        let mut at_r = base;
        for k in 0..r {
            at_r ^= 1u128 << ((start + k) % 128);
        }
        hashes.push(Dhash(at_r));
        // Distance exactly r + 1: same run extended one bit.
        let mut over_r = at_r;
        over_r ^= 1u128 << ((start + r) % 128);
        hashes.push(Dhash(over_r));
        // Padding duplicates of the base so it is a core point.
        hashes.push(Dhash(base ^ 1));
        hashes.push(Dhash(base ^ 2));

        let index = HammingIndex::build(&hashes, eps);
        let mut out = Vec::new();
        index.neighbours_into(0, &mut out);
        assert!(out.contains(&1), "distance-r point must be found (eps={eps}, start={start})");
        assert!(
            hamming(Dhash(base), Dhash(over_r)) == r + 1 && !out.contains(&2),
            "distance-(r+1) point must be excluded (eps={eps}, start={start})"
        );

        let naive = dbscan(hashes.len(), DbscanParams { eps, min_pts: 3 }, |a, b| {
            normalized_hamming(hashes[a], hashes[b])
        });
        let mut index = index;
        let indexed = dbscan_with(&mut index, 3);
        assert_eq!(indexed, naive);
    });
}

#[test]
fn dbscan_noise_points_have_no_id() {
    assert_eq!(Label::Noise.cluster_id(), None);
    assert_eq!(Label::Cluster(4).cluster_id(), Some(4));
}
