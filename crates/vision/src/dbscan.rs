//! Generic DBSCAN (density-based spatial clustering of applications with
//! noise).
//!
//! The paper clusters `(dhash, e2LD)` pairs with DBSCAN using
//! `eps = 0.1` (normalized Hamming distance) and `MinPts = 3`. This module
//! provides a faithful, allocation-conscious DBSCAN whose region queries go
//! through the [`RegionQuery`] trait.
//! [`HammingIndex`](crate::index::HammingIndex) is the production oracle;
//! the naive pairwise scan it must match lives with the tests (see
//! DESIGN.md, "Hamming neighbour index").

/// Cluster assignment for one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Point does not belong to any dense region.
    Noise,
    /// Member of cluster `id` (ids are contiguous from 0).
    Cluster(usize),
}

impl Label {
    /// The cluster id, if any.
    pub fn cluster_id(self) -> Option<usize> {
        match self {
            Label::Cluster(id) => Some(id),
            Label::Noise => None,
        }
    }
}

/// A neighbourhood oracle: answers "which points lie within the clustering
/// radius of point `p`?" for a fixed point set.
///
/// Implementations must write the **ascending, deduplicated** index list
/// into `out` (including `p` itself, which is always within radius zero of
/// itself). DBSCAN's output is a pure function of these lists, so two
/// implementations that return equal lists produce byte-identical labels —
/// the contract that lets the indexed path stand in for the naive scan.
pub trait RegionQuery {
    /// Number of points in the set.
    fn len(&self) -> usize;

    /// Writes the neighbours of `p` (ascending, deduped, including `p`)
    /// into `out`, replacing its contents.
    fn region(&mut self, p: usize, out: &mut Vec<usize>);

    /// Whether the point set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs DBSCAN over an arbitrary [`RegionQuery`] oracle.
///
/// Returns one [`Label`] per point. Border points are assigned to the first
/// core point that reaches them (classic DBSCAN order-dependence; with the
/// tight eps used for perceptual hashes this is immaterial because clusters
/// are well separated).
///
/// Each point receives **exactly one** region query over the whole run
/// (noise points when first scanned, cluster members when first labeled),
/// and the expansion queue never holds a point twice: candidates are
/// deduplicated on enqueue, bounding the queue at `n` entries instead of
/// one entry per (core, neighbour) edge.
pub fn dbscan_with<Q: RegionQuery + ?Sized>(query: &mut Q, min_pts: usize) -> Vec<Label> {
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;

    let n = query.len();
    let mut labels = vec![UNVISITED; n];
    let mut next_cluster = 0usize;
    let mut queue: Vec<usize> = Vec::new();
    let mut in_queue = vec![false; n];
    let mut nb: Vec<usize> = Vec::new();

    for p in 0..n {
        if labels[p] != UNVISITED {
            continue;
        }
        query.region(p, &mut nb);
        if nb.len() < min_pts {
            labels[p] = NOISE;
            continue;
        }
        let cid = next_cluster;
        next_cluster += 1;
        labels[p] = cid;
        for &q in nb.iter().filter(|&&q| q != p) {
            if !in_queue[q] {
                in_queue[q] = true;
                queue.push(q);
            }
        }
        while let Some(q) = queue.pop() {
            in_queue[q] = false;
            if labels[q] == NOISE {
                labels[q] = cid; // border point
                continue;
            }
            if labels[q] != UNVISITED {
                continue;
            }
            labels[q] = cid;
            query.region(q, &mut nb);
            if nb.len() >= min_pts {
                for &r in &nb {
                    if (labels[r] == UNVISITED || labels[r] == NOISE) && !in_queue[r] {
                        in_queue[r] = true;
                        queue.push(r);
                    }
                }
            }
        }
    }

    labels
        .into_iter()
        .map(|l| if l == NOISE || l == UNVISITED { Label::Noise } else { Label::Cluster(l) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive O(n) region query: every point, through a pairwise
    /// distance closure.
    struct Scan<F> {
        n: usize,
        eps: f64,
        dist: F,
    }

    impl<F: FnMut(usize, usize) -> f64> RegionQuery for Scan<F> {
        fn len(&self) -> usize {
            self.n
        }

        fn region(&mut self, p: usize, out: &mut Vec<usize>) {
            out.clear();
            out.extend((0..self.n).filter(|&q| (self.dist)(p, q) <= self.eps));
        }
    }

    fn dbscan(
        n: usize,
        eps: f64,
        min_pts: usize,
        dist: impl FnMut(usize, usize) -> f64,
    ) -> Vec<Label> {
        dbscan_with(&mut Scan { n, eps, dist }, min_pts)
    }

    fn d1(points: &[f64]) -> impl FnMut(usize, usize) -> f64 + '_ {
        move |a, b| (points[a] - points[b]).abs()
    }

    #[test]
    fn empty_input() {
        let labels = dbscan(0, 0.1, 3, |_, _| 0.0);
        assert!(labels.is_empty());
    }

    #[test]
    fn single_point_is_noise_with_minpts_over_one() {
        let labels = dbscan(1, 1.0, 2, |_, _| 0.0);
        assert_eq!(labels, vec![Label::Noise]);
    }

    #[test]
    fn single_point_cluster_with_minpts_one() {
        let labels = dbscan(1, 1.0, 1, |_, _| 0.0);
        assert_eq!(labels, vec![Label::Cluster(0)]);
    }

    #[test]
    fn two_well_separated_blobs() {
        let pts = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let labels = dbscan(pts.len(), 0.5, 3, d1(&pts));
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
        assert!(labels.iter().all(|l| matches!(l, Label::Cluster(_))));
    }

    #[test]
    fn sparse_points_are_noise() {
        let pts = [0.0, 5.0, 10.0, 15.0];
        let labels = dbscan(pts.len(), 1.0, 2, d1(&pts));
        assert!(labels.iter().all(|&l| l == Label::Noise));
    }

    #[test]
    fn chain_expansion_reaches_transitively() {
        // Points 0.0, 0.4, 0.8, ... each within eps of the next: DBSCAN's
        // density-reachability must merge the whole chain into one cluster.
        let pts: Vec<f64> = (0..10).map(|i| i as f64 * 0.4).collect();
        let labels = dbscan(pts.len(), 0.5, 2, d1(&pts));
        let first = labels[0];
        assert!(matches!(first, Label::Cluster(_)));
        assert!(labels.iter().all(|&l| l == first));
    }

    #[test]
    fn border_point_attaches_to_cluster() {
        // Dense blob at 0 plus one point at 0.9 reachable from the blob edge
        // but itself not core.
        let pts = [0.0, 0.05, 0.1, 0.55];
        let labels = dbscan(pts.len(), 0.5, 3, d1(&pts));
        assert_eq!(labels[3], labels[0], "border point must join the cluster");
    }

    #[test]
    fn cluster_ids_are_contiguous() {
        let pts = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 20.0, 20.1, 20.2];
        let labels = dbscan(pts.len(), 0.5, 3, d1(&pts));
        let mut ids: Vec<usize> = labels.iter().filter_map(|l| l.cluster_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// Regression guard for the region-query budget: every point must be
    /// region-queried exactly once over a full run, so the fallback path
    /// performs exactly n² distance evaluations — no matter how many core
    /// neighbours re-discover a point during expansion.
    #[test]
    fn one_region_query_per_point() {
        // One fully-connected blob: every point is a core point and every
        // expansion re-discovers every other point, the worst case for
        // duplicate enqueues.
        let n = 40;
        let mut dist_calls = 0usize;
        let labels = dbscan(n, 1.0, 3, |_, _| {
            dist_calls += 1;
            0.0
        });
        assert!(labels.iter().all(|&l| l == Label::Cluster(0)));
        assert_eq!(dist_calls, n * n, "each point must be region-queried exactly once");

        // Mixed clusters + noise: still exactly one query (n dist calls)
        // per point.
        let pts: Vec<f64> = (0..30)
            .map(|i| if i < 20 { (i / 10) as f64 * 50.0 + (i % 10) as f64 * 0.3 } else { 1000.0 + i as f64 * 25.0 })
            .collect();
        let mut dist_calls = 0usize;
        let labels = dbscan(pts.len(), 0.5, 3, |a, b| {
            dist_calls += 1;
            (pts[a] - pts[b]).abs()
        });
        assert_eq!(dist_calls, pts.len() * pts.len());
        assert!(labels.iter().any(|l| l.cluster_id().is_some()));
        assert!(labels.iter().any(|&l| l == Label::Noise));
    }

    /// The enqueue dedupe must not change labels: compare against a
    /// reference run that allows duplicate enqueues.
    #[test]
    fn dedupe_preserves_labels() {
        fn reference_dbscan(pts: &[f64], eps: f64, min_pts: usize) -> Vec<Label> {
            const UNVISITED: usize = usize::MAX;
            const NOISE: usize = usize::MAX - 1;
            let n = pts.len();
            let nbs = |p: usize| -> Vec<usize> {
                (0..n).filter(|&q| (pts[p] - pts[q]).abs() <= eps).collect()
            };
            let mut labels = vec![UNVISITED; n];
            let mut next = 0;
            for p in 0..n {
                if labels[p] != UNVISITED {
                    continue;
                }
                let nb = nbs(p);
                if nb.len() < min_pts {
                    labels[p] = NOISE;
                    continue;
                }
                let cid = next;
                next += 1;
                labels[p] = cid;
                let mut queue: Vec<usize> = nb.into_iter().filter(|&q| q != p).collect();
                while let Some(q) = queue.pop() {
                    if labels[q] == NOISE {
                        labels[q] = cid;
                        continue;
                    }
                    if labels[q] != UNVISITED {
                        continue;
                    }
                    labels[q] = cid;
                    let qn = nbs(q);
                    if qn.len() >= min_pts {
                        queue.extend(
                            qn.into_iter()
                                .filter(|&r| labels[r] == UNVISITED || labels[r] == NOISE),
                        );
                    }
                }
            }
            labels
                .into_iter()
                .map(|l| if l >= NOISE { Label::Noise } else { Label::Cluster(l) })
                .collect()
        }

        seacma_util::forall!(64, |rng| {
            let pts = rng.vec_of(0, 40, |r| r.f64_range(0.0, 30.0));
            let got = dbscan(pts.len(), 1.5, 3, |a, b| {
                (pts[a] - pts[b]).abs()
            });
            assert_eq!(got, reference_dbscan(&pts, 1.5, 3));
        });
    }
}
