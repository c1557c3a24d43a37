//! SEACMA campaign clustering (paper §3.3, step ⑤).
//!
//! Input: one `(dhash, e2LD)` pair per landing-page screenshot. Output:
//! clusters of visually near-identical pages, with clusters spanning fewer
//! than `theta_c` distinct effective second-level domains discarded —
//! hosting the same visual attack on many domains is the signature of a
//! blacklist-evading campaign, while benign ad campaigns have no incentive
//! to rotate domains.

use std::collections::BTreeSet;

use seacma_util::impl_json_struct;
use seacma_util::sym::{Sym, SymbolArena};

use crate::dbscan::{dbscan_with, Label};
use crate::dhash::Dhash;
use crate::index::HammingIndex;

/// One screenshot observation: the perceptual hash plus the effective
/// second-level domain of the page it was taken on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScreenshotPoint {
    /// 128-bit difference hash of the screenshot.
    pub dhash: Dhash,
    /// Effective second-level domain (public-suffix aware), e.g.
    /// `live6nmld10.club`.
    pub e2ld: String,
}

impl ScreenshotPoint {
    /// Convenience constructor.
    pub fn new(dhash: Dhash, e2ld: impl Into<String>) -> Self {
        Self { dhash, e2ld: e2ld.into() }
    }
}

/// Clustering parameters (paper defaults: `eps = 0.1`, `min_pts = 3`,
/// `theta_c = 5`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// DBSCAN neighbourhood radius over *normalized* Hamming distance.
    pub eps: f64,
    /// DBSCAN MinPts.
    pub min_pts: usize,
    /// Minimum number of distinct e2LDs for a cluster to be kept as a
    /// candidate SEACMA campaign (θc).
    pub theta_c: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self { eps: 0.1, min_pts: 3, theta_c: 5 }
    }
}

/// One cluster of near-duplicate screenshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenshotCluster {
    /// Indices into the input slice.
    pub members: Vec<usize>,
    /// Distinct e2LDs spanned by the cluster, sorted.
    pub domains: BTreeSet<String>,
    /// The member whose hash has minimal total distance to the rest — used
    /// as the cluster's visual representative (e.g. for milking comparison).
    pub representative: usize,
}

impl ScreenshotCluster {
    /// Number of screenshots in the cluster.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never true for clusters produced by
    /// [`cluster_screenshots`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of distinct e2LDs.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }
}

/// Result of the clustering + θc filtering step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenshotClusters {
    /// Clusters that span ≥ θc distinct e2LDs: candidate SEACMA campaigns.
    pub campaigns: Vec<ScreenshotCluster>,
    /// Clusters filtered out by θc (dense but hosted on few domains).
    pub filtered: Vec<ScreenshotCluster>,
    /// Number of points DBSCAN marked as noise.
    pub noise: usize,
}

impl ScreenshotClusters {
    /// Total clusters found before θc filtering.
    pub fn total_clusters(&self) -> usize {
        self.campaigns.len() + self.filtered.len()
    }
}

/// Clusters `(dhash, e2LD)` pairs with DBSCAN over normalized Hamming
/// distance and applies the θc domain-count filter.
///
/// Deduplicates exact duplicate pairs first (the paper clusters the set of
/// *distinct* pairs), but reports clusters in terms of the original indices,
/// mapping every duplicate back to its cluster.
///
/// ```
/// use seacma_vision::cluster::{cluster_screenshots, ClusterParams, ScreenshotPoint};
/// use seacma_vision::dhash::Dhash;
///
/// // One campaign: near-identical hashes across 6 rotating domains.
/// let points: Vec<ScreenshotPoint> = (0..12)
///     .map(|i| ScreenshotPoint::new(Dhash(0xFACE ^ (1 << (i % 3))), format!("evil{}.club", i % 6)))
///     .collect();
/// let result = cluster_screenshots(&points, ClusterParams::default());
/// assert_eq!(result.campaigns.len(), 1);
/// assert_eq!(result.campaigns[0].domain_count(), 6);
/// ```
pub fn cluster_screenshots(points: &[ScreenshotPoint], params: ClusterParams) -> ScreenshotClusters {
    // Dedup identical (dhash, e2ld) pairs, remembering all original indices.
    let mut uniq: Vec<(Dhash, &str)> = Vec::new();
    let mut originals: Vec<Vec<u32>> = Vec::new();
    {
        let mut index: std::collections::HashMap<(&Dhash, &str), usize> =
            std::collections::HashMap::new();
        for (i, p) in points.iter().enumerate() {
            match index.entry((&p.dhash, p.e2ld.as_str())) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    originals[*e.get()].push(i as u32)
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(uniq.len());
                    uniq.push((p.dhash, p.e2ld.as_str()));
                    originals.push(vec![i as u32]);
                }
            }
        }
    }

    // Indexed region queries (exact — identical labels to the naive O(n²)
    // scan; see DESIGN.md "Hamming neighbour index").
    let hashes: Vec<Dhash> = uniq.iter().map(|&(d, _)| d).collect();
    let labels = dbscan_with(&mut HammingIndex::build(&hashes, params.eps), params.min_pts);

    assemble_clusters(&uniq, &originals, &labels, params.theta_c)
}

/// [`cluster_screenshots`] over struct-of-arrays input: points arrive as
/// parallel `dhash`/`e2LD-symbol` columns plus the arena that assigned
/// the symbols, instead of a slice of point structs.
///
/// The output is **byte-identical** to running the string path over the
/// resolved points: symbols are in bijection with their strings within
/// one arena, so deduplicating `(dhash, Sym)` pairs keeps exactly the
/// `(dhash, e2LD)` pairs the string path keeps, in the same
/// first-occurrence order, and the DBSCAN stage only ever looks at the
/// hash column. This is the pipeline's hot path: the dedup key is
/// `(u128, u32)` — no string hashing, no per-point allocation.
///
/// `_workers` is ignored: clustering is sequential (DESIGN.md §2c records
/// why the sharded region-query path was removed). The argument and the
/// `_parallel` suffix stay only because `benchmark/` calls this exact
/// signature.
pub fn cluster_sym_columns_parallel(
    dhashes: &[Dhash],
    e2lds: &[Sym],
    arena: &SymbolArena,
    params: ClusterParams,
    _workers: usize,
) -> ScreenshotClusters {
    assert_eq!(dhashes.len(), e2lds.len(), "column lengths must agree");
    let mut uniq_hashes: Vec<Dhash> = Vec::new();
    let mut uniq_syms: Vec<Sym> = Vec::new();
    let mut originals: Vec<Vec<u32>> = Vec::new();
    {
        let mut index: std::collections::HashMap<(u128, Sym), usize> =
            std::collections::HashMap::new();
        for (i, (&d, &s)) in dhashes.iter().zip(e2lds).enumerate() {
            match index.entry((d.0, s)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    originals[*e.get()].push(i as u32)
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(uniq_hashes.len());
                    uniq_hashes.push(d);
                    uniq_syms.push(s);
                    originals.push(vec![i as u32]);
                }
            }
        }
    }

    let labels = dbscan_with(&mut HammingIndex::build(&uniq_hashes, params.eps), params.min_pts);

    let uniq: Vec<(Dhash, &str)> = uniq_hashes
        .iter()
        .zip(&uniq_syms)
        .map(|(&d, &s)| (d, arena.resolve(s)))
        .collect();
    assemble_clusters(&uniq, &originals, &labels, params.theta_c)
}

/// Turns DBSCAN labels over *deduplicated* points into the final clusters
/// structure: groups by cluster id, elects the medoid representative,
/// maps unique points back to original indices, applies the θc filter and
/// the deterministic (size-descending, first-member) ordering.
///
/// `uniq[u]` is the `u`-th distinct `(dhash, e2LD)` pair in first-occurrence
/// order; `originals[u]` lists the original indices carrying it, ascending.
/// Shared by the batch path above and the incremental tracker
/// (`seacma-tracker`), so both produce structurally identical output for
/// identical labels — the exactness gate then reduces to label equality.
pub fn assemble_clusters(
    uniq: &[(Dhash, &str)],
    originals: &[Vec<u32>],
    labels: &[Label],
    theta_c: usize,
) -> ScreenshotClusters {
    let n_clusters = labels.iter().filter_map(|l| l.cluster_id()).max().map_or(0, |m| m + 1);
    let mut raw: Vec<Vec<usize>> = vec![Vec::new(); n_clusters]; // unique-point indices
    let mut noise = 0usize;
    for (u, label) in labels.iter().enumerate() {
        match label {
            Label::Cluster(id) => raw[*id].push(u),
            Label::Noise => noise += originals[u].len(),
        }
    }

    let mut campaigns = Vec::new();
    let mut filtered = Vec::new();
    for members_u in raw {
        let domains: BTreeSet<String> =
            members_u.iter().map(|&u| uniq[u].1.to_owned()).collect();
        // Representative: medoid by total Hamming distance among unique
        // members; ties break to the lowest unique-point index, so the
        // choice is a pure function of the member set.
        let rep_u = *members_u
            .iter()
            .min_by_key(|&&a| {
                let total: u64 = members_u
                    .iter()
                    .map(|&b| u64::from(crate::dhash::hamming(uniq[a].0, uniq[b].0)))
                    .sum();
                (total, a)
            })
            .expect("DBSCAN clusters are nonempty");
        let members: Vec<usize> =
            members_u.iter().flat_map(|&u| originals[u].iter().map(|&i| i as usize)).collect();
        let cluster = ScreenshotCluster {
            representative: originals[rep_u][0] as usize,
            members,
            domains,
        };
        if cluster.domain_count() >= theta_c {
            campaigns.push(cluster);
        } else {
            filtered.push(cluster);
        }
    }

    // Deterministic ordering: biggest campaigns first, then by first member.
    campaigns.sort_by_key(|c| (std::cmp::Reverse(c.len()), c.members[0]));
    filtered.sort_by_key(|c| (std::cmp::Reverse(c.len()), c.members[0]));

    ScreenshotClusters { campaigns, filtered, noise }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `count` near-duplicate hashes around `base` (flipping < 4 bits
    /// each) across `n_domains` distinct domains.
    fn synthetic_campaign(base: u128, count: usize, n_domains: usize, tag: &str) -> Vec<ScreenshotPoint> {
        (0..count)
            .map(|i| {
                let wiggle = 1u128 << (i % 3);
                ScreenshotPoint::new(Dhash(base ^ wiggle), format!("{tag}{}.xyz", i % n_domains))
            })
            .collect()
    }

    #[test]
    fn campaign_across_many_domains_survives() {
        let pts = synthetic_campaign(0xAAAA_BBBB_CCCC_DDDD, 20, 8, "evil");
        let out = cluster_screenshots(&pts, ClusterParams::default());
        assert_eq!(out.campaigns.len(), 1);
        assert_eq!(out.campaigns[0].domain_count(), 8);
        assert_eq!(out.campaigns[0].len(), 20);
        assert!(out.filtered.is_empty());
    }

    #[test]
    fn few_domain_cluster_is_filtered() {
        let pts = synthetic_campaign(0x1234_5678, 12, 2, "benign");
        let out = cluster_screenshots(&pts, ClusterParams::default());
        assert!(out.campaigns.is_empty());
        assert_eq!(out.filtered.len(), 1);
        assert_eq!(out.filtered[0].domain_count(), 2);
    }

    #[test]
    fn distinct_campaigns_do_not_merge() {
        // Two bases ~64 bits apart.
        let mut pts = synthetic_campaign(0, 10, 6, "a");
        pts.extend(synthetic_campaign(u128::MAX << 32, 10, 6, "b"));
        let out = cluster_screenshots(&pts, ClusterParams::default());
        assert_eq!(out.campaigns.len(), 2);
        for c in &out.campaigns {
            assert_eq!(c.len(), 10);
        }
    }

    #[test]
    fn isolated_screenshots_are_noise() {
        // Widely-spaced hashes (pairwise Hamming 32 > eps·128), min_pts = 3
        // → all noise.
        let pts: Vec<ScreenshotPoint> = (0..6)
            .map(|i| ScreenshotPoint::new(Dhash(0xFFFFu128 << (i * 20)), format!("d{i}.com")))
            .collect();
        let out = cluster_screenshots(&pts, ClusterParams::default());
        assert_eq!(out.total_clusters(), 0);
        assert_eq!(out.noise, 6);
    }

    #[test]
    fn duplicates_map_back_to_original_indices() {
        let mut pts = synthetic_campaign(0xFEED, 9, 6, "x");
        let dup = pts[0].clone();
        pts.push(dup); // exact duplicate of index 0
        let out = cluster_screenshots(&pts, ClusterParams::default());
        assert_eq!(out.campaigns.len(), 1);
        assert_eq!(out.campaigns[0].len(), 10, "duplicate must be counted");
        assert!(out.campaigns[0].members.contains(&9));
    }

    #[test]
    fn representative_is_a_member() {
        let pts = synthetic_campaign(0xDEAD_BEEF, 15, 7, "r");
        let out = cluster_screenshots(&pts, ClusterParams::default());
        let c = &out.campaigns[0];
        assert!(c.members.contains(&c.representative));
    }

    #[test]
    fn empty_input_ok() {
        let out = cluster_screenshots(&[], ClusterParams::default());
        assert_eq!(out.total_clusters(), 0);
        assert_eq!(out.noise, 0);
    }

    #[test]
    fn representative_ties_break_to_lowest_index() {
        // Four hashes at the corners of a Hamming square: every member has
        // the same total distance (1 + 1 + 2 = 4), so the medoid is a
        // four-way tie and the representative must be the lowest index.
        let hashes = [0u128, 0b01, 0b10, 0b11];
        let pts: Vec<ScreenshotPoint> = hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| ScreenshotPoint::new(Dhash(h), format!("tie{i}.com")))
            .collect();
        let params = ClusterParams { theta_c: 4, ..Default::default() };
        let out = cluster_screenshots(&pts, params);
        assert_eq!(out.campaigns.len(), 1);
        assert_eq!(out.campaigns[0].representative, 0, "tie must break to lowest index");

        // Same set reversed: the lowest *original index* now holds the
        // hash that used to be last — still index 0.
        let rev: Vec<ScreenshotPoint> = pts.iter().rev().cloned().collect();
        let out = cluster_screenshots(&rev, params);
        assert_eq!(out.campaigns[0].representative, 0);
    }

    #[test]
    fn sym_columns_match_string_path() {
        use seacma_util::forall;
        forall!(64, |g| {
            // Random mix of planted near-duplicates, noise and exact
            // duplicates over a small domain alphabet.
            let base = g.u128();
            let n = g.range(0, 60);
            let pts: Vec<ScreenshotPoint> = (0..n)
                .map(|_| {
                    let d = if g.bool(0.6) {
                        Dhash(base ^ (1u128 << g.range(0, 5)))
                    } else {
                        Dhash(g.u128())
                    };
                    ScreenshotPoint::new(d, format!("d{}.com", g.range(0, 7)))
                })
                .collect();
            let mut arena = SymbolArena::new();
            let dhashes: Vec<Dhash> = pts.iter().map(|p| p.dhash).collect();
            let e2lds: Vec<Sym> = pts.iter().map(|p| arena.intern(&p.e2ld)).collect();
            let by_string = cluster_screenshots(&pts, ClusterParams::default());
            let by_sym =
                cluster_sym_columns_parallel(&dhashes, &e2lds, &arena, ClusterParams::default(), 1);
            assert_eq!(by_sym, by_string);
        });
    }

    #[test]
    fn theta_c_boundary_is_inclusive() {
        let params = ClusterParams { theta_c: 5, ..Default::default() };
        let pts = synthetic_campaign(0xBEEF, 10, 5, "edge");
        let out = cluster_screenshots(&pts, params);
        assert_eq!(out.campaigns.len(), 1, "exactly theta_c domains must pass");
    }
}
impl_json_struct!(ScreenshotPoint { dhash, e2ld });
impl_json_struct!(ClusterParams { eps, min_pts, theta_c });
impl_json_struct!(ScreenshotCluster { members, domains, representative });
impl_json_struct!(ScreenshotClusters { campaigns, filtered, noise });
