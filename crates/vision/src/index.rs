//! Sub-quadratic Hamming-space neighbour index for 128-bit dhashes.
//!
//! The naive DBSCAN region query compares a point against all `n` others,
//! making clustering O(n²) distance evaluations — the regime the paper ran
//! offline over ~200k screenshots (§3.3). This module provides an **exact**
//! multi-index over Hamming space so a region query touches only candidate
//! points that *provably* could be within the radius.
//!
//! # The pigeonhole construction
//!
//! Fix an integer radius `r` (for DBSCAN over normalized Hamming distance,
//! `r = floor(eps · 128)`). Split the 128 hash bits into `B = r + 1`
//! disjoint contiguous bands. If two hashes `a` and `b` satisfy
//! `hamming(a, b) <= r`, their at most `r` differing bits fall into at most
//! `r` of the `B` bands — so **at least one band is bit-identical** between
//! `a` and `b` (pigeonhole). Bucketing every point by its exact value in
//! each band therefore makes the union of a query point's `B` buckets a
//! *complete* candidate superset of its `r`-ball. Each candidate is then
//! verified with the true 128-bit Hamming distance, so the neighbour set is
//! exact — [`dbscan_with`](crate::dbscan::dbscan_with) over this index
//! returns byte-identical labels to the naive path.
//!
//! Expected candidate volume per query on hashes without near-duplicate
//! structure is `B · n / 2^(128/B)` (each band has `128/B` bits), versus
//! `n` for the naive scan: at `eps = 0.1` (`B = 13`, ~9.8-bit bands) that
//! is roughly `n / 70`, and every candidate check is a single XOR+popcount
//! rather than a closure call. Near-duplicate *clusters* add their true
//! neighbours to the candidate list (up to once per band), which is
//! unavoidable — those are real results.

use std::collections::HashMap;

use crate::dbscan::RegionQuery;
use crate::dhash::{Dhash, HASH_BITS};

/// One band of the multi-index: a contiguous bit range and the bucket map
/// from exact band value to the (ascending) indices of points carrying it.
#[derive(Debug, Clone)]
struct Band {
    /// Right-shift that brings the band to bit 0.
    shift: u32,
    /// Mask of `width` low bits applied after the shift.
    mask: u128,
    /// The band's bits in word position (`mask << shift`): two hashes
    /// agree on this band iff `(a ^ b) & bits == 0`.
    bits: u128,
    /// Exact-band-value buckets; point indices ascend within each bucket.
    buckets: HashMap<u128, Vec<u32>>,
}

impl Band {
    #[inline]
    fn value_of(&self, h: Dhash) -> u128 {
        (h.0 >> self.shift) & self.mask
    }
}

/// Band layout for a given radius: `min(r + 1, 128)` contiguous bands
/// covering all 128 bits, widths differing by at most one bit.
fn band_layout(radius: u32) -> Vec<(u32, u128)> {
    let b = (radius + 1).min(HASH_BITS);
    let base = HASH_BITS / b;
    let rem = HASH_BITS % b;
    let mut layout = Vec::with_capacity(b as usize);
    let mut shift = 0u32;
    for i in 0..b {
        let width = base + u32::from(i < rem);
        let mask = if width >= 128 { u128::MAX } else { (1u128 << width) - 1 };
        layout.push((shift, mask));
        shift += width;
    }
    debug_assert_eq!(shift, HASH_BITS);
    layout
}

/// Converts a DBSCAN `eps` over *normalized* Hamming distance into the
/// equivalent integer bit radius: `hamming(a, b) / 128 <= eps` holds iff
/// `hamming(a, b) <= floor(eps · 128)`.
///
/// The conversion is exact in floating point: multiplying by 128 (a power
/// of two) never rounds, and integer bit distances are exactly
/// representable, so the indexed predicate matches the naive
/// `normalized_hamming(a, b) <= eps` bit for bit.
pub fn radius_for_eps(eps: f64) -> u32 {
    if eps <= 0.0 {
        return 0;
    }
    let r = (eps * f64::from(HASH_BITS)).floor();
    if r >= f64::from(HASH_BITS) {
        HASH_BITS
    } else {
        r as u32
    }
}

/// An exact Hamming-radius neighbour index over a fixed set of dhashes.
///
/// ```
/// use seacma_vision::dhash::Dhash;
/// use seacma_vision::index::HammingIndex;
///
/// let hashes = vec![Dhash(0), Dhash(0b111), Dhash(!0u128)];
/// let index = HammingIndex::build(&hashes, 0.1); // radius 12 bits
/// let mut out = Vec::new();
/// index.neighbours_into(0, &mut out);
/// assert_eq!(out, vec![0, 1]); // Dhash(!0) is 128 bits away
/// ```
#[derive(Debug, Clone)]
pub struct HammingIndex {
    hashes: Vec<Dhash>,
    radius: u32,
    bands: Vec<Band>,
}

impl HammingIndex {
    /// Builds the index over `hashes` for DBSCAN radius `eps` (normalized
    /// Hamming, as in [`ClusterParams::eps`](crate::cluster::ClusterParams)).
    pub fn build(hashes: &[Dhash], eps: f64) -> Self {
        Self::build_radius(hashes, radius_for_eps(eps))
    }

    /// Builds the index for an explicit integer bit radius rather than a
    /// normalized `eps` — the escalated-probe constructor the online
    /// detector uses to widen its near-miss ball a few bits past the
    /// clustering radius without going through a lossy float round trip.
    /// `radius` is clamped to 128; `build(h, eps)` is exactly
    /// `build_radius(h, radius_for_eps(eps))`.
    pub fn build_radius(hashes: &[Dhash], radius: u32) -> Self {
        let radius = radius.min(HASH_BITS);
        let bands = band_layout(radius)
            .into_iter()
            .map(|(shift, mask)| {
                let mut buckets: HashMap<u128, Vec<u32>> = HashMap::new();
                for (i, &h) in hashes.iter().enumerate() {
                    buckets.entry((h.0 >> shift) & mask).or_default().push(i as u32);
                }
                Band { shift, mask, bits: mask << shift, buckets }
            })
            .collect();
        HammingIndex { hashes: hashes.to_vec(), radius, bands }
    }

    /// Appends one hash to the index and returns its point index.
    ///
    /// The result is identical to rebuilding the index over the extended
    /// hash list: new indices are strictly larger than every existing one,
    /// so pushing onto the end of each band bucket preserves the ascending
    /// order [`HammingIndex::neighbours_into`] relies on. This is the
    /// primitive the incremental tracker's streaming DBSCAN is built on —
    /// O(B) bucket pushes per point instead of an O(n·B) rebuild.
    pub fn insert(&mut self, h: Dhash) -> usize {
        let i = self.hashes.len();
        self.hashes.push(h);
        for band in &mut self.bands {
            band.buckets.entry(band.value_of(h)).or_default().push(i as u32);
        }
        i
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The indexed hashes as one contiguous column, in point-index order.
    /// This is the struct-of-arrays dhash column the incremental tracker
    /// and the online detector scan directly, instead of keeping their
    /// own copy of every hash inside point structs.
    pub fn hashes(&self) -> &[Dhash] {
        &self.hashes
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The integer bit radius the index answers queries for.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Writes into `out` the ascending indices of every point within
    /// `radius` bits of point `p` (including `p` itself) — exactly the set
    /// the naive O(n) scan returns, in the same order.
    pub fn neighbours_into(&self, p: usize, out: &mut Vec<usize>) {
        self.neighbours_of_hash(self.hashes[p], out);
    }

    /// Writes into `out` the ascending indices of every indexed point
    /// within `radius` bits of an arbitrary **probe** hash `h` — the hash
    /// need not itself be indexed. This is the read-only query view the
    /// reputation daemon serves dhash lookups from: the pigeonhole
    /// argument is symmetric in the probe, so the candidate superset (the
    /// probe's `B` band buckets) is still complete and every candidate is
    /// verified with the true 128-bit distance.
    ///
    /// For an indexed `p`, `neighbours_of_hash(hash_of(p))` equals
    /// [`HammingIndex::neighbours_into`]`(p)` — same set, same order.
    pub fn neighbours_of_hash(&self, h: Dhash, out: &mut Vec<usize>) {
        self.neighbours_within(h, self.radius, out);
    }

    /// [`HammingIndex::neighbours_of_hash`] for a **smaller** ball: the
    /// ascending indices of every indexed point within `radius` bits of
    /// `h`, with `radius` clamped to the index's own. Bands laid out for
    /// the wider radius are a complete pigeonhole superset of any smaller
    /// ball — any `radius + 1` of them are — so the answer is exact, only
    /// that many buckets are visited, and a candidate outside `radius` is
    /// dropped at its popcount rather than emitted and filtered by the
    /// caller: how one escalated-radius index also answers the clustering
    /// radius.
    pub fn neighbours_within(&self, h: Dhash, radius: u32, out: &mut Vec<usize>) {
        let radius = radius.min(self.radius);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: `scan_popcnt` requires only that the running CPU
            // implements `popcnt`, which the CPUID-backed detection macro
            // on the line above has just reported.
            return unsafe { self.scan_popcnt(h, radius, out) };
        }
        self.scan(h, radius, out);
    }

    /// [`HammingIndex::scan`] compiled with the `popcnt` instruction, so
    /// the per-candidate `count_ones` is one instruction instead of the
    /// baseline x86-64 target's bit-twiddling sequence. Same body, same
    /// output.
    ///
    /// # Safety
    ///
    /// The running CPU must implement `popcnt`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn scan_popcnt(&self, h: Dhash, radius: u32, out: &mut Vec<usize>) {
        self.scan(h, radius, out);
    }

    /// The one region-scan body behind [`HammingIndex::neighbours_within`];
    /// `radius` must not exceed the index's own (the bands are complete
    /// only up to it). `#[inline(always)]` so each caller compiles its own
    /// copy under its own target features: the portable one, and
    /// [`HammingIndex::scan_popcnt`]'s.
    #[inline(always)]
    fn scan(&self, h: Dhash, radius: u32, out: &mut Vec<usize>) {
        debug_assert!(radius <= self.radius);
        out.clear();
        if radius >= HASH_BITS {
            out.extend(0..self.hashes.len());
            return;
        }
        // Verification is one XOR+popcount per candidate; a verified
        // neighbour is emitted only from its *first* matching band (a
        // neighbour matching band j also matches no earlier band iff the
        // diff word intersects bands 0..j), so each appears exactly once
        // and the final sort is over true neighbours, not candidates.
        // Any `radius + 1` bands are a complete candidate set for this
        // ball (at most `radius` of them can hold a differing bit), so a
        // ball narrower than the index's probes only the first that many
        // — the widest ones, see `band_layout`.
        for (j, band) in self.bands.iter().take(radius as usize + 1).enumerate() {
            if let Some(bucket) = band.buckets.get(&band.value_of(h)) {
                'candidates: for &q in bucket {
                    let diff = h.0 ^ self.hashes[q as usize].0;
                    if diff.count_ones() > radius {
                        continue;
                    }
                    for earlier in &self.bands[..j] {
                        if diff & earlier.bits == 0 {
                            continue 'candidates;
                        }
                    }
                    out.push(q as usize);
                }
            }
        }
        out.sort_unstable();
    }

    /// The nearest indexed point within `radius` bits of probe `h`, as
    /// `(point index, distance)` — ties break to the lowest point index,
    /// so the answer is a pure function of the indexed set. `None` when no
    /// indexed point is within the radius.
    pub fn nearest_of_hash(&self, h: Dhash, scratch: &mut Vec<usize>) -> Option<(usize, u32)> {
        self.neighbours_of_hash(h, scratch);
        scratch
            .iter()
            .map(|&q| (q, (h.0 ^ self.hashes[q].0).count_ones()))
            .min_by_key(|&(q, d)| (d, q))
            .map(|(q, d)| (q, d))
    }
}

impl RegionQuery for HammingIndex {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn region(&mut self, p: usize, out: &mut Vec<usize>) {
        self.neighbours_into(p, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dhash::hamming;

    fn brute(hashes: &[Dhash], p: usize, radius: u32) -> Vec<usize> {
        (0..hashes.len()).filter(|&q| hamming(hashes[p], hashes[q]) <= radius).collect()
    }

    #[test]
    fn radius_matches_naive_eps_threshold() {
        // eps = 0.1 over 128 bits: <= 12 differing bits is a neighbour,
        // 13 is not — the paper's setting.
        assert_eq!(radius_for_eps(0.1), 12);
        assert_eq!(radius_for_eps(0.05), 6);
        assert_eq!(radius_for_eps(0.2), 25);
        assert_eq!(radius_for_eps(0.0), 0);
        assert_eq!(radius_for_eps(1.0), 128);
        assert_eq!(radius_for_eps(7.5), 128);
    }

    #[test]
    fn band_layout_covers_all_bits_disjointly() {
        for radius in [0, 1, 5, 12, 25, 63, 127, 128, 200] {
            let layout = band_layout(radius);
            assert_eq!(layout.len() as u32, (radius + 1).min(HASH_BITS));
            let mut covered: u128 = 0;
            for &(shift, mask) in &layout {
                let band_bits = mask << shift;
                assert_eq!(covered & band_bits, 0, "bands overlap at radius {radius}");
                covered |= band_bits;
            }
            assert_eq!(covered, u128::MAX, "bands must cover all 128 bits");
        }
    }

    #[test]
    fn neighbours_match_brute_force() {
        use seacma_util::prop::Rng;
        let mut rng = Rng::new(0xB4BD);
        // Mixed corpus: random noise, a planted near-duplicate cluster, and
        // a ladder at every distance 3..=28 from the cluster's centre, so
        // each radius below has points just inside and just outside it.
        let mut hashes: Vec<Dhash> = (0..60).map(|_| Dhash(rng.u128())).collect();
        let base = rng.u128();
        for i in 0..20 {
            hashes.push(Dhash(base ^ (1u128 << (i % 7))));
        }
        for k in 3..=28 {
            hashes.push(Dhash(base ^ ((1u128 << k) - 1).rotate_left(5 * k)));
        }
        // The public query runs whichever `scan` instantiation the CPU
        // selects; driving the portable body directly keeps it covered on
        // machines that report `popcnt`. Every ball up to the index's own
        // radius is answered from the same bands.
        for eps in [0.0, 0.05, 0.1, 0.2] {
            let index = HammingIndex::build(&hashes, eps);
            let (mut out, mut portable) = (Vec::new(), Vec::new());
            for p in 0..hashes.len() {
                for r in 0..=index.radius() {
                    let want = brute(&hashes, p, r);
                    index.neighbours_within(hashes[p], r, &mut out);
                    assert_eq!(out, want, "dispatched, p={p} eps={eps} r={r}");
                    index.scan(hashes[p], r, &mut portable);
                    assert_eq!(portable, want, "portable scan, p={p} eps={eps} r={r}");
                }
                // The pigeonhole's tight case: `r` differing bits, one in
                // each of the first `r` bands, so only band `r` still agrees.
                for r in 1..=index.radius() {
                    let firsts = &index.bands[..r as usize];
                    let probe = Dhash(firsts.iter().fold(hashes[p].0, |h, b| h ^ 1 << b.shift));
                    let want: Vec<usize> =
                        (0..hashes.len()).filter(|&q| hamming(probe, hashes[q]) <= r).collect();
                    assert!(want.contains(&p));
                    index.neighbours_within(probe, r, &mut out);
                    assert_eq!(out, want, "one flip per band, p={p} eps={eps} r={r}");
                }
                index.neighbours_of_hash(hashes[p], &mut out);
                assert_eq!(out, portable, "own radius, p={p} eps={eps}");
                index.neighbours_within(hashes[p], index.radius() + 9, &mut out);
                assert_eq!(out, portable, "a wider request is clamped, p={p} eps={eps}");
            }
        }
    }

    #[test]
    fn exact_radius_boundary_pairs() {
        // Differing in exactly r bits ⇒ neighbours; r + 1 ⇒ not, even when
        // the flipped bits straddle band boundaries.
        let r = radius_for_eps(0.1);
        let at_radius = Dhash((1u128 << r) - 1); // r low bits set
        let over_radius = Dhash((1u128 << (r + 1)) - 1);
        let hashes = vec![Dhash(0), at_radius, over_radius];
        let index = HammingIndex::build(&hashes, 0.1);
        let mut out = Vec::new();
        index.neighbours_into(0, &mut out);
        assert_eq!(out, vec![0, 1]);
        index.neighbours_into(2, &mut out);
        assert_eq!(out, vec![1, 2], "over-radius point still neighbours the mid point");
    }

    #[test]
    fn full_radius_returns_everything() {
        let hashes = vec![Dhash(0), Dhash(u128::MAX), Dhash(42)];
        let index = HammingIndex::build(&hashes, 1.0);
        let mut out = Vec::new();
        for p in 0..3 {
            index.neighbours_into(p, &mut out);
            assert_eq!(out, vec![0, 1, 2]);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = HammingIndex::build(&[], 0.1);
        assert!(empty.is_empty());

        let one = HammingIndex::build(&[Dhash(7)], 0.1);
        assert_eq!(one.len(), 1);
        let mut out = Vec::new();
        one.neighbours_into(0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn probe_hash_queries_match_brute_force() {
        use seacma_util::prop::Rng;
        let mut rng = Rng::new(0xD0_5EAC);
        let base = rng.u128();
        let hashes: Vec<Dhash> = (0..70)
            .map(|i| {
                if i % 2 == 0 {
                    Dhash(base ^ (1u128 << (i % 11)))
                } else {
                    Dhash(rng.u128())
                }
            })
            .collect();
        let index = HammingIndex::build(&hashes, 0.1);
        let mut out = Vec::new();
        // Probes that are NOT in the index: near the planted cluster,
        // random, and exactly at the radius boundary of a known point.
        let mut probes = vec![Dhash(base ^ 3), Dhash(rng.u128())];
        probes.push(Dhash(hashes[0].0 ^ ((1u128 << index.radius()) - 1)));
        probes.push(Dhash(hashes[0].0 ^ ((1u128 << (index.radius() + 1)) - 1)));
        for h in probes {
            index.neighbours_of_hash(h, &mut out);
            let brute: Vec<usize> = (0..hashes.len())
                .filter(|&q| hamming(h, hashes[q]) <= index.radius())
                .collect();
            assert_eq!(out, brute, "probe {h:?}");
            let nearest = index.nearest_of_hash(h, &mut out);
            let brute_nearest = (0..hashes.len())
                .map(|q| (q, hamming(h, hashes[q])))
                .filter(|&(_, d)| d <= index.radius())
                .min_by_key(|&(q, d)| (d, q));
            assert_eq!(nearest, brute_nearest, "nearest for probe {h:?}");
        }
        // For indexed points, the probe path equals the by-index path.
        let mut by_index = Vec::new();
        for p in 0..hashes.len() {
            index.neighbours_into(p, &mut by_index);
            index.neighbours_of_hash(hashes[p], &mut out);
            assert_eq!(out, by_index, "p={p}");
        }
    }

    #[test]
    fn insert_matches_rebuild() {
        use seacma_util::prop::Rng;
        let mut rng = Rng::new(0x1A5E);
        let base = rng.u128();
        // Noise plus a planted near-duplicate cluster, arriving one by one.
        let hashes: Vec<Dhash> = (0..80)
            .map(|i| {
                if i % 3 == 0 {
                    Dhash(base ^ (1u128 << (i % 9)))
                } else {
                    Dhash(rng.u128())
                }
            })
            .collect();
        for eps in [0.0, 0.1, 1.0] {
            let mut grown = HammingIndex::build(&[], eps);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for n in 0..hashes.len() {
                assert_eq!(grown.insert(hashes[n]), n);
                let rebuilt = HammingIndex::build(&hashes[..=n], eps);
                for p in 0..=n {
                    grown.neighbours_into(p, &mut a);
                    rebuilt.neighbours_into(p, &mut b);
                    assert_eq!(a, b, "insert diverged from rebuild at n={n} p={p} eps={eps}");
                }
            }
        }
    }
}
