//! The three-stage online detector.
//!
//! Stage 1 — **seen campaign**: probe the banded
//! [`HammingIndex`] at the clustering radius (`eps`, same as DBSCAN). A
//! hit on a campaign-assigned point is the strongest possible verdict:
//! the screenshot is a near-duplicate of a tracked creative.
//!
//! Stage 2 — **near miss**: the *same* probe answers an escalated radius
//! a few bits wider. This catches new creative variants of known
//! campaigns (the SENet observation that campaigns drift visually faster
//! than blocklists refresh).
//!
//! Stage 3 — **never-seen campaign**: no indexed point is close enough,
//! so only the structural tells can speak. The deterministic
//! [`PageSignals::score`](crate::PageSignals::score) against a fixed threshold separates
//! `Suspicious` from `Benign`.
//!
//! # The shared two-radius probe
//!
//! Stages 1 and 2 share **one** banded index, built at the escalated
//! radius, and **one** candidate sweep per query. The escalated ball is a
//! superset of the base ball, so the minimum `(distance, point index)`
//! over campaign-assigned candidates answers both stages at once: a
//! minimum within the base radius is exactly what a dedicated tight probe
//! would have picked (a superset minimum that lands in the subset *is*
//! the subset minimum), and a base miss means no assigned point sits
//! within the base radius at all, so the same minimum is the escalated
//! answer. This halves index build time and memory, and the near-miss and
//! miss paths — the ones production traffic actually consists of — stop
//! paying two probes. The answer remains "nearest campaign-assigned
//! point, ties to the lowest point index" — a pure function of the
//! indexed column, which is what makes the naive-scan oracle (and
//! therefore the byte-identity harness) possible; exactness against
//! [`oracle::linear_verdict`](crate::oracle::linear_verdict) is pinned by
//! the forall suite.

use seacma_util::impl_json_enum;
use seacma_vision::dhash::Dhash;
use seacma_vision::index::{radius_for_eps, HammingIndex};

use crate::feature::PageObservation;

/// Detector tuning. All three knobs are part of the verdict contract:
/// the oracle takes the same config and must agree byte for byte.
///
/// ```
/// use seacma_detect::DetectorConfig;
///
/// let c = DetectorConfig::default();
/// assert_eq!(c.base_radius(), 12);      // eps 0.1 over 128 bits
/// assert_eq!(c.escalated_radius(), 16); // + 4 bits of generalization
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Clustering radius as normalized Hamming distance — keep equal to
    /// the tracker's DBSCAN `eps` so a `Campaign` verdict means "would
    /// have joined this cluster".
    pub eps: f64,
    /// Extra bits of radius for the near-miss probe.
    pub escalation_bits: u32,
    /// Minimum [`PageSignals::score`](crate::PageSignals::score) for a `Suspicious` verdict on an
    /// index miss.
    pub feature_threshold: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { eps: 0.1, escalation_bits: 4, feature_threshold: 4 }
    }
}

impl DetectorConfig {
    /// Default knobs over an explicit clustering radius (the daemon passes
    /// the tracker's own `eps` so verdicts agree with cluster membership).
    pub fn for_eps(eps: f64) -> Self {
        DetectorConfig { eps, ..DetectorConfig::default() }
    }

    /// Stage-1 integer bit radius: `floor(eps · 128)`.
    pub fn base_radius(&self) -> u32 {
        radius_for_eps(self.eps)
    }

    /// Stage-2 integer bit radius, clamped to 128.
    pub fn escalated_radius(&self) -> u32 {
        (self.base_radius() + self.escalation_bits).min(128)
    }
}

/// The scored answer for one page load.
///
/// `campaign` ids are the tracker ledger's stable campaign ids;
/// `distance` is the exact Hamming distance to the matched point; every
/// variant carries the structural `score` so downstream policy can
/// combine visual and structural evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Near-duplicate of a tracked campaign creative (within `eps`).
    Campaign {
        /// Matched ledger campaign id.
        campaign: u32,
        /// Hamming distance to the matched point.
        distance: u32,
        /// Structural feature score of the observation.
        score: u32,
    },
    /// Within the escalated radius of a tracked campaign — a likely new
    /// creative variant.
    NearCampaign {
        /// Matched ledger campaign id.
        campaign: u32,
        /// Hamming distance to the matched point.
        distance: u32,
        /// Structural feature score of the observation.
        score: u32,
    },
    /// No visual match, but the structural score clears the threshold —
    /// the never-seen-campaign path.
    Suspicious {
        /// Structural feature score of the observation.
        score: u32,
    },
    /// No visual match and an unremarkable structure.
    Benign {
        /// Structural feature score of the observation.
        score: u32,
    },
}

impl Verdict {
    /// Stable verdict-kind name, the bucketing key benches and counters
    /// use: `"campaign"`, `"near_campaign"`, `"suspicious"`, `"benign"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Campaign { .. } => "campaign",
            Verdict::NearCampaign { .. } => "near_campaign",
            Verdict::Suspicious { .. } => "suspicious",
            Verdict::Benign { .. } => "benign",
        }
    }

    /// Whether the verdict flags the load (everything except `Benign`).
    pub fn flagged(&self) -> bool {
        !matches!(self, Verdict::Benign { .. })
    }
}

/// The online detector: one exact Hamming index (at the escalated
/// radius) over a frozen point column plus that column's campaign
/// assignments; the base-radius verdict falls out of the same probe.
///
/// ```
/// use seacma_detect::{Detector, DetectorConfig, PageObservation, PageSignals};
/// use seacma_vision::dhash::Dhash;
///
/// let hashes = vec![Dhash(0), Dhash(!0u128)];
/// let assign = vec![Some(7), None];
/// let d = Detector::from_columns(&hashes, &assign, DetectorConfig::default());
/// let obs = PageObservation { dhash: Dhash(0b11), signals: PageSignals::default() };
/// assert_eq!(d.detect(&obs).kind(), "campaign"); // 2 bits from point 0
/// ```
#[derive(Debug, Clone)]
pub struct Detector {
    index: HammingIndex,
    assignments: Vec<Option<u32>>,
    config: DetectorConfig,
}

impl Detector {
    /// Builds the detector over the tracker's struct-of-arrays columns:
    /// the dhash column (point-index order) and the ledger's campaign
    /// assignment per point. `assignments` may be shorter than `hashes`
    /// when points arrived mid-epoch and have not been clustered yet;
    /// missing tails are unassigned.
    pub fn from_columns(
        hashes: &[Dhash],
        assignments: &[Option<u32>],
        config: DetectorConfig,
    ) -> Self {
        let index = HammingIndex::build_radius(hashes, config.escalated_radius());
        Self::over(index, assignments, config)
    }

    /// The detector for a column that **extends** the one `self` indexes:
    /// `self`'s index is cloned and only `hashes[self.len()..]` is
    /// inserted — O(new points) bucket pushes plus one index clone, instead
    /// of re-hashing every point into every band.
    /// [`HammingIndex::insert`] yields the structure a rebuild would, so
    /// the result probes exactly like
    /// [`Detector::from_columns`]`(hashes, assignments, config)`.
    ///
    /// That only holds when `self`'s hash column is a prefix of `hashes`
    /// and `config` is the one `self` was built with; both are checked
    /// (one slice compare), and anything else — a foreign detector, a
    /// shrunken column, a changed radius — takes the from-scratch path.
    pub fn carried_forward(
        &self,
        hashes: &[Dhash],
        assignments: &[Option<u32>],
        config: DetectorConfig,
    ) -> Self {
        if self.config != config || !hashes.starts_with(self.index.hashes()) {
            return Self::from_columns(hashes, assignments, config);
        }
        let mut index = self.index.clone();
        for &h in &hashes[self.index.len()..] {
            index.insert(h);
        }
        Self::over(index, assignments, config)
    }

    /// Pads `assignments` to the indexed column and freezes the parts.
    fn over(index: HammingIndex, assignments: &[Option<u32>], config: DetectorConfig) -> Self {
        let mut assignments = assignments.to_vec();
        assignments.resize(index.len(), None);
        Detector { index, assignments, config }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the detector indexes no points.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The tuning the detector was built with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The indexed dhash column, in point-index order.
    pub fn hashes(&self) -> &[Dhash] {
        self.index.hashes()
    }

    /// The campaign assignment column, parallel to
    /// [`Detector::hashes`] (padded to its length).
    pub fn assignments(&self) -> &[Option<u32>] {
        &self.assignments
    }

    /// Scores one observation. Allocates a scratch buffer; the serving
    /// path uses [`Detector::detect_with`] to reuse one.
    pub fn detect(&self, obs: &PageObservation) -> Verdict {
        let mut scratch = Vec::new();
        self.detect_with(obs, &mut scratch)
    }

    /// Scores one observation using a caller-owned scratch buffer —
    /// allocation-free once the buffer has grown to the candidate volume.
    pub fn detect_with(&self, obs: &PageObservation, scratch: &mut Vec<usize>) -> Verdict {
        let score = obs.signals.score();
        // One escalated-radius probe answers stages 1 and 2 together (see
        // module docs): the classifying threshold is applied to the single
        // minimum afterwards, not baked into the candidate sweep.
        if let Some((campaign, distance)) =
            self.nearest_assigned(obs.dhash, &self.assignments, self.index.radius(), scratch)
        {
            return if distance <= self.config.base_radius() {
                Verdict::Campaign { campaign, distance, score }
            } else {
                Verdict::NearCampaign { campaign, distance, score }
            };
        }
        if score >= self.config.feature_threshold {
            Verdict::Suspicious { score }
        } else {
            Verdict::Benign { score }
        }
    }

    /// The nearest indexed point within `radius` bits of `h` that
    /// `assignments` gives a campaign, as `(campaign id, distance)`.
    /// `assignments` is parallel to [`Detector::hashes`] — the detector's
    /// own θc-qualified column for a verdict, or a caller's (the daemon
    /// snapshot's full ledger column, for `dhash` queries); `radius` is
    /// clamped to the escalated radius the index was built for. Ties break
    /// by `(distance, point index)` exactly like the oracle's full scan, so
    /// both implementations pick the same point — not merely the same
    /// distance.
    pub fn nearest_assigned(
        &self,
        h: Dhash,
        assignments: &[Option<u32>],
        radius: u32,
        scratch: &mut Vec<usize>,
    ) -> Option<(u32, u32)> {
        self.index.neighbours_within(h, radius, scratch);
        scratch
            .iter()
            .filter_map(|&q| {
                assignments[q].map(|id| ((h.0 ^ self.index.hashes()[q].0).count_ones(), q, id))
            })
            .min_by_key(|&(d, q, _)| (d, q))
            .map(|(d, _, id)| (id, d))
    }
}

impl_json_enum!(Verdict {
    Campaign { campaign: u32, distance: u32, score: u32 },
    NearCampaign { campaign: u32, distance: u32, score: u32 },
    Suspicious { score: u32 },
    Benign { score: u32 },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::PageSignals;

    fn obs(h: u128) -> PageObservation {
        PageObservation { dhash: Dhash(h), signals: PageSignals::default() }
    }

    fn scored(h: u128, signals: PageSignals) -> PageObservation {
        PageObservation { dhash: Dhash(h), signals }
    }

    #[test]
    fn stages_escalate_in_order() {
        let hashes = vec![Dhash(0), Dhash(1u128 << 90)];
        let assign = vec![Some(3), Some(4)];
        let d = Detector::from_columns(&hashes, &assign, DetectorConfig::default());
        // 2 bits away: stage 1.
        assert_eq!(
            d.detect(&obs(0b11)),
            Verdict::Campaign { campaign: 3, distance: 2, score: 0 }
        );
        // 14 bits away: outside eps (12), inside escalation (16): stage 2.
        let near = (1u128 << 14) - 1;
        assert_eq!(
            d.detect(&obs(near)),
            Verdict::NearCampaign { campaign: 3, distance: 14, score: 0 }
        );
        // 20 bits away with a hot structural score: stage 3.
        let far = (1u128 << 20) - 1;
        let hot = PageSignals { scam_phone: true, locking: true, ..PageSignals::default() };
        assert_eq!(d.detect(&scored(far, hot)), Verdict::Suspicious { score: 4 });
        assert_eq!(d.detect(&obs(far)), Verdict::Benign { score: 0 });
    }

    #[test]
    fn unassigned_points_never_match() {
        let hashes = vec![Dhash(0)];
        let d = Detector::from_columns(&hashes, &[None], DetectorConfig::default());
        assert_eq!(d.detect(&obs(0)), Verdict::Benign { score: 0 });
        // Short assignment columns pad with None.
        let d = Detector::from_columns(&hashes, &[], DetectorConfig::default());
        assert_eq!(d.detect(&obs(0)), Verdict::Benign { score: 0 });
        assert_eq!(d.assignments().len(), 1);
    }

    #[test]
    fn carried_forward_equals_scratch_build_and_rebuilds_on_a_foreign_prefix() {
        let config = DetectorConfig::default();
        let hashes: Vec<Dhash> =
            (0..40u32).map(|i| Dhash((u128::from(i / 4) << 100) ^ (1u128 << (i % 4)))).collect();
        let assign: Vec<Option<u32>> = (0..40u32).map(|i| (i % 3 != 0).then_some(i / 4)).collect();
        let scratch = Detector::from_columns(&hashes, &assign, config);
        // Near every point, far from all, and 18 bits off an assigned one:
        // a miss at the escalated radius (16), a hit on a wider index.
        let outside = obs(hashes[1].0 ^ (((1u128 << 18) - 1) << 20));
        assert_eq!(scratch.detect(&outside).kind(), "benign");
        let probes: Vec<PageObservation> =
            hashes.iter().map(|h| obs(h.0 ^ 0b11)).chain([obs(0), obs(!0), outside]).collect();
        let same = |d: &Detector| {
            assert_eq!(d.hashes(), scratch.hashes());
            assert_eq!(d.assignments(), scratch.assignments());
            for p in &probes {
                assert_eq!(d.detect(p), scratch.detect(p));
            }
        };
        // Prefixes of every length, including empty and the whole column
        // (an epoch that added nothing), with stale prefix assignments.
        for cut in [0, 1, 17, 40] {
            let prev = Detector::from_columns(&hashes[..cut], &[], config);
            same(&prev.carried_forward(&hashes, &assign, config));
        }
        // Not a prefix: one differing hash, a longer column, another radius.
        let mut foreign = hashes[..17].to_vec();
        foreign[5] = Dhash(0xDEAD);
        let carry = |prev: Detector| prev.carried_forward(&hashes, &assign, config);
        same(&carry(Detector::from_columns(&foreign, &[], config)));
        let longer: Vec<Dhash> = hashes.iter().copied().chain([Dhash(7)]).collect();
        same(&carry(Detector::from_columns(&longer, &[], config)));
        let wide = DetectorConfig { escalation_bits: 8, ..config };
        same(&carry(Detector::from_columns(&hashes[..17], &[], wide)));
    }

    #[test]
    fn tie_breaks_to_lowest_point_index() {
        // Two assigned points at equal distance 1 from the probe; the
        // lower point index (campaign 9) must win deterministically.
        let hashes = vec![Dhash(0b01), Dhash(0b10)];
        let assign = vec![Some(9), Some(5)];
        let d = Detector::from_columns(&hashes, &assign, DetectorConfig::default());
        assert_eq!(d.detect(&obs(0)), Verdict::Campaign { campaign: 9, distance: 1, score: 0 });
    }

    #[test]
    fn verdict_json_roundtrip_and_kinds() {
        use seacma_util::json;
        let vs = [
            Verdict::Campaign { campaign: 1, distance: 2, score: 3 },
            Verdict::NearCampaign { campaign: 4, distance: 15, score: 0 },
            Verdict::Suspicious { score: 6 },
            Verdict::Benign { score: 1 },
        ];
        let kinds: Vec<&str> = vs.iter().map(Verdict::kind).collect();
        assert_eq!(kinds, ["campaign", "near_campaign", "suspicious", "benign"]);
        for v in vs {
            let back: Verdict = json::from_str(&json::to_string(&v)).unwrap();
            assert_eq!(back, v);
            assert_eq!(v.flagged(), v.kind() != "benign");
        }
    }
}
