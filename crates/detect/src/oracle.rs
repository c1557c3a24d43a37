//! The two-implementation oracle: a naive linear scan with the same
//! verdict contract as the indexed [`Detector`](crate::Detector).
//!
//! The exactness harness ("forall insertion orders, snapshot/resume:
//! verdicts are byte-identical") is only meaningful if
//! the reference implementation shares *no* code with the thing under
//! test beyond the scoring weights. This scan touches every point with a
//! plain XOR+popcount, picks the nearest campaign-assigned one with the
//! `(distance, point index)` tie-break, and classifies by the same radii
//! — so any banding, dedup or escalation bug in the indexed path shows up
//! as a verdict diff, not a silent agreement.

use seacma_vision::dhash::Dhash;

use crate::detector::{DetectorConfig, Verdict};
use crate::feature::PageObservation;

/// Scores `obs` against the raw columns by exhaustive scan. Byte-for-byte
/// equal to [`Detector::detect`](crate::Detector::detect) over the same
/// columns and config — the exactness gate the forall suite
/// (`tests/detect_exactness.rs`) and the benchmark's serve workloads enforce.
///
/// ```
/// use seacma_detect::oracle::linear_verdict;
/// use seacma_detect::{Detector, DetectorConfig, PageObservation, PageSignals};
/// use seacma_vision::dhash::Dhash;
///
/// let hashes = vec![Dhash(0), Dhash(!0u128)];
/// let assign = vec![Some(1), Some(2)];
/// let cfg = DetectorConfig::default();
/// let obs = PageObservation { dhash: Dhash(7), signals: PageSignals::default() };
/// let indexed = Detector::from_columns(&hashes, &assign, cfg).detect(&obs);
/// assert_eq!(linear_verdict(&hashes, &assign, &cfg, &obs), indexed);
/// ```
pub fn linear_verdict(
    hashes: &[Dhash],
    assignments: &[Option<u32>],
    config: &DetectorConfig,
    obs: &PageObservation,
) -> Verdict {
    let score = obs.signals.score();
    let nearest = hashes
        .iter()
        .enumerate()
        .filter_map(|(q, h)| {
            assignments
                .get(q)
                .copied()
                .flatten()
                .map(|id| ((obs.dhash.0 ^ h.0).count_ones(), q, id))
        })
        .min_by_key(|&(d, q, _)| (d, q));
    match nearest {
        Some((distance, _, campaign)) if distance <= config.base_radius() => {
            Verdict::Campaign { campaign, distance, score }
        }
        Some((distance, _, campaign)) if distance <= config.escalated_radius() => {
            Verdict::NearCampaign { campaign, distance, score }
        }
        _ if score >= config.feature_threshold => Verdict::Suspicious { score },
        _ => Verdict::Benign { score },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, PageSignals};
    use seacma_util::prop::Rng;

    #[test]
    fn oracle_matches_indexed_detector_on_random_columns() {
        let mut rng = Rng::new(0x04AC1E);
        for _ in 0..5 {
            let base = rng.u128();
            let n = rng.range(0, 300);
            let hashes: Vec<Dhash> = (0..n)
                .map(|i| {
                    if rng.bool(0.5) {
                        Dhash(base ^ (1u128 << (i % 23)))
                    } else {
                        Dhash(rng.u128())
                    }
                })
                .collect();
            let assign: Vec<Option<u32>> = (0..n)
                .map(|_| if rng.bool(0.6) { Some(rng.below(6) as u32) } else { None })
                .collect();
            let cfg = DetectorConfig::default();
            let d = Detector::from_columns(&hashes, &assign, cfg);
            for _ in 0..100 {
                let flips = rng.below(30) as u32;
                let mut h = base;
                for _ in 0..flips {
                    h ^= 1u128 << rng.below(128);
                }
                let obs = PageObservation {
                    dhash: Dhash(h),
                    signals: PageSignals {
                        scam_phone: rng.bool(0.3),
                        survey_gateway: rng.bool(0.3),
                        redirect_hops: rng.below(6) as u32,
                        ..PageSignals::default()
                    },
                };
                assert_eq!(linear_verdict(&hashes, &assign, &cfg, &obs), d.detect(&obs));
            }
        }
    }
}
