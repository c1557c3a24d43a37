//! Generated inputs: every world seed, corpus and probe pool derives from
//! the run's `--seed`, so the same seed gives byte-identical inputs and
//! the program under test receives nothing else.

use seacma_daemon::{ReputationSnapshot, UrlVerdict};
use seacma_detect::{PageObservation, PageSignals};
use seacma_util::prop::Rng;
use seacma_vision::cluster::ScreenshotPoint;
use seacma_vision::dhash::Dhash;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x5EAC_0011;

/// Probes per query kind.
pub const POOL: usize = 1024;

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_INIT`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// An independent seed for input stream `stream`, item `index`, of a run:
/// FNV-1a of the three, finished with the splitmix64 mixer so nearby run
/// seeds give unrelated streams.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let mut z = fnv1a(
        fnv1a(fnv1a(FNV_INIT, &seed.to_le_bytes()), stream.as_bytes()),
        &index.to_le_bytes(),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The milking-feed-shaped corpus of `tracker_scaling`/`query_scaling`:
/// one campaign template per 150 points, 80 % near-duplicates (≤ 3
/// flipped bits) on 12 rotating e2LDs per campaign, 20 % uniform noise.
pub fn synth(n: usize, seed: u64) -> Vec<ScreenshotPoint> {
    let mut rng = Rng::new(seed);
    let centers: Vec<u128> = (0..(n / 150).max(1)).map(|_| rng.u128()).collect();
    (0..n)
        .map(|i| {
            if rng.bool(0.8) {
                let c = rng.below(centers.len() as u64) as usize;
                let mut h = centers[c];
                for _ in 0..rng.below(4) {
                    h ^= 1u128 << rng.below(128);
                }
                ScreenshotPoint::new(Dhash(h), format!("c{c}-{}.club", rng.below(12)))
            } else {
                ScreenshotPoint::new(Dhash(rng.u128()), format!("noise{i}.info"))
            }
        })
        .collect()
}

/// `n` next-epoch points for a daemon that already holds `resident`: the
/// same 80/20 shape as [`synth`], with the near-duplicates taken around
/// resident points (on their own e2LDs) instead of synthetic centres.
pub fn fresh_around(resident: &[ScreenshotPoint], n: usize, seed: u64) -> Vec<ScreenshotPoint> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            if !resident.is_empty() && rng.bool(0.8) {
                let p = rng.pick(resident);
                let mut h = p.dhash.0;
                for _ in 0..rng.below(4) {
                    h ^= 1u128 << rng.below(128);
                }
                ScreenshotPoint::new(Dhash(h), p.e2ld.clone())
            } else {
                ScreenshotPoint::new(
                    Dhash(rng.u128()),
                    format!("fresh{i}-{}.info", rng.below(1 << 20)),
                )
            }
        })
        .collect()
}

/// The probe pools of the nine query kinds, each verified against the
/// snapshot it was built from to answer in its class.
#[derive(Debug, Clone)]
pub struct Pools {
    pub url_hit: Vec<String>,
    pub url_miss: Vec<String>,
    pub dhash_near: Vec<Dhash>,
    pub dhash_far: Vec<Dhash>,
    /// Ledger ids that exist (records are only ever appended).
    pub campaign_ids: Vec<u32>,
    pub campaign_hit: Vec<PageObservation>,
    pub near_campaign: Vec<PageObservation>,
    pub suspicious: Vec<PageObservation>,
    pub benign: Vec<PageObservation>,
}

/// Draws from `make` until [`POOL`] probes pass `keep`.
fn fill<T>(
    name: &str,
    rng: &mut Rng,
    mut make: impl FnMut(&mut Rng) -> T,
    keep: impl Fn(&T) -> bool,
) -> Vec<T> {
    let mut out = Vec::with_capacity(POOL);
    for _ in 0..200 * POOL {
        if out.len() == POOL {
            break;
        }
        let probe = make(rng);
        if keep(&probe) {
            out.push(probe);
        }
    }
    assert!(
        !out.is_empty(),
        "no {name} probe answers in its class on this snapshot"
    );
    out
}

impl Pools {
    /// Builds the pools for `snap` (names as in `BENCH_query.json` and
    /// `BENCH_detect.json`; constructions as in those benches).
    pub fn build(snap: &ReputationSnapshot, seed: u64) -> Pools {
        let mut rng = Rng::new(seed);
        let det = snap.detector();
        let assigned: Vec<Dhash> = det
            .hashes()
            .iter()
            .zip(det.assignments())
            .filter(|(_, a)| a.is_some())
            .map(|(&h, _)| h)
            .collect();
        assert!(
            !assigned.is_empty(),
            "no campaign-assigned point to probe around"
        );
        let tracked: Vec<&String> = snap.statuses().iter().flat_map(|s| &s.domains).collect();
        assert!(!tracked.is_empty(), "no tracked domain to probe");
        let base = det.config().base_radius();
        let strong = PageSignals {
            scam_phone: true,
            survey_gateway: true,
            ..PageSignals::default()
        };
        let plain = PageSignals::default();
        let kind = |want: &'static str| move |o: &PageObservation| snap.detect(o).kind() == want;

        let mut miss = 0u32;
        Pools {
            url_hit: fill(
                "url_hit",
                &mut rng,
                |r| format!("http://www.{}/lp?x=1", r.pick(&tracked)),
                |u| snap.lookup_url(u) != UrlVerdict::Unknown,
            ),
            url_miss: fill(
                "url_miss",
                &mut rng,
                |_| {
                    miss += 1;
                    format!("http://never{miss}.example/download")
                },
                |u| snap.lookup_url(u) == UrlVerdict::Unknown,
            ),
            dhash_near: fill(
                "dhash_near",
                &mut rng,
                |r| Dhash(r.pick(&assigned).0 ^ (1u128 << r.below(128))),
                |&h| snap.nearest_campaign(h).is_some(),
            ),
            dhash_far: fill(
                "dhash_far",
                &mut rng,
                |r| Dhash(r.u128()),
                |&h| snap.nearest_campaign(h).is_none(),
            ),
            campaign_ids: (0..snap.statuses().len().max(1) as u32)
                .take(POOL)
                .collect(),
            // A 1-bit perturbation of an indexed campaign page: the
            // page-load a milking URL or a re-crawl would produce.
            campaign_hit: fill(
                "campaign_hit",
                &mut rng,
                |r| PageObservation {
                    dhash: Dhash(r.pick(&assigned).0 ^ (1u128 << r.below(128))),
                    signals: plain,
                },
                kind("campaign"),
            ),
            // base+2 bits flipped: outside the base ball, inside the
            // escalated one unless another assigned point is closer.
            near_campaign: fill(
                "near_campaign",
                &mut rng,
                |r| {
                    let mut h = r.pick(&assigned).0;
                    let first = r.below(128) as u32;
                    for b in 0..base + 2 {
                        h ^= 1u128 << ((first + b) % 128);
                    }
                    PageObservation {
                        dhash: Dhash(h),
                        signals: plain,
                    }
                },
                kind("near_campaign"),
            ),
            suspicious: fill(
                "suspicious",
                &mut rng,
                |r| PageObservation {
                    dhash: Dhash(r.u128()),
                    signals: strong,
                },
                kind("suspicious"),
            ),
            benign: fill(
                "benign",
                &mut rng,
                |r| PageObservation {
                    dhash: Dhash(r.u128()),
                    signals: plain,
                },
                kind("benign"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_util::json;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let bytes = |seed| json::to_string(&synth(2_000, derive(seed, "corpus", 0)));
        assert_eq!(bytes(DEFAULT_SEED), bytes(DEFAULT_SEED));
        assert_ne!(bytes(DEFAULT_SEED), bytes(DEFAULT_SEED + 1));
        let resident = synth(500, 1);
        assert_eq!(
            json::to_string(&fresh_around(&resident, 300, 9)),
            json::to_string(&fresh_around(&resident, 300, 9))
        );
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let worlds: Vec<u64> = (0..3).map(|i| derive(DEFAULT_SEED, "world", i)).collect();
        assert_eq!(
            worlds,
            (0..3)
                .map(|i| derive(DEFAULT_SEED, "world", i))
                .collect::<Vec<_>>()
        );
        assert!(worlds[0] != worlds[1] && worlds[1] != worlds[2] && worlds[0] != worlds[2]);
        assert_ne!(
            derive(DEFAULT_SEED, "world", 0),
            derive(DEFAULT_SEED, "corpus", 0)
        );
        assert_ne!(
            derive(DEFAULT_SEED, "world", 0),
            derive(DEFAULT_SEED + 1, "world", 0)
        );
        // Pinned: a changed derivation silently changes every workload's inputs.
        assert_eq!(fnv1a(FNV_INIT, b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
