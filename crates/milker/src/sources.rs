//! Milking-source validation (the "small pilot experiment" of §4.2).
//!
//! A milkable candidate extracted from a backtracking graph is only useful
//! if re-visiting it independently — without the publisher page or the ad
//! network — still lands on the same campaign's attack content. Validation
//! re-visits each `(URL, UA)` candidate and compares the landing
//! screenshot's dhash against the campaign's visual representative.

use seacma_browser::{BrowserConfig, BrowserSession, RenderCache};
use seacma_simweb::{SimTime, UaProfile, Url, Vantage, World};
use seacma_vision::dhash::{hamming, Dhash};

/// Maximum dhash distance for a milked landing to count as "the same SE
/// attack" (the DBSCAN eps ball: 0.1 × 128 bits).
pub const MATCH_THRESHOLD: u32 = 12;

/// A candidate upstream URL, paired with the UA that originally elicited
/// it and the visual representative of its campaign cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MilkingCandidate {
    /// The upstream URL to re-visit.
    pub url: Url,
    /// UA to milk with (campaigns are platform-targeted).
    pub ua: UaProfile,
    /// Index of the campaign cluster this candidate came from.
    pub cluster: usize,
    /// dhash of the cluster's representative screenshot.
    pub reference: Dhash,
}

/// A validated milking source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MilkingSource {
    /// The upstream URL.
    pub url: Url,
    /// UA to milk with.
    pub ua: UaProfile,
    /// Campaign cluster the source tracks.
    pub cluster: usize,
    /// Visual reference for match checks during milking.
    pub reference: Dhash,
}

/// Validates candidates by re-visiting each one and checking that the
/// landing still shows the campaign's attack. Returns the surviving
/// sources, deduplicated by `(url, ua)`.
pub fn validate_candidates(
    world: &World,
    candidates: Vec<MilkingCandidate>,
    t: SimTime,
) -> Vec<MilkingSource> {
    let mut out: Vec<MilkingSource> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    // Candidates of one campaign land on the same creative: render each
    // template's clean pass once per call, not once per candidate.
    let cache = RenderCache::new();
    for c in candidates {
        if !seen.insert((c.url.clone(), c.ua)) {
            continue;
        }
        // Milking runs from residential space so cloaking networks can't
        // starve it (§3.2) — though validated sources are usually TDS
        // URLs that don't cloak. The match check compares dhash bits,
        // never pixels, so the session runs in hash mode (the capture is
        // the hash's two inputs, resolved below through the cache).
        let cfg = BrowserConfig::instrumented(c.ua, Vantage::Residential).hash_screenshots();
        let mut session = BrowserSession::new(world, cfg, t);
        let Ok(loaded) = session.navigate(&c.url) else {
            continue;
        };
        let d = loaded.screenshot.dhash_via(Some(&cache));
        if hamming(d, c.reference) <= MATCH_THRESHOLD {
            out.push(MilkingSource {
                url: c.url,
                ua: c.ua,
                cluster: c.cluster,
                reference: c.reference,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_simweb::{SeCategory, WorldConfig};
    use seacma_vision::dhash::dhash128;

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 51,
            n_publishers: 100,
            n_hidden_only_publishers: 0,
            n_advertisers: 15,
            campaign_scale: 0.4,
            error_rate: 0.0,
            ..Default::default()
        })
    }

    fn reference_for(_world: &World, c: &seacma_simweb::SeCampaign) -> Dhash {
        dhash128(&c.template().render(1))
    }

    #[test]
    fn tds_candidates_validate() {
        let w = world();
        let cands: Vec<MilkingCandidate> = w
            .campaigns()
            .iter()
            .filter(|c| c.tds_domain.is_some() && c.category != SeCategory::LotteryGift)
            .map(|c| MilkingCandidate {
                url: c.tds_url(0).unwrap(),
                ua: UaProfile::ChromeMac,
                cluster: c.id.0 as usize,
                reference: reference_for(&w, c),
            })
            .collect();
        assert!(!cands.is_empty());
        let n = cands.len();
        let sources = validate_candidates(&w, cands, SimTime::EPOCH);
        assert_eq!(sources.len(), n, "all genuine TDS urls must validate");
    }

    #[test]
    fn mismatched_reference_rejected() {
        let w = world();
        let c = w
            .campaigns()
            .iter()
            .find(|c| c.tds_domain.is_some() && c.category == SeCategory::FakeSoftware)
            .unwrap();
        let cands = vec![MilkingCandidate {
            url: c.tds_url(0).unwrap(),
            ua: UaProfile::ChromeMac,
            cluster: 0,
            reference: Dhash(!0), // nothing looks like this
        }];
        assert!(validate_candidates(&w, cands, SimTime::EPOCH).is_empty());
    }

    #[test]
    fn ad_click_urls_do_not_validate_reliably() {
        // Direct ad-network click URLs rotate inventory over time, so the
        // screenshot comparison rejects (most of) them — the reason the
        // paper milks upstream TDS URLs instead.
        let w = world();
        let net = &w.networks()[0];
        let c = w
            .campaigns()
            .iter()
            .find(|c| c.category == SeCategory::FakeSoftware)
            .unwrap();
        let cands: Vec<MilkingCandidate> = (0..30)
            .map(|k| MilkingCandidate {
                url: net.click_url(w.seed(), 0xABC + k, 0, k as u32),
                ua: UaProfile::ChromeMac,
                cluster: 0,
                reference: reference_for(&w, c),
            })
            .collect();
        let kept = validate_candidates(&w, cands, SimTime::EPOCH).len();
        assert!(kept < 10, "{kept}/30 click URLs validated — too permissive");
    }

    #[test]
    fn duplicates_collapse() {
        let w = world();
        let c = w.campaigns().iter().find(|c| c.tds_domain.is_some()).unwrap();
        let cand = MilkingCandidate {
            url: c.tds_url(0).unwrap(),
            ua: UaProfile::ChromeMac,
            cluster: 0,
            reference: reference_for(&w, c),
        };
        let sources =
            validate_candidates(&w, vec![cand.clone(), cand.clone(), cand], SimTime::EPOCH);
        assert!(sources.len() <= 1);
    }

    #[test]
    fn nonexistent_urls_skipped() {
        let w = world();
        let cands = vec![MilkingCandidate {
            url: Url::http("gone.example", "/x"),
            ua: UaProfile::ChromeMac,
            cluster: 0,
            reference: Dhash(0),
        }];
        assert!(validate_candidates(&w, cands, SimTime::EPOCH).is_empty());
    }
}
