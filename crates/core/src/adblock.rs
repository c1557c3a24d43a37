//! The ad-blocker experiment (§4.4).
//!
//! The paper tested the latest Chrome + AdBlock Plus against the 11 seed
//! networks: only Clicksor's ads stopped displaying; the other ten kept
//! serving malicious ads. The mechanism is domain-list coverage: filter
//! lists enumerate known ad-serving domains, and networks that rotate
//! across hundreds of domains stay ahead of the list. This module builds
//! an EasyList-like filter (full coverage only of networks whose serving
//! infrastructure is static, plus stale entries for the rotators) and
//! measures, per network, the fraction of live click URLs it blocks.

use std::collections::HashSet;

use seacma_simweb::{SimTime, Url, World};

/// A domain-based ad filter list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterList {
    domains: HashSet<String>,
}

impl FilterList {
    /// Builds the EasyList-like snapshot for a world: every serving domain
    /// of list-covered (non-rotating) networks, plus the first few slots —
    /// the long-lived, publicly known entries — of each rotating network.
    pub fn easylist(world: &World) -> FilterList {
        let mut domains = HashSet::new();
        for n in world.networks() {
            let covered_slots = if n.blocked_by_adblock {
                n.code_domain_pool // full coverage
            } else {
                // Stale coverage: the handful of domains that have been
                // around long enough to be reported.
                (n.code_domain_pool / 50).min(3)
            };
            for slot in 0..covered_slots {
                domains.insert(n.code_domain(world.seed(), slot));
            }
        }
        FilterList { domains }
    }

    /// Number of filter entries.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Whether the list blocks a URL.
    pub fn blocks(&self, url: &Url) -> bool {
        self.domains.contains(&url.host)
    }
}

/// Per-network result of the ad-blocker experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AdblockResult {
    /// Network name.
    pub network: String,
    /// Click URLs sampled.
    pub sampled: usize,
    /// Fraction of sampled click URLs the filter list blocked.
    pub blocked_fraction: f64,
}

impl AdblockResult {
    /// The paper's binary verdict: a network is "blocked" when
    /// effectively all of its ads stop displaying.
    pub fn effectively_blocked(&self) -> bool {
        self.blocked_fraction > 0.95
    }
}

/// Runs the experiment: sample live click URLs per seed network across
/// publishers and days, and measure list coverage.
pub fn adblock_experiment(world: &World, t: SimTime, samples_per_network: usize) -> Vec<AdblockResult> {
    let list = FilterList::easylist(world);
    world
        .networks()
        .iter()
        .filter(|n| n.seed_listed)
        .map(|n| {
            let mut blocked = 0usize;
            for i in 0..samples_per_network {
                let pub_word = seacma_simweb::det::det_hash(&[0xAB_7E57, i as u64]);
                let url = n.click_url(world.seed(), pub_word, t.days() + (i % 5) as u64, 0);
                if list.blocks(&url) {
                    blocked += 1;
                }
            }
            AdblockResult {
                network: n.name.clone(),
                sampled: samples_per_network,
                blocked_fraction: blocked as f64 / samples_per_network.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_simweb::{WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            n_publishers: 20,
            n_hidden_only_publishers: 0,
            n_advertisers: 5,
            ..Default::default()
        })
    }

    #[test]
    fn only_clicksor_is_effectively_blocked() {
        let w = world();
        let results = adblock_experiment(&w, SimTime::EPOCH, 200);
        assert_eq!(results.len(), 11);
        let blocked: Vec<&str> = results
            .iter()
            .filter(|r| r.effectively_blocked())
            .map(|r| r.network.as_str())
            .collect();
        assert_eq!(blocked, vec!["Clicksor"], "paper: only Clicksor stops displaying");
    }

    #[test]
    fn rotating_networks_mostly_evade() {
        let w = world();
        let results = adblock_experiment(&w, SimTime::EPOCH, 200);
        let rh = results.iter().find(|r| r.network == "RevenueHits").unwrap();
        assert!(rh.blocked_fraction < 0.10, "RevenueHits blocked {}", rh.blocked_fraction);
    }

    #[test]
    fn filterlist_has_entries_for_everything() {
        let w = world();
        let list = FilterList::easylist(&w);
        assert!(!list.is_empty());
        // Clicksor fully covered: all 4 domains present.
        let clicksor = w.networks().iter().find(|n| n.name == "Clicksor").unwrap();
        for slot in 0..clicksor.code_domain_pool {
            let u = Url::http(clicksor.code_domain(w.seed(), slot), "/cksr/show.php");
            assert!(list.blocks(&u));
        }
    }
}
