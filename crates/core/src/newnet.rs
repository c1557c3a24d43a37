//! New ad-network discovery from unknown attributions (§3.6, §4.4).
//!
//! SE attacks whose involved URLs match no seed pattern are "unknown". The
//! paper's analysts eyeballed 50 such logs, spotted recurring URL
//! artifacts, identified the networks behind them (Ero Advertising, Yllix,
//! AdCenter) and re-queried PublicWWW — gaining 8,981 new publishers in
//! under an hour. This module automates the same loop: mine recurring
//! path tokens from unknown-attack URL sets, lift each token to a network
//! identity, and re-run the source search.

use std::collections::HashMap;

use seacma_graph::{Attribution, NetworkPattern};
use seacma_simweb::search::SourceSearch;
use seacma_simweb::World;

use crate::pipeline::DiscoveryOutput;

/// How many unknown attacks a path token must recur in before it is
/// considered a network invariant (the paper sampled 50 logs; recurring
/// artifacts stood out immediately).
pub const MIN_TOKEN_SUPPORT: usize = 5;

/// Result of the discovery loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NewNetworkDiscovery {
    /// Unknown SE attacks examined.
    pub unknown_attacks: usize,
    /// Newly identified networks with their mined invariants.
    pub new_patterns: Vec<NetworkPattern>,
    /// Additional publishers found by re-querying the source search with
    /// the new invariants (the crawl-pool expansion).
    pub new_publishers: usize,
}

/// Runs the discovery loop over a finished discovery phase.
pub fn discover_networks(world: &World, discovery: &DiscoveryOutput) -> NewNetworkDiscovery {
    let landings: Vec<_> = discovery.landings().collect();

    // Collect the involved URLs of unknown *SE* attacks.
    let mut token_support: HashMap<String, usize> = HashMap::new();
    let mut token_host: HashMap<String, String> = HashMap::new();
    let mut unknown_attacks = 0usize;
    for (i, att) in discovery.attributions.iter().enumerate() {
        if *att != Attribution::Unknown || !landings[i].truth_is_attack {
            continue;
        }
        unknown_attacks += 1;
        for url in landings[i].chain_urls() {
            // Mine the leading path segment as the candidate artifact
            // (e.g. `/eroadv/` from `/eroadv/frame.php`).
            if let Some(token) = leading_segment(&url.path) {
                *token_support.entry(token.clone()).or_default() += 1;
                token_host.entry(token).or_insert_with(|| url.host.clone());
            }
        }
    }

    // Tokens that recur across many unknown attacks and belong to no seed
    // network are new-network invariants.
    let seed_invariants: Vec<&str> = world
        .networks()
        .iter()
        .filter(|n| n.seed_listed)
        .map(|n| n.url_invariant.as_str())
        .collect();
    let mut new_patterns = Vec::new();
    let mut tokens: Vec<(String, usize)> = token_support
        .into_iter()
        .filter(|(t, support)| {
            *support >= MIN_TOKEN_SUPPORT
                && !seed_invariants.iter().any(|inv| inv.starts_with(t.as_str()))
                && !is_generic_token(t)
        })
        .collect();
    tokens.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (token, _) in tokens {
        // "Identify the network" — the paper used search engines on the
        // artifact; our stand-in resolves the hosting domain against the
        // ecosystem's ownership records. Artifacts that don't resolve to
        // an ad-serving host (e.g. a single campaign's landing path that
        // recurred) are discarded, as an analyst would.
        let Some(name) = token_host
            .get(&token)
            .and_then(|h| world.network_of_code_domain(h))
            .map(|id| world.networks()[id.0 as usize].name.clone())
        else {
            continue;
        };
        if new_patterns.iter().any(|p: &NetworkPattern| p.name == name) {
            continue;
        }
        new_patterns.push(NetworkPattern { name, url_invariant: token });
    }

    // Re-query the source search with the new networks' JS invariants to
    // expand the publisher pool.
    let search = SourceSearch::new(world);
    let mut expansion: std::collections::HashSet<seacma_simweb::PublisherId> =
        std::collections::HashSet::new();
    let known_pool: std::collections::HashSet<_> = discovery
        .institutional_pool
        .iter()
        .chain(&discovery.residential_pool)
        .copied()
        .collect();
    for p in &new_patterns {
        if let Some(net) = world.networks().iter().find(|n| n.name == p.name) {
            for pid in search.search(&net.js_invariant) {
                if !known_pool.contains(&pid) {
                    expansion.insert(pid);
                }
            }
        }
    }

    NewNetworkDiscovery {
        unknown_attacks,
        new_patterns,
        new_publishers: expansion.len(),
    }
}

/// Extracts the leading path segment (`/seg/`) of a URL path.
fn leading_segment(path: &str) -> Option<String> {
    let rest = path.strip_prefix('/')?;
    let end = rest.find('/')?;
    if end == 0 {
        return None;
    }
    Some(format!("/{}/", &rest[..end]))
}

/// Path segments too generic to be network invariants (attack landing
/// paths and publisher content live here).
fn is_generic_token(t: &str) -> bool {
    // Attack landing paths are gibberish per campaign and never recur
    // across campaigns; TDS paths are single-segment. The only generic
    // collision risk is the shared "/offer" advertiser path.
    t == "/offer/" || t == "/landing/"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_segment_extraction() {
        assert_eq!(leading_segment("/eroadv/frame.php"), Some("/eroadv/".into()));
        assert_eq!(leading_segment("/x"), None);
        assert_eq!(leading_segment("nope"), None);
        assert_eq!(leading_segment("//x"), None);
    }

    #[test]
    fn generic_tokens_filtered() {
        assert!(is_generic_token("/offer/"));
        assert!(!is_generic_token("/eroadv/"));
    }
}
