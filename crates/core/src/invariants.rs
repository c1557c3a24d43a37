//! Automatic invariant-pattern mining.
//!
//! §3.1 of the paper: ad networks "heavily obfuscate their code and
//! frequently change the domain names from which the JS code is fetched",
//! but "it was possible to identify a number of invariant features, such
//! as a specific URL path name, URL structure, or JS variable names that
//! are reused across different versions of JS code snippets belonging to
//! the same ad network". The authors derived each pattern manually in
//! ~15 minutes; §5 notes "one can easily find an invariance feature upon
//! inspecting multiple code snippets from different pages using this ad
//! network" — which is precisely an algorithmic task.
//!
//! This module automates it: given a handful of loader snippets (or ad
//! URLs) known to belong to one network, [`common_tokens`] extracts the
//! maximal substrings shared by *all* samples, filters boilerplate shared
//! with *other* networks' samples, and returns candidate invariants
//! ranked by discriminative length.

use std::collections::HashSet;

use seacma_graph::NetworkPattern;
use seacma_simweb::Url;

/// Minimum invariant length considered meaningful (shorter strings are
/// too likely to match unrelated code).
pub const MIN_TOKEN_LEN: usize = 5;

/// Returns the maximal substrings of length ≥ `min_len` present in
/// *every* sample, longest first. Case-sensitive, byte-oriented.
pub fn common_tokens(samples: &[&str], min_len: usize) -> Vec<String> {
    let Some(shortest) = samples.iter().min_by_key(|s| s.len()) else {
        return Vec::new();
    };
    if shortest.len() < min_len {
        return Vec::new();
    }
    // Binary search the longest length L for which some window of the
    // shortest sample occurs in all samples, then collect all maximal
    // common windows down to min_len.
    let occurs_everywhere = |tok: &str| samples.iter().all(|s| s.contains(tok));

    let mut found: Vec<String> = Vec::new();
    let bytes = shortest.as_bytes();
    // Enumerate candidate windows from longest to shortest; skip windows
    // contained in an already-found token (maximality).
    let mut len = shortest.len();
    while len >= min_len {
        for start in 0..=(bytes.len() - len) {
            let Some(tok) = shortest.get(start..start + len) else {
                continue; // respect UTF-8 boundaries
            };
            if found.iter().any(|f| f.contains(tok)) {
                continue;
            }
            if occurs_everywhere(tok) {
                found.push(tok.to_string());
            }
        }
        len -= 1;
    }
    found
}

/// Drops tokens that also appear in any counterexample (other networks'
/// snippets) — what makes an invariant *discriminative* rather than
/// generic JS boilerplate.
pub fn discriminative_tokens(
    samples: &[&str],
    counterexamples: &[&str],
    min_len: usize,
) -> Vec<String> {
    common_tokens(samples, min_len)
        .into_iter()
        .filter(|tok| !counterexamples.iter().any(|c| c.contains(tok.as_str())))
        .collect()
}

/// A mined network signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedPattern {
    /// Best JS-source invariant (longest discriminative token).
    pub js_token: Option<String>,
    /// Best URL invariant mined from the network's ad-serving URLs.
    pub url_token: Option<String>,
}

impl MinedPattern {
    /// Converts into an attribution pattern under the given name, when a
    /// URL token was mined.
    pub fn into_network_pattern(self, name: impl Into<String>) -> Option<NetworkPattern> {
        self.url_token.map(|url_invariant| NetworkPattern { name: name.into(), url_invariant })
    }
}

/// Mines a network signature from labeled samples.
///
/// `snippets`/`urls` are samples from the target network;
/// `other_snippets`/`other_urls` come from different networks and serve
/// as counterexamples.
pub fn mine_pattern(
    snippets: &[&str],
    other_snippets: &[&str],
    urls: &[Url],
    other_urls: &[Url],
) -> MinedPattern {
    let js_token =
        discriminative_tokens(snippets, other_snippets, MIN_TOKEN_LEN).into_iter().next();
    let url_strings: Vec<String> = urls.iter().map(|u| u.path_and_query()).collect();
    let url_refs: Vec<&str> = url_strings.iter().map(String::as_str).collect();
    let other_strings: Vec<String> = other_urls.iter().map(|u| u.path_and_query()).collect();
    let other_refs: Vec<&str> = other_strings.iter().map(String::as_str).collect();
    let url_token = discriminative_tokens(&url_refs, &other_refs, MIN_TOKEN_LEN)
        .into_iter()
        .next();
    MinedPattern { js_token, url_token }
}

/// One seed network's mined signature, checked against the hand-derived
/// invariant it is meant to replace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedNetwork {
    /// Network name.
    pub network: String,
    /// What the miner found.
    pub mined: MinedPattern,
    /// Whether the mined JS token reverses to exactly the publisher pool
    /// the network's hand-derived JS invariant reverses to.
    pub pool_match: bool,
}

/// Mines seed patterns for every seed-listed network in a world, from
/// `samples_per_network` publisher snippets each — the automated stand-in
/// for the paper's manual stage ① — and checks each mined JS token
/// against the hand-derived invariant's publisher pool.
pub fn mine_world_patterns(
    world: &seacma_simweb::World,
    samples_per_network: usize,
) -> Vec<MinedNetwork> {
    let seed = world.seed();
    let mut out = Vec::new();
    let nets: Vec<_> = world.networks().iter().filter(|n| n.seed_listed).collect();
    for n in &nets {
        // Collect snippets from publishers that embed this network.
        let mut snippets = Vec::new();
        let mut urls = Vec::new();
        for p in world.publishers() {
            if snippets.len() >= samples_per_network {
                break;
            }
            if p.networks.contains(&n.id) {
                snippets.push(n.loader_snippet(seed, p.word()));
                urls.push(n.click_url(seed, p.word(), 0, 0));
            }
        }
        // Counterexamples: one snippet from each *other* network.
        let mut others = Vec::new();
        let mut other_urls = Vec::new();
        for m in &nets {
            if m.id != n.id {
                others.push(m.loader_snippet(seed, 0x07E2));
                other_urls.push(m.click_url(seed, 0x07E2, 0, 0));
            }
        }
        let snippet_refs: Vec<&str> = snippets.iter().map(String::as_str).collect();
        let other_refs: Vec<&str> = others.iter().map(String::as_str).collect();
        let mined = mine_pattern(&snippet_refs, &other_refs, &urls, &other_urls);
        let pool_match =
            mined.js_token.as_deref().is_some_and(|tok| pools_match(world, tok, &n.js_invariant));
        out.push(MinedNetwork { network: n.name.clone(), mined, pool_match });
    }
    out
}

/// Whether two source-search tokens recover the same publisher pool.
fn pools_match(world: &seacma_simweb::World, mined: &str, reference: &str) -> bool {
    let search = seacma_simweb::search::SourceSearch::new(world);
    let a: HashSet<_> = search.search(mined).into_iter().collect();
    let b: HashSet<_> = search.search(reference).into_iter().collect();
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_tokens_finds_shared_core() {
        let samples = ["xx_pop_cfg_yy123", "zz_pop_cfg_qq", "_pop_cfg_"];
        let toks = common_tokens(&samples, 5);
        assert!(toks.iter().any(|t| t == "_pop_cfg_"), "got {toks:?}");
    }

    #[test]
    fn common_tokens_empty_cases() {
        assert!(common_tokens(&[], 5).is_empty());
        assert!(common_tokens(&["abc"], 5).is_empty());
        assert!(common_tokens(&["abcdefgh", "12345678"], 5).is_empty());
    }

    #[test]
    fn tokens_are_maximal() {
        let samples = ["AAAinvariantBBB", "CCCinvariantDDD"];
        let toks = common_tokens(&samples, 5);
        assert_eq!(toks, vec!["invariant".to_string()]);
    }

    #[test]
    fn discriminative_filter_drops_boilerplate() {
        let samples = ["function(){_net_a_cfg}", "function(){_net_a_cfg;x}"];
        let counter = ["function(){_net_b_cfg}"];
        let toks = discriminative_tokens(&samples, &counter, 5);
        assert!(toks.iter().any(|t| t.contains("_net_a_cfg")), "got {toks:?}");
        assert!(
            toks.iter().all(|t| !"function(){_net_b_cfg}".contains(t.as_str())),
            "boilerplate leaked: {toks:?}"
        );
    }

    #[test]
    fn mined_pattern_conversion() {
        let m = MinedPattern { js_token: None, url_token: Some("/pads/".into()) };
        let p = m.into_network_pattern("PopAds").unwrap();
        assert_eq!(p.url_invariant, "/pads/");
        let none = MinedPattern { js_token: Some("x".into()), url_token: None };
        assert!(none.into_network_pattern("X").is_none());
    }

    #[test]
    fn utf8_samples_do_not_panic() {
        let samples = ["héllo_wörld_invariant_é", "xx_invariant_é yy"];
        let toks = common_tokens(&samples, 5);
        assert!(toks.iter().any(|t| t.contains("_invariant_")));
    }
}
