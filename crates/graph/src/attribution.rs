//! Ad-network attribution (paper §3.6).
//!
//! Each ad network reuses invariant URL/JS patterns across its rotating
//! domains (§3.1). Attribution scans every URL involved in loading an SE
//! attack — the backward path plus included scripts — for those patterns.
//! An attack matching no pattern is labelled *Unknown*; batches of unknown
//! attacks are the raw material for discovering new ad networks (the paper
//! found Ero Advertising, Yllix and AdCenter this way, §4.4).

use seacma_simweb::Url;

use crate::backtrack::BacktrackGraph;

/// One network's invariant pattern set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkPattern {
    /// Network name.
    pub name: String,
    /// Substring that appears in every ad-serving URL of the network.
    pub url_invariant: String,
}

/// Attribution verdict for one SE attack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Attribution {
    /// Attack delivered by a known network.
    Known(String),
    /// No pattern matched; left for manual analysis / network discovery.
    Unknown,
}

impl Attribution {
    /// The network name, if known.
    pub fn name(&self) -> Option<&str> {
        match self {
            Attribution::Known(n) => Some(n),
            Attribution::Unknown => None,
        }
    }
}

/// Matches involved-URL sets against network invariant patterns.
#[derive(Debug, Clone, Default)]
pub struct Attributor {
    patterns: Vec<NetworkPattern>,
}

impl Attributor {
    /// Builds an attributor over the given patterns.
    pub fn new(patterns: Vec<NetworkPattern>) -> Self {
        Self { patterns }
    }

    /// Registered patterns.
    pub fn patterns(&self) -> &[NetworkPattern] {
        &self.patterns
    }

    /// Adds a pattern (the new-network feedback loop: once an unknown
    /// network is identified, its invariant joins the seed set).
    pub fn add_pattern(&mut self, pattern: NetworkPattern) {
        self.patterns.push(pattern);
    }

    /// Attributes a single URL.
    pub fn match_url(&self, url: &Url) -> Option<&NetworkPattern> {
        let text = url.to_string();
        self.patterns.iter().find(|p| text.contains(&p.url_invariant))
    }

    /// Attributes an attack URL using its backtracking graph: the first
    /// matching URL on the backward path (nearest the attack) wins.
    pub fn attribute(&self, graph: &BacktrackGraph, attack: &Url) -> Attribution {
        for url in graph.involved_urls(attack) {
            if let Some(p) = self.match_url(&url) {
                return Attribution::Known(p.name.clone());
            }
        }
        Attribution::Unknown
    }

    /// Attributes a bare URL set (for callers that already flattened the
    /// graph).
    pub fn attribute_urls<'a, I>(&self, urls: I) -> Attribution
    where
        I: IntoIterator<Item = &'a Url>,
    {
        for url in urls {
            if let Some(p) = self.match_url(url) {
                return Attribution::Known(p.name.clone());
            }
        }
        Attribution::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_browser::EventLog;
    use seacma_simweb::RedirectKind;

    fn u(h: &str, p: &str) -> Url {
        Url::http(h, p)
    }

    fn attributor() -> Attributor {
        Attributor::new(vec![
            NetworkPattern { name: "AdSterra".into(), url_invariant: "/banners/asd.php".into() },
            NetworkPattern { name: "PopCash".into(), url_invariant: "/pcash/pop.js".into() },
        ])
    }

    fn attack_chain(click_path: &str) -> (BacktrackGraph, Url) {
        let mut log = EventLog::new();
        let publisher = u("pub.com", "/");
        let click = u("xyzad.net", click_path);
        let tds = u("tds.info", "/go");
        let attack = u("attack.club", "/idx.php");
        log.tab_opened(&publisher, &click);
        log.redirected(&click, &tds, RedirectKind::Http302);
        log.redirected(&tds, &attack, RedirectKind::JsSetTimeout);
        (BacktrackGraph::from_log(&log), attack)
    }

    #[test]
    fn known_network_attributed_through_chain() {
        let (g, attack) = attack_chain("/banners/asd.php?z=9");
        let a = attributor().attribute(&g, &attack);
        assert_eq!(a, Attribution::Known("AdSterra".into()));
        assert_eq!(a.name(), Some("AdSterra"));
    }

    #[test]
    fn unmatched_chain_is_unknown() {
        let (g, attack) = attack_chain("/eroadv/frame.php?z=9");
        let a = attributor().attribute(&g, &attack);
        assert_eq!(a, Attribution::Unknown);
        assert_eq!(a.name(), None);
    }

    #[test]
    fn feedback_loop_adds_patterns() {
        let (g, attack) = attack_chain("/eroadv/frame.php?z=9");
        let mut at = attributor();
        assert_eq!(at.attribute(&g, &attack), Attribution::Unknown);
        at.add_pattern(NetworkPattern {
            name: "EroAdvertising".into(),
            url_invariant: "/eroadv/".into(),
        });
        assert_eq!(at.attribute(&g, &attack), Attribution::Known("EroAdvertising".into()));
    }

    #[test]
    fn script_urls_count_for_attribution() {
        let mut log = EventLog::new();
        let page = u("pub.com", "/");
        log.script_loaded(&page, &u("srv.popnet.com", "/pcash/pop.js"));
        let g = BacktrackGraph::from_log(&log);
        let a = attributor().attribute(&g, &page);
        assert_eq!(a, Attribution::Known("PopCash".into()));
    }

    #[test]
    fn attribute_urls_flat() {
        let at = attributor();
        let urls = [u("a.com", "/x"), u("b.com", "/pcash/pop.js")];
        assert_eq!(at.attribute_urls(urls.iter()), Attribution::Known("PopCash".into()));
        let none = [u("a.com", "/x")];
        assert_eq!(at.attribute_urls(none.iter()), Attribution::Unknown);
    }
}
