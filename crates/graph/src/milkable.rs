//! Milkable-URL candidate extraction (paper §3.5).
//!
//! SE attack pages live on throw-away domains lasting hours to days, but
//! the ad-loading chain usually contains an *upstream* URL on a much
//! longer-lived domain (a traffic-distribution server). Re-visiting that
//! URL keeps yielding fresh, not-yet-blacklisted attack domains. Starting
//! from the attack page URL, we walk the backtracking graph until the
//! first node *not hosted on the attack page's domain* — that URL is the
//! milking candidate. (Whether it actually milks is validated later by
//! screenshot comparison; see `seacma-milker`.)

use seacma_simweb::Url;

use crate::backtrack::BacktrackGraph;

/// Extracts the milking candidate for one attack URL: the nearest upstream
/// node hosted off the attack page's e2LD. Returns `None` when the whole
/// recorded chain is on-domain (no upstream indirection observed).
///
/// The walk borrows the graph's symbol table and compares e2LDs as host
/// slices, so the only allocations are the path vector and the returned
/// candidate itself.
pub fn candidate(graph: &BacktrackGraph, attack: &Url) -> Option<Url> {
    let apex = attack.e2ld_ref();
    graph
        .backtrack_urls(attack)
        .into_iter()
        .skip(1) // the attack URL itself
        .find_map(|(url, _)| {
            let url = url?;
            (url.e2ld_ref() != apex).then(|| url.clone())
        })
}

/// Extracts candidates for a batch of attack URLs, deduplicated and in
/// deterministic order.
pub fn candidates<'a, I>(graph: &BacktrackGraph, attacks: I) -> Vec<Url>
where
    I: IntoIterator<Item = &'a Url>,
{
    let mut out: Vec<Url> = attacks
        .into_iter()
        .filter_map(|a| candidate(graph, a))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_browser::EventLog;
    use seacma_simweb::RedirectKind;

    fn u(h: &str, p: &str) -> Url {
        Url::http(h, p)
    }

    fn chain_log(hops: &[(&str, &str, RedirectKind)]) -> EventLog {
        let mut log = EventLog::new();
        for (from, to, kind) in hops {
            log.redirected(&u(from, "/"), &u(to, "/x"), *kind);
        }
        log
    }

    #[test]
    fn finds_first_offdomain_upstream() {
        // click.adnet.com → tds.info → attack.club
        let log = chain_log(&[
            ("click.adnet.com", "tds.info", RedirectKind::Http302),
            ("tds.info", "attack.club", RedirectKind::JsSetTimeout),
        ]);
        let g = BacktrackGraph::from_log(&log);
        let c = candidate(&g, &u("attack.club", "/x")).unwrap();
        assert_eq!(c.host, "tds.info");
    }

    #[test]
    fn skips_on_domain_hops() {
        // Attack page does an internal same-site hop first:
        // tds.info/ → www.attack.club/x → attack.club/final
        let mut log = chain_log(&[("tds.info", "www.attack.club", RedirectKind::JsLocation)]);
        let (hop, landing) = (u("www.attack.club", "/x"), u("attack.club", "/final"));
        log.redirected(&hop, &landing, RedirectKind::Http301);
        let g = BacktrackGraph::from_log(&log);
        let c = candidate(&g, &u("attack.club", "/final")).unwrap();
        assert_eq!(c.host, "tds.info", "same-e2LD hop must be skipped");
    }

    #[test]
    fn none_when_no_upstream() {
        let g = BacktrackGraph::from_log(&EventLog::new());
        assert!(candidate(&g, &u("attack.club", "/")).is_none());
    }

    #[test]
    fn batch_deduplicates() {
        let mut log = chain_log(&[("tds.info", "a1.club", RedirectKind::JsLocation)]);
        log.redirected(&u("tds.info", "/"), &u("a2.club", "/x"), RedirectKind::JsLocation);
        let g = BacktrackGraph::from_log(&log);
        let attacks = [u("a1.club", "/x"), u("a2.club", "/x")];
        let cs = candidates(&g, attacks.iter());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].host, "tds.info");
    }
}
