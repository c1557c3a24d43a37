//! Backtracking graphs over browser event logs.

use std::collections::HashMap;

use seacma_util::sym::Interner;

use seacma_browser::{EventLog, EventRef};
use seacma_simweb::{RedirectKind, Url};

/// Causal relationship between two URLs in the ad-loading process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Child was reached by a redirect of the given kind from the parent.
    Redirect(RedirectKind),
    /// Child opened in a new tab via `window.open` on the parent.
    WindowOpen,
    /// Child was navigated to by a click on the parent.
    UserClick,
    /// Child is a script included by the parent document.
    ScriptInclude,
}

/// One step on a backward path: the URL and the edge that led *to* it from
/// its child (i.e. how the next-downstream URL was caused by this one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// URL of this node.
    pub url: Url,
    /// Edge connecting this node to the node one step downstream; `None`
    /// for the starting node.
    pub via: Option<EdgeKind>,
}

/// A causal URL graph reconstructed from one browsing session's log.
///
/// ```
/// use seacma_browser::EventLog;
/// use seacma_graph::{milkable, BacktrackGraph};
/// use seacma_simweb::{RedirectKind, Url};
///
/// let mut log = EventLog::new();
/// let click = Url::http("srv.adnet.com", "/banners/asd.php?z=1");
/// let tds = Url::http("findglo210.info", "/go");
/// let attack = Url::http("live6nmld10.club", "/idx.php");
/// log.redirected(&click, &tds, RedirectKind::Http302);
/// log.redirected(&tds, &attack, RedirectKind::JsSetTimeout);
///
/// let graph = BacktrackGraph::from_log(&log);
/// // The milkable candidate is the first upstream node off the attack e2LD.
/// assert_eq!(milkable::candidate(&graph, &attack).unwrap().host, "findglo210.info");
/// ```
#[derive(Debug, Clone, Default)]
pub struct BacktrackGraph {
    /// Symbol table: every distinct URL seen in the log, in first-seen
    /// order. Edge maps below speak u32 symbols into this table, so graph
    /// construction and traversal clone each URL string once per log
    /// instead of once per event/step. Same engine as the world-level
    /// domain arena, instantiated per log over [`Url`] keys.
    urls: Interner<Url>,
    /// `child → (parent, kind)`; last writer wins, which matches "the most
    /// recent cause" for URLs visited repeatedly in one session.
    parent: HashMap<u32, (u32, EdgeKind)>,
    /// `document → scripts it included`.
    scripts: HashMap<u32, Vec<u32>>,
}

impl BacktrackGraph {
    /// Builds the graph from a session log. Walks the log's borrowed
    /// event views, so the only URL clones are the first-sight interns
    /// into this graph's own symbol table.
    pub fn from_log(log: &EventLog) -> Self {
        let mut g = BacktrackGraph::default();
        g.extend_from_log(log, 0);
        g
    }

    /// Incrementally ingests the log events at indices `from..log.len()`,
    /// returning the new cursor (`log.len()`).
    ///
    /// Graph construction is order-incremental — parent edges are
    /// last-writer-wins inserts and script lists append — so feeding a
    /// growing log's events through any sequence of calls (each picking up
    /// where the last left off) yields exactly the graph `from_log` would
    /// build from the same prefix. The crawl loop leans on this: one graph
    /// per visit, extended after each ad landing, instead of a full
    /// rebuild — and re-intern — of the whole session log per landing.
    pub fn extend_from_log(&mut self, log: &EventLog, from: usize) -> usize {
        for e in log.events().skip(from) {
            match e {
                EventRef::Redirected { from, to, kind } => {
                    let (f, t) = (self.intern(from), self.intern(to));
                    self.parent.insert(t, (f, EdgeKind::Redirect(kind)));
                }
                EventRef::TabOpened { opener, url } => {
                    let (o, u) = (self.intern(opener), self.intern(url));
                    self.parent.insert(u, (o, EdgeKind::WindowOpen));
                }
                EventRef::NavigationStart {
                    url,
                    cause: seacma_browser::NavCause::UserClick,
                    initiator: Some(init),
                } => {
                    let (i, u) = (self.intern(init), self.intern(url));
                    self.parent.insert(u, (i, EdgeKind::UserClick));
                }
                EventRef::ScriptLoaded { page, src } => {
                    let (p, s) = (self.intern(page), self.intern(src));
                    self.scripts.entry(p).or_default().push(s);
                }
                _ => {}
            }
        }
        log.len()
    }

    /// Empties the graph while keeping its buffers, so one graph (and its
    /// symbol table, edge map and script lists) can be recycled across
    /// many per-session builds. A cleared graph is observationally
    /// identical to `BacktrackGraph::default()`.
    pub fn clear(&mut self) {
        self.urls.clear();
        self.parent.clear();
        self.scripts.clear();
    }

    /// The symbol for `url`, allocating one on first sight.
    fn intern(&mut self, url: &Url) -> u32 {
        self.urls.intern(url)
    }

    /// The URL a symbol stands for.
    fn url(&self, id: u32) -> &Url {
        self.urls.resolve(id)
    }

    /// Number of nodes with a known parent.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the graph has no edges at all.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty() && self.scripts.is_empty()
    }

    /// Direct parent of a URL, if known.
    pub fn parent_of(&self, url: &Url) -> Option<(&Url, EdgeKind)> {
        let id = self.urls.get(url)?;
        self.parent.get(&id).map(|&(p, k)| (self.url(p), k))
    }

    /// Scripts included by a document, in inclusion order.
    pub fn scripts_of<'g>(&'g self, url: &Url) -> impl Iterator<Item = &'g Url> + 'g {
        self.urls
            .get(url)
            .and_then(|id| self.scripts.get(&id))
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|&s| self.url(s))
    }

    /// The backward path from `start` as symbols, starting node first.
    /// Cycles are broken by visited-set; the path is capped at 64 steps.
    /// `start` itself is reported as `None` when it never appears in the
    /// log (the caller clones it instead of interning into `&self`).
    fn backtrack_ids(&self, start: &Url) -> Vec<(Option<u32>, Option<EdgeKind>)> {
        let Some(start_id) = self.urls.get(start) else {
            return vec![(None, None)];
        };
        let mut path = vec![(Some(start_id), None)];
        let mut cur = start_id;
        let mut seen = std::collections::HashSet::new();
        seen.insert(cur);
        while let Some(&(p, k)) = self.parent.get(&cur) {
            if !seen.insert(p) || path.len() >= 64 {
                break;
            }
            path.push((Some(p), Some(k)));
            cur = p;
        }
        path
    }

    /// [`backtrack`](Self::backtrack) without cloning any URL: each step
    /// borrows the graph's symbol table (`None` for a start URL the log
    /// never mentioned — the caller already holds that URL). Scans that
    /// only inspect the path (the milkable-candidate walk) use this to
    /// stay allocation-free until they pick a step to keep.
    pub fn backtrack_urls(&self, start: &Url) -> Vec<(Option<&Url>, Option<EdgeKind>)> {
        self.backtrack_ids(start)
            .into_iter()
            .map(|(id, via)| (id.map(|i| self.url(i)), via))
            .collect()
    }

    /// The backward path from `start` to the root (the publisher page the
    /// crawler originally visited), starting node first. Cycles are broken
    /// by visited-set; the path is capped at 64 steps.
    pub fn backtrack(&self, start: &Url) -> Vec<PathStep> {
        self.backtrack_ids(start)
            .into_iter()
            .map(|(id, via)| PathStep {
                url: id.map(|i| self.url(i).clone()).unwrap_or_else(|| start.clone()),
                via,
            })
            .collect()
    }

    /// Every URL involved in delivering `start`: the backward path plus all
    /// scripts included by documents on it, deduplicated in first-seen
    /// order (a script shared by several path documents — one ad-network
    /// tag loaded on every hop — counts once). This is the URL set
    /// attribution scans (§3.6: "for each URL in the ad loading and landing
    /// page redirection process").
    pub fn involved_urls(&self, start: &Url) -> Vec<Url> {
        let mut out = Vec::new();
        let mut emitted = std::collections::HashSet::new();
        let mut push = |out: &mut Vec<Url>, id: u32| {
            if emitted.insert(id) {
                out.push(self.url(id).clone());
            }
        };
        for (id, _) in self.backtrack_ids(start) {
            let Some(id) = id else {
                // `start` never appeared in the log: the path is just it.
                out.push(start.clone());
                continue;
            };
            if let Some(scripts) = self.scripts.get(&id) {
                for &s in scripts {
                    push(&mut out, s);
                }
            }
            push(&mut out, id);
        }
        out
    }

    /// Renders the backward path from `start` in Graphviz DOT form
    /// (figure-3-style output).
    pub fn to_dot(&self, start: &Url) -> String {
        let mut s = String::from("digraph backtrack {\n  rankdir=TB;\n");
        let path = self.backtrack(start);
        for w in path.windows(2) {
            let child = &w[0];
            let parent = &w[1];
            let label = match parent.via {
                Some(EdgeKind::Redirect(k)) => format!("{k:?}"),
                Some(EdgeKind::WindowOpen) => "window.open".to_string(),
                Some(EdgeKind::UserClick) => "click".to_string(),
                Some(EdgeKind::ScriptInclude) => "script".to_string(),
                None => String::new(),
            };
            s.push_str(&format!("  \"{}\" -> \"{}\" [label=\"{}\"];\n", parent.url, child.url, label));
        }
        for step in &path {
            for script in self.scripts_of(&step.url) {
                s.push_str(&format!(
                    "  \"{}\" -> \"{}\" [label=\"script\", style=dashed];\n",
                    step.url, script
                ));
            }
        }
        s.push_str("}\n");
        s
    }

    /// Renders the backward path as indented ASCII (terminal-friendly
    /// figure 3).
    pub fn to_ascii(&self, start: &Url) -> String {
        let path = self.backtrack(start);
        let mut s = String::new();
        for (depth, step) in path.iter().rev().enumerate() {
            let indent = "  ".repeat(depth);
            let via = match step.via {
                Some(EdgeKind::Redirect(k)) => format!(" ←[{k:?}]"),
                Some(EdgeKind::WindowOpen) => " ←[window.open]".to_string(),
                Some(EdgeKind::UserClick) => " ←[click]".to_string(),
                Some(EdgeKind::ScriptInclude) => " ←[script]".to_string(),
                None => String::new(),
            };
            s.push_str(&format!("{indent}{}{via}\n", step.url));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_browser::{EventLog, NavCause};

    fn u(h: &str, p: &str) -> Url {
        Url::http(h, p)
    }

    /// The first `n` of the six events of a synthetic log mirroring
    /// Figure 3: publisher → (tab) click URL → (302) TDS → (JS) attack.
    fn figure3_prefix(n: usize) -> EventLog {
        let publisher = u("verbeinlaliga.com", "/");
        let loader = u("nsvf17p9.com", "/banners/asd.php.js");
        let click = u("nsvf17p9.com", "/banners/asd.php?z=1");
        let tds = u("findglo210.info", "/go");
        let attack = u("live6nmld10.club", "/landing/idx.php");
        let steps: [&dyn Fn(&mut EventLog); 6] = [
            &|l: &mut EventLog| l.page_loaded(&publisher, "pub"),
            &|l: &mut EventLog| l.script_loaded(&publisher, &loader),
            &|l: &mut EventLog| l.tab_opened(&publisher, &click),
            &|l: &mut EventLog| l.redirected(&click, &tds, RedirectKind::Http302),
            &|l: &mut EventLog| l.redirected(&tds, &attack, RedirectKind::JsSetTimeout),
            &|l: &mut EventLog| l.page_loaded(&attack, "scam"),
        ];
        let mut log = EventLog::new();
        steps[..n].iter().for_each(|step| step(&mut log));
        log
    }

    fn figure3_log() -> EventLog {
        figure3_prefix(6)
    }

    #[test]
    fn backtrack_recovers_full_chain() {
        let g = BacktrackGraph::from_log(&figure3_log());
        let attack = u("live6nmld10.club", "/landing/idx.php");
        let path = g.backtrack(&attack);
        let hosts: Vec<&str> = path.iter().map(|s| s.url.host.as_str()).collect();
        assert_eq!(
            hosts,
            vec!["live6nmld10.club", "findglo210.info", "nsvf17p9.com", "verbeinlaliga.com"]
        );
        assert_eq!(path[1].via, Some(EdgeKind::Redirect(RedirectKind::JsSetTimeout)));
        assert_eq!(path[3].via, Some(EdgeKind::WindowOpen));
    }

    #[test]
    fn involved_urls_include_scripts() {
        let g = BacktrackGraph::from_log(&figure3_log());
        let attack = u("live6nmld10.club", "/landing/idx.php");
        let urls = g.involved_urls(&attack);
        assert!(urls.iter().any(|x| x.path.ends_with(".js")), "loader script missing");
        assert_eq!(urls.len(), 5);
    }

    #[test]
    fn user_click_edges_recorded() {
        let mut log = EventLog::new();
        let a = u("a.com", "/");
        let b = u("b.com", "/");
        log.navigation_start(&b, NavCause::UserClick, Some(&a));
        let g = BacktrackGraph::from_log(&log);
        assert_eq!(g.parent_of(&b), Some((&a, EdgeKind::UserClick)));
    }

    #[test]
    fn cycles_terminate() {
        let mut log = EventLog::new();
        let a = u("a.com", "/");
        let b = u("b.com", "/");
        log.redirected(&a, &b, RedirectKind::Http302);
        log.redirected(&b, &a, RedirectKind::Http302);
        let g = BacktrackGraph::from_log(&log);
        let path = g.backtrack(&a);
        assert_eq!(path.len(), 2, "cycle must be cut");
    }

    #[test]
    fn unknown_start_is_singleton_path() {
        let g = BacktrackGraph::from_log(&EventLog::new());
        let path = g.backtrack(&u("nowhere.com", "/"));
        assert_eq!(path.len(), 1);
        assert!(g.is_empty());
    }

    #[test]
    fn dot_and_ascii_render() {
        let g = BacktrackGraph::from_log(&figure3_log());
        let attack = u("live6nmld10.club", "/landing/idx.php");
        let dot = g.to_dot(&attack);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("findglo210.info"));
        assert!(dot.contains("style=dashed"), "script edges must render dashed");
        let ascii = g.to_ascii(&attack);
        assert!(ascii.contains("verbeinlaliga.com"));
        assert!(ascii.lines().count() >= 4);
    }

    #[test]
    fn involved_urls_dedup_scripts_across_path_steps() {
        // One ad-network tag loaded by *every* document on the path (the
        // real-web shape that used to duplicate entries), plus a doubled
        // include on a single document.
        let mut log = figure3_log();
        let tag = u("nsvf17p9.com", "/tag.js");
        let tds = u("findglo210.info", "/go");
        let attack = u("live6nmld10.club", "/landing/idx.php");
        for page in [&u("verbeinlaliga.com", "/"), &tds, &attack] {
            log.script_loaded(page, &tag);
        }
        log.script_loaded(&tds, &tag);
        let g = BacktrackGraph::from_log(&log);
        let urls = g.involved_urls(&attack);
        assert_eq!(urls.iter().filter(|x| **x == tag).count(), 1, "tag must appear once");
        // First-seen order: the walk starts at the attack page, whose
        // script list is scanned before the attack URL itself.
        assert_eq!(urls[0], tag);
        assert_eq!(urls[1], attack);
        let mut sorted = urls.clone();
        sorted.sort_by_key(|x| x.to_string());
        sorted.dedup();
        assert_eq!(sorted.len(), urls.len(), "no other duplicates either");
    }

    #[test]
    fn cleared_graph_rebuilds_identically() {
        // Recycling a dirty graph must be observationally a fresh build:
        // same symbol assignment, same edges, same query answers.
        let log = figure3_log();
        let attack = u("live6nmld10.club", "/landing/idx.php");
        let full = BacktrackGraph::from_log(&log);
        let mut recycled = BacktrackGraph::from_log(&log); // dirty it
        recycled.clear();
        assert!(recycled.is_empty());
        let cursor = recycled.extend_from_log(&log, 0);
        assert_eq!(cursor, log.len());
        assert_eq!(recycled.len(), full.len());
        assert_eq!(recycled.backtrack(&attack), full.backtrack(&attack));
        assert_eq!(recycled.involved_urls(&attack), full.involved_urls(&attack));
    }

    #[test]
    fn extend_in_two_stages_equals_one_shot() {
        // Split the log at every possible point; ingesting the two halves
        // in order must equal one-shot construction (order-incrementality
        // is what the per-landing crawl extension leans on).
        let log = figure3_log();
        let attack = u("live6nmld10.club", "/landing/idx.php");
        let full = BacktrackGraph::from_log(&log);
        for split in 0..=log.len() {
            let mut g = BacktrackGraph::default();
            // First stage: a log holding only the first `split` events.
            let head = figure3_prefix(split);
            let c = g.extend_from_log(&head, 0);
            assert_eq!(c, split);
            let c = g.extend_from_log(&log, c);
            assert_eq!(c, log.len());
            assert_eq!(g.len(), full.len());
            assert_eq!(g.backtrack(&attack), full.backtrack(&attack));
            assert_eq!(g.involved_urls(&attack), full.involved_urls(&attack));
        }
    }

    #[test]
    fn repeated_visits_keep_most_recent_parent() {
        let mut log = EventLog::new();
        let a = u("a.com", "/");
        let b = u("b.com", "/");
        let c = u("c.com", "/");
        log.redirected(&a, &c, RedirectKind::Http302);
        log.redirected(&b, &c, RedirectKind::JsLocation);
        let g = BacktrackGraph::from_log(&log);
        assert_eq!(g.parent_of(&c), Some((&b, EdgeKind::Redirect(RedirectKind::JsLocation))));
    }
}
