//! Single-site visit logic: the click loop.

use seacma_util::sym::SymbolArena;

use seacma_browser::{BrowserConfig, BrowserSession, EventLog, NavError, RenderCache};
use seacma_graph::{milkable, BacktrackGraph};
use seacma_simweb::{ClickAction, PublisherSite, SimDuration, SimTime, World};

use crate::record::{LandingRecord, SiteVisit};

/// Budgets for one publisher visit (paper: "a number of clicks per page,
/// until a given (tunable) number of ads have been triggered", ~2 minutes
/// per session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlPolicy {
    /// Maximum clicks issued per visit.
    pub max_clicks: u32,
    /// Stop after this many ads (third-party landings) were exercised.
    pub max_ads: u32,
    /// Per-visit time budget in virtual minutes.
    pub timeout: SimDuration,
}

impl Default for CrawlPolicy {
    fn default() -> Self {
        Self { max_clicks: 8, max_ads: 5, timeout: SimDuration::from_minutes(2) }
    }
}

/// Reusable per-worker buffers for [`visit_publisher_reusing`]: the
/// browser event log and the backtracking graph, both recycled (cleared,
/// capacity kept) across every visit a crawl worker performs. A fresh
/// scratch and a many-times-reused scratch produce byte-identical visit
/// records.
#[derive(Default)]
pub struct VisitScratch {
    log: EventLog,
    graph: BacktrackGraph,
}

impl VisitScratch {
    /// Empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Visits one publisher with one browser configuration, returning the
/// visit record.
///
/// The crawl loop mirrors §3.2: load the page, rank elements by rendered
/// size, click the biggest candidates (each click may be intercepted by a
/// page-level ad listener), record any third-party landing with its
/// screenshot hash, involved URLs and milking candidate, then reopen the
/// browser and reload the publisher for the next interaction.
///
/// `cache` optionally shares clean template renders across visits (the
/// farm passes one cache per crawl); the visit record is byte-identical
/// with or without it, and identical across `ScreenshotMode::Hash` and
/// `ScreenshotMode::Full` configurations — the record stores hashes,
/// never pixels.
///
/// `arena` receives the record's domain strings: per landing, the
/// publisher domain is interned first, then the landing e2LD. This order
/// is load-bearing — the farm reproduces it when canonicalizing worker
/// scratch arenas, so the canonical symbol assignment is independent of
/// worker count.
///
/// `scratch` lends the visit its event log and backtracking graph and
/// gets both back for the caller's next visit. Cleared buffers are
/// observationally fresh ones, so the record is byte-identical whether
/// `scratch` is new or many-times-reused; the farm threads one through
/// each worker's whole job stream and per-visit log/graph allocations
/// amortize away.
#[allow(clippy::too_many_arguments)]
pub fn visit_publisher_reusing(
    world: &World,
    publisher: &PublisherSite,
    config: BrowserConfig,
    start: SimTime,
    policy: CrawlPolicy,
    cache: Option<&RenderCache>,
    arena: &mut SymbolArena,
    scratch: &mut VisitScratch,
) -> SiteVisit {
    let mut session =
        BrowserSession::with_scratch(world, config, start, cache, std::mem::take(&mut scratch.log));
    scratch.graph.clear();
    let visit = run_visit(publisher, config, policy, cache, arena, &mut scratch.graph, &mut session);
    scratch.log = session.into_log();
    visit
}

fn run_visit(
    publisher: &PublisherSite,
    config: BrowserConfig,
    policy: CrawlPolicy,
    cache: Option<&RenderCache>,
    arena: &mut SymbolArena,
    graph: &mut BacktrackGraph,
    session: &mut BrowserSession<'_>,
) -> SiteVisit {
    let start = session.now();
    let mut visit = SiteVisit {
        publisher: publisher.id,
        ua: config.ua,
        vantage: config.vantage,
        started: start,
        landings: Vec::new(),
        clicks: 0,
        load_failed: false,
    };
    let deadline = start + policy.timeout;
    let pub_url = publisher.url();
    // How much of the session log the (incrementally built) graph has
    // ingested so far. Extending the graph per landing is byte-identical
    // to rebuilding it from the whole log — construction is
    // order-incremental — but re-interns nothing.
    let mut ingested = 0usize;

    let loaded = match session.navigate(&pub_url) {
        Ok(l) => l,
        Err(_) => {
            visit.load_failed = true;
            return visit;
        }
    };
    // Candidate elements: page-level ad listeners intercept clicks
    // regardless of the element, so element count (the size ranking's
    // length) only bounds how many interactions we try.
    let candidates = loaded.page.elements.len() as u32;
    let page = loaded.page;

    let mut click: u32 = 0;
    while click < policy.max_clicks.min(candidates * 2)
        && (visit.landings.len() as u32) < policy.max_ads
        && session.now() < deadline
    {
        const NO_ACTION: ClickAction = ClickAction::None;
        let action = page.ad_action(click as usize).unwrap_or(&NO_ACTION);
        visit.clicks += 1;
        click += 1;

        let landed = match session.click(&pub_url, action) {
            Ok(Some(l)) => l,
            Ok(None) => continue,
            Err(NavError::BrowserLocked) => {
                session.reopen();
                continue;
            }
            Err(_) => continue,
        };
        // Ad-trigger heuristic: third-party landing only.
        if landed.url.same_site(&pub_url) {
            continue;
        }
        ingested = graph.extend_from_log(session.log(), ingested);
        let involved = graph.involved_urls(&landed.url);
        let candidate = milkable::candidate(graph, &landed.url);
        let publisher_domain = arena.intern(&publisher.domain);
        let landing_e2ld = arena.intern(landed.url.e2ld_ref());
        visit.landings.push(LandingRecord {
            publisher: publisher.id,
            publisher_domain,
            ua: config.ua,
            vantage: config.vantage,
            click_ordinal: click - 1,
            landing_e2ld,
            dhash: landed.screenshot.dhash_via(cache),
            truth_is_attack: landed.page.visual.is_attack(),
            hops: landed.hops,
            involved_urls: involved,
            milkable_candidate: candidate,
            landing_url: landed.url,
            t: session.now(),
        });
        // Interacting with an ad navigated away: reopen and reload
        // (charged a little virtual time). The reload replays the
        // memoized publisher load while the host still vouches for it —
        // byte-identical log, no re-fetch, no re-serve.
        session.advance(SimDuration::from_minutes(1));
        session.reopen();
        if session.reload(&pub_url).is_err() {
            break;
        }
    }
    visit
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_simweb::{UaProfile, Vantage, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 31,
            n_publishers: 120,
            n_hidden_only_publishers: 10,
            n_advertisers: 25,
            campaign_scale: 0.3,
            error_rate: 0.0,
            ..Default::default()
        })
    }

    fn cfg() -> BrowserConfig {
        BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
    }

    /// One visit on fresh scratch buffers.
    fn visit_fresh(
        w: &World,
        p: &PublisherSite,
        config: BrowserConfig,
        start: SimTime,
        policy: CrawlPolicy,
        cache: Option<&RenderCache>,
        arena: &mut SymbolArena,
    ) -> SiteVisit {
        visit_publisher_reusing(w, p, config, start, policy, cache, arena, &mut VisitScratch::new())
    }

    #[test]
    fn visit_collects_third_party_landings() {
        let w = world();
        let mut arena = SymbolArena::new();
        let mut total = 0;
        for p in w.publishers().iter().take(40) {
            let v = visit_fresh(
                &w, p, cfg(), SimTime::EPOCH, CrawlPolicy::default(), None, &mut arena,
            );
            assert!(!v.load_failed);
            assert!(v.clicks <= CrawlPolicy::default().max_clicks);
            for l in &v.landings {
                assert_ne!(arena.resolve(l.landing_e2ld), seacma_simweb::e2ld(&p.domain));
                assert_eq!(arena.resolve(l.publisher_domain), p.domain);
                assert!(!l.involved_urls.is_empty());
            }
            total += v.landings.len();
        }
        assert!(total > 30, "only {total} landings over 40 sites");
    }

    #[test]
    fn ad_budget_is_respected() {
        let w = world();
        let mut arena = SymbolArena::new();
        let policy = CrawlPolicy { max_ads: 2, ..Default::default() };
        for p in w.publishers().iter().take(20) {
            let v = visit_fresh(&w, p, cfg(), SimTime::EPOCH, policy, None, &mut arena);
            assert!(v.landings.len() <= 2);
        }
    }

    #[test]
    fn visits_are_deterministic() {
        // Fresh arenas on both sides: the symbol values themselves must
        // reproduce, not just the strings behind them.
        let w = world();
        let p = &w.publishers()[3];
        let mut arena_a = SymbolArena::new();
        let mut arena_b = SymbolArena::new();
        let a = visit_fresh(&w, p, cfg(), SimTime(500), CrawlPolicy::default(), None, &mut arena_a);
        let b = visit_fresh(&w, p, cfg(), SimTime(500), CrawlPolicy::default(), None, &mut arena_b);
        assert_eq!(a, b);
        assert_eq!(arena_a.strings().to_vec(), arena_b.strings().to_vec());
    }

    #[test]
    fn hash_mode_with_cache_equals_full_render_visits() {
        // The farm's fast path (deferred hashes through a shared clean-render
        // cache) must reproduce the full-render visit records byte for
        // byte — SiteVisit stores dhashes, never pixels, so equality here
        // pins the whole record including landing hashes.
        let w = world();
        let cache = RenderCache::new();
        let mut arena_full = SymbolArena::new();
        let mut arena_fast = SymbolArena::new();
        for p in w.publishers().iter().take(30) {
            let full = visit_fresh(
                &w, p, cfg(), SimTime(77), CrawlPolicy::default(), None, &mut arena_full,
            );
            let fast = visit_fresh(
                &w,
                p,
                cfg().hash_screenshots(),
                SimTime(77),
                CrawlPolicy::default(),
                Some(&cache),
                &mut arena_fast,
            );
            assert_eq!(full, fast, "fast path diverged at {}", p.domain);
        }
        assert!(!cache.is_empty(), "cache must have been warmed");
    }

    #[test]
    fn attack_landings_have_milkable_candidates_when_tds_used() {
        let w = world();
        let mut arena = SymbolArena::new();
        let mut with_candidate = 0;
        let mut attacks = 0;
        for p in w.publishers().iter().take(120) {
            let v =
                visit_fresh(&w, p, cfg(), SimTime::EPOCH, CrawlPolicy::default(), None, &mut arena);
            for l in &v.landings {
                if l.truth_is_attack {
                    attacks += 1;
                    if l.milkable_candidate.is_some() {
                        with_candidate += 1;
                    }
                }
            }
        }
        assert!(attacks > 10, "need attacks to assess ({attacks})");
        assert!(
            with_candidate * 2 > attacks,
            "most attacks should have upstream candidates: {with_candidate}/{attacks}"
        );
    }

    #[test]
    fn reused_scratch_log_is_byte_identical_to_fresh_logs() {
        // The farm's scratch-threading fast path: one EventLog recycled
        // across a worker's whole job stream must leave every record —
        // and the arena symbol assignment — untouched.
        let w = world();
        let mut arena_fresh = SymbolArena::new();
        let mut arena_reuse = SymbolArena::new();
        let mut scratch = VisitScratch::new();
        for p in w.publishers().iter().take(40) {
            let fresh = visit_fresh(
                &w, p, cfg(), SimTime(250), CrawlPolicy::default(), None, &mut arena_fresh,
            );
            let reused = visit_publisher_reusing(
                &w, p, cfg(), SimTime(250), CrawlPolicy::default(), None, &mut arena_reuse,
                &mut scratch,
            );
            assert_eq!(fresh, reused, "scratch reuse diverged at {}", p.domain);
        }
        assert_eq!(arena_fresh.strings().to_vec(), arena_reuse.strings().to_vec());
        assert!(!scratch.log.is_empty(), "scratch holds the last visit's log");
    }

    #[test]
    fn stock_automation_still_completes_visits() {
        // A lockable browser must not hang the crawl loop — it reopens.
        let w = world();
        let mut arena = SymbolArena::new();
        let cfg = BrowserConfig::stock_automation(UaProfile::Ie10Windows, Vantage::Residential);
        for p in w.publishers().iter().take(30) {
            let v = visit_fresh(&w, p, cfg, SimTime::EPOCH, CrawlPolicy::default(), None, &mut arena);
            assert!(v.clicks > 0 || v.load_failed);
        }
    }
}
