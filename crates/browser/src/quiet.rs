//! A log-free browser for high-frequency re-visits.
//!
//! The milker re-visits each source every 15 virtual minutes for 14 days —
//! ~1,300 loads per source — and discards the instrumented event log of
//! every one of them (backtracking graphs are built during the crawl, not
//! during milking). [`QuietBrowser`] serves that workload: it follows the
//! exact redirect semantics of [`BrowserSession::navigate`](crate::session::BrowserSession::navigate) without
//! allocating log events, holds the per-source client profile once instead
//! of rebuilding it per visit, and caches the expensive clean pass of each
//! campaign creative's render so repeat screenshots pay only the
//! per-instance noise pass.
//!
//! Equivalence with the instrumented session (same final URL, same page,
//! same screenshot bits) is asserted by this module's tests; the milker's
//! thread-count-invariance suite pins it end to end.

use seacma_simweb::{ClientProfile, LiteResponse, Page, SimTime, Url, World};
use seacma_vision::bitmap::Bitmap;
use seacma_vision::dhash::Dhash;

use crate::render_cache::RenderCache;
use crate::session::{follow, screenshot_seed, BrowserConfig, NavError, MAX_REDIRECTS};

/// A reusable, log-free browser bound to one client configuration.
///
/// One instance per milking source outlives all of the source's visits:
/// the client profile is computed once and the clean-render cache warms up
/// on the first screenshot of each creative. Fleets that run many quiet
/// browsers (the parallel milker, the tracker's milking feed) share one
/// [`RenderCache`] across all of them via
/// [`with_cache`](QuietBrowser::with_cache), so each creative's clean pass
/// is paid once per fleet rather than once per source.
pub struct QuietBrowser<'w> {
    world: &'w World,
    client: ClientProfile,
    cache: CacheRef<'w>,
    memo: Option<ProbeMemo>,
}

/// Owned-or-borrowed clean-render memo.
enum CacheRef<'w> {
    Owned(RenderCache),
    Shared(&'w RenderCache),
}

impl CacheRef<'_> {
    fn get(&self) -> &RenderCache {
        match self {
            CacheRef::Owned(c) => c,
            CacheRef::Shared(c) => c,
        }
    }
}

/// A cached probe chain: the error-free redirect chain of `start`, valid
/// on `[from, stable_until)` (the intersection of the stable validity
/// horizons of every hop, as declared by `World::fetch_lite_stable`).
///
/// Transient errors are NOT baked in: they re-roll on 30-minute buckets,
/// much faster than the chain itself changes (ad-inventory buckets are 2
/// hours, campaign epochs ~10). Instead the memo records the hop URLs and
/// re-evaluates only the error draw per bucket — the first erroring hop
/// serves a blank document and becomes the landing, exactly as a fresh
/// walk would stop there. Inside the stable window a probe therefore
/// allocates nothing, bucket rotations included.
struct ProbeMemo {
    start: Url,
    from: SimTime,
    stable_until: SimTime,
    /// The redirect chain, `start` first. Only the first `MAX_REDIRECTS`
    /// entries are ever fetched by a real walk (the hop budget), so only
    /// those are consulted by the per-bucket error re-roll.
    hops: Vec<Url>,
    /// Landing when no hop errors: index into `hops`, or `Err` for
    /// chains ending in NXDOMAIN/refusal or exhausting the hop budget.
    clean: Result<usize, ()>,
    /// The 30-minute bucket `landing` was resolved for.
    bucket: u64,
    /// Landing at `bucket`: index into `hops`, or `Err`.
    landing: Result<usize, ()>,
}

impl<'w> QuietBrowser<'w> {
    /// Builds a quiet browser with the given instrumentation config and a
    /// private clean-render cache.
    pub fn new(world: &'w World, config: BrowserConfig) -> Self {
        Self {
            world,
            client: config.client(),
            cache: CacheRef::Owned(RenderCache::new()),
            memo: None,
        }
    }

    /// Builds a quiet browser whose renders and hashes go through a
    /// shared [`RenderCache`] (bit-identical to the private-cache paths).
    pub fn with_cache(world: &'w World, config: BrowserConfig, cache: &'w RenderCache) -> Self {
        Self { world, client: config.client(), cache: CacheRef::Shared(cache), memo: None }
    }

    /// The client profile pages observe.
    pub fn client(&self) -> &ClientProfile {
        &self.client
    }

    /// Loads `url` at time `t`, following redirects through the loop
    /// [`BrowserSession::navigate`](crate::BrowserSession::navigate) uses
    /// (same hop limit, same error mapping) but recording nothing.
    pub fn load(&self, url: &Url, t: SimTime) -> Result<(Url, Page), NavError> {
        follow(self.world, &self.client, url, t, |_, _, _| {})
    }

    /// Resolves where loading `url` at `t` would land — the final URL of
    /// the redirect chain — without synthesizing any document body (the
    /// `HEAD`-request view; see `World::fetch_lite`). Returns `Err` on
    /// exactly the chains where [`load`](Self::load) would, because
    /// `fetch_lite` classifies every URL exactly as `fetch` does. This is
    /// the milker's fast path: ~98 % of milking sessions land on an
    /// already-seen domain and need nothing but this answer.
    ///
    /// The walk sits behind the hosting layer's own cache headers: each
    /// hop of the chain declares how long its error-free answer stays
    /// valid (`World::fetch_lite_stable`), the chain is
    /// memoized for the intersection of those windows, and only the
    /// fast-rolling transient-error draw is re-evaluated — once per
    /// 30-minute bucket — against the recorded hops. Re-probing the same
    /// URL inside the window (the milker does ~40 consecutive ticks per
    /// rotation epoch) costs one comparison and allocates nothing.
    pub fn probe_cached(&mut self, url: &Url, t: SimTime) -> Result<&Url, ()> {
        let hit = self
            .memo
            .as_ref()
            .is_some_and(|m| m.from <= t && t < m.stable_until && m.start == *url);
        if !hit {
            let mut stable_until = SimTime(u64::MAX);
            let mut hops = vec![url.clone()];
            let mut clean: Result<usize, ()> = Err(());
            for _ in 0..MAX_REDIRECTS {
                let current = hops.last().expect("chain starts non-empty");
                let (resp, h) = self.world.fetch_lite_stable(current, &self.client, t);
                stable_until = stable_until.min(h);
                match resp {
                    LiteResponse::Redirect { to, .. } => {
                        hops.push(to);
                        continue;
                    }
                    LiteResponse::Doc => clean = Ok(hops.len() - 1),
                    LiteResponse::NxDomain | LiteResponse::Refused => clean = Err(()),
                }
                break;
            } // hop budget exhausted ⇒ clean stays Err, like `load`
            self.memo = Some(ProbeMemo {
                start: url.clone(),
                from: t,
                stable_until,
                hops,
                clean,
                // Poisoned so the first lookup below resolves the draw.
                bucket: u64::MAX,
                landing: Err(()),
            });
        }
        let m = self.memo.as_mut().expect("memo just filled");
        let bucket = t.minutes() / 30;
        if m.bucket != bucket {
            m.bucket = bucket;
            m.landing = m.clean;
            // A fresh walk draws the error check on every hop it fetches
            // (at most the hop budget) and stops at the first blank load.
            for (i, hop) in m.hops.iter().take(MAX_REDIRECTS).enumerate() {
                if self.world.transient_error(hop, t) {
                    m.landing = Ok(i);
                    break;
                }
            }
        }
        match m.landing {
            Ok(i) => Ok(&m.hops[i]),
            Err(()) => Err(()),
        }
    }

    /// Renders a screenshot of a loaded page, bit-identical to
    /// [`BrowserSession::render_screenshot`](crate::BrowserSession::render_screenshot)
    /// at clock `t`, reusing the cached clean render of the page's
    /// template (`render == render_from_clean ∘ render_clean` is asserted
    /// in seacma-simweb).
    pub fn render_screenshot(&self, url: &Url, page: &Page, t: SimTime) -> Bitmap {
        self.cache.get().render(page.visual, screenshot_seed(self.world, url, t))
    }

    /// The perceptual hash [`render_screenshot`](Self::render_screenshot)'s
    /// bitmap would hash to, without re-rendering the template: the
    /// per-instance noise goes into a scratch copy of the cached clean
    /// render, which is hashed and dropped
    /// (`VisualTemplate::dhash_from_clean`), and repeats of one
    /// `(template, seed)` are a lookup. This is all the milker's match
    /// check needs — it compares hashes, never pixels.
    pub fn screenshot_dhash(&self, url: &Url, page: &Page, t: SimTime) -> Dhash {
        self.cache.get().dhash(page.visual, screenshot_seed(self.world, url, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BrowserSession;
    use seacma_simweb::{UaProfile, Vantage, WorldConfig};

    /// The uncached chain walk [`QuietBrowser::probe_cached`] memoizes.
    fn probe(quiet: &QuietBrowser, url: &Url, t: SimTime) -> Result<Url, ()> {
        let mut current = url.clone();
        for _ in 0..MAX_REDIRECTS {
            match quiet.world.fetch_lite(&current, &quiet.client, t) {
                LiteResponse::Redirect { to, .. } => current = to,
                LiteResponse::Doc => return Ok(current),
                LiteResponse::NxDomain | LiteResponse::Refused => return Err(()),
            }
        }
        Err(())
    }

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 11,
            n_publishers: 200,
            n_hidden_only_publishers: 20,
            n_advertisers: 20,
            campaign_scale: 0.3,
            // Non-zero so transient blank loads exercise both paths the
            // same way.
            error_rate: 0.02,
            ..Default::default()
        })
    }

    #[test]
    fn quiet_load_matches_instrumented_navigate() {
        let w = world();
        let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
            .without_screenshots();
        let quiet = QuietBrowser::new(&w, cfg);
        let mut urls: Vec<Url> = w
            .campaigns()
            .iter()
            .filter_map(|c| c.tds_url(0))
            .take(10)
            .collect();
        urls.extend(w.publishers().iter().take(10).map(|p| p.url()));
        for t in [SimTime(0), SimTime(55), SimTime(60 * 24 * 3)] {
            for url in &urls {
                let mut session = BrowserSession::new(&w, cfg, t);
                match (quiet.load(url, t), session.navigate(url)) {
                    (Ok((qu, qp)), Ok(loaded)) => {
                        assert_eq!(qu, loaded.url);
                        assert_eq!(qp, loaded.page);
                    }
                    (Err(qe), Err(se)) => assert_eq!(qe, se),
                    (q, s) => panic!("paths diverged at {url} t={t}: {q:?} vs {s:?}"),
                }
            }
        }
    }

    #[test]
    fn probe_agrees_with_load_on_landing_and_failure() {
        let w = world();
        let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
            .without_screenshots();
        let quiet = QuietBrowser::new(&w, cfg);
        let mut urls: Vec<Url> = w.campaigns().iter().filter_map(|c| c.tds_url(0)).collect();
        urls.extend(w.publishers().iter().take(10).map(|p| p.url()));
        for hour in 0..48u64 {
            let t = SimTime(hour * 60);
            for url in &urls {
                match (probe(&quiet, url, t), quiet.load(url, t)) {
                    (Ok(pu), Ok((lu, _))) => assert_eq!(pu, lu, "landing mismatch at {url} t={t}"),
                    (Err(()), Err(_)) => {}
                    (p, l) => panic!("probe/load diverged at {url} t={t}: {p:?} vs {l:?}"),
                }
            }
        }
    }

    #[test]
    fn cached_probe_equals_fresh_probe_tick_by_tick() {
        // Milker-shaped access pattern: one URL re-probed every 15 minutes
        // for days, in a world with transient errors (30-minute re-rolls)
        // and domain rotation. The memoized path must agree with a fresh
        // chain walk at every single tick.
        let w = world();
        let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
            .without_screenshots();
        for url in w.campaigns().iter().filter_map(|c| c.tds_url(0)).take(6) {
            let mut cached = QuietBrowser::new(&w, cfg);
            let fresh = QuietBrowser::new(&w, cfg);
            let mut tick = 0u64;
            while tick < 4 * 24 * 60 {
                let t = SimTime(tick);
                assert_eq!(
                    cached.probe_cached(&url, t).ok().cloned(),
                    probe(&fresh, &url, t).ok(),
                    "cached/fresh divergence at {url} t={t}"
                );
                tick += 15;
            }
        }
    }

    #[test]
    fn quiet_screenshots_are_bit_identical() {
        let w = world();
        let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
            .without_screenshots();
        let quiet = QuietBrowser::new(&w, cfg);
        let c = w.campaigns().iter().find(|c| c.tds_domain.is_some()).unwrap();
        let url = c.tds_url(0).unwrap();
        for t in [SimTime(0), SimTime(29), SimTime(30), SimTime(60 * 24)] {
            let (fu, page) = quiet.load(&url, t).expect("tds resolves");
            let session = BrowserSession::new(&w, cfg, t);
            // Cache cold on the first iteration, warm afterwards: both
            // must agree with the uncached session render.
            assert_eq!(
                quiet.render_screenshot(&fu, &page, t),
                session.render_screenshot(&fu, &page),
            );
        }
    }

    #[test]
    fn shared_cache_browsers_match_private_cache_browsers() {
        // A fleet sharing one RenderCache (the parallel milker's shape)
        // must produce the same pixels and hash bits as browsers that each
        // own their cache.
        let w = world();
        let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
            .without_screenshots();
        let cache = crate::RenderCache::new();
        let shared_a = QuietBrowser::with_cache(&w, cfg, &cache);
        let shared_b = QuietBrowser::with_cache(&w, cfg, &cache);
        let private = QuietBrowser::new(&w, cfg);
        for url in w.campaigns().iter().filter_map(|c| c.tds_url(0)).take(6) {
            for t in [SimTime(0), SimTime(60 * 24)] {
                if let Ok((fu, page)) = private.load(&url, t) {
                    let want = private.render_screenshot(&fu, &page, t);
                    assert_eq!(shared_a.render_screenshot(&fu, &page, t), want);
                    assert_eq!(
                        shared_b.screenshot_dhash(&fu, &page, t),
                        seacma_vision::dhash::dhash128(&want)
                    );
                }
            }
        }
    }

    #[test]
    fn screenshot_dhash_equals_hash_of_rendered_screenshot() {
        // The render-free hash path must produce exactly the bits the
        // milker would get by rendering and hashing — across campaign
        // creatives, benign pages and both cold and warm clean caches.
        let w = world();
        let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
            .without_screenshots();
        let quiet = QuietBrowser::new(&w, cfg);
        let mut urls: Vec<Url> = w.campaigns().iter().filter_map(|c| c.tds_url(0)).take(8).collect();
        urls.extend(w.publishers().iter().take(4).map(|p| p.url()));
        for t in [SimTime(0), SimTime(31), SimTime(60 * 24 * 5)] {
            for url in &urls {
                if let Ok((fu, page)) = quiet.load(url, t) {
                    let shot = quiet.render_screenshot(&fu, &page, t);
                    assert_eq!(
                        quiet.screenshot_dhash(&fu, &page, t),
                        seacma_vision::dhash::dhash128(&shot),
                        "hash path divergence at {url} t={t}"
                    );
                }
            }
        }
    }
}
