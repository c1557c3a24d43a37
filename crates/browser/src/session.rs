//! A browsing session against the simulated web.
//!
//! One [`BrowserSession`] models one headless browser instance: a client
//! profile (UA emulation + vantage + automation fingerprint), an
//! instrumentation configuration (stealth patch, lock bypass), an event
//! log, and a virtual clock. Navigation follows redirect chains hop by
//! hop, logging everything the paper's instrumented Chromium logs.

use seacma_simweb::{
    det::det_hash,
    ClientProfile, ClickAction, HostResponse, LockTactic, Page, RedirectKind, SimDuration,
    SimTime, UaProfile, Url, Vantage, VisualTemplate, World,
};
use seacma_vision::bitmap::Bitmap;
use seacma_vision::dhash::{dhash128, Dhash};

use crate::log::{EventLog, NavCause};
use crate::render_cache::RenderCache;

/// Maximum redirect hops followed per navigation (matches browser
/// behaviour; the simulated chains are ≤ 4 hops).
pub const MAX_REDIRECTS: usize = 12;

/// The one redirect-following loop: fetches `url` as `client` at time `t`
/// and follows up to [`MAX_REDIRECTS`] hops to the document they end in,
/// handing each hop `(from, to, kind)` to `on_hop` as it is taken. Both
/// browsers navigate through this — the instrumented session's `on_hop`
/// logs and records the hop, the quiet browser's does nothing — so they
/// cannot disagree on a landing or on an error.
pub(crate) fn follow(
    world: &World,
    client: &ClientProfile,
    url: &Url,
    t: SimTime,
    mut on_hop: impl FnMut(Url, &Url, RedirectKind),
) -> Result<(Url, Page), NavError> {
    let mut current = url.clone();
    for _ in 0..MAX_REDIRECTS {
        match world.fetch(&current, client, t) {
            HostResponse::Redirect { to, kind } => {
                on_hop(current, &to, kind);
                current = to;
            }
            HostResponse::Page(page) => return Ok((current, *page)),
            HostResponse::NxDomain => return Err(NavError::NxDomain(current)),
            HostResponse::Refused => return Err(NavError::Refused(current)),
        }
    }
    Err(NavError::TooManyRedirects(current))
}

/// What the session captures of each loaded page's appearance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenshotMode {
    /// Capture nothing per load (on-demand rendering stays available
    /// through [`BrowserSession::render_screenshot`]). High-frequency
    /// milking sessions run here.
    Off,
    /// Capture only the perceptual hash's inputs — no pixel buffer is
    /// rendered per load, and none outlives a hash. The crawl farm runs
    /// here: everything downstream of a crawl consumes dhashes, not pixels.
    Hash,
    /// Render the full pixel buffer per load (the paper's instrumented
    /// Chromium behaviour; required by dataset exports that write PGMs).
    Full,
}

/// Browser instrumentation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrowserConfig {
    /// Emulated browser/OS.
    pub ua: UaProfile,
    /// IP vantage the session browses from.
    pub vantage: Vantage,
    /// Source-level stealth patch: hide `navigator.webdriver` from page
    /// JS. Stock DevTools automation leaves it visible (§3.2).
    pub stealth: bool,
    /// Source-level bypass of page-locking tactics (modal loops, auth
    /// storms, `onbeforeunload`). Without it the session wedges on
    /// aggressive SE pages.
    pub bypass_locks: bool,
    /// Per-load screenshot capture policy.
    pub screenshots: ScreenshotMode,
}

impl BrowserConfig {
    /// The fully instrumented crawler configuration used in the paper's
    /// measurements.
    pub fn instrumented(ua: UaProfile, vantage: Vantage) -> Self {
        Self { ua, vantage, stealth: true, bypass_locks: true, screenshots: ScreenshotMode::Full }
    }

    /// A stock automation tool (Selenium-like): detectable and lockable.
    pub fn stock_automation(ua: UaProfile, vantage: Vantage) -> Self {
        Self { ua, vantage, stealth: false, bypass_locks: false, screenshots: ScreenshotMode::Full }
    }

    /// Disables per-load screenshot capture (on-demand rendering stays
    /// available through [`BrowserSession::render_screenshot`]).
    pub fn without_screenshots(mut self) -> Self {
        self.screenshots = ScreenshotMode::Off;
        self
    }

    /// Captures only perceptual hashes per load — the render-free crawl
    /// fast path ([`ScreenshotMode::Hash`]).
    pub fn hash_screenshots(mut self) -> Self {
        self.screenshots = ScreenshotMode::Hash;
        self
    }

    /// The client profile pages observe.
    pub fn client(&self) -> ClientProfile {
        ClientProfile { ua: self.ua, vantage: self.vantage, webdriver_visible: !self.stealth }
    }
}

/// What a load captured of the page's appearance, per the session's
/// [`ScreenshotMode`].
#[derive(Debug, Clone, PartialEq)]
pub enum Screenshot {
    /// Capture was off for this load.
    Skipped,
    /// The hash's inputs were captured; the noise pass runs on demand.
    /// Most loads in a crawl (publisher reloads, same-domain landings)
    /// never have their hash read, so deferring the pass — rather than
    /// hashing eagerly per load — is where the crawl fast path's time
    /// goes from: only recorded landings ever pay it.
    Deferred {
        /// Visual template of the loaded page.
        template: VisualTemplate,
        /// Instance-noise seed the capture would render with.
        seed: u64,
    },
    /// The full pixel buffer was rendered.
    Rendered(Bitmap),
}

impl Screenshot {
    /// The perceptual hash of this capture. For a `Rendered` buffer this
    /// hashes the pixels; for `Deferred` it noises and hashes a scratch
    /// copy of the template's clean render — bit-identical by the
    /// `dhash_from_clean == dhash128 ∘ render` identity. A `Skipped`
    /// capture hashes to `Dhash(0)`, exactly what the placeholder 1×1
    /// bitmap of the pre-mode API hashed to (constant images hash to
    /// zero).
    pub fn dhash(&self) -> Dhash {
        self.dhash_via(None)
    }

    /// [`dhash`](Self::dhash), resolving a `Deferred` capture's clean
    /// render through `cache` when one is supplied (the crawl farm passes
    /// its crawl-wide [`RenderCache`], so each template's clean pass runs
    /// once per crawl, not once per recorded landing).
    pub fn dhash_via(&self, cache: Option<&RenderCache>) -> Dhash {
        match self {
            Screenshot::Skipped => Dhash(0),
            Screenshot::Deferred { template, seed } => match cache {
                Some(cache) => cache.dhash(*template, *seed),
                None => VisualTemplate::dhash_from_clean(&template.render_clean(), *seed),
            },
            Screenshot::Rendered(bm) => dhash128(bm),
        }
    }

    /// The pixel buffer, when one was rendered.
    pub fn bitmap(&self) -> Option<&Bitmap> {
        match self {
            Screenshot::Rendered(bm) => Some(bm),
            _ => None,
        }
    }
}

/// A successfully loaded document plus its screenshot capture.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedPage {
    /// Final URL after all redirects.
    pub url: Url,
    /// The document.
    pub page: Page,
    /// Screenshot capture, per the session's [`ScreenshotMode`].
    pub screenshot: Screenshot,
    /// Redirect hops traversed to get here: `(from, to, kind)`.
    pub hops: Vec<(Url, Url, RedirectKind)>,
}

/// Navigation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NavError {
    /// Domain did not resolve.
    NxDomain(Url),
    /// Server refused to serve a document.
    Refused(Url),
    /// Redirect chain exceeded [`MAX_REDIRECTS`].
    TooManyRedirects(Url),
    /// The session is wedged on a locking page (lock bypass disabled) and
    /// cannot navigate away.
    BrowserLocked,
}

impl std::fmt::Display for NavError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NavError::NxDomain(u) => write!(f, "NXDOMAIN for {u}"),
            NavError::Refused(u) => write!(f, "refused: {u}"),
            NavError::TooManyRedirects(u) => write!(f, "too many redirects at {u}"),
            NavError::BrowserLocked => write!(f, "browser locked by page"),
        }
    }
}

impl std::error::Error for NavError {}

/// One live browser instance.
///
/// ```
/// use seacma_browser::{BrowserConfig, BrowserSession};
/// use seacma_simweb::{SimTime, UaProfile, Vantage, World, WorldConfig};
///
/// let world = World::generate(WorldConfig {
///     n_publishers: 30,
///     n_hidden_only_publishers: 0,
///     n_advertisers: 5,
///     error_rate: 0.0,
///     ..Default::default()
/// });
/// let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);
/// let mut session = BrowserSession::new(&world, cfg, SimTime::EPOCH);
/// // Milkable TDS URLs redirect to the campaign's current attack domain;
/// // every hop lands in the instrumented log.
/// let campaign = world.campaigns().iter().find(|c| c.tds_domain.is_some()).unwrap();
/// let loaded = session.navigate(&campaign.tds_url(0).unwrap()).unwrap();
/// assert!(loaded.page.visual.is_attack());
/// assert_eq!(session.log().redirects().count(), loaded.hops.len());
/// ```
pub struct BrowserSession<'w> {
    world: &'w World,
    config: BrowserConfig,
    log: EventLog,
    clock: SimTime,
    /// Set when a locking page wedged the (non-bypassing) session.
    locked: bool,
    /// Shared clean-render memo, when the caller farms many sessions.
    cache: Option<&'w RenderCache>,
    /// The last direct load whose host vouched for a validity window —
    /// [`reload`](Self::reload) replays it instead of re-fetching.
    memo: Option<ReloadMemo>,
}

/// What [`BrowserSession::reload`] needs to reproduce a direct load
/// without touching the simulated network: the event range the load
/// appended (replayed verbatim from the log's interned storage), the
/// navigation outcome, and the lock state it left behind.
struct ReloadMemo {
    url: Url,
    /// Exclusive end of the host-declared validity window.
    until: SimTime,
    /// Half-open range of log events the load appended.
    events: std::ops::Range<usize>,
    outcome: Result<(), NavError>,
    locked_after: bool,
}

impl<'w> BrowserSession<'w> {
    /// Opens a browser at simulated time `start`.
    pub fn new(world: &'w World, config: BrowserConfig, start: SimTime) -> Self {
        Self {
            world,
            config,
            log: EventLog::new(),
            clock: start,
            locked: false,
            cache: None,
            memo: None,
        }
    }

    /// Opens a browser that renders and hashes screenshots through a
    /// shared [`RenderCache`]. Captures are bit-identical to the uncached
    /// session's — the cache only deduplicates the template-constant
    /// clean pass across sessions and worker threads.
    pub fn with_cache(
        world: &'w World,
        config: BrowserConfig,
        start: SimTime,
        cache: &'w RenderCache,
    ) -> Self {
        Self { cache: Some(cache), ..Self::new(world, config, start) }
    }

    /// Opens a browser whose event storage recycles `log`'s buffers: the
    /// log is cleared first (events and interner tables emptied, capacity
    /// kept), so the session is observationally identical to one opened
    /// with [`new`](Self::new)/[`with_cache`](Self::with_cache). The
    /// crawl farm hands each visit the previous visit's log this way,
    /// amortizing per-visit log allocations across a whole worker.
    pub fn with_scratch(
        world: &'w World,
        config: BrowserConfig,
        start: SimTime,
        cache: Option<&'w RenderCache>,
        mut log: EventLog,
    ) -> Self {
        log.clear();
        Self { world, config, log, clock: start, locked: false, cache, memo: None }
    }

    /// The session's instrumentation configuration.
    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advances the virtual clock (the crawler charges each page
    /// interaction a little wall time).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock = self.clock + d;
    }

    /// The accumulated event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Consumes the session, returning its log.
    pub fn into_log(self) -> EventLog {
        self.log
    }

    /// Whether the session is wedged on a locking page.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Re-opens the browser (what the crawler does after each
    /// interaction that navigated away — §3.2 — and the only way out of a
    /// wedged session). The log is preserved.
    pub fn reopen(&mut self) {
        self.locked = false;
    }

    /// Navigates to `url`, following redirects and logging every hop.
    ///
    /// When the simulated host vouches for the response's validity window
    /// ([`World::publisher_content_horizon`]), the load is memoized so a
    /// subsequent [`reload`](Self::reload) of the same URL inside the
    /// window replays it without re-fetching.
    pub fn navigate(&mut self, url: &Url) -> Result<LoadedPage, NavError> {
        if self.locked {
            // A wedged session refuses before any event is logged; there
            // is nothing to memoize.
            return Err(NavError::BrowserLocked);
        }
        let start = self.log.len();
        let result = self.navigate_caused(url, NavCause::Initial, None);
        self.memo = self.world.publisher_content_horizon(url, self.clock).map(|until| ReloadMemo {
            url: url.clone(),
            until,
            events: start..self.log.len(),
            outcome: result.as_ref().map(|_| ()).map_err(NavError::clone),
            locked_after: self.locked,
        });
        result
    }

    /// Reloads `url` for its side effects — log events, lock state,
    /// navigation outcome — discarding the document. Equivalent to
    /// `self.navigate(url).map(drop)`, byte for byte in the event log,
    /// but when the last [`navigate`](Self::navigate) hit the same URL
    /// inside its host-declared validity window, the recorded events are
    /// replayed from the log's interned storage instead of re-resolving
    /// and re-serving the page. This is the crawl loop's hot edge: the
    /// publisher page is reloaded after every ad interaction, and the
    /// replay allocates nothing beyond `Vec` growth.
    pub fn reload(&mut self, url: &Url) -> Result<(), NavError> {
        if self.locked {
            return Err(NavError::BrowserLocked);
        }
        if let Some(m) = &self.memo {
            if m.url == *url && self.clock < m.until {
                let (events, outcome, locked) =
                    (m.events.clone(), m.outcome.clone(), m.locked_after);
                self.log.replay(events);
                self.locked = locked;
                return outcome;
            }
        }
        self.navigate(url).map(drop)
    }

    /// Navigates with an explicit cause/initiator (used internally for
    /// clicks and tab opens).
    pub fn navigate_caused(
        &mut self,
        url: &Url,
        cause: NavCause,
        initiator: Option<&Url>,
    ) -> Result<LoadedPage, NavError> {
        if self.locked {
            return Err(NavError::BrowserLocked);
        }
        self.log.navigation_start(url, cause, initiator);

        let client = self.config.client();
        let mut hops = Vec::new();
        let log = &mut self.log;
        let (landing, page) = follow(self.world, &client, url, self.clock, |from, to, kind| {
            log.redirected(&from, to, kind);
            if !kind.is_http() {
                // JS redirections surface as API calls in the
                // instrumented log.
                let api = match kind {
                    RedirectKind::JsLocation => "window.location",
                    RedirectKind::JsPushState => "history.pushState",
                    RedirectKind::JsSetTimeout => "window.setTimeout",
                    RedirectKind::MetaRefresh => "meta.refresh",
                    _ => unreachable!("http kinds filtered above"),
                };
                log.js_api_call(&from, api);
            }
            hops.push((from, to.clone(), kind));
        })?;
        Ok(self.finish_load(page, landing, hops))
    }

    fn finish_load(&mut self, page: Page, url: Url, hops: Vec<(Url, Url, RedirectKind)>) -> LoadedPage {
        self.log.page_loaded(&url, &page.title);
        for s in &page.scripts {
            self.log.script_loaded(&url, &s.src);
        }
        if page.notification_prompt {
            self.log.notification_prompt(&url);
        }
        for &tactic in &page.locking {
            let api = match tactic {
                LockTactic::ModalDialogLoop => "window.alert",
                LockTactic::AuthDialogStorm => "auth.dialog",
                LockTactic::OnBeforeUnload => "window.onbeforeunload",
            };
            self.log.js_api_call(&url, api);
            if self.config.bypass_locks {
                self.log.lock_bypassed(&url, tactic);
            }
        }
        if page.is_locking() && !self.config.bypass_locks {
            self.locked = true;
        }
        let screenshot = match self.config.screenshots {
            ScreenshotMode::Off => Screenshot::Skipped,
            ScreenshotMode::Hash => Screenshot::Deferred {
                template: page.visual,
                seed: screenshot_seed(self.world, &url, self.clock),
            },
            ScreenshotMode::Full => Screenshot::Rendered(self.render_screenshot(&url, &page)),
        };
        LoadedPage { url, page, screenshot, hops }
    }

    /// Renders a screenshot of a loaded page. Instance noise is keyed by
    /// (URL, time) so repeated visits to one campaign differ slightly, as
    /// real creatives do.
    pub fn render_screenshot(&self, url: &Url, page: &Page) -> Bitmap {
        let seed = screenshot_seed(self.world, url, self.clock);
        match self.cache {
            Some(cache) => cache.render(page.visual, seed),
            None => page.visual.render(seed),
        }
    }

    /// Clicks an element's action (or a page-level ad listener action),
    /// returning the landing page when the action navigates somewhere.
    ///
    /// `opener` is the URL of the page the click happens on.
    pub fn click(
        &mut self,
        opener: &Url,
        action: &ClickAction,
    ) -> Result<Option<LoadedPage>, NavError> {
        if self.locked {
            return Err(NavError::BrowserLocked);
        }
        match action {
            ClickAction::None => Ok(None),
            ClickAction::OpenTab(target) => {
                self.log.tab_opened(opener, target);
                self.navigate_caused(target, NavCause::WindowOpen, Some(opener)).map(Some)
            }
            ClickAction::Navigate(target) => self
                .navigate_caused(target, NavCause::UserClick, Some(opener))
                .map(Some),
            ClickAction::Download(payload) => {
                self.log.download_triggered(opener, *payload);
                Ok(None)
            }
            ClickAction::AllowNotifications => {
                self.log.js_api_call(opener, "Notification.requestPermission");
                Ok(None)
            }
        }
    }
}

/// Screenshot instance-noise seed for a page at `url` observed at `t`:
/// keyed by (world, URL, 30-minute window) so repeated visits within a
/// window render identically while visits across windows drift slightly.
/// Shared by [`BrowserSession::render_screenshot`] and the quiet milking
/// browser so the two paths can never disagree on a rendered pixel.
///
/// The URL word is [`Url::det_word`] — equal to
/// `str_word(&url.to_string())` by the pinned identity in `seacma-simweb`,
/// but computed without materializing the textual form, so this runs on
/// every captured load without allocating.
pub(crate) fn screenshot_seed(world: &World, url: &Url, t: SimTime) -> u64 {
    det_hash(&[world.seed(), 0x5C4EE, url.det_word(), t.minutes() / 30])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::EventRef;
    use seacma_simweb::{SeCategory, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 11,
            n_publishers: 200,
            n_hidden_only_publishers: 20,
            n_advertisers: 20,
            campaign_scale: 0.3,
            error_rate: 0.0,
            ..Default::default()
        })
    }

    #[test]
    fn navigate_logs_full_chain() {
        let w = world();
        let mut s = BrowserSession::new(
            &w,
            BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential),
            SimTime::EPOCH,
        );
        let p = &w.publishers()[0];
        let loaded = s.navigate(&p.url()).expect("publisher loads");
        assert_eq!(loaded.url, p.url());
        assert!(s.log().loaded_urls().count() >= 1);
        assert!(
            s.log().events().any(|e| matches!(e, EventRef::ScriptLoaded { .. })),
            "script loads must be logged"
        );
    }

    #[test]
    fn redirect_chains_are_recorded_with_kinds() {
        let w = world();
        let mut s = BrowserSession::new(
            &w,
            BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential),
            SimTime::EPOCH,
        );
        // TDS URL → JsSetTimeout redirect → attack page.
        let c = w.campaigns().iter().find(|c| c.tds_domain.is_some()).unwrap();
        let tds = c.tds_url(0).unwrap();
        let loaded = s.navigate(&tds).expect("tds resolves");
        assert_eq!(loaded.hops.len(), 1);
        assert_eq!(loaded.hops[0].2, RedirectKind::JsSetTimeout);
        // The JS navigation also shows up as an instrumented API call.
        assert!(s
            .log()
            .events()
            .any(|e| matches!(e, EventRef::JsApiCall { api, .. } if api == "window.setTimeout")));
    }

    #[test]
    fn stock_automation_wedges_on_locking_pages() {
        let w = world();
        let mut s = BrowserSession::new(
            &w,
            BrowserConfig::stock_automation(UaProfile::Ie10Windows, Vantage::Residential),
            SimTime::EPOCH,
        );
        let c = w
            .campaigns()
            .iter()
            .find(|c| c.category == SeCategory::TechnicalSupport)
            .unwrap();
        let url = c.attack_url(w.seed(), SimTime::EPOCH, 0);
        let loaded = s.navigate(&url).expect("page loads before wedging");
        assert!(loaded.page.is_locking());
        assert!(s.is_locked());
        // Can't navigate away…
        let err = s.navigate(&w.publishers()[0].url()).unwrap_err();
        assert_eq!(err, NavError::BrowserLocked);
        // …until the crawler kills and reopens the browser.
        s.reopen();
        assert!(s.navigate(&w.publishers()[0].url()).is_ok());
    }

    #[test]
    fn instrumented_browser_bypasses_locks() {
        let w = world();
        let mut s = BrowserSession::new(
            &w,
            BrowserConfig::instrumented(UaProfile::Ie10Windows, Vantage::Residential),
            SimTime::EPOCH,
        );
        let c = w
            .campaigns()
            .iter()
            .find(|c| c.category == SeCategory::TechnicalSupport)
            .unwrap();
        let url = c.attack_url(w.seed(), SimTime::EPOCH, 0);
        s.navigate(&url).expect("page loads");
        assert!(!s.is_locked());
        assert!(s
            .log()
            .events()
            .any(|e| matches!(e, EventRef::LockBypassed { .. })));
        assert!(s.navigate(&w.publishers()[0].url()).is_ok());
    }

    #[test]
    fn click_opens_tab_and_logs_opener() {
        let w = world();
        let mut s = BrowserSession::new(
            &w,
            BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential),
            SimTime::EPOCH,
        );
        let p = w.publishers().iter().find(|p| !p.stale).unwrap();
        let loaded = s.navigate(&p.url()).unwrap();
        let action = loaded.page.ad_click_chain[0].clone();
        let landing = s.click(&loaded.url, &action).expect("click ok");
        assert!(landing.is_some(), "ad click must navigate somewhere");
        assert!(s
            .log()
            .events()
            .any(|e| matches!(e, EventRef::TabOpened { opener, .. } if *opener == p.url())));
    }

    #[test]
    fn download_click_is_captured_not_navigated() {
        let w = world();
        let mut s = BrowserSession::new(
            &w,
            BrowserConfig::instrumented(UaProfile::Ie10Windows, Vantage::Residential),
            SimTime::EPOCH,
        );
        let c = w
            .campaigns()
            .iter()
            .find(|c| c.category == SeCategory::FakeSoftware)
            .unwrap();
        let url = c.attack_url(w.seed(), SimTime::EPOCH, 0);
        let loaded = s.navigate(&url).unwrap();
        let dl = loaded.page.elements[0].action.clone();
        let res = s.click(&loaded.url, &dl).unwrap();
        assert!(res.is_none());
        assert_eq!(s.log().downloads().count(), 1);
    }

    #[test]
    fn screenshots_of_same_campaign_cluster_together() {
        use seacma_vision::dhash::hamming;
        let w = world();
        let client_cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);
        let c = w.campaigns().iter().find(|c| c.tds_domain.is_some()).unwrap();
        let mut hashes = Vec::new();
        for k in 0..3u64 {
            let mut s = BrowserSession::new(&w, client_cfg, SimTime(k * 60));
            let tds = c.tds_url(0).unwrap();
            let loaded = s.navigate(&tds).unwrap();
            hashes.push(loaded.screenshot.dhash());
        }
        for pair in hashes.windows(2) {
            assert!(hamming(pair[0], pair[1]) <= 12);
        }
    }

    #[test]
    fn screenshot_modes_agree_on_the_hash() {
        // Off / Hash / Full captures of the same load must agree on the
        // perceptual hash (Skipped excepted), cached or not.
        let w = world();
        let base = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);
        let cache = crate::RenderCache::new();
        let c = w.campaigns().iter().find(|c| c.tds_domain.is_some()).unwrap();
        let url = c.tds_url(0).unwrap();
        for t in [SimTime(0), SimTime(45)] {
            let full = BrowserSession::new(&w, base, t).navigate(&url).unwrap();
            let hash = BrowserSession::new(&w, base.hash_screenshots(), t)
                .navigate(&url)
                .unwrap();
            let cached = BrowserSession::with_cache(&w, base.hash_screenshots(), t, &cache)
                .navigate(&url)
                .unwrap();
            let cached_full = BrowserSession::with_cache(&w, base, t, &cache)
                .navigate(&url)
                .unwrap();
            assert!(matches!(hash.screenshot, Screenshot::Deferred { .. }));
            assert_eq!(full.screenshot.dhash(), hash.screenshot.dhash());
            assert_eq!(full.screenshot.dhash(), cached.screenshot.dhash());
            assert_eq!(full.screenshot, cached_full.screenshot, "cached render must be exact");
            let off = BrowserSession::new(&w, base.without_screenshots(), t)
                .navigate(&url)
                .unwrap();
            assert_eq!(off.screenshot, Screenshot::Skipped);
            assert_eq!(off.screenshot.bitmap(), None);
        }
    }

    #[test]
    fn screenshot_seed_matches_textual_hash() {
        // Regression pin for the zero-alloc seed: the interned-word form
        // must equal the original `str_word(&url.to_string())` round-trip
        // for every URL shape the crawl produces.
        use seacma_simweb::det::str_word;
        let w = world();
        let urls = [
            w.publishers()[0].url(),
            w.campaigns()[0].attack_url(w.seed(), SimTime::EPOCH, 0),
            Url::http("srv.adnet.com", "/banners/asd.php?z=1"),
        ];
        for url in &urls {
            for t in [SimTime(0), SimTime(29), SimTime(30), SimTime(1441)] {
                assert_eq!(
                    screenshot_seed(&w, url, t),
                    det_hash(&[w.seed(), 0x5C4EE, str_word(&url.to_string()), t.minutes() / 30]),
                    "seed diverged for {url} at {t:?}"
                );
            }
        }
    }

    #[test]
    fn reload_is_byte_identical_to_navigate() {
        // The memoized publisher reload must be indistinguishable — in
        // the event log, the outcome, and the lock state — from a fresh
        // navigate at the same instant, in a world where the 30-minute
        // transient-error draw is live (so replays that crossed a bucket
        // boundary would be caught) and with random advances that both
        // stay inside and cross the validity window.
        let noisy = World::generate(WorldConfig {
            seed: 23,
            n_publishers: 80,
            n_hidden_only_publishers: 5,
            n_advertisers: 10,
            campaign_scale: 0.4,
            error_rate: 0.12,
            ..Default::default()
        });
        let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential)
            .hash_screenshots();
        seacma_util::forall!(40, |rng| {
            let p = &noisy.publishers()[rng.below(noisy.publishers().len() as u64) as usize];
            let url = p.url();
            let t0 = SimTime(rng.below(10 * 24 * 60));
            let mut memo = BrowserSession::new(&noisy, cfg, t0);
            let mut fresh = BrowserSession::new(&noisy, cfg, t0);
            assert_eq!(memo.navigate(&url).is_ok(), fresh.navigate(&url).is_ok());
            for _ in 0..4 {
                let d = SimDuration::from_minutes(rng.below(25));
                memo.advance(d);
                fresh.advance(d);
                assert_eq!(memo.reload(&url), fresh.navigate(&url).map(drop));
                assert_eq!(memo.now(), fresh.now());
            }
            assert_eq!(memo.log(), fresh.log(), "memoized log diverged for {url}");
            assert_eq!(memo.is_locked(), fresh.is_locked());
        });
    }

    #[test]
    fn clock_advances_only_on_request() {
        let w = world();
        let mut s = BrowserSession::new(
            &w,
            BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential),
            SimTime(100),
        );
        assert_eq!(s.now(), SimTime(100));
        s.advance(SimDuration::from_minutes(2));
        assert_eq!(s.now(), SimTime(102));
    }
}
