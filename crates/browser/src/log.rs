//! JSgraph-style fine-grained browser event logs.
//!
//! The paper's instrumented Chromium "continuously records fine-grained
//! details about events internal to the browser, such as calls to any JS
//! API, all JS code compiled and executed by the browser, all visited URLs
//! (including any redirections)" (§3.2). These logs — not HTML or network
//! traces — are what makes backtracking graphs and ad attribution possible,
//! because obfuscated ad code suppresses referrers (§3.4).
//!
//! # Storage
//!
//! A session log references the same handful of URLs over and over (the
//! publisher page, a few click URLs, the redirect chain, the landing), so
//! the log stores events in a compact column form: every URL and string
//! (title, API name) is interned into a per-log [`Interner`] and events
//! carry dense `u32` ids. Appending an event whose strings were already
//! seen allocates nothing; each distinct URL is cloned exactly once per
//! log. Writers use the typed appenders ([`EventLog::redirected`], …);
//! readers iterate borrowed [`EventRef`]s.

use seacma_util::sym::Interner;

use seacma_simweb::{FilePayload, LockTactic, RedirectKind, Url};

/// Why a navigation started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NavCause {
    /// Address-bar / crawler-initiated load.
    Initial,
    /// A user (or crawler) click on page content.
    UserClick,
    /// A redirect of the given kind.
    Redirect(RedirectKind),
    /// `window.open` from another tab.
    WindowOpen,
}

/// One event as stored: URLs and strings are dense ids into the owning
/// log's interners, so the whole event is `Copy` and replaying a recorded
/// range (the session's reload memo) costs plain `Vec` pushes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CompactEvent {
    NavigationStart { url: u32, cause: NavCause, initiator: Option<u32> },
    PageLoaded { url: u32, title: u32 },
    Redirected { from: u32, to: u32, kind: RedirectKind },
    ScriptLoaded { page: u32, src: u32 },
    JsApiCall { page: u32, api: u32 },
    LockBypassed { page: u32, tactic: LockTactic },
    TabOpened { opener: u32, url: u32 },
    DownloadTriggered { page: u32, payload: FilePayload },
    NotificationPrompt { page: u32 },
}

/// One instrumented browser event, borrowed out of an [`EventLog`].
///
/// URL/string fields are borrowed from the log's interners; copyable
/// scalars are by value. This is the log's one public event type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventRef<'l> {
    /// A navigation began toward `url`.
    NavigationStart {
        /// Navigation target.
        url: &'l Url,
        /// What initiated it.
        cause: NavCause,
        /// URL of the document that initiated it, when any.
        initiator: Option<&'l Url>,
    },
    /// A document finished loading.
    PageLoaded {
        /// Final URL of the document.
        url: &'l Url,
        /// Document title.
        title: &'l str,
    },
    /// The browser followed a redirect hop.
    Redirected {
        /// Source URL.
        from: &'l Url,
        /// Target URL.
        to: &'l Url,
        /// Mechanism (HTTP, meta refresh, JS…).
        kind: RedirectKind,
    },
    /// A document included a script.
    ScriptLoaded {
        /// Document URL.
        page: &'l Url,
        /// Script source URL.
        src: &'l Url,
    },
    /// A monitored JS API was invoked (the Blink–JS binding
    /// instrumentation logs *all* of them; we record the security-relevant
    /// subset the analyses consume).
    JsApiCall {
        /// Document URL.
        page: &'l Url,
        /// API name.
        api: &'l str,
    },
    /// A page-locking tactic fired and was neutralized by the browser
    /// instrumentation.
    LockBypassed {
        /// Document URL.
        page: &'l Url,
        /// The tactic bypassed.
        tactic: LockTactic,
    },
    /// A new tab opened.
    TabOpened {
        /// URL of the opener document.
        opener: &'l Url,
        /// Initial URL of the new tab.
        url: &'l Url,
    },
    /// Interaction triggered a file download.
    DownloadTriggered {
        /// Document URL.
        page: &'l Url,
        /// The downloaded payload.
        payload: FilePayload,
    },
    /// The page requested push-notification permission.
    NotificationPrompt {
        /// Document URL.
        page: &'l Url,
    },
}

/// An append-only event log for one browsing session.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Every distinct URL mentioned by an event, in first-seen order.
    urls: Interner<Url>,
    /// Every distinct title / API-name string, in first-seen order.
    strs: Interner<String>,
    events: Vec<CompactEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the log — events and both interner tables — while keeping
    /// their capacity. A cleared log is observationally identical to
    /// [`EventLog::new`] (ids restart from 0 as a pure function of the
    /// event sequence), which is what lets the crawl farm recycle one
    /// log's buffers across every visit a worker performs.
    pub fn clear(&mut self) {
        self.urls.clear();
        self.strs.clear();
        self.events.clear();
    }

    fn url(&self, id: u32) -> &Url {
        self.urls.resolve(id)
    }

    fn str(&self, id: u32) -> &str {
        self.strs.resolve(id)
    }

    /// Records an [`EventRef::NavigationStart`].
    pub fn navigation_start(&mut self, url: &Url, cause: NavCause, initiator: Option<&Url>) {
        let url = self.urls.intern(url);
        let initiator = initiator.map(|i| self.urls.intern(i));
        self.events.push(CompactEvent::NavigationStart { url, cause, initiator });
    }

    /// Records an [`EventRef::PageLoaded`].
    pub fn page_loaded(&mut self, url: &Url, title: &str) {
        let url = self.urls.intern(url);
        let title = self.strs.intern(title);
        self.events.push(CompactEvent::PageLoaded { url, title });
    }

    /// Records an [`EventRef::Redirected`].
    pub fn redirected(&mut self, from: &Url, to: &Url, kind: RedirectKind) {
        let from = self.urls.intern(from);
        let to = self.urls.intern(to);
        self.events.push(CompactEvent::Redirected { from, to, kind });
    }

    /// Records an [`EventRef::ScriptLoaded`].
    pub fn script_loaded(&mut self, page: &Url, src: &Url) {
        let page = self.urls.intern(page);
        let src = self.urls.intern(src);
        self.events.push(CompactEvent::ScriptLoaded { page, src });
    }

    /// Records an [`EventRef::JsApiCall`].
    pub fn js_api_call(&mut self, page: &Url, api: &str) {
        let page = self.urls.intern(page);
        let api = self.strs.intern(api);
        self.events.push(CompactEvent::JsApiCall { page, api });
    }

    /// Records an [`EventRef::LockBypassed`].
    pub fn lock_bypassed(&mut self, page: &Url, tactic: LockTactic) {
        let page = self.urls.intern(page);
        self.events.push(CompactEvent::LockBypassed { page, tactic });
    }

    /// Records an [`EventRef::TabOpened`].
    pub fn tab_opened(&mut self, opener: &Url, url: &Url) {
        let opener = self.urls.intern(opener);
        let url = self.urls.intern(url);
        self.events.push(CompactEvent::TabOpened { opener, url });
    }

    /// Records an [`EventRef::DownloadTriggered`].
    pub fn download_triggered(&mut self, page: &Url, payload: FilePayload) {
        let page = self.urls.intern(page);
        self.events.push(CompactEvent::DownloadTriggered { page, payload });
    }

    /// Records an [`EventRef::NotificationPrompt`].
    pub fn notification_prompt(&mut self, page: &Url) {
        let page = self.urls.intern(page);
        self.events.push(CompactEvent::NotificationPrompt { page });
    }

    /// Re-appends the recorded events `range` (half-open indices into the
    /// event sequence) verbatim. Every referenced URL/string is already
    /// interned, so a replay allocates nothing beyond `Vec` growth — this
    /// is what makes the session's memoized page reload byte-identical to
    /// a fresh load for free.
    pub(crate) fn replay(&mut self, range: std::ops::Range<usize>) {
        self.events.reserve(range.len());
        for i in range {
            let e = self.events[i];
            self.events.push(e);
        }
    }

    /// All events in order, as borrowed views.
    pub fn events(&self) -> impl Iterator<Item = EventRef<'_>> {
        self.events.iter().map(|e| self.event_ref(e))
    }

    fn event_ref(&self, e: &CompactEvent) -> EventRef<'_> {
        match *e {
            CompactEvent::NavigationStart { url, cause, initiator } => EventRef::NavigationStart {
                url: self.url(url),
                cause,
                initiator: initiator.map(|i| self.url(i)),
            },
            CompactEvent::PageLoaded { url, title } => {
                EventRef::PageLoaded { url: self.url(url), title: self.str(title) }
            }
            CompactEvent::Redirected { from, to, kind } => {
                EventRef::Redirected { from: self.url(from), to: self.url(to), kind }
            }
            CompactEvent::ScriptLoaded { page, src } => {
                EventRef::ScriptLoaded { page: self.url(page), src: self.url(src) }
            }
            CompactEvent::JsApiCall { page, api } => {
                EventRef::JsApiCall { page: self.url(page), api: self.str(api) }
            }
            CompactEvent::LockBypassed { page, tactic } => {
                EventRef::LockBypassed { page: self.url(page), tactic }
            }
            CompactEvent::TabOpened { opener, url } => {
                EventRef::TabOpened { opener: self.url(opener), url: self.url(url) }
            }
            CompactEvent::DownloadTriggered { page, payload } => {
                EventRef::DownloadTriggered { page: self.url(page), payload }
            }
            CompactEvent::NotificationPrompt { page } => {
                EventRef::NotificationPrompt { page: self.url(page) }
            }
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All redirect hops, in order.
    pub fn redirects(&self) -> impl Iterator<Item = (&Url, &Url, RedirectKind)> {
        self.events.iter().filter_map(|e| match *e {
            CompactEvent::Redirected { from, to, kind } => {
                Some((self.url(from), self.url(to), kind))
            }
            _ => None,
        })
    }

    /// All URLs that completed loading, in order.
    pub fn loaded_urls(&self) -> impl Iterator<Item = &Url> {
        self.events.iter().filter_map(|e| match *e {
            CompactEvent::PageLoaded { url, .. } => Some(self.url(url)),
            _ => None,
        })
    }

    /// All downloads captured in the session.
    pub fn downloads(&self) -> impl Iterator<Item = (&Url, FilePayload)> {
        self.events.iter().filter_map(|e| match *e {
            CompactEvent::DownloadTriggered { page, payload } => Some((self.url(page), payload)),
            _ => None,
        })
    }
}

// Two logs are equal when they recorded the same event sequence. Interner
// ids are assigned in first-seen order — a pure function of that sequence
// — so comparing the compact columns is exact and never materializes an
// event.
impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
            && self.urls.items() == other.urls.items()
            && self.strs.items() == other.strs.items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(h: &str) -> Url {
        Url::http(h, "/")
    }

    #[test]
    fn log_accumulates_in_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.navigation_start(&u("a.com"), NavCause::Initial, None);
        log.page_loaded(&u("a.com"), "A");
        assert_eq!(log.len(), 2);
        assert_eq!(log.loaded_urls().count(), 1);
    }

    #[test]
    fn filtered_views() {
        let mut log = EventLog::new();
        log.redirected(&u("a.com"), &u("b.com"), RedirectKind::Http302);
        log.redirected(&u("b.com"), &u("c.club"), RedirectKind::JsLocation);
        log.download_triggered(
            &u("c.club"),
            FilePayload::serve(1, seacma_simweb::FileFormat::Pe, &[0]),
        );
        let hops: Vec<_> = log.redirects().collect();
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].1.host, "b.com");
        assert!(!hops[0].2.is_http() || hops[0].2 == RedirectKind::Http302);
        assert_eq!(log.downloads().count(), 1);
    }
}
