//! Structural page-load features and the fused observation record.
//!
//! The paper's measurement found SE attack pages share cheap structural
//! tells besides their visual creative: they sit at the end of long
//! cross-origin redirect chains (§3.4), display scam call-center numbers
//! (tech support), funnel to survey gateways (lottery), lock the page,
//! beg for notification permission, or auto-trigger downloads (§3.2).
//! [`PageSignals`] extracts exactly those from the instrumented browser
//! log and the served document — no DOM parsing, no rendering beyond the
//! screenshot the dhash already needs — and folds them into one small
//! integer score the detector uses when the visual index has nothing to
//! say (the never-seen-campaign path).

use std::collections::BTreeSet;

use seacma_browser::{EventLog, EventRef};
use seacma_simweb::Page;
use seacma_vision::dhash::Dhash;

/// Redirect-chain length at or above which a load looks trafficked
/// through an ad/redirector funnel rather than served directly.
pub const SUSPICIOUS_HOPS: u32 = 3;

/// Distinct third-party e2LD count at or above which the loading process
/// looks syndicated through multiple ad-network origins.
pub const SUSPICIOUS_THIRD_PARTIES: u32 = 3;

/// Cheap structural features of one page load.
///
/// ```
/// use seacma_detect::PageSignals;
///
/// let s = PageSignals { scam_phone: true, survey_gateway: true, ..PageSignals::default() };
/// assert_eq!(s.score(), 4); // 2 + 2, no chain or behaviour tells
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageSignals {
    /// Redirect hops the browser followed to reach the document.
    pub redirect_hops: u32,
    /// Distinct e2LDs involved in the load other than the landing page's.
    pub third_party_e2lds: u32,
    /// The document displays a scam call-center phone number.
    pub scam_phone: bool,
    /// The document funnels to a survey-scam gateway.
    pub survey_gateway: bool,
    /// Page-locking tactics are active (onbeforeunload loops, alert walls).
    pub locking: bool,
    /// The document immediately requests push-notification permission.
    pub notification_prompt: bool,
    /// Interaction (or mere load) triggers a file download.
    pub auto_download: bool,
}

impl PageSignals {
    /// Extracts the signals from an instrumented session log plus the
    /// served document. `landing_e2ld` is the landing page's own e2LD, so
    /// the third-party count excludes same-site URLs.
    ///
    /// ```
    /// use seacma_browser::EventLog;
    /// use seacma_detect::PageSignals;
    /// use seacma_simweb::{Page, RedirectKind, Url, VisualTemplate};
    ///
    /// let mut log = EventLog::new();
    /// let (publisher, tracker) = (Url::http("pub.com", "/"), Url::http("trk.net", "/r"));
    /// log.redirected(&publisher, &tracker, RedirectKind::Http302);
    /// log.redirected(&tracker, &Url::http("prize.club", "/lp"), RedirectKind::JsLocation);
    /// let mut page = Page::bare(
    ///     Url::http("prize.club", "/lp"),
    ///     "You won!",
    ///     VisualTemplate::Lottery { skin: 1 },
    /// );
    /// page.survey_gateway = Some(Url::http("survey.gate", "/go"));
    /// let s = PageSignals::from_page_load(&log, &page, "prize.club");
    /// assert_eq!(s.redirect_hops, 2);
    /// assert_eq!(s.third_party_e2lds, 2); // pub.com, trk.net
    /// assert!(s.survey_gateway);
    /// ```
    pub fn from_page_load(log: &EventLog, page: &Page, landing_e2ld: &str) -> Self {
        let mut third: BTreeSet<String> = BTreeSet::new();
        let mut note = |u: &seacma_simweb::Url| {
            let e = u.e2ld();
            if e != landing_e2ld {
                third.insert(e);
            }
        };
        for e in log.events() {
            match e {
                EventRef::NavigationStart { url, .. } => note(url),
                EventRef::PageLoaded { url, .. } => note(url),
                EventRef::Redirected { from, to, .. } => {
                    note(from);
                    note(to);
                }
                EventRef::ScriptLoaded { src, .. } => note(src),
                EventRef::TabOpened { opener, url } => {
                    note(opener);
                    note(url);
                }
                _ => {}
            }
        }
        let notification_prompt = page.notification_prompt
            || log.events().any(|e| matches!(e, EventRef::NotificationPrompt { .. }));
        Self::from_counts(
            log.redirects().count() as u32,
            third.len() as u32,
            page,
        )
        .with_notification_prompt(notification_prompt)
    }

    /// Builds the signals from already-computed chain counts plus the
    /// served document — the batch-evaluation entry point, where the
    /// crawler's [`LandingRecord`] carries the hop and involved-URL lists
    /// and only the document tells remain to be read.
    ///
    /// [`LandingRecord`]: https://docs.rs/seacma-crawler
    pub fn from_counts(redirect_hops: u32, third_party_e2lds: u32, page: &Page) -> Self {
        PageSignals {
            redirect_hops,
            third_party_e2lds,
            scam_phone: page.scam_phone.is_some(),
            survey_gateway: page.survey_gateway.is_some(),
            locking: !page.locking.is_empty(),
            notification_prompt: page.notification_prompt,
            auto_download: page.auto_download.is_some(),
        }
    }

    fn with_notification_prompt(mut self, v: bool) -> Self {
        self.notification_prompt = v;
        self
    }

    /// The deterministic integer feature score: strong tells (scam phone,
    /// survey gateway, page locking, auto-download) weigh 2, weak tells
    /// (notification prompt, a chain of ≥ [`SUSPICIOUS_HOPS`] hops, ≥
    /// [`SUSPICIOUS_THIRD_PARTIES`] third-party e2LDs) weigh 1. Maximum 11.
    pub fn score(&self) -> u32 {
        2 * u32::from(self.scam_phone)
            + 2 * u32::from(self.survey_gateway)
            + 2 * u32::from(self.locking)
            + 2 * u32::from(self.auto_download)
            + u32::from(self.notification_prompt)
            + u32::from(self.redirect_hops >= SUSPICIOUS_HOPS)
            + u32::from(self.third_party_e2lds >= SUSPICIOUS_THIRD_PARTIES)
    }
}

/// One page load as the detector sees it: the fused screenshot dhash plus
/// the structural signals.
///
/// ```
/// use seacma_detect::{PageObservation, PageSignals};
/// use seacma_vision::dhash::Dhash;
///
/// let obs = PageObservation { dhash: Dhash(42), signals: PageSignals::default() };
/// assert_eq!(obs.signals.score(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageObservation {
    /// Fused screenshot dhash of the loaded document.
    pub dhash: Dhash,
    /// Structural features of the load.
    pub signals: PageSignals,
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_browser::NavCause;
    use seacma_simweb::{RedirectKind, Url, VisualTemplate};

    fn lp(host: &str) -> Page {
        Page::bare(Url::http(host, "/lp"), "t", VisualTemplate::TechSupport { skin: 3 })
    }

    #[test]
    fn counts_exclude_landing_e2ld_and_dedupe() {
        let mut log = EventLog::new();
        let (publisher, ad) = (Url::http("pub.com", "/"), Url::http("ads.trk.net", "/a"));
        let landing = Url::http("x.club", "/lp");
        log.navigation_start(&publisher, NavCause::Initial, None);
        log.redirected(&publisher, &ad, RedirectKind::Http302);
        log.redirected(&ad, &landing, RedirectKind::JsLocation);
        log.page_loaded(&landing, "t");
        let s = PageSignals::from_page_load(&log, &lp("x.club"), "x.club");
        assert_eq!(s.redirect_hops, 2);
        // pub.com and trk.net (subdomain folds to its e2LD); x.club is the
        // landing site and excluded.
        assert_eq!(s.third_party_e2lds, 2);
    }

    #[test]
    fn document_tells_and_score_weights() {
        let mut page = lp("x.club");
        page.scam_phone = Some("1-800-000".into());
        page.locking = vec![seacma_simweb::LockTactic::OnBeforeUnload];
        page.notification_prompt = true;
        let s = PageSignals::from_counts(4, 1, &page);
        assert!(s.scam_phone && s.locking && s.notification_prompt);
        assert!(!s.survey_gateway && !s.auto_download);
        // 2 (phone) + 2 (lock) + 1 (notify) + 1 (hops >= 3) = 6.
        assert_eq!(s.score(), 6);
    }

    #[test]
    fn prompt_event_counts_even_without_document_flag() {
        let mut log = EventLog::new();
        log.notification_prompt(&Url::http("x.club", "/lp"));
        let s = PageSignals::from_page_load(&log, &lp("x.club"), "x.club");
        assert!(s.notification_prompt);
        assert_eq!(s.score(), 1);
    }
}
