//! The page model the simulated browser renders.
//!
//! A [`Page`] carries everything the measurement pipeline observes about a
//! document: its clickable elements with rendered sizes (§3.2), the
//! scripts it includes (source-code search and attribution), its visual
//! appearance, its page-locking behaviour, notification prompts and
//! interaction-triggered downloads.

use crate::payload::FilePayload;
use crate::url::Url;
use crate::visual::VisualTemplate;

/// Kind of a DOM element relevant to the click heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// `<img>`.
    Image,
    /// `<iframe>`.
    Iframe,
    /// `<div>` — including full-page transparent overlay ads.
    Div,
    /// `<a>`/`<button>`.
    Button,
}

/// What happens when an element (or the page) is clicked.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClickAction {
    /// Nothing observable.
    None,
    /// Open a new tab at `url` (pop-up / pop-under ads).
    OpenTab(Url),
    /// Navigate the current tab away to `url`.
    Navigate(Url),
    /// Trigger a file download.
    Download(FilePayload),
    /// Grant the page's push-notification permission request.
    AllowNotifications,
}

/// Browser-locking tactics the paper found on SE attack pages (§3.2):
/// modal dialog loops, repeated authentication prompts and
/// `onbeforeunload` handlers. The instrumented browser bypasses all of
/// them; a non-instrumented session stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockTactic {
    /// `alert()`/`confirm()` called in a loop.
    ModalDialogLoop,
    /// Repeated HTTP authentication dialogs.
    AuthDialogStorm,
    /// `onbeforeunload` handler that refuses navigation.
    OnBeforeUnload,
}

/// A rendered DOM element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Element {
    /// Element kind.
    pub kind: ElementKind,
    /// Rendered width in CSS pixels.
    pub width: u32,
    /// Rendered height in CSS pixels.
    pub height: u32,
    /// Listener installed directly on the element (publisher content links,
    /// download buttons). Ad-network listeners are modelled at page level —
    /// see [`Page::ad_click_chain`].
    pub action: ClickAction,
}

/// A script included by the page.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Script {
    /// URL the script was fetched from.
    pub src: Url,
    /// Source text (obfuscated ad-network loaders carry their invariant
    /// tokens here; PublicWWW-style search runs over this).
    pub source: String,
}

/// A document as served to one client at one time.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// The URL this page was served from.
    pub url: Url,
    /// Page title.
    pub title: String,
    /// Clickable/rankable elements, in DOM order.
    pub elements: Vec<Element>,
    /// Scripts included by the page.
    pub scripts: Vec<Script>,
    /// Visual appearance for screenshotting.
    pub visual: VisualTemplate,
    /// Ad-network listeners armed on the whole page, in activation order:
    /// the k-th page-level click triggers `ad_click_chain[k]` (greedy
    /// publishers stack several networks; each interaction pops the next —
    /// paper §3.2). Empty for pages with no ad code.
    pub ad_click_chain: Vec<ClickAction>,
    /// Page-locking tactics active on this page.
    pub locking: Vec<LockTactic>,
    /// Whether the page immediately asks for push-notification permission.
    pub notification_prompt: bool,
    /// Download triggered on any interaction (fake-software "your download
    /// starts automatically" behaviour), if any.
    pub auto_download: Option<FilePayload>,
    /// Scam call-center number displayed by technical-support pages.
    pub scam_phone: Option<String>,
    /// Survey-scam gateway the page funnels victims to (lottery pages).
    pub survey_gateway: Option<Url>,
}

impl Page {
    /// A minimal page with the given URL and appearance.
    pub fn bare(url: Url, title: impl Into<String>, visual: VisualTemplate) -> Page {
        Page {
            url,
            title: title.into(),
            elements: Vec::new(),
            scripts: Vec::new(),
            visual,
            ad_click_chain: Vec::new(),
            locking: Vec::new(),
            notification_prompt: false,
            auto_download: None,
            scam_phone: None,
            survey_gateway: None,
        }
    }

    /// The ad action armed for the `k`-th page-level click, if any.
    pub fn ad_action(&self, k: usize) -> Option<&ClickAction> {
        self.ad_click_chain.get(k)
    }

    /// Whether any lock tactic is active.
    pub fn is_locking(&self) -> bool {
        !self.locking.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visual::VisualTemplate;

    fn page_with_elements() -> Page {
        let mut p = Page::bare(
            Url::http("pub.com", "/"),
            "t",
            VisualTemplate::PublisherHome { style: 1 },
        );
        p.elements = vec![
            Element { kind: ElementKind::Image, width: 10, height: 10, action: ClickAction::None },
            Element { kind: ElementKind::Iframe, width: 300, height: 250, action: ClickAction::None },
            Element { kind: ElementKind::Image, width: 300, height: 250, action: ClickAction::None },
            Element { kind: ElementKind::Button, width: 50, height: 20, action: ClickAction::None },
        ];
        p
    }

    #[test]
    fn ad_chain_pops_in_order() {
        let mut p = page_with_elements();
        p.ad_click_chain = vec![
            ClickAction::OpenTab(Url::http("ad1.com", "/")),
            ClickAction::OpenTab(Url::http("ad2.com", "/")),
        ];
        assert!(matches!(p.ad_action(0), Some(ClickAction::OpenTab(u)) if u.host == "ad1.com"));
        assert!(matches!(p.ad_action(1), Some(ClickAction::OpenTab(u)) if u.host == "ad2.com"));
        assert!(p.ad_action(2).is_none());
    }

    #[test]
    fn locking_flag() {
        let mut p = page_with_elements();
        assert!(!p.is_locking());
        p.locking.push(LockTactic::OnBeforeUnload);
        assert!(p.is_locking());
    }
}
