//! Hosting-layer response types.
//!
//! `World::fetch` resolves one URL to one response hop; the browser follows
//! redirect hops itself (recording each, as the instrumented Chromium logs
//! every navigation — §3.4 lists the redirection mechanisms observed in the
//! wild, all of which the simulator emits).

use seacma_util::impl_json_enum;

use crate::page::Page;
use crate::url::Url;

/// How a redirect hop is implemented. The paper's backtracking graphs must
/// capture all of these because obfuscated ad code suppresses referrers,
/// making HTTP-level analysis insufficient (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedirectKind {
    /// HTTP 301 Moved Permanently.
    Http301,
    /// HTTP 302 Found.
    Http302,
    /// `<meta http-equiv="refresh">`.
    MetaRefresh,
    /// JS `window.location` assignment.
    JsLocation,
    /// JS `history.pushState` + content swap.
    JsPushState,
    /// JS navigation scheduled via `setTimeout`.
    JsSetTimeout,
}

impl RedirectKind {
    /// Whether the redirect happens at the HTTP layer (and would therefore
    /// be visible to network-log-only analyses).
    pub fn is_http(self) -> bool {
        matches!(self, RedirectKind::Http301 | RedirectKind::Http302)
    }
}

/// One resolution hop for a URL.
#[derive(Debug, Clone, PartialEq)]
pub enum HostResponse {
    /// A document was served.
    Page(Box<Page>),
    /// The server redirected the client.
    Redirect {
        /// Redirect target.
        to: Url,
        /// Mechanism used.
        kind: RedirectKind,
    },
    /// The domain does not resolve (expired beyond the parking grace
    /// period, or never existed).
    NxDomain,
    /// The server refused the request (anti-bot hard block).
    Refused,
}

impl HostResponse {
    /// The served page, if any.
    pub fn page(&self) -> Option<&Page> {
        match self {
            HostResponse::Page(p) => Some(p),
            _ => None,
        }
    }

    /// The redirect target, if any.
    pub fn redirect_target(&self) -> Option<&Url> {
        match self {
            HostResponse::Redirect { to, .. } => Some(to),
            _ => None,
        }
    }
}

/// One resolution hop with the document body elided — what a `HEAD`-style
/// probe observes. `World::fetch_lite` returns this for hot paths (the
/// milker's no-op re-visits) that only need to know *where* a navigation
/// lands, not what the page contains; it must classify every URL exactly
/// as [`World::fetch`](crate::World::fetch) does (pinned by a property
/// test in `world`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiteResponse {
    /// A document would be served ([`HostResponse::Page`], body elided).
    Doc,
    /// The server redirects the client.
    Redirect {
        /// Redirect target.
        to: Url,
        /// Mechanism used.
        kind: RedirectKind,
    },
    /// The domain does not resolve.
    NxDomain,
    /// The server refused the request.
    Refused,
}

impl LiteResponse {
    /// The body-elided classification of a full response.
    pub fn of(resp: &HostResponse) -> LiteResponse {
        match resp {
            HostResponse::Page(_) => LiteResponse::Doc,
            HostResponse::Redirect { to, kind } => {
                LiteResponse::Redirect { to: to.clone(), kind: *kind }
            }
            HostResponse::NxDomain => LiteResponse::NxDomain,
            HostResponse::Refused => LiteResponse::Refused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visual::VisualTemplate;

    #[test]
    fn http_layer_classification() {
        assert!(RedirectKind::Http301.is_http());
        assert!(RedirectKind::Http302.is_http());
        assert!(!RedirectKind::JsLocation.is_http());
        assert!(!RedirectKind::MetaRefresh.is_http());
        assert!(!RedirectKind::JsSetTimeout.is_http());
    }

    #[test]
    fn accessors() {
        let url = Url::http("a.com", "/");
        let page = HostResponse::Page(Box::new(Page::bare(
            url.clone(),
            "t",
            VisualTemplate::LoadError,
        )));
        assert!(page.page().is_some());
        assert!(page.redirect_target().is_none());

        let redir = HostResponse::Redirect { to: url.clone(), kind: RedirectKind::Http302 };
        assert_eq!(redir.redirect_target(), Some(&url));
        assert!(redir.page().is_none());

        assert!(HostResponse::NxDomain.page().is_none());
    }
}
impl_json_enum!(RedirectKind {
    Http301,
    Http302,
    MetaRefresh,
    JsLocation,
    JsPushState,
    JsSetTimeout,
});
