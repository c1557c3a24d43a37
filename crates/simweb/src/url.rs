//! Minimal URL type for the simulated web.
//!
//! The pipeline manipulates URLs constantly: redirect chains, backtracking
//! graphs, attribution pattern matching, e2LD extraction, milkable-URL
//! bookkeeping. The simulated web only needs scheme, host, path and query —
//! there is no fragment or userinfo traffic in the ecosystem.

use seacma_util::impl_json_struct;
use std::fmt;
use std::str::FromStr;

use crate::domain::e2ld;

/// A parsed `http(s)` URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Hostname, lowercase.
    pub host: String,
    /// Path, always beginning with `/`.
    pub path: String,
    /// Query string without the leading `?`; empty if absent.
    pub query: String,
}

/// Error returned when parsing an invalid URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUrlError(pub String);

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid url: {}", self.0)
    }
}

impl std::error::Error for ParseUrlError {}

impl Url {
    /// Builds an `http` URL from host and path.
    pub fn http(host: impl Into<String>, path: impl Into<String>) -> Url {
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path, String::new()),
        };
        Url { scheme: "http".into(), host: host.into().to_ascii_lowercase(), path, query }
    }

    /// Effective second-level domain of the host.
    pub fn e2ld(&self) -> String {
        e2ld(&self.host)
    }

    /// [`e2ld`](Self::e2ld) as a borrowed suffix of the host — no
    /// allocation. Exact for every URL built through
    /// [`http`](Self::http), whose hosts are lowercased on construction.
    pub fn e2ld_ref(&self) -> &str {
        crate::domain::e2ld_ref(&self.host)
    }

    /// True if both URLs share an e2LD.
    pub fn same_site(&self, other: &Url) -> bool {
        crate::domain::same_site(&self.host, &other.host)
    }

    /// Path plus `?query` when present.
    pub fn path_and_query(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        }
    }

    /// Substring match over the full textual form — the primitive used by
    /// ad-network invariant patterns ("a specific URL path name, URL
    /// structure", paper §3.1).
    pub fn contains(&self, pattern: &str) -> bool {
        self.to_string().contains(pattern)
    }

    /// Decision word of the URL: exactly
    /// `det::str_word(&url.to_string())`, computed without allocating the
    /// textual form. `World::fetch` draws per-document randomness from
    /// this on every hop, so the streaming version keeps the hot fetch
    /// path allocation-free while producing bit-identical draws.
    pub fn det_word(&self) -> u64 {
        use crate::det::str_word_extend;
        let mut h = str_word_extend(0xcbf2_9ce4_8422_2325, &self.scheme);
        h = str_word_extend(h, "://");
        h = str_word_extend(h, &self.host);
        h = str_word_extend(h, &self.path);
        if !self.query.is_empty() {
            h = str_word_extend(h, "?");
            h = str_word_extend(h, &self.query);
        }
        h
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)?;
        if !self.query.is_empty() {
            write!(f, "?{}", self.query)?;
        }
        Ok(())
    }
}

impl FromStr for Url {
    type Err = ParseUrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or_else(|| ParseUrlError(format!("missing scheme: {s}")))?;
        if scheme != "http" && scheme != "https" {
            return Err(ParseUrlError(format!("unsupported scheme: {s}")));
        }
        let (host, path_query) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if host.is_empty() || host.contains(|c: char| c.is_whitespace()) {
            return Err(ParseUrlError(format!("bad host: {s}")));
        }
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path_query.to_string(), String::new()),
        };
        Ok(Url { scheme: scheme.into(), host: host.to_ascii_lowercase(), path, query })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_word_equals_hash_of_textual_form() {
        for u in [
            Url::http("evil.club", "/landing?x=1"),
            Url::http("a.com", "/"),
            Url::http("tds.example", "/go?s=2&k=abc"),
            Url::http("no-query.net", "/deep/path"),
        ] {
            assert_eq!(u.det_word(), crate::det::str_word(&u.to_string()), "{u}");
        }
    }

    #[test]
    fn http_constructor_normalizes() {
        let u = Url::http("EVIL.Club", "landing?x=1");
        assert_eq!(u.host, "evil.club");
        assert_eq!(u.path, "/landing");
        assert_eq!(u.query, "x=1");
        assert_eq!(u.to_string(), "http://evil.club/landing?x=1");
    }

    #[test]
    fn parse_roundtrip() {
        for s in [
            "http://a.com/",
            "https://b.co.uk/p/q?x=1&y=2",
            "http://c.club/deep/path",
        ] {
            let u: Url = s.parse().unwrap();
            assert_eq!(u.to_string(), s);
        }
    }

    #[test]
    fn parse_without_path_gets_root() {
        let u: Url = "http://a.com".parse().unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.to_string(), "http://a.com/");
    }

    #[test]
    fn parse_errors() {
        assert!("ftp://a.com/".parse::<Url>().is_err());
        assert!("nota url".parse::<Url>().is_err());
        assert!("http:///path".parse::<Url>().is_err());
        assert!("http://ho st/".parse::<Url>().is_err());
    }

    #[test]
    fn same_site_and_e2ld() {
        let a: Url = "http://x.pub.com/1".parse().unwrap();
        let b: Url = "http://y.pub.com/2".parse().unwrap();
        let c: Url = "http://evil.club/".parse().unwrap();
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c));
        assert_eq!(c.e2ld(), "evil.club");
    }

    #[test]
    fn contains_matches_full_form() {
        let u = Url::http("srv.adnet.com", "/watch.php?key=abc");
        assert!(u.contains("watch.php"));
        assert!(u.contains("adnet.com/watch"));
        assert!(!u.contains("popunder"));
    }

    #[test]
    fn path_and_query_forms() {
        assert_eq!(Url::http("a.com", "/p").path_and_query(), "/p");
        assert_eq!(Url::http("a.com", "/p?q=1").path_and_query(), "/p?q=1");
    }
}
impl_json_struct!(Url { scheme, host, path, query });
