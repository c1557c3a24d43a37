//! Client profiles: user-agent emulation, IP vantage and automation
//! fingerprint.
//!
//! The paper's crawlers visit every publisher with four Browser/OS
//! combinations (§3.2), from either institutional or residential IP space
//! (Propeller and Clickadu cloak on non-residential space), and patch
//! Chromium so `navigator.webdriver` no longer betrays DevTools automation.
//! All three axes are captured here and threaded through every fetch.

use seacma_util::impl_json_enum;
use std::fmt;

/// Operating-system class the client claims to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsClass {
    /// Desktop macOS.
    MacOs,
    /// Mobile Android.
    Android,
    /// Desktop Windows.
    Windows,
}

/// The four Browser/OS combinations used in the measurement (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UaProfile {
    /// Chrome 66 on macOS.
    ChromeMac,
    /// Chrome 65 on Android, with DevTools device emulation (screen size
    /// and touch events adjusted, not just the UA string).
    ChromeAndroid,
    /// Internet Explorer 10 on Windows.
    Ie10Windows,
    /// Edge 12 on Windows.
    Edge12Windows,
}

impl UaProfile {
    /// All four crawl profiles, in the order the crawler cycles them.
    pub const ALL: [UaProfile; 4] = [
        UaProfile::ChromeMac,
        UaProfile::ChromeAndroid,
        UaProfile::Ie10Windows,
        UaProfile::Edge12Windows,
    ];

    /// The OS class implied by the profile.
    pub fn os(self) -> OsClass {
        match self {
            UaProfile::ChromeMac => OsClass::MacOs,
            UaProfile::ChromeAndroid => OsClass::Android,
            UaProfile::Ie10Windows | UaProfile::Edge12Windows => OsClass::Windows,
        }
    }

    /// Whether this is a mobile profile (affects targeting: e.g. the
    /// fake-lottery campaigns only serve mobile clients).
    pub fn is_mobile(self) -> bool {
        matches!(self, UaProfile::ChromeAndroid)
    }

    /// Stable numeric id for deterministic hashing.
    pub fn index(self) -> u64 {
        match self {
            UaProfile::ChromeMac => 0,
            UaProfile::ChromeAndroid => 1,
            UaProfile::Ie10Windows => 2,
            UaProfile::Edge12Windows => 3,
        }
    }
}

impl fmt::Display for UaProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UaProfile::ChromeMac => "Chrome66/macOS",
            UaProfile::ChromeAndroid => "Chrome65/Android",
            UaProfile::Ie10Windows => "IE10/Windows",
            UaProfile::Edge12Windows => "Edge12/Windows",
        };
        f.write_str(s)
    }
}

/// The network position requests originate from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vantage {
    /// University/institution address space.
    Institutional,
    /// Residential ISP address space (the paper's laptops).
    Residential,
    /// Cloud-provider ranges (e.g. AWS).
    Cloud,
    /// Tor exit nodes.
    TorExit,
}

impl Vantage {
    /// Stable numeric id for deterministic hashing.
    pub fn index(self) -> u64 {
        match self {
            Vantage::Institutional => 0,
            Vantage::Residential => 1,
            Vantage::Cloud => 2,
            Vantage::TorExit => 3,
        }
    }
}

/// Everything a server-side cloaking check can observe about the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientProfile {
    /// Emulated browser/OS combination.
    pub ua: UaProfile,
    /// IP vantage of the request.
    pub vantage: Vantage,
    /// Whether `navigator.webdriver` is observable as `true`. Stock
    /// DevTools automation exposes it; the instrumented browser's stealth
    /// patch hides it.
    pub webdriver_visible: bool,
}

impl ClientProfile {
    /// A stealthy crawler profile (webdriver hidden), as deployed in the
    /// paper after the anti-bot investigation.
    pub fn stealthy(ua: UaProfile, vantage: Vantage) -> Self {
        Self { ua, vantage, webdriver_visible: false }
    }

    /// A naive automation profile that still exposes `navigator.webdriver`.
    pub fn naive(ua: UaProfile, vantage: Vantage) -> Self {
        Self { ua, vantage, webdriver_visible: true }
    }

    /// Words for deterministic hashing of per-client decisions.
    pub fn det_words(&self) -> [u64; 3] {
        [self.ua.index(), self.vantage.index(), u64::from(self.webdriver_visible)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_three_oses() {
        use std::collections::HashSet;
        let oses: HashSet<_> = UaProfile::ALL.iter().map(|u| u.os()).collect();
        assert_eq!(oses.len(), 3);
    }

    #[test]
    fn only_android_is_mobile() {
        assert!(UaProfile::ChromeAndroid.is_mobile());
        assert!(!UaProfile::ChromeMac.is_mobile());
        assert!(!UaProfile::Ie10Windows.is_mobile());
        assert!(!UaProfile::Edge12Windows.is_mobile());
    }

    #[test]
    fn indices_distinct() {
        use std::collections::HashSet;
        let ids: HashSet<_> = UaProfile::ALL.iter().map(|u| u.index()).collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn stealth_hides_webdriver() {
        let p = ClientProfile::stealthy(UaProfile::ChromeMac, Vantage::Residential);
        assert!(!p.webdriver_visible);
        let n = ClientProfile::naive(UaProfile::ChromeMac, Vantage::Residential);
        assert!(n.webdriver_visible);
        assert_ne!(p.det_words(), n.det_words());
    }
}
impl_json_enum!(UaProfile { ChromeMac, ChromeAndroid, Ie10Windows, Edge12Windows });
impl_json_enum!(Vantage { Institutional, Residential, Cloud, TorExit });
