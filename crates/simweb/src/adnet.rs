//! Low-tier ad-network models.
//!
//! The 11 seed networks of Table 3 plus the three networks the paper later
//! discovered through "unknown" attribution (Ero Advertising, Yllix,
//! AdCenter). Each network is calibrated with: the number of rotating
//! domains hosting its ad-serving JS (Table 3 col 2), the fraction of its
//! ad clicks that lead to SE attacks (col 5), its relative traffic volume
//! (col 3), its cloaking policy and its anti-bot behaviour.

use crate::client::{ClientProfile, Vantage};
use crate::det::{det_hash, str_word};
use crate::names::gibberish_label;
use crate::url::Url;

/// Identifier of an ad network within a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdNetworkId(pub u16);

/// Static description of one ad network.
#[derive(Debug, Clone, PartialEq)]
pub struct AdNetworkSpec {
    /// Network id (index into the world's network table).
    pub id: AdNetworkId,
    /// Network name.
    pub name: String,
    /// Whether the network is part of the initial seed list (Table 3) or
    /// one of the "unknown" networks discoverable via attribution (§4.4).
    pub seed_listed: bool,
    /// Size of the rotating pool of domains hosting the network's JS and
    /// click handlers (Table 3, col 2). Ad-blocker evasion: the more
    /// domains, the harder to filter.
    pub code_domain_pool: u32,
    /// Invariant URL token present in all of this network's ad-serving
    /// URLs — what the paper's manual analysis extracts for attribution
    /// and PublicWWW reversal (§3.1).
    pub url_invariant: String,
    /// Invariant JS variable name appearing in the obfuscated loader
    /// snippet embedded on publisher pages.
    pub js_invariant: String,
    /// Probability that an ad click resolves to an SE campaign
    /// (Table 3, col 5).
    pub se_rate: f64,
    /// Relative click-traffic volume (Table 3, col 3, normalized
    /// downstream).
    pub volume_weight: f64,
    /// Serves only benign ads to non-residential IP space (Propeller and
    /// Clickadu in the paper).
    pub cloaks_nonresidential: bool,
    /// Refuses SEACMA ads when `navigator.webdriver` is visible.
    pub checks_webdriver: bool,
    /// Whether stock AdBlock Plus filter lists block the network
    /// (only Clicksor in the paper's test, §4.4).
    pub blocked_by_adblock: bool,
    /// Focused on adult publishers (Ero Advertising).
    pub adult_focused: bool,
    /// Routes demand through an ad-exchange hop (syndication, §3.5: "a
    /// variety of complications … such as ad exchange networks and ad
    /// syndication"). Adds one more redirect to the chain.
    pub uses_exchange: bool,
}

impl AdNetworkSpec {
    /// The network's ad-serving domain for rotation slot `slot`.
    pub fn code_domain(&self, world_seed: u64, slot: u32) -> String {
        let label = gibberish_label(
            &[world_seed, 0xAD_C0DE, u64::from(self.id.0), u64::from(slot)],
            2,
            3,
        );
        // Low-tier networks spread across cheap and common TLDs.
        let tlds = ["com", "net", "xyz", "club", "bid", "online"];
        let t = det_hash(&[world_seed, 0xAD_71D, u64::from(self.id.0), u64::from(slot)]);
        format!("{label}.{}", tlds[(t % tlds.len() as u64) as usize])
    }

    /// Which rotation slot is active for a given publisher/time bucket —
    /// the domain seen by a visitor. Rotates daily, sharded by publisher,
    /// so crawls observe many domains per network (517 for RevenueHits…).
    pub fn active_slot(&self, world_seed: u64, publisher_word: u64, day: u64) -> u32 {
        if self.code_domain_pool <= 1 {
            return 0;
        }
        (det_hash(&[world_seed, 0x5107, u64::from(self.id.0), publisher_word, day])
            % u64::from(self.code_domain_pool)) as u32
    }

    /// Builds the click URL armed on a publisher page: fetching it (after a
    /// user click) enters this network's redirect chain. The query encodes
    /// the decision coordinates (publisher zone and click ordinal) so that
    /// resolution is a pure function of the URL + client + time.
    pub fn click_url(&self, world_seed: u64, publisher_word: u64, day: u64, click: u32) -> Url {
        let slot = self.active_slot(world_seed, publisher_word, day);
        let host = self.code_domain(world_seed, slot);
        Url::http(
            host,
            format!("{}?z={:x}&c={}", self.url_invariant, publisher_word & 0xffff_ffff, click),
        )
    }

    /// The obfuscated loader snippet a publisher embeds for this network.
    /// The networks ship several obfuscator versions, so the code skeleton,
    /// variable junk and string encodings all differ across publishers —
    /// only the JS invariant variable and the serving path survive (what
    /// the paper's manual analysis, and our miner, extract).
    pub fn loader_snippet(&self, world_seed: u64, publisher_word: u64) -> String {
        let junk = det_hash(&[world_seed, 0x0b_f5ca7e, u64::from(self.id.0), publisher_word]);
        let j1 = junk & 0xffff;
        let j2 = (junk >> 16) & 0xffff;
        let j3 = (junk >> 32) & 0xffff;
        match junk % 3 {
            0 => format!(
                "(function(){{var _0x{j1:x}=['\\x{j2:x}'];var {inv}={{z:0x{j3:x}}};\
                 var s=d.createElement('script');s.src='//'+h{j1}+'{url}';\
                 d.body.appendChild(s);}})();",
                inv = self.js_invariant,
                url = self.url_invariant,
            ),
            1 => format!(
                "!function(e,t){{e[{q}{inv}{q}]=t;var n=e.createElement(\"script\");\
                 n.async=!0,n.src=atob(\"{j2:x}\")+\"{url}?r={j3:x}\",\
                 e.head.appendChild(n)}}(document,{{zid:{j1}}});",
                q = '\'',
                inv = self.js_invariant,
                url = self.url_invariant,
            ),
            _ => format!(
                "var {inv};(()=>{{let k_{j1:x}=[{j2},{j3}];{inv}=k_{j1:x};\
                 import('//'+window.__h{j3:x}+'{url}').catch(()=>{{}})}})();",
                inv = self.js_invariant,
                url = self.url_invariant,
            ),
        }
    }

    /// Whether this network will serve an SE ad to `client` at all
    /// (cloaking and anti-bot gates; §3.2 "Implementation Challenges").
    pub fn serves_se_to(&self, client: &ClientProfile) -> bool {
        if self.cloaks_nonresidential && client.vantage != Vantage::Residential {
            return false;
        }
        if self.checks_webdriver && client.webdriver_visible {
            return false;
        }
        true
    }

    /// Stable word for deterministic hashing.
    pub fn word(&self) -> u64 {
        str_word(&self.name)
    }
}

/// Builds the full roster: 11 seed networks calibrated to Table 3, plus the
/// three discoverable "unknown" networks.
pub fn standard_networks() -> Vec<AdNetworkSpec> {
    struct Row(&'static str, u32, f64, f64, bool, bool, bool, bool);
    //        name       pool  se     vol    cloak  webdrv adblk  adult
    #[rustfmt::skip]
    let seed_rows = [
        Row("RevenueHits", 517, 0.1967, 15635.0, false, false, false, false),
        Row("AdSterra",    578, 0.5062, 15102.0, false, true,  false, false),
        Row("PopCash",       2, 0.6427,  9734.0, false, false, false, false),
        Row("Propeller",     4, 0.4229,  8206.0, true,  true,  false, false),
        Row("PopAds",        3, 0.1874,  4658.0, false, false, false, false),
        Row("Clickadu",     10, 0.3014,  2814.0, true,  false, false, false),
        Row("AdCash",       14, 0.5624,  1698.0, false, false, false, false),
        Row("HilltopAds",   46, 0.0643,  1198.0, false, false, false, false),
        Row("PopMyAds",      1, 0.0863,  1194.0, false, false, false, false),
        Row("AdMaven",      39, 0.2460,   496.0, false, false, false, false),
        Row("Clicksor",      4, 0.0435,   276.0, false, false, true,  false),
    ];
    // The unknown networks deliver 5,488 of 28,923 SE attacks (19 %). Their
    // combined SE volume is tuned via volume × se_rate.
    #[rustfmt::skip]
    let hidden_rows = [
        Row("EroAdvertising", 22, 0.45, 6000.0, false, false, false, true),
        Row("Yllix",           6, 0.35, 4500.0, false, false, false, false),
        Row("AdCenter",        3, 0.40, 3500.0, false, false, false, false),
    ];

    // Hand-picked invariants in the style of the real networks' obfuscated
    // loaders: a URL path fragment and a JS variable name that survive the
    // domain rotation (paper §3.1).
    const INVARIANTS: [(&str, &str); 14] = [
        ("/rhits/serve.php", "_rh_zone_cfg"),
        ("/banners/asd.php", "_astr_slots"),
        ("/pcash/pop.js", "_pc_popunder"),
        ("/prplr/ntfc.php", "_prop_zoneid"),
        ("/pads/watch.php", "_pa_freq_cap"),
        ("/cadu/tag.min.js", "_cku_inline"),
        ("/acash/rotator.php", "_ach_rot_q"),
        ("/htops/dlvr.php", "_ht_delivery"),
        ("/pmads/under.js", "_pma_under"),
        ("/amvn/push.php", "_amv_pushcfg"),
        ("/cksr/show.php", "_csr_showad"),
        ("/eroadv/frame.php", "_ero_frames"),
        ("/ylx/go.php", "_ylx_gateway"),
        ("/adctr/route.php", "_actr_route"),
    ];

    // The high-volume networks resell inventory through exchanges.
    const EXCHANGE_USERS: [&str; 3] = ["AdSterra", "RevenueHits", "AdCash"];

    let mut out = Vec::new();
    for (i, r) in seed_rows.iter().chain(hidden_rows.iter()).enumerate() {
        let seed_listed = i < seed_rows.len();
        out.push(AdNetworkSpec {
            id: AdNetworkId(i as u16),
            name: r.0.to_string(),
            seed_listed,
            code_domain_pool: r.1,
            url_invariant: INVARIANTS[i].0.to_string(),
            js_invariant: INVARIANTS[i].1.to_string(),
            se_rate: r.2,
            volume_weight: r.3,
            cloaks_nonresidential: r.4,
            checks_webdriver: r.5,
            blocked_by_adblock: r.6,
            adult_focused: r.7,
            uses_exchange: EXCHANGE_USERS.contains(&r.0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::UaProfile;

    #[test]
    fn roster_has_eleven_seed_and_three_hidden() {
        let nets = standard_networks();
        assert_eq!(nets.len(), 14);
        assert_eq!(nets.iter().filter(|n| n.seed_listed).count(), 11);
        assert_eq!(nets.iter().filter(|n| !n.seed_listed).count(), 3);
    }

    #[test]
    fn invariants_are_unique() {
        use std::collections::HashSet;
        let nets = standard_networks();
        let urls: HashSet<_> = nets.iter().map(|n| n.url_invariant.clone()).collect();
        let js: HashSet<_> = nets.iter().map(|n| n.js_invariant.clone()).collect();
        assert_eq!(urls.len(), nets.len(), "url invariants collide");
        assert_eq!(js.len(), nets.len(), "js invariants collide");
    }

    #[test]
    fn only_clicksor_is_adblocked() {
        let nets = standard_networks();
        let blocked: Vec<_> =
            nets.iter().filter(|n| n.blocked_by_adblock).map(|n| n.name.as_str()).collect();
        assert_eq!(blocked, vec!["Clicksor"]);
    }

    #[test]
    fn cloakers_are_propeller_and_clickadu() {
        let nets = standard_networks();
        let cloakers: Vec<_> = nets
            .iter()
            .filter(|n| n.cloaks_nonresidential)
            .map(|n| n.name.as_str())
            .collect();
        assert_eq!(cloakers, vec!["Propeller", "Clickadu"]);
    }

    #[test]
    fn cloaking_gates_se_serving() {
        let nets = standard_networks();
        let prop = nets.iter().find(|n| n.name == "Propeller").unwrap();
        let resi = ClientProfile::stealthy(UaProfile::ChromeMac, Vantage::Residential);
        let inst = ClientProfile::stealthy(UaProfile::ChromeMac, Vantage::Institutional);
        let tor = ClientProfile::stealthy(UaProfile::ChromeMac, Vantage::TorExit);
        assert!(prop.serves_se_to(&resi));
        assert!(!prop.serves_se_to(&inst));
        assert!(!prop.serves_se_to(&tor));
    }

    #[test]
    fn webdriver_check_gates_se_serving() {
        let nets = standard_networks();
        let adsterra = nets.iter().find(|n| n.name == "AdSterra").unwrap();
        let stealthy = ClientProfile::stealthy(UaProfile::ChromeMac, Vantage::Residential);
        let naive = ClientProfile::naive(UaProfile::ChromeMac, Vantage::Residential);
        assert!(adsterra.serves_se_to(&stealthy));
        assert!(!adsterra.serves_se_to(&naive));
        // Networks without the check don't care.
        let pc = nets.iter().find(|n| n.name == "PopCash").unwrap();
        assert!(pc.serves_se_to(&naive));
    }

    #[test]
    fn code_domains_rotate_within_pool() {
        let nets = standard_networks();
        let rh = nets.iter().find(|n| n.name == "RevenueHits").unwrap();
        let mut seen = std::collections::HashSet::new();
        for pubw in 0..200u64 {
            for day in 0..7 {
                seen.insert(rh.active_slot(1, pubw, day));
            }
        }
        assert!(seen.len() > 300, "pool barely used: {}", seen.len());
        assert!(seen.iter().all(|&s| s < rh.code_domain_pool));
        // Single-domain network always slot 0.
        let pma = nets.iter().find(|n| n.name == "PopMyAds").unwrap();
        assert_eq!(pma.active_slot(1, 99, 3), 0);
    }

    #[test]
    fn click_url_carries_invariant() {
        let nets = standard_networks();
        let n = &nets[0];
        let u = n.click_url(1, 42, 0, 2);
        assert!(u.contains(&n.url_invariant), "{u}");
        assert!(u.query.contains("c=2"));
    }

    #[test]
    fn loader_snippet_contains_js_invariant() {
        let nets = standard_networks();
        let n = nets.iter().find(|n| n.name == "PopAds").unwrap();
        let s = n.loader_snippet(1, 7);
        assert!(s.contains(&n.js_invariant));
        assert!(s.contains(&n.url_invariant));
        // Junk differs per publisher; invariant does not.
        let s2 = n.loader_snippet(1, 8);
        assert_ne!(s, s2);
        assert!(s2.contains(&n.js_invariant));
    }

    #[test]
    fn code_domains_deterministic_and_distinct() {
        let nets = standard_networks();
        let n = &nets[1];
        assert_eq!(n.code_domain(1, 5), n.code_domain(1, 5));
        assert_ne!(n.code_domain(1, 5), n.code_domain(1, 6));
    }
}
