//! Publisher websites.
//!
//! Publishers embed loader snippets from one or more low-tier ad networks
//! (greedy sites stack several — §3.2). Their topical categories follow
//! Table 2 of the paper; popularity ranks include a handful of top-1,000
//! and top-10,000 sites (§4.3).

use seacma_util::impl_json_newtype;

use crate::adnet::AdNetworkId;
use crate::det::str_word;
use crate::url::Url;

/// Identifier of a publisher within a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublisherId(pub u32);

/// Topical categories of publisher sites (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SiteCategory {
    /// Sites flagged suspicious by the categorizer.
    Suspicious,
    /// Pornography sites.
    Pornography,
    /// Free/low-cost web hosting.
    WebHosting,
    /// Entertainment portals.
    Entertainment,
    /// Personal sites and blogs.
    PersonalSites,
    /// Known malicious sources.
    MaliciousSources,
    /// Dynamic-DNS hosted sites.
    DynamicDns,
    /// Technology sites.
    Technology,
    /// Piracy / copyright-infringing sites.
    Piracy,
    /// Gaming sites.
    Games,
    /// TV and video streaming sites.
    TvVideoStreams,
    /// Phishing sites.
    Phishing,
    /// Business sites.
    Business,
    /// Adult/mature content.
    AdultMature,
    /// Sports sites.
    Sports,
    /// Education sites.
    Education,
    /// Social networking sites.
    SocialNetworking,
    /// Placeholder/parked-like pages.
    Placeholders,
    /// Health sites.
    Health,
    /// Daily-living/lifestyle sites.
    DailyLiving,
}

impl SiteCategory {
    /// All categories in Table 2 order.
    pub const ALL: [SiteCategory; 20] = [
        SiteCategory::Suspicious,
        SiteCategory::Pornography,
        SiteCategory::WebHosting,
        SiteCategory::Entertainment,
        SiteCategory::PersonalSites,
        SiteCategory::MaliciousSources,
        SiteCategory::DynamicDns,
        SiteCategory::Technology,
        SiteCategory::Piracy,
        SiteCategory::Games,
        SiteCategory::TvVideoStreams,
        SiteCategory::Phishing,
        SiteCategory::Business,
        SiteCategory::AdultMature,
        SiteCategory::Sports,
        SiteCategory::Education,
        SiteCategory::SocialNetworking,
        SiteCategory::Placeholders,
        SiteCategory::Health,
        SiteCategory::DailyLiving,
    ];

    /// Name as printed in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            SiteCategory::Suspicious => "Suspicious",
            SiteCategory::Pornography => "Pornography",
            SiteCategory::WebHosting => "Web Hosting",
            SiteCategory::Entertainment => "Entertainment",
            SiteCategory::PersonalSites => "Personal Sites",
            SiteCategory::MaliciousSources => "Malicious Sources/Malnets",
            SiteCategory::DynamicDns => "Dynamic DNS Host",
            SiteCategory::Technology => "Technology/Internet",
            SiteCategory::Piracy => "Piracy/Copyright Concerns",
            SiteCategory::Games => "Games",
            SiteCategory::TvVideoStreams => "TV/Video Streams",
            SiteCategory::Phishing => "Phishing",
            SiteCategory::Business => "Business/Economy",
            SiteCategory::AdultMature => "Adult/Mature Content",
            SiteCategory::Sports => "Sports/Recreation",
            SiteCategory::Education => "Education",
            SiteCategory::SocialNetworking => "Social Networking",
            SiteCategory::Placeholders => "Placeholders",
            SiteCategory::Health => "Health",
            SiteCategory::DailyLiving => "Society/Daily Living",
        }
    }

    /// Relative frequency among SEACMA-hosting publishers (Table 2 col 3,
    /// in percent of total).
    pub fn weight(self) -> f64 {
        match self {
            SiteCategory::Suspicious => 15.81,
            SiteCategory::Pornography => 13.52,
            SiteCategory::WebHosting => 8.85,
            SiteCategory::Entertainment => 6.57,
            SiteCategory::PersonalSites => 6.46,
            SiteCategory::MaliciousSources => 6.25,
            SiteCategory::DynamicDns => 4.60,
            SiteCategory::Technology => 4.02,
            SiteCategory::Piracy => 3.91,
            SiteCategory::Games => 3.11,
            SiteCategory::TvVideoStreams => 2.73,
            SiteCategory::Phishing => 2.46,
            SiteCategory::Business => 1.80,
            SiteCategory::AdultMature => 1.72,
            SiteCategory::Sports => 1.52,
            SiteCategory::Education => 1.49,
            SiteCategory::SocialNetworking => 1.08,
            SiteCategory::Placeholders => 1.05,
            SiteCategory::Health => 1.01,
            SiteCategory::DailyLiving => 0.98,
        }
    }

    /// Whether the category is adult-oriented (Ero Advertising only runs
    /// on these).
    pub fn is_adult(self) -> bool {
        matches!(self, SiteCategory::Pornography | SiteCategory::AdultMature)
    }
}

impl std::fmt::Display for SiteCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One publisher website.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublisherSite {
    /// Publisher id (index into the world's publisher table).
    pub id: PublisherId,
    /// The site's domain.
    pub domain: String,
    /// Topical category.
    pub category: SiteCategory,
    /// Popularity rank (1 = most popular); `None` for long-tail sites.
    pub rank: Option<u32>,
    /// Ad networks whose loader snippets the site embeds, in slot order.
    pub networks: Vec<AdNetworkId>,
    /// The site dropped its ad code after the source-search index snapshot
    /// was taken: the PublicWWW-style reversal still returns it, but live
    /// visits arm no ads. This is why only 56 % of the paper's 70,541
    /// visited publishers produced third-party landings.
    pub stale: bool,
}

impl PublisherSite {
    /// The site's front-page URL (the crawler's entry point).
    pub fn url(&self) -> Url {
        Url::http(self.domain.clone(), "/")
    }

    /// Stable word for deterministic hashing of per-publisher decisions.
    pub fn word(&self) -> u64 {
        str_word(&self.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_cover_table2_total() {
        // Table 2 covers ~85% of SEACMA publisher domains (top-20 cats).
        let total: f64 = SiteCategory::ALL.iter().map(|c| c.weight()).sum();
        assert!((85.0..95.0).contains(&total), "total {total}");
    }

    #[test]
    fn suspicious_is_heaviest() {
        let max = SiteCategory::ALL
            .iter()
            .max_by(|a, b| a.weight().total_cmp(&b.weight()))
            .unwrap();
        assert_eq!(*max, SiteCategory::Suspicious);
    }

    #[test]
    fn adult_flags() {
        assert!(SiteCategory::Pornography.is_adult());
        assert!(SiteCategory::AdultMature.is_adult());
        assert!(!SiteCategory::Games.is_adult());
    }

    #[test]
    fn url_and_word() {
        let p = PublisherSite {
            id: PublisherId(3),
            domain: "streamhub.tv".into(),
            category: SiteCategory::TvVideoStreams,
            rank: Some(900),
            networks: vec![AdNetworkId(0)],
            stale: false,
        };
        assert_eq!(p.url().to_string(), "http://streamhub.tv/");
        assert_eq!(p.word(), str_word("streamhub.tv"));
    }
}
impl_json_newtype!(PublisherId);
