//! SE attack campaigns.
//!
//! A SEACMA campaign (paper Definition 2) is a set of ads pointing to the
//! same SE attack content, hosted on frequently rotating throw-away domains
//! behind a longer-lived traffic-distribution ("milkable") URL. The six
//! categories, their campaign counts and their rotation behaviour are
//! calibrated to Tables 1 and 4 of the paper.

use seacma_util::impl_json_enum;

use crate::client::{OsClass, UaProfile};
use crate::det::det_hash;
use crate::names::throwaway_domain;
use crate::page::LockTactic;
use crate::payload::FileFormat;
use crate::time::{SimDuration, SimTime};
use crate::url::Url;
use crate::visual::VisualTemplate;

/// Identifier of a campaign within a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CampaignId(pub u32);

/// The six SE attack categories the measurement discovered (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SeCategory {
    /// Fake Flash/Java updates, fake macOS media players.
    FakeSoftware,
    /// Networks of fake-video-player pages funnelling account registrations.
    Registration,
    /// Fake lotteries and gift cards (mobile-only).
    LotteryGift,
    /// Push-notification permission lures.
    ChromeNotifications,
    /// "Your computer is infected" scanner pages.
    Scareware,
    /// Tech-support scams with call-now numbers.
    TechnicalSupport,
}

impl SeCategory {
    /// All categories, in Table 1 order.
    pub const ALL: [SeCategory; 6] = [
        SeCategory::FakeSoftware,
        SeCategory::Registration,
        SeCategory::LotteryGift,
        SeCategory::ChromeNotifications,
        SeCategory::Scareware,
        SeCategory::TechnicalSupport,
    ];

    /// Human-readable name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SeCategory::FakeSoftware => "Fake Software",
            SeCategory::Registration => "Registration",
            SeCategory::LotteryGift => "Lottery/Gift",
            SeCategory::ChromeNotifications => "Chrome Notifications",
            SeCategory::Scareware => "Scareware",
            SeCategory::TechnicalSupport => "Technical Support",
        }
    }

    /// Number of campaigns of this category in the paper (Table 1, col 4);
    /// scaled by the world config.
    pub fn paper_campaign_count(self) -> u32 {
        match self {
            SeCategory::FakeSoftware => 52,
            SeCategory::Registration => 36,
            SeCategory::LotteryGift => 9,
            SeCategory::ChromeNotifications => 3,
            SeCategory::Scareware => 5,
            SeCategory::TechnicalSupport => 3,
        }
    }

    /// Share of all SE attack impressions this category receives
    /// (Table 1, col 2 normalized: 16802/2909/4297/3419/1032/464).
    pub fn traffic_share(self) -> f64 {
        match self {
            SeCategory::FakeSoftware => 0.581,
            SeCategory::Registration => 0.101,
            SeCategory::LotteryGift => 0.149,
            SeCategory::ChromeNotifications => 0.118,
            SeCategory::Scareware => 0.036,
            SeCategory::TechnicalSupport => 0.016,
        }
    }

    /// How long each throw-away attack domain stays live before the
    /// campaign rotates to a fresh one. Derived from Tables 1/4 domain
    /// counts over the respective observation windows.
    pub fn rotation_period(self) -> SimDuration {
        match self {
            SeCategory::FakeSoftware => SimDuration::from_hours(10),
            SeCategory::Registration => SimDuration::from_hours(24),
            SeCategory::LotteryGift => SimDuration::from_hours(18),
            SeCategory::ChromeNotifications => SimDuration::from_hours(36),
            SeCategory::Scareware => SimDuration::from_hours(24),
            SeCategory::TechnicalSupport => SimDuration::from_hours(12),
        }
    }

    /// Number of attack domains a campaign keeps live in parallel
    /// (sharded by traffic source).
    pub fn parallel_shards(self) -> u8 {
        2
    }

    /// Fraction of campaigns of this category that use a TDS indirection
    /// layer (and are therefore milkable). Registration campaigns mostly
    /// drive traffic directly — which is why Table 4 shows only 47 milked
    /// Registration domains against 474 seen during crawling.
    pub fn milkable_fraction(self) -> f64 {
        match self {
            SeCategory::FakeSoftware => 0.95,
            SeCategory::Registration => 0.10,
            SeCategory::LotteryGift => 0.90,
            SeCategory::ChromeNotifications => 0.90,
            SeCategory::Scareware => 0.40,
            SeCategory::TechnicalSupport => 0.50,
        }
    }

    /// OS classes this category's landing pages serve. Lottery/gift scams
    /// are mobile-only in the paper's data.
    pub fn targets(self, ua: UaProfile) -> bool {
        match self {
            SeCategory::LotteryGift => ua.is_mobile(),
            // Mac-targeted fake players plus Windows fake updates: all UAs.
            _ => true,
        }
    }

    /// Page-locking tactics typical of the category.
    pub fn lock_tactics(self) -> &'static [LockTactic] {
        match self {
            SeCategory::TechnicalSupport => {
                &[LockTactic::ModalDialogLoop, LockTactic::AuthDialogStorm, LockTactic::OnBeforeUnload]
            }
            SeCategory::Scareware => &[LockTactic::ModalDialogLoop, LockTactic::OnBeforeUnload],
            SeCategory::FakeSoftware => &[LockTactic::OnBeforeUnload],
            _ => &[],
        }
    }

    /// Whether interacting with the landing page yields a file download.
    pub fn serves_download(self) -> bool {
        matches!(self, SeCategory::FakeSoftware | SeCategory::Scareware)
    }

    /// Stable numeric id for deterministic hashing.
    pub fn index(self) -> u64 {
        match self {
            SeCategory::FakeSoftware => 0,
            SeCategory::Registration => 1,
            SeCategory::LotteryGift => 2,
            SeCategory::ChromeNotifications => 3,
            SeCategory::Scareware => 4,
            SeCategory::TechnicalSupport => 5,
        }
    }
}

impl std::fmt::Display for SeCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One SE attack campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SeCampaign {
    /// Campaign id (index into the world's campaign table).
    pub id: CampaignId,
    /// Attack category.
    pub category: SeCategory,
    /// Visual skin — unique per campaign so each campaign forms its own
    /// screenshot cluster.
    pub skin: u16,
    /// Malware family for downloadable payloads.
    pub family: u64,
    /// Long-lived TDS ("milkable") domain, if the campaign uses
    /// indirection. `None` means ads redirect straight to attack domains.
    pub tds_domain: Option<String>,
    /// Path component of the TDS URL.
    pub tds_path: String,
    /// Stable landing path used on every attack domain (paper Fig. 4:
    /// "same SE attack with same URL pattern").
    pub landing_path: String,
    /// Relative traffic weight within its category.
    pub weight: f64,
}

impl SeCampaign {
    /// The rotation epoch index at time `t`, staggered per campaign so all
    /// campaigns don't rotate simultaneously.
    pub fn epoch(&self, t: SimTime) -> u64 {
        let period = self.category.rotation_period().minutes();
        let stagger = det_hash(&[u64::from(self.id.0), 0x57A6]) % period;
        (t.minutes() + stagger) / period
    }

    /// Time at which epoch `e` begins.
    pub fn epoch_start(&self, e: u64) -> SimTime {
        let period = self.category.rotation_period().minutes();
        let stagger = det_hash(&[u64::from(self.id.0), 0x57A6]) % period;
        SimTime((e * period).saturating_sub(stagger))
    }

    /// The throw-away attack domain live at epoch `e` for traffic shard
    /// `shard`.
    pub fn attack_domain_at_epoch(&self, world_seed: u64, e: u64, shard: u8) -> String {
        throwaway_domain(&[world_seed, 0xD0_5EAC, u64::from(self.id.0), e, u64::from(shard)])
    }

    /// The attack domain currently live at time `t` for `shard`.
    pub fn attack_domain(&self, world_seed: u64, t: SimTime, shard: u8) -> String {
        self.attack_domain_at_epoch(world_seed, self.epoch(t), shard)
    }

    /// Full attack-page URL at time `t` for `shard`.
    pub fn attack_url(&self, world_seed: u64, t: SimTime, shard: u8) -> Url {
        Url::http(self.attack_domain(world_seed, t, shard), self.landing_path.clone())
    }

    /// The campaign's milkable TDS URL for `shard`, if it has one.
    pub fn tds_url(&self, shard: u8) -> Option<Url> {
        self.tds_domain.as_ref().map(|d| {
            Url::http(d.clone(), format!("{}?s={}", self.tds_path, shard))
        })
    }

    /// The campaign's visual template.
    pub fn template(&self) -> VisualTemplate {
        match self.category {
            SeCategory::FakeSoftware => VisualTemplate::FakeSoftware { skin: self.skin },
            SeCategory::Registration => VisualTemplate::Registration { skin: self.skin },
            SeCategory::LotteryGift => VisualTemplate::Lottery { skin: self.skin },
            SeCategory::ChromeNotifications => {
                VisualTemplate::ChromeNotification { skin: self.skin }
            }
            SeCategory::Scareware => VisualTemplate::Scareware { skin: self.skin },
            SeCategory::TechnicalSupport => VisualTemplate::TechSupport { skin: self.skin },
        }
    }

    /// Payload container format served to the given client.
    pub fn payload_format(&self, ua: UaProfile) -> FileFormat {
        match ua.os() {
            OsClass::MacOs => FileFormat::Dmg,
            OsClass::Windows => FileFormat::Pe,
            OsClass::Android => FileFormat::Crx,
        }
    }

    /// How many rotation epochs a dead domain keeps resolving to a parking
    /// page before dropping out of DNS entirely.
    pub const PARKED_GRACE_EPOCHS: u64 = 12;

    /// The scam call-center number shown on technical-support pages at
    /// time `t`. Numbers rotate far more slowly than domains (call centers
    /// are expensive); the paper notes the system "provides an automatic
    /// real-time way to collect these scam phone numbers and add \[them\] to
    /// a blacklist".
    pub fn scam_phone(&self, world_seed: u64, t: SimTime) -> Option<String> {
        if self.category != SeCategory::TechnicalSupport {
            return None;
        }
        let week = t.minutes() / SimDuration::from_days(7).minutes();
        let h = det_hash(&[world_seed, 0x940_4E, u64::from(self.id.0), week]);
        Some(format!(
            "+1-8{}{}-{:03}-{:04}",
            h % 10,
            (h >> 8) % 10,
            (h >> 16) % 1000,
            (h >> 32) % 10_000
        ))
    }

    /// The survey-scam gateway URL the lottery landing funnels victims to
    /// at time `t`. Gateways sit on their own slowly-rotating domains
    /// (studied in the Surveylance paper the authors cite); our system
    /// "provides an automatic way of collecting the gateways".
    pub fn survey_gateway(&self, world_seed: u64, t: SimTime) -> Option<Url> {
        if self.category != SeCategory::LotteryGift {
            return None;
        }
        let period = t.minutes() / SimDuration::from_days(4).minutes();
        let domain = throwaway_domain(&[world_seed, 0x5B4_6E, u64::from(self.id.0), period]);
        Some(Url::http(domain, format!("/survey?cid={}", self.id.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::DAY;

    fn campaign(cat: SeCategory) -> SeCampaign {
        SeCampaign {
            id: CampaignId(5),
            category: cat,
            skin: 5,
            family: 1005,
            tds_domain: Some("findglo210.info".into()),
            tds_path: "/go".into(),
            landing_path: "/landing/k5".into(),
            weight: 1.0,
        }
    }

    #[test]
    fn category_counts_sum_to_108() {
        let total: u32 = SeCategory::ALL.iter().map(|c| c.paper_campaign_count()).sum();
        assert_eq!(total, 108);
    }

    #[test]
    fn traffic_shares_sum_to_one() {
        let total: f64 = SeCategory::ALL.iter().map(|c| c.traffic_share()).sum();
        assert!((total - 1.0).abs() < 0.01, "shares sum to {total}");
    }

    #[test]
    fn lottery_targets_only_mobile() {
        assert!(SeCategory::LotteryGift.targets(UaProfile::ChromeAndroid));
        assert!(!SeCategory::LotteryGift.targets(UaProfile::ChromeMac));
        assert!(SeCategory::FakeSoftware.targets(UaProfile::ChromeMac));
    }

    #[test]
    fn domains_rotate_on_schedule() {
        let c = campaign(SeCategory::FakeSoftware);
        let d0 = c.attack_domain(1, SimTime::EPOCH, 0);
        // Same epoch → same domain.
        assert_eq!(c.attack_domain(1, SimTime(1), 0), d0);
        // After > rotation period, the domain must have changed.
        let later = SimTime::EPOCH + c.category.rotation_period() + crate::time::HOUR;
        assert_ne!(c.attack_domain(1, later, 0), d0);
    }

    #[test]
    fn fourteen_days_of_milking_yields_expected_domain_count() {
        // FakeSoftware rotates every 10h → ~33-34 distinct domains per
        // shard over 14 days (paper: 1665 domains / ~50 milkable
        // campaigns ≈ 33).
        let c = campaign(SeCategory::FakeSoftware);
        let mut domains = std::collections::HashSet::new();
        let mut t = SimTime::EPOCH;
        while t < SimTime::EPOCH + DAY * 14 {
            domains.insert(c.attack_domain(1, t, 0));
            t += crate::time::SimDuration::from_minutes(15);
        }
        assert!(
            (32..=35).contains(&domains.len()),
            "got {} domains over 14 days",
            domains.len()
        );
    }

    #[test]
    fn shards_use_distinct_domains() {
        let c = campaign(SeCategory::FakeSoftware);
        assert_ne!(
            c.attack_domain(1, SimTime::EPOCH, 0),
            c.attack_domain(1, SimTime::EPOCH, 1)
        );
    }

    #[test]
    fn epoch_start_inverts_epoch() {
        let c = campaign(SeCategory::LotteryGift);
        for t in [SimTime(0), SimTime(5000), SimTime(100_000)] {
            let e = c.epoch(t);
            let start = c.epoch_start(e);
            assert!(start <= t);
            assert_eq!(c.epoch(start), e, "epoch_start must land in the same epoch");
        }
    }

    #[test]
    fn tds_url_carries_shard() {
        let c = campaign(SeCategory::FakeSoftware);
        let u = c.tds_url(1).unwrap();
        assert_eq!(u.host, "findglo210.info");
        assert!(u.query.contains("s=1"));
        let direct = SeCampaign { tds_domain: None, ..c };
        assert!(direct.tds_url(0).is_none());
    }

    #[test]
    fn templates_match_categories() {
        let c = campaign(SeCategory::Scareware);
        assert!(matches!(c.template(), VisualTemplate::Scareware { skin: 5 }));
        assert!(c.template().is_attack());
    }

    #[test]
    fn payload_format_follows_os() {
        let c = campaign(SeCategory::FakeSoftware);
        assert_eq!(c.payload_format(UaProfile::ChromeMac), FileFormat::Dmg);
        assert_eq!(c.payload_format(UaProfile::Ie10Windows), FileFormat::Pe);
        assert_eq!(c.payload_format(UaProfile::ChromeAndroid), FileFormat::Crx);
    }
}
impl_json_enum!(SeCategory {
    FakeSoftware,
    Registration,
    LotteryGift,
    ChromeNotifications,
    Scareware,
    TechnicalSupport,
});
