//! The generated web ecosystem and its hosting logic.
//!
//! [`World::generate`] builds the full cast — ad networks, campaigns,
//! publishers, benign advertisers, clustering confounders — from a single
//! seed. [`World::fetch`] then resolves any URL for a given client profile
//! and simulated time, emitting exactly one hop (page or redirect) per
//! call. Responses are pure functions of `(seed, url, client, time)`.

use std::collections::HashMap;

use seacma_util::impl_json_struct;

use crate::adnet::{standard_networks, AdNetworkId, AdNetworkSpec};
use crate::campaign::{CampaignId, SeCampaign, SeCategory};
use crate::client::{ClientProfile, UaProfile};
use crate::det::{det_bool, det_f64, det_hash, det_range, det_weighted, str_word};
use crate::host::{HostResponse, LiteResponse, RedirectKind};
use crate::names::{common_domain, gibberish_label, throwaway_domain};
use crate::page::{ClickAction, Element, ElementKind, Page};
use crate::payload::FilePayload;
use crate::publisher::{PublisherId, PublisherSite, SiteCategory};
use crate::time::SimTime;
use crate::url::Url;
use crate::visual::VisualTemplate;

/// Parameters of world generation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; one seed ⇒ byte-identical world and measurements.
    pub seed: u64,
    /// Number of publisher sites that embed at least one *seed-listed* ad
    /// network (the PublicWWW-reversible pool; paper: 93,427).
    pub n_publishers: u32,
    /// Additional publishers that embed only hidden networks (discovered
    /// later via the new-ad-network loop; paper: 8,981).
    pub n_hidden_only_publishers: u32,
    /// Number of benign advertiser sites.
    pub n_advertisers: u32,
    /// Multiplier on the paper's per-category campaign counts (1.0 ⇒ 108
    /// campaigns).
    pub campaign_scale: f64,
    /// Probability that a benign ad click lands on a clustering confounder
    /// (parked page, stock-image adult lure, URL-shortener interstitial).
    pub confounder_rate: f64,
    /// Probability that a landing-page load fails blank (the paper's one
    /// spurious cluster).
    pub error_rate: f64,
    /// Fraction of publishers whose ad code is gone by crawl time (stale
    /// search-index entries; drives the visited-vs-productive gap).
    pub stale_fraction: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EAC_A201,
            n_publishers: 8000,
            n_hidden_only_publishers: 800,
            n_advertisers: 400,
            campaign_scale: 1.0,
            confounder_rate: 0.08,
            error_rate: 0.0015,
            stale_fraction: 0.35,
        }
    }
}

/// A clustering confounder hosted on many unrelated domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Confounder {
    Parked { provider: u16 },
    StockAdult { image: u16 },
    Shortener { service: u16 },
}

/// The hosting handler a URL belongs to (see `World::route`).
enum Route {
    Publisher(PublisherId),
    AdClick(AdNetworkId),
    Tds(CampaignId),
    Attack(CampaignId),
    Exchange,
    Advertiser(u32),
    Confounder(Confounder),
    Unknown,
}

/// Number of distinct parking-provider layouts (the paper found 11 parked
/// clusters).
pub const PARKED_PROVIDERS: u16 = 11;
/// Number of stock adult images (6 clusters in the paper).
pub const STOCK_IMAGES: u16 = 6;
/// Number of shortener services × layout variants (4 clusters).
pub const SHORTENER_SERVICES: u16 = 4;

/// The generated ecosystem.
///
/// ```
/// use seacma_simweb::{ClientProfile, UaProfile, Vantage, SimTime, World, WorldConfig};
///
/// let world = World::generate(WorldConfig {
///     n_publishers: 50,
///     n_hidden_only_publishers: 5,
///     n_advertisers: 10,
///     ..Default::default()
/// });
/// let client = ClientProfile::stealthy(UaProfile::ChromeMac, Vantage::Residential);
/// let publisher = world.publishers().iter().find(|p| !p.stale).unwrap();
/// let page = world
///     .fetch(&publisher.url(), &client, SimTime::EPOCH)
///     .page()
///     .expect("publishers serve pages")
///     .clone();
/// assert!(!page.ad_click_chain.is_empty(), "ad listeners are armed");
/// ```
pub struct World {
    config: WorldConfig,
    networks: Vec<AdNetworkSpec>,
    campaigns: Vec<SeCampaign>,
    publishers: Vec<PublisherSite>,
    advertiser_domains: Vec<String>,
    advertiser_weights: Vec<f64>,
    pub_by_domain: HashMap<String, PublisherId>,
    net_by_code_domain: HashMap<String, AdNetworkId>,
    campaign_by_tds: HashMap<String, CampaignId>,
    campaign_by_landing: HashMap<String, CampaignId>,
    advertiser_by_domain: HashMap<String, u32>,
    confounder_by_domain: HashMap<String, Confounder>,
    /// Sorted confounder domains for deterministic weighted picks.
    confounder_domains: Vec<String>,
    /// Ad-exchange hosts (syndication hop between network and TDS).
    exchange_domains: Vec<String>,
    /// Per-UA SE inventory columns, indexed by [`UaProfile::index`]:
    /// the campaign indices whose category targets that UA, with their
    /// serving weights in the same order. Precomputed at generation so
    /// the per-click campaign draw borrows two slices instead of
    /// filtering and re-weighting the whole inventory per ad click.
    se_inventory: Vec<(Vec<u32>, Vec<f64>)>,
}

impl World {
    /// Generates a world from the given configuration.
    pub fn generate(config: WorldConfig) -> World {
        let seed = config.seed;
        let networks = standard_networks();

        // --- campaigns -----------------------------------------------------
        let mut campaigns = Vec::new();
        for cat in SeCategory::ALL {
            let count =
                ((f64::from(cat.paper_campaign_count()) * config.campaign_scale).round() as u32)
                    .max(1);
            for k in 0..count {
                let id = CampaignId(campaigns.len() as u32);
                let cid = u64::from(id.0);
                let milkable = det_f64(&[seed, 0x317B, cid]) < cat.milkable_fraction();
                let tds_domain = milkable.then(|| {
                    // TDS domains live on .info/.club style cheap TLDs but
                    // persist for the whole measurement.
                    throwaway_domain(&[seed, 0x7D5_D0, cid])
                });
                let landing_path = format!(
                    "/{}/idx.php",
                    gibberish_label(&[seed, 0x1A_7D1F, cid], 2, 3)
                );
                campaigns.push(SeCampaign {
                    id,
                    category: cat,
                    skin: k as u16,
                    family: 1000 + cid,
                    tds_domain,
                    tds_path: format!("/{}", gibberish_label(&[seed, 0x7D5_A7, cid], 1, 2)),
                    landing_path,
                    weight: 0.5 + det_f64(&[seed, 0x3E16, cid]),
                });
            }
        }

        // --- publishers ----------------------------------------------------
        let cat_weights: Vec<f64> = SiteCategory::ALL.iter().map(|c| c.weight()).collect();
        let seed_ids: Vec<AdNetworkId> =
            networks.iter().filter(|n| n.seed_listed).map(|n| n.id).collect();
        let seed_vols: Vec<f64> =
            networks.iter().filter(|n| n.seed_listed).map(|n| n.volume_weight).collect();
        let hidden_ids: Vec<AdNetworkId> =
            networks.iter().filter(|n| !n.seed_listed).map(|n| n.id).collect();

        let total_pubs = config.n_publishers + config.n_hidden_only_publishers;
        let mut publishers = Vec::with_capacity(total_pubs as usize);
        let mut pub_by_domain = HashMap::with_capacity(total_pubs as usize);
        for i in 0..total_pubs {
            let pid = u64::from(i);
            // Retry on name collision: domains must be unique.
            let mut attempt = 0u64;
            let domain = loop {
                let d = common_domain(&[seed, 0x9B_B1, pid, attempt]);
                if !pub_by_domain.contains_key(&d) {
                    break d;
                }
                attempt += 1;
            };
            let category =
                SiteCategory::ALL[det_weighted(&[seed, 0xCA7, pid], &cat_weights)];
            // Paper §4.3: 52 of 11,341 SEACMA publishers in the top 10,000,
            // 4 in the top 1,000.
            let rank = if det_f64(&[seed, 0x9A_2A, pid]) < 0.006 {
                Some(1 + det_range(&[seed, 0x9A_2B, pid], 10_000) as u32)
            } else {
                None
            };
            let hidden_only = i >= config.n_publishers;
            let mut nets = Vec::new();
            if hidden_only {
                nets.push(pick_hidden(&networks, &hidden_ids, category, &[seed, 0x41D, pid]));
            } else {
                // 1–3 seed networks, volume-weighted; greedy sites stack
                // several (paper §3.2).
                let n_nets = 1 + det_weighted(&[seed, 0x92E, pid], &[0.55, 0.33, 0.12]);
                for j in 0..n_nets {
                    let idx =
                        det_weighted(&[seed, 0x92F, pid, j as u64], &seed_vols);
                    let id = seed_ids[idx];
                    if !nets.contains(&id) {
                        nets.push(id);
                    }
                }
                // Some seed-pool publishers additionally run a hidden
                // network — the source of "unknown" attributions.
                if det_f64(&[seed, 0x930, pid]) < 0.30 {
                    let h = pick_hidden(&networks, &hidden_ids, category, &[seed, 0x931, pid]);
                    if !nets.contains(&h) {
                        nets.push(h);
                    }
                }
            }
            let site = PublisherSite {
                id: PublisherId(i),
                domain: domain.clone(),
                category,
                rank,
                networks: nets,
                stale: det_f64(&[seed, 0x57A1E, pid]) < config.stale_fraction,
            };
            pub_by_domain.insert(domain, site.id);
            publishers.push(site);
        }

        // --- benign advertisers ---------------------------------------------
        let mut advertiser_domains = Vec::with_capacity(config.n_advertisers as usize);
        let mut advertiser_by_domain = HashMap::new();
        let mut advertiser_weights = Vec::with_capacity(config.n_advertisers as usize);
        for i in 0..config.n_advertisers {
            let mut attempt = 0u64;
            let domain = loop {
                let d = common_domain(&[seed, 0xAD_BE, u64::from(i), attempt]);
                if !advertiser_by_domain.contains_key(&d) && !pub_by_domain.contains_key(&d) {
                    break d;
                }
                attempt += 1;
            };
            advertiser_by_domain.insert(domain.clone(), i);
            advertiser_domains.push(domain);
            // Zipf-ish: a few advertisers absorb most benign clicks, which
            // is what makes the worst-case ethics cost (~1,209 hits on one
            // domain) emerge.
            advertiser_weights.push(1.0 / f64::from(i + 1).powf(0.9));
        }

        // --- ad network code domains ----------------------------------------
        let mut net_by_code_domain = HashMap::new();
        for n in &networks {
            for slot in 0..n.code_domain_pool {
                net_by_code_domain.insert(n.code_domain(seed, slot), n.id);
            }
        }

        // --- campaign lookup tables ------------------------------------------
        let mut campaign_by_tds = HashMap::new();
        let mut campaign_by_landing = HashMap::new();
        for c in &campaigns {
            if let Some(d) = &c.tds_domain {
                campaign_by_tds.insert(d.clone(), c.id);
            }
            let prev = campaign_by_landing.insert(c.landing_path.clone(), c.id);
            assert!(prev.is_none(), "landing-path collision between campaigns");
        }

        // --- confounder domains ----------------------------------------------
        let mut confounder_by_domain = HashMap::new();
        for i in 0..260u64 {
            let d = throwaway_domain(&[seed, 0x9A_12D, i]);
            confounder_by_domain
                .insert(d, Confounder::Parked { provider: (i % u64::from(PARKED_PROVIDERS)) as u16 });
        }
        for i in 0..60u64 {
            let d = throwaway_domain(&[seed, 0x57_0C4, i]);
            confounder_by_domain
                .insert(d, Confounder::StockAdult { image: (i % u64::from(STOCK_IMAGES)) as u16 });
        }
        for i in 0..48u64 {
            let d = throwaway_domain(&[seed, 0x5407, i]);
            confounder_by_domain
                .insert(d, Confounder::Shortener { service: (i % u64::from(SHORTENER_SERVICES)) as u16 });
        }

        let mut confounder_domains: Vec<String> = confounder_by_domain.keys().cloned().collect();
        confounder_domains.sort();

        // --- ad exchanges ------------------------------------------------------
        let exchange_domains: Vec<String> = (0..6u64)
            .map(|i| {
                format!("{}.com", gibberish_label(&[seed, 0xE8_C4A, i], 2, 3))
            })
            .collect();

        // --- per-UA SE inventory columns ---------------------------------------
        // Exactly the sequence `pick_campaign` used to build per click:
        // campaigns filtered by category targeting in inventory order,
        // weighted by traffic share × weight / scaled category size. The
        // weights are computed once here with the same expression, so the
        // weighted draw consumes bit-identical `f64`s.
        let se_inventory: Vec<(Vec<u32>, Vec<f64>)> = UaProfile::ALL
            .iter()
            .map(|&ua| {
                let idx: Vec<u32> = campaigns
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.category.targets(ua))
                    .map(|(i, _)| i as u32)
                    .collect();
                let weights: Vec<f64> = idx
                    .iter()
                    .map(|&i| {
                        let c = &campaigns[i as usize];
                        let cat_n =
                            c.category.paper_campaign_count() as f64 * config.campaign_scale;
                        c.category.traffic_share() * c.weight / cat_n.max(1.0)
                    })
                    .collect();
                (idx, weights)
            })
            .collect();
        debug_assert!(
            UaProfile::ALL.iter().enumerate().all(|(i, ua)| ua.index() as usize == i),
            "inventory columns are indexed by UaProfile::index"
        );

        World {
            config,
            networks,
            campaigns,
            publishers,
            advertiser_domains,
            advertiser_weights,
            pub_by_domain,
            net_by_code_domain,
            campaign_by_tds,
            campaign_by_landing,
            advertiser_by_domain,
            confounder_by_domain,
            confounder_domains,
            exchange_domains,
            se_inventory,
        }
    }

    /// The generation configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The world seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// All ad networks (seed-listed first).
    pub fn networks(&self) -> &[AdNetworkSpec] {
        &self.networks
    }

    /// All SE campaigns (ground truth).
    pub fn campaigns(&self) -> &[SeCampaign] {
        &self.campaigns
    }

    /// All publisher sites.
    pub fn publishers(&self) -> &[PublisherSite] {
        &self.publishers
    }

    /// Looks up a publisher by domain.
    pub fn publisher_by_domain(&self, domain: &str) -> Option<&PublisherSite> {
        self.pub_by_domain.get(domain).map(|id| &self.publishers[id.0 as usize])
    }

    /// Looks up a campaign by id.
    pub fn campaign(&self, id: CampaignId) -> &SeCampaign {
        &self.campaigns[id.0 as usize]
    }

    /// The ad network owning a code domain, if any (ground truth the
    /// attribution step must recover from URL patterns alone).
    pub fn network_of_code_domain(&self, domain: &str) -> Option<AdNetworkId> {
        self.net_by_code_domain.get(domain).copied()
    }

    /// Ground truth: the campaign whose *current or past* attack domain is
    /// `domain` near time `t`, if any. Used only for evaluation, never by
    /// the pipeline itself.
    pub fn campaign_of_attack_domain(&self, domain: &str, t: SimTime) -> Option<CampaignId> {
        for c in &self.campaigns {
            let e_now = c.epoch(t);
            let lo = e_now.saturating_sub(SeCampaign::PARKED_GRACE_EPOCHS);
            for e in lo..=e_now {
                for shard in 0..c.category.parallel_shards() {
                    if c.attack_domain_at_epoch(self.seed(), e, shard) == domain {
                        return Some(c.id);
                    }
                }
            }
        }
        None
    }

    /// The publisher page source (markup + ad loader snippets) as indexed
    /// by the PublicWWW-style search engine. Time-independent.
    pub fn publisher_source(&self, id: PublisherId) -> String {
        let p = &self.publishers[id.0 as usize];
        let mut s = format!("<html><title>{}</title>\n", p.domain);
        for nid in &p.networks {
            let n = &self.networks[nid.0 as usize];
            s.push_str(&n.loader_snippet(self.seed(), p.word()));
            s.push('\n');
        }
        s.push_str("</html>\n");
        s
    }

    /// Which hosting handler answers `url`: the lookup order every fetch
    /// variant shares (a host can sit in one map only, but an attack page
    /// is found by its *path*, so the order is part of the answer).
    fn route(&self, url: &Url) -> Route {
        if let Some(&pid) = self.pub_by_domain.get(&url.host) {
            Route::Publisher(pid)
        } else if let Some(&nid) = self.net_by_code_domain.get(&url.host) {
            Route::AdClick(nid)
        } else if let Some(&cid) = self.campaign_by_tds.get(&url.host) {
            Route::Tds(cid)
        } else if let Some(&cid) = self.campaign_by_landing.get(&url.path) {
            Route::Attack(cid)
        } else if self.exchange_domains.contains(&url.host) {
            Route::Exchange
        } else if let Some(&adv) = self.advertiser_by_domain.get(&url.host) {
            Route::Advertiser(adv)
        } else if let Some(&conf) = self.confounder_by_domain.get(&url.host) {
            Route::Confounder(conf)
        } else {
            Route::Unknown
        }
    }

    /// Resolves one hop of `url` for `client` at time `t`.
    pub fn fetch(&self, url: &Url, client: &ClientProfile, t: SimTime) -> HostResponse {
        // Transient blank loads (spurious-cluster source) can hit any
        // document fetch.
        if self.transient_error(url, t) {
            return HostResponse::Page(Box::new(Page::bare(
                url.clone(),
                "",
                VisualTemplate::LoadError,
            )));
        }
        match self.route(url) {
            Route::Publisher(pid) => self.serve_publisher(pid, url, client, t),
            Route::AdClick(nid) => self.serve_ad_click(nid, url, client, t),
            Route::Tds(cid) => self.serve_tds(cid, url, client, t),
            Route::Attack(cid) => self.serve_attack(cid, url, client, t),
            Route::Exchange => self.serve_exchange(url, client, t),
            Route::Advertiser(adv) => self.serve_advertiser(adv, url),
            Route::Confounder(conf) => self.serve_confounder(conf, url),
            Route::Unknown => HostResponse::NxDomain,
        }
    }

    /// Resolves one hop of `url` like [`fetch`](Self::fetch) with the
    /// document body elided: the same routing, the same per-document error
    /// draw, the same redirect targets — but handlers that would
    /// synthesize a page return [`LiteResponse::Doc`] without building it.
    /// This is the `HEAD`-request view of the ecosystem; the milker's
    /// no-op re-visits (~98 % of its sessions) only need it to learn the
    /// landing domain. `LiteResponse::of(&fetch(…)) == fetch_lite(…)` for
    /// every URL is pinned by a property test below.
    pub fn fetch_lite(&self, url: &Url, client: &ClientProfile, t: SimTime) -> LiteResponse {
        self.fetch_lite_ttl(url, client, t).0
    }

    /// [`fetch_lite`](Self::fetch_lite) plus a validity horizon: the
    /// returned classification (and redirect target, if any) is guaranteed
    /// to be what `fetch_lite` would return for **every** `t' ∈ [t, h)`.
    /// The simulated hosting layer genuinely knows how long its responses
    /// stay valid — the error draw rotates on 30-minute buckets, ad
    /// inventory on 2-hour buckets, attack domains on campaign epochs —
    /// so this is the ecosystem's honest `Cache-Control` header. Repeat
    /// probers (the milker re-visits each source ~1,300 times) can skip
    /// re-resolution inside the window; the horizon's soundness is pinned
    /// by a property test.
    pub fn fetch_lite_ttl(
        &self,
        url: &Url,
        client: &ClientProfile,
        t: SimTime,
    ) -> (LiteResponse, SimTime) {
        const FOREVER: SimTime = SimTime(u64::MAX);
        // The transient-error draw re-rolls every 30 minutes; with a zero
        // error rate it never fires and constrains nothing.
        let err_h = if self.config.error_rate > 0.0 {
            SimTime((t.minutes() / 30 + 1) * 30)
        } else {
            FOREVER
        };
        if self.transient_error(url, t) {
            return (LiteResponse::Doc, err_h); // transient blank load
        }
        let (resp, stable_h) = self.fetch_lite_stable(url, client, t);
        (resp, err_h.min(stable_h))
    }

    /// Whether the hosting layer's transient-failure draw fires for a
    /// document fetch of `url` at `t` — the blank-load branch every
    /// [`fetch`](Self::fetch) runs first. Exposed so repeat probers can
    /// re-check only this draw (it re-rolls on 30-minute buckets) against
    /// a memoized redirect chain whose stable classification
    /// ([`fetch_lite_stable`](Self::fetch_lite_stable)) is still valid.
    pub fn transient_error(&self, url: &Url, t: SimTime) -> bool {
        det_bool(
            &[self.seed(), 0xE44, url.det_word(), t.minutes() / 30],
            self.config.error_rate,
        )
    }

    /// [`fetch_lite`](Self::fetch_lite) **as if the transient-error draw
    /// never fired**, plus the validity horizon of that error-free view:
    /// classification and redirect target are guaranteed unchanged for
    /// every `t' ∈ [t, h)` at which no transient error fires. Combined
    /// with [`transient_error`](Self::transient_error) this factors
    /// `fetch_lite_ttl` into its long-lived part (ad-inventory buckets,
    /// campaign epochs — hours) and its fast-rolling part (the 30-minute
    /// error draw), so a prober can memoize the chain on the former and
    /// re-roll only the latter.
    pub fn fetch_lite_stable(
        &self,
        url: &Url,
        client: &ClientProfile,
        t: SimTime,
    ) -> (LiteResponse, SimTime) {
        const FOREVER: SimTime = SimTime(u64::MAX);
        let (resp, selector_h) = match self.route(url) {
            Route::Publisher(_) | Route::Advertiser(_) | Route::Confounder(_) => {
                (LiteResponse::Doc, FOREVER)
            }
            Route::AdClick(nid) => {
                // Ad clicks only ever redirect or refuse; no body to elide.
                // Inventory rotates on 2-hour buckets (`t/120` in the
                // serving draws), so the redirect choice holds until the
                // next one.
                let bucket_h = SimTime((t.minutes() / 120 + 1) * 120);
                (LiteResponse::of(&self.serve_ad_click(nid, url, client, t)), bucket_h)
            }
            Route::Tds(cid) => (LiteResponse::of(&self.serve_tds(cid, url, client, t)), FOREVER),
            Route::Attack(cid) => {
                // Live or parked epochs both serve a document (attack page
                // or registrar parking page); only a fully expired domain
                // NXes. Either way the verdict can only flip at an epoch
                // boundary.
                let c = self.campaign(cid);
                let resp = match Self::attack_epoch_match(c, self.seed(), &url.host, t) {
                    Some(_) => LiteResponse::Doc,
                    None => LiteResponse::NxDomain,
                };
                (resp, c.epoch_start(c.epoch(t) + 1))
            }
            Route::Exchange => (LiteResponse::of(&self.serve_exchange(url, client, t)), FOREVER),
            Route::Unknown => (LiteResponse::NxDomain, FOREVER),
        };

        // A redirect into a campaign's rotating landing path (from the
        // TDS, an exchange bid response or a direct ad click) is minted
        // fresh each epoch — it expires at the campaign's next rotation.
        let target_h = match &resp {
            LiteResponse::Redirect { to, .. } => match self.campaign_by_landing.get(&to.path) {
                Some(&cid) => {
                    let c = self.campaign(cid);
                    c.epoch_start(c.epoch(t) + 1)
                }
                None => FOREVER,
            },
            _ => FOREVER,
        };
        (resp, selector_h.min(target_h))
    }

    /// Conservative content-validity horizon for a **direct publisher
    /// load**: when `url`'s host is a publisher domain, returns `h` such
    /// that `fetch(url, client, t')` is bit-identical to
    /// `fetch(url, client, t)` for every client and every `t' ∈ [t, h)`.
    /// Publisher hosts always answer a fetch with a document (the content
    /// page, or the transient blank page when the error draw fires), so
    /// that one response determines an entire zero-hop page load —
    /// repeat visitors (the crawler reloads each publisher between ad
    /// interactions) can replay the previous load inside the window.
    ///
    /// Publisher serving varies with time only through the ad networks'
    /// daily slot rotation (`t.days()` in the handler) and the 30-minute
    /// transient-error re-roll in [`fetch`](Self::fetch); day boundaries
    /// are themselves 30-minute boundaries, so the next 30-minute
    /// boundary bounds both. Non-publisher URLs return `None` — no
    /// validity is claimed for them. Soundness is pinned by a property
    /// test alongside the `fetch_lite_ttl` horizon's.
    pub fn publisher_content_horizon(&self, url: &Url, t: SimTime) -> Option<SimTime> {
        self.pub_by_domain
            .contains_key(&url.host)
            .then(|| SimTime((t.minutes() / 30 + 1) * 30))
    }

    /// The most recent epoch within the parking grace window in which
    /// `host` was one of `c`'s attack domains, if any.
    fn attack_epoch_match(c: &SeCampaign, seed: u64, host: &str, t: SimTime) -> Option<u64> {
        let e_now = c.epoch(t);
        let lo = e_now.saturating_sub(SeCampaign::PARKED_GRACE_EPOCHS);
        for e in (lo..=e_now).rev() {
            for shard in 0..c.category.parallel_shards() {
                if c.attack_domain_at_epoch(seed, e, shard) == host {
                    return Some(e);
                }
            }
        }
        None
    }

    // --- hosting handlers ----------------------------------------------------

    fn serve_publisher(
        &self,
        pid: PublisherId,
        url: &Url,
        _client: &ClientProfile,
        t: SimTime,
    ) -> HostResponse {
        let p = &self.publishers[pid.0 as usize];
        let seed = self.seed();
        let pw = p.word();
        // Stale entries in the search index: the live page carries no ad
        // code any more.
        let networks: &[crate::adnet::AdNetworkId] = if p.stale { &[] } else { &p.networks };

        // Content elements: a grid of thumbnails/iframes of varying size.
        let n_els = 4 + det_range(&[seed, 0xE15, pw], 6) as usize;
        let mut elements = Vec::with_capacity(n_els + 1);
        for j in 0..n_els {
            let h = det_hash(&[seed, 0xE16, pw, j as u64]);
            let kind = if h % 4 == 0 { ElementKind::Iframe } else { ElementKind::Image };
            elements.push(Element {
                kind,
                width: 120 + (h >> 8) as u32 % 600,
                height: 90 + (h >> 24) as u32 % 400,
                action: ClickAction::None,
            });
        }
        // The transparent full-page overlay div injected by pop-under
        // networks (Fig. 1 of the paper): present iff the site runs at
        // least one network, rendered as a page-sized element.
        if !networks.is_empty() {
            elements.push(Element {
                kind: ElementKind::Div,
                width: 1366,
                height: 768,
                action: ClickAction::None,
            });
        }

        // Ad listeners: click k triggers network k mod n. Greedy sites thus
        // serve several networks' pop-ups in sequence (§3.2).
        let mut chain = Vec::new();
        for k in 0..(networks.len() * 2) {
            let n = &self.networks[networks[k % networks.len()].0 as usize];
            chain.push(ClickAction::OpenTab(n.click_url(seed, pw, t.days(), k as u32)));
        }

        let scripts = networks
            .iter()
            .map(|nid| {
                let n = &self.networks[nid.0 as usize];
                let slot = n.active_slot(seed, pw, t.days());
                crate::page::Script {
                    src: Url::http(n.code_domain(seed, slot), format!("{}.js", n.url_invariant)),
                    source: n.loader_snippet(seed, pw),
                }
            })
            .collect();

        let mut page = Page::bare(
            url.clone(),
            p.domain.clone(),
            VisualTemplate::PublisherHome { style: pw },
        );
        page.elements = elements;
        page.scripts = scripts;
        page.ad_click_chain = chain;
        HostResponse::Page(Box::new(page))
    }

    fn serve_ad_click(
        &self,
        nid: AdNetworkId,
        url: &Url,
        client: &ClientProfile,
        t: SimTime,
    ) -> HostResponse {
        let n = &self.networks[nid.0 as usize];
        // Script fetches (the loader itself) just serve JS — modelled as a
        // refusal to navigate (no document).
        if url.query.contains("t=js") {
            return HostResponse::Refused;
        }
        let seed = self.seed();
        let qw = str_word(&url.query);
        // Ad rotation: the same click URL serves different inventory over
        // time (2-hour buckets). This is why upstream TDS URLs milk
        // reliably while re-querying an ad network's click URL does not.
        // Every draw below salts this fixed-width base — stack arrays,
        // since this runs once per simulated ad click.
        let [cw0, cw1, cw2] = client.det_words();
        let words = [seed, 0xC11C_0, u64::from(nid.0), qw, t.minutes() / 120, cw0, cw1, cw2];

        let serves_se = n.serves_se_to(client) && det_bool(&words, n.se_rate);
        if serves_se {
            if let Some(c) = self.pick_campaign(n, client, &words) {
                let shard =
                    det_range(&[seed, 0x54A2D, u64::from(c.id.0), qw], u64::from(c.category.parallel_shards()))
                        as u8;
                if n.uses_exchange {
                    // Syndication: one more hop through an exchange whose
                    // bid-response URL encodes the winning creative.
                    let xd = &self.exchange_domains
                        [det_range(&[seed, 0xE8_C4B, qw], self.exchange_domains.len() as u64) as usize];
                    let b = u64::from(c.id.0) ^ (seed & 0xFFFF);
                    return HostResponse::Redirect {
                        to: Url::http(xd.clone(), format!("/xch/rtb?b={b:x}&s={shard}")),
                        kind: RedirectKind::Http302,
                    };
                }
                return match c.tds_url(shard) {
                    Some(tds) => HostResponse::Redirect { to: tds, kind: RedirectKind::Http302 },
                    None => HostResponse::Redirect {
                        to: c.attack_url(seed, t, shard),
                        kind: RedirectKind::JsLocation,
                    },
                };
            }
        }
        // Benign path: confounder or advertiser. Each decision below draws
        // from a freshly-salted hash — reusing the branch-selection hash
        // for the pick would confine picks to the slice of hash space
        // that survived the branch.
        let [w0, w1, w2, w3, w4, w5, w6, w7] = words;
        let benign = [w0, w1, w2, w3, w4, w5, w6, w7, 0xBE19];
        if det_bool(&benign, self.config.confounder_rate) {
            let pick = [w0, w1, w2, w3, w4, w5, w6, w7, 0xBE19, 0xC0F];
            let d = &self.confounder_domains
                [det_range(&pick, self.confounder_domains.len() as u64) as usize];
            return HostResponse::Redirect {
                to: Url::http(d.clone(), "/"),
                kind: RedirectKind::Http302,
            };
        }
        let pick = [w0, w1, w2, w3, w4, w5, w6, w7, 0xBE19, 0xADF];
        let adv = det_weighted(&pick, &self.advertiser_weights);
        HostResponse::Redirect {
            to: Url::http(self.advertiser_domains[adv].clone(), "/offer"),
            kind: RedirectKind::Http302,
        }
    }

    /// Picks a campaign compatible with the client, weighted by category
    /// traffic share × campaign weight. Returns `None` when no campaign
    /// targets this platform (e.g. nothing may remain for some desktop
    /// draws in a lottery-heavy slice).
    ///
    /// The eligibility filter and weight column depend only on the UA, so
    /// both are precomputed per UA at generation ([`World::generate`]) and
    /// borrowed here — the per-click cost is one salted hash and a
    /// weighted scan, no allocation.
    fn pick_campaign(
        &self,
        n: &AdNetworkSpec,
        client: &ClientProfile,
        words: &[u64; 8],
    ) -> Option<&SeCampaign> {
        let _ = n; // all networks draw from the global campaign inventory
        let (eligible, weights) = &self.se_inventory[client.ua.index() as usize];
        if eligible.is_empty() {
            return None;
        }
        let [w0, w1, w2, w3, w4, w5, w6, w7] = *words;
        let w = [w0, w1, w2, w3, w4, w5, w6, w7, 0x91C4];
        Some(&self.campaigns[eligible[det_weighted(&w, weights)] as usize])
    }

    /// Resolves an exchange bid-response URL: decode the winning campaign
    /// and forward to its TDS (or straight to the attack page).
    fn serve_exchange(&self, url: &Url, _client: &ClientProfile, t: SimTime) -> HostResponse {
        if url.path != "/xch/rtb" {
            return HostResponse::NxDomain;
        }
        let mut cid: Option<u64> = None;
        let mut shard: u8 = 0;
        for kv in url.query.split('&') {
            if let Some(v) = kv.strip_prefix("b=") {
                cid = u64::from_str_radix(v, 16).ok().map(|b| b ^ (self.seed() & 0xFFFF));
            }
            if let Some(v) = kv.strip_prefix("s=") {
                shard = v.parse().unwrap_or(0);
            }
        }
        let Some(cid) = cid else { return HostResponse::NxDomain };
        if cid >= self.campaigns.len() as u64 {
            return HostResponse::NxDomain;
        }
        let c = &self.campaigns[cid as usize];
        let shard = shard % c.category.parallel_shards().max(1);
        match c.tds_url(shard) {
            Some(tds) => HostResponse::Redirect { to: tds, kind: RedirectKind::Http302 },
            None => HostResponse::Redirect {
                to: c.attack_url(self.seed(), t, shard),
                kind: RedirectKind::JsLocation,
            },
        }
    }

    fn serve_tds(
        &self,
        cid: CampaignId,
        url: &Url,
        _client: &ClientProfile,
        t: SimTime,
    ) -> HostResponse {
        let c = self.campaign(cid);
        // TDS paths are stable; an unknown path on the TDS domain 404s.
        if url.path != c.tds_path {
            return HostResponse::NxDomain;
        }
        let shard: u8 = url
            .query
            .split('&')
            .find_map(|kv| kv.strip_prefix("s="))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let shard = shard % c.category.parallel_shards().max(1);
        HostResponse::Redirect {
            to: c.attack_url(self.seed(), t, shard),
            kind: RedirectKind::JsSetTimeout,
        }
    }

    fn serve_attack(
        &self,
        cid: CampaignId,
        url: &Url,
        client: &ClientProfile,
        t: SimTime,
    ) -> HostResponse {
        let c = self.campaign(cid);
        let seed = self.seed();
        // Validate the domain against current and recent epochs.
        let e_now = c.epoch(t);
        match Self::attack_epoch_match(c, seed, &url.host, t) {
            Some(e) if e == e_now => HostResponse::Page(Box::new(self.attack_page(c, url, client, t))),
            Some(_) => {
                // Expired epoch: throw-away domain dropped; registrar
                // parking page takes over.
                let provider = (str_word(&url.e2ld()) % u64::from(PARKED_PROVIDERS)) as u16;
                HostResponse::Page(Box::new(Page::bare(
                    url.clone(),
                    "domain parked",
                    VisualTemplate::Parked { provider },
                )))
            }
            None => HostResponse::NxDomain,
        }
    }

    fn attack_page(&self, c: &SeCampaign, url: &Url, client: &ClientProfile, t: SimTime) -> Page {
        let seed = self.seed();
        let mut page = Page::bare(url.clone(), c.category.name(), c.template());
        page.locking = c.category.lock_tactics().to_vec();
        page.notification_prompt = matches!(c.category, SeCategory::ChromeNotifications);
        page.scam_phone = c.scam_phone(seed, t);
        page.survey_gateway = c.survey_gateway(seed, t);
        // Polymorphism granularity: every rotated attack domain serves a
        // freshly-packed binary per platform, but repeat visits to one
        // domain return the same file — so milked-file counts track
        // discovered domains (paper: 9,476 files vs 2,042 new domains
        // across per-UA milking sources).
        let _ = t;
        let payload = c.category.serves_download().then(|| {
            FilePayload::serve(
                c.family,
                c.payload_format(client.ua),
                &[seed, str_word(&url.host), client.ua.index()],
            )
        });
        // One big call-to-action element; interacting with it is what the
        // milker does to elicit downloads / permission grants.
        let action = if let Some(p) = payload {
            page.auto_download = Some(p);
            ClickAction::Download(p)
        } else if page.notification_prompt {
            ClickAction::AllowNotifications
        } else {
            ClickAction::None
        };
        page.elements = vec![Element {
            kind: ElementKind::Button,
            width: 400,
            height: 120,
            action,
        }];
        page
    }

    fn serve_advertiser(&self, adv: u32, url: &Url) -> HostResponse {
        let mut page = Page::bare(
            url.clone(),
            format!("advertiser {adv}"),
            VisualTemplate::BenignLanding { style: det_hash(&[self.seed(), 0xAD_57, u64::from(adv)]) },
        );
        page.elements = vec![Element {
            kind: ElementKind::Image,
            width: 728,
            height: 90,
            action: ClickAction::None,
        }];
        HostResponse::Page(Box::new(page))
    }

    fn serve_confounder(&self, conf: Confounder, url: &Url) -> HostResponse {
        let visual = match conf {
            Confounder::Parked { provider } => VisualTemplate::Parked { provider },
            Confounder::StockAdult { image } => VisualTemplate::StockAdult { image },
            Confounder::Shortener { service } => VisualTemplate::ShortenerFrame { service },
        };
        let mut page = Page::bare(url.clone(), "…", visual);
        if let Confounder::Shortener { .. } = conf {
            // "Skip ad" eventually navigates to an advertiser.
            let adv = det_range(&[self.seed(), 0x5C1B, str_word(&url.host)], self.advertiser_domains.len() as u64)
                as usize;
            page.elements = vec![Element {
                kind: ElementKind::Button,
                width: 160,
                height: 48,
                action: ClickAction::Navigate(Url::http(
                    self.advertiser_domains[adv].clone(),
                    "/offer",
                )),
            }];
        }
        HostResponse::Page(Box::new(page))
    }
}

/// Picks a hidden network appropriate to the publisher's category
/// (Ero Advertising only runs on adult sites).
fn pick_hidden(
    networks: &[AdNetworkSpec],
    hidden_ids: &[AdNetworkId],
    category: SiteCategory,
    words: &[u64],
) -> AdNetworkId {
    let eligible: Vec<AdNetworkId> = hidden_ids
        .iter()
        .copied()
        .filter(|id| {
            let n = &networks[id.0 as usize];
            !n.adult_focused || category.is_adult()
        })
        .collect();
    *crate::det::det_pick(words, &eligible)
}
impl_json_struct!(WorldConfig {
    seed,
    n_publishers,
    n_hidden_only_publishers,
    n_advertisers,
    campaign_scale,
    confounder_rate,
    error_rate,
    stale_fraction,
});
