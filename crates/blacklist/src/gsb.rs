//! Google Safe Browsing simulator.
//!
//! Per-category detection probabilities and latency distributions are
//! calibrated to the paper's Tables 1 and 4: Fake-Software and Lottery
//! domains are eventually listed at moderate rates, Scareware and
//! Technical-Support at high rates but slowly, Registration and
//! Chrome-Notification campaigns evade completely. Conditional on being
//! detected at all, a domain is listed `spread · u²` days after it goes
//! live (`u` uniform), giving the long tail and the > 7-day mean lag the
//! paper measures.

use std::collections::HashMap;

use seacma_util::sym::SymbolArena;

use seacma_simweb::det::{det_f64, str_word};
use seacma_simweb::{SeCategory, SimDuration, SimTime, World};

/// Per-category GSB behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GsbParams {
    /// Probability that a domain of this category is *ever* listed.
    pub p_detect: f64,
    /// Latency spread in days: listing delay is `spread · u²` days.
    pub spread_days: f64,
}

impl GsbParams {
    /// Calibrated parameters for a category.
    pub fn for_category(cat: SeCategory) -> GsbParams {
        match cat {
            SeCategory::FakeSoftware => GsbParams { p_detect: 0.20, spread_days: 40.0 },
            SeCategory::Registration => GsbParams { p_detect: 0.0, spread_days: 1.0 },
            SeCategory::LotteryGift => GsbParams { p_detect: 0.15, spread_days: 50.0 },
            SeCategory::ChromeNotifications => GsbParams { p_detect: 0.03, spread_days: 60.0 },
            SeCategory::Scareware => GsbParams { p_detect: 0.55, spread_days: 50.0 },
            SeCategory::TechnicalSupport => GsbParams { p_detect: 0.55, spread_days: 50.0 },
        }
    }
}

/// Result of a GSB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GsbVerdict {
    /// Domain is on the blacklist at lookup time.
    Listed,
    /// Domain is not (yet) on the blacklist.
    NotListed,
}

impl GsbVerdict {
    /// True if listed.
    pub fn is_listed(self) -> bool {
        matches!(self, GsbVerdict::Listed)
    }
}

#[derive(Debug, Clone, Copy)]
struct DomainFate {
    /// When the domain went live (campaign epoch start).
    listed_at: Option<SimTime>,
}

/// Lazily-built reverse index of attack domains: `domain → occurrences`.
///
/// Classifying a looked-up domain by linear scan
/// (`World::campaign_of_attack_domain`) costs `campaigns × grace-window ×
/// shards` generated domain strings *per classified domain* — the
/// dominant cost of a paper-scale milking run's GSB traffic (~2,000 fresh
/// domains). The index generates each `(campaign, epoch, shard)` domain
/// exactly once instead, then answers every classification with one map
/// probe. Occurrences keep `(campaign position, epoch)` so window
/// filtering and tie-breaking reproduce the scan order exactly (first
/// campaign in world order wins; within it, the latest in-window epoch is
/// the activation epoch) — pinned by a property test against the scan.
///
/// Keyed through a private [`SymbolArena`]: each generated domain string
/// is stored once in the arena and the occurrence column is a plain
/// `Vec` indexed by symbol, so extending coverage by an epoch appends to
/// dense vectors instead of growing a string-keyed map.
#[derive(Default)]
struct AttackIndex {
    /// Generated domain strings, interned once each.
    arena: SymbolArena,
    /// Per symbol: `(campaign position, epoch)` occurrences, insertion
    /// order. Indexed by `Sym::index()`.
    occurrences: Vec<Vec<(u32, u64)>>,
    /// Per campaign position: epochs `[0, indexed_to)` are in the map.
    indexed_to: Vec<u64>,
}

impl AttackIndex {
    /// Extends coverage so every campaign's epochs up to its epoch at `t`
    /// (the top of the grace window) are indexed, then returns the
    /// occurrence list for `domain`.
    fn occurrences_at<'a>(
        &'a mut self,
        world: &World,
        domain: &str,
        t: SimTime,
    ) -> Option<&'a [(u32, u64)]> {
        let campaigns = world.campaigns();
        self.indexed_to.resize(campaigns.len(), 0);
        for (pos, c) in campaigns.iter().enumerate() {
            let e_now = c.epoch(t);
            let to = &mut self.indexed_to[pos];
            while *to <= e_now {
                for shard in 0..c.category.parallel_shards() {
                    let d = c.attack_domain_at_epoch(world.seed(), *to, shard);
                    let sym = self.arena.intern(&d);
                    if sym.index() == self.occurrences.len() {
                        self.occurrences.push(Vec::new());
                    }
                    self.occurrences[sym.index()].push((pos as u32, *to));
                }
                *to += 1;
            }
        }
        let sym = self.arena.lookup(domain)?;
        Some(self.occurrences[sym.index()].as_slice())
    }
}

/// The simulated GSB service. Lookups are memoized per domain.
pub struct GsbService<'w> {
    world: &'w World,
    cache: HashMap<String, DomainFate>,
    index: AttackIndex,
}

impl<'w> GsbService<'w> {
    /// Builds the service over a world.
    pub fn new(world: &'w World) -> Self {
        Self { world, cache: HashMap::new(), index: AttackIndex::default() }
    }

    /// Looks up `domain` at time `t`. `t` also serves as the observation
    /// anchor for classifying which campaign (if any) owns the domain.
    pub fn lookup(&mut self, domain: &str, t: SimTime) -> GsbVerdict {
        let fate = self.fate(domain, t);
        match fate.listed_at {
            Some(at) if at <= t => GsbVerdict::Listed,
            _ => GsbVerdict::NotListed,
        }
    }

    /// When the domain was (or will be) listed, if ever. Exposed so
    /// experiments can measure GSB's lag against the milker's discovery
    /// times without polling minute by minute.
    pub fn listing_time(&mut self, domain: &str, t_hint: SimTime) -> Option<SimTime> {
        self.fate(domain, t_hint).listed_at
    }

    /// Closed form of the milker's polling loop: the first instant on the
    /// lookup grid `{start, start+interval, …} ∩ [start, grid_end]` at
    /// which a lookup would observe `domain` listed, if any.
    ///
    /// Equivalent to — and replacing — ~1,250 individual [`lookup`]s per
    /// milked domain (a 12-day tail on a 30-minute cadence): since a
    /// listed domain stays listed, the first listed poll is just the
    /// listing time rounded up to the grid. `start` doubles as the
    /// classification anchor, exactly as the first lookup of the loop
    /// did. Loop ≡ closed form is pinned by a property test across seeds
    /// and cadences.
    ///
    /// [`lookup`]: Self::lookup
    pub fn first_listed_poll(
        &mut self,
        domain: &str,
        start: SimTime,
        interval: SimDuration,
        grid_end: SimTime,
    ) -> Option<SimTime> {
        if start > grid_end {
            return None;
        }
        let at = self.listing_time(domain, start)?;
        if at <= start {
            return Some(start);
        }
        let step = interval.minutes().max(1);
        let first_on_grid = start + SimDuration::from_minutes((at - start).minutes().div_ceil(step) * step);
        (first_on_grid <= grid_end).then_some(first_on_grid)
    }

    fn fate(&mut self, domain: &str, t: SimTime) -> DomainFate {
        if let Some(f) = self.cache.get(domain) {
            return *f;
        }
        let fate = self.compute_fate(domain, t);
        self.cache.insert(domain.to_string(), fate);
        fate
    }

    fn compute_fate(&mut self, domain: &str, t: SimTime) -> DomainFate {
        // Only SE attack domains ever get listed; upstream TDS domains,
        // publishers and benign advertisers are never on the blacklist
        // (the paper: upstream URLs "are not typically blocked").
        let Some((campaign, activated)) = self.classify(domain, t) else {
            return DomainFate { listed_at: None };
        };
        let params = GsbParams::for_category(campaign.category);
        let dw = str_word(domain);
        if det_f64(&[self.world.seed(), 0x65B_D, dw]) >= params.p_detect {
            return DomainFate { listed_at: None };
        }
        let u = det_f64(&[self.world.seed(), 0x65B_E, dw]);
        let delay_minutes = (params.spread_days * u * u * 24.0 * 60.0) as u64;
        DomainFate { listed_at: Some(activated + SimDuration::from_minutes(delay_minutes)) }
    }

    /// Index-backed equivalent of `World::campaign_of_attack_domain`
    /// followed by the activation-epoch scan: the owning campaign (first
    /// in world order with an occurrence inside its parking grace window
    /// at `t`) and the start of the latest in-window epoch in which the
    /// domain served.
    fn classify(&mut self, domain: &str, t: SimTime) -> Option<(&'w seacma_simweb::SeCampaign, SimTime)> {
        let world = self.world;
        let occ = self.index.occurrences_at(world, domain, t)?;
        let campaigns = world.campaigns();
        let mut best: Option<(u32, u64)> = None;
        for &(pos, e) in occ {
            let c = &campaigns[pos as usize];
            let e_now = c.epoch(t);
            let lo = e_now.saturating_sub(seacma_simweb::SeCampaign::PARKED_GRACE_EPOCHS);
            if e < lo || e > e_now {
                continue; // parked out or future relative to this t
            }
            best = match best {
                Some((bp, _)) if pos > bp => best,
                Some((bp, be)) if pos == bp && e <= be => best,
                _ => Some((pos, e)),
            };
        }
        let (pos, e) = best?;
        let c = &campaigns[pos as usize];
        Some((c, c.epoch_start(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_simweb::{SimTime, World, WorldConfig, DAY};

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 21,
            n_publishers: 50,
            n_hidden_only_publishers: 0,
            n_advertisers: 10,
            campaign_scale: 1.0,
            ..Default::default()
        })
    }

    #[test]
    fn registration_domains_never_listed() {
        let w = world();
        let mut gsb = GsbService::new(&w);
        let far = SimTime::EPOCH + DAY * 200;
        for c in w.campaigns().iter().filter(|c| c.category == SeCategory::Registration) {
            let t = SimTime::EPOCH + DAY;
            let d = c.attack_domain(w.seed(), t, 0);
            assert_eq!(gsb.lookup(&d, far), GsbVerdict::NotListed);
        }
    }

    #[test]
    fn detection_rates_follow_calibration() {
        let w = world();
        let mut gsb = GsbService::new(&w);
        // Sample many fake-software domains across epochs; at t→∞ the
        // listing rate must approach p_detect = 0.20.
        let mut listed = 0u32;
        let mut total = 0u32;
        let far = SimTime::EPOCH + DAY * 400;
        for c in w.campaigns().iter().filter(|c| c.category == SeCategory::FakeSoftware) {
            for day in 0..14u64 {
                let t = SimTime::EPOCH + DAY * day;
                let d = c.attack_domain(w.seed(), t, 0);
                // Anchor classification near the domain's live window.
                if gsb.listing_time(&d, t).is_some_and(|at| at <= far) {
                    listed += 1;
                }
                total += 1;
            }
        }
        let rate = f64::from(listed) / f64::from(total);
        assert!((0.10..0.32).contains(&rate), "eventual detection rate {rate}");
    }

    #[test]
    fn listing_lags_domain_activation_by_days() {
        let w = world();
        let mut gsb = GsbService::new(&w);
        let mut lags = Vec::new();
        for c in w.campaigns() {
            for day in 0..14u64 {
                let t = SimTime::EPOCH + DAY * day;
                let d = c.attack_domain(w.seed(), t, 0);
                if let Some(at) = gsb.listing_time(&d, t) {
                    let activated = c.epoch_start(c.epoch(t));
                    lags.push((at - activated).as_days());
                }
            }
        }
        assert!(!lags.is_empty());
        let mean = lags.iter().sum::<f64>() / lags.len() as f64;
        assert!(mean > 7.0, "mean GSB lag {mean:.1}d must exceed 7 days (paper §4.5)");
    }

    #[test]
    fn fresh_domains_not_listed_immediately() {
        let w = world();
        let mut gsb = GsbService::new(&w);
        let mut listed_at_birth = 0u32;
        let mut total = 0u32;
        for c in w.campaigns() {
            let t = SimTime::EPOCH + DAY * 3;
            let d = c.attack_domain(w.seed(), t, 0);
            let birth = c.epoch_start(c.epoch(t));
            if gsb.lookup(&d, birth).is_listed() {
                listed_at_birth += 1;
            }
            total += 1;
        }
        let rate = f64::from(listed_at_birth) / f64::from(total);
        assert!(rate < 0.05, "initial detection rate {rate} too high");
    }

    #[test]
    fn verdicts_are_monotone_in_time() {
        let w = world();
        let mut gsb = GsbService::new(&w);
        let c = &w.campaigns()[0];
        let t = SimTime::EPOCH + DAY;
        let d = c.attack_domain(w.seed(), t, 0);
        let mut was_listed = false;
        for day in 0..120 {
            let v = gsb.lookup(&d, t + DAY * day).is_listed();
            assert!(!was_listed || v, "a listed domain must stay listed");
            was_listed = v;
        }
    }

    /// The linear-scan fate computation the [`AttackIndex`] replaces,
    /// verbatim: classify via `World::campaign_of_attack_domain`, then
    /// find the activation epoch by scanning the grace window backwards.
    fn scan_fate(w: &World, domain: &str, t: SimTime) -> Option<SimTime> {
        use seacma_simweb::SeCampaign;
        let cid = w.campaign_of_attack_domain(domain, t)?;
        let campaign = w.campaign(cid);
        let params = GsbParams::for_category(campaign.category);
        let dw = str_word(domain);
        if det_f64(&[w.seed(), 0x65B_D, dw]) >= params.p_detect {
            return None;
        }
        let e_now = campaign.epoch(t);
        let lo = e_now.saturating_sub(SeCampaign::PARKED_GRACE_EPOCHS);
        let mut activated = t;
        'outer: for e in (lo..=e_now).rev() {
            for shard in 0..campaign.category.parallel_shards() {
                if campaign.attack_domain_at_epoch(w.seed(), e, shard) == domain {
                    activated = campaign.epoch_start(e);
                    break 'outer;
                }
            }
        }
        let u = det_f64(&[w.seed(), 0x65B_E, dw]);
        let delay_minutes = (params.spread_days * u * u * 24.0 * 60.0) as u64;
        Some(activated + SimDuration::from_minutes(delay_minutes))
    }

    #[test]
    fn indexed_fate_equals_linear_scan() {
        // The reverse index must reproduce the linear classification scan
        // exactly — owning campaign, activation epoch, detection draw —
        // for live domains, parked domains, long-expired domains queried
        // with late anchors, future domains queried with early anchors,
        // and non-attack domains. Fresh service per case so memoization
        // cannot mask a divergence.
        let w = world();
        let campaigns = w.campaigns();
        seacma_util::forall!(300, |rng| {
            let (domain, t) = match rng.below(6) {
                // Attack domain drawn at one time, classified at another
                // (same, later, much later or earlier anchor).
                0..=3 => {
                    let c = &campaigns[rng.below(campaigns.len() as u64) as usize];
                    let t_dom = SimTime(rng.below(40 * 24 * 60));
                    let shard = (rng.below(u64::from(c.category.parallel_shards()))) as u8;
                    let d = c.attack_domain(w.seed(), t_dom, shard);
                    (d, SimTime(rng.below(60 * 24 * 60)))
                }
                // Milkable TDS domain.
                4 => {
                    let with_tds: Vec<_> =
                        campaigns.iter().filter(|c| c.tds_domain.is_some()).collect();
                    let c = with_tds[rng.below(with_tds.len() as u64) as usize];
                    (c.tds_domain.clone().unwrap(), SimTime(rng.below(20 * 24 * 60)))
                }
                // Unknown host.
                _ => ("never-an-attack.example".to_string(), SimTime(rng.below(20 * 24 * 60))),
            };
            let mut gsb = GsbService::new(&w);
            assert_eq!(
                gsb.listing_time(&domain, t),
                scan_fate(&w, &domain, t),
                "index/scan divergence for {domain} at {t}"
            );
        });
    }

    /// The polling loop `first_listed_poll` replaces, verbatim.
    fn poll_loop(
        gsb: &mut GsbService<'_>,
        domain: &str,
        start: SimTime,
        interval: SimDuration,
        grid_end: SimTime,
    ) -> Option<SimTime> {
        let mut t = start;
        while t <= grid_end {
            if gsb.lookup(domain, t).is_listed() {
                return Some(t);
            }
            t += interval;
        }
        None
    }

    #[test]
    fn closed_form_poll_equals_lookup_loop() {
        // Across seeds, domains, grid anchors and cadences, the closed
        // form must return exactly what the old lookup loop returned —
        // including the None cases (never listed, listed past the grid,
        // empty grid). Fresh services per path so memoization cannot mask
        // a divergence.
        let worlds: Vec<World> = [21u64, 61, 0x5EAC]
            .iter()
            .map(|&seed| {
                World::generate(WorldConfig {
                    seed,
                    n_publishers: 40,
                    n_hidden_only_publishers: 0,
                    n_advertisers: 8,
                    campaign_scale: 0.5,
                    ..Default::default()
                })
            })
            .collect();
        seacma_util::forall!(300, |rng| {
            let w = &worlds[rng.below(worlds.len() as u64) as usize];
            let campaigns = w.campaigns();
            let c = &campaigns[rng.below(campaigns.len() as u64) as usize];
            let t_dom = SimTime(rng.below(30 * 24 * 60));
            let domain = c.attack_domain(w.seed(), t_dom, 0);
            let start = SimTime(rng.below(40 * 24 * 60));
            let interval = SimDuration::from_minutes(rng.range_u64(1, 12 * 60));
            // Occasionally an empty grid (grid_end < start).
            let span = rng.below(26 * 24 * 60) as i64 - 1440;
            let grid_end = SimTime((start.minutes() as i64 + span).max(0) as u64);
            let mut a = GsbService::new(w);
            let mut b = GsbService::new(w);
            assert_eq!(
                b.first_listed_poll(&domain, start, interval, grid_end),
                poll_loop(&mut a, &domain, start, interval, grid_end),
                "domain {domain} start {start} interval {interval} end {grid_end}"
            );
        });
    }

    #[test]
    fn non_attack_domains_never_listed() {
        let w = world();
        let mut gsb = GsbService::new(&w);
        let far = SimTime::EPOCH + DAY * 300;
        // TDS (milkable) domains evade GSB.
        for c in w.campaigns().iter().filter(|c| c.tds_domain.is_some()).take(10) {
            assert_eq!(
                gsb.lookup(c.tds_domain.as_ref().unwrap(), far),
                GsbVerdict::NotListed
            );
        }
        // Publishers too.
        assert_eq!(gsb.lookup(&w.publishers()[0].domain, far), GsbVerdict::NotListed);
    }
}
