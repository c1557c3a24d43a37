//! The milking scheduler.
//!
//! Re-visits every validated source once per period (15 virtual minutes in
//! the paper) for the configured duration (14 days), discovering fresh
//! attack domains, driving GSB lookups on the measured cadence and
//! harvesting downloads into the VirusTotal flow.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use seacma_util::{impl_json_struct, resolve_workers};

use seacma_blacklist::{GsbService, VirusTotal};
use seacma_browser::RenderCache;
use seacma_simweb::{SimDuration, SimTime, Url, World};
use seacma_vision::dhash::Dhash;

use crate::downloads::MilkedFile;
use crate::sources::MilkingSource;

/// Milking cadence and measurement windows (§4.2, §4.5 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MilkingConfig {
    /// Period between visits to one source.
    pub period: SimDuration,
    /// Total milking duration.
    pub duration: SimDuration,
    /// GSB lookup cadence for discovered domains.
    pub lookup_interval: SimDuration,
    /// How long GSB lookups continue past the milking window.
    pub lookup_tail: SimDuration,
    /// Delay before the single final late lookup.
    pub final_lookup_after: SimDuration,
    /// Delay before the VirusTotal rescan of submitted files.
    pub vt_rescan_after: SimDuration,
}

impl Default for MilkingConfig {
    fn default() -> Self {
        Self {
            period: SimDuration::from_minutes(15),
            duration: SimDuration::from_days(14),
            lookup_interval: SimDuration::from_minutes(30),
            lookup_tail: SimDuration::from_days(12),
            final_lookup_after: SimDuration::from_days(60),
            vt_rescan_after: SimDuration::from_days(90),
        }
    }
}

/// A never-before-seen attack domain discovered through milking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDiscovery {
    /// The new attack domain.
    pub domain: String,
    /// Full landing URL observed.
    pub landing_url: Url,
    /// Perceptual hash of the landing screenshot that matched the
    /// source's reference — the point the tracker clusters.
    pub dhash: Dhash,
    /// Index of the source (into the source list) that milked it.
    pub source_idx: usize,
    /// Campaign cluster of the source.
    pub cluster: usize,
    /// When the milker first saw the domain.
    pub first_seen: SimTime,
    /// GSB verdict at the first lookup (discovery time).
    pub gsb_listed_at_discovery: bool,
    /// When polling (30-minute cadence through the window + tail, plus
    /// the late final lookup) first saw the domain listed, if ever.
    pub gsb_listed_at: Option<SimTime>,
}

impl DomainDiscovery {
    /// GSB's lag behind the milker for this domain, when listed.
    pub fn gsb_lag(&self) -> Option<SimDuration> {
        self.gsb_listed_at.map(|at| at - self.first_seen)
    }
}

/// Complete output of a milking run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MilkingOutcome {
    /// Total milking sessions executed.
    pub sessions: u64,
    /// New-domain discoveries, in discovery order.
    pub discoveries: Vec<DomainDiscovery>,
    /// Files harvested and run through VirusTotal.
    pub files: Vec<MilkedFile>,
    /// Per-source timeline of `(time, domain)` rotation events (drives the
    /// figure-4 output).
    pub timelines: HashMap<usize, Vec<(SimTime, String)>>,
    /// Scam call-center numbers collected from tech-support pages:
    /// `(number, first seen, cluster)` — the real-time phone blacklist
    /// feed the paper describes (§4.3).
    pub scam_phones: Vec<(String, SimTime, usize)>,
    /// Survey-scam gateway URLs collected from lottery pages (§4.3).
    pub survey_gateways: Vec<(Url, SimTime, usize)>,
    /// Pages whose push-notification permission the crawler granted —
    /// the subscription channel attackers keep abusing after the page is
    /// gone (§4.3, Chrome Notifications).
    pub notification_grants: Vec<(Url, SimTime, usize)>,
}

impl MilkingOutcome {
    /// Fraction of discoveries listed by GSB at discovery time.
    pub fn gsb_init_rate(&self) -> f64 {
        if self.discoveries.is_empty() {
            return 0.0;
        }
        self.discoveries.iter().filter(|d| d.gsb_listed_at_discovery).count() as f64
            / self.discoveries.len() as f64
    }

    /// Fraction of discoveries ever listed (through the final lookup).
    pub fn gsb_final_rate(&self) -> f64 {
        if self.discoveries.is_empty() {
            return 0.0;
        }
        self.discoveries.iter().filter(|d| d.gsb_listed_at.is_some()).count() as f64
            / self.discoveries.len() as f64
    }

    /// Mean GSB listing lag in days over listed discoveries.
    pub fn mean_gsb_lag_days(&self) -> Option<f64> {
        let lags: Vec<f64> =
            self.discoveries.iter().filter_map(|d| d.gsb_lag()).map(|l| l.as_days()).collect();
        if lags.is_empty() {
            None
        } else {
            Some(lags.iter().sum::<f64>() / lags.len() as f64)
        }
    }
}

/// The milking engine.
pub struct Milker<'w> {
    world: &'w World,
    config: MilkingConfig,
}

impl<'w> Milker<'w> {
    /// Builds a milker.
    pub fn new(world: &'w World, config: MilkingConfig) -> Self {
        Self { world, config }
    }

    /// Runs the full milking experiment over `sources` starting at
    /// `start`, using the provided GSB and VirusTotal services: phase 1
    /// (per-source timeline simulation) fanned out over `workers` threads
    /// and phase 2 (the cross-source merge sweep) on the calling thread —
    /// the same determinism discipline as the crawl farm.
    ///
    /// `workers == 0` means available parallelism. The returned
    /// [`MilkingOutcome`] is byte-identical at any worker count: workers
    /// compute only pure per-source results, and the merge consumes them
    /// in time-major `(tick, source)` order (see the module docs of the
    /// `simulate` and `merge` modules for the elision argument). The
    /// test-only sequential scheduler below — one session per
    /// `(tick, source)`, GSB polled lookup by lookup — is the semantics
    /// oracle the thread-count-invariance tests pin this against.
    pub fn run_parallel(
        &self,
        sources: &[MilkingSource],
        gsb: &mut GsbService<'_>,
        vt: &mut VirusTotal,
        start: SimTime,
        workers: usize,
    ) -> MilkingOutcome {
        let workers = resolve_workers(workers).min(sources.len()).max(1);

        // Phase 1: fan out per-source simulations. Job dispatch is a
        // shared counter; results come home over a channel and are
        // re-ordered by source index, so OS scheduling cannot leak into
        // the merge. One clean-render cache is shared by all workers:
        // sources tracking the same campaign hash against the same
        // cached clean render.
        let cache = RenderCache::new();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<crate::simulate::SourceTimeline>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let world = self.world;
                let config = self.config;
                let cache = &cache;
                scope.spawn(move || loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(src) = sources.get(idx) else { break };
                    let tl =
                        crate::simulate::simulate_source(world, config, idx, src, start, cache);
                    if tx.send(tl).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);
        let mut timelines: Vec<crate::simulate::SourceTimeline> = rx.into_iter().collect();
        timelines.sort_by_key(|tl| tl.source_idx);

        // Phase 2: sequential time-ordered merge of all cross-source state.
        crate::merge::merge_timelines(self.config, sources, timelines, gsb, vt, start)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::sources::MATCH_THRESHOLD;
    use seacma_browser::{BrowserConfig, BrowserSession};
    use seacma_simweb::{ClickAction, SeCategory, UaProfile, Vantage, WorldConfig};
    use seacma_vision::dhash::{dhash128, hamming};

    impl Milker<'_> {
        /// The sequential reference scheduler: one thread, one session
        /// per `(tick, source)` in time-major order, GSB polled lookup by
        /// lookup. Shares no code with the simulate/merge path, so the
        /// invariance tests below compare two implementations.
        fn run(
            &self,
            sources: &[MilkingSource],
            gsb: &mut GsbService<'_>,
            vt: &mut VirusTotal,
            start: SimTime,
        ) -> MilkingOutcome {
            let mut out = MilkingOutcome::default();
            let mut seen_domains: HashSet<String> = HashSet::new();
            let mut seen_hashes: HashSet<u128> = HashSet::new();
            // Membership sets backing the first-seen-ordered side-channel
            // vectors (the vectors alone would make dedup O(n²)).
            let mut phone_set: HashSet<String> = HashSet::new();
            let mut gateway_set: HashSet<Url> = HashSet::new();
            // Per-source session configuration is tick-invariant.
            let configs: Vec<BrowserConfig> = sources
                .iter()
                .map(|src| {
                    BrowserConfig::instrumented(src.ua, Vantage::Residential).without_screenshots()
                })
                .collect();
            let end = start + self.config.duration;

            // Round-robin over time: all sources are milked once per period.
            let mut t = start;
            while t < end {
                for (idx, src) in sources.iter().enumerate() {
                    out.sessions += 1;
                    let mut session = BrowserSession::new(self.world, configs[idx], t);
                    let Ok(loaded) = session.navigate(&src.url) else {
                        continue;
                    };
                    let domain = loaded.url.e2ld();
                    if seen_domains.contains(&domain) {
                        continue;
                    }
                    // Never-before-seen domain: verify it still shows the
                    // campaign's attack before counting it.
                    let shot = session.render_screenshot(&loaded.url, &loaded.page);
                    let dhash = dhash128(&shot);
                    if hamming(dhash, src.reference) > MATCH_THRESHOLD {
                        continue;
                    }
                    seen_domains.insert(domain.clone());
                    out.timelines.entry(idx).or_default().push((t, domain.clone()));

                    // Intelligence side-channels: phone numbers, survey
                    // gateways and notification-permission grants.
                    if let Some(phone) = &loaded.page.scam_phone {
                        if phone_set.insert(phone.clone()) {
                            out.scam_phones.push((phone.clone(), t, src.cluster));
                        }
                    }
                    if let Some(gw) = &loaded.page.survey_gateway {
                        if gateway_set.insert(gw.clone()) {
                            out.survey_gateways.push((gw.clone(), t, src.cluster));
                        }
                    }
                    if loaded.page.notification_prompt {
                        out.notification_grants.push((loaded.url.clone(), t, src.cluster));
                    }

                    // Interact with the landing: downloads, permission grants.
                    for el in &loaded.page.elements {
                        if let ClickAction::Download(payload) = el.action {
                            if seen_hashes.insert(payload.sha) {
                                let known = vt.lookup(&payload, t).is_some();
                                let initial = vt.submit(&payload, t);
                                out.files.push(MilkedFile {
                                    payload,
                                    page: loaded.url.clone(),
                                    t,
                                    known_at_submit: known,
                                    initial,
                                    final_report: None,
                                });
                            }
                        }
                        let _ = session.click(&loaded.url, &el.action);
                    }

                    // GSB measurement for the new domain.
                    let listed_now = gsb.lookup(&domain, t).is_listed();
                    let listed_at = self.poll_gsb(gsb, &domain, t, end);
                    out.discoveries.push(DomainDiscovery {
                        domain,
                        landing_url: loaded.url,
                        dhash,
                        source_idx: idx,
                        cluster: src.cluster,
                        first_seen: t,
                        gsb_listed_at_discovery: listed_now,
                        gsb_listed_at: listed_at,
                    });
                }
                t += self.config.period;
            }

            // Months later: VT rescan of everything submitted.
            for f in &mut out.files {
                f.final_report = vt.rescan(&f.payload, f.t + self.config.vt_rescan_after);
            }
            out
        }

        /// Polls GSB at the configured cadence from `first_seen` through the
        /// end of the lookup tail, then does the single late final lookup.
        /// Returns the first time the domain was observed listed.
        fn poll_gsb(
            &self,
            gsb: &mut GsbService<'_>,
            domain: &str,
            first_seen: SimTime,
            milking_end: SimTime,
        ) -> Option<SimTime> {
            let tail_end = milking_end + self.config.lookup_tail;
            let mut t = first_seen;
            while t <= tail_end {
                if gsb.lookup(domain, t).is_listed() {
                    return Some(t);
                }
                t += self.config.lookup_interval;
            }
            let final_t = first_seen + self.config.final_lookup_after;
            if gsb.lookup(domain, final_t).is_listed() {
                // The poll cadence stopped; report the listing time GSB would
                // have been observed at, bounded below by the tail end.
                let exact = gsb.listing_time(domain, first_seen)?;
                return Some(exact.max(tail_end));
            }
            None
        }
    }

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 61,
            n_publishers: 60,
            n_hidden_only_publishers: 0,
            n_advertisers: 10,
            campaign_scale: 0.25,
            error_rate: 0.0,
            ..Default::default()
        })
    }

    fn sources_for(world: &World, cat: Option<SeCategory>) -> Vec<MilkingSource> {
        world
            .campaigns()
            .iter()
            .filter(|c| c.tds_domain.is_some())
            .filter(|c| cat.map_or(true, |cc| c.category == cc))
            .map(|c| MilkingSource {
                url: c.tds_url(0).unwrap(),
                ua: if c.category == SeCategory::LotteryGift {
                    UaProfile::ChromeAndroid
                } else {
                    UaProfile::ChromeMac
                },
                cluster: c.id.0 as usize,
                reference: dhash128(&c.template().render(1)),
            })
            .collect()
    }

    fn short_config() -> MilkingConfig {
        MilkingConfig {
            duration: SimDuration::from_days(3),
            lookup_tail: SimDuration::from_days(2),
            ..Default::default()
        }
    }

    #[test]
    fn milking_discovers_rotating_domains() {
        let w = world();
        let sources = sources_for(&w, Some(SeCategory::FakeSoftware));
        assert!(!sources.is_empty());
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        // 3 days at 10h rotation ⇒ ~8 domains per source.
        let per_source = out.discoveries.len() as f64 / sources.len() as f64;
        assert!(
            (5.0..12.0).contains(&per_source),
            "{per_source} domains/source over 3 days"
        );
        assert_eq!(out.sessions, sources.len() as u64 * (3 * 24 * 4));
    }

    #[test]
    fn discoveries_are_unique_domains() {
        let w = world();
        let sources = sources_for(&w, None);
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        let mut domains: Vec<&str> = out.discoveries.iter().map(|d| d.domain.as_str()).collect();
        let n = domains.len();
        domains.sort();
        domains.dedup();
        assert_eq!(domains.len(), n, "discoveries must be deduplicated");
    }

    #[test]
    fn downloads_flow_through_virustotal() {
        let w = world();
        let sources = sources_for(&w, Some(SeCategory::FakeSoftware));
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        assert!(!out.files.is_empty(), "fake-software milking must yield files");
        for f in &out.files {
            assert!(f.final_report.is_some(), "all files must be rescanned");
        }
        let known = out.files.iter().filter(|f| f.known_at_submit).count();
        assert!(
            (known as f64) < out.files.len() as f64 * 0.3,
            "most milked files must be VT-unknown ({known}/{})",
            out.files.len()
        );
    }

    #[test]
    fn gsb_rates_low_at_discovery() {
        let w = world();
        let sources = sources_for(&w, None);
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        assert!(out.gsb_init_rate() < 0.10, "init rate {}", out.gsb_init_rate());
        assert!(out.gsb_final_rate() >= out.gsb_init_rate());
    }

    #[test]
    fn timelines_are_chronological() {
        let w = world();
        let sources = sources_for(&w, Some(SeCategory::FakeSoftware));
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        for timeline in out.timelines.values() {
            assert!(timeline.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn tech_support_milking_collects_phone_numbers() {
        let w = world();
        let sources = sources_for(&w, Some(SeCategory::TechnicalSupport));
        if sources.is_empty() {
            return; // tiny world may draw no milkable tech-support campaign
        }
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        assert!(!out.scam_phones.is_empty(), "phone numbers must be harvested");
        for (phone, _, _) in &out.scam_phones {
            assert!(phone.starts_with("+1-8"), "unexpected number format {phone}");
        }
        // Dedup: numbers rotate weekly; a 3-day run sees one per campaign.
        assert!(out.scam_phones.len() <= sources.len());
    }

    #[test]
    fn lottery_milking_collects_survey_gateways() {
        let w = world();
        let sources = sources_for(&w, Some(SeCategory::LotteryGift));
        if sources.is_empty() {
            return;
        }
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        assert!(!out.survey_gateways.is_empty(), "gateways must be harvested");
        for (gw, _, _) in &out.survey_gateways {
            assert!(gw.path.starts_with("/survey"));
        }
    }

    #[test]
    fn notification_grants_recorded() {
        let w = world();
        let sources = sources_for(&w, Some(SeCategory::ChromeNotifications));
        if sources.is_empty() {
            return;
        }
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let out = Milker::new(&w, short_config())
            .run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
        assert!(!out.notification_grants.is_empty());
    }

    #[test]
    fn outcome_stats_empty_safe() {
        let out = MilkingOutcome::default();
        assert_eq!(out.gsb_init_rate(), 0.0);
        assert_eq!(out.gsb_final_rate(), 0.0);
        assert!(out.mean_gsb_lag_days().is_none());
    }

    #[test]
    fn milker_output_is_thread_count_invariant() {
        // The parallel simulate/merge path must reproduce the sequential
        // scheduler byte for byte at any worker count (mirrors
        // `farm_output_is_thread_count_invariant`).
        let w = world();
        let sources = sources_for(&w, None);
        assert!(sources.len() > 4, "need a multi-source run");
        let milker = Milker::new(&w, short_config());
        let sequential = {
            let mut gsb = GsbService::new(&w);
            let mut vt = VirusTotal::new(1);
            milker.run(&sources, &mut gsb, &mut vt, SimTime::EPOCH)
        };
        for workers in [1usize, 2, 8] {
            let mut gsb = GsbService::new(&w);
            let mut vt = VirusTotal::new(1);
            let parallel = milker.run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, workers);
            assert_eq!(
                parallel, sequential,
                "milking outcome must not depend on worker count ({workers} workers)"
            );
        }
    }

    #[test]
    fn parallel_path_handles_transient_load_errors() {
        // Blank transient loads make the milker land on the TDS hop
        // itself; the quiet and instrumented navigation paths must agree
        // on those sessions too.
        let w = World::generate(WorldConfig {
            seed: 62,
            n_publishers: 60,
            n_hidden_only_publishers: 0,
            n_advertisers: 10,
            campaign_scale: 0.25,
            error_rate: 0.03,
            ..Default::default()
        });
        let sources = sources_for(&w, None);
        let milker = Milker::new(&w, short_config());
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let sequential = milker.run(&sources, &mut gsb, &mut vt, SimTime::EPOCH);
        let mut gsb = GsbService::new(&w);
        let mut vt = VirusTotal::new(1);
        let parallel = milker.run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 3);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn closed_form_poll_equals_poll_loop() {
        // The merge sweep's closed-form GSB polling (grid query + late
        // final lookup) must equal the sequential scheduler's lookup loop
        // for every cadence, window and domain.
        let w = world();
        let campaigns = w.campaigns();
        seacma_util::forall!(200, |rng| {
            let config = MilkingConfig {
                lookup_interval: SimDuration::from_minutes(rng.range_u64(1, 12 * 60)),
                lookup_tail: SimDuration::from_minutes(rng.below(15 * 24 * 60)),
                final_lookup_after: SimDuration::from_minutes(rng.below(90 * 24 * 60)),
                ..Default::default()
            };
            let milker = Milker::new(&w, config);
            let c = &campaigns[rng.below(campaigns.len() as u64) as usize];
            let domain = c.attack_domain(w.seed(), SimTime(rng.below(20 * 24 * 60)), 0);
            let first_seen = SimTime(rng.below(20 * 24 * 60));
            let milking_end = first_seen + SimDuration::from_minutes(rng.below(14 * 24 * 60));
            let mut a = GsbService::new(&w);
            let mut b = GsbService::new(&w);
            assert_eq!(
                crate::merge::poll_gsb_closed_form(&mut b, config, &domain, first_seen, milking_end),
                milker.poll_gsb(&mut a, &domain, first_seen, milking_end),
                "domain {domain} first_seen {first_seen} interval {}",
                config.lookup_interval
            );
        });
    }
}
impl_json_struct!(MilkingConfig {
    period,
    duration,
    lookup_interval,
    lookup_tail,
    final_lookup_after,
    vt_rescan_after,
});
impl_json_struct!(DomainDiscovery {
    domain,
    landing_url,
    dhash,
    source_idx,
    cluster,
    first_seen,
    gsb_listed_at_discovery,
    gsb_listed_at,
});
impl_json_struct!(MilkingOutcome {
    sessions,
    discoveries,
    files,
    timelines,
    scam_phones,
    survey_gateways,
    notification_grants,
});
