//! The parallel crawler farm.
//!
//! The paper ran container replicas across five servers plus residential
//! laptops; here each replica is a worker thread executing
//! [`visit_publisher_reusing`] jobs. Because every
//! fetch is a pure function of `(seed, url, client, time)`, the visit
//! schedule fixes virtual time per job **independently of thread count**:
//! the farm pretends to have [`CrawlSchedule::lanes`] crawlers
//! running 2-minute sessions back to back, and any number of OS threads
//! may execute that schedule.

use std::sync::atomic::{AtomicUsize, Ordering};

use seacma_util::sym::{SharedArena, SymbolArena};
use seacma_util::{impl_json_struct, resolve_workers};

use seacma_browser::{BrowserConfig, RenderCache};
use seacma_simweb::{PublisherId, SimDuration, SimTime, UaProfile, Vantage, World};

use crate::record::{CrawlDataset, SiteVisit};
use crate::visit::{visit_publisher_reusing, CrawlPolicy, VisitScratch};

/// Deterministic visit scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlSchedule {
    /// Virtual start of the crawl.
    pub start: SimTime,
    /// Virtual session length per visit.
    pub session_len: SimDuration,
    /// Number of virtual crawler lanes executing sessions back to back.
    /// This — not the OS thread count — fixes the virtual crawl span:
    /// `n_jobs / lanes × session_len`. The default (8 lanes of 2-minute
    /// sessions) stretches a paper-scale crawl over several virtual days,
    /// long enough for campaign domain rotation to manifest in the data
    /// (the θc filter depends on it).
    pub lanes: u64,
}

impl CrawlSchedule {
    /// Virtual start time of the `idx`-th job in a pass.
    pub fn job_time(&self, idx: usize) -> SimTime {
        self.start + self.session_len * (idx as u64 / self.lanes.max(1))
    }

    /// Virtual end of a pass over `n` jobs.
    pub fn pass_end(&self, n: usize) -> SimTime {
        self.job_time(n.saturating_sub(1)) + self.session_len
    }

    /// Total virtual span of `passes` passes over `n` jobs.
    pub fn span(&self, n: usize, passes: usize) -> SimDuration {
        SimDuration((self.pass_end(n) - self.start).minutes() * passes as u64)
    }
}

impl Default for CrawlSchedule {
    fn default() -> Self {
        Self { start: SimTime::EPOCH, session_len: SimDuration::from_minutes(2), lanes: 8 }
    }
}

/// The crawler farm.
pub struct CrawlFarm<'w> {
    world: &'w World,
    workers: usize,
    policy: CrawlPolicy,
}

impl<'w> CrawlFarm<'w> {
    /// Builds a farm with `workers` OS threads (0 ⇒ available parallelism).
    pub fn new(world: &'w World, workers: usize, policy: CrawlPolicy) -> Self {
        Self { world, workers: resolve_workers(workers), policy }
    }

    /// Crawls `publishers` once per UA in `uas`, from `vantage`, stealth
    /// instrumentation on. UA passes run back to back in virtual time
    /// (the paper avoids revisiting a site with the *same* UA but visits
    /// it with each different one).
    ///
    /// Every pass runs the hash-only fast path: screenshots are captured
    /// as deferred perceptual hashes through one crawl-wide
    /// [`RenderCache`], so each campaign/page template's clean render is
    /// computed once per crawl instead of once per visit — and only a
    /// recorded landing pays the per-instance noise pass. The dataset is
    /// byte-identical to full-render visits (it stores hashes, and the
    /// noised-hash == render-then-hash identity is pinned in
    /// `seacma-simweb`) and to any other worker count.
    ///
    /// Record domain strings are interned into `arena`. Workers intern
    /// into private scratch arenas while crawling; at assembly the merged
    /// visit sequence is walked in job order and every symbol is
    /// re-interned into `arena`, so the canonical symbol assignment (and
    /// the arena's first-seen order) is exactly what a sequential crawl
    /// would have produced — independent of worker count.
    pub fn crawl(
        &self,
        publishers: &[PublisherId],
        uas: &[UaProfile],
        vantage: Vantage,
        schedule: CrawlSchedule,
        arena: &SharedArena,
    ) -> CrawlDataset {
        let cache = RenderCache::new();
        let mut all: Vec<SiteVisit> = Vec::with_capacity(publishers.len() * uas.len());
        let mut pass_start = schedule.start;
        for &ua in uas {
            let pass_schedule = CrawlSchedule { start: pass_start, ..schedule };
            let visits = self.crawl_pass(publishers, ua, vantage, pass_schedule, &cache, arena);
            pass_start = pass_schedule.pass_end(publishers.len());
            all.extend(visits);
        }
        CrawlDataset { visits: all }
    }

    /// One pass: every publisher once with one UA.
    fn crawl_pass(
        &self,
        publishers: &[PublisherId],
        ua: UaProfile,
        vantage: Vantage,
        schedule: CrawlSchedule,
        cache: &RenderCache,
        arena: &SharedArena,
    ) -> Vec<SiteVisit> {
        let config = BrowserConfig::instrumented(ua, vantage).hash_screenshots();
        // Job queue: the jobs are just the indices 0..n, so a shared
        // atomic counter is the whole queue — each fetch_add claims the
        // next index, no lock or channel needed.
        let next = AtomicUsize::new(0);

        // Each worker accumulates its own (job index, visit) shard plus a
        // private scratch arena; the shards are merged by job index below.
        // No shared funnel, no result lock, no sort — the merge is a
        // deterministic scatter into pre-sized slots, the same
        // simulate/merge shape as the parallel milker. Scratch arenas keep
        // the hot crawl loop free of cross-thread arena contention (and of
        // any worker-count-dependent interleaving).
        let shards: Vec<(SymbolArena, Vec<(usize, SiteVisit)>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| {
                    let next = &next;
                    let world = self.world;
                    let policy = self.policy;
                    scope.spawn(move || {
                        let mut scratch = SymbolArena::new();
                        // One visit scratch (event log + backtrack graph)
                        // per worker, recycled across jobs: each visit
                        // clears and refills the buffers, so they are
                        // allocated once per worker, not once per visit.
                        let mut buffers = VisitScratch::new();
                        let mut local = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= publishers.len() {
                                break;
                            }
                            let p = &world.publishers()[publishers[idx].0 as usize];
                            let t = schedule.job_time(idx);
                            local.push((
                                idx,
                                visit_publisher_reusing(
                                    world,
                                    p,
                                    config,
                                    t,
                                    policy,
                                    Some(cache),
                                    &mut scratch,
                                    &mut buffers,
                                ),
                            ));
                        }
                        (scratch, local)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("crawl worker panicked")).collect()
        });

        // Scatter into job-order slots, remembering which worker (and so
        // which scratch arena) produced each visit.
        let mut slots: Vec<Option<(usize, SiteVisit)>> =
            (0..publishers.len()).map(|_| None).collect();
        let mut arenas = Vec::with_capacity(shards.len());
        for (wid, (scratch, shard)) in shards.into_iter().enumerate() {
            arenas.push(scratch);
            for (idx, visit) in shard {
                debug_assert!(slots[idx].is_none(), "job {idx} executed twice");
                slots[idx] = Some((wid, visit));
            }
        }

        // Canonicalize: walk visits in job order and re-intern every
        // record symbol into the shared arena. Within a record the
        // publisher domain precedes the landing e2LD — the same order
        // `visit_publisher_reusing` interns in — so the canonical arena's
        // first-seen order equals a sequential crawl's.
        slots
            .into_iter()
            .map(|s| {
                let (wid, mut visit) = s.expect("every claimed job produced a visit");
                let scratch = &arenas[wid];
                for l in &mut visit.landings {
                    l.publisher_domain = arena.intern(scratch.resolve(l.publisher_domain));
                    l.landing_e2ld = arena.intern(scratch.resolve(l.landing_e2ld));
                }
                visit
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_simweb::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig {
            seed: 41,
            n_publishers: 150,
            n_hidden_only_publishers: 0,
            n_advertisers: 20,
            campaign_scale: 0.3,
            error_rate: 0.0,
            ..Default::default()
        })
    }

    #[test]
    fn schedule_is_lane_based() {
        let s = CrawlSchedule::default();
        assert_eq!(s.job_time(0), SimTime(0));
        assert_eq!(s.job_time(7), SimTime(0));
        assert_eq!(s.job_time(8), SimTime(2));
        assert_eq!(s.job_time(17), SimTime(4));
        assert!(s.pass_end(18) > s.job_time(17));
        let wide = CrawlSchedule { lanes: 64, ..Default::default() };
        assert_eq!(wide.job_time(63), SimTime(0));
        assert_eq!(wide.job_time(64), SimTime(2));
    }

    #[test]
    fn farm_output_is_thread_count_invariant() {
        let w = world();
        let pubs: Vec<PublisherId> = w.publishers().iter().map(|p| p.id).take(60).collect();
        let uas = [UaProfile::ChromeMac];
        let arena_a = SharedArena::new();
        let arena_b = SharedArena::new();
        let a = CrawlFarm::new(&w, 1, CrawlPolicy::default()).crawl(
            &pubs,
            &uas,
            Vantage::Residential,
            CrawlSchedule::default(),
            &arena_a,
        );
        let b = CrawlFarm::new(&w, 8, CrawlPolicy::default()).crawl(
            &pubs,
            &uas,
            Vantage::Residential,
            CrawlSchedule::default(),
            &arena_b,
        );
        assert_eq!(a, b, "crawl output must not depend on worker count");
        assert_eq!(
            arena_a.read().strings().to_vec(),
            arena_b.read().strings().to_vec(),
            "canonical arena content must not depend on worker count"
        );
    }

    #[test]
    fn multi_ua_passes_cover_all_platforms() {
        let w = world();
        let pubs: Vec<PublisherId> = w.publishers().iter().map(|p| p.id).take(40).collect();
        let d = CrawlFarm::new(&w, 4, CrawlPolicy::default()).crawl(
            &pubs,
            &UaProfile::ALL,
            Vantage::Residential,
            CrawlSchedule::default(),
            &SharedArena::new(),
        );
        assert_eq!(d.visits.len(), 40 * 4);
        // Mobile-only lottery campaigns only show up in the Android pass.
        let mobile_landings =
            d.landings().filter(|l| l.ua == UaProfile::ChromeAndroid).count();
        assert!(mobile_landings > 0);
        // Later UA passes happen later in virtual time.
        let t_first = d.visits[0].started;
        let t_last = d.visits.last().unwrap().started;
        assert!(t_last > t_first);
    }

    #[test]
    fn landings_accumulate_at_scale() {
        let w = world();
        let pubs: Vec<PublisherId> = w.publishers().iter().map(|p| p.id).collect();
        let d = CrawlFarm::new(&w, 0, CrawlPolicy::default()).crawl(
            &pubs,
            &[UaProfile::ChromeMac, UaProfile::ChromeAndroid],
            Vantage::Residential,
            CrawlSchedule::default(),
            &SharedArena::new(),
        );
        assert!(d.landing_count() > 300, "landings: {}", d.landing_count());
        assert!(d.publishers_with_landings() > 100);
        let attacks = d.landings().filter(|l| l.truth_is_attack).count();
        assert!(attacks > 50, "attacks: {attacks}");
    }
}
impl_json_struct!(CrawlSchedule { start, session_len, lanes });
