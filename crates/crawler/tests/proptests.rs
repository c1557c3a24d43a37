//! Property suites for the crawl fast path.
//!
//! Two families of randomized invariants back the farm's render-free
//! pipeline:
//!
//! 1. **Fused hashing**: for every visual template and instance seed, the
//!    hash the fast path records — the fused noise+downsample pass over a
//!    clean render, with or without the shared [`RenderCache`] — equals
//!    `dhash128` of the fully materialized screenshot.
//! 2. **Sharded assembly**: for every publisher subset, job order, lane
//!    width and worker count, [`CrawlFarm::crawl`] reproduces the
//!    sequential reference crawl (full-render visits executed one job at a
//!    time in index order) byte for byte.

use seacma_browser::RenderCache;
use seacma_crawler::{
    visit_publisher_reusing, CrawlDataset, CrawlFarm, CrawlPolicy, CrawlSchedule, VisitScratch,
};
use seacma_simweb::{
    PublisherId, SimDuration, SimTime, UaProfile, Vantage, VisualTemplate, World, WorldConfig,
};
use seacma_util::forall;
use seacma_util::prop::Rng;
use seacma_util::sym::{SharedArena, SymbolArena};
use seacma_vision::dhash::dhash128;

fn world() -> World {
    World::generate(WorldConfig {
        seed: 71,
        n_publishers: 80,
        n_hidden_only_publishers: 5,
        n_advertisers: 15,
        campaign_scale: 0.35,
        error_rate: 0.02,
        ..Default::default()
    })
}

/// Draws an arbitrary template, covering every variant.
fn arb_template(rng: &mut Rng) -> VisualTemplate {
    let skin = rng.below(u16::MAX as u64 + 1) as u16;
    let style = rng.u64();
    match rng.below(12) {
        0 => VisualTemplate::FakeSoftware { skin },
        1 => VisualTemplate::Scareware { skin },
        2 => VisualTemplate::TechSupport { skin },
        3 => VisualTemplate::Lottery { skin },
        4 => VisualTemplate::ChromeNotification { skin },
        5 => VisualTemplate::Registration { skin },
        6 => VisualTemplate::Parked { provider: skin },
        7 => VisualTemplate::StockAdult { image: skin },
        8 => VisualTemplate::ShortenerFrame { service: skin },
        9 => VisualTemplate::LoadError,
        10 => VisualTemplate::BenignLanding { style },
        _ => VisualTemplate::PublisherHome { style },
    }
}

#[test]
fn fused_dhash_equals_render_then_hash_for_all_templates() {
    let cache = RenderCache::new();
    forall!(300, |rng| {
        let tpl = arb_template(rng);
        let seed = rng.u64();
        let want = dhash128(&tpl.render(seed));
        assert_eq!(
            VisualTemplate::dhash_from_clean(&tpl.render_clean(), seed),
            want,
            "fused pass diverged for {tpl:?} seed {seed}"
        );
        assert_eq!(
            cache.dhash(tpl, seed),
            want,
            "cached fused pass diverged for {tpl:?} seed {seed}"
        );
    });
    assert!(!cache.is_empty(), "cache must have been exercised");
}

/// The sequential reference crawl: full-render visits (no cache, no hash
/// mode), one job at a time in index order — exactly what the farm
/// replaced. Byte-equality of [`CrawlDataset`]s against this oracle pins
/// the whole fast path: fused hashes, shared cache, sharded assembly.
fn reference_crawl(
    world: &World,
    publishers: &[PublisherId],
    uas: &[UaProfile],
    schedule: CrawlSchedule,
    arena: &mut SymbolArena,
) -> CrawlDataset {
    let mut visits = Vec::new();
    let mut pass_start = schedule.start;
    for &ua in uas {
        let config = seacma_browser::BrowserConfig::instrumented(ua, Vantage::Residential);
        let pass = CrawlSchedule { start: pass_start, ..schedule };
        for (idx, p) in publishers.iter().enumerate() {
            let site = &world.publishers()[p.0 as usize];
            visits.push(visit_publisher_reusing(
                world,
                site,
                config,
                pass.job_time(idx),
                CrawlPolicy::default(),
                None,
                arena,
                &mut VisitScratch::new(),
            ));
        }
        pass_start = pass.pass_end(publishers.len());
    }
    CrawlDataset { visits }
}

#[test]
fn farm_equals_sequential_reference_for_all_job_orders_and_worker_counts() {
    let w = world();
    let all: Vec<PublisherId> = w.publishers().iter().map(|p| p.id).collect();
    forall!(12, |rng| {
        // Random subset in random order: the job list itself is the
        // shuffled quantity (job index fixes virtual time, so a permuted
        // input is a genuinely different crawl the farm must still match).
        let mut pubs = all.clone();
        for i in (1..pubs.len()).rev() {
            pubs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        pubs.truncate(rng.range(10, 40));
        let uas: &[UaProfile] = if rng.bool(0.5) {
            &[UaProfile::ChromeMac]
        } else {
            &[UaProfile::ChromeMac, UaProfile::ChromeAndroid]
        };
        let schedule = CrawlSchedule {
            start: SimTime(rng.below(2000)),
            session_len: SimDuration::from_minutes(rng.range_u64(1, 5)),
            lanes: rng.range_u64(1, 16),
        };
        let mut seq_arena = SymbolArena::new();
        let expected = reference_crawl(&w, &pubs, uas, schedule, &mut seq_arena);
        let workers = rng.range(1, 9);
        let farm_arena = SharedArena::new();
        let got = CrawlFarm::new(&w, workers, CrawlPolicy::default()).crawl(
            &pubs,
            uas,
            Vantage::Residential,
            schedule,
            &farm_arena,
        );
        assert_eq!(
            got, expected,
            "farm diverged from sequential reference ({workers} workers, {} jobs)",
            pubs.len()
        );
        // The canonicalized arena must equal direct sequential interning —
        // same strings, same first-seen order, so the record symbols above
        // compared equal for the same underlying domains.
        assert_eq!(
            farm_arena.read().strings().to_vec(),
            seq_arena.strings().to_vec(),
            "canonical arena diverged from the sequential reference arena"
        );
    });
}
