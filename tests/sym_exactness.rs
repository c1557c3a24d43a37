//! Phase-boundary exactness for the interned + struct-of-arrays pipeline:
//! at every boundary — crawl dataset, clustering, each crawl-replay epoch,
//! each milking day — the symbol fast path must be **byte-identical** (in
//! resolved JSON form) to the string-based reference, across random worker
//! counts and epoch splits. These properties are what let the benchmark's
//! pipeline workloads time the fast path and publish the numbers as the
//! pipeline's numbers.

use seacma_core::blacklist::VirusTotal;
use seacma_core::browser::{BrowserConfig, QuietBrowser, RenderCache};
use seacma_core::crawler::{visit_publisher_reusing, CrawlPolicy, VisitScratch};
use seacma_core::milker::trackfeed::epoch_batches;
use seacma_core::milker::MilkingOutcome;
use seacma_core::pipeline::crawl_end;
use seacma_core::simweb::{SimDuration, SimTime, UaProfile, Vantage, HOUR};
use seacma_core::tracker::CampaignTracker;
use seacma_core::vision::cluster::{cluster_screenshots, ScreenshotPoint};
use seacma_core::{Pipeline, PipelineConfig};
use seacma_util::sym::SymbolArena;
use seacma_util::{forall, json};

/// A pipeline small enough to discover + track + milk inside a property
/// case, with the knobs under test (workers, epoch splits) exposed.
fn tiny_config(seed: u64, workers: usize) -> PipelineConfig {
    let mut c = PipelineConfig::small(seed);
    c.world.n_publishers = 150;
    c.world.n_hidden_only_publishers = 15;
    c.world.n_advertisers = 20;
    c.workers = workers;
    c.milking.lookup_tail = SimDuration::from_days(1);
    c.max_milking_sources = 40;
    c
}

/// The string-keyed milking feed the symbol path must match: one
/// `(first_seen, point)` per discovery, its carried hash and its domain.
fn string_feed(milking: &MilkingOutcome) -> Vec<(SimTime, ScreenshotPoint)> {
    milking
        .discoveries
        .iter()
        .map(|d| (d.first_seen, ScreenshotPoint::new(d.dhash, d.domain.clone())))
        .collect()
}

/// Virtual days in the milking window: one tracker epoch each.
fn milking_days(config: &PipelineConfig) -> u64 {
    config.milking.duration.minutes().div_ceil(seacma_core::simweb::DAY.minutes()).max(1)
}

#[test]
fn discovery_boundaries_match_string_reference_at_any_worker_count() {
    forall!(5, |rng| {
        let seed = rng.range_u64(1, 1 << 40);
        let workers = rng.range(1, 5);
        let pipeline = Pipeline::new(tiny_config(seed, workers));
        let discovery = pipeline.discover();

        // Crawl boundary: the dataset — dhashes, symbols and the arena
        // they resolve against — equals a single-worker pipeline's byte
        // for byte (worker-scratch interning canonicalizes to job order).
        let reference = Pipeline::new(tiny_config(seed, 1));
        let ref_discovery = reference.discover();
        assert_eq!(discovery.crawl, ref_discovery.crawl, "crawl dataset diverged");
        assert_eq!(
            discovery.arena.read().strings(),
            ref_discovery.arena.read().strings(),
            "arena symbol assignment diverged"
        );

        // Cluster boundary: sym-column DBSCAN over the record columns
        // equals the sequential string-based clustering byte for byte.
        let arena = discovery.arena.read();
        let points: Vec<ScreenshotPoint> = discovery
            .landings()
            .map(|l| ScreenshotPoint::new(l.dhash, arena.resolve(l.landing_e2ld)))
            .collect();
        let string_clusters = cluster_screenshots(&points, pipeline.config().clustering);
        assert_eq!(
            json::to_string(&discovery.clusters),
            json::to_string(&string_clusters),
            "sym-column clustering diverged from the string reference"
        );
    });
}

#[test]
fn memoized_crawl_visits_match_uncached_reference_in_any_job_order() {
    // The crawl hot path stacks three transparencies: a shared clean-render
    // cache, per-visit reload memoization, and worker-scratch reuse of the
    // event log / backtracking graph. None of them may leave a byte behind:
    // a random job order driven through the full fast path must produce
    // visit records and arena symbol assignment identical to fresh-state,
    // cache-free visits of the same jobs.
    forall!(5, |rng| {
        let seed = rng.range_u64(1, 1 << 40);
        let pipeline = Pipeline::new(tiny_config(seed, 1));
        let world = pipeline.world();

        // A random job order over a random slice of the publisher list —
        // the farm's per-worker streams are subsequences of exactly this
        // shape.
        let mut jobs: Vec<usize> = (0..world.publishers().len()).collect();
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        jobs.truncate(40);

        let cache = RenderCache::new();
        let mut scratch = VisitScratch::new();
        let mut arena_fast = SymbolArena::new();
        let mut arena_ref = SymbolArena::new();
        let config = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);
        for (i, &j) in jobs.iter().enumerate() {
            let publisher = &world.publishers()[j];
            let start = SimTime(200 + (i as u64 % 7) * 30);
            let fast = visit_publisher_reusing(
                world,
                publisher,
                config,
                start,
                CrawlPolicy::default(),
                Some(&cache),
                &mut arena_fast,
                &mut scratch,
            );
            let reference = visit_publisher_reusing(
                world,
                publisher,
                config,
                start,
                CrawlPolicy::default(),
                None,
                &mut arena_ref,
                &mut VisitScratch::new(),
            );
            assert_eq!(fast, reference, "memoized visit diverged at {}", publisher.domain);
        }
        assert_eq!(
            arena_fast.strings().to_vec(),
            arena_ref.strings().to_vec(),
            "arena symbol assignment diverged under scratch reuse"
        );
    });
}

#[test]
fn batched_trackfeed_rederivation_matches_per_discovery_reference() {
    // The milker trackfeed maps each discovery to the hash the scheduler
    // matched and carried. The reference is the obvious slow shape: a
    // fresh browser and a fresh render cache per discovery, re-deriving
    // the hash in the outcome's own merge-sweep order. Both must produce
    // the same feed byte for byte, and bucketing the feed into a random
    // epoch split must preserve it exactly.
    forall!(3, |rng| {
        let seed = rng.range_u64(1, 1 << 40);
        let mut config = tiny_config(seed, rng.range(1, 4));
        config.milking.duration = SimDuration::from_days(rng.range_u64(1, 4));
        let days = milking_days(&config);
        let pipeline = Pipeline::new(config);
        let discovery = pipeline.discover();
        let mut fast =
            CampaignTracker::with_arena(pipeline.tracker_config(), discovery.arena.clone());
        for sb in pipeline.crawl_epoch_sym_batches(&discovery) {
            for (dhash, sym) in sb {
                fast.ingest_sym(dhash, sym);
            }
            fast.end_epoch();
        }
        let crawl_end = crawl_end(&discovery.crawl) + HOUR;
        let sources = pipeline.milking_sources(&discovery, &fast, crawl_end);
        let mut vt = VirusTotal::new(pipeline.world().seed() ^ 0x7A);
        let milking = pipeline.milk(&sources, crawl_end, &mut vt);

        let batched = string_feed(&milking);
        let naive: Vec<(SimTime, ScreenshotPoint)> = milking
            .discoveries
            .iter()
            .filter_map(|d| {
                let src = &sources[d.source_idx];
                let cache = RenderCache::new();
                let browser = QuietBrowser::with_cache(
                    pipeline.world(),
                    BrowserConfig::instrumented(src.ua, Vantage::Residential)
                        .without_screenshots(),
                    &cache,
                );
                let (url, page) = browser.load(&src.url, d.first_seen).ok()?;
                let dhash = browser.screenshot_dhash(&url, &page, d.first_seen);
                Some((d.first_seen, ScreenshotPoint::new(dhash, d.domain.clone())))
            })
            .collect();
        assert_eq!(
            json::to_string(&batched.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>()),
            json::to_string(&naive.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>()),
            "carried hashes diverged from the per-discovery re-derivation"
        );
        assert!(batched.iter().zip(&naive).all(|(a, b)| a.0 == b.0));

        // Random epoch split: concatenated buckets reproduce the feed.
        let rejoined: Vec<ScreenshotPoint> = epoch_batches(&batched, crawl_end, days)
            .into_iter()
            .flatten()
            .collect();
        let flat: Vec<ScreenshotPoint> = batched.into_iter().map(|(_, p)| p).collect();
        assert_eq!(rejoined, flat, "epoch bucketing must preserve the feed");
    });
}

#[test]
fn tracking_boundaries_match_string_reference_at_any_epoch_split() {
    forall!(5, |rng| {
        let seed = rng.range_u64(1, 1 << 40);
        let mut config = tiny_config(seed, rng.range(1, 4));
        config.crawl_track_epochs = rng.range(1, 9);
        config.milking.duration = SimDuration::from_days(rng.range_u64(1, 4));
        let days = milking_days(&config);
        let pipeline = Pipeline::new(config);
        let discovery = pipeline.discover();

        // Two trackers fed the same epochs: the fast one on the symbol
        // path sharing the world arena, the reference on materialized
        // string points with a private arena. Every closed epoch's
        // summary (counts + events) and cluster list must serialize
        // identically.
        let mut fast =
            CampaignTracker::with_arena(pipeline.tracker_config(), discovery.arena.clone());
        let mut reference = CampaignTracker::new(pipeline.tracker_config());
        let sym_batches = pipeline.crawl_epoch_sym_batches(&discovery);
        let str_batches = pipeline.crawl_epoch_batches(&discovery);
        assert_eq!(sym_batches.len(), str_batches.len());
        for (day, (sb, tb)) in sym_batches.iter().zip(&str_batches).enumerate() {
            for &(dhash, sym) in sb {
                fast.ingest_sym(dhash, sym);
            }
            reference.ingest_all(tb.clone());
            assert_eq!(
                fast.end_epoch(),
                reference.end_epoch(),
                "crawl epoch {day} summary diverged"
            );
            assert_eq!(
                json::to_string(&fast.clusters()),
                json::to_string(&reference.clusters()),
                "crawl epoch {day} cluster list diverged"
            );
        }
        // The final crawl boundary also equals the batch discovery
        // clustering (the incremental exactness property).
        assert_eq!(
            json::to_string(&fast.clusters()),
            json::to_string(&discovery.clusters),
            "crawl-replay snapshot diverged from batch clustering"
        );

        // Milking boundaries: one epoch per virtual day, sym feed vs
        // materialized string feed.
        let crawl_end = crawl_end(&discovery.crawl) + HOUR;
        let sources = pipeline.milking_sources(&discovery, &fast, crawl_end);
        let mut vt = VirusTotal::new(pipeline.world().seed() ^ 0x7A);
        let milking = pipeline.milk(&sources, crawl_end, &mut vt);
        let sym_days = pipeline.milking_epoch_sym_batches(&sources, &milking, crawl_end);
        let str_days = epoch_batches(&string_feed(&milking), crawl_end, days);
        assert_eq!(sym_days.len(), str_days.len());
        for (day, (sb, tb)) in sym_days.iter().zip(&str_days).enumerate() {
            for &(dhash, sym) in sb {
                fast.ingest_sym(dhash, sym);
            }
            reference.ingest_all(tb.clone());
            assert_eq!(
                fast.end_epoch(),
                reference.end_epoch(),
                "milking day {day} summary diverged"
            );
            assert_eq!(
                json::to_string(&fast.clusters()),
                json::to_string(&reference.clusters()),
                "milking day {day} cluster list diverged"
            );
        }
        assert_eq!(
            json::to_string(&fast.clusters()),
            json::to_string(&reference.clusters()),
            "final cluster snapshot diverged"
        );
        // Ledgers live in different arenas (shared world arena vs the
        // reference's private one), so compare the arena-independent
        // resolved state rather than raw symbol ids.
        assert_eq!(
            json::to_string(&fast.ledger().to_state(&fast.arena().read())),
            json::to_string(&reference.ledger().to_state(&reference.arena().read())),
            "final ledger diverged"
        );
    });
}
