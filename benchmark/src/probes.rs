//! Standalone layer probes of the traced run. Spans cannot be opened
//! inside the crates yet, so each lower layer's public functions are
//! timed here on the inputs the workload itself produced — `World::fetch`
//! over the URLs the crawl visited, `BacktrackGraph::from_log` over
//! captured session logs, `HammingIndex` over the daemon's hashes. What a
//! pipeline phase's standalone children do not cover is reported as
//! `core.unattributed_share`, not hidden. Standalone timing is not
//! in-situ timing (caches are colder, inputs are a prefix); README
//! "Known distortions".
//!
//! `world_side` runs in the pipeline workloads (the only ones with a
//! world); `corpus_side` runs in every workload, on its final daemon.

use std::time::Instant;

use seacma_blacklist::{GsbService, VirusTotal};
use seacma_browser::{BrowserConfig, BrowserSession, EventLog, QuietBrowser, RenderCache};
use seacma_core::label::label_clusters;
use seacma_crawler::{
    visit_publisher_reusing, CrawlFarm, CrawlPolicy, LandingRecord, VisitScratch,
};
use seacma_daemon::{Daemon, ReputationSnapshot, SnapshotCell};
use seacma_detect::Detector;
use seacma_graph::{milkable, Attributor, BacktrackGraph};
use seacma_milker::{trackfeed, validate_candidates, Milker, MilkingCandidate};
use seacma_simweb::search::SourceSearch;
use seacma_simweb::{SimDuration, UaProfile, Url, Vantage, VisualTemplate};
use seacma_tracker::CampaignTracker;
use seacma_util::json;
use seacma_util::sym::{SharedArena, SymbolArena};
use seacma_vision::cluster::cluster_sym_columns_parallel;
use seacma_vision::dhash::dhash128;
use seacma_vision::index::HammingIndex;

use crate::corpus::Pools;
use crate::stats::percentile;
use crate::trace::{alloc_bytes, alloc_count};
use crate::workloads::pipeline::PipelineInputs;
use crate::workloads::Ctx;

/// Result of timing a batch of calls as one span.
struct Batch {
    secs: f64,
    calls: f64,
    allocs: f64,
}

impl Batch {
    fn ns(&self) -> f64 {
        self.secs * 1e9 / self.calls
    }
    fn us(&self) -> f64 {
        self.secs * 1e6 / self.calls
    }
    fn ms(&self) -> f64 {
        self.secs * 1e3
    }
    fn allocs_per_call(&self) -> f64 {
        self.allocs / self.calls
    }
}

/// Times `n` calls of `f` as one span of `n` items.
fn batch(
    ctx: &mut Ctx,
    layer: &'static str,
    name: &'static str,
    n: usize,
    mut f: impl FnMut(usize),
) -> Batch {
    let a0 = alloc_count();
    let open = ctx.tracer.open(layer, name);
    for i in 0..n {
        f(i);
    }
    let secs = ctx.tracer.close(open, n as u64);
    Batch {
        secs,
        calls: n.max(1) as f64,
        allocs: (alloc_count() - a0) as f64,
    }
}

/// Times one call.
fn once<T>(
    ctx: &mut Ctx,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Batch) {
    let a0 = alloc_count();
    let open = ctx.tracer.open(layer, name);
    let out = f();
    let secs = ctx.tracer.close(open, 1);
    (
        out,
        Batch {
            secs,
            calls: 1.0,
            allocs: (alloc_count() - a0) as f64,
        },
    )
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Probes of the layers under the crawl, cluster and milk phases.
pub fn world_side(ctx: &mut Ctx, inputs: &PipelineInputs<'_>) {
    let outer = ctx.tracer.open("harness", "probes_world");
    let p = inputs.pipeline;
    let world = p.world();
    let d = inputs.discovery;
    let n = ctx.sizes.probe_items;
    let landings: Vec<&LandingRecord> = d.landings().collect();
    let hashing = |ua, vantage| BrowserConfig::instrumented(ua, vantage).hash_screenshots();

    // ── simweb ─────────────────────────────────────────────────────────
    let js: Vec<&str> = world
        .networks()
        .iter()
        .filter(|n| n.seed_listed)
        .map(|n| n.js_invariant.as_str())
        .collect();
    let (_, b) = once(ctx, "simweb", "source_search", || {
        SourceSearch::new(world).search_any(&js)
    });
    ctx.set("simweb.source_search_ms", b.ms());
    // The URLs the crawl visited: publisher front pages and landings.
    let fetches: Vec<(Url, _, _)> = d
        .crawl
        .visits
        .iter()
        .take(n)
        .map(|v| {
            (
                world.publishers()[v.publisher.0 as usize].url(),
                hashing(v.ua, v.vantage).client(),
                v.started,
            )
        })
        .chain(landings.iter().take(n).map(|l| {
            (
                l.landing_url.clone(),
                hashing(l.ua, l.vantage).client(),
                l.t,
            )
        }))
        .collect();
    let b = batch(ctx, "simweb", "fetch", fetches.len(), |i| {
        let (url, client, t) = &fetches[i];
        std::hint::black_box(world.fetch(url, client, *t));
    });
    ctx.set("simweb.fetch_ns", b.ns());
    ctx.set("simweb.fetch_allocs", b.allocs_per_call());
    let b = batch(ctx, "simweb", "fetch_lite", fetches.len(), |i| {
        let (url, client, t) = &fetches[i];
        std::hint::black_box(world.fetch_lite(url, client, *t));
    });
    ctx.set("simweb.fetch_lite_ns", b.ns());
    drop(fetches);

    // ── browser ────────────────────────────────────────────────────────
    // One instrumented session per visit: load the publisher, click its
    // first ad. The logs feed the graph probes below.
    let (mut nav_s, mut click_s, mut clicks) = (0.0, 0.0, 0usize);
    let mut logs: Vec<(EventLog, Url)> = Vec::new();
    let visits: Vec<_> = d.crawl.visits.iter().take(n).collect();
    let b = batch(ctx, "browser", "session", visits.len(), |i| {
        let v = visits[i];
        let url = world.publishers()[v.publisher.0 as usize].url();
        let mut session = BrowserSession::new(world, hashing(v.ua, v.vantage), v.started);
        let at = Instant::now();
        let loaded = session.navigate(&url);
        nav_s += at.elapsed().as_secs_f64();
        let Ok(loaded) = loaded else { return };
        let Some(action) = loaded.page.ad_action(0) else {
            return;
        };
        let at = Instant::now();
        let landed = session.click(&url, action);
        click_s += at.elapsed().as_secs_f64();
        clicks += 1;
        if let Ok(Some(landed)) = landed {
            if !landed.url.same_site(&url) {
                logs.push((session.into_log(), landed.url));
            }
        }
    });
    ctx.set(
        "browser.navigate_us",
        nav_s * 1e6 / visits.len().max(1) as f64,
    );
    ctx.set("browser.click_us", click_s * 1e6 / clicks.max(1) as f64);
    ctx.set("browser.session_allocs", b.allocs_per_call());

    // The milker's quiet browser: one full load, then the probe the
    // milker repeats every 15 virtual minutes (40 ticks per source).
    let sources: Vec<_> = inputs.sources.iter().take(n / 40 + 1).collect();
    let tick = SimDuration::from_minutes(15);
    let (mut load_s, mut probe_s) = (0.0, 0.0);
    let _ = batch(ctx, "browser", "quiet", sources.len(), |i| {
        let src = sources[i];
        let mut quiet = QuietBrowser::new(world, hashing(src.ua, Vantage::Residential));
        let at = Instant::now();
        let _ = std::hint::black_box(quiet.load(&src.url, inputs.crawl_end));
        load_s += at.elapsed().as_secs_f64();
        let _ = quiet.probe_cached(&src.url, inputs.crawl_end);
        let at = Instant::now();
        for k in 0..40 {
            let _ = std::hint::black_box(
                quiet.probe_cached(&src.url, inputs.crawl_end + tick * (k / 20)),
            );
        }
        probe_s += at.elapsed().as_secs_f64();
    });
    ctx.set(
        "browser.quiet_load_us",
        load_s * 1e6 / sources.len().max(1) as f64,
    );
    ctx.set(
        "browser.quiet_probe_cached_ns",
        probe_s * 1e9 / (40 * sources.len().max(1)) as f64,
    );

    let templates: Vec<VisualTemplate> = world
        .campaigns()
        .iter()
        .take(64)
        .map(|c| c.template())
        .collect();
    let cache = RenderCache::new();
    let b = batch(ctx, "browser", "render_dhash_cold", templates.len(), |i| {
        std::hint::black_box(cache.dhash(templates[i], i as u64));
    });
    ctx.set("browser.render_dhash_cold_us", b.us());
    let b = batch(ctx, "browser", "render_dhash_warm", n, |i| {
        let k = i % templates.len();
        std::hint::black_box(cache.dhash(templates[k], k as u64));
    });
    ctx.set("browser.render_dhash_warm_ns", b.ns());

    // ── vision: the raw hash over rendered landings ────────────────────
    let bitmaps: Vec<_> = templates
        .iter()
        .take(16)
        .enumerate()
        .map(|(i, t)| cache.render(*t, i as u64))
        .collect();
    let b = batch(ctx, "vision", "dhash128", n, |i| {
        std::hint::black_box(dhash128(&bitmaps[i % bitmaps.len()]));
    });
    ctx.set("vision.dhash128_us", b.us());

    // ── crawler ────────────────────────────────────────────────────────
    let pool = &d.institutional_pool;
    let schedule = p.config().schedule;
    let config = hashing(UaProfile::ChromeMac, Vantage::Institutional);
    let (mut arena, mut scratch) = (SymbolArena::new(), VisitScratch::new());
    let visit_cache = RenderCache::new();
    let mut visit_ns: Vec<u64> = Vec::new();
    let mut with_landing = 0usize;
    let b = batch(
        ctx,
        "crawler",
        "visit_publisher_reusing",
        pool.len().min(n),
        |i| {
            let site = &world.publishers()[pool[i].0 as usize];
            let at = Instant::now();
            let visit = visit_publisher_reusing(
                world,
                site,
                config,
                schedule.job_time(i),
                CrawlPolicy::default(),
                Some(&visit_cache),
                &mut arena,
                &mut scratch,
            );
            visit_ns.push(at.elapsed().as_nanos() as u64);
            with_landing += usize::from(!visit.landings.is_empty());
        },
    );
    visit_ns.sort_unstable();
    ctx.set(
        "crawler.visit_us_p50",
        percentile(&visit_ns, 50.0) as f64 / 1e3,
    );
    ctx.set(
        "crawler.visit_us_p99",
        percentile(&visit_ns, 99.0) as f64 / 1e3,
    );
    ctx.set("crawler.visit_allocs", b.allocs_per_call());
    ctx.set(
        "crawler.visits_with_landing_share",
        share(with_landing, visit_ns.len()),
    );
    let mean_visit_s = b.secs / b.calls;

    // The honest concurrency curve: the same crawl at 1 and 2 workers.
    let farm_pool = &pool[..pool.len().min(5 * n)];
    for (workers, name, metric) in [
        (1, "farm_w1", "crawler.farm_w1_visits_per_s"),
        (2, "farm_w2", "crawler.farm_w2_visits_per_s"),
    ] {
        let (_, b) = once(ctx, "crawler", name, || {
            CrawlFarm::new(world, workers, CrawlPolicy::default()).crawl(
                farm_pool,
                &[UaProfile::ChromeMac],
                Vantage::Institutional,
                schedule,
                &SharedArena::new(),
            )
        });
        ctx.set(metric, farm_pool.len() as f64 / b.secs);
    }

    // ── graph ──────────────────────────────────────────────────────────
    let mut graphs: Vec<BacktrackGraph> = Vec::with_capacity(logs.len());
    let b = batch(ctx, "graph", "backtrack_from_log", logs.len(), |i| {
        graphs.push(BacktrackGraph::from_log(&logs[i].0))
    });
    ctx.set("graph.backtrack_build_us", b.us());
    let mut found = 0usize;
    let b = batch(ctx, "graph", "milkable_candidate", logs.len(), |i| {
        found += usize::from(milkable::candidate(&graphs[i], &logs[i].1).is_some());
    });
    ctx.set("graph.milkable_candidate_us", b.us());
    ctx.set("graph.milkable_found_share", share(found, logs.len()));
    let attributor = Attributor::new(p.seed_patterns());
    let attributed = landings.len().min(5 * n);
    let attribute = batch(ctx, "graph", "attribute_urls", attributed, |i| {
        std::hint::black_box(attributor.attribute_urls(landings[i].chain_urls()));
    });
    ctx.set("graph.attribute_ns", attribute.ns());

    // ── the cluster phase's children ───────────────────────────────────
    let dhashes: Vec<_> = landings.iter().map(|l| l.dhash).collect();
    let e2lds: Vec<_> = landings.iter().map(|l| l.landing_e2ld).collect();
    let params = p.config().clustering;
    let (_, w1) = once(ctx, "vision", "cluster_w1", || {
        cluster_sym_columns_parallel(&dhashes, &e2lds, &p.arena().read(), params, 1)
    });
    let (_, w2) = once(ctx, "vision", "cluster_w2", || {
        cluster_sym_columns_parallel(&dhashes, &e2lds, &p.arena().read(), params, 2)
    });
    ctx.set("vision.cluster_w1_ms", w1.ms());
    ctx.set("vision.cluster_w2_ms", w2.ms());
    let (_, label) = once(ctx, "core", "label_clusters", || {
        label_clusters(world, &d.clusters.campaigns, &landings)
    });
    ctx.set("core.label_ms", label.ms());

    // ── the track phases' children: ingest vs end_epoch ────────────────
    let mut tracker = CampaignTracker::with_arena(p.tracker_config(), p.arena().clone());
    let (mut ingest_s, mut end_s) = (0.0, 0.0);
    for epoch in p.crawl_epoch_sym_batches(d) {
        let b = batch(ctx, "tracker", "ingest_sym", epoch.len(), |i| {
            tracker.ingest_sym(epoch[i].0, epoch[i].1)
        });
        ingest_s += b.secs;
        end_s += once(ctx, "tracker", "end_epoch", || tracker.end_epoch())
            .1
            .secs;
    }
    drop(tracker);

    // ── milker + blacklist ─────────────────────────────────────────────
    let candidates: Vec<MilkingCandidate> = inputs
        .sources
        .iter()
        .map(|s| MilkingCandidate {
            url: s.url.clone(),
            ua: s.ua,
            cluster: s.cluster,
            reference: s.reference,
        })
        .collect();
    let (_, validate) = once(ctx, "milker", "validate_candidates", || {
        validate_candidates(world, candidates, inputs.crawl_end)
    });
    ctx.set("milker.validate_ms", validate.ms());
    let mut run_w1_s = 0.0;
    for (workers, name, metric) in [
        (1, "run_w1", "milker.run_w1_ms"),
        (2, "run_w2", "milker.run_w2_ms"),
    ] {
        let (_, b) = once(ctx, "milker", name, || {
            let mut vt = VirusTotal::new(world.seed() ^ 0x7A);
            Milker::new(world, p.config().milking).run_parallel(
                inputs.sources,
                &mut GsbService::new(world),
                &mut vt,
                inputs.crawl_end,
                workers,
            )
        });
        ctx.set(metric, b.ms());
        if workers == 1 {
            run_w1_s = b.secs;
        }
    }
    let (_, feed) = once(ctx, "milker", "trackfeed", || {
        trackfeed::discovery_sym_points(world, inputs.sources, inputs.milking, &SharedArena::new())
    });
    ctx.set("milker.trackfeed_ms", feed.ms());
    ctx.set(
        "milker.discovery_share",
        inputs.milking.discoveries.len() as f64 / inputs.milking.sessions.max(1) as f64,
    );
    let found: Vec<_> = inputs.milking.discoveries.iter().take(n).collect();
    let mut gsb = GsbService::new(world);
    let milk = p.config().milking;
    let b = batch(
        ctx,
        "blacklist",
        "gsb_first_listed_poll",
        found.len(),
        |i| {
            let d = found[i];
            std::hint::black_box(gsb.first_listed_poll(
                &d.domain,
                d.first_seen,
                milk.lookup_interval,
                d.first_seen + milk.lookup_tail,
            ));
        },
    );
    ctx.set("blacklist.gsb_first_listed_poll_ns", b.ns());

    // ── util: the symbol arena on the crawl's own domain strings ───────
    let names: Vec<String> = {
        let arena = p.arena().read();
        landings
            .iter()
            .take(5 * n)
            .map(|l| arena.resolve(l.landing_e2ld).to_string())
            .collect()
    };
    arena_probes(ctx, &names);

    // ── what the standalone children leave unexplained ─────────────────
    let [crawl_s, cluster_s, track_crawl_s, milk_s, track_milk_s] = inputs.phase_s;
    let attributed = [
        (crawl_s, d.crawl.visits.len() as f64 * mean_visit_s),
        (
            cluster_s,
            w1.secs + label.secs + attribute.secs / attribute.calls * landings.len() as f64,
        ),
        (track_crawl_s, ingest_s + end_s),
        (milk_s, validate.secs + run_w1_s),
        (track_milk_s, feed.secs),
    ];
    let covered: f64 = attributed
        .iter()
        .map(|(phase, children)| children.min(*phase))
        .sum();
    let wall: f64 = inputs.phase_s.iter().sum();
    ctx.set("core.unattributed_share", 1.0 - covered / wall);
    ctx.tracer.close(outer, 0);
}

fn arena_probes(ctx: &mut Ctx, names: &[String]) {
    let mut arena = SymbolArena::new();
    let mut syms = Vec::with_capacity(names.len());
    let b = batch(ctx, "util", "arena_intern", names.len(), |i| {
        syms.push(arena.intern(&names[i]))
    });
    ctx.set("util.arena_intern_ns", b.ns());
    let b = batch(ctx, "util", "arena_resolve", syms.len(), |i| {
        std::hint::black_box(arena.resolve(syms[i]));
    });
    ctx.set("util.arena_resolve_ns", b.ns());
}

/// Probes of the layers under ingest, epoch close, resume and queries,
/// on the workload's final daemon.
pub fn corpus_side(ctx: &mut Ctx, daemon: &Daemon, pools: &Pools) {
    let outer = ctx.tracer.open("harness", "probes_corpus");
    let n = ctx.sizes.probe_items;
    let tracker = daemon.tracker();
    let config = tracker.config();
    let points = tracker.unique_points();
    let hashes = tracker.dhashes().to_vec();
    let eps = config.params.eps;

    // ── vision: the Hamming index ──────────────────────────────────────
    let (index, b) = once(ctx, "vision", "index_build", || {
        HammingIndex::build(&hashes, eps)
    });
    ctx.set("vision.index_build_ms", b.ms());
    let half = hashes.len() / 2;
    let mut growing = HammingIndex::build(&hashes[..half], eps);
    let inserts = (hashes.len() - half).min(10 * n);
    let b = batch(ctx, "vision", "index_insert", inserts, |i| {
        growing.insert(hashes[half + i]);
    });
    ctx.set("vision.index_insert_ns", b.ns());
    drop(growing);
    let mut out = Vec::new();
    let mut neighbours = 0usize;
    let b = batch(ctx, "vision", "index_probe_near", 10 * n, |i| {
        index.neighbours_of_hash(pools.dhash_near[i % pools.dhash_near.len()], &mut out);
        neighbours += out.len();
    });
    ctx.set("vision.index_probe_near_ns", b.ns());
    ctx.set("vision.neighbours_per_probe", neighbours as f64 / b.calls);
    let b = batch(ctx, "vision", "index_probe_far", 10 * n, |i| {
        index.neighbours_of_hash(pools.dhash_far[i % pools.dhash_far.len()], &mut out);
    });
    ctx.set("vision.index_probe_far_ns", b.ns());
    let b = batch(ctx, "vision", "index_nearest", 10 * n, |i| {
        std::hint::black_box(
            index.nearest_of_hash(pools.dhash_near[i % pools.dhash_near.len()], &mut out),
        );
    });
    ctx.set("vision.index_nearest_ns", b.ns());
    drop(index);
    // The pipeline workloads measured clustering on their landings.
    if !ctx.out.values.contains_key("vision.cluster_w1_ms") {
        for (workers, name, metric) in [
            (1, "cluster_w1", "vision.cluster_w1_ms"),
            (2, "cluster_w2", "vision.cluster_w2_ms"),
        ] {
            let (_, b) = once(ctx, "vision", name, || {
                cluster_sym_columns_parallel(
                    &hashes,
                    tracker.e2ld_syms(),
                    &tracker.arena().read(),
                    config.params,
                    workers,
                )
            });
            ctx.set(metric, b.ms());
        }
    }

    // ── tracker: re-ingest the resident points into a fresh tracker ────
    let mut fresh = CampaignTracker::new(config);
    const CHUNK: usize = 1_000;
    let a0 = alloc_count();
    let mut last_ns = 0.0;
    for (k, chunk) in points.chunks(CHUNK).enumerate() {
        let owned = chunk.to_vec();
        let mut owned = owned.into_iter();
        let b = batch(ctx, "tracker", "ingest", chunk.len(), |_| {
            fresh.ingest(owned.next().expect("one per call"))
        });
        last_ns = b.ns();
        match k * CHUNK {
            25_000 => ctx.set("tracker.ingest_ns_h25k", last_ns),
            50_000 => ctx.set("tracker.ingest_ns_h50k", last_ns),
            _ => {}
        }
    }
    ctx.set("tracker.ingest_ns_steady", last_ns);
    ctx.set(
        "tracker.ingest_allocs",
        (alloc_count() - a0) as f64 / points.len().max(1) as f64,
    );
    ctx.set(
        "tracker.dup_share",
        1.0 - share(tracker.unique_len(), tracker.points_ingested()),
    );
    let (_, b) = once(ctx, "tracker", "end_epoch", || fresh.end_epoch());
    ctx.set("tracker.end_epoch_ms", b.ms());
    let (_, b) = once(ctx, "tracker", "clusters", || fresh.clusters());
    ctx.set("tracker.clusters_ms", b.ms());
    let (text, b) = once(ctx, "tracker", "to_json", || fresh.to_json());
    ctx.set("tracker.to_json_ms", b.ms());
    let (_, b) = once(ctx, "tracker", "from_json", || {
        CampaignTracker::from_json(&text)
    });
    ctx.set("tracker.from_json_ms", b.ms());
    let (_, b) = once(ctx, "util", "json_parse", || json::parse(&text));
    ctx.set("util.json_parse_mb_per_s", text.len() as f64 / 1e6 / b.secs);
    drop((text, fresh));
    if !ctx.out.values.contains_key("util.arena_intern_ns") {
        let names: Vec<String> = points.iter().take(5 * n).map(|p| p.e2ld.clone()).collect();
        arena_probes(ctx, &names);
    }
    drop(points);

    // ── detect: the frozen detector without the handle in front ────────
    let snap = daemon.handle().snapshot();
    let det = snap.detector();
    let (_, b) = once(ctx, "detect", "from_columns", || {
        Detector::from_columns(det.hashes(), det.assignments(), *det.config())
    });
    ctx.set("detect.build_ms", b.ms());
    let mut scratch = Vec::new();
    let mut scratch_allocs = 0.0;
    for (name, metric, pool) in [
        (
            "campaign_hit",
            "detect.campaign_hit_ns",
            &pools.campaign_hit,
        ),
        (
            "near_campaign",
            "detect.near_campaign_ns",
            &pools.near_campaign,
        ),
        ("suspicious", "detect.suspicious_ns", &pools.suspicious),
        ("benign", "detect.benign_ns", &pools.benign),
    ] {
        // Let the scratch reach its size before counting allocations.
        let _ = det.detect_with(&pool[0], &mut scratch);
        let b = batch(ctx, "detect", name, 10 * n, |i| {
            std::hint::black_box(det.detect_with(&pool[i % pool.len()], &mut scratch));
        });
        ctx.set(metric, b.ns());
        scratch_allocs += b.allocs;
    }
    ctx.set("detect.scratch_allocs", scratch_allocs);

    // ── daemon: build, publish, load and drop of one snapshot ──────────
    let bytes0 = alloc_bytes();
    let (built, b) = once(ctx, "daemon", "snapshot_build", || {
        ReputationSnapshot::build(tracker)
    });
    ctx.set("daemon.snapshot_build_ms", b.ms());
    ctx.set(
        "daemon.snapshot_bytes_per_point",
        (alloc_bytes() - bytes0) as f64 / built.resident_points().max(1) as f64,
    );
    let cell = SnapshotCell::new(built);
    let next = ReputationSnapshot::build(tracker);
    // A reader still holds the superseded snapshot, so publish is the
    // swap alone and the drop is timed where the last holder pays it.
    let held = cell.load();
    let ((), b) = once(ctx, "daemon", "publish", || cell.publish(next));
    ctx.set("daemon.publish_us", b.us());
    let ((), b) = once(ctx, "daemon", "snapshot_drop", || drop(held));
    ctx.set("daemon.snapshot_drop_ms", b.ms());
    let b = batch(ctx, "daemon", "load", 100 * n, |_| {
        std::hint::black_box(cell.load());
    });
    ctx.set("daemon.load_ns", b.ns());
    ctx.tracer.close(outer, 0);
}
