//! `serve-static` and `serve-live`: per-page-load verdicts and reputation
//! lookups through `QueryHandle`, alone and beside a publishing writer.
//!
//! Set-up builds a resident daemon over the synthetic corpus and proves
//! it equal to the offline batch oracle at every set-up epoch. One
//! closed-loop reader then issues the nine-kind round robin. In
//! `serve-live` a writer thread runs an open-loop schedule beside it:
//! every period it ingests the next slice of the corpus and closes the
//! epoch, so reads meet snapshot swaps, refcount traffic, the drop of
//! the superseded snapshot and cache contention.

use std::time::Instant;

use seacma_daemon::offline::replay_batches;
use seacma_daemon::ReputationSnapshot;
use seacma_tracker::TrackerConfig;
use seacma_util::json::{self, ToJson};
use seacma_util::prop::Rng;
use seacma_vision::cluster::{cluster_screenshots, ScreenshotPoint};
use seacma_vision::dhash::Dhash;

use super::{
    answer_sheet, build_daemon, build_pools, report_queries, report_resume, resume_roundtrip,
    steady_tail, Ctx, EpochTimes,
};
use crate::corpus::{fnv1a, synth, FNV_INIT};
use crate::probes;
use crate::querymix::run_reader;
use crate::schedule::OpenLoop;
use crate::stats::median;

/// The `query_scaling` gate probes: URLs and hashes on and off the
/// corpus, fixed before any snapshot exists.
struct GateProbes {
    urls: Vec<String>,
    hashes: Vec<Dhash>,
}

impl GateProbes {
    fn new(corpus: &[ScreenshotPoint], seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut urls: Vec<String> = (0..300)
            .map(|_| format!("http://www.{}/lp", rng.pick(corpus).e2ld))
            .collect();
        urls.extend((0..50).map(|i| format!("http://unseen{i}.example/")));
        let mut hashes: Vec<Dhash> = (0..300)
            .map(|_| Dhash(rng.pick(corpus).dhash.0 ^ 1))
            .collect();
        hashes.extend((0..50).map(|_| Dhash(rng.u128())));
        Self { urls, hashes }
    }

    fn sheet(&self, snap: &ReputationSnapshot) -> String {
        let mut out = format!("epoch={}\n", snap.epoch());
        for u in &self.urls {
            out.push_str(&json::to_string(&snap.lookup_url(u)));
            out.push('\n');
        }
        for &h in &self.hashes {
            out.push_str(&json::to_string(&snap.nearest_campaign(h)));
            out.push('\n');
        }
        for id in 0..=(snap.statuses().len() as u32) {
            out.push_str(&json::to_string(&snap.campaign(id).cloned()));
            out.push('\n');
        }
        out
    }
}

pub fn run(ctx: &mut Ctx, live: bool) {
    let s = ctx.sizes.clone();
    let base = s.serve_epochs * s.bulk_points;
    let tail = if live {
        s.live_epochs * s.epoch_points
    } else {
        0
    };
    let config = TrackerConfig::default();
    ctx.out.config.push(("tracker", config.to_json()));

    // ── Set-up: corpus, resident daemon, probe pools ───────────────────
    let corpus_seed = ctx.derive("corpus", 0);
    let (corpus, synth_s) =
        ctx.tracer
            .call("harness", "synth_corpus", (base + tail) as u64, || {
                synth(base + tail, corpus_seed)
            });
    let gate_probes = GateProbes::new(&corpus[..base], ctx.derive("gate", 0));
    // The resident build runs twice and the faster (less disturbed) one
    // counts; the second daemon is the one that serves.
    let (first, wall_a) = build_daemon(ctx, config, &corpus[..base], s.bulk_points, |_| {});
    drop(first);
    let mut live_sheets = Vec::new();
    let (mut daemon, wall_b) = build_daemon(ctx, config, &corpus[..base], s.bulk_points, |d| {
        live_sheets.push(gate_probes.sheet(&d.handle().snapshot()));
    });
    let handle = daemon.handle();
    let build_s = wall_a.min(wall_b);
    let pools_at = Instant::now();
    let pools = build_pools(ctx, &daemon);
    let pools_s = pools_at.elapsed().as_secs_f64();
    ctx.set("setup_s", synth_s + build_s + pools_s);
    ctx.set("pipeline_wall_s", build_s);
    ctx.note(format!(
        "resident build: {} epochs x {} points twice ({wall_a:.3} s, {wall_b:.3} s; the faster counts)",
        s.serve_epochs, s.bulk_points
    ));

    // Gate (outside every timed number): the daemon's answers at every
    // set-up epoch equal the offline batch pipeline's.
    let batches: Vec<Vec<ScreenshotPoint>> = corpus[..base]
        .chunks(s.bulk_points)
        .map(<[_]>::to_vec)
        .collect();
    let oracle = replay_batches(config, &batches);
    let agree = oracle
        .iter()
        .zip(&live_sheets)
        .all(|(o, sheet)| gate_probes.sheet(o) == *sheet);
    ctx.gate(
        "daemon == offline::replay_batches at every set-up epoch",
        agree && oracle.len() == live_sheets.len(),
    );
    drop((oracle, live_sheets));

    // ── Timed window ───────────────────────────────────────────────────
    let open = ctx.tracer.open("harness", "window");
    let (stats, writer) = if live {
        let live_batches: Vec<Vec<ScreenshotPoint>> = corpus[base..]
            .chunks(s.epoch_points)
            .map(<[_]>::to_vec)
            .collect();
        let mut writer_tracer = ctx.tracer.fork();
        let mut sched = OpenLoop::new(Instant::now() + s.serve_window.warmup, s.live_period);
        let mut times = EpochTimes::default();
        let stats = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for batch in live_batches {
                    sched.wait_next();
                    let started = Instant::now();
                    times.epoch(&mut writer_tracer, &mut daemon, batch);
                    sched.record(started, Instant::now());
                }
            });
            let stats = run_reader(&handle, &pools, s.serve_window, &mut ctx.tracer);
            writer.join().expect("writer thread panicked");
            stats
        });
        ctx.tracer.merge(writer_tracer);
        (stats, Some((times, sched)))
    } else {
        (
            run_reader(&handle, &pools, s.serve_window, &mut ctx.tracer),
            None,
        )
    };
    ctx.tracer.close(open, stats.issued);
    report_queries(ctx, &stats);

    if let Some((times, sched)) = writer {
        times.report(ctx, "live", (s.live_epochs / 4).max(1));
        let late_ms = sched.max_late().as_secs_f64() * 1e3;
        let responses: Vec<f64> = sched
            .ticks()
            .iter()
            .map(|t| t.response.as_secs_f64() * 1e3)
            .collect();
        ctx.set("daemon.writer_lag_ms_max", late_ms);
        ctx.note(format!(
                "writer: open loop, one epoch of {} points every {} ms, {} epochs; generator lateness max {late_ms:.3} ms; \
                 epoch response from due time p50 {:.1} ms, max {:.1} ms",
                s.epoch_points,
                s.live_period.as_millis(),
                responses.len(),
                median(&responses),
                responses.iter().copied().fold(0.0, f64::max),
            ));
    }

    // ── After the window: resume, then the remaining gates ─────────────
    let (first, twin) = resume_roundtrip(ctx, &daemon);
    drop(twin);
    let (second, resumed) = resume_roundtrip(ctx, &daemon);
    report_resume(ctx, &[first, second]);
    let published = handle.snapshot();
    let sheet = answer_sheet(&published, &pools);
    ctx.gate(
        "published snapshot is the final epoch and answers like the resumed daemon",
        published.epoch() as usize == s.serve_epochs + if live { s.live_epochs } else { 0 }
            && sheet == answer_sheet(&resumed.handle().snapshot(), &pools),
    );
    drop(resumed);
    let batch = cluster_screenshots(&corpus, config.params);
    ctx.gate(
        "final tracker snapshot == batch cluster_screenshots of everything ingested",
        daemon.tracker().clusters() == batch,
    );
    if live && s.offline_tail_gate {
        let all: Vec<Vec<ScreenshotPoint>> = corpus[..base]
            .chunks(s.bulk_points)
            .chain(corpus[base..].chunks(s.epoch_points))
            .map(<[_]>::to_vec)
            .collect();
        let oracle = replay_batches(config, &all);
        let last = oracle.last().expect("at least one epoch");
        ctx.gate(
            "final published answers == offline replay of base + published tail epochs",
            gate_probes.sheet(last) == gate_probes.sheet(&published)
                && answer_sheet(last, &pools) == sheet,
        );
    }
    ctx.out.digest = fnv1a(FNV_INIT, sheet.as_bytes());

    // `serve-static` has no writer in its window; its ingest and epoch
    // metrics come from a few steady epochs after everything else.
    if !live {
        let times = steady_tail(ctx, &mut daemon, 0);
        times.report(ctx, "steady (after the window)", s.tail_block);
    }

    if ctx.tracer.enabled() {
        probes::corpus_side(ctx, &daemon, &pools);
    }
}
