//! `track-replay`: the writer side alone. A daemon ingests the synthetic
//! near-duplicate corpus in bulk epochs (`pipeline_wall_s`), then in small
//! steady epochs (`ingest_points_per_s`, `epoch_close_ms_p50`), then
//! snapshots and resumes — tracker insert, index insert/probe,
//! ledger, snapshot + detector build and JSON, with no simweb, browser or
//! crawler work at all. A short query mix on the final snapshot closes
//! the run.

use seacma_tracker::TrackerConfig;
use seacma_util::json::{self, ToJson};
use seacma_vision::cluster::cluster_screenshots;

use super::{build_daemon, query_tail, report_resume, resume_roundtrip, Ctx, EpochTimes};
use crate::corpus::{fnv1a, synth, FNV_INIT};
use crate::probes;
use crate::stats::median;

pub fn run(ctx: &mut Ctx) {
    let s = ctx.sizes.clone();
    let bulk = s.bulk_epochs * s.bulk_points;
    let total = bulk + s.steady_epochs * s.epoch_points;
    let config = TrackerConfig::default();
    ctx.out.config.push(("tracker", config.to_json()));

    // Set-up is corpus synthesis; synthesised five times for a median.
    let corpus_seed = ctx.derive("corpus", 0);
    let mut synths = Vec::new();
    let mut corpus = Vec::new();
    for _ in 0..5 {
        let (c, secs) = ctx
            .tracer
            .call("harness", "synth_corpus", total as u64, || {
                synth(total, corpus_seed)
            });
        corpus = c;
        synths.push(secs);
    }
    ctx.set("setup_s", median(&synths));

    // The bulk build runs twice and the faster (less disturbed) one
    // counts; the second daemon carries on into the steady epochs.
    let (first, wall_a) = build_daemon(ctx, config, &corpus[..bulk], s.bulk_points, |_| {});
    drop(first);
    let (mut daemon, wall_b) = build_daemon(ctx, config, &corpus[..bulk], s.bulk_points, |_| {});
    let mut steady = EpochTimes::default();
    for batch in corpus[bulk..].chunks(s.epoch_points) {
        steady.epoch(&mut ctx.tracer, &mut daemon, batch.to_vec());
    }
    ctx.set("pipeline_wall_s", wall_a.min(wall_b));
    ctx.note(format!(
        "replay: {} bulk epochs x {} points twice ({:.3} s, {:.3} s; the faster is pipeline_wall_s), \
         then {} steady epochs x {} points ({:.3} s); history {bulk} -> {total} points",
        s.bulk_epochs,
        s.bulk_points,
        wall_a,
        wall_b,
        s.steady_epochs,
        s.epoch_points,
        steady.wall_s(),
    ));
    steady.report(ctx, "steady", (s.steady_epochs / 4).max(1));

    let trips: Vec<_> = (0..s.resume_reps)
        .map(|_| resume_roundtrip(ctx, &daemon).0)
        .collect();
    report_resume(ctx, &trips);

    let final_clusters = daemon.tracker().clusters();
    let batch = cluster_screenshots(&corpus, config.params);
    ctx.gate(
        "final tracker snapshot == batch cluster_screenshots of the full corpus",
        final_clusters == batch,
    );
    ctx.out.digest = fnv1a(FNV_INIT, json::to_string(&final_clusters).as_bytes());

    let pools = query_tail(ctx, &daemon);
    if ctx.tracer.enabled() {
        probes::corpus_side(ctx, &daemon, &pools);
    }
}
