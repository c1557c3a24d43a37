//! The five workloads and the pieces they share: sizes, the run context,
//! epoch/resume timing around the daemon's public calls, and the query
//! tail. Every workload reports all nine end-to-end metrics (the
//! benchmark's contract compares every metric on every workload), so a
//! workload that does not natively serve, resume or ingest ends with the
//! smallest such step on its own final state; README "What each metric
//! means on each workload" spells the sources out.

pub mod pipeline;
pub mod serve;
pub mod track;

use std::time::Duration;

use seacma_daemon::{Daemon, ReputationSnapshot};
use seacma_detect::oracle::linear_verdict;
use seacma_tracker::TrackerConfig;
use seacma_util::json;
use seacma_vision::cluster::ScreenshotPoint;

use crate::corpus::{derive, fresh_around, Pools};
use crate::metrics::{Values, KINDS};
use crate::querymix::{run_reader, QueryStats, Window};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Tracer;

/// Input sizes. `std` is what `BENCHMARK.json` is measured at; `smoke`
/// runs every workload and every gate in a few seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// `pipeline-paper` publishers (hidden-only = /10, advertisers = /20,
    /// the paper run's ratios).
    pub paper_publishers: u32,
    /// `pipeline-paper` repetitions of the same world (the fastest
    /// repetition of each phase is reported).
    pub paper_units: usize,
    /// `pipeline-sweep` publishers per world and number of worlds.
    pub sweep_publishers: u32,
    pub sweep_worlds: usize,
    /// Small worlds need the stretched crawl schedule of
    /// `PipelineConfig::small` for campaigns to rotate domains at all.
    pub stretch_schedule: bool,
    /// Steady epochs fed to the final daemon of a workload that has no
    /// steady writer of its own (pipelines, `serve-static`), and the
    /// block length [`EpochTimes::report`] takes the quietest of.
    pub tail_epochs: usize,
    pub tail_block: usize,
    /// `track-replay`: bulk epochs × points, then steady epochs.
    pub bulk_epochs: usize,
    pub bulk_points: usize,
    pub steady_epochs: usize,
    /// Points per steady / live epoch.
    pub epoch_points: usize,
    /// `to_json` + `from_json` round trips `track-replay` takes the fastest of.
    pub resume_reps: usize,
    /// Serve workloads: resident daemon = `serve_epochs` × `bulk_points`.
    pub serve_epochs: usize,
    /// Reader warm-up and timed window of the serve workloads.
    pub serve_window: Window,
    /// Reader window of the other workloads' query tail.
    pub tail_window: Window,
    /// `serve-live` writer period and epochs.
    pub live_period: Duration,
    pub live_epochs: usize,
    /// Whether `serve-live` replays base + published tail through
    /// `offline::replay_batches` afterwards (one full DBSCAN per epoch:
    /// affordable at smoke size only; `std` checks batch clustering of
    /// the full corpus and resume identity instead).
    pub offline_tail_gate: bool,
    /// Work per standalone layer probe in the traced run.
    pub probe_items: usize,
}

impl Sizes {
    /// Sized on the 2-core reference box so that each workload's timed
    /// window is about `seconds` (10 in `BENCHMARK.json`).
    pub fn std(seconds: u64) -> Self {
        let scale = |per_ten: u64| ((per_ten * seconds / 10).max(1)) as usize;
        let ms = Duration::from_millis;
        Self {
            paper_publishers: 28_000,
            paper_units: scale(2),
            sweep_publishers: 8_000,
            sweep_worlds: scale(3),
            stretch_schedule: false,
            tail_epochs: 12,
            tail_block: 4,
            bulk_epochs: 12,
            bulk_points: 5_000,
            steady_epochs: scale(40),
            epoch_points: 250,
            resume_reps: 3,
            serve_epochs: 10,
            serve_window: Window::new(ms(1_000), Duration::from_secs(seconds)),
            tail_window: Window::new(ms(200), ms(2_000)),
            live_period: ms(250),
            live_epochs: scale(40),
            offline_tail_gate: false,
            probe_items: 2_000,
        }
    }

    pub fn smoke() -> Self {
        let ms = Duration::from_millis;
        Self {
            paper_publishers: 1_200,
            paper_units: 1,
            sweep_publishers: 600,
            sweep_worlds: 2,
            stretch_schedule: true,
            tail_epochs: 4,
            tail_block: 2,
            bulk_epochs: 4,
            bulk_points: 500,
            steady_epochs: 8,
            epoch_points: 50,
            resume_reps: 2,
            serve_epochs: 4,
            serve_window: Window::new(ms(100), ms(500)),
            tail_window: Window::new(ms(50), ms(200)),
            live_period: ms(50),
            live_epochs: 8,
            offline_tail_gate: true,
            probe_items: 100,
        }
    }
}

/// What a run produced besides its metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    /// Operations attempted and failed: queries, epochs, units and gates.
    pub attempted: u64,
    pub failed: u64,
    /// Lines for the human report: gates, sample counts, sizes.
    pub notes: Vec<String>,
    /// FNV digest of the run's deterministic outputs (0 where a workload
    /// has none beyond its gates).
    pub digest: u64,
    /// Effective configuration, as members of a JSON object.
    pub config: Vec<(&'static str, json::Value)>,
}

/// One run's state.
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    pub tracer: Tracer,
    pub out: Outcome,
}

impl Ctx {
    pub fn new(seed: u64, sizes: Sizes, trace: bool) -> Self {
        Self {
            seed,
            sizes,
            tracer: Tracer::new(trace),
            out: Outcome::default(),
        }
    }

    /// Seed of input stream `stream`, item `index`.
    pub fn derive(&self, stream: &str, index: u64) -> u64 {
        derive(self.seed, stream, index)
    }

    /// A correctness gate: one attempted operation, failed when `!ok`.
    pub fn gate(&mut self, what: &str, ok: bool) {
        self.out.attempted += 1;
        self.out.failed += u64::from(!ok);
        self.out
            .notes
            .push(format!("gate {}: {what}", if ok { "ok" } else { "FAILED" }));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.out.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.out.notes.push(line);
    }
}

/// Time inside `Daemon::ingest_all` / `Daemon::close_epoch`, per epoch.
#[derive(Debug, Default)]
pub struct EpochTimes {
    pub points: Vec<u64>,
    pub ingest_s: Vec<f64>,
    pub close_ms: Vec<f64>,
}

impl EpochTimes {
    /// Ingests `batch` and closes the epoch, timing the two calls.
    pub fn epoch(&mut self, tracer: &mut Tracer, daemon: &mut Daemon, batch: Vec<ScreenshotPoint>) {
        let n = batch.len() as u64;
        let ((), ingest) = tracer.call("daemon", "ingest_all", n, || daemon.ingest_all(batch));
        let (_, close) = tracer.call("daemon", "close_epoch", 1, || daemon.close_epoch());
        self.points.push(n);
        self.ingest_s.push(ingest);
        self.close_ms.push(close * 1e3);
    }

    pub fn absorb(&mut self, other: EpochTimes) {
        self.points.extend(other.points);
        self.ingest_s.extend(other.ingest_s);
        self.close_ms.extend(other.close_ms);
    }

    /// Seconds inside the two calls.
    pub fn wall_s(&self) -> f64 {
        self.ingest_s.iter().sum::<f64>() + self.close_ms.iter().sum::<f64>() / 1e3
    }

    /// Records `ingest_points_per_s` and `epoch_close_ms_p50` from the
    /// least disturbed block of `block` consecutive epochs — the highest
    /// block ingest rate, the lowest block median close — and the daemon
    /// layer's tail numbers over all epochs. Epochs in one report do
    /// like work, so blocks differ by host noise only.
    pub fn report(&self, ctx: &mut Ctx, what: &str, block: usize) {
        let rate = self
            .points
            .chunks(block)
            .zip(self.ingest_s.chunks(block))
            .map(|(p, s)| p.iter().sum::<u64>() as f64 / s.iter().sum::<f64>())
            .fold(0.0, f64::max);
        let close = self
            .close_ms
            .chunks(block)
            .map(median)
            .fold(f64::MAX, f64::min);
        let mut sorted = self.close_ms.clone();
        sorted.sort_by(f64::total_cmp);
        ctx.set("ingest_points_per_s", rate);
        ctx.set("epoch_close_ms_p50", close);
        ctx.set("daemon.epoch_close_ms_p75", percentile(&sorted, 75.0));
        ctx.set(
            "daemon.epoch_close_ms_max",
            sorted.last().copied().unwrap_or(0.0),
        );
        ctx.out.attempted += self.close_ms.len() as u64;
        ctx.note(format!(
            "epochs: {} {what} epochs, {} points, {:.3} s in ingest_all; ingest rate and median close from the quietest of {} blocks of {block} epochs",
            self.close_ms.len(),
            self.points.iter().sum::<u64>(),
            self.ingest_s.iter().sum::<f64>(),
            self.close_ms.len().div_ceil(block),
        ));
    }
}

/// Builds a daemon over `corpus` in epochs of `epoch_points`, calling
/// `published` after each close. Returns it with the seconds spent inside
/// `ingest_all` + `close_epoch`. Callers build twice and count the faster
/// (less disturbed) build.
pub fn build_daemon(
    ctx: &mut Ctx,
    config: TrackerConfig,
    corpus: &[ScreenshotPoint],
    epoch_points: usize,
    mut published: impl FnMut(&Daemon),
) -> (Daemon, f64) {
    let mut daemon = Daemon::new(config);
    let mut times = EpochTimes::default();
    for batch in corpus.chunks(epoch_points) {
        times.epoch(&mut ctx.tracer, &mut daemon, batch.to_vec());
        published(&daemon);
    }
    ctx.out.attempted += times.close_ms.len() as u64;
    (daemon, times.wall_s())
}

/// Feeds `daemon` the steady tail of a workload with no steady writer
/// of its own: `tail_epochs` epochs of near-duplicates around its
/// resident points (input stream `fresh`, item `stream`).
pub fn steady_tail(ctx: &mut Ctx, daemon: &mut Daemon, stream: u64) -> EpochTimes {
    let resident = daemon.tracker().unique_points();
    let n = ctx.sizes.tail_epochs * ctx.sizes.epoch_points;
    let fresh = fresh_around(&resident, n, ctx.derive("fresh", stream));
    drop(resident);
    let mut times = EpochTimes::default();
    for batch in fresh.chunks(ctx.sizes.epoch_points) {
        times.epoch(&mut ctx.tracer, daemon, batch.to_vec());
    }
    times
}

/// Timings of one `to_json` + `from_json` round trip.
#[derive(Debug, Clone, Copy)]
pub struct Resume {
    pub to_json_s: f64,
    pub from_json_s: f64,
    pub bytes: usize,
}

/// Gates that a daemon booted from `text` serialises back to `text`.
pub fn gate_reserialises(ctx: &mut Ctx, booted: &Daemon, text: &str) {
    let again = booted.to_json();
    ctx.gate(
        "from_json(to_json) re-serialises byte-identically",
        again == text,
    );
}

/// Snapshots `daemon`, boots a second daemon from the snapshot, and gates
/// byte-identical re-serialisation. Returns the timings and the twin.
pub fn resume_roundtrip(ctx: &mut Ctx, daemon: &Daemon) -> (Resume, Daemon) {
    let (text, to_json_s) = ctx.tracer.call("daemon", "to_json", 1, || daemon.to_json());
    let (resumed, from_json_s) = ctx
        .tracer
        .call("daemon", "from_json", text.len() as u64, || {
            Daemon::from_json(&text)
        });
    let resumed = resumed.expect("a daemon's own snapshot parses");
    gate_reserialises(ctx, &resumed, &text);
    (
        Resume {
            to_json_s,
            from_json_s,
            bytes: text.len(),
        },
        resumed,
    )
}

/// Records `resume_s` as the least disturbed (fastest) round trip.
pub fn report_resume(ctx: &mut Ctx, trips: &[Resume]) {
    let best = trips
        .iter()
        .min_by(|a, b| (a.to_json_s + a.from_json_s).total_cmp(&(b.to_json_s + b.from_json_s)))
        .expect("at least one resume round trip");
    let mb = best.bytes as f64 / 1e6;
    ctx.set("resume_s", best.to_json_s + best.from_json_s);
    ctx.set("util.json_write_mb_per_s", mb / best.to_json_s);
    ctx.note(format!(
        "resume: fastest of {} round trip(s), state {mb:.1} MB",
        trips.len()
    ));
}

/// Every pool probe's answer from one snapshot, as one string.
pub fn answer_sheet(snap: &ReputationSnapshot, pools: &Pools) -> String {
    let mut out = String::new();
    let mut line = |v: String| {
        out.push_str(&v);
        out.push('\n');
    };
    for u in pools.url_hit.iter().chain(&pools.url_miss) {
        line(json::to_string(&snap.lookup_url(u)));
    }
    for &h in pools.dhash_near.iter().chain(&pools.dhash_far) {
        line(json::to_string(&snap.nearest_campaign(h)));
    }
    for &id in &pools.campaign_ids {
        line(json::to_string(&snap.campaign(id).cloned()));
    }
    let mut scratch = Vec::new();
    let detects = [
        &pools.campaign_hit,
        &pools.near_campaign,
        &pools.suspicious,
        &pools.benign,
    ];
    for obs in detects.into_iter().flatten() {
        line(json::to_string(&snap.detect_with(obs, &mut scratch)));
    }
    out
}

/// Builds the probe pools for `daemon`'s published snapshot and gates the
/// served detect verdicts against the linear-scan oracle.
pub fn build_pools(ctx: &mut Ctx, daemon: &Daemon) -> Pools {
    let snap = daemon.handle().snapshot();
    let seed = ctx.derive("pools", 0);
    let (pools, _) = ctx
        .tracer
        .call("harness", "build_pools", 9, || Pools::build(&snap, seed));
    let det = snap.detector();
    let mut scratch = Vec::new();
    let detects = [
        &pools.campaign_hit,
        &pools.near_campaign,
        &pools.suspicious,
        &pools.benign,
    ];
    let agree = detects.iter().flat_map(|p| p.iter().take(64)).all(|obs| {
        snap.detect_with(obs, &mut scratch)
            == linear_verdict(det.hashes(), det.assignments(), det.config(), obs)
    });
    ctx.gate("detect == oracle::linear_verdict on the probe pools", agree);
    pools
}

/// Records the three query metrics (from the least disturbed segment)
/// and the daemon layer's whole-window and per-kind ones.
pub fn report_queries(ctx: &mut Ctx, stats: &QueryStats) {
    let all = stats.sorted_all();
    let us = |sorted: &[u32], p: f64| f64::from(percentile(sorted, p)) / 1e3;
    ctx.set("query_qps", stats.qps());
    ctx.set("query_p50_us", stats.quiet_us(50.0));
    ctx.set("query_p99_us", stats.quiet_us(99.0));
    ctx.set("daemon.query_p999_us", us(&all, 99.9));
    ctx.set("daemon.query_max_us", us(&all, 100.0));
    for (k, kind) in KINDS.iter().enumerate() {
        let sorted = stats.sorted_kind(k);
        ctx.set(&format!("daemon.{kind}_p50_us"), us(&sorted, 50.0));
        ctx.set(&format!("daemon.{kind}_p99_us"), us(&sorted, 99.0));
    }
    ctx.out.attempted += stats.issued;
    ctx.out.failed += stats.violations;
    let per_segment = all.len() / stats.segment_qps.len().max(1);
    ctx.note(format!(
        "queries: {} issued, {} timed over {} segments (~{per_segment} each; qps, p50, p99 from the quietest), \
         {} class violations; whole window p50 {:.2} us, p99 {:.2} us; highest percentile with >= 10 samples beyond: \
         {} per segment, {} whole window",
        stats.issued,
        all.len(),
        stats.segment_qps.len(),
        stats.violations,
        us(&all, 50.0),
        us(&all, 99.0),
        highest_supported_percentile(per_segment).map_or("none".into(), |p| format!("p{p}")),
        highest_supported_percentile(all.len()).map_or("none".into(), |p| format!("p{p}")),
    ));
}

/// The query tail of a workload that does not serve natively: pools on
/// `daemon`'s snapshot, then a short closed-loop read of all nine kinds.
pub fn query_tail(ctx: &mut Ctx, daemon: &Daemon) -> Pools {
    let pools = build_pools(ctx, daemon);
    let open = ctx.tracer.open("harness", "query_tail");
    let stats = run_reader(
        &daemon.handle(),
        &pools,
        ctx.sizes.tail_window,
        &mut ctx.tracer,
    );
    ctx.tracer.close(open, stats.issued);
    report_queries(ctx, &stats);
    pools
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_metrics_come_from_the_quietest_block() {
        let times = EpochTimes {
            points: vec![100; 6],
            // Block 0 disturbed, block 1 quiet, block 2 in between.
            ingest_s: vec![0.04, 0.04, 0.01, 0.01, 0.02, 0.02],
            close_ms: vec![9.0, 8.0, 2.0, 4.0, 5.0, 5.0],
        };
        let mut ctx = Ctx::new(1, Sizes::smoke(), false);
        times.report(&mut ctx, "test", 2);
        let v = &ctx.out.values;
        assert_eq!(v["ingest_points_per_s"], 200.0 / 0.02);
        assert_eq!(v["epoch_close_ms_p50"], 3.0);
        assert_eq!(v["daemon.epoch_close_ms_max"], 9.0);
        assert_eq!(ctx.out.attempted, 6);
        assert!((times.wall_s() - (0.14 + 0.033)).abs() < 1e-12);
    }

    #[test]
    fn seconds_scale_the_fixed_work() {
        let (ten, twenty) = (Sizes::std(10), Sizes::std(20));
        assert_eq!(
            (
                ten.sweep_worlds,
                ten.steady_epochs,
                ten.live_epochs,
                ten.paper_units
            ),
            (3, 40, 40, 2)
        );
        assert_eq!(
            (
                twenty.sweep_worlds,
                twenty.steady_epochs,
                twenty.paper_units
            ),
            (6, 80, 4)
        );
        assert_eq!(Sizes::std(1).sweep_worlds, 1);
        assert_eq!(
            ten.serve_window.segment * ten.serve_window.segments as u32,
            Duration::from_secs(10)
        );
        // The live writer's schedule fills the reader's timed window.
        assert_eq!(
            ten.live_period * ten.live_epochs as u32,
            Duration::from_secs(10)
        );
    }
}
