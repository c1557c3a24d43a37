//! The closed-loop reader: one client issuing the fixed round-robin of
//! nine query kinds through a `QueryHandle`, its next query only after
//! the previous answer (choosing-metrics §5: callers that each wait for a
//! reply make a closed loop; client count 1).

use std::time::{Duration, Instant};

use seacma_daemon::{QueryHandle, UrlVerdict};
use seacma_detect::Verdict;

use crate::corpus::Pools;
use crate::metrics::KINDS;
use crate::stats::percentile;
use crate::trace::Tracer;

/// How long the reader warms up and measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub warmup: Duration,
    pub segment: Duration,
    pub segments: usize,
}

/// Segments a timed window is cut into. Host noise on a shared box comes
/// in regimes of seconds (memory-bound work moves ±30 % with the
/// neighbours), so the gated query metrics are taken from the least
/// disturbed segment, not from the window as a whole.
pub const SEGMENTS: usize = 10;

impl Window {
    /// `measure` split into [`SEGMENTS`] segments after `warmup`.
    pub fn new(warmup: Duration, measure: Duration) -> Self {
        Self {
            warmup,
            segment: measure / SEGMENTS as u32,
            segments: SEGMENTS,
        }
    }
}

/// What one reader saw.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Per-query latency of the timed window in issue order, nanoseconds.
    pub ns: Vec<u32>,
    /// Round-robin index of the first timed query (its kind is `first % 9`).
    pub first: u64,
    /// End of each segment as an index into `ns`.
    pub segment_ends: Vec<usize>,
    /// Queries per second of each timed segment.
    pub segment_qps: Vec<f64>,
    /// Queries issued, warm-up included.
    pub issued: u64,
    /// Answers outside their kind's class (`url_miss` not `Unknown`, …).
    pub violations: u64,
}

/// Issues query `i` of the round robin; `false` is a class violation.
/// The classes are the ones that must survive any later epoch of a live
/// writer: tracked domains stay tracked, assigned points stay assigned
/// (a `near_campaign` probe may be absorbed into `Campaign`), ledger ids
/// are never retired, and random 128-bit probes stay far from everything.
fn issue(handle: &QueryHandle, pools: &Pools, i: u64) -> bool {
    let slot = (i / 9) as usize;
    fn at<T>(pool: &[T], slot: usize) -> &T {
        &pool[slot % pool.len()]
    }
    match i % 9 {
        0 => handle.url(at::<String>(&pools.url_hit, slot)) != UrlVerdict::Unknown,
        1 => handle.url(at::<String>(&pools.url_miss, slot)) == UrlVerdict::Unknown,
        2 => handle.dhash(*at(&pools.dhash_near, slot)).is_some(),
        3 => handle.dhash(*at(&pools.dhash_far, slot)).is_none(),
        4 => handle.campaign(*at(&pools.campaign_ids, slot)).is_some(),
        5 => matches!(
            handle.detect(at(&pools.campaign_hit, slot)),
            Verdict::Campaign { .. }
        ),
        6 => matches!(
            handle.detect(at(&pools.near_campaign, slot)),
            Verdict::NearCampaign { .. } | Verdict::Campaign { .. }
        ),
        7 => matches!(
            handle.detect(at(&pools.suspicious, slot)),
            Verdict::Suspicious { .. }
        ),
        _ => matches!(
            handle.detect(at(&pools.benign, slot)),
            Verdict::Benign { .. }
        ),
    }
}

/// Runs the reader for `window`. One clock read per query: a query's
/// latency is the time since the previous answer, which is what a
/// closed-loop client observes (loop bookkeeping included).
pub fn run_reader(
    handle: &QueryHandle,
    pools: &Pools,
    window: Window,
    tracer: &mut Tracer,
) -> QueryStats {
    let mut stats = QueryStats::default();
    let mut i = 0u64;
    let warm_end = Instant::now() + window.warmup;
    let mut last = loop {
        stats.violations += u64::from(!issue(handle, pools, i));
        i += 1;
        let now = Instant::now();
        if now >= warm_end {
            break now;
        }
    };
    stats.first = i;
    for _ in 0..window.segments {
        let (seg_start, first) = (last, i);
        let seg_end = seg_start + window.segment;
        while last < seg_end {
            let ok = issue(handle, pools, i);
            let now = Instant::now();
            let ns = now.duration_since(last).as_nanos() as u64;
            stats.ns.push(ns.min(u64::from(u32::MAX)) as u32);
            stats.violations += u64::from(!ok);
            tracer.leaf("daemon", KINDS[(i % 9) as usize], last, ns);
            last = now;
            i += 1;
        }
        stats.segment_ends.push(stats.ns.len());
        stats
            .segment_qps
            .push((i - first) as f64 / last.duration_since(seg_start).as_secs_f64());
    }
    stats.issued = i;
    stats
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

impl QueryStats {
    /// Rate of the least disturbed segment, over all nine kinds.
    pub fn qps(&self) -> f64 {
        self.segment_qps.iter().copied().fold(0.0, f64::max)
    }

    /// `p`-th latency percentile of the least disturbed segment (the
    /// lowest of the per-segment percentiles), microseconds.
    pub fn quiet_us(&self, p: f64) -> f64 {
        let starts = std::iter::once(0).chain(self.segment_ends.iter().copied());
        let lowest = starts
            .zip(&self.segment_ends)
            .map(|(from, &to)| percentile(&sorted(self.ns[from..to].to_vec()), p))
            .min()
            .unwrap_or(0);
        f64::from(lowest) / 1e3
    }

    /// All timed latencies, ascending.
    pub fn sorted_all(&self) -> Vec<u32> {
        sorted(self.ns.clone())
    }

    /// One kind's timed latencies over the whole window, ascending.
    pub fn sorted_kind(&self, kind: usize) -> Vec<u32> {
        let skip = (kind + 9 - (self.first % 9) as usize) % 9;
        sorted(self.ns.iter().skip(skip).step_by(9).copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_numbers_come_from_the_quietest_segment() {
        // Two segments of nine queries each; the second one is disturbed.
        let quiet: Vec<u32> = (1..=9).collect();
        let noisy: Vec<u32> = (1..=9).map(|x| x * 10).collect();
        let stats = QueryStats {
            ns: quiet.iter().chain(&noisy).copied().collect(),
            first: 4,
            segment_ends: vec![9, 18],
            segment_qps: vec![900.0, 90.0],
            issued: 22,
            violations: 0,
        };
        assert_eq!(stats.qps(), 900.0);
        assert_eq!(stats.quiet_us(50.0), 0.005);
        assert_eq!(stats.quiet_us(100.0), 0.009);
        assert_eq!(stats.sorted_all().len(), 18);
        // The first timed query was round-robin index 4, so kind 4 owns
        // offsets 0 and 9, and kind 3 offsets 8 and 17.
        assert_eq!(stats.sorted_kind(4), [1, 10]);
        assert_eq!(stats.sorted_kind(3), [9, 90]);
        assert_eq!(stats.sorted_kind(5), [2, 20]);
    }
}
