//! The six shipped analyses.
//!
//! Each one is a zero-sized [`Analysis`] implementation pairing a paper
//! view with a machine-checkable table:
//!
//! * [`CampaignGrowth`] — lifetime histogram with growth stats (§5).
//! * [`BlacklistLag`] — GSB detection-lag CDF over milked domains (§4.2).
//! * [`AdnetAttribution`] — per-ad-network SE attribution (Table 3).
//! * [`ClusterSizeDistribution`] — campaign cluster sizes (§4.3).
//! * [`BenchTrajectory`] — the benchmark's checked-in baseline
//!   (`benchmark/results/baseline.json`).
//! * [`OnlineDetection`] — detector precision/recall from
//!   `EVAL_detect.json` (DESIGN.md §2j).

use crate::analysis::Analysis;
use crate::inputs::{ReportInputs, DETECT_SERIES};
use crate::table::{Cell, Table};

/// Pushes the canonical "(no data)" row: the first column carries the
/// marker, every other column a dash. Analyses emit it instead of an
/// empty table so reports over partial inputs stay byte-stable and
/// grep-able.
fn push_no_data(t: &mut Table) {
    let mut row = vec![Cell::text("(no data)")];
    row.resize(t.columns().len(), Cell::text("-"));
    t.push(row);
}

/// Inclusive histogram buckets shared by the growth and cluster-size
/// analyses. The last bound is open-ended.
const BUCKETS: [(u32, u32); 6] = [
    (1, 1),
    (2, 2),
    (3, 4),
    (5, 8),
    (9, 16),
    (17, u32::MAX),
];

fn bucket_label(lo: u32, hi: u32) -> String {
    if hi == u32::MAX {
        format!("{lo}+")
    } else if lo == hi {
        lo.to_string()
    } else {
        format!("{lo}-{hi}")
    }
}

/// Campaign growth & lifetime histogram: how long campaigns keep growing
/// (in tracking epochs) and how big they get while they do. Computed over
/// the lifecycle ledger's records — the paper's §5 longitudinal view.
///
/// ```
/// use seacma_report::{Analysis, CampaignGrowth, ReportInputs};
///
/// let t = CampaignGrowth.compute(&ReportInputs::new(1));
/// assert_eq!(t.id(), "campaign-growth");
/// assert_eq!(t.rows()[0][0].render(), "(no data)");
/// ```
pub struct CampaignGrowth;

impl Analysis for CampaignGrowth {
    fn id(&self) -> &'static str {
        "campaign-growth"
    }
    fn title(&self) -> &'static str {
        "Campaign growth & lifetime"
    }
    fn note(&self) -> &'static str {
        "Lifetime = epochs from birth through the last growth epoch, inclusive, per \
         lifecycle-ledger record (merged identities excluded). Members/domains are the \
         campaign's final size — the paper's §5 growth-and-death view."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["lifetime (epochs)", "campaigns", "qualified", "mean members", "max members", "mean domains"],
        );
        let live: Vec<_> = inputs
            .campaigns
            .iter()
            .filter(|c| c.state != seacma_core::tracker::LifeState::Merged)
            .collect();
        if live.is_empty() {
            push_no_data(&mut t);
            return t;
        }
        for (lo, hi) in BUCKETS {
            let in_bucket: Vec<_> =
                live.iter().filter(|c| (lo..=hi).contains(&c.lifetime_epochs())).collect();
            if in_bucket.is_empty() {
                continue;
            }
            let n = in_bucket.len() as u64;
            let members: u64 = in_bucket.iter().map(|c| u64::from(c.members)).sum();
            let domains: u64 = in_bucket.iter().map(|c| u64::from(c.domains)).sum();
            t.push([
                Cell::text(bucket_label(lo, hi)),
                Cell::UInt(n),
                Cell::UInt(in_bucket.iter().filter(|c| c.qualified).count() as u64),
                Cell::fixed(members as f64 / n as f64, 1),
                Cell::UInt(in_bucket.iter().map(|c| u64::from(c.members)).max().unwrap_or(0)),
                Cell::fixed(domains as f64 / n as f64, 1),
            ]);
        }
        t
    }
}

/// Blacklist-lag CDF: how far Google Safe Browsing trails the milker on
/// freshly rotated attack domains (§4.2's headline gap).
///
/// ```
/// use seacma_report::{Analysis, BlacklistLag, ReportInputs};
///
/// let mut inputs = ReportInputs::new(1);
/// inputs.gsb_lag_days = vec![0.5, 2.0, 9.0];
/// inputs.gsb_unlisted = 7;
/// let t = BlacklistLag.compute(&inputs);
/// let last = t.rows().last().unwrap();
/// assert_eq!(last[1].render(), "10"); // total = listed + never-listed
/// ```
pub struct BlacklistLag;

impl Analysis for BlacklistLag {
    fn id(&self) -> &'static str {
        "blacklist-lag"
    }
    fn title(&self) -> &'static str {
        "Blacklist (GSB) detection-lag CDF"
    }
    fn note(&self) -> &'static str {
        "Lag = GSB listing time minus the milker's first observation, per milked attack \
         domain. The cumulative share is over ALL milked domains, so the gap to 100% at \
         the bottom row is GSB's blind spot."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t =
            Table::new(self.id(), self.title(), &["GSB lag", "domains", "cumulative %"]);
        let total = inputs.gsb_lag_days.len() as u64 + inputs.gsb_unlisted;
        if total == 0 {
            push_no_data(&mut t);
            return t;
        }
        let pct = |n: u64| 100.0 * n as f64 / total as f64;
        for bound in [1.0, 3.0, 7.0, 14.0, 30.0, 60.0] {
            let n = inputs.gsb_lag_days.iter().filter(|&&d| d <= bound).count() as u64;
            t.push([
                Cell::text(format!("<= {bound:.0} days")),
                Cell::UInt(n),
                Cell::fixed(pct(n), 1),
            ]);
        }
        let listed = inputs.gsb_lag_days.len() as u64;
        t.push([Cell::text("ever listed"), Cell::UInt(listed), Cell::fixed(pct(listed), 1)]);
        t.push([Cell::text("never listed"), Cell::UInt(inputs.gsb_unlisted), Cell::fixed(pct(inputs.gsb_unlisted), 1)]);
        t.push([Cell::text("total milked domains"), Cell::UInt(total), Cell::fixed(100.0, 1)]);
        t
    }
}

/// Per-ad-network attribution: landing pages and SE attack pages reached
/// through each seed network (the paper's Table 3, served as an analysis
/// section).
///
/// ```
/// use seacma_report::{AdnetAttribution, Analysis, ReportInputs};
///
/// let t = AdnetAttribution.compute(&ReportInputs::new(1));
/// assert_eq!(t.id(), "adnet-attribution");
/// ```
pub struct AdnetAttribution;

impl Analysis for AdnetAttribution {
    fn id(&self) -> &'static str {
        "adnet-attribution"
    }
    fn title(&self) -> &'static str {
        "Ad-network attribution"
    }
    fn note(&self) -> &'static str {
        "Attribution of every crawled landing to a seed ad network via invariant URL \
         patterns over the ad-loading chain; the Unknown row feeds the new-network \
         discovery loop (paper Table 3)."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["ad network", "net domains", "landing pages", "SE pages", "% SE"],
        );
        if inputs.adnets.is_empty() {
            push_no_data(&mut t);
            return t;
        }
        for r in &inputs.adnets {
            t.push([
                Cell::text(r.network.clone()),
                Cell::UInt(r.network_domains as u64),
                Cell::UInt(r.landing_pages as u64),
                Cell::UInt(r.se_pages as u64),
                Cell::fixed(r.se_pct, 2),
            ]);
        }
        t
    }
}

/// Cluster-size distribution over the θc-surviving campaign clusters —
/// the §4.3 "how big is a campaign" view and the dashboard's shape-of-
/// the-index table.
///
/// ```
/// use seacma_report::{Analysis, ClusterSizeDistribution, ReportInputs};
///
/// let mut inputs = ReportInputs::new(1);
/// inputs.cluster_sizes = vec![20, 6, 6, 3];
/// let t = ClusterSizeDistribution.compute(&inputs);
/// let total = t.rows().last().unwrap();
/// assert_eq!(total[1].render(), "4");
/// ```
pub struct ClusterSizeDistribution;

impl Analysis for ClusterSizeDistribution {
    fn id(&self) -> &'static str {
        "cluster-size-distribution"
    }
    fn title(&self) -> &'static str {
        "Cluster-size distribution"
    }
    fn note(&self) -> &'static str {
        "Screenshot counts per campaign cluster after the θc domain filter (§4.3). \
         DBSCAN MinPts bounds the smallest possible cluster."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t =
            Table::new(self.id(), self.title(), &["cluster size", "clusters", "share %"]);
        if inputs.cluster_sizes.is_empty() {
            push_no_data(&mut t);
            return t;
        }
        let total = inputs.cluster_sizes.len() as u64;
        for (lo, hi) in BUCKETS {
            let n = inputs.cluster_sizes.iter().filter(|&&s| (lo..=hi).contains(&s)).count()
                as u64;
            if n == 0 {
                continue;
            }
            t.push([
                Cell::text(bucket_label(lo, hi)),
                Cell::UInt(n),
                Cell::fixed(100.0 * n as f64 / total as f64, 1),
            ]);
        }
        t.push([Cell::text("total clusters"), Cell::UInt(total), Cell::fixed(100.0, 1)]);
        t
    }
}

/// Bench trajectory: the benchmark's checked-in baseline
/// (`benchmark/results/baseline.json`) rendered as one table — every
/// workload × end-to-end metric median — so the report carries the repo's
/// own performance story alongside the paper's.
///
/// ```
/// use seacma_report::{Analysis, BenchPoint, BenchTrajectory, ReportInputs};
///
/// let mut inputs = ReportInputs::new(1);
/// inputs.bench.push(BenchPoint {
///     series: "pipeline-paper".into(),
///     name: "pipeline_wall_s".into(),
///     metric: "s".into(),
///     value: 5.3069,
/// });
/// let t = BenchTrajectory.compute(&inputs);
/// assert_eq!(t.rows()[0][3].render(), "5.307");
/// ```
pub struct BenchTrajectory;

impl Analysis for BenchTrajectory {
    fn id(&self) -> &'static str {
        "bench-trajectory"
    }
    fn title(&self) -> &'static str {
        "Bench trajectory"
    }
    fn note(&self) -> &'static str {
        "Medians of the nine end-to-end metrics on each of the five benchmark workloads, \
         from the checked-in benchmark/results/baseline.json (regenerate with \
         benchmark/run.sh; host facts and per-layer numbers live beside it)."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["workload", "metric", "unit", "median"],
        );
        let baseline: Vec<_> =
            inputs.bench.iter().filter(|p| p.series != DETECT_SERIES).collect();
        if baseline.is_empty() {
            push_no_data(&mut t);
            return t;
        }
        for p in baseline {
            t.push([
                Cell::text(p.series.clone()),
                Cell::text(p.name.clone()),
                Cell::text(p.metric.clone()),
                Cell::fixed(p.value, 3),
            ]);
        }
        t
    }
}

/// Online-detection quality: the `seacma-detect` evaluation from
/// `EVAL_detect.json` — precision/recall on the seen and held-out
/// campaign splits. The held-out rows carry the generalization claim:
/// campaigns the detector never indexed, caught only by radius escalation
/// and the feature score.
///
/// ```
/// use seacma_report::{Analysis, BenchPoint, OnlineDetection, ReportInputs};
///
/// let mut inputs = ReportInputs::new(1);
/// let t = OnlineDetection.compute(&inputs);
/// assert_eq!(t.rows()[0][0].render(), "(no data)");
///
/// inputs.bench.push(BenchPoint {
///     series: "detect".into(),
///     name: "held_out".into(),
///     metric: "recall".into(),
///     value: 0.4744,
/// });
/// let t = OnlineDetection.compute(&inputs);
/// assert_eq!(t.rows()[0][2].render(), "0.4744");
/// ```
pub struct OnlineDetection;

impl Analysis for OnlineDetection {
    fn id(&self) -> &'static str {
        "online-detection"
    }
    fn title(&self) -> &'static str {
        "Online detection"
    }
    fn note(&self) -> &'static str {
        "Per-page-load detector evaluation from EVAL_detect.json: precision/recall on \
         the seen split (campaigns in the live index) and the held-out split (campaigns \
         withheld from the feed — generalization via radius escalation and the \
         structural feature score). Serving latency per verdict kind is a benchmark \
         per-layer metric (benchmark/results/trace-summary.json)."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["metric", "split", "value"],
        );
        let detect: Vec<_> =
            inputs.bench.iter().filter(|p| p.series == DETECT_SERIES).collect();
        if detect.is_empty() {
            push_no_data(&mut t);
            return t;
        }
        for p in detect {
            t.push([
                Cell::text(p.metric.clone()),
                Cell::text(p.name.clone()),
                Cell::fixed(p.value, 4),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_core::tracker::LifeState;

    fn campaign(lifetime: u32, members: u32, state: LifeState) -> crate::CampaignObs {
        crate::CampaignObs {
            id: 0,
            state,
            qualified: true,
            members,
            domains: 5,
            birth_epoch: 1,
            last_growth_epoch: lifetime, // birth 1 → lifetime epochs = lifetime
        }
    }

    #[test]
    fn growth_excludes_merged_and_buckets_lifetimes() {
        let mut inputs = ReportInputs::new(1);
        inputs.campaigns = vec![
            campaign(1, 10, LifeState::Active),
            campaign(3, 20, LifeState::Dormant),
            campaign(3, 40, LifeState::Dead),
            campaign(9, 99, LifeState::Merged),
        ];
        let t = CampaignGrowth.compute(&inputs);
        // Buckets present: "1" (1 campaign) and "3-4" (2 campaigns).
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[1][1].render(), "2");
        assert_eq!(t.rows()[1][3].render(), "30.0");
        assert_eq!(t.rows()[1][4].render(), "40");
    }

    #[test]
    fn lag_cdf_is_monotone() {
        let mut inputs = ReportInputs::new(1);
        inputs.gsb_lag_days = vec![0.2, 0.9, 5.0, 12.0, 40.0];
        inputs.gsb_unlisted = 5;
        let t = BlacklistLag.compute(&inputs);
        let cdf: Vec<f64> = t
            .rows()
            .iter()
            .take(6)
            .map(|r| r[2].render().parse::<f64>().unwrap())
            .collect();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "{cdf:?}");
        assert_eq!(t.rows()[6][1].render(), "5"); // ever listed
        assert_eq!(t.rows()[7][1].render(), "5"); // never listed
    }

    #[test]
    fn all_analyses_handle_empty_inputs() {
        let inputs = ReportInputs::new(0);
        for a in crate::standard_analyses() {
            let t = a.compute(&inputs);
            assert!(!t.rows().is_empty(), "{} must render a no-data row", a.id());
            assert_eq!(t.rows()[0][0].render(), "(no data)", "{}", a.id());
        }
    }
}
