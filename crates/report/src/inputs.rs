//! The one input bundle every [`Analysis`](crate::Analysis) computes from.
//!
//! [`ReportInputs`] decouples analyses from where their data came from:
//! the `seacma` binary fills it from a discovery phase or a full batch
//! [`PipelineRun`], the `seacmad` dashboard fills it from the daemon's live
//! `ReputationSnapshot`, and tests fill it by hand. Fields an origin
//! cannot provide stay empty and the corresponding analyses render their
//! deterministic "(no data)" row instead of failing.

use std::path::Path;

use seacma_core::ablation::{clustering_ablation, AblationRow};
use seacma_core::adblock::{adblock_experiment, AdblockResult, FilterList};
use seacma_core::invariants::{mine_world_patterns, MinedNetwork};
use seacma_core::parking::ParkingConfusion;
use seacma_core::milker::DomainDiscovery;
use seacma_core::report::{
    self as core_report, ClusterBreakdown, EthicsReport, FunnelRow, Table1Row, Table2Row,
    Table3Row, Table4Row,
};
use seacma_core::simweb::{SimTime, Url, World};
use seacma_core::tracker::LifeState;
use seacma_core::{DiscoveryOutput, Pipeline, PipelineRun};
use seacma_util::json::{self, Value};

/// One tracked campaign as the analyses see it: the lifecycle ledger's
/// record (or the daemon's served status) reduced to the numbers the
/// growth/lifetime histograms consume.
///
/// ```
/// use seacma_report::CampaignObs;
/// use seacma_core::tracker::LifeState;
///
/// let c = CampaignObs {
///     id: 3,
///     state: LifeState::Active,
///     qualified: true,
///     members: 41,
///     domains: 7,
///     birth_epoch: 2,
///     last_growth_epoch: 5,
/// };
/// assert_eq!(c.lifetime_epochs(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignObs {
    /// Stable ledger id.
    pub id: u32,
    /// Life state at observation.
    pub state: LifeState,
    /// Whether the domain count meets θc.
    pub qualified: bool,
    /// Screenshot count.
    pub members: u32,
    /// Distinct e2LD count.
    pub domains: u32,
    /// Epoch first observed.
    pub birth_epoch: u32,
    /// Last epoch the member count grew.
    pub last_growth_epoch: u32,
}

impl CampaignObs {
    /// Observed lifetime in epochs, birth through last growth, inclusive.
    pub fn lifetime_epochs(&self) -> u32 {
        self.last_growth_epoch - self.birth_epoch + 1
    }
}

/// One measurement harvested from the checked-in benchmark baseline
/// (`benchmark/results/baseline.json`) or the detection-quality eval
/// (`EVAL_detect.json`).
///
/// ```
/// use seacma_report::BenchPoint;
///
/// let p = BenchPoint {
///     series: "pipeline-paper".into(),
///     name: "pipeline_wall_s".into(),
///     metric: "s".into(),
///     value: 5.307,
/// };
/// assert_eq!(p.series, "pipeline-paper");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// The benchmark workload the point belongs to, or [`DETECT_SERIES`]
    /// for a detection-eval point.
    pub series: String,
    /// The end-to-end metric's name (e.g. `pipeline_wall_s`), or the eval
    /// split (`seen` / `held_out`).
    pub name: String,
    /// The metric's unit (e.g. `s`), or `precision` / `recall`.
    pub metric: String,
    /// The measured value (a benchmark metric's median over its runs).
    pub value: f64,
}

/// The [`BenchPoint::series`] of detection-eval points: the
/// online-detection analysis renders exactly these, the bench trajectory
/// everything else.
pub const DETECT_SERIES: &str = "detect";

/// Everything the standard analyses consume, already extracted from
/// pipeline / tracker / daemon / bench artifacts.
///
/// ```
/// use seacma_report::ReportInputs;
///
/// let inputs = ReportInputs::new(42);
/// assert_eq!(inputs.seed, 42);
/// assert!(inputs.campaigns.is_empty()); // analyses render "(no data)"
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportInputs {
    /// The world seed the measurement ran at (reproduction recipe).
    pub seed: u64,
    /// Closed epochs at observation (0 for a pure batch run).
    pub epoch: u32,
    /// Every tracked campaign's lifecycle observation.
    pub campaigns: Vec<CampaignObs>,
    /// Campaign-cluster sizes, descending.
    pub cluster_sizes: Vec<u32>,
    /// GSB listing lags over milked domains, fractional days, ascending.
    pub gsb_lag_days: Vec<f64>,
    /// Milked domains GSB never listed.
    pub gsb_unlisted: u64,
    /// Per-category campaign statistics (core's Table 1).
    pub campaign_stats: Vec<Table1Row>,
    /// Top categories of SEACMA-hosting publishers (core's Table 2).
    pub publisher_categories: Vec<Table2Row>,
    /// Per-ad-network attribution rows (core's Table 3).
    pub adnets: Vec<Table3Row>,
    /// Milked domains per category group, Total row last (core's Table 4).
    pub milked: Vec<Table4Row>,
    /// θc-passing clusters by label (§4.3).
    pub cluster_census: ClusterBreakdown,
    /// Click cost imposed on legitimate advertisers (§6).
    pub ethics: Option<EthicsReport>,
    /// Benchmark-baseline and detection-eval points ([`load_bench_dir`]).
    pub bench: Vec<BenchPoint>,
    /// Per-stage counts of the pipeline (Figure 2).
    pub funnel: Vec<FunnelRow>,
    /// Entries of the EasyList-like filter the §4.4 experiment ran against.
    pub adblock_filter_entries: u64,
    /// Per-seed-network ad-blocker coverage (§4.4).
    pub adblock: Vec<AdblockResult>,
    /// VirusTotal tallies over the milked files as `(what, files)`, the
    /// total first (§4.5).
    pub milked_files: Vec<(String, usize)>,
    /// Scam call-center numbers milked from tech-support pages, as
    /// `(number, first seen, campaign cluster)` (§4.3).
    pub scam_phones: Vec<(String, SimTime, usize)>,
    /// Survey-scam gateways milked from lottery pages (§4.3).
    pub survey_gateways: Vec<(Url, SimTime, usize)>,
    /// Pages whose push-notification permission the milker granted (§4.3).
    pub notification_grants: Vec<(Url, SimTime, usize)>,
    /// Protection windows gained over GSB per milked domain, days,
    /// ascending (§6).
    pub protection_window_days: Vec<f64>,
    /// Parked-cluster filter verdicts against the cluster labels.
    pub parking: ParkingConfusion,
    /// eps / θc / hash-width sweep over the crawl's screenshots.
    pub ablation: Vec<AblationRow>,
    /// The milked upstream URL of the Figure 4 timeline (empty: none).
    pub timeline_source: String,
    /// That source's discoveries, chronological (Figure 4).
    pub timeline: Vec<DomainDiscovery>,
    /// Mined per-network invariants and their pool check (stage ①).
    pub mined: Vec<MinedNetwork>,
}

impl ReportInputs {
    /// An empty bundle for the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Extracts what a discovery phase alone provides: the clustering's
    /// sizes and census, Tables 1–3 (Table 2 at the paper's top 20), the
    /// ethics cost and stages ①–⑤ of the funnel. The tracking, milking
    /// and side-experiment fields stay empty.
    pub fn from_discovery(world: &World, discovery: &DiscoveryOutput) -> Self {
        Self {
            cluster_sizes: core_report::cluster_sizes(discovery),
            campaign_stats: core_report::table1(world, discovery),
            publisher_categories: core_report::table2(world, discovery, 20),
            adnets: core_report::table3(world, discovery),
            cluster_census: ClusterBreakdown::over(&discovery.labels),
            ethics: Some(EthicsReport::over(discovery)),
            funnel: core_report::funnel_discovery(world, discovery),
            ..Self::new(world.seed())
        }
    }

    /// Extracts the full bundle from a completed batch measurement of
    /// `pipeline`: [`ReportInputs::from_discovery`] plus the ledger's
    /// campaign records, stages ⑥–⑦ of the funnel, the milking outcome's
    /// views (GSB lags, Table 4, files, feeds, protection windows, Figure 4
    /// timeline) and the side experiments over the world and the crawl
    /// (ad-blocker, invariant mining, parking filter, clustering ablation —
    /// the last re-renders and re-clusters every landing, which is why a
    /// discovery-only bundle skips them).
    pub fn from_run(pipeline: &Pipeline, run: &PipelineRun) -> Self {
        let (world, discovery) = (pipeline.world(), &run.discovery);
        let campaigns = run
            .tracking
            .tracker
            .ledger()
            .records()
            .iter()
            .map(|r| CampaignObs {
                id: r.id,
                state: r.state,
                qualified: r.campaign,
                members: r.members,
                domains: r.domains.len() as u32,
                birth_epoch: r.birth_epoch,
                last_growth_epoch: r.last_growth_epoch,
            })
            .collect();
        let (timeline_source, timeline) =
            core_report::milking_timeline(&discovery.labels, &run.sources, &run.milking)
                .map(|(src, found)| (src.url.to_string(), found.into_iter().cloned().collect()))
                .unwrap_or_default();
        let mut inputs = Self::from_discovery(world, discovery);
        inputs.funnel.extend(core_report::funnel_tracking(run));
        Self {
            epoch: run.tracking.tracker.epoch(),
            campaigns,
            gsb_lag_days: core_report::gsb_lag_days(&run.milking),
            gsb_unlisted: core_report::gsb_unlisted(&run.milking) as u64,
            milked: core_report::table4(&discovery.labels, &run.milking),
            milked_files: core_report::milked_file_tallies(&run.milking.files),
            scam_phones: run.milking.scam_phones.clone(),
            survey_gateways: run.milking.survey_gateways.clone(),
            notification_grants: run.milking.notification_grants.clone(),
            protection_window_days: core_report::protection_windows(
                &run.milking,
                pipeline.config().milking,
            ),
            timeline_source,
            timeline,
            adblock_filter_entries: FilterList::easylist(world).len() as u64,
            // 500 click URLs and 5 loader snippets sampled per seed network.
            adblock: adblock_experiment(world, SimTime::EPOCH, 500),
            mined: mine_world_patterns(world, 5),
            parking: ParkingConfusion::over(world, discovery),
            ablation: clustering_ablation(world, discovery),
            ..inputs
        }
    }

    /// Loads the checked-in measurements of the checkout rooted at `dir`
    /// into [`ReportInputs::bench`] (see [`load_bench_dir`]). Missing
    /// files load zero points.
    pub fn with_bench_dir(mut self, dir: &Path) -> Self {
        self.bench = load_bench_dir(dir);
        self
    }
}

/// Harvests the checked-in measurements of the repository checkout rooted
/// at `dir`, deterministically given the same files:
///
/// * `benchmark/results/baseline.json` (schema
///   `seacma-benchmark/results/1`, written by `benchmark/run.sh`) → one
///   point per workload × end-to-end metric in file order, carrying the
///   metric's unit and its median over the runs;
/// * `EVAL_detect.json` (written by `seacma eval --out`) → one
///   `precision` and one `recall` point per split, series
///   [`DETECT_SERIES`].
///
/// A missing, unreadable or differently-shaped file contributes nothing —
/// a report must render from whatever artifacts exist.
pub fn load_bench_dir(dir: &Path) -> Vec<BenchPoint> {
    let read = |rel: &str| json::parse(&std::fs::read_to_string(dir.join(rel)).ok()?).ok();
    let mut points = Vec::new();

    let baseline = read("benchmark/results/baseline.json")
        .filter(|v| v.get("schema").and_then(Value::as_str) == Some("seacma-benchmark/results/1"));
    if let Some(Value::Arr(workloads)) = baseline.as_ref().and_then(|v| v.get("workloads")) {
        for w in workloads {
            let (Some(workload), Some(Value::Obj(metrics))) =
                (w.get("name").and_then(Value::as_str), w.get("metrics"))
            else {
                continue;
            };
            for (metric, stats) in metrics {
                let (Some(unit), Some(median)) = (
                    stats.get("unit").and_then(Value::as_str),
                    stats.get("median").and_then(Value::as_f64),
                ) else {
                    continue;
                };
                points.push(BenchPoint {
                    series: workload.to_string(),
                    name: metric.clone(),
                    metric: unit.to_string(),
                    value: median,
                });
            }
        }
    }

    let eval = read("EVAL_detect.json");
    if let Some(Value::Obj(splits)) = eval.as_ref().and_then(|v| v.get("eval")) {
        for (split, stats) in splits {
            for metric in ["precision", "recall"] {
                if let Some(v) = stats.get(metric).and_then(Value::as_f64) {
                    points.push(BenchPoint {
                        series: DETECT_SERIES.to_string(),
                        name: split.clone(),
                        metric: metric.to_string(),
                        value: v,
                    });
                }
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_dir_loads_sorted_and_tolerates_absence() {
        use crate::{Analysis, BenchTrajectory, OnlineDetection};
        // Each row of an analysis over `dir`'s files, cells joined by spaces.
        let rows = |a: &dyn Analysis, dir: &Path| -> Vec<String> {
            a.compute(&ReportInputs::new(1).with_bench_dir(dir))
                .rows()
                .iter()
                .map(|r| r.iter().map(|c| c.render()).collect::<Vec<_>>().join(" "))
                .collect()
        };

        // No files at all: no points, a "(no data)" row in both sections.
        let missing = Path::new("/nonexistent/dir");
        assert!(load_bench_dir(missing).is_empty());
        assert_eq!(rows(&BenchTrajectory, missing), ["(no data) - - -"]);
        assert_eq!(rows(&OnlineDetection, missing), ["(no data) - -"]);

        // The baseline alone: exactly one point per workload × metric, in
        // file order (neither workloads nor metrics get sorted); the
        // detection section still has no data.
        let dir = std::env::temp_dir()
            .join(format!("seacma-bench-inputs-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("benchmark/results")).unwrap();
        std::fs::write(
            dir.join("benchmark/results/baseline.json"),
            r#"{"schema": "seacma-benchmark/results/1", "seed": 7, "workloads": [
                {"name": "serve-static", "reps": 3, "metrics": {
                    "query_qps": {"unit": "queries/s", "median": 9000.5, "min": 1.0, "values": [1.0]},
                    "setup_s": {"unit": "s", "median": 0.25}}},
                {"name": "pipeline-paper", "metrics": {
                    "setup_s": {"unit": "s", "median": 0.5},
                    "query_qps": {"unit": "queries/s", "median": 10.0}}}
            ]}"#,
        )
        .unwrap();
        let trajectory = [
            "serve-static query_qps queries/s 9000.500",
            "serve-static setup_s s 0.250",
            "pipeline-paper setup_s s 0.500",
            "pipeline-paper query_qps queries/s 10.000",
        ];
        assert_eq!(load_bench_dir(&dir).len(), 4);
        assert_eq!(rows(&BenchTrajectory, &dir), trajectory);
        assert_eq!(rows(&OnlineDetection, &dir), ["(no data) - -"]);

        // Plus the eval: its precision/recall points are what
        // online-detection renders, and the trajectory does not grow.
        std::fs::write(
            dir.join("EVAL_detect.json"),
            r#"{"config": {"publishers": 2000}, "eval": {
                "seen": {"precision": 1.0, "recall": 0.6410, "attacks": 39},
                "held_out": {"precision": 0.5, "recall": 0.4744}
            }}"#,
        )
        .unwrap();
        let detection = [
            "precision seen 1.0000",
            "recall seen 0.6410",
            "precision held_out 0.5000",
            "recall held_out 0.4744",
        ];
        assert_eq!(load_bench_dir(&dir).len(), 4 + 4);
        assert_eq!(rows(&BenchTrajectory, &dir), trajectory);
        assert_eq!(rows(&OnlineDetection, &dir), detection);

        // A baseline in some other schema contributes nothing.
        std::fs::write(dir.join("benchmark/results/baseline.json"), r#"{"schema": "other/2"}"#)
            .unwrap();
        assert_eq!(rows(&BenchTrajectory, &dir), ["(no data) - - -"]);
        assert_eq!(rows(&OnlineDetection, &dir), detection);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
