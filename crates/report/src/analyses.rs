//! The twenty shipped analyses.
//!
//! Each one is a zero-sized [`Analysis`] implementation pairing a paper
//! view with a machine-checkable table:
//!
//! * [`CampaignStatistics`] — SE campaign statistics per category (Table 1).
//! * [`PublisherCategories`] — categories of SEACMA publishers (Table 2).
//! * [`AdnetAttribution`] — per-ad-network SE attribution (Table 3).
//! * [`MilkedDomains`] — milked domains vs. GSB per category (Table 4).
//! * [`ClusterCensus`] — θc-passing clusters by label (§4.3).
//! * [`EthicsCost`] — click cost to legitimate advertisers (§6).
//! * [`CampaignGrowth`] — lifetime histogram with growth stats (§5).
//! * [`BlacklistLag`] — GSB detection-lag CDF over milked domains (§4.2).
//! * [`ClusterSizeDistribution`] — campaign cluster sizes (§4.3).
//! * [`BenchTrajectory`] — the benchmark's checked-in baseline
//!   (`benchmark/results/baseline.json`).
//! * [`OnlineDetection`] — detector precision/recall from
//!   `EVAL_detect.json` (DESIGN.md §2j).
//! * [`PipelineFunnel`] — per-stage counts of the pipeline (Figure 2).
//! * [`AdblockCoverage`] — the ad-blocker experiment (§4.4).
//! * [`MilkedFileScans`] — VirusTotal view of the milked files (§4.5).
//! * [`MilkedFeeds`] — phone / gateway / notification-grant feeds (§4.3).
//! * [`BlacklistEnrichment`] — protection windows gained over GSB (§6).
//! * [`ParkingFilter`] — the automated parked-cluster filter the paper
//!   leaves to future work, against the cluster labels.
//! * [`ClusteringAblation`] — eps / θc / hash-width sweep.
//! * [`SourceTimeline`] — one source's domain rotations (Figure 4).
//! * [`InvariantMining`] — automatic stage-① invariants and their pool check.

use std::collections::BTreeSet;

use seacma_core::report::pct;

use crate::analysis::Analysis;
use crate::inputs::{ReportInputs, DETECT_SERIES};
use crate::table::{Cell, Table};

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

/// Paper Table 1: SE attacks, attack domains, campaigns and GSB detection
/// rates per SE category, with a TOTAL row over the count columns.
pub struct CampaignStatistics;

impl Analysis for CampaignStatistics {
    fn id(&self) -> &'static str {
        "campaign-statistics"
    }
    fn title(&self) -> &'static str {
        "Table 1: SE ad campaign statistics"
    }
    fn note(&self) -> &'static str {
        "GSB % = share of attack domains (of campaigns with >= 1 such domain) GSB listed \
         within 12 days of the crawl. Paper, 70,541 publishers — counts scale with \
         --publishers, shapes should match:\n\
         \x20 Fake Software   16802 attacks  2370 dom  52 camp  GSB 15.4% dom / 73.1% camp\n\
         \x20 Registration     2909 attacks   474 dom  36 camp  GSB  0.0% dom /  0.0% camp\n\
         \x20 Lottery/Gift     4297 attacks    50 dom   9 camp  GSB 18.0% dom / 66.7% camp\n\
         \x20 Chrome Notif.    3419 attacks   102 dom   3 camp  GSB  0.0% dom /  0.0% camp\n\
         \x20 Scareware        1032 attacks    71 dom   5 camp  GSB  0.0% dom /  0.0% camp\n\
         \x20 Tech Support      464 attacks    74 dom   3 camp  GSB  1.4% dom / 33.3% camp"
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["category", "SE attacks", "attack domains", "campaigns", "GSB % dom", "GSB % camp"],
        );
        let rows = &inputs.campaign_stats;
        if rows.is_empty() {
            return t.or_no_data();
        }
        for r in rows {
            t.push([
                Cell::text(r.category.name()),
                Cell::UInt(r.se_attacks as u64),
                Cell::UInt(r.attack_domains as u64),
                Cell::UInt(r.campaigns as u64),
                Cell::fixed(r.gsb_domain_pct, 1),
                Cell::fixed(r.gsb_campaign_pct, 1),
            ]);
        }
        t.push([
            Cell::text("TOTAL"),
            Cell::UInt(rows.iter().map(|r| r.se_attacks as u64).sum()),
            Cell::UInt(rows.iter().map(|r| r.attack_domains as u64).sum()),
            Cell::UInt(rows.iter().map(|r| r.campaigns as u64).sum()),
            Cell::Absent,
            Cell::Absent,
        ]);
        t
    }
}

/// Paper Table 2: the top categories of publisher sites that hosted at
/// least one SE attack landing.
pub struct PublisherCategories;

impl Analysis for PublisherCategories {
    fn id(&self) -> &'static str {
        "publisher-categories"
    }
    fn title(&self) -> &'static str {
        "Table 2: categories of SEACMA ad publisher sites"
    }
    fn note(&self) -> &'static str {
        "Publishers whose clicks landed on a campaign-cluster member, by site category, \
         top 20. Paper:\n\
         \x20 Suspicious 15.81%  Pornography 13.52%  Web Hosting 8.85%  Entertainment 6.57%\n\
         \x20 Personal Sites 6.46%  Malicious Sources 6.25%  Dynamic DNS 4.60%  Technology 4.02%\n\
         \x20 (20 categories total; 52 publishers in the top-10k popularity, 4 in the top-1k)"
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t =
            Table::new(self.id(), self.title(), &["category", "publisher domains", "% of total"]);
        for r in &inputs.publisher_categories {
            t.push([
                Cell::text(r.category.name()),
                Cell::UInt(r.publishers as u64),
                Cell::fixed(r.pct, 2),
            ]);
        }
        t.or_no_data()
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
        t.or_no_data()
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
            return t.or_no_data();
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

/// Paper Table 3: landing pages and SE attack pages reached through each
/// seed ad network. The Unknown row counts SE attacks no invariant
/// matched; it has no network, so its other cells are [`Cell::Absent`].
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
        "Table 3: SE attacks from each ad network"
    }
    fn note(&self) -> &'static str {
        "Attribution of every crawled landing to a seed ad network via invariant URL \
         patterns over the ad-loading chain; the Unknown row feeds the new-network \
         discovery loop. Paper (net domains, landing pages, SE pages):\n\
         \x20 RevenueHits 517, 15635, 3075 (19.67%) | AdSterra 578, 15102, 7644 (50.62%)\n\
         \x20 PopCash 2, 9734, 6256 (64.27%) | Propeller 4, 8206, 3470 (42.29%) | PopAds 3, 4658, 873 (18.74%)\n\
         \x20 Clickadu 10, 2814, 848 (30.14%) | AdCash 14, 1698, 955 (56.24%) | HilltopAds 46, 1198, 77 (6.43%)\n\
         \x20 PopMyAds 1, 1194, 103 (8.63%) | AdMaven 39, 496, 122 (24.60%) | Clicksor 4, 276, 12 (4.35%)\n\
         \x20 Unknown: 5488 SE attacks (19%); 3 networks with >50% SE ads"
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["ad network", "net domains", "landing pages", "SE pages", "% SE"],
        );
        for r in &inputs.adnets {
            let of_network = |c: Cell| if r.network == "Unknown" { Cell::Absent } else { c };
            t.push([
                Cell::text(r.network.clone()),
                of_network(Cell::UInt(r.network_domains as u64)),
                of_network(Cell::UInt(r.landing_pages as u64)),
                Cell::UInt(r.se_pages as u64),
                of_network(Cell::fixed(r.se_pct, 2)),
            ]);
        }
        t.or_no_data()
    }
}

/// Paper Table 4: new attack domains the milker discovered per category
/// group, and the share GSB listed at discovery vs. after all lookups.
pub struct MilkedDomains;

impl Analysis for MilkedDomains {
    fn id(&self) -> &'static str {
        "milked-domains"
    }
    fn title(&self) -> &'static str {
        "Table 4: tracking SEACMA campaigns (milking)"
    }
    fn note(&self) -> &'static str {
        "GSB-init = listed when the milker first saw the domain; GSB-final = listed by \
         the end of all lookups. Paper (505 milking sources, >1M sessions over 14 days; \
         GSB >7 days slower than milking):\n\
         \x20 Fake Software 1665 dom, 1.28% -> 18.59% | Lottery/Gift 258, 2.99% -> 4.70%\n\
         \x20 Chrome Notifications 45, 0% -> 2.27% | Registration 47, 0% -> 0%\n\
         \x20 Tech Support/Scareware 27, 3.70% -> 55.56% | Total 2042, 1.42% -> 16.21%"
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["SE category", "domains", "GSB-init %", "GSB-final %"],
        );
        for r in &inputs.milked {
            t.push([
                Cell::text(r.group.clone()),
                Cell::UInt(r.domains as u64),
                Cell::fixed(r.gsb_init_pct, 2),
                Cell::fixed(r.gsb_final_pct, 2),
            ]);
        }
        t.or_no_data()
    }
}

/// The §4.3 cluster census: how many θc-passing clusters are SE campaigns
/// and how many are each kind of benign confounder.
///
/// ```
/// use seacma_report::{Analysis, ClusterCensus, ReportInputs};
///
/// let mut inputs = ReportInputs::new(1);
/// inputs.cluster_census.se_campaigns = 108;
/// inputs.cluster_census.parked = 11;
/// let t = ClusterCensus.compute(&inputs);
/// assert_eq!(t.rows().last().unwrap()[1].render(), "119");
/// ```
pub struct ClusterCensus;

impl Analysis for ClusterCensus {
    fn id(&self) -> &'static str {
        "cluster-census"
    }
    fn title(&self) -> &'static str {
        "Cluster census (§4.3)"
    }
    fn note(&self) -> &'static str {
        "Labels of the clusters that pass the θc domain filter. Paper: 130 clusters -> \
         108 SEACMA campaigns + 22 benign (11 parked/inaccessible, 6 stock adult images, \
         4 URL shorteners, 1 spurious)."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(self.id(), self.title(), &["cluster kind", "clusters"]);
        let b = &inputs.cluster_census;
        if b.total() == 0 {
            return t.or_no_data();
        }
        for (kind, n) in [
            ("SEACMA campaigns", b.se_campaigns),
            ("parked domains", b.parked),
            ("stock adult images", b.stock),
            ("URL shorteners", b.shortener),
            ("spurious (load error)", b.spurious),
            ("other benign", b.other),
            ("θc-passing total", b.total()),
        ] {
            t.push([Cell::text(kind), Cell::UInt(n as u64)]);
        }
        t
    }
}

/// The §6 ethics estimate: what the crawler's automated clicks cost the
/// legitimate advertisers they landed on.
pub struct EthicsCost;

impl Analysis for EthicsCost {
    fn id(&self) -> &'static str {
        "ethics-cost"
    }
    fn title(&self) -> &'static str {
        "Cost to legitimate advertisers (§6)"
    }
    fn note(&self) -> &'static str {
        "Clicks that landed on non-SE advertiser domains, priced at the assumed CPM. \
         Paper: worst case one legitimate page opened 1,209 times ≈ $4.8 at $4 CPM; \
         average ≈ 9 clicks per legitimate domain ≈ $0.04."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(self.id(), self.title(), &["quantity", "value"]);
        let Some(e) = &inputs.ethics else {
            return t.or_no_data();
        };
        let (worst_domain, worst_clicks) = match &e.worst {
            Some((domain, n)) => (Cell::text(domain.clone()), Cell::UInt(*n as u64)),
            None => (Cell::Absent, Cell::Absent),
        };
        t.push([Cell::text("legitimate (non-SE) domains hit"), Cell::UInt(e.legit_domains as u64)]);
        t.push([Cell::text("clicks landing on them"), Cell::UInt(e.legit_clicks as u64)]);
        t.push([Cell::text("mean clicks per legit domain"), Cell::fixed(e.mean_clicks, 1)]);
        t.push([Cell::text("worst-case domain"), worst_domain]);
        t.push([Cell::text("worst-case clicks"), worst_clicks]);
        t.push([Cell::text("assumed CPM (USD)"), Cell::fixed(e.cpm_usd, 2)]);
        t.push([Cell::text("mean cost per domain (USD)"), Cell::fixed(e.mean_cost_usd(), 3)]);
        t.push([Cell::text("worst-case cost (USD)"), Cell::fixed(e.worst_cost_usd(), 2)]);
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
            return t.or_no_data();
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
        for p in baseline {
            t.push([
                Cell::text(p.series.clone()),
                Cell::text(p.name.clone()),
                Cell::text(p.metric.clone()),
                Cell::fixed(p.value, 3),
            ]);
        }
        t.or_no_data()
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
        for p in detect {
            t.push([
                Cell::text(p.metric.clone()),
                Cell::text(p.name.clone()),
                Cell::fixed(p.value, 4),
            ]);
        }
        t.or_no_data()
    }
}

/// Figure 2 as numbers: what each pipeline stage took in and put out.
pub struct PipelineFunnel;

impl Analysis for PipelineFunnel {
    fn id(&self) -> &'static str {
        "pipeline-funnel"
    }
    fn title(&self) -> &'static str {
        "Figure 2: pipeline funnel"
    }
    fn note(&self) -> &'static str {
        "Counts per stage, by the paper's circled stage numbers (④⑤ = screenshot hashing + \
         clustering); a discovery-only run stops after ④⑤. Paper: 93,427 pool / 70,541 \
         visited / 39,171 with landings / ~199,400 landings; 130 clusters -> 108 campaigns; \
         505 milking sources; +8,981 publishers from 3 new networks."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(self.id(), self.title(), &["stage", "quantity", "count"]);
        for r in &inputs.funnel {
            t.push([Cell::text(r.stage.clone()), Cell::text(r.quantity.clone()), Cell::UInt(r.count)]);
        }
        t.or_no_data()
    }
}

/// The §4.4 ad-blocker experiment: which seed networks' ads a domain
/// filter list stops.
pub struct AdblockCoverage;

impl Analysis for AdblockCoverage {
    fn id(&self) -> &'static str {
        "adblock"
    }
    fn title(&self) -> &'static str {
        "Ad-blocker experiment (§4.4)"
    }
    fn note(&self) -> &'static str {
        "Latest Chrome + AdBlock Plus against the seed networks: the share of sampled live \
         click URLs an EasyList-like domain filter blocks; BLOCKED = effectively all \
         (> 95%) of a network's ads stop displaying. Paper: only Clicksor's ads stopped \
         displaying; the other 10 networks kept serving malicious ads (rotating code \
         domains stay ahead of the filter lists)."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t =
            Table::new(self.id(), self.title(), &["network", "sampled", "% blocked", "verdict"]);
        let rows = &inputs.adblock;
        if rows.is_empty() {
            return t.or_no_data();
        }
        for r in rows {
            let verdict = if r.effectively_blocked() { "BLOCKED" } else { "ads still display" };
            t.push([
                Cell::text(r.network.clone()),
                Cell::UInt(r.sampled as u64),
                Cell::fixed(100.0 * r.blocked_fraction, 1),
                Cell::text(verdict),
            ]);
        }
        t.push([
            Cell::text("TOTAL"),
            Cell::UInt(rows.iter().map(|r| r.sampled as u64).sum()),
            Cell::Absent,
            Cell::text(format!(
                "{}/{} networks blocked by {} filter entries",
                rows.iter().filter(|r| r.effectively_blocked()).count(),
                rows.len(),
                inputs.adblock_filter_entries
            )),
        ]);
        t
    }
}

/// The §4.5 VirusTotal numbers over the files the milker harvested.
pub struct MilkedFileScans;

impl Analysis for MilkedFileScans {
    fn id(&self) -> &'static str {
        "milked-files"
    }
    fn title(&self) -> &'static str {
        "VirusTotal analysis of milked files (§4.5)"
    }
    fn note(&self) -> &'static str {
        "Files harvested by interacting with milked attack pages, submitted to the \
         VirusTotal model and rescanned three months later; the format and label rows \
         tally the same files. Paper: 9,476 files milked in 14 days; only 1,203 already \
         known to VirusTotal; >9,000 flagged malicious after the 3-month rescan, >4,000 by \
         >= 15 AVs; Trojan, Adware and PUP were the most popular labels."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(self.id(), self.title(), &["quantity", "files", "% of milked"]);
        let total = inputs.milked_files.first().map_or(0, |&(_, total)| total);
        for (quantity, n) in &inputs.milked_files {
            t.push([Cell::text(quantity.clone()), Cell::UInt(*n as u64), Cell::fixed(pct(*n, total), 1)]);
        }
        t.or_no_data()
    }
}

/// The §4.3 intelligence feeds the milker collects beside attack domains.
pub struct MilkedFeeds;

/// Items listed per feed; the count rows below them are never capped.
const FEED_ITEMS_SHOWN: usize = 20;

impl Analysis for MilkedFeeds {
    fn id(&self) -> &'static str {
        "milked-intelligence"
    }
    fn title(&self) -> &'static str {
        "Milked intelligence: phones, survey gateways, notification grants (§4.3)"
    }
    fn note(&self) -> &'static str {
        "Side channels the milker feeds in real time; the first 20 items of a feed are \
         listed. Paper: tech-support scams are cross-channel — the web page exists to \
         deliver a phone number, and collecting them in real time feeds call-blocking \
         lists; lottery pages gateway into survey scams (Surveylance); notification grants \
         let attackers push malicious content long after the page is gone."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t =
            Table::new(self.id(), self.title(), &["feed", "item", "first seen", "campaign cluster"]);
        let (phones, gateways, grants) =
            (&inputs.scam_phones, &inputs.survey_gateways, &inputs.notification_grants);
        if phones.len() + gateways.len() + grants.len() == 0 {
            return t.or_no_data();
        }
        let phone_rows = phones.iter().map(|(phone, at, cluster)| ("scam phone", phone.clone(), at, cluster));
        let gateway_rows =
            gateways.iter().map(|(url, at, cluster)| ("survey gateway", url.to_string(), at, cluster));
        for (feed, item, at, cluster) in
            phone_rows.take(FEED_ITEMS_SHOWN).chain(gateway_rows.take(FEED_ITEMS_SHOWN))
        {
            t.push([
                Cell::text(feed),
                Cell::text(item),
                Cell::text(at.to_string()),
                Cell::UInt(*cluster as u64),
            ]);
        }
        let grant_domains: BTreeSet<String> = grants.iter().map(|(url, _, _)| url.e2ld()).collect();
        for (total, n) in [
            ("scam phones collected", phones.len()),
            ("survey gateways collected", gateways.len()),
            ("notification grants recorded", grants.len()),
            ("distinct granting domains", grant_domains.len()),
        ] {
            t.push([Cell::text(total), Cell::UInt(n as u64), Cell::Absent, Cell::Absent]);
        }
        t
    }
}

/// The §6 enrichment claim: how long a blacklist fed by the milker
/// protects users before GSB does.
pub struct BlacklistEnrichment;

impl Analysis for BlacklistEnrichment {
    fn id(&self) -> &'static str {
        "blacklist-enrichment"
    }
    fn title(&self) -> &'static str {
        "Blacklist enrichment: protection window gained by milking (§6)"
    }
    fn note(&self) -> &'static str {
        "Protection window = the span between the milker's discovery of a domain and GSB's \
         own listing, or the whole study (milking window + final-lookup delay) for a domain \
         GSB never lists: every milked domain could be pushed to a blacklist the moment it \
         appears, and users would be protected for that long before GSB protects them. \
         Paper §6: existing URL blacklists can be enriched to protect from many new SE \
         attack pages; GSB ran > 7 days behind the milker."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(self.id(), self.title(), &["quantity", "value"]);
        let (windows, lags) = (&inputs.protection_window_days, &inputs.gsb_lag_days);
        let n = windows.len();
        if n == 0 {
            return t.or_no_data();
        }
        let mean = |days: &[f64]| match days.len() {
            0 => Cell::Absent,
            n => Cell::fixed(days.iter().sum::<f64>() / n as f64, 1),
        };
        let never = inputs.gsb_unlisted as usize;
        t.push([Cell::text("milked domains"), Cell::UInt(n as u64)]);
        t.push([Cell::text("never listed by GSB"), Cell::UInt(never as u64)]);
        t.push([Cell::text("never listed by GSB (%)"), Cell::fixed(pct(never, n), 1)]);
        t.push([Cell::text("mean GSB lag where listed (days)"), mean(lags)]);
        t.push([Cell::text("mean protection window (days)"), mean(windows)]);
        for (quantile, at) in [("p10", n / 10), ("median", n / 2), ("p90", n * 9 / 10)] {
            let quantity = format!("{quantile} protection window (days)");
            t.push([Cell::text(quantity), Cell::fixed(windows[at], 1)]);
        }
        t
    }
}

/// The parked-cluster filter the paper leaves to future work, scored
/// against the cluster labels.
pub struct ParkingFilter;

impl Analysis for ParkingFilter {
    fn id(&self) -> &'static str {
        "parking-filter"
    }
    fn title(&self) -> &'static str {
        "Automated parked-cluster filter (paper future work)"
    }
    fn note(&self) -> &'static str {
        "§4.3: \"Most of these domains could be automatically filtered out using parking \
         detection algorithms\" — future work there, evaluated here. The detector re-visits \
         three members of each θc-passing cluster and scores structural features only, never \
         ground truth; the rows are its confusion matrix against the cluster labels. \
         Filtering another benign confounder is harmless; filtering an SE campaign is the \
         one real failure. Paper: 11 of the 22 benign clusters were parked or inaccessible."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(self.id(), self.title(), &["outcome", "clusters"]);
        let c = &inputs.parking;
        if c.evaluated() == 0 {
            return t.or_no_data();
        }
        for (outcome, n) in [
            ("clusters evaluated", c.evaluated()),
            ("parked clusters filtered", c.parked_filtered),
            ("parked clusters missed", c.parked_missed),
            ("other benign confounders also filtered (harmless)", c.other_benign_filtered),
            ("SE campaigns wrongly filtered", c.campaigns_filtered),
            ("clusters kept for review", c.kept),
        ] {
            t.push([Cell::text(outcome), Cell::UInt(n as u64)]);
        }
        t.push([Cell::text("parked recall"), Cell::fixed(c.parked_recall(), 3)]);
        t
    }
}

/// Ablation over the clustering knobs: DBSCAN eps, the θc domain filter
/// and the dhash width.
pub struct ClusteringAblation;

impl Analysis for ClusteringAblation {
    fn id(&self) -> &'static str {
        "clustering-ablation"
    }
    fn title(&self) -> &'static str {
        "Clustering ablation (eps, θc, hash width)"
    }
    fn note(&self) -> &'static str {
        "Each row re-clusters the crawl's landing screenshots with one knob moved off the \
         paper's setting (eps 0.1, θc 5, 128-bit dhash; the 64-bit row halves eps to keep the \
         fractional radius). Purity = share of clustered landings in their cluster's majority \
         class; SE recall = share of true attack landings inside SE-majority clusters. \
         Reading: eps in [0.05, 0.2] sits on a plateau (the paper tuned 0.1 via pilots); θc \
         trades SE recall against admitting few-domain benign clusters — 5 keeps the \
         multi-domain evasion signature; the 64-bit hash holds up on synthetic creatives but \
         leaves only a 3-bit noise margin at the same fractional eps, versus 12 bits at 128."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["sweep", "setting", "clusters", "purity", "SE recall"],
        );
        for r in &inputs.ablation {
            t.push([
                Cell::text(r.sweep.clone()),
                Cell::text(r.setting.clone()),
                Cell::UInt(r.clusters as u64),
                Cell::fixed(r.purity, 3),
                Cell::fixed(r.se_recall, 3),
            ]);
        }
        t.or_no_data()
    }
}

/// Figure 4: the succession of fresh attack domains one milked upstream
/// URL yields, with GSB's lag on each.
pub struct SourceTimeline;

impl Analysis for SourceTimeline {
    fn id(&self) -> &'static str {
        "milking-timeline"
    }
    fn title(&self) -> &'static str {
        "Figure 4: milking one upstream URL"
    }
    fn note(&self) -> &'static str {
        "The fresh attack domains one fake-software milking source yielded over the run \
         (the source with the most rotations), and how far GSB's listing trailed the \
         milker on each. Paper: findglo210.info -> live6nmld10.club -> relsta60.club -> \
         99cret1040.club ..."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["first seen", "fresh attack domain", "GSB lag (days)"],
        );
        if inputs.timeline.is_empty() {
            return t.or_no_data();
        }
        t.push([Cell::text("source"), Cell::text(inputs.timeline_source.clone()), Cell::Absent]);
        for d in &inputs.timeline {
            t.push([
                Cell::text(d.first_seen.to_string()),
                Cell::text(d.domain.clone()),
                d.gsb_lag().map_or(Cell::text("never listed"), |lag| Cell::fixed(lag.as_days(), 1)),
            ]);
        }
        t.push([Cell::text("domains milked"), Cell::UInt(inputs.timeline.len() as u64), Cell::Absent]);
        t
    }
}

/// Automatic invariant mining: the paper's manual stage ①, mined from
/// loader snippets and checked against the hand-derived invariants.
pub struct InvariantMining;

impl Analysis for InvariantMining {
    fn id(&self) -> &'static str {
        "invariant-mining"
    }
    fn title(&self) -> &'static str {
        "Automatic invariant mining (replaces the §3.1 manual step)"
    }
    fn note(&self) -> &'static str {
        "Automates the paper's only substantial manual step (§3.1/§5: about 15 minutes per \
         network by hand). The miner intersects loader snippets and click URLs from \
         publishers known to run a network and drops tokens other networks share; pool \
         match = the mined JS token reverses to the identical publisher pool as the \
         hand-derived invariant."
    }
    fn compute(&self, inputs: &ReportInputs) -> Table {
        let mut t = Table::new(
            self.id(),
            self.title(),
            &["network", "mined JS token", "mined URL token", "pool match"],
        );
        let rows = &inputs.mined;
        if rows.is_empty() {
            return t.or_no_data();
        }
        let token = |tok: &Option<String>| tok.clone().map_or(Cell::Absent, Cell::text);
        for r in rows {
            t.push([
                Cell::text(r.network.clone()),
                token(&r.mined.js_token),
                token(&r.mined.url_token),
                Cell::text(if r.pool_match { "yes" } else { "NO" }),
            ]);
        }
        let matched = rows.iter().filter(|r| r.pool_match).count();
        t.push([
            Cell::text("TOTAL"),
            Cell::Absent,
            Cell::Absent,
            Cell::text(format!("{matched}/{} networks", rows.len())),
        ]);
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
