//! Report computations: the typed rows of Tables 1–4, the Figure 2
//! funnel and Figure 4 timeline, the cluster breakdown, the §4.5 file
//! tallies, the §6 ethics cost and the raw series behind the lag,
//! protection-window and cluster-size distributions. Nothing here formats
//! text — `seacma-report` projects these rows into tables.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};

use seacma_blacklist::GsbService;
use seacma_graph::Attribution;
use seacma_milker::downloads::DownloadStats;
use seacma_milker::{
    DomainDiscovery, MilkedFile, MilkingConfig, MilkingOutcome, MilkingSource,
};
use seacma_simweb::categorize::Categorizer;
use seacma_simweb::{
    AdNetworkSpec, FileFormat, SeCategory, SimDuration, SimTime, SiteCategory, World,
};

use crate::label::{BenignKind, ClusterLabel};
use crate::pipeline::{crawl_end, DiscoveryOutput, PipelineRun};

/// How long after the crawl the Table-1 GSB lookups are anchored (the
/// paper kept checking domains throughout the study).
pub const TABLE1_LOOKUP_DELAY: SimDuration = SimDuration::from_days(12);

// ---------------------------------------------------------------------------
// Table 1 — SE ad campaign statistics
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// SE category.
    pub category: SeCategory,
    /// SE attack instances observed.
    pub se_attacks: usize,
    /// Distinct attack domains.
    pub attack_domains: usize,
    /// Campaigns (clusters) of the category.
    pub campaigns: usize,
    /// Percent of attack domains GSB listed.
    pub gsb_domain_pct: f64,
    /// Percent of campaigns with ≥ 1 listed domain.
    pub gsb_campaign_pct: f64,
}

/// Builds Table 1 from a discovery output.
pub fn table1(world: &World, discovery: &DiscoveryOutput) -> Vec<Table1Row> {
    let landings: Vec<_> = discovery.landings().collect();
    let lookup_t = crawl_end(&discovery.crawl) + TABLE1_LOOKUP_DELAY;
    let mut gsb = GsbService::new(world);

    // Sample observation time per domain (anchors GSB ground truth).
    let arena = discovery.arena.read();
    let mut domain_seen_at: HashMap<&str, SimTime> = HashMap::new();
    for l in &landings {
        domain_seen_at.entry(arena.resolve(l.landing_e2ld)).or_insert(l.t);
    }

    let mut rows = Vec::new();
    for cat in SeCategory::ALL {
        let mut se_attacks = 0usize;
        let mut domains: HashSet<&str> = HashSet::new();
        let mut campaigns = 0usize;
        let mut campaigns_detected = 0usize;
        for (ci, cluster) in discovery.clusters.campaigns.iter().enumerate() {
            if discovery.labels[ci] != ClusterLabel::Campaign(cat) {
                continue;
            }
            campaigns += 1;
            se_attacks += cluster.len();
            let mut any_listed = false;
            for d in &cluster.domains {
                domains.insert(d.as_str());
                let t_seen = domain_seen_at.get(d.as_str()).copied().unwrap_or(lookup_t);
                if gsb.listing_time(d, t_seen).is_some_and(|at| at <= lookup_t) {
                    any_listed = true;
                }
            }
            if any_listed {
                campaigns_detected += 1;
            }
        }
        let listed_domains = domains
            .iter()
            .filter(|d| {
                let t_seen = domain_seen_at.get(*d).copied().unwrap_or(lookup_t);
                gsb.listing_time(d, t_seen).is_some_and(|at| at <= lookup_t)
            })
            .count();
        rows.push(Table1Row {
            category: cat,
            se_attacks,
            attack_domains: domains.len(),
            campaigns,
            gsb_domain_pct: pct(listed_domains, domains.len()),
            gsb_campaign_pct: pct(campaigns_detected, campaigns),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table 2 — publisher categories
// ---------------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Site category.
    pub category: SiteCategory,
    /// SEACMA-hosting publisher domains in the category.
    pub publishers: usize,
    /// Percent of all SEACMA-hosting publishers.
    pub pct: f64,
}

/// Builds Table 2: categories of publishers that hosted at least one SE
/// attack landing.
pub fn table2(world: &World, discovery: &DiscoveryOutput, top_n: usize) -> Vec<Table2Row> {
    let landings: Vec<_> = discovery.landings().collect();
    let categorizer = Categorizer::new(world);
    // Publishers hosting SEACMA ads: those whose clicks landed on a
    // campaign-cluster member.
    let arena = discovery.arena.read();
    let mut hosts: HashSet<&str> = HashSet::new();
    for (ci, cluster) in discovery.clusters.campaigns.iter().enumerate() {
        if !discovery.labels[ci].is_campaign() {
            continue;
        }
        for &m in &cluster.members {
            hosts.insert(arena.resolve(landings[m].publisher_domain));
        }
    }
    let total = hosts.len();
    let mut counts: BTreeMap<SiteCategory, usize> = BTreeMap::new();
    for h in hosts {
        *counts.entry(categorizer.categorize(h)).or_default() += 1;
    }
    let mut rows: Vec<Table2Row> = counts
        .into_iter()
        .map(|(category, publishers)| Table2Row {
            category,
            publishers,
            pct: pct(publishers, total),
        })
        .collect();
    rows.sort_by(|a, b| b.publishers.cmp(&a.publishers));
    rows.truncate(top_n);
    rows
}

// ---------------------------------------------------------------------------
// Table 3 — SE attacks per ad network
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Network name ("Unknown" for unmatched SE attacks).
    pub network: String,
    /// Distinct ad-serving domains observed for the network.
    pub network_domains: usize,
    /// Landing pages reached through the network's ads.
    pub landing_pages: usize,
    /// SE attack pages among them.
    pub se_pages: usize,
    /// Percent SE.
    pub se_pct: f64,
}

/// Builds Table 3 from discovery attributions.
pub fn table3(world: &World, discovery: &DiscoveryOutput) -> Vec<Table3Row> {
    let landings: Vec<_> = discovery.landings().collect();
    let networks: HashMap<&str, &AdNetworkSpec> =
        world.networks().iter().map(|n| (n.name.as_str(), n)).collect();
    let mut landing_count: HashMap<&str, usize> = HashMap::new();
    let mut se_count: HashMap<&str, usize> = HashMap::new();
    let mut domains: HashMap<&str, HashSet<String>> = HashMap::new();
    let mut unknown_se = 0usize;

    // Which landings are members of SE campaign clusters (the pipeline's
    // own notion of "SE attack page").
    let mut is_se = vec![false; landings.len()];
    for (ci, cluster) in discovery.clusters.campaigns.iter().enumerate() {
        if discovery.labels[ci].is_campaign() {
            for &m in &cluster.members {
                is_se[m] = true;
            }
        }
    }

    for (i, att) in discovery.attributions.iter().enumerate() {
        match att {
            Attribution::Known(name) => {
                // Only the world's own networks have a row to count into.
                let Some(net) = networks.get(name.as_str()) else { continue };
                let name = net.name.as_str();
                *landing_count.entry(name).or_default() += 1;
                if is_se[i] {
                    *se_count.entry(name).or_default() += 1;
                }
                // Ad-serving domains seen for this network.
                let entry = domains.entry(name).or_default();
                for u in &landings[i].involved_urls {
                    if u.contains(&net.url_invariant) {
                        entry.insert(u.host.clone());
                    }
                }
            }
            Attribution::Unknown => {
                if is_se[i] {
                    unknown_se += 1;
                }
            }
        }
    }

    let mut rows: Vec<Table3Row> = world
        .networks()
        .iter()
        .filter(|n| n.seed_listed)
        .map(|n| {
            let name = n.name.as_str();
            let lp = landing_count.get(name).copied().unwrap_or(0);
            let se = se_count.get(name).copied().unwrap_or(0);
            Table3Row {
                network: n.name.clone(),
                network_domains: domains.get(name).map_or(0, HashSet::len),
                landing_pages: lp,
                se_pages: se,
                se_pct: pct(se, lp),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.landing_pages.cmp(&a.landing_pages));
    rows.push(Table3Row {
        network: "Unknown".into(),
        network_domains: 0,
        landing_pages: 0,
        se_pages: unknown_se,
        se_pct: 0.0,
    });
    rows
}

// ---------------------------------------------------------------------------
// Table 4 — milking
// ---------------------------------------------------------------------------

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Category group (Scareware and Technical Support are merged, as in
    /// the paper).
    pub group: String,
    /// New domains discovered by milking.
    pub domains: usize,
    /// Percent listed by GSB at discovery.
    pub gsb_init_pct: f64,
    /// Percent listed by the end of all lookups.
    pub gsb_final_pct: f64,
}

/// Builds Table 4 from a milking outcome plus the cluster labels that map
/// each source's cluster to a category.
pub fn table4(labels: &[ClusterLabel], milking: &MilkingOutcome) -> Vec<Table4Row> {
    const GROUPS: [&str; 6] = [
        "Fake Software",
        "Lottery/Gift",
        "Chrome Notifications",
        "Registration",
        "Tech Support/Scareware",
        "Total",
    ];
    let group_of = |cat: SeCategory| match cat {
        SeCategory::FakeSoftware => 0,
        SeCategory::LotteryGift => 1,
        SeCategory::ChromeNotifications => 2,
        SeCategory::Registration => 3,
        SeCategory::Scareware | SeCategory::TechnicalSupport => 4,
    };
    // Per group: (domains, listed at discovery, listed eventually).
    let mut counts = [(0usize, 0usize, 0usize); GROUPS.len()];
    for d in &milking.discoveries {
        let Some(cat) = labels.get(d.cluster).and_then(|l| l.category()) else {
            continue;
        };
        for g in [group_of(cat), GROUPS.len() - 1] {
            counts[g].0 += 1;
            counts[g].1 += usize::from(d.gsb_listed_at_discovery);
            counts[g].2 += usize::from(d.gsb_listed_at.is_some());
        }
    }
    GROUPS
        .iter()
        .zip(counts)
        .map(|(group, (domains, init, fin))| Table4Row {
            group: group.to_string(),
            domains,
            gsb_init_pct: pct(init, domains),
            gsb_final_pct: pct(fin, domains),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Cluster breakdown (§4.3)
// ---------------------------------------------------------------------------

/// Counts of cluster kinds (the paper's "130 clusters → 108 campaigns +
/// 22 benign (11 parked, 6 stock, 4 shortener, 1 spurious)").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterBreakdown {
    /// Campaign clusters.
    pub se_campaigns: usize,
    /// Parked-domain clusters.
    pub parked: usize,
    /// Stock-image clusters.
    pub stock: usize,
    /// Shortener clusters.
    pub shortener: usize,
    /// Spurious load-error clusters.
    pub spurious: usize,
    /// Other benign clusters.
    pub other: usize,
}

impl ClusterBreakdown {
    /// Tallies the labels.
    pub fn over(labels: &[ClusterLabel]) -> Self {
        let mut b = ClusterBreakdown::default();
        for l in labels {
            match l {
                ClusterLabel::Campaign(_) => b.se_campaigns += 1,
                ClusterLabel::Benign(BenignKind::Parked) => b.parked += 1,
                ClusterLabel::Benign(BenignKind::StockImages) => b.stock += 1,
                ClusterLabel::Benign(BenignKind::UrlShortener) => b.shortener += 1,
                ClusterLabel::Benign(BenignKind::SpuriousLoadError) => b.spurious += 1,
                ClusterLabel::Benign(BenignKind::OtherBenign) => b.other += 1,
            }
        }
        b
    }

    /// Total clusters labeled.
    pub fn total(&self) -> usize {
        self.se_campaigns + self.benign()
    }

    /// Total benign clusters.
    pub fn benign(&self) -> usize {
        self.parked + self.stock + self.shortener + self.spurious + self.other
    }
}

// ---------------------------------------------------------------------------
// Ethics cost analysis (§6)
// ---------------------------------------------------------------------------

/// The §6 advertiser-cost estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct EthicsReport {
    /// Assumed CPM in USD (paper: $4).
    pub cpm_usd: f64,
    /// Distinct legitimate (non-SE) advertiser domains reached.
    pub legit_domains: usize,
    /// Total clicks that landed on legitimate domains.
    pub legit_clicks: usize,
    /// Worst-case domain and its visit count.
    pub worst: Option<(String, usize)>,
    /// Mean clicks per legitimate domain.
    pub mean_clicks: f64,
}

impl EthicsReport {
    /// Builds the report over a discovery output.
    pub fn over(discovery: &DiscoveryOutput) -> EthicsReport {
        let arena = discovery.arena.read();
        let mut per_domain: HashMap<&str, usize> = HashMap::new();
        for l in discovery.crawl.landings() {
            if !l.truth_is_attack {
                *per_domain.entry(arena.resolve(l.landing_e2ld)).or_default() += 1;
            }
        }
        let legit_clicks: usize = per_domain.values().sum();
        let worst = per_domain
            .iter()
            .max_by_key(|(d, n)| (**n, std::cmp::Reverse(*d)))
            .map(|(d, n)| (d.to_string(), *n));
        let legit_domains = per_domain.len();
        EthicsReport {
            cpm_usd: 4.0,
            legit_domains,
            legit_clicks,
            worst,
            mean_clicks: if legit_domains == 0 {
                0.0
            } else {
                legit_clicks as f64 / legit_domains as f64
            },
        }
    }

    /// Estimated worst-case cost to a single advertiser, USD.
    pub fn worst_cost_usd(&self) -> f64 {
        self.worst.as_ref().map_or(0.0, |(_, n)| *n as f64 * self.cpm_usd / 1000.0)
    }

    /// Estimated mean cost per advertiser, USD.
    pub fn mean_cost_usd(&self) -> f64 {
        self.mean_clicks * self.cpm_usd / 1000.0
    }
}

// ---------------------------------------------------------------------------
// Analysis extraction (feeds the seacma-report Analysis implementations)
// ---------------------------------------------------------------------------

/// GSB listing lags across a milking outcome, in fractional virtual days,
/// ascending. Domains GSB never listed are excluded — count them with
/// [`gsb_unlisted`]; together the two cover every discovery exactly once.
pub fn gsb_lag_days(milking: &MilkingOutcome) -> Vec<f64> {
    let mut lags: Vec<f64> = milking
        .discoveries
        .iter()
        .filter_map(|d| d.gsb_lag())
        .map(|lag| lag.minutes() as f64 / (24.0 * 60.0))
        .collect();
    lags.sort_by(f64::total_cmp);
    lags
}

/// Number of milked domains GSB never listed (the paper's blacklist-gap
/// headline; the complement of [`gsb_lag_days`]).
pub fn gsb_unlisted(milking: &MilkingOutcome) -> usize {
    milking.discoveries.iter().filter(|d| d.gsb_listed_at.is_none()).count()
}

/// Campaign-cluster sizes (screenshot counts per θc-surviving cluster),
/// descending — the raw series behind the cluster-size distribution.
pub fn cluster_sizes(discovery: &DiscoveryOutput) -> Vec<u32> {
    let mut sizes: Vec<u32> =
        discovery.clusters.campaigns.iter().map(|c| c.len() as u32).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

// ---------------------------------------------------------------------------
// Figure 2 — the pipeline funnel
// ---------------------------------------------------------------------------

/// One count of the Figure 2 funnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunnelRow {
    /// Pipeline stage, by the paper's circled number.
    pub stage: String,
    /// What is counted.
    pub quantity: String,
    /// How many.
    pub count: u64,
}

fn funnel_rows(counts: &[(&str, &str, usize)]) -> Vec<FunnelRow> {
    counts
        .iter()
        .map(|&(stage, quantity, count)| FunnelRow {
            stage: stage.to_string(),
            quantity: quantity.to_string(),
            count: count as u64,
        })
        .collect()
}

/// Stages ①–⑤ of the funnel: what a discovery phase alone counts.
pub fn funnel_discovery(world: &World, d: &DiscoveryOutput) -> Vec<FunnelRow> {
    let (reversal, crawl, clustering) = ("② publisher reversal", "③ crawl", "④⑤ clustering");
    let ranked_within =
        |n| world.publishers().iter().filter(|p| p.rank.is_some_and(|r| r <= n)).count();
    funnel_rows(&[
        ("① seed networks", "seed ad networks", world.networks().iter().filter(|n| n.seed_listed).count()),
        (reversal, "reversed publisher pool", d.institutional_pool.len() + d.residential_pool.len()),
        (reversal, "institutional pool", d.institutional_pool.len()),
        (reversal, "residential pool (cloaking networks)", d.residential_pool.len()),
        (reversal, "residential publishers visited", d.residential_visited),
        (reversal, "world publishers ranked in the top 10k", ranked_within(10_000)),
        (reversal, "world publishers ranked in the top 1k", ranked_within(1_000)),
        (crawl, "publishers visited", d.crawl.publishers_visited()),
        (crawl, "publishers with third-party landings", d.crawl.publishers_with_landings()),
        (crawl, "ad clicks", d.crawl.click_count() as usize),
        (crawl, "landing pages", d.crawl.landing_count()),
        (crawl, "SE attack landings (ground truth)", d.landings().filter(|l| l.truth_is_attack).count()),
        (clustering, "clusters before the θc filter", d.clusters.total_clusters()),
        (clustering, "clusters filtered by θc", d.clusters.filtered.len()),
        (clustering, "noise points", d.clusters.noise),
        (clustering, "θc-passing clusters", d.clusters.campaigns.len()),
        (clustering, "SE campaigns among them", d.labels.iter().filter(|l| l.is_campaign()).count()),
    ])
}

/// Stages ⑥–⑦ of the funnel: milking and the attribution feedback loop,
/// which need the whole run. Appended to [`funnel_discovery`]'s rows.
pub fn funnel_tracking(run: &PipelineRun) -> Vec<FunnelRow> {
    let (d, m, n) = (&run.discovery, &run.milking, &run.new_networks);
    let attributed = d
        .landings()
        .zip(&d.attributions)
        .filter(|(l, a)| l.truth_is_attack && **a != Attribution::Unknown)
        .count();
    let names: Vec<String> =
        n.new_patterns.iter().map(|p| format!("{} ({})", p.name, p.url_invariant)).collect();
    let new_networks = format!("new networks identified [{}]", names.join(", "));
    let (milking, attribution) = ("⑥ milking", "⑦ attribution");
    funnel_rows(&[
        (milking, "validated milking sources", run.sources.len()),
        (milking, "milking sessions", m.sessions as usize),
        (milking, "new attack domains", m.discoveries.len()),
        (milking, "files milked", m.files.len()),
        (attribution, "SE attacks attributed to seed networks", attributed),
        (attribution, "SE attacks from unknown networks", n.unknown_attacks),
        (attribution, &new_networks, n.new_patterns.len()),
        (attribution, "publishers added by re-querying the source search", n.new_publishers),
    ])
}

// ---------------------------------------------------------------------------
// Milked files (§4.5), protection windows (§6), the Figure 4 timeline
// ---------------------------------------------------------------------------

/// The §4.5 VirusTotal tallies over the milked files, as `(what, files)`
/// rows: the total first, then the known-at-submit / flagged-after-rescan
/// counts of [`DownloadStats`], then files per download format and per
/// predominant AV label after the rescan, most common first. Empty when
/// nothing was milked.
pub fn milked_file_tallies(files: &[MilkedFile]) -> Vec<(String, usize)> {
    if files.is_empty() {
        return Vec::new();
    }
    let stats = DownloadStats::over(files);
    let (mut formats, mut labels) = (BTreeMap::new(), BTreeMap::new());
    for f in files {
        let format = match f.payload.format {
            FileFormat::Pe => "format: Windows PE",
            FileFormat::Dmg => "format: macOS DMG",
            FileFormat::Crx => "format: extension CRX",
        };
        *formats.entry(format.to_string()).or_default() += 1;
        if let Some(label) = f.final_report.as_ref().and_then(|r| r.label.as_deref()) {
            *labels.entry(format!("label: {label}")).or_default() += 1;
        }
    }
    let mut rows = vec![
        ("files milked".to_string(), stats.total),
        ("already known to VT at submit".to_string(), stats.known_at_submit),
        ("flagged malicious after rescan".to_string(), stats.finally_malicious),
        ("flagged by >= 15 engines".to_string(), stats.flagged_15_plus),
    ];
    for tally in [formats, labels] {
        // Name order from the map, then a stable sort: ties stay by name.
        let mut tally: Vec<(String, usize)> = tally.into_iter().collect();
        tally.sort_by_key(|&(_, n)| Reverse(n));
        rows.extend(tally);
    }
    rows
}

/// The §6 blacklist-enrichment series: per milked domain, the *protection
/// window* in days between the milker's discovery and GSB's own listing —
/// the whole study (`config`'s milking duration plus the delay of its
/// final GSB lookup) for a domain GSB never lists. A blacklist fed by the
/// milker protects users for that long before GSB does. Ascending.
pub fn protection_windows(milking: &MilkingOutcome, config: MilkingConfig) -> Vec<f64> {
    let study_span = config.duration + config.final_lookup_after;
    let mut windows: Vec<f64> = milking
        .discoveries
        .iter()
        .map(|d| d.gsb_lag().unwrap_or(study_span).as_days())
        .collect();
    windows.sort_by(f64::total_cmp);
    windows
}

/// Figure 4 over a run: the fake-software source that yielded the most
/// domains (lowest source index on ties) and its discoveries in
/// chronological order. `None` when no fake-software source found any.
pub fn milking_timeline<'a>(
    labels: &[ClusterLabel],
    sources: &'a [MilkingSource],
    milking: &'a MilkingOutcome,
) -> Option<(&'a MilkingSource, Vec<&'a DomainDiscovery>)> {
    let fake_software = |idx: usize| {
        labels.get(sources[idx].cluster).and_then(|l| l.category())
            == Some(SeCategory::FakeSoftware)
    };
    let (&idx, _) = milking
        .timelines
        .iter()
        .filter(|(&idx, _)| fake_software(idx))
        .max_by_key(|(&idx, timeline)| (timeline.len(), Reverse(idx)))?;
    Some((&sources[idx], milking.discoveries.iter().filter(|d| d.source_idx == idx).collect()))
}

/// `n` as a percentage of `total`; 0 when `total` is 0.
pub fn pct(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_safe_on_zero() {
        assert_eq!(pct(0, 0), 0.0);
        assert_eq!(pct(1, 4), 25.0);
    }

    #[test]
    fn breakdown_tallies() {
        use seacma_simweb::SeCategory;
        let labels = [
            ClusterLabel::Campaign(SeCategory::FakeSoftware),
            ClusterLabel::Campaign(SeCategory::Scareware),
            ClusterLabel::Benign(BenignKind::Parked),
            ClusterLabel::Benign(BenignKind::UrlShortener),
            ClusterLabel::Benign(BenignKind::SpuriousLoadError),
        ];
        let b = ClusterBreakdown::over(&labels);
        assert_eq!(b.se_campaigns, 2);
        assert_eq!(b.benign(), 3);
        assert_eq!(b.total(), 5);
    }
}
