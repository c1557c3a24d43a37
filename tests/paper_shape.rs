//! Shape regression against the paper's headline findings, at a moderate
//! scale (shared across tests via `OnceLock`). These are the claims the
//! reproduction must preserve; absolute counts are scale-dependent and
//! deliberately not asserted.

use std::sync::OnceLock;

use seacma_core::adblock::adblock_experiment;
use seacma_core::parking::ParkingConfusion;
use seacma_core::report;
use seacma_core::{Pipeline, PipelineConfig, PipelineRun};
use seacma_simweb::{SeCategory, SimTime};

fn run() -> &'static (Pipeline, PipelineRun) {
    static RUN: OnceLock<(Pipeline, PipelineRun)> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut config = PipelineConfig::small(0x5EAC);
        config.world.n_publishers = 1200;
        config.world.n_hidden_only_publishers = 120;
        config.world.campaign_scale = 0.5;
        config.uas = seacma_simweb::UaProfile::ALL.to_vec();
        let pipeline = Pipeline::new(config);
        let run = pipeline.run_to_completion();
        (pipeline, run)
    })
}

/// Paper §4.3: Fake Software dominates campaign counts, and the Table-1
/// category ordering by campaign count is FakeSoftware > Registration >
/// the rest.
#[test]
fn fake_software_dominates_campaigns() {
    let (pipeline, r) = run();
    let t1 = report::table1(pipeline.world(), &r.discovery);
    let by_cat = |c: SeCategory| t1.iter().find(|row| row.category == c).unwrap();
    let fs = by_cat(SeCategory::FakeSoftware);
    for cat in SeCategory::ALL {
        if cat != SeCategory::FakeSoftware {
            assert!(
                fs.campaigns >= by_cat(cat).campaigns,
                "{cat} outgrew Fake Software"
            );
            assert!(fs.se_attacks >= by_cat(cat).se_attacks);
        }
    }
    assert!(fs.campaigns >= by_cat(SeCategory::Registration).campaigns);
}

/// Paper Tables 1/4: Registration campaigns evade GSB completely.
#[test]
fn registration_fully_evades_gsb() {
    let (pipeline, r) = run();
    let t1 = report::table1(pipeline.world(), &r.discovery);
    let reg = t1.iter().find(|row| row.category == SeCategory::Registration).unwrap();
    assert_eq!(reg.gsb_domain_pct, 0.0);
    let t4 = report::table4(&r.discovery.labels, &r.milking);
    let reg4 = t4.iter().find(|row| row.group == "Registration").unwrap();
    assert_eq!(reg4.gsb_final_pct, 0.0);
}

/// Paper §4.5: GSB's initial detection of milked domains is tiny and its
/// final rate is an order of magnitude larger but still a small minority;
/// the mean listing lag exceeds 7 days.
#[test]
fn gsb_lags_and_underdetects() {
    let (pipeline, r) = run();
    let init = r.milking.gsb_init_rate();
    let fin = r.milking.gsb_final_rate();
    assert!(init < 0.05, "init rate {init}");
    assert!(fin > init * 2.0, "final {fin} vs init {init}");
    assert!(fin < 0.5, "final rate {fin} should remain a minority");
    let lag = r.milking.mean_gsb_lag_days().expect("some listings happen");
    assert!(lag > 7.0, "mean lag {lag} days (paper: >7)");
    // §6: so a milker-fed blacklist protects for over a week before GSB does.
    let windows = report::protection_windows(&r.milking, pipeline.config().milking);
    assert!(windows[windows.len() / 2] > 7.0, "median window {} days", windows[windows.len() / 2]);
}

/// Paper Table 3: a substantial minority of SE attacks come from unknown
/// (non-seed) networks, and the feedback loop identifies the hidden trio.
#[test]
fn unknown_networks_discovered() {
    let (_, r) = run();
    assert!(r.new_networks.unknown_attacks > 20);
    let names: Vec<&str> =
        r.new_networks.new_patterns.iter().map(|p| p.name.as_str()).collect();
    for expected in ["EroAdvertising", "Yllix", "AdCenter"] {
        assert!(names.contains(&expected), "{expected} not discovered ({names:?})");
    }
    assert!(r.new_networks.new_publishers > 50, "pool expansion too small");
}

/// Paper §4.3: the benign clusters break down into parked, stock-image,
/// shortener and spurious kinds (11/6/4/1 at full scale).
#[test]
fn benign_cluster_kinds_present() {
    let (_, r) = run();
    let b = report::ClusterBreakdown::over(&r.discovery.labels);
    assert!(b.parked >= 5, "parked clusters {}", b.parked);
    assert!(b.stock >= 2, "stock clusters {}", b.stock);
    assert!(b.shortener >= 2, "shortener clusters {}", b.shortener);
    assert!(b.spurious >= 1, "spurious cluster missing");
    assert!(b.se_campaigns > b.benign(), "SE campaigns must dominate");
}

/// Paper §4.2/§4.5: milking multiplies visibility — the discovered
/// domains far outnumber the domains seen during crawling for milkable
/// categories, and files flow to VirusTotal largely unknown.
#[test]
fn milking_multiplies_visibility() {
    let (_, r) = run();
    let discovered = r.milking.discoveries.len();
    // Sources of one campaign share its domain stream, so normalize by
    // distinct tracked clusters, not raw source count.
    let clusters: std::collections::HashSet<usize> =
        r.sources.iter().map(|s| s.cluster).collect();
    assert!(
        discovered > clusters.len() * 3,
        "{discovered} domains from {} tracked campaigns",
        clusters.len()
    );
    let files = &r.milking.files;
    assert!(!files.is_empty());
    let known = files.iter().filter(|f| f.known_at_submit).count();
    assert!(
        (known as f64) < 0.3 * files.len() as f64,
        "{known}/{} files pre-known — payloads not polymorphic enough",
        files.len()
    );
    let malicious = files
        .iter()
        .filter(|f| f.finally_malicious())
        .count();
    assert!(
        malicious as f64 > 0.85 * files.len() as f64,
        "only {malicious}/{} flagged after rescan",
        files.len()
    );
    let vt = report::milked_file_tallies(files);
    assert!(vt[1].1 < vt[2].1, "known at submit vs flagged after rescan: {vt:?}");
    // Figure 4: one fake-software source yields a succession of fresh domains.
    let (_, rotations) = report::milking_timeline(&r.discovery.labels, &r.sources, &r.milking)
        .expect("a fake-software source discovered domains");
    assert!(rotations.len() >= 2, "{rotations:?}");
    assert!(rotations.windows(2).all(|w| w[0].first_seen < w[1].first_seen));
}

/// Paper Table 2: suspicious/pornography categories lead the publisher
/// distribution.
#[test]
fn publisher_categories_lead_with_suspicious() {
    let (pipeline, r) = run();
    let t2 = report::table2(pipeline.world(), &r.discovery, 20);
    assert!(t2.len() >= 10);
    let top: Vec<&str> = t2.iter().take(3).map(|row| row.category.name()).collect();
    assert!(
        top.contains(&"Suspicious"),
        "Suspicious must rank top-3, got {top:?}"
    );
    assert!(
        top.contains(&"Pornography"),
        "Pornography must rank top-3, got {top:?}"
    );
}

/// §6 ethics: per-advertiser cost stays in cents on average.
#[test]
fn ethics_cost_is_negligible() {
    let (_, r) = run();
    let e = report::EthicsReport::over(&r.discovery);
    assert!(e.mean_cost_usd() < 0.5, "mean cost ${}", e.mean_cost_usd());
    assert!(e.worst_cost_usd() < 25.0, "worst cost ${}", e.worst_cost_usd());
}

/// Paper §4.4: of the seed networks, AdBlock Plus stops exactly Clicksor.
#[test]
fn adblock_stops_only_clicksor() {
    let (pipeline, _) = run();
    let results = adblock_experiment(pipeline.world(), SimTime::EPOCH, 500);
    let blocked: Vec<&str> =
        results.iter().filter(|r| r.effectively_blocked()).map(|r| r.network.as_str()).collect();
    assert_eq!(blocked, ["Clicksor"]);
}

/// Paper §4.3 future work: a parking detector filters every parked
/// cluster and costs no SE campaign.
#[test]
fn parking_filter_loses_no_campaign() {
    let (pipeline, r) = run();
    let c = ParkingConfusion::over(pipeline.world(), &r.discovery);
    assert_eq!(c.campaigns_filtered, 0, "{c:?}");
    assert!(c.parked_filtered > 0 && c.parked_recall() == 1.0, "{c:?}");
}
