//! End-to-end pipeline test: discovery → clustering → attribution →
//! milking → new-network feedback, with shape checks against the paper.

use seacma_core::report;
use seacma_core::{Pipeline, PipelineConfig};
use seacma_simweb::SeCategory;

fn run() -> (Pipeline, seacma_core::PipelineRun) {
    let pipeline = Pipeline::new(PipelineConfig::small(0xE2E));
    let run = pipeline.run_to_completion();
    (pipeline, run)
}

#[test]
fn full_pipeline_shape() {
    let (pipeline, run) = run();
    let d = &run.discovery;

    // Stage ②: the reversed pool covers exactly the seed-network pubs.
    assert_eq!(
        d.institutional_pool.len() + d.residential_pool.len(),
        pipeline.config().world.n_publishers as usize
    );
    assert!(!d.residential_pool.is_empty(), "some sites run cloaking networks");

    // Stage ③: landings accumulated.
    assert!(d.crawl.landing_count() > 300, "landings {}", d.crawl.landing_count());
    let with = d.crawl.publishers_with_landings();
    let visited = d.crawl.publishers_visited();
    assert!(with * 10 > visited * 3, "too few ad-bearing sites: {with}/{visited}");

    // Stage ⑤: clusters exist; campaigns dominated by SE labels.
    assert!(d.clusters.campaigns.len() >= 15, "clusters {}", d.clusters.campaigns.len());
    let se = d.labels.iter().filter(|l| l.is_campaign()).count();
    let benign = d.labels.len() - se;
    assert!(se > benign, "SE campaigns must dominate: {se} vs {benign}");

    // Nearly all categories discovered (Technical Support carries only
    // 1.6 % of SE traffic and can drop below MinPts at test scale).
    let found = SeCategory::ALL
        .iter()
        .filter(|&&cat| d.labels.iter().any(|l| l.category() == Some(cat)))
        .count();
    assert!(found >= 5, "only {found}/6 categories discovered");

    // Stage ⑦: most SE attacks attributed to seed networks, a solid
    // minority unknown (paper: 81% / 19%).
    let landings: Vec<_> = d.landings().collect();
    let se_attacks: Vec<usize> = (0..landings.len())
        .filter(|&i| landings[i].truth_is_attack)
        .collect();
    let unknown = se_attacks
        .iter()
        .filter(|&&i| d.attributions[i] == seacma_graph::Attribution::Unknown)
        .count();
    let frac_unknown = unknown as f64 / se_attacks.len() as f64;
    assert!(
        (0.05..0.40).contains(&frac_unknown),
        "unknown fraction {frac_unknown} ({unknown}/{})",
        se_attacks.len()
    );

    // Milking: sources validated, domains discovered, sessions counted.
    assert!(!run.sources.is_empty(), "no milking sources validated");
    assert!(
        run.milking.discoveries.len() > run.sources.len(),
        "milking must discover more domains than sources ({} vs {})",
        run.milking.discoveries.len(),
        run.sources.len()
    );
    assert!(run.milking.sessions > 1000);

    // GSB: low at discovery, higher at the end, lag > 7 days.
    assert!(run.milking.gsb_init_rate() < 0.10);
    assert!(run.milking.gsb_final_rate() > run.milking.gsb_init_rate());
    if let Some(lag) = run.milking.mean_gsb_lag_days() {
        assert!(lag > 3.0, "mean lag {lag}");
    }

    // Tracking: the crawl replayed through the configured epoch count,
    // the milking feed reached the tracker, and campaigns got journaled.
    let t = &run.tracking;
    assert_eq!(t.crawl_epochs.len(), pipeline.config().crawl_track_epochs);
    assert_eq!(
        t.tracker.epoch() as usize,
        t.crawl_epochs.len() + t.milking_epochs.len()
    );
    assert!(t.crawl_epochs.iter().any(|s| !s.events.is_empty()));
    let milked: u32 = t.milking_epochs.iter().map(|s| s.ingested).sum();
    assert!(milked > 0, "milking discoveries must reach the tracker");
    assert!(t.tracker.ledger().campaigns().count() >= 10);

    // New-network discovery fires.
    assert!(run.new_networks.unknown_attacks > 0);
    assert!(
        !run.new_networks.new_patterns.is_empty(),
        "hidden networks must be discoverable"
    );
    assert!(run.new_networks.new_publishers > 0, "pool expansion expected");
    let names: Vec<&str> =
        run.new_networks.new_patterns.iter().map(|p| p.name.as_str()).collect();
    assert!(
        names.iter().any(|n| ["EroAdvertising", "Yllix", "AdCenter"].contains(n)),
        "expected a real hidden network, got {names:?}"
    );
}

#[test]
fn tables_render_consistently() {
    let (pipeline, run) = run();
    let world = pipeline.world();
    let d = &run.discovery;

    // Table 1.
    let t1 = report::table1(world, d);
    assert_eq!(t1.len(), 6);
    let total_campaigns: usize = t1.iter().map(|r| r.campaigns).sum();
    assert_eq!(
        total_campaigns,
        d.labels.iter().filter(|l| l.is_campaign()).count()
    );
    let fs = t1.iter().find(|r| r.category == SeCategory::FakeSoftware).unwrap();
    assert!(fs.se_attacks > 0 && fs.attack_domains > 0);
    // Registration campaigns evade GSB entirely (Table 1: 0 %).
    let reg = t1.iter().find(|r| r.category == SeCategory::Registration).unwrap();
    assert_eq!(reg.gsb_domain_pct, 0.0);
    assert_eq!(reg.gsb_campaign_pct, 0.0);

    // Table 2.
    let t2 = report::table2(world, d, 20);
    assert!(!t2.is_empty());
    assert!(t2.windows(2).all(|w| w[0].publishers >= w[1].publishers));

    // Table 3.
    let t3 = report::table3(world, d);
    assert_eq!(t3.len(), 12, "11 seed networks + Unknown");
    let known_se: usize = t3
        .iter()
        .filter(|r| r.network != "Unknown")
        .map(|r| r.se_pages)
        .sum();
    assert!(known_se > 0);

    // Table 4.
    let t4 = report::table4(&d.labels, &run.milking);
    assert_eq!(t4.len(), 6, "5 groups + total");
    let total = t4.last().unwrap();
    assert_eq!(total.group, "Total");
    assert_eq!(
        total.domains,
        t4[..5].iter().map(|r| r.domains).sum::<usize>()
    );
    assert!(total.gsb_final_pct >= total.gsb_init_pct);

    // Cluster breakdown: SE campaigns plus several benign confounder kinds.
    let breakdown = report::ClusterBreakdown::over(&d.labels);
    assert_eq!(breakdown.total(), d.labels.len());
    assert!(breakdown.parked + breakdown.stock + breakdown.shortener > 0);

    // Ethics.
    let ethics = report::EthicsReport::over(d);
    assert!(ethics.legit_domains > 0);
    assert!(ethics.mean_clicks > 0.0);
    assert!(ethics.worst_cost_usd() >= ethics.mean_cost_usd());
}

#[test]
fn pipeline_runs_are_reproducible() {
    let a = Pipeline::new(PipelineConfig::small(42)).run_to_completion();
    let b = Pipeline::new(PipelineConfig::small(42)).run_to_completion();
    assert_eq!(a.discovery.crawl, b.discovery.crawl);
    assert_eq!(a.discovery.labels, b.discovery.labels);
    assert_eq!(a.milking.discoveries, b.milking.discoveries);
    assert_eq!(a.new_networks, b.new_networks);
    assert_eq!(a.tracking.tracker.to_json(), b.tracking.tracker.to_json());
}

#[test]
fn different_seeds_differ() {
    let a = Pipeline::new(PipelineConfig::small(1)).run_to_completion();
    let b = Pipeline::new(PipelineConfig::small(2)).run_to_completion();
    assert_ne!(a.discovery.crawl, b.discovery.crawl);
}
