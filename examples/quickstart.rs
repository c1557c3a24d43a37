//! Quickstart: run the whole SEACMA measurement on a small synthetic web
//! and print what it found.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use seacma_core::{Pipeline, PipelineConfig};
use seacma_report::{Analysis, CampaignStatistics, ReportInputs};

fn main() {
    // A reduced configuration: ~600 publishers, two browser profiles,
    // 3 days of milking. `PipelineConfig::default()` is the paper-shaped
    // setup (4 profiles, 14-day milking).
    let config = PipelineConfig::small(42);
    println!("generating world (seed {:#x}) …", config.world.seed);
    let pipeline = Pipeline::new(config);
    println!(
        "world: {} publishers, {} ad networks, {} SE campaigns (ground truth)",
        pipeline.world().publishers().len(),
        pipeline.world().networks().len(),
        pipeline.world().campaigns().len(),
    );

    println!("running discovery (crawl → dhash → DBSCAN → θc → attribution) …");
    let run = pipeline.run_to_completion();

    let crawl = &run.discovery.crawl;
    println!(
        "\ncrawled {} sites; {} produced third-party landings; {} landing pages",
        crawl.publishers_visited(),
        crawl.publishers_with_landings(),
        crawl.landing_count()
    );
    let inputs = ReportInputs::from_run(&pipeline, &run);
    let b = &inputs.cluster_census;
    println!(
        "clusters: {} SEACMA campaigns, {} benign confounders",
        b.se_campaigns,
        b.benign()
    );

    println!("\n{}", CampaignStatistics.compute(&inputs).render_text());

    println!(
        "milking: {} sources → {} fresh attack domains, {} files harvested",
        run.sources.len(),
        run.milking.discoveries.len(),
        run.milking.files.len()
    );
    println!(
        "GSB detected {:.1}% of milked domains at discovery, {:.1}% eventually",
        100.0 * run.milking.gsb_init_rate(),
        100.0 * run.milking.gsb_final_rate()
    );
    if let Some(lag) = run.milking.mean_gsb_lag_days() {
        println!("GSB ran {lag:.1} days behind the milker on average");
    }
    println!(
        "new ad networks discovered from unknown attacks: {:?}",
        run.new_networks.new_patterns.iter().map(|p| p.name.as_str()).collect::<Vec<_>>()
    );
}
