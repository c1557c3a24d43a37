//! Reproduces **Figure 2** — the system overview — by running every
//! pipeline stage and printing per-stage statistics.

use seacma_bench::{banner, run_args};
use seacma_core::pipeline::DiscoverySummary;
use seacma_core::report::ClusterBreakdown;
use seacma_core::Pipeline;

fn main() {
    let args = run_args();
    banner("Figure 2: pipeline stage walkthrough");
    let pipeline = Pipeline::new(args.config());
    let run = pipeline.run_to_completion();

    println!("① seed ad networks: {}", pipeline.seed_patterns().len());
    let s = DiscoverySummary::over(&run.discovery);
    println!("② reversed publisher pool: {} sites", s.pool_size);
    println!(
        "   institutional: {}   residential (cloaking networks): {} ({} visited)",
        run.discovery.institutional_pool.len(),
        run.discovery.residential_pool.len(),
        run.discovery.residential_visited
    );
    println!(
        "③ crawl: {} sites visited, {} produced third-party landings, {} landing pages",
        s.visited, s.with_landings, s.landings
    );
    println!(
        "④⑤ clustering: {} clusters total, {} θc-passing candidates",
        s.clusters_total, s.campaign_clusters
    );
    let b = ClusterBreakdown::over(&run.discovery.labels);
    println!(
        "   labels: {} SE campaigns | benign: {} parked, {} stock, {} shortener, {} spurious, {} other",
        b.se_campaigns, b.parked, b.stock, b.shortener, b.spurious, b.other
    );
    println!(
        "⑥ milking: {} validated sources, {} sessions, {} new domains, {} files",
        run.sources.len(),
        run.milking.sessions,
        run.milking.discoveries.len(),
        run.milking.files.len()
    );
    println!(
        "⑦ attribution: {} unknown SE attacks -> {} new networks -> +{} publishers",
        run.new_networks.unknown_attacks,
        run.new_networks.new_patterns.len(),
        run.new_networks.new_publishers
    );
    for p in &run.new_networks.new_patterns {
        println!("   discovered network: {} (invariant {})", p.name, p.url_invariant);
    }
    println!(
        "\npaper reference: 93,427 pool / 70,541 visited / 39,171 with landings / ~199,400 landings"
    );
    println!("                 130 clusters -> 108 campaigns; 505 milking sources; +8,981 publishers");
}
