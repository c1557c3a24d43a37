//! Reproduces **Figure 3** — the backtracking graph of one SE attack
//! load, printed as ASCII and Graphviz DOT.
//!
//! ```sh
//! cargo run --release --example figure3_backtrack
//! ```

use seacma_core::browser::{BrowserConfig, BrowserSession};
use seacma_core::graph::{milkable, Attributor, BacktrackGraph};
use seacma_core::simweb::{SimTime, UaProfile, Vantage};
use seacma_core::{Pipeline, PipelineConfig};

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::small(42));
    let world = pipeline.world();
    let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);

    // Crawl publishers until a click lands on an SE attack with an
    // upstream TDS (the Figure-3 shape).
    for publisher in world.publishers() {
        let mut session = BrowserSession::new(world, cfg, SimTime::EPOCH);
        let Ok(loaded) = session.navigate(&publisher.url()) else { continue };
        for k in 0..loaded.page.ad_click_chain.len() {
            let Some(action) = loaded.page.ad_action(k).cloned() else { break };
            let Ok(Some(landing)) = session.click(&loaded.url, &action) else {
                session.reopen();
                continue;
            };
            if landing.page.visual.is_attack() && landing.hops.len() >= 2 {
                let graph = BacktrackGraph::from_log(session.log());
                println!("attack page: {}\n", landing.url);
                println!("backward path (indentation = causality):");
                println!("{}", graph.to_ascii(&landing.url));
                if let Some(m) = milkable::candidate(&graph, &landing.url) {
                    println!("milkable candidate (first off-domain upstream): {m}");
                }
                let attributor = Attributor::new(pipeline.seed_patterns());
                println!("attribution: {:?}", attributor.attribute(&graph, &landing.url));
                println!("\nGraphviz DOT:\n{}", graph.to_dot(&landing.url));
                return;
            }
            session.reopen();
            let _ = session.navigate(&publisher.url());
        }
    }
    println!("no multi-hop SE attack found in this world");
}
