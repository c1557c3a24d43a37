//! Reproduces **Figure 1** — the transparent-ad walkthrough: a streaming
//! publisher page where clicking anywhere opens a pop-up that redirects
//! to an SE attack, shown twice (two stacked ad networks → two different
//! attacks).
//!
//! ```sh
//! cargo run --release --example figure1_walkthrough
//! ```

use seacma_core::browser::{BrowserConfig, BrowserSession};
use seacma_core::simweb::{SimTime, UaProfile, Vantage};
use seacma_core::{Pipeline, PipelineConfig};

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::small(42));
    let world = pipeline.world();

    // A publisher running at least two ad networks (greedy site).
    let publisher = world
        .publishers()
        .iter()
        .find(|p| !p.stale && p.networks.len() >= 2)
        .expect("greedy publishers exist");
    println!("(a) publisher page: http://{}/", publisher.domain);
    println!(
        "    embeds {} ad networks: {}",
        publisher.networks.len(),
        publisher
            .networks
            .iter()
            .map(|id| world.networks()[id.0 as usize].name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);
    let mut session = BrowserSession::new(world, cfg, SimTime::EPOCH);
    let loaded = session.navigate(&publisher.url()).expect("publisher loads");
    let overlay = loaded
        .page
        .elements
        .iter()
        .any(|e| e.width >= 1366 && e.height >= 768);
    println!("    full-page transparent overlay present: {overlay}");

    // Repeated clicks at the same spot trigger the stacked networks in
    // sequence (footnote 2 / §3.2).
    for (k, label) in [(0usize, "(b)"), (1usize, "(c)")] {
        let Some(action) = loaded.page.ad_action(k).cloned() else { break };
        match session.click(&loaded.url, &action) {
            Ok(Some(landing)) => {
                println!(
                    "{label} click #{k} opened tab -> {} [{}]{}",
                    landing.url,
                    landing.page.title,
                    if landing.page.visual.is_attack() { "  << SE ATTACK" } else { "" }
                );
                for (from, to, kind) in &landing.hops {
                    println!("      {from} --{kind:?}--> {to}");
                }
                session.reopen();
                let _ = session.navigate(&publisher.url());
            }
            Ok(None) => println!("{label} click #{k}: no navigation"),
            Err(e) => println!("{label} click #{k}: {e}"),
        }
    }
    println!("\nASCII screenshot of the last landing:");
    if let Ok(l) = session.navigate(&publisher.url()) {
        let bm = l.screenshot.bitmap().expect("instrumented sessions render screenshots");
        println!("{}", bm.to_ascii(64));
    }
}
