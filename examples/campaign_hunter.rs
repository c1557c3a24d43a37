//! Campaign hunter: the analyst workflow for one SEACMA campaign.
//!
//! Starting from a single publisher page, this example clicks an ad,
//! reaches an SE attack, reconstructs the backtracking graph, extracts and
//! validates the milkable upstream URL, then tracks the campaign for a
//! week — enumerating the throw-away domains it burns and checking each
//! against Google Safe Browsing, exactly the loop a threat-intel analyst
//! would run with this library.
//!
//! ```sh
//! cargo run --release --example campaign_hunter
//! ```

use seacma_core::blacklist::{GsbService, VirusTotal};
use seacma_core::browser::{BrowserConfig, BrowserSession};
use seacma_core::graph::{milkable, Attributor, BacktrackGraph};
use seacma_core::milker::{validate_candidates, Milker, MilkingCandidate, MilkingConfig};
use seacma_core::simweb::{SimDuration, SimTime, UaProfile, Vantage, World, WorldConfig};
use seacma_core::Pipeline;

fn main() {
    let world = World::generate(WorldConfig {
        seed: 7,
        n_publishers: 500,
        n_hidden_only_publishers: 0,
        n_advertisers: 50,
        campaign_scale: 0.4,
        error_rate: 0.0,
        ..Default::default()
    });
    let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);

    // 1. Hunt: click ads until one lands on an SE attack with upstream
    //    indirection.
    let mut found = None;
    'hunt: for publisher in world.publishers() {
        let mut session = BrowserSession::new(&world, cfg, SimTime::EPOCH);
        let Ok(loaded) = session.navigate(&publisher.url()) else { continue };
        for k in 0..loaded.page.ad_click_chain.len() {
            let Some(action) = loaded.page.ad_action(k).cloned() else { break };
            if let Ok(Some(landing)) = session.click(&loaded.url, &action) {
                if landing.page.visual.is_attack() && landing.hops.len() >= 2 {
                    found = Some((publisher, session, landing));
                    break 'hunt;
                }
            }
            session.reopen();
            if session.navigate(&publisher.url()).is_err() {
                break;
            }
        }
    }
    let (publisher, session, landing) = found.expect("an SE ad exists in this world");
    println!("publisher: http://{}/", publisher.domain);
    println!("SE attack reached: {} ({})\n", landing.url, landing.page.title);

    // 2. Reconstruct the ad-loading process.
    let graph = BacktrackGraph::from_log(session.log());
    println!("backtracking graph:\n{}", graph.to_ascii(&landing.url));

    // 3. Attribute the ad.
    let seed_patterns = Pipeline::new(seacma_core::PipelineConfig {
        world: world.config().clone(),
        ..seacma_core::PipelineConfig::small(7)
    })
    .seed_patterns();
    let verdict = Attributor::new(seed_patterns).attribute(&graph, &landing.url);
    println!("served by: {verdict:?}\n");

    // 4. Extract + validate the milkable URL.
    let candidate = milkable::candidate(&graph, &landing.url).expect("upstream exists");
    println!("milkable candidate: {candidate}");
    let reference = landing.screenshot.dhash();
    let sources = validate_candidates(
        &world,
        vec![MilkingCandidate {
            url: candidate,
            ua: UaProfile::ChromeMac,
            cluster: 0,
            reference,
        }],
        SimTime::EPOCH,
    );
    println!("validated: {}\n", !sources.is_empty());

    // 5. Track the campaign for a week.
    let mut gsb = GsbService::new(&world);
    let mut vt = VirusTotal::new(1);
    let config = MilkingConfig {
        duration: SimDuration::from_days(7),
        lookup_tail: SimDuration::from_days(5),
        ..Default::default()
    };
    let out =
        Milker::new(&world, config).run_parallel(&sources, &mut gsb, &mut vt, SimTime::EPOCH, 1);
    println!("7-day tracking: {} sessions, {} fresh domains", out.sessions, out.discoveries.len());
    for d in &out.discoveries {
        let gsb_status = match d.gsb_listed_at {
            Some(at) => format!("GSB-listed {:.1}d later", (at - d.first_seen).as_days()),
            None => "never GSB-listed".into(),
        };
        println!("  {}  {:<26} {}", d.first_seen, d.domain, gsb_status);
    }
    println!(
        "\nfiles harvested: {} ({} already known to VirusTotal)",
        out.files.len(),
        out.files.iter().filter(|f| f.known_at_submit).count()
    );
}
