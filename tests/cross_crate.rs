//! Cross-crate integration: drives crawl → backtracking → milkable
//! extraction → validation → milking by hand, using each crate's public
//! API directly (no `Pipeline`), to pin the contracts between crates.

use seacma_core::blacklist::{GsbService, VirusTotal};
use seacma_core::browser::BrowserConfig;
use seacma_core::crawler::{visit_publisher_reusing, CrawlPolicy, VisitScratch};
use seacma_core::graph::{Attribution, Attributor, NetworkPattern};
use seacma_core::milker::{validate_candidates, Milker, MilkingCandidate, MilkingConfig};
use seacma_core::simweb::{SimDuration, SimTime, UaProfile, Vantage, World, WorldConfig};
use seacma_util::sym::SymbolArena;

fn world() -> World {
    World::generate(WorldConfig {
        seed: 0xC805,
        n_publishers: 250,
        n_hidden_only_publishers: 25,
        n_advertisers: 30,
        campaign_scale: 0.3,
        error_rate: 0.0,
        ..Default::default()
    })
}

#[test]
fn crawl_to_milking_hand_wired() {
    let w = world();
    let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);

    // Crawl until we have a few attack landings with milkable candidates.
    let mut arena = SymbolArena::new();
    let mut scratch = VisitScratch::new();
    let mut candidates = Vec::new();
    let mut attack_count = 0;
    for (i, p) in w.publishers().iter().enumerate() {
        let visit = visit_publisher_reusing(
            &w, p, cfg, SimTime(i as u64 * 2), CrawlPolicy::default(), None, &mut arena,
            &mut scratch,
        );
        for l in &visit.landings {
            if !l.truth_is_attack {
                continue;
            }
            attack_count += 1;
            if let Some(url) = &l.milkable_candidate {
                candidates.push(MilkingCandidate {
                    url: url.clone(),
                    ua: l.ua,
                    cluster: 0,
                    reference: l.dhash,
                });
            }
        }
        if candidates.len() >= 8 {
            break;
        }
    }
    assert!(attack_count > 0, "no SE attacks crawled");
    assert!(candidates.len() >= 8, "not enough milkable candidates");

    // Validate and milk.
    let sources = validate_candidates(&w, candidates, SimTime(5000));
    assert!(!sources.is_empty(), "validation rejected everything");
    let mut gsb = GsbService::new(&w);
    let mut vt = VirusTotal::new(2);
    let out = Milker::new(
        &w,
        MilkingConfig {
            duration: SimDuration::from_days(2),
            lookup_tail: SimDuration::from_days(1),
            ..Default::default()
        },
    )
    .run_parallel(&sources, &mut gsb, &mut vt, SimTime(5000), 1);
    assert!(
        out.discoveries.len() >= sources.len(),
        "each source should yield at least its current domain"
    );
    // Milked domains must not be publisher or advertiser domains.
    for d in &out.discoveries {
        assert!(w.publisher_by_domain(&d.domain).is_none());
    }
}

#[test]
fn attribution_chain_contract() {
    // The crawler's chain_urls must carry the network invariant for
    // seed-network ads end to end.
    let w = world();
    let cfg = BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential);
    let patterns: Vec<NetworkPattern> = w
        .networks()
        .iter()
        .filter(|n| n.seed_listed)
        .map(|n| NetworkPattern { name: n.name.clone(), url_invariant: n.url_invariant.clone() })
        .collect();
    let attributor = Attributor::new(patterns);

    let mut arena = SymbolArena::new();
    let mut scratch = VisitScratch::new();
    let mut known = 0;
    let mut unknown = 0;
    for p in w.publishers().iter().take(120) {
        // Hidden-only publishers must attribute Unknown; seed publishers
        // mostly Known.
        let only_hidden = p.networks.iter().all(|id| !w.networks()[id.0 as usize].seed_listed);
        let visit = visit_publisher_reusing(
            &w, p, cfg, SimTime::EPOCH, CrawlPolicy::default(), None, &mut arena, &mut scratch,
        );
        for l in &visit.landings {
            match attributor.attribute_urls(l.chain_urls().into_iter()) {
                Attribution::Known(name) => {
                    known += 1;
                    assert!(
                        !only_hidden,
                        "hidden-only publisher attributed to seed network {name}"
                    );
                }
                Attribution::Unknown => unknown += 1,
            }
        }
    }
    assert!(known > 50, "known attributions: {known}");
    assert!(unknown > 0, "some landings must be unknown (hidden networks)");
}

#[test]
fn locking_pages_need_instrumentation_end_to_end() {
    // A stock-automation crawl still completes but captures fewer
    // landings on lock-heavy pages; the instrumented crawl never wedges.
    let w = world();
    let instrumented = BrowserConfig::instrumented(UaProfile::Ie10Windows, Vantage::Residential);
    let stock = BrowserConfig::stock_automation(UaProfile::Ie10Windows, Vantage::Residential);
    let mut arena = SymbolArena::new();
    let mut scratch = VisitScratch::new();
    let mut li = 0;
    let mut ls = 0;
    for p in w.publishers().iter().take(150) {
        for (config, n) in [(instrumented, &mut li), (stock, &mut ls)] {
            *n += visit_publisher_reusing(
                &w, p, config, SimTime::EPOCH, CrawlPolicy::default(), None, &mut arena,
                &mut scratch,
            )
            .landings
            .len();
        }
    }
    assert!(li > 0);
    // The stock crawler is both detectable (webdriver) and lockable, so it
    // must see strictly less.
    assert!(ls <= li, "stock automation saw more than the instrumented browser");
}
