//! Property suite for the report composer's determinism contract:
//! byte-identical HTML across repeated runs, stability under analysis
//! registration order, complete section coverage and self-containment —
//! over randomized (but seeded) input bundles — and for the projections:
//! text, HTML and ANSI all carry the table's cells, totals add up.

use seacma_core::adblock::AdblockResult;
use seacma_core::invariants::{MinedNetwork, MinedPattern};
use seacma_core::milker::DomainDiscovery;
use seacma_core::parking::ParkingConfusion;
use seacma_core::report::{
    ClusterBreakdown, EthicsReport, FunnelRow, Table1Row, Table2Row, Table3Row, Table4Row,
};
use seacma_core::simweb::{SeCategory, SimTime, SiteCategory, Url};
use seacma_core::tracker::LifeState;
use seacma_core::vision::dhash::Dhash;
use seacma_report::html::escape;
use seacma_report::{
    compose_html, standard_analyses, Analysis, BenchPoint, CampaignObs, CampaignStatistics,
    MilkedDomains, ReportInputs,
};
use seacma_util::forall;
use seacma_util::prop::Rng;

/// Builds a randomized-but-valid input bundle from a property rng.
fn arbitrary_inputs(rng: &mut Rng) -> ReportInputs {
    let mut inputs = ReportInputs::new(rng.u64());
    inputs.epoch = rng.below(40) as u32;
    let states =
        [LifeState::Active, LifeState::Dormant, LifeState::Dead, LifeState::Merged];
    for id in 0..rng.below(30) as u32 {
        let birth = rng.below(20) as u32;
        inputs.campaigns.push(CampaignObs {
            id,
            state: *rng.pick(&states),
            qualified: rng.bool(0.5),
            members: rng.range_u64(3, 200) as u32,
            domains: rng.range_u64(1, 40) as u32,
            birth_epoch: birth,
            last_growth_epoch: birth + rng.below(15) as u32,
        });
    }
    for _ in 0..rng.below(50) {
        inputs.cluster_sizes.push(rng.range_u64(3, 300) as u32);
    }
    inputs.cluster_sizes.sort_unstable_by(|a, b| b.cmp(a));
    for _ in 0..rng.below(80) {
        inputs.gsb_lag_days.push(rng.f64_range(0.0, 120.0));
    }
    inputs.gsb_lag_days.sort_by(f64::total_cmp);
    inputs.gsb_unlisted = rng.below(200);
    // The paper tables: a bundle either has a discovery behind it or not.
    if rng.bool(0.8) {
        for category in SeCategory::ALL {
            inputs.campaign_stats.push(Table1Row {
                category,
                se_attacks: rng.below(20_000) as usize,
                attack_domains: rng.below(3_000) as usize,
                campaigns: rng.below(60) as usize,
                gsb_domain_pct: rng.f64_range(0.0, 100.0),
                gsb_campaign_pct: rng.f64_range(0.0, 100.0),
            });
        }
        for &category in &SiteCategory::ALL[..rng.range(1, 20)] {
            inputs.publisher_categories.push(Table2Row {
                category,
                publishers: rng.below(500) as usize,
                pct: rng.f64_range(0.0, 100.0),
            });
        }
        for i in 0..rng.below(12) {
            inputs.adnets.push(Table3Row {
                network: format!("Net<{i}>&Co"),
                network_domains: rng.below(600) as usize,
                landing_pages: rng.below(16_000) as usize,
                se_pages: rng.below(8_000) as usize,
                se_pct: rng.f64_range(0.0, 100.0),
            });
        }
        inputs.adnets.push(Table3Row {
            network: "Unknown".to_string(),
            network_domains: 0,
            landing_pages: 0,
            se_pages: rng.below(6_000) as usize,
            se_pct: 0.0,
        });
        let groups = ["Fake Software", "Lottery/Gift", "Registration"];
        for group in groups {
            inputs.milked.push(Table4Row {
                group: group.to_string(),
                domains: rng.below(2_000) as usize,
                gsb_init_pct: rng.f64_range(0.0, 10.0),
                gsb_final_pct: rng.f64_range(10.0, 60.0),
            });
        }
        inputs.milked.push(Table4Row {
            group: "Total".to_string(),
            domains: inputs.milked.iter().map(|r| r.domains).sum(),
            gsb_init_pct: rng.f64_range(0.0, 10.0),
            gsb_final_pct: rng.f64_range(10.0, 60.0),
        });
        inputs.cluster_census = ClusterBreakdown {
            se_campaigns: rng.below(120) as usize,
            parked: rng.below(12) as usize,
            stock: rng.below(8) as usize,
            shortener: rng.below(5) as usize,
            spurious: rng.below(2) as usize,
            other: rng.below(2) as usize,
        };
        let clicks = rng.below(1_500) as usize;
        inputs.ethics = Some(EthicsReport {
            cpm_usd: 4.0,
            legit_domains: rng.below(300) as usize,
            legit_clicks: rng.below(3_000) as usize,
            worst: rng.bool(0.7).then(|| ("θ-shop.example".to_string(), clicks)),
            mean_clicks: rng.f64_range(0.0, 12.0),
        });
    }
    // The side experiments of a full run, over the same hostile names.
    for r in &inputs.adnets {
        let n = r.landing_pages;
        inputs.funnel.push(FunnelRow {
            stage: r.network.clone(),
            quantity: "landing pages".to_string(),
            count: n as u64,
        });
        inputs.adblock.push(AdblockResult {
            network: r.network.clone(),
            sampled: 500,
            blocked_fraction: r.se_pct / 100.0,
        });
        inputs.mined.push(MinedNetwork {
            network: r.network.clone(),
            mined: MinedPattern {
                js_token: (n % 5 > 0).then(|| format!("+'/n{n}/x.php'")),
                url_token: (n % 7 > 0).then(|| format!("/n{n}/x.php?z=<1>&c=0")),
            },
            pool_match: n % 3 > 0,
        });
        let gateway = Url::http(format!("gw{n}.example"), "/survey?a=1&b=<2>");
        inputs.scam_phones.push((format!("+1-800-555-{n:04}"), SimTime(n as u64), n));
        inputs.survey_gateways.push((gateway.clone(), SimTime(n as u64), n));
        inputs.notification_grants.push((gateway.clone(), SimTime(n as u64), n));
        inputs.timeline.push(DomainDiscovery {
            domain: gateway.host.clone(),
            landing_url: gateway,
            dhash: Dhash(n as u128),
            source_idx: 0,
            cluster: 0,
            first_seen: SimTime(n as u64),
            gsb_listed_at_discovery: false,
            gsb_listed_at: (n % 4 == 0).then_some(SimTime(2 * n as u64)),
        });
    }
    if !inputs.adnets.is_empty() {
        let count = |rng: &mut Rng| rng.below(400) as usize;
        inputs.adblock_filter_entries = rng.below(40);
        inputs.timeline_source = "http://tds.example/go?s=0&x=<y>".to_string();
        inputs.protection_window_days = inputs.gsb_lag_days.clone();
        inputs.milked_files =
            vec![("files <milked>".to_string(), 400 + count(rng)), ("known".to_string(), count(rng))];
        inputs.parking = ParkingConfusion {
            parked_filtered: count(rng),
            parked_missed: count(rng),
            other_benign_filtered: count(rng),
            campaigns_filtered: count(rng),
            kept: 1 + count(rng),
        };
    }
    for i in 0..rng.below(5) {
        inputs.bench.push(BenchPoint {
            series: format!("s{i}"),
            name: format!("bench/{i}"),
            metric: "median_ms".to_string(),
            value: rng.f64_range(0.0, 1e4),
        });
    }
    inputs
}

#[test]
fn html_is_byte_identical_across_repeated_runs() {
    forall!(40, |rng| {
        let inputs = arbitrary_inputs(rng);
        let a = compose_html("r", &standard_analyses(), &inputs);
        let b = compose_html("r", &standard_analyses(), &inputs);
        assert_eq!(a, b);
    });
}

#[test]
fn html_is_stable_under_registration_order() {
    forall!(25, |rng| {
        let inputs = arbitrary_inputs(rng);
        let reference = compose_html("r", &standard_analyses(), &inputs);
        // A seeded Fisher-Yates shuffle of the registration order.
        let mut shuffled = standard_analyses();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        assert_eq!(compose_html("r", &shuffled, &inputs), reference);
    });
}

#[test]
fn every_section_id_is_present() {
    forall!(25, |rng| {
        let inputs = arbitrary_inputs(rng);
        let html = compose_html("r", &standard_analyses(), &inputs);
        for a in standard_analyses() {
            let anchor = format!("<section id=\"{}\">", a.id());
            assert!(html.contains(&anchor), "missing section {}", a.id());
            assert!(html.contains(&format!("href=\"#{}\"", a.id())), "missing TOC entry");
        }
    });
}

#[test]
fn html_stays_self_contained_for_arbitrary_inputs() {
    forall!(25, |rng| {
        let mut inputs = arbitrary_inputs(rng);
        // Hostile strings must be escaped, never break self-containment.
        inputs.bench.push(BenchPoint {
            series: "<script>alert(1)</script>".to_string(),
            name: "<img src=\"http://evil\">".to_string(),
            metric: "median_ms".to_string(),
            value: 1.0,
        });
        let html = compose_html("r", &standard_analyses(), &inputs);
        for banned in ["<script", "<link", "<img", "@import"] {
            assert!(!html.contains(banned), "found banned token {banned:?}");
        }
        assert!(html.contains("&lt;script&gt;"), "hostile markup must appear escaped");
    });
}

#[test]
fn ansi_plain_projection_matches_table_text() {
    forall!(25, |rng| {
        let inputs = arbitrary_inputs(rng);
        for a in standard_analyses() {
            let table = a.compute(&inputs);
            let lines = a.render_ansi(&table);
            let plain: Vec<String> = lines.iter().skip(1).map(|l| l.plain()).collect();
            let expected: Vec<String> =
                table.render_text().lines().map(str::to_string).collect();
            assert_eq!(plain, expected, "{}", a.id());
        }
    });
}

/// The cells of a text grid, row by row, header first.
fn grid_cells<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<Vec<String>> {
    lines
        .filter(|l| l.starts_with('|'))
        .map(|l| {
            let inner = l.trim_matches('|');
            inner.split(" | ").map(|c| c.trim().to_string()).collect()
        })
        .collect()
}

#[test]
fn projections_agree_and_totals_add_up() {
    forall!(25, |rng| {
        let inputs = arbitrary_inputs(rng);
        for a in standard_analyses() {
            let table = a.compute(&inputs);
            let mut cells: Vec<Vec<String>> = vec![table.columns().to_vec()];
            cells.extend(table.rows().iter().map(|r| r.iter().map(|c| c.render()).collect()));

            // Text: every line equally wide, and the grid holds the cells.
            let text = table.render_text();
            let width = text.lines().next().unwrap().chars().count();
            assert!(text.lines().all(|l| l.chars().count() == width), "{}:\n{text}", a.id());
            assert_eq!(grid_cells(text.lines()), cells, "{} text", a.id());

            // ANSI: the same lines under a title.
            let ansi: Vec<String> = a.render_ansi(&table).iter().map(|l| l.plain()).collect();
            assert_eq!(grid_cells(ansi.iter().map(String::as_str)), cells, "{} ansi", a.id());

            // HTML: one <th>/<td> per cell, in order, escaped.
            let html = a.render_html(&table).html;
            let mut at = 0;
            for cell in cells.iter().flatten() {
                let want = format!(">{}</t", escape(cell));
                at += html[at..].find(&want).unwrap_or_else(|| panic!("{}: {cell:?}", a.id()))
                    + want.len();
            }
        }

        let uint = |table: &seacma_report::Table, row: usize, col: usize| -> u64 {
            table.rows()[row][col].render().parse().unwrap()
        };
        if !inputs.campaign_stats.is_empty() {
            let t1 = CampaignStatistics.compute(&inputs);
            let total = t1.rows().len() - 1;
            assert_eq!(t1.rows()[total][0].render(), "TOTAL");
            for col in 1..=3 {
                assert_eq!(uint(&t1, total, col), (0..total).map(|r| uint(&t1, r, col)).sum());
            }
            let t4 = MilkedDomains.compute(&inputs);
            let total = t4.rows().len() - 1;
            assert_eq!(t4.rows()[total][0].render(), "Total");
            assert_eq!(uint(&t4, total, 1), (0..total).map(|r| uint(&t4, r, 1)).sum());
        }
    });
}
