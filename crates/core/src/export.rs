//! Dataset export.
//!
//! The paper releases "all browser logs and screenshots related to the SE
//! attacks" collected during the study, to support research on SE
//! defenses and user training. This module serializes a measurement run
//! into that release format:
//!
//! * `landings.jsonl` — one JSON record per landing page (URLs, redirect
//!   chain, hashes, attribution inputs),
//! * `campaigns.json` — the discovered campaign clusters with labels,
//! * `milking.json` — discoveries, timelines and harvested intel,
//! * `screenshots/` — one PGM per campaign-cluster representative.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use seacma_util::json::{self, ToJson, Value};
use seacma_util::sym::SymbolArena;

use seacma_browser::{BrowserConfig, BrowserSession};
use seacma_crawler::LandingRecord;
use seacma_simweb::Vantage;

use crate::pipeline::{Pipeline, PipelineRun};

/// Summary of what was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportSummary {
    /// Landing records exported.
    pub landings: usize,
    /// Campaign clusters exported.
    pub campaigns: usize,
    /// Screenshot files written.
    pub screenshots: usize,
}

/// Exports a full run under `dir`.
pub fn export_run(
    pipeline: &Pipeline,
    run: &PipelineRun,
    dir: &Path,
) -> std::io::Result<ExportSummary> {
    fs::create_dir_all(dir.join("screenshots"))?;
    let landings: Vec<_> = run.discovery.landings().collect();

    // landings.jsonl — record symbols are resolved back to domain strings
    // so the release stays self-contained (readable without the run's
    // symbol table).
    let arena = run.discovery.arena.read();
    let mut f = fs::File::create(dir.join("landings.jsonl"))?;
    for l in &landings {
        json::to_writer(&mut f, &landing_json(l, &arena))?;
        f.write_all(b"\n")?;
    }

    // campaigns.json
    let campaigns: Vec<Value> = run
        .discovery
        .clusters
        .campaigns
        .iter()
        .enumerate()
        .map(|(i, c)| campaign_record(i, &run.discovery.labels[i], c))
        .collect();
    fs::write(dir.join("campaigns.json"), json::to_vec_pretty(&campaigns))?;

    // milking.json
    fs::write(dir.join("milking.json"), json::to_vec_pretty(&run.milking))?;

    // screenshots: re-render each campaign representative at its original
    // (url, time) coordinates.
    let mut shots = 0usize;
    for (i, c) in run.discovery.clusters.campaigns.iter().enumerate() {
        let rep = landings[c.representative];
        let cfg = BrowserConfig::instrumented(rep.ua, Vantage::Residential);
        let mut session = BrowserSession::new(pipeline.world(), cfg, rep.t);
        if let Ok(loaded) = session.navigate(&rep.landing_url) {
            fs::write(
                dir.join("screenshots").join(format!("cluster{i:03}.pgm")),
                loaded
                    .screenshot
                    .bitmap()
                    .expect("instrumented sessions capture full screenshots")
                    .to_pgm(),
            )?;
            shots += 1;
        }
    }

    Ok(ExportSummary { landings: landings.len(), campaigns: campaigns.len(), screenshots: shots })
}

/// One `landings.jsonl` line: the record's JSON with both arena symbols
/// replaced by the domain strings they stand for.
fn landing_json(l: &LandingRecord, arena: &SymbolArena) -> Value {
    let mut v = l.to_json();
    if let Value::Obj(pairs) = &mut v {
        for (k, field) in pairs.iter_mut() {
            match k.as_str() {
                "publisher_domain" => *field = Value::Str(arena.resolve(l.publisher_domain).into()),
                "landing_e2ld" => *field = Value::Str(arena.resolve(l.landing_e2ld).into()),
                _ => {}
            }
        }
    }
    v
}

/// One `campaigns.json` entry: the cluster's label, membership and
/// representative, in a fixed field order so exports are byte-stable.
fn campaign_record(
    index: usize,
    label: &crate::label::ClusterLabel,
    cluster: &seacma_vision::cluster::ScreenshotCluster,
) -> Value {
    Value::Obj(vec![
        ("index".to_string(), index.to_json()),
        ("label".to_string(), label.to_json()),
        ("members".to_string(), cluster.members.to_json()),
        ("domains".to_string(), cluster.domains.to_json()),
        ("representative".to_string(), cluster.representative.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineConfig;

    use std::collections::{BTreeSet, HashMap};

    use seacma_blacklist::ScanReport;
    use seacma_crawler::LandingRecord;
    use seacma_milker::{DomainDiscovery, MilkedFile, MilkingOutcome};
    use seacma_simweb::payload::{FileFormat, FilePayload};
    use seacma_simweb::{
        host::RedirectKind, PublisherId, SeCategory, SimTime, UaProfile, Url, Vantage,
    };
    use seacma_util::sym::Sym;
    use seacma_vision::cluster::ScreenshotCluster;
    use seacma_vision::dhash::Dhash;

    use crate::label::{BenignKind, ClusterLabel};

    fn roundtrip<T: ToJson + json::FromJson + PartialEq + std::fmt::Debug>(x: &T) {
        let compact = json::to_string(x);
        assert_eq!(&json::from_str::<T>(&compact).expect("compact parses"), x);
        let pretty = json::to_string_pretty(x);
        assert_eq!(&json::from_str::<T>(&pretty).expect("pretty parses"), x);
    }

    /// The in-repo `LandingRecord` shape survives serialize → parse
    /// exactly, including nested tuple arrays and optionals. (Domain
    /// symbols serialize as bare numbers here; the release format resolves
    /// them — see `landing_lines_resolve_arena_symbols`.)
    #[test]
    fn landing_record_roundtrip() {
        let rec = LandingRecord {
            publisher: PublisherId(7),
            publisher_domain: Sym(0),
            ua: UaProfile::ChromeAndroid,
            vantage: Vantage::Residential,
            click_ordinal: 2,
            landing_url: Url::http("evil.club", "/l/x.php?a=1&b=2"),
            landing_e2ld: Sym(1),
            dhash: Dhash(u128::MAX - 5),
            hops: vec![
                (
                    Url::http("pub.example", "/"),
                    Url::http("adnet.example", "/r"),
                    RedirectKind::Http302,
                ),
                (
                    Url::http("adnet.example", "/r"),
                    Url::http("evil.club", "/l/x.php?a=1&b=2"),
                    RedirectKind::JsLocation,
                ),
            ],
            involved_urls: vec![
                Url::http("pub.example", "/"),
                Url::http("adnet.example", "/tag.js"),
            ],
            milkable_candidate: Some(Url::http("adnet.example", "/r")),
            t: SimTime(123_456),
            truth_is_attack: true,
        };
        roundtrip(&rec);
        let none = LandingRecord { milkable_candidate: None, ..rec };
        roundtrip(&none);
    }

    /// The release format resolves record symbols to strings, and the
    /// writer escapes every hostile class those strings can carry.
    #[test]
    fn landing_lines_resolve_arena_symbols() {
        let mut arena = SymbolArena::new();
        // Exercise every escape class the writer must handle.
        let hostile = "we\"ird\\pub\n\tdomain \u{1}π☂.example";
        let rec = LandingRecord {
            publisher: PublisherId(7),
            publisher_domain: arena.intern(hostile),
            ua: UaProfile::ChromeAndroid,
            vantage: Vantage::Residential,
            click_ordinal: 2,
            landing_url: Url::http("evil.club", "/l/x.php?a=1&b=2"),
            landing_e2ld: arena.intern("evil.club"),
            dhash: Dhash(u128::MAX - 5),
            hops: Vec::new(),
            involved_urls: vec![Url::http("pub.example", "/")],
            milkable_candidate: None,
            t: SimTime(123_456),
            truth_is_attack: true,
        };
        let line = json::to_string(&landing_json(&rec, &arena));
        let parsed = json::parse(&line).expect("resolved line parses");
        assert_eq!(parsed.get("publisher_domain").and_then(Value::as_str), Some(hostile));
        assert_eq!(parsed.get("landing_e2ld").and_then(Value::as_str), Some("evil.club"));
        // Untouched fields keep the record's own serialization.
        assert_eq!(parsed.get("click_ordinal"), rec.to_json().get("click_ordinal"));
    }

    /// The `campaigns.json` entry shape: `campaign_record` output parses
    /// back to an identical `Value`, and labels round-trip as typed enums.
    #[test]
    fn campaign_record_roundtrip() {
        let cluster = ScreenshotCluster {
            members: vec![0, 3, 9],
            domains: BTreeSet::from(["a.top".to_string(), "b.club".to_string()]),
            representative: 3,
        };
        for label in [
            ClusterLabel::Campaign(SeCategory::TechnicalSupport),
            ClusterLabel::Benign(BenignKind::Parked),
        ] {
            let record = campaign_record(4, &label, &cluster);
            let text = json::to_string_pretty(&record);
            assert_eq!(json::parse(&text).expect("record parses"), record);
            roundtrip(&label);
        }
        roundtrip(&cluster);
    }

    /// The `milking.json` shape: maps with non-string keys, tuple vecs,
    /// optional timestamps, u128 content hashes.
    #[test]
    fn milking_outcome_roundtrip() {
        let report = ScanReport {
            sha: u128::MAX / 3,
            detections: 14,
            total_engines: 68,
            label: Some("trojan.fake\"flash\"".into()),
            scanned_at: SimTime(99),
        };
        let outcome = MilkingOutcome {
            sessions: 42,
            discoveries: vec![
                DomainDiscovery {
                    domain: "fresh1.top".into(),
                    landing_url: Url::http("fresh1.top", "/idx"),
                    dhash: Dhash(u128::MAX - 7),
                    source_idx: 0,
                    cluster: 1,
                    first_seen: SimTime(10),
                    gsb_listed_at_discovery: false,
                    gsb_listed_at: Some(SimTime(4_000)),
                },
                DomainDiscovery {
                    domain: "fresh2.club".into(),
                    landing_url: Url::http("fresh2.club", "/idx"),
                    dhash: Dhash(2),
                    source_idx: 1,
                    cluster: 1,
                    first_seen: SimTime(20),
                    gsb_listed_at_discovery: true,
                    gsb_listed_at: None,
                },
            ],
            files: vec![MilkedFile {
                payload: FilePayload { family: 3, sha: 1 << 100, format: FileFormat::Pe },
                page: Url::http("fresh1.top", "/dl"),
                t: SimTime(15),
                known_at_submit: false,
                initial: report.clone(),
                final_report: Some(ScanReport { detections: 31, ..report }),
            }],
            timelines: HashMap::from([
                (0, vec![(SimTime(10), "fresh1.top".to_string())]),
                (3, vec![(SimTime(11), "a.top".to_string()), (SimTime(12), "b.top".to_string())]),
            ]),
            scam_phones: vec![("+1-888-555-0100".into(), SimTime(30), 1)],
            survey_gateways: vec![(Url::http("gw.example", "/s?q=1"), SimTime(31), 2)],
            notification_grants: vec![(Url::http("push.example", "/"), SimTime(32), 0)],
        };
        roundtrip(&outcome);
    }

    /// Float-bearing summary values (rates, lags) keep their exact bits
    /// through the writer — integral floats keep a `.0` marker so they
    /// re-parse as floats.
    #[test]
    fn float_fields_roundtrip() {
        let summary = Value::Obj(vec![
            ("gsb_init_rate".to_string(), 0.127f64.to_json()),
            ("mean_lag_days".to_string(), 2.0f64.to_json()),
            ("tiny".to_string(), 1e-12f64.to_json()),
        ]);
        let text = json::to_string(&summary);
        assert!(text.contains("2.0"), "integral float must keep .0: {text}");
        assert_eq!(json::parse(&text).unwrap(), summary);
        assert_eq!(json::from_str::<f64>(&json::to_string(&0.127f64)).unwrap(), 0.127);
    }

    #[test]
    fn export_writes_release_files() {
        let mut config = PipelineConfig::small(3);
        config.world.n_publishers = 150;
        config.world.n_hidden_only_publishers = 15;
        config.milking.duration = seacma_simweb::SimDuration::from_days(1);
        config.milking.lookup_tail = seacma_simweb::SimDuration::from_days(1);
        let pipeline = Pipeline::new(config);
        let run = pipeline.run_to_completion();
        let dir = std::env::temp_dir().join(format!("seacma-export-{}", std::process::id()));
        let summary = export_run(&pipeline, &run, &dir).expect("export ok");
        assert!(summary.landings > 0);
        assert_eq!(summary.campaigns, run.discovery.clusters.campaigns.len());
        assert!(dir.join("landings.jsonl").exists());
        assert!(dir.join("campaigns.json").exists());
        assert!(dir.join("milking.json").exists());
        // jsonl parses back.
        let text = std::fs::read_to_string(dir.join("landings.jsonl")).unwrap();
        for line in text.lines().take(5) {
            let v = json::parse(line).unwrap();
            assert!(v.get("landing_url").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
