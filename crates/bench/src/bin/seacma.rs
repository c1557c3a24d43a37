//! `seacma` — command-line front end to the measurement pipeline.
//!
//! ```text
//! seacma discover [opts]          discovery phase: funnel ①–⑤, Tables 1–3, §4.3 census
//! seacma report   [opts]          full run + every analysis of seacma-report:
//!                                 text on stdout, or one HTML file with --out
//! seacma export   [opts] --out D  full run + release-dataset dump
//! seacma gallery  --out D         campaign screenshot gallery (PGM)
//! seacma eval [--quick] [--out F] online-detection quality on a fixed world:
//!                                 precision/recall, seen and held-out split
//!
//! options: --seed N  --publishers N  --scale F  --milk-days N  --quick
//! report:  --only ID[,ID…]   just these analyses
//!          --bench-dir DIR   checkout whose benchmark baseline and
//!                            EVAL_detect.json feed the two bench sections
//! ```
//!
//! Every table is an `Analysis::compute` printed by `compose_text`. At a
//! fixed argv the output is byte-identical run to run; `scripts/verify.sh`
//! diffs `report --quick --seed 42` against `REPORT_seed42.txt`, two
//! `--out` files against each other, and `eval --out` against
//! `EVAL_detect.json`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::exit;

use seacma_core::detecteval::{eval_observations, EvalObservation};
use seacma_core::export::export_run;
use seacma_core::simweb::visual::VisualTemplate;
use seacma_core::{Pipeline, PipelineConfig, RunArgs};
use seacma_daemon::{Daemon, ReputationSnapshot};
use seacma_report::{compose_html, compose_text, standard_analyses, Analysis, ReportInputs};
use seacma_simweb::WorldConfig;
use seacma_util::json::{self, Value};

const USAGE: &str = "usage: seacma <discover|report|export|gallery> \
    [--seed N] [--publishers N] [--scale F] [--milk-days N] [--quick]\n       \
    report, export and gallery take [--out PATH]; \
    report also takes [--only ID[,ID...]] [--bench-dir DIR]\n       \
    seacma eval [--quick] [--out PATH]   (a fixed world)";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    exit(2)
}

/// Removes `flag VALUE` from `args` and returns the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 == args.len() {
        fail(&format!("{flag} needs a value"));
    }
    args.remove(at);
    Some(args.remove(at))
}

/// The standard analyses whose ids `only` lists (comma-separated).
fn select(only: &str) -> Vec<Box<dyn Analysis>> {
    let all = standard_analyses();
    let ids: Vec<&str> = only.split(',').collect();
    if let Some(unknown) = ids.iter().find(|id| all.iter().all(|a| a.id() != **id)) {
        let known: Vec<&str> = all.iter().map(|a| a.id()).collect();
        fail(&format!("--only: no analysis {unknown:?} (have {})", known.join(", ")));
    }
    all.into_iter().filter(|a| ids.contains(&a.id())).collect()
}

fn cmd_discover(args: &RunArgs) {
    let pipeline = Pipeline::new(args.config());
    let inputs = ReportInputs::from_discovery(pipeline.world(), &pipeline.discover());
    let tables = select(
        "pipeline-funnel,campaign-statistics,publisher-categories,adnet-attribution,cluster-census",
    );
    print!("{}", compose_text(&tables, &inputs));
}

fn cmd_report(args: &RunArgs, out: Option<&Path>, only: Option<&str>, bench_dir: Option<&Path>) {
    let analyses = only.map_or_else(standard_analyses, select);
    let pipeline = Pipeline::new(args.config());
    let run = pipeline.run_to_completion();
    let mut inputs = ReportInputs::from_run(&pipeline, &run);
    if let Some(dir) = bench_dir {
        inputs = inputs.with_bench_dir(dir);
        eprintln!("# loaded {} bench points from {}", inputs.bench.len(), dir.display());
    }
    let Some(out) = out else {
        print!("{}", compose_text(&analyses, &inputs));
        return;
    };
    let html = compose_html("SEACMA analysis report", &analyses, &inputs);
    if let Err(e) = std::fs::write(out, &html) {
        eprintln!("cannot write {}: {e}", out.display());
        exit(1);
    }
    eprintln!("# wrote {} ({} bytes)", out.display(), html.len());
}

fn cmd_export(args: &RunArgs, out: &Path) {
    let pipeline = Pipeline::new(args.config());
    let run = pipeline.run_to_completion();
    match export_run(&pipeline, &run, out) {
        Ok(s) => println!(
            "exported {} landings, {} campaigns, {} screenshots to {}\n\
             files: landings.jsonl, campaigns.json, milking.json, screenshots/*.pgm",
            s.landings,
            s.campaigns,
            s.screenshots,
            out.display()
        ),
        Err(e) => {
            eprintln!("export failed: {e}");
            exit(1);
        }
    }
}

fn cmd_gallery(args: &RunArgs, out: &Path) {
    let items: [(&str, VisualTemplate); 9] = [
        ("fake_software", VisualTemplate::FakeSoftware { skin: 3 }),
        ("registration", VisualTemplate::Registration { skin: 1 }),
        ("lottery", VisualTemplate::Lottery { skin: 0 }),
        ("chrome_notifications", VisualTemplate::ChromeNotification { skin: 0 }),
        ("scareware", VisualTemplate::Scareware { skin: 2 }),
        ("tech_support", VisualTemplate::TechSupport { skin: 0 }),
        ("parked_domain", VisualTemplate::Parked { provider: 2 }),
        ("stock_adult", VisualTemplate::StockAdult { image: 1 }),
        ("url_shortener", VisualTemplate::ShortenerFrame { service: 0 }),
    ];
    let write_all = || -> std::io::Result<()> {
        std::fs::create_dir_all(out)?;
        for (name, template) in items {
            let path = out.join(format!("{name}.pgm"));
            std::fs::write(&path, template.render(args.seed).to_pgm())?;
            println!("wrote {}", path.display());
        }
        Ok(())
    };
    if let Err(e) = write_all() {
        eprintln!("gallery failed: {e}");
        exit(1);
    }
}

/// Precision/recall of `snap`'s flagged verdicts against ground truth.
fn score_split(name: &str, snap: &ReputationSnapshot, evals: &[EvalObservation]) -> (String, Value) {
    let mut scratch = Vec::new();
    let (mut tp, mut fp, mut fond, mut tn) = (0u64, 0u64, 0u64, 0u64);
    // False positives by verdict kind: an index-match FP is a benign
    // template cluster that survived θc (the paper removes those by
    // manual labeling); a suspicious FP is a benign page whose structure
    // trips the feature threshold.
    let (mut fp_index, mut fp_feature) = (0u64, 0u64);
    for e in evals {
        let v = snap.detect_with(&e.obs, &mut scratch);
        match (v.flagged(), e.truth_attack) {
            (true, true) => tp += 1,
            (true, false) => {
                fp += 1;
                match v.kind() {
                    "suspicious" => fp_feature += 1,
                    _ => fp_index += 1,
                }
            }
            (false, true) => fond += 1,
            (false, false) => tn += 1,
        }
    }
    let precision = if tp + fp > 0 { tp as f64 / (tp + fp) as f64 } else { 1.0 };
    let recall = if tp + fond > 0 { tp as f64 / (tp + fond) as f64 } else { 1.0 };
    println!(
        "{name:>9} split: {} obs ({} attack)  precision {precision:.4}  recall {recall:.4}  \
         (fp: {fp_index} index-match, {fp_feature} feature-score)",
        evals.len(),
        tp + fond,
    );
    (
        name.to_string(),
        Value::Obj(vec![
            ("observations".into(), Value::UInt(evals.len() as u128)),
            ("attacks".into(), Value::UInt((tp + fond) as u128)),
            ("true_positives".into(), Value::UInt(tp as u128)),
            ("false_positives".into(), Value::UInt(fp as u128)),
            ("fp_index_match".into(), Value::UInt(fp_index as u128)),
            ("fp_feature_score".into(), Value::UInt(fp_feature as u128)),
            ("false_negatives".into(), Value::UInt(fond as u128)),
            ("true_negatives".into(), Value::UInt(tn as u128)),
            ("precision".into(), Value::Float((precision * 1e4).round() / 1e4)),
            ("recall".into(), Value::Float((recall * 1e4).round() / 1e4)),
        ]),
    )
}

/// Online-detection quality (DESIGN.md §2j; EXPERIMENTS.md "Online
/// detection"): scores whole page-load observations with the daemon
/// snapshot's frozen detector against the simulated world's ground truth,
/// on two splits — *seen* (every campaign fed to the index) and *held-out*
/// (whole campaigns withheld from the feed, so only the escalation and
/// feature-threshold stages can catch them — the generalization claim).
/// The world is fixed, so the shared world flags do not apply. A quality
/// result, not a timing: exactness is `tests/detect_exactness.rs`'s,
/// latency is `benchmark/`'s (`detect.*_ns`, `daemon.*_p50_us`).
fn cmd_eval(quick: bool, out: Option<&Path>) {
    let mut config = PipelineConfig::small(0x5EAC_DE7);
    if quick {
        config.world.n_publishers = 250;
        config.world.n_hidden_only_publishers = 25;
        config.world.n_advertisers = 20;
    } else {
        config.world = WorldConfig {
            seed: 0x5EAC_DE7,
            n_publishers: 2_000,
            n_hidden_only_publishers: 200,
            n_advertisers: 150,
            campaign_scale: 0.3,
            ..Default::default()
        };
    }

    let pipeline = Pipeline::new(config);
    let discovery = pipeline.discover();
    let evals = eval_observations(pipeline.world(), &discovery);

    // Held-out split: every 4th ground-truth campaign id (sorted) is
    // withheld from the held-out daemon's feed entirely — at detection
    // time its pages are campaigns the index has never seen.
    let ids: Vec<u32> =
        evals.iter().filter_map(|e| e.truth_campaign).collect::<BTreeSet<_>>().into_iter().collect();
    let held_out: BTreeSet<u32> = ids.iter().copied().skip(3).step_by(4).collect();
    assert!(
        ids.len() < 2 || !held_out.is_empty(),
        "need at least one held-out campaign to measure generalization"
    );
    let withheld = |e: &EvalObservation| e.truth_campaign.is_some_and(|c| held_out.contains(&c));

    // Two daemons over the same epoch feed: the seen daemon ingests every
    // point; the held-out daemon's feed drops every point whose landing
    // belongs to a held-out campaign. Batches are contiguous chunks of
    // the flattened landing order, so `evals[i]` describes feed point `i`.
    let batches = pipeline.crawl_epoch_batches(&discovery);
    let served = |keep: &dyn Fn(&EvalObservation) -> bool| {
        let mut daemon = Daemon::new(pipeline.tracker_config());
        let mut fed = evals.iter();
        for batch in &batches {
            let kept = batch.iter().zip(&mut fed).filter(|(_, e)| keep(e));
            daemon.ingest_all(kept.map(|(p, _)| p.clone()));
            daemon.close_epoch();
        }
        daemon.handle().snapshot()
    };
    let snap = served(&|_| true);
    let seen_eval = score_split("seen", &snap, &evals);
    let held_evals: Vec<EvalObservation> =
        evals.iter().filter(|e| !e.truth_attack || withheld(e)).copied().collect();
    let held_eval = score_split("held_out", &served(&|e| !withheld(e)), &held_evals);

    if let Some(path) = out {
        let doc = Value::Obj(vec![
            (
                "config".into(),
                Value::Obj(vec![
                    ("publishers".into(), Value::UInt(pipeline.config().world.n_publishers as u128)),
                    ("observations".into(), Value::UInt(evals.len() as u128)),
                    ("resident_points".into(), Value::UInt(snap.resident_points() as u128)),
                    ("campaigns".into(), Value::UInt(ids.len() as u128)),
                    ("held_out_campaigns".into(), Value::UInt(held_out.len() as u128)),
                ]),
            ),
            ("eval".into(), Value::Obj(vec![seen_eval, held_eval])),
        ]);
        if let Err(e) = std::fs::write(path, json::to_string_pretty(&doc) + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        }
        println!("\nwrote {}", path.display());
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        fail("missing subcommand");
    }
    let cmd = argv.remove(0);
    if cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        return;
    }
    // `discover` writes no file: its `--out` stays in argv for the shared
    // parser to reject, as `--only` does outside `report`.
    let out =
        if cmd == "discover" { None } else { take_flag(&mut argv, "--out").map(PathBuf::from) };
    let (only, bench_dir) = if cmd == "report" {
        (take_flag(&mut argv, "--only"), take_flag(&mut argv, "--bench-dir").map(PathBuf::from))
    } else {
        (None, None)
    };
    // `eval` runs one fixed world: of the shared flags only `--quick` is
    // read, so the world flags are unknown to it.
    if cmd == "eval" {
        let known = |a: &&String| matches!(a.as_str(), "--quick" | "--help" | "-h");
        if let Some(flag) = argv.iter().find(|a| !known(a)) {
            fail(&format!("unknown flag {flag:?}"));
        }
    }
    let args = match RunArgs::parse(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => fail(&e),
    };
    let out_dir = out.clone().unwrap_or_else(|| PathBuf::from("seacma-out"));
    match cmd.as_str() {
        "discover" => cmd_discover(&args),
        "report" => cmd_report(&args, out.as_deref(), only.as_deref(), bench_dir.as_deref()),
        "export" => cmd_export(&args, &out_dir),
        "gallery" => cmd_gallery(&args, &out_dir),
        "eval" => cmd_eval(args.quick, out.as_deref()),
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}
