//! `seacma` — command-line front end to the measurement pipeline.
//!
//! ```text
//! seacma discover [opts]          discovery phase + Tables 1–3, §4.3 census
//! seacma track    [opts]          full run incl. milking + Table 4
//! seacma report   [opts]          full run + every analysis of seacma-report:
//!                                 text on stdout, or one HTML file with --out
//! seacma export   [opts] --out D  full run + release-dataset dump
//! seacma mine     [opts]          automatic invariant mining (stage ①)
//! seacma gallery  --out D         campaign screenshot gallery (PGM)
//!
//! options: --seed N  --publishers N  --scale F  --milk-days N  --quick
//! report:  --only ID[,ID…]   just these analyses
//!          --bench-dir DIR   checkout whose benchmark baseline and
//!                            EVAL_detect.json feed the two bench sections
//! ```
//!
//! Every table is an `Analysis::compute` printed by `compose_text`. At a
//! fixed argv the output is byte-identical run to run; `scripts/verify.sh`
//! diffs `report --quick --seed 42` against `REPORT_seed42.txt` and two
//! `--out` files against each other.

use std::path::{Path, PathBuf};
use std::process::exit;

use seacma_bench::parse_or_exit;
use seacma_core::export::export_run;
use seacma_core::invariants::mine_world_patterns;
use seacma_core::pipeline::DiscoverySummary;
use seacma_core::{Pipeline, RunArgs};
use seacma_report::{compose_html, compose_text, standard_analyses, Analysis, ReportInputs};

const USAGE: &str = "usage: seacma <discover|track|report|export|mine|gallery> \
    [--seed N] [--publishers N] [--scale F] [--milk-days N] [--quick] [--out PATH]\n       \
    report also takes [--only ID[,ID...]] [--bench-dir DIR]";

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
    let world = pipeline.world();
    let d = pipeline.discover();
    let s = DiscoverySummary::over(&d);
    println!(
        "pool {} | visited {} | productive {} | clicks {} | landings {}",
        s.pool_size,
        s.visited,
        s.with_landings,
        d.crawl.click_count(),
        s.landings
    );
    let inputs = ReportInputs::from_discovery(world, &d);
    let b = &inputs.cluster_census;
    println!(
        "clusters: {} SE campaigns + {} benign ({} θc-passing total; {} more filtered by θc, {} noise points)",
        b.se_campaigns,
        b.benign(),
        b.total(),
        d.clusters.filtered.len(),
        d.clusters.noise
    );
    let ranked_within =
        |n| world.publishers().iter().filter(|p| p.rank.is_some_and(|r| r <= n)).count();
    println!(
        "popularity: {} publishers ranked in top-10k, {} in top-1k",
        ranked_within(10_000),
        ranked_within(1_000)
    );
    let (known, unknown) = inputs.adnets.iter().fold((0, 0), |(k, u), r| {
        if r.network == "Unknown" { (k, u + r.se_pages) } else { (k + r.se_pages, u) }
    });
    let total = known + unknown;
    if total > 0 {
        println!(
            "SE attacks attributed to seed networks: {known}/{total} ({:.0}%), unknown: {unknown} ({:.0}%)",
            100.0 * known as f64 / total as f64,
            100.0 * unknown as f64 / total as f64
        );
    }
    println!();
    let tables = select("campaign-statistics,publisher-categories,adnet-attribution,cluster-census");
    print!("{}", compose_text(&tables, &inputs));
}

fn cmd_track(args: &RunArgs) {
    let pipeline = Pipeline::new(args.config());
    let run = pipeline.run_to_completion();
    println!(
        "sources {} | sessions {} | new domains {} | files {}",
        run.sources.len(),
        run.milking.sessions,
        run.milking.discoveries.len(),
        run.milking.files.len()
    );
    match run.milking.mean_gsb_lag_days() {
        Some(lag) => println!("mean GSB lag: {lag:.1} days"),
        None => println!("no milked domain was ever listed by GSB"),
    }
    if !run.milking.scam_phones.is_empty() {
        println!("scam phones: {:?}", run.milking.scam_phones.iter().map(|(p, _, _)| p).collect::<Vec<_>>());
    }
    println!(
        "new networks: {:?} (+{} publishers)\n",
        run.new_networks.new_patterns.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
        run.new_networks.new_publishers
    );
    let inputs = ReportInputs::from_run(pipeline.world(), &run);
    print!("{}", compose_text(&select("milked-domains"), &inputs));
}

fn cmd_report(args: &RunArgs, out: Option<&Path>, only: Option<&str>, bench_dir: Option<&Path>) {
    let analyses = only.map_or_else(standard_analyses, select);
    let pipeline = Pipeline::new(args.config());
    let run = pipeline.run_to_completion();
    let mut inputs = ReportInputs::from_run(pipeline.world(), &run);
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

fn cmd_mine(args: &RunArgs) {
    let pipeline = Pipeline::new(args.config());
    for (name, mined) in mine_world_patterns(pipeline.world(), 5) {
        println!(
            "{name}: js={:?} url={:?}",
            mined.js_token.as_deref().unwrap_or("-"),
            mined.url_token.as_deref().unwrap_or("-")
        );
    }
}

fn cmd_gallery(args: &RunArgs, out: &Path) {
    use seacma_simweb::visual::VisualTemplate;
    std::fs::create_dir_all(out).expect("create out dir");
    let items: [(&str, VisualTemplate); 6] = [
        ("fake_software", VisualTemplate::FakeSoftware { skin: 3 }),
        ("registration", VisualTemplate::Registration { skin: 1 }),
        ("lottery", VisualTemplate::Lottery { skin: 0 }),
        ("chrome_notifications", VisualTemplate::ChromeNotification { skin: 0 }),
        ("scareware", VisualTemplate::Scareware { skin: 2 }),
        ("tech_support", VisualTemplate::TechSupport { skin: 0 }),
    ];
    for (name, t) in items {
        let path = out.join(format!("{name}.pgm"));
        std::fs::write(&path, t.render(args.seed).to_pgm()).expect("write pgm");
        println!("wrote {}", path.display());
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
    let out = take_flag(&mut argv, "--out").map(PathBuf::from);
    let (only, bench_dir) = if cmd == "report" {
        (take_flag(&mut argv, "--only"), take_flag(&mut argv, "--bench-dir").map(PathBuf::from))
    } else {
        (None, None)
    };
    let args = parse_or_exit(argv, USAGE);
    let out_dir = out.clone().unwrap_or_else(|| PathBuf::from("seacma-out"));
    match cmd.as_str() {
        "discover" => cmd_discover(&args),
        "track" => cmd_track(&args),
        "report" => cmd_report(&args, out.as_deref(), only.as_deref(), bench_dir.as_deref()),
        "export" => cmd_export(&args, &out_dir),
        "mine" => cmd_mine(&args),
        "gallery" => cmd_gallery(&args, &out_dir),
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}
