//! `seacma` — command-line front end to the measurement pipeline.
//!
//! ```text
//! seacma discover [opts]          discovery phase: funnel ①–⑤, Tables 1–3, §4.3 census
//! seacma report   [opts]          full run + every analysis of seacma-report:
//!                                 text on stdout, or one HTML file with --out
//! seacma export   [opts] --out D  full run + release-dataset dump
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

use seacma_core::export::export_run;
use seacma_core::simweb::visual::VisualTemplate;
use seacma_core::{Pipeline, RunArgs};
use seacma_report::{compose_html, compose_text, standard_analyses, Analysis, ReportInputs};

const USAGE: &str = "usage: seacma <discover|report|export|gallery> \
    [--seed N] [--publishers N] [--scale F] [--milk-days N] [--quick]\n       \
    report, export and gallery take [--out PATH]; \
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
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}
