//! `report` — generate the deterministic self-contained HTML analysis
//! report from a seeded end-to-end measurement.
//!
//! ```text
//! report [--seed N] [--out FILE] [--bench-dir DIR]
//! ```
//!
//! Runs the batch pipeline at `PipelineConfig::small(seed)`, extracts
//! [`ReportInputs`] from the run (plus, from the checkout rooted at
//! `--bench-dir`, `benchmark/results/baseline.json` and
//! `EVAL_detect.json`), and composes the six standard
//! analyses into one HTML file. Two invocations with equal arguments and
//! equal bench artifacts produce byte-identical files — `scripts/verify.sh`
//! diffs them. Operator notes go to stderr; the only file touched is
//! `--out`.

use std::path::PathBuf;
use std::process::ExitCode;

use seacma_core::{Pipeline, PipelineConfig};
use seacma_report::{compose_html, standard_analyses, ReportInputs};

struct Args {
    seed: u64,
    out: PathBuf,
    bench_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 42, out: PathBuf::from("report.html"), bench_dir: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--bench-dir" => args.bench_dir = Some(PathBuf::from(value("--bench-dir")?)),
            "--help" | "-h" => {
                return Err("usage: report [--seed N] [--out FILE] [--bench-dir DIR]".to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("# running pipeline at seed {} (PipelineConfig::small)", args.seed);
    let pipeline = Pipeline::new(PipelineConfig::small(args.seed));
    let run = pipeline.run_to_completion();

    let mut inputs = ReportInputs::from_run(pipeline.world(), &run);
    if let Some(dir) = &args.bench_dir {
        inputs = inputs.with_bench_dir(dir);
        eprintln!("# loaded {} bench points from {}", inputs.bench.len(), dir.display());
    }
    eprintln!(
        "# inputs: {} campaigns, {} clusters, {} listed + {} unlisted milked domains, {} adnets",
        inputs.campaigns.len(),
        inputs.cluster_sizes.len(),
        inputs.gsb_lag_days.len(),
        inputs.gsb_unlisted,
        inputs.adnets.len(),
    );

    let html = compose_html("SEACMA analysis report", &standard_analyses(), &inputs);
    if let Err(e) = std::fs::write(&args.out, &html) {
        eprintln!("cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {} ({} bytes)", args.out.display(), html.len());
    ExitCode::SUCCESS
}
