//! Regenerates the §4.5 VirusTotal analysis of milked files: how many
//! were already known, how many the matured AV ensemble flags, and the
//! label distribution.

use std::collections::HashMap;

use seacma_bench::{banner, paper_note, run_args};
use seacma_core::Pipeline;
use seacma_milker::downloads::DownloadStats;

fn main() {
    let args = run_args();
    banner("VirusTotal analysis of milked files (paper §4.5)");
    let run = Pipeline::new(args.config()).run_to_completion();
    let files = &run.milking.files;
    let stats = DownloadStats::over(files);
    println!("files milked:                  {}", stats.total);
    println!(
        "already known to VT at submit: {} ({:.1}%)",
        stats.known_at_submit,
        pct(stats.known_at_submit, stats.total)
    );
    println!(
        "flagged malicious after rescan: {} ({:.1}%)",
        stats.finally_malicious,
        pct(stats.finally_malicious, stats.total)
    );
    println!(
        "flagged by >= 15 engines:      {} ({:.1}%)",
        stats.flagged_15_plus,
        pct(stats.flagged_15_plus, stats.total)
    );

    let mut formats: HashMap<&str, usize> = HashMap::new();
    let mut labels: HashMap<String, usize> = HashMap::new();
    for f in files {
        *formats
            .entry(match f.payload.format {
                seacma_simweb::FileFormat::Pe => "Windows PE",
                seacma_simweb::FileFormat::Dmg => "macOS DMG",
                seacma_simweb::FileFormat::Crx => "extension CRX",
            })
            .or_default() += 1;
        if let Some(l) = f.final_report.as_ref().and_then(|r| r.label.clone()) {
            *labels.entry(l).or_default() += 1;
        }
    }
    println!("\nformats: {formats:?}");
    let mut labels: Vec<(String, usize)> = labels.into_iter().collect();
    labels.sort_by(|a, b| b.1.cmp(&a.1));
    println!("labels:  {labels:?}");
    paper_note(&[
        "9,476 files milked in 14 days; only 1,203 already known to VirusTotal",
        ">9,000 flagged malicious after the 3-month rescan; >4,000 by >=15 AVs",
        "Trojan, Adware and PUP were the most popular labels",
    ]);
}

fn pct(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}
