//! Evaluates the automated parked-cluster filter — the paper's explicit
//! future-work item (§4.3): "Most of these domains could be automatically
//! filtered out using parking detection algorithms."
//!
//! The detector re-visits cluster representatives and scores structural
//! features only (no ground truth). We report its confusion matrix
//! against the ground-truth labels.

use seacma_bench::{banner, run_args};
use seacma_core::label::{BenignKind, ClusterLabel};
use seacma_core::parking::detect_parked_clusters;
use seacma_core::Pipeline;

fn main() {
    let args = run_args();
    banner("Automated parked-domain filtering (paper future work)");
    let pipeline = Pipeline::new(args.config());
    let discovery = pipeline.discover();
    let landings: Vec<_> = discovery.landings().collect();
    let verdicts =
        detect_parked_clusters(pipeline.world(), &discovery.clusters.campaigns, &landings);

    let mut tp = 0; // parked, filtered
    let mut fna = 0; // parked, kept
    let mut other_benign_filtered = 0; // stock/shortener/spurious, filtered — harmless
    let mut campaigns_filtered = 0; // SE campaign filtered — the one real failure mode
    let mut kept_live = 0;
    for (label, &parked) in discovery.labels.iter().zip(&verdicts) {
        match (label, parked) {
            (ClusterLabel::Benign(BenignKind::Parked), true) => tp += 1,
            (ClusterLabel::Benign(BenignKind::Parked), false) => fna += 1,
            (ClusterLabel::Campaign(_), true) => campaigns_filtered += 1,
            (ClusterLabel::Benign(_), true) => other_benign_filtered += 1,
            (_, false) => kept_live += 1,
        }
    }
    println!("clusters evaluated: {}", verdicts.len());
    println!("  parked clusters filtered:                  {tp}");
    println!("  parked clusters missed:                    {fna}");
    println!("  other benign confounders also filtered:    {other_benign_filtered} (harmless)");
    println!("  SE campaigns wrongly filtered:             {campaigns_filtered}");
    println!("  clusters kept for review:                  {kept_live}");
    let recall = if tp + fna == 0 { 1.0 } else { f64::from(tp) / f64::from(tp + fna) };
    println!("  parked recall {recall:.3}");
    println!(
        "\nwith the filter enabled, {tp} parked clusters (the paper had 11) never\n\
         reach manual review; {campaigns_filtered} SE campaigns were lost in the process."
    );
}
