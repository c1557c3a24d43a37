//! Online-detection quality eval (DESIGN.md §2j; EXPERIMENTS.md "Online
//! detection").
//!
//! Scores whole page-load observations with the daemon snapshot's frozen
//! detector and reports precision/recall against the simulated world's
//! ground truth, on two splits — *seen* (every campaign fed to the index)
//! and *held-out* (whole campaigns withheld from the feed, so only the
//! escalation and feature-threshold stages can catch them — the
//! generalization claim).
//!
//! This is a quality result, not a bench: detector exactness is pinned by
//! `tests/detect_exactness.rs` and per-verdict-kind latency is measured by
//! `benchmark/` (`detect.*_ns`, `daemon.*_p50_us`).
//!
//! ```text
//! cargo run --release -p seacma-bench --bin detect_eval -- --json EVAL_detect.json
//! cargo run -p seacma-bench --bin detect_eval -- --quick
//! ```

use std::collections::BTreeSet;

use seacma_core::detecteval::{eval_observations, EvalObservation};
use seacma_core::{Pipeline, PipelineConfig};
use seacma_daemon::{Daemon, ReputationSnapshot};
use seacma_simweb::WorldConfig;
use seacma_util::json::{self, Value};

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

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

    // Two daemons over the same epoch feed: the seen daemon ingests every
    // point; the held-out daemon's feed drops every point whose landing
    // belongs to a held-out campaign. Batches are contiguous chunks of
    // the flattened landing order, so `evals[i]` describes feed point `i`.
    let batches = pipeline.crawl_epoch_batches(&discovery);
    let mut seen_daemon = Daemon::new(pipeline.tracker_config());
    let mut held_daemon = Daemon::new(pipeline.tracker_config());
    let mut at = 0usize;
    for batch in &batches {
        let filtered: Vec<_> = batch
            .iter()
            .enumerate()
            .filter(|(j, _)| {
                !evals[at + j].truth_campaign.is_some_and(|c| held_out.contains(&c))
            })
            .map(|(_, p)| p.clone())
            .collect();
        at += batch.len();
        seen_daemon.ingest_all(batch.iter().cloned());
        held_daemon.ingest_all(filtered);
        seen_daemon.close_epoch();
        held_daemon.close_epoch();
    }
    let snap = seen_daemon.handle().snapshot();
    let held_snap = held_daemon.handle().snapshot();

    // ── Detection quality ─────────────────────────────────────────────
    let seen_eval = score_split("seen", &snap, &evals);
    let held_evals: Vec<EvalObservation> = evals
        .iter()
        .filter(|e| {
            !e.truth_attack || e.truth_campaign.is_some_and(|c| held_out.contains(&c))
        })
        .copied()
        .collect();
    let held_eval = score_split("held_out", &held_snap, &held_evals);

    if let Some(path) = json_path {
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
        std::fs::write(&path, json::to_string_pretty(&doc) + "\n")
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
