//! # seacma-bench
//!
//! The experiment harness: one binary per table and figure of the
//! paper's evaluation, plus `detect_eval`, the online detector's
//! held-out quality evaluation (see `src/bin/`). Timing is not measured
//! here — that is `benchmark/` at the repository root.
//!
//! Every table/figure binary accepts the same flags:
//!
//! ```text
//! --seed N          world seed                      (default 0x5EACA201)
//! --publishers N    seed-pool publisher count       (default 3000)
//! --scale F         campaign-count multiplier       (default 1.0 = 108 campaigns)
//! --milk-days N     milking duration in sim days    (default 14)
//! --quick           tiny configuration for smoke runs
//! ```
//!
//! Counts scale linearly with `--publishers`; the paper crawled 70,541
//! sites, the default harness ~1/9 of that. The *shape* of every table —
//! who wins, category orderings, evasion rates — is the reproduction
//! target, not absolute counts.

use seacma_core::{DiscoveryOutput, Pipeline, PipelineConfig, PipelineRun};
use seacma_crawler::CrawlSchedule;
use seacma_simweb::{SimDuration, WorldConfig};

/// Common CLI arguments for experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// World seed.
    pub seed: u64,
    /// Publisher-pool size.
    pub publishers: u32,
    /// Campaign scale multiplier.
    pub scale: f64,
    /// Milking duration (days).
    pub milk_days: u64,
    /// Tiny smoke-run configuration.
    pub quick: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self { seed: 0x5EAC_A201, publishers: 3000, scale: 1.0, milk_days: 14, quick: false }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`; panics with usage on malformed flags.
    pub fn parse() -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut grab = |name: &str| -> String {
                args.next().unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--seed" => out.seed = parse_num(&grab("--seed")),
                "--publishers" => out.publishers = parse_num(&grab("--publishers")) as u32,
                "--scale" => {
                    out.scale = grab("--scale").parse().expect("--scale takes a float")
                }
                "--milk-days" => out.milk_days = parse_num(&grab("--milk-days")),
                "--quick" => out.quick = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --seed N --publishers N --scale F --milk-days N --quick"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        out
    }

    /// Builds the pipeline configuration for these arguments.
    pub fn config(&self) -> PipelineConfig {
        if self.quick {
            let mut c = PipelineConfig::small(self.seed);
            c.milking.duration = SimDuration::from_days(self.milk_days.min(3));
            return c;
        }
        let mut c = PipelineConfig {
            world: WorldConfig {
                seed: self.seed,
                n_publishers: self.publishers,
                n_hidden_only_publishers: self.publishers / 10,
                n_advertisers: 400,
                campaign_scale: self.scale,
                ..Default::default()
            },
            // 4 lanes of 2-minute sessions: a 3k-publisher, 4-UA crawl
            // spans ~4 virtual days — several rotation periods for every
            // campaign category.
            schedule: CrawlSchedule { lanes: 4, ..Default::default() },
            ..Default::default()
        };
        c.milking.duration = SimDuration::from_days(self.milk_days);
        c
    }

    /// Runs the discovery phase.
    pub fn discovery(&self) -> (Pipeline, DiscoveryOutput) {
        let pipeline = Pipeline::new(self.config());
        let discovery = pipeline.discover();
        (pipeline, discovery)
    }

    /// Runs the complete measurement.
    pub fn full(&self) -> (Pipeline, PipelineRun) {
        let pipeline = Pipeline::new(self.config());
        let run = pipeline.run_to_completion();
        (pipeline, run)
    }
}

fn parse_num(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("bad hex number")
    } else {
        s.parse().expect("bad number")
    }
}

/// Prints a section header for experiment output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints the paper-reference block that accompanies every regenerated
/// table (absolute counts differ — the harness runs at reduced scale —
/// but shapes should match).
pub fn paper_note(lines: &[&str]) {
    println!("--- paper reference (IMC'19, full scale) ---");
    for l in lines {
        println!("  {l}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shaped() {
        let a = BenchArgs::default();
        let c = a.config();
        assert_eq!(c.world.campaign_scale, 1.0);
        assert_eq!(c.uas.len(), 4);
        assert_eq!(c.milking.duration, SimDuration::from_days(14));
    }

    #[test]
    fn quick_config_is_small() {
        let a = BenchArgs { quick: true, ..Default::default() };
        let c = a.config();
        assert!(c.world.n_publishers < 1000);
        assert!(c.milking.duration <= SimDuration::from_days(3));
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(parse_num("0xff"), 255);
        assert_eq!(parse_num("42"), 42);
    }
}
