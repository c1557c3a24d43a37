//! # seacma-bench
//!
//! The front ends. `seacma` (`src/bin/seacma.rs`) is the command-line
//! interface to the pipeline and prints the paper's Tables 1–4, §4.3
//! census and §6 cost through `seacma-report`'s analyses; the other
//! binaries in `src/bin/` are bespoke walkthroughs — one per paper figure
//! and side experiment — plus `detect_eval`, the online detector's
//! held-out quality evaluation. Timing is not measured here — that is
//! `benchmark/` at the repository root.
//!
//! `seacma` and every walkthrough binary accept the same flags
//! ([`RunArgs`]):
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

use std::process::exit;

use seacma_core::RunArgs;

/// Parses the shared flags from `args`, or ends the process the way every
/// front end must: `usage` on stdout and exit 0 for `--help`; the error
/// and `usage` on stderr and exit 2 for malformed flags.
pub fn parse_or_exit(args: impl IntoIterator<Item = String>, usage: &str) -> RunArgs {
    match RunArgs::parse(args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{usage}");
            exit(0)
        }
        Err(e) => {
            eprintln!("{e}\n{usage}");
            exit(2)
        }
    }
}

/// The shared flags of this process's argv ([`parse_or_exit`]).
pub fn run_args() -> RunArgs {
    parse_or_exit(std::env::args().skip(1), &format!("flags: {}", RunArgs::USAGE))
}

/// Prints a section header for experiment output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints the paper-reference block that accompanies a regenerated
/// figure (absolute counts differ — the harness runs at reduced scale —
/// but shapes should match).
pub fn paper_note(lines: &[&str]) {
    println!("--- paper reference (IMC'19, full scale) ---");
    for l in lines {
        println!("  {l}");
    }
}

#[cfg(test)]
mod tests {
    use seacma_core::RunArgs;
    use seacma_simweb::SimDuration;

    fn parse(argv: &[&str]) -> RunArgs {
        RunArgs::parse(argv.iter().map(|a| a.to_string())).unwrap().unwrap()
    }

    #[test]
    fn defaults_are_paper_shaped() {
        let c = parse(&[]).config();
        assert_eq!(c.world.campaign_scale, 1.0);
        assert_eq!(c.uas.len(), 4);
        assert_eq!(c.milking.duration, SimDuration::from_days(14));
    }

    #[test]
    fn quick_config_is_small() {
        let c = parse(&["--quick"]).config();
        assert!(c.world.n_publishers < 1000);
        assert!(c.milking.duration <= SimDuration::from_days(3));
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(parse(&["--seed", "0xff"]).seed, 255);
        assert_eq!(parse(&["--seed", "42"]).seed, 42);
    }
}
