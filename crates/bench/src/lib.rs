//! # seacma-bench
//!
//! The front end. `seacma` (`src/bin/seacma.rs`) is the command-line
//! interface to the pipeline: every table and figure of the evaluation,
//! and every side experiment, is a `seacma-report` analysis it prints
//! (`seacma report [--only ID]`); `seacma eval` is the online detector's
//! held-out quality evaluation. Timing is not measured here — that is
//! `benchmark/` at the repository root.
//!
//! `seacma` takes the shared flags ([`seacma_core::RunArgs`]):
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
