//! Pipeline configuration, and the command-line flags that select one.

use seacma_util::impl_json_struct;

use seacma_crawler::CrawlSchedule;
use seacma_milker::MilkingConfig;
use seacma_simweb::{SimDuration, UaProfile, WorldConfig};
use seacma_vision::cluster::ClusterParams;

/// Everything that parameterizes one end-to-end measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// World generation parameters (seed, scale).
    pub world: WorldConfig,
    /// Virtual-time crawl schedule (lanes × session length fixes the
    /// crawl span, which must cover several campaign rotation periods for
    /// the θc filter to see multi-domain campaigns).
    pub schedule: CrawlSchedule,
    /// Browser/OS profiles to crawl with (paper: all four).
    pub uas: Vec<UaProfile>,
    /// Worker threads for the two sharded stages — the crawl farm and the
    /// milking simulate phase (0 ⇒ available parallelism). Both are
    /// byte-identical at any worker count; clustering is sequential.
    pub workers: usize,
    /// Clustering parameters (dhash DBSCAN + θc).
    pub clustering: ClusterParams,
    /// Milking cadence and measurement windows.
    pub milking: MilkingConfig,
    /// Cap on milking sources (paper ran 505 `(URL, UA)` pairs).
    pub max_milking_sources: usize,
    /// Epochs the crawl phase is replayed through the campaign tracker as
    /// (contiguous prefix chunks of the flattened landing order, so the
    /// final tracker snapshot equals the batch discovery clustering).
    pub crawl_track_epochs: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            schedule: CrawlSchedule::default(),
            uas: UaProfile::ALL.to_vec(),
            workers: 0,
            clustering: ClusterParams::default(),
            milking: MilkingConfig::default(),
            max_milking_sources: 505,
            crawl_track_epochs: 4,
        }
    }
}

impl PipelineConfig {
    /// A reduced configuration for fast tests and examples: a few hundred
    /// publishers, two UAs, short milking.
    pub fn small(seed: u64) -> Self {
        Self {
            world: WorldConfig {
                seed,
                n_publishers: 600,
                n_hidden_only_publishers: 60,
                n_advertisers: 40,
                campaign_scale: 0.3,
                ..Default::default()
            },
            uas: vec![UaProfile::ChromeMac, UaProfile::ChromeAndroid],
            // Few publishers ⇒ stretch the schedule so the crawl still
            // spans several rotation periods.
            schedule: CrawlSchedule {
                lanes: 2,
                session_len: seacma_simweb::SimDuration::from_minutes(20),
                ..Default::default()
            },
            milking: MilkingConfig {
                duration: seacma_simweb::SimDuration::from_days(3),
                lookup_tail: seacma_simweb::SimDuration::from_days(2),
                ..Default::default()
            },
            max_milking_sources: 120,
            ..Default::default()
        }
    }
}

/// The flags the `seacma` subcommands take: which world to generate and
/// how long to milk.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// World seed.
    pub seed: u64,
    /// Publisher-pool size.
    pub publishers: u32,
    /// Campaign scale multiplier.
    pub scale: f64,
    /// Milking duration (days).
    pub milk_days: u64,
    /// Tiny smoke-run configuration ([`PipelineConfig::small`]).
    pub quick: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self { seed: 0x5EAC_A201, publishers: 3000, scale: 1.0, milk_days: 14, quick: false }
    }
}

impl RunArgs {
    /// The flags [`RunArgs::parse`] accepts, for usage messages.
    pub const USAGE: &'static str =
        "[--seed N] [--publishers N] [--scale F] [--milk-days N] [--quick]";

    /// Parses the flags (argv without the program name). `N` is decimal
    /// or `0x` hex. `Ok(None)` means `--help` was asked for; `Err` names
    /// the unknown flag, missing value or bad number.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<RunArgs>, String> {
        fn number(flag: &str, s: &str) -> Result<u64, String> {
            match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            }
            .map_err(|e| format!("{flag} {s:?}: {e}"))
        }
        let mut out = RunArgs::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--seed" => out.seed = number(&flag, &value()?)?,
                "--publishers" => {
                    let v = value()?;
                    out.publishers = u32::try_from(number(&flag, &v)?)
                        .map_err(|e| format!("{flag} {v:?}: {e}"))?;
                }
                "--scale" => {
                    let v = value()?;
                    out.scale = v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))?;
                }
                "--milk-days" => out.milk_days = number(&flag, &value()?)?,
                "--quick" => out.quick = true,
                "--help" | "-h" => return Ok(None),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Some(out))
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<RunArgs>, String> {
        RunArgs::parse(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_into_fields() {
        assert_eq!(parse(&[]), Ok(Some(RunArgs::default())));
        let a = parse(&["--seed", "0xff", "--publishers", "7", "--scale", "0.5", "--quick"]);
        let want = RunArgs { seed: 255, publishers: 7, scale: 0.5, quick: true, ..Default::default() };
        assert_eq!(a, Ok(Some(want)));
        assert_eq!(parse(&["--quick", "--help"]), Ok(None));
        assert_eq!(parse(&["-h"]), Ok(None));
    }

    #[test]
    fn malformed_argv_is_an_error_not_a_panic() {
        for argv in [
            &["--sede", "1"][..],         // unknown flag
            &["--seed"],                  // flag missing its value
            &["--seed", "zz"],            // bad decimal
            &["--seed", "0xgg"],          // bad hex
            &["--milk-days", "-1"],       // negative count
            &["--publishers", "0x1ffffffff"], // does not fit the field
            &["--scale", "fast"],         // bad float
        ] {
            let err = parse(argv).expect_err(&format!("{argv:?} must be rejected"));
            assert!(err.contains(argv[0]), "{argv:?}: message {err:?} must name the flag");
        }
    }

    #[test]
    fn default_matches_paper_setup() {
        let c = PipelineConfig::default();
        assert_eq!(c.uas.len(), 4);
        assert_eq!(c.max_milking_sources, 505);
        assert_eq!(c.clustering.theta_c, 5);
        assert_eq!(c.milking.period.minutes(), 15);
        assert_eq!(c.milking.duration.minutes(), 14 * 24 * 60);
    }

    #[test]
    fn small_config_is_smaller() {
        let s = PipelineConfig::small(1);
        let d = PipelineConfig::default();
        assert!(s.world.n_publishers < d.world.n_publishers);
        assert!(s.milking.duration < d.milking.duration);
    }
}
impl_json_struct!(PipelineConfig {
    world,
    schedule,
    uas,
    workers,
    clustering,
    milking,
    max_milking_sources,
    crawl_track_epochs,
});
