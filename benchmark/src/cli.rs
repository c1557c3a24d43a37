//! Command line of the benchmark binaries.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!           [--out-dir DIR] [--record FILE] [--untraced-wall S]      one run
//! benchmark [--seed N] [--reps N] [--only NAME] [--trace] [--smoke]
//!           [--out-dir DIR] [--traced-bin PATH]                      a full set
//! benchmark compare A.json B.json                                   two sets
//! benchmark manifest                                                BENCHMARK.json
//! ```
//!
//! `run.sh` builds both binaries and forwards its arguments here.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use seacma_util::json::{self, Value};

use crate::corpus::DEFAULT_SEED;
use crate::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::trace::{self, Tracer};
use crate::workloads::{pipeline, serve, track, Ctx, Sizes};
use crate::{compare, host, suite};

/// Parsed arguments of the run and set modes.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub only: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub reps: usize,
    pub out_dir: PathBuf,
    pub record: Option<PathBuf>,
    pub untraced_wall: Option<f64>,
    pub traced_bin: Option<PathBuf>,
}

/// Decimal or `0x` hexadecimal.
pub fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("`{text}` is not an unsigned integer"))
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            only: None,
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
            reps: 3,
            out_dir: PathBuf::from("benchmark/out"),
            record: None,
            untraced_wall: None,
            traced_bin: None,
        };
        let mut reps = None;
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" | "--only" => {
                    let name = value(flag)?;
                    if metrics::workload(&name).is_none() {
                        let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
                        return Err(format!(
                            "unknown workload `{name}` (known: {})",
                            known.join(", ")
                        ));
                    }
                    // `--workload` is one run; `--only` selects within a set.
                    if flag == "--workload" {
                        args.workload = Some(name);
                    } else {
                        args.only = Some(name);
                    }
                }
                "--seed" => args.seed = parse_u64(&value("--seed")?)?,
                "--seconds" => {
                    args.seconds = parse_u64(&value("--seconds")?)?;
                    if !(1..=60).contains(&args.seconds) {
                        return Err("--seconds must be 1..=60".into());
                    }
                }
                "--reps" => reps = Some(parse_u64(&value("--reps")?)?.max(1) as usize),
                "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
                "--record" => args.record = Some(PathBuf::from(value("--record")?)),
                "--traced-bin" => args.traced_bin = Some(PathBuf::from(value("--traced-bin")?)),
                "--untraced-wall" => {
                    let text = value("--untraced-wall")?;
                    args.untraced_wall = Some(
                        text.parse()
                            .map_err(|_| format!("`{text}` is not a number"))?,
                    );
                }
                "--smoke" => args.smoke = true,
                // `--trace 0|1` (one run) or bare `--trace` (a set).
                "--trace" => match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => args.trace = it.next().is_some_and(|v| v == "1"),
                    _ => args.trace = true,
                },
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        // One rep is a smoke; a measured set takes the median of three.
        args.reps = reps.unwrap_or(if args.smoke { 1 } else { 3 });
        Ok(args)
    }
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => usage("compare takes two result files"),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        Some("-h") | Some("--help") => usage(""),
        _ => match Args::parse(&argv) {
            Ok(args) if args.workload.is_some() => run_one(&args),
            Ok(args) => suite::main(&args),
            Err(e) => usage(&e),
        },
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         benchmark [--seed N] [--reps N] [--only NAME] [--trace] [--smoke]\n       \
         benchmark compare A.json B.json\n       benchmark manifest"
    );
    ExitCode::from(2)
}

/// Cost of one recorded span, for the overhead estimate of a traced run
/// that was not given its untraced twin's wall time.
fn span_cost_s() -> f64 {
    let mut t = Tracer::new(true);
    let at = Instant::now();
    for _ in 0..20_000 {
        let open = t.open("harness", "calibrate");
        t.close(open, 0);
    }
    at.elapsed().as_secs_f64() / 20_000.0
}

/// One run of one workload: the mode the benchmark's driver calls.
fn run_one(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("run mode has a workload");
    let (size, sizes) = if args.smoke {
        ("smoke", Sizes::smoke())
    } else {
        ("std", Sizes::std(args.seconds))
    };
    let jiffies = host::cpu_jiffies();
    let loadavg = host::loadavg();
    let started = Instant::now();
    let mut ctx = Ctx::new(args.seed, sizes, args.trace);
    match name {
        "pipeline-paper" => pipeline::run(&mut ctx, true),
        "pipeline-sweep" => pipeline::run(&mut ctx, false),
        "track-replay" => track::run(&mut ctx),
        "serve-static" => serve::run(&mut ctx, false),
        "serve-live" => serve::run(&mut ctx, true),
        _ => unreachable!("Args::parse admits registered workloads only"),
    }
    // The probes only exist in the traced run; leave them out of the wall
    // so traced and untraced walls compare like with like.
    let (probes_s, _) = trace::total_of(ctx.tracer.spans(), "harness", "probes_");
    let wall_s = started.elapsed().as_secs_f64() - probes_s;
    let steal = host::steal_share(jiffies, host::cpu_jiffies());
    ctx.set("peak_rss_mb", host::peak_rss_mb());
    ctx.set("host.steal_share", steal);
    if args.trace {
        let overhead = match args.untraced_wall {
            Some(untraced) => (wall_s - untraced) / untraced,
            None => ctx.tracer.spans().len() as f64 * span_cost_s() / wall_s,
        };
        ctx.set("trace.overhead_share", overhead);
    }

    // Which metric set this run owes, and whether it measured all of it.
    let owed: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let out = &mut ctx.out;
    if !args.trace {
        for (name, _) in &owed {
            let measured = out
                .values
                .get(*name)
                .is_some_and(|v| v.is_finite() && *v > 0.0);
            if !measured {
                out.attempted += 1;
                out.failed += 1;
                out.notes.push(format!(
                    "gate FAILED: end-to-end metric {name} was not measured"
                ));
            }
        }
    }
    let correct = out.failed == 0;

    let (commit, rustc) = host::build_facts();
    println!(
        "workload {name}  seed {:#x}  seconds {}  size {size}  trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {}  loadavg [{loadavg}]  steal share {steal:.4}  commit {commit}  {rustc}",
        host::nproc()
    );
    println!("why: {}", metrics::workload(name).expect("registered").why);
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "wall {wall_s:.3} s; digest {:016x}; attempted {}, failed {}",
        out.digest, out.attempted, out.failed
    );
    let metric_values: Vec<(String, Value)> = owed
        .iter()
        .map(|(metric, unit)| {
            // A layer this workload never enters reads 0.
            let value = out
                .values
                .get(*metric)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            println!("{metric:<36} {value:>16.4} {unit}");
            let pair = vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ];
            (metric.to_string(), Value::Obj(pair))
        })
        .collect();

    if args.trace {
        let path = args.out_dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
            std::fs::write(&path, trace::to_json(name, args.seed, ctx.tracer.spans()))
        });
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                ctx.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::UInt(u128::from(out.attempted.max(1))),
        ),
        ("failed".into(), Value::UInt(u128::from(out.failed))),
        ("metrics".into(), Value::Obj(metric_values)),
    ]);
    if let Some(path) = &args.record {
        let record = vec![
            ("workload".to_string(), Value::Str(name.into())),
            ("seed".into(), Value::UInt(u128::from(args.seed))),
            ("seconds".into(), Value::UInt(u128::from(args.seconds))),
            ("size".into(), Value::Str(size.into())),
            ("trace".into(), Value::Bool(args.trace)),
            ("wall_s".into(), Value::Float(wall_s)),
            ("digest".into(), Value::Str(format!("{:016x}", out.digest))),
            ("loadavg".into(), Value::Str(loadavg)),
            ("steal_share".into(), Value::Float(steal)),
            (
                "config".into(),
                Value::Obj(
                    out.config
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "notes".into(),
                Value::Arr(out.notes.iter().map(|n| Value::Str(n.clone())).collect()),
            ),
            ("result".into(), result.clone()),
        ];
        if let Err(e) = std::fs::write(path, json::to_string_pretty(&Value::Obj(record))) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // The contract's last line of standard output.
    println!("{}", json::to_string(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_form_and_the_set_form_both_parse() {
        let run = parse("--workload serve-live --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(
            (run.workload.as_deref(), run.seed, run.seconds, run.trace),
            (Some("serve-live"), 7, 10, true)
        );
        assert!(
            !parse("--workload serve-live --trace 0")
                .expect("parses")
                .trace
        );
        let set = parse("--seed 0x5EAC0011 --reps 2 --only track-replay --trace --smoke")
            .expect("parses");
        assert_eq!(
            (set.workload, set.only.as_deref(), set.seed, set.reps),
            (None, Some("track-replay"), DEFAULT_SEED, 2)
        );
        assert!(set.trace && set.smoke);
        assert_eq!(parse("").expect("parses").seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seed twelve").is_err());
        assert!(parse("--frobnicate").is_err());
        assert_eq!(parse_u64("0x5eac_0011"), Ok(DEFAULT_SEED));
    }
}
