//! `seacmad` — the resident SEACMA reputation daemon.
//!
//! Boots a simulated measurement (or resumes a `--resume` snapshot), then
//! runs the epoch loop on a writer thread while the foreground serves a
//! line-oriented query REPL on stdin. One JSON answer per line on stdout;
//! operator notes go to stderr.
//!
//! ```text
//! cargo run --release -p seacma-daemon --bin seacmad -- [--seed N] [--epoch-ms MS] [--resume PATH]
//!
//! url <url-or-domain>    reputation of a URL / bare e2LD
//! dhash <32-hex>         nearest campaign to a screenshot hash
//! detect <32-hex> [hops] [e2lds] [sig,..]
//!                        score a page-load observation online
//! campaign <id>          lifecycle status of a ledger id
//! status                 daemon status (epoch, points, arena size, campaigns)
//! dash [frames]          live ANSI dashboard on stderr (refreshes per epoch)
//! snapshot <path>        write resumable state at the next epoch boundary
//! help                   list commands
//! quit                   shut down
//! ```
//!
//! The dashboard keeps stdout a clean one-JSON-answer-per-line transcript
//! by drawing on stderr; `dash 20` redraws for up to 20 epoch boundaries.

use std::io::{BufRead, Write as _};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use seacma_core::{Pipeline, PipelineConfig};
use seacma_daemon::dash::{render_frame, QueryCounters};
use seacma_daemon::Daemon;
use seacma_detect::{PageObservation, PageSignals};
use seacma_report::ansi::CLEAR_SCREEN;
use seacma_util::json;
use seacma_vision::dhash::Dhash;

/// Commands the REPL forwards to the writer thread; handled only at epoch
/// boundaries, so a snapshot is always a clean boundary state.
enum Command {
    Snapshot(String),
    Quit,
}

/// Every REPL command as `(syntax, description)`. This one table drives
/// the `--help` usage line, the `help` answer and the unknown-command
/// hint, so the three can never drift apart (they once did: `dash` and
/// `snapshot` were missing from `help`).
const COMMANDS: &[(&str, &str)] = &[
    ("url <url-or-e2ld>", "reputation verdict for a URL or bare domain"),
    ("dhash <32-hex>", "nearest campaign to a screenshot hash"),
    (
        "detect <32-hex> [hops] [e2lds] [sig,..]",
        "score a page-load observation (sigs: phone|survey|lock|notify|download)",
    ),
    ("campaign <id>", "lifecycle status of a ledger id"),
    ("status", "daemon status: epoch, resident points, arena size, qualified campaigns"),
    ("dash [frames]", "live ANSI dashboard on stderr, redrawn per epoch boundary"),
    ("snapshot <path>", "write resumable state at the next epoch boundary"),
    ("help", "this list"),
    ("quit", "shut down"),
];

/// The first word of each command syntax, comma-joined — the unknown-command hint.
fn command_names() -> String {
    let names: Vec<&str> =
        COMMANDS.iter().map(|&(s, _)| s.split_whitespace().next().unwrap_or(s)).collect();
    names.join(", ")
}

/// The `help` answer: the full command table as one JSON object.
fn help_json() -> String {
    let table = COMMANDS
        .iter()
        .map(|&(syntax, desc)| (syntax.to_string(), json::Value::Str(desc.to_string())))
        .collect();
    json::to_string(&json::Value::Obj(vec![("commands".to_string(), json::Value::Obj(table))]))
}

/// An optional count argument: absent is `default`, anything but a
/// non-negative number is an error naming the argument.
fn count(arg: Option<&str>, what: &str, default: u32) -> Result<u32, String> {
    arg.map_or(Ok(default), |v| v.parse().map_err(|_| format!("{what} wants a count, got {v:?}")))
}

/// An error if a command line has a token after its last argument.
fn no_more(extra: Option<&str>) -> Result<(), String> {
    extra.map_or(Ok(()), |v| Err(format!("unexpected trailing {v:?}")))
}

/// Parses the tail of a `detect` line — `[hops] [e2lds] [sig,..]` — into
/// the observation's cheap structural signals. A non-numeric count, an
/// unknown signal token or a trailing token is an error (a typo must not
/// silently score as "signal absent").
fn parse_signals<'a>(
    mut parts: impl Iterator<Item = &'a str>,
) -> Result<PageSignals, String> {
    let mut signals = PageSignals::default();
    signals.redirect_hops = count(parts.next(), "hops", 0)?;
    signals.third_party_e2lds = count(parts.next(), "e2lds", 0)?;
    if let Some(sigs) = parts.next() {
        for s in sigs.split(',').filter(|s| !s.is_empty()) {
            match s {
                "phone" => signals.scam_phone = true,
                "survey" => signals.survey_gateway = true,
                "lock" => signals.locking = true,
                "notify" => signals.notification_prompt = true,
                "download" => signals.auto_download = true,
                other => return Err(format!("unknown signal {other:?} (phone|survey|lock|notify|download)")),
            }
        }
    }
    no_more(parts.next())?;
    Ok(signals)
}

/// A `{"error":…}` answer carrying `msg`.
fn error_json(msg: &str) -> String {
    format!(r#"{{"error":{}}}"#, json::to_string(&msg))
}

/// Saves a snapshot so that `path` always holds a complete one: the text
/// goes to `<path>.tmp` beside it, is synced, and is renamed over `path`
/// (atomic within a directory). A kill at any point leaves the previous
/// snapshot — or none — under `path`, never a truncated file the next
/// `--resume` cannot load; at worst a stale `.tmp` the next save overwrites.
fn save_snapshot(path: &str, text: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// What argv selects: the world to boot, the epoch pace, a snapshot to
/// resume from — or just the usage text.
#[derive(Debug, PartialEq)]
struct Opts {
    seed: u64,
    epoch_ms: u64,
    resume: Option<String>,
    help: bool,
}

/// Parses argv (without the program name). A typo must not boot the wrong
/// world, so an unknown argument, a missing value and a non-numeric
/// number are all errors naming the flag.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts { seed: 42, epoch_ms: 500, resume: None, help: false };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--seed" => opts.seed = number(value()?)?,
            "--epoch-ms" => opts.epoch_ms = number(value()?)?,
            "--resume" => opts.resume = Some(value()?),
            "--help" | "-h" => opts.help = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(opts)
}

fn main() {
    let Opts { seed, epoch_ms, resume, help } =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("seacmad: {e} (try --help)");
            std::process::exit(2);
        });
    if help {
        eprintln!("usage: seacmad [--seed N] [--epoch-ms MS] [--resume PATH]");
        eprintln!("queries on stdin:");
        for (syntax, desc) in COMMANDS {
            eprintln!("  {syntax:<42} {desc}");
        }
        return;
    }

    // Boot: a fresh daemon over the simulated measurement, or a resumed
    // one (byte-identical to the process that wrote the snapshot).
    let pipeline = Pipeline::new(PipelineConfig::small(seed));
    let mut daemon = match &resume {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("seacmad: cannot read snapshot {path}: {e}");
                std::process::exit(1);
            });
            Daemon::from_json(&text).unwrap_or_else(|e| {
                eprintln!("seacmad: cannot parse snapshot {path}: {e}");
                std::process::exit(1);
            })
        }
        None => Daemon::new(pipeline.tracker_config()),
    };
    let handle = daemon.handle();
    eprintln!(
        "seacmad: booted at epoch {} (seed {seed}); crawling the simulated web...",
        daemon.epoch()
    );

    // The epoch feed: the pipeline's crawl replay batches. Skip epochs a
    // resumed daemon already closed, so resume + replay never double-feeds.
    let discovery = pipeline.discover();
    let batches: Vec<_> = pipeline
        .crawl_epoch_batches(&discovery)
        .into_iter()
        .skip(daemon.epoch() as usize)
        .collect();
    let epochs_total = daemon.epoch() + batches.len() as u32;
    eprintln!(
        "seacmad: {} landings queued in {} epochs ({epoch_ms} ms each); serving queries",
        batches.iter().map(Vec::len).sum::<usize>(),
        batches.len(),
    );

    let (tx, rx) = mpsc::channel::<Command>();
    let writer = std::thread::spawn(move || {
        let mut pending = batches.into_iter();
        loop {
            // Pace one epoch per tick; once the feed is drained, park on
            // the channel so snapshot/quit still work.
            let cmd = if pending.len() > 0 {
                rx.recv_timeout(Duration::from_millis(epoch_ms))
            } else {
                rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected)
            };
            match cmd {
                Ok(Command::Snapshot(path)) => {
                    match save_snapshot(&path, &daemon.to_json()) {
                        Ok(()) => eprintln!(
                            "seacmad: snapshot written to {path} at epoch {}",
                            daemon.epoch()
                        ),
                        Err(e) => eprintln!("seacmad: snapshot to {path} failed: {e}"),
                    }
                }
                Ok(Command::Quit) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(batch) = pending.next() {
                        daemon.ingest_all(batch);
                        let summary = daemon.close_epoch();
                        eprintln!(
                            "seacmad: epoch {} closed ({} ingested, {} campaigns, {} events)",
                            summary.epoch,
                            summary.ingested,
                            summary.campaigns,
                            summary.events.len(),
                        );
                    }
                }
            }
        }
    });

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut counters = QueryCounters::default();
    let started = Instant::now();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let mut parts = line.split_whitespace();
        let answer = match (parts.next(), parts.next()) {
            (Some("url"), Some(u)) => {
                counters.url += 1;
                json::to_string(&handle.url(u))
            }
            (Some("dhash"), Some(h)) => match Dhash::parse(h) {
                Some(d) => {
                    counters.dhash += 1;
                    json::to_string(&handle.dhash(d))
                }
                None => r#"{"error":"dhash wants 32 hex digits"}"#.to_string(),
            },
            (Some("detect"), Some(h)) => match Dhash::parse(h) {
                Some(dhash) => match parse_signals(parts) {
                    Ok(signals) => {
                        counters.detect += 1;
                        json::to_string(&handle.detect(&PageObservation { dhash, signals }))
                    }
                    Err(e) => error_json(&e),
                },
                None => r#"{"error":"detect wants a 32-hex dhash first"}"#.to_string(),
            },
            (Some("campaign"), Some(id)) => match id.parse::<u32>() {
                Ok(id) => {
                    counters.campaign += 1;
                    json::to_string(&handle.campaign(id))
                }
                Err(_) => r#"{"error":"campaign wants a numeric id"}"#.to_string(),
            },
            (Some("status"), None) => {
                counters.status += 1;
                let snap = handle.snapshot();
                format!(
                    r#"{{"epoch":{},"points":{},"arena":{},"campaigns":{}}}"#,
                    snap.epoch(),
                    snap.resident_points(),
                    snap.arena_len(),
                    snap.statuses().iter().filter(|s| s.qualified).count(),
                )
            }
            // Draw on stderr so stdout stays a clean query transcript. With
            // a frame budget > 1 the dashboard waits for epoch boundaries
            // and redraws, live-tailing the writer thread through the
            // shared QueryHandle.
            (Some("dash"), frames) => match no_more(parts.next()).and(count(frames, "frames", 1)) {
                Err(e) => error_json(&e),
                Ok(budget) => {
                    let mut rendered = 0u32;
                    let mut last_epoch = 0u32;
                    while rendered < budget {
                        let snap = handle.snapshot();
                        if rendered > 0 && snap.epoch() == last_epoch {
                            std::thread::sleep(Duration::from_millis((epoch_ms / 4).max(10)));
                            continue;
                        }
                        last_epoch = snap.epoch();
                        let frame = render_frame(
                            &snap,
                            &counters,
                            epochs_total,
                            Some(started.elapsed().as_secs_f64()),
                        );
                        let mut err = std::io::stderr().lock();
                        if budget > 1 {
                            let _ = write!(err, "{CLEAR_SCREEN}");
                        }
                        for l in &frame {
                            let _ = writeln!(err, "{}", l.ansi());
                        }
                        rendered += 1;
                        if last_epoch >= epochs_total {
                            break; // feed drained: no further boundary will come
                        }
                    }
                    format!(r#"{{"ok":"dash drew {rendered} frame(s) on stderr"}}"#)
                }
            },
            (Some("snapshot"), Some(path)) => {
                let _ = tx.send(Command::Snapshot(path.to_string()));
                r#"{"ok":"snapshot queued for the next boundary"}"#.to_string()
            }
            (Some("help"), None) => help_json(),
            (Some("quit"), None) => break,
            (None, _) => continue,
            // A known command that missed the arms above wants different
            // arguments; anything else gets the one-line command hint.
            (Some(other), _) => {
                match COMMANDS.iter().find(|&&(s, _)| s.split_whitespace().next() == Some(other))
                {
                    Some((syntax, _)) => format!(r#"{{"error":"usage: {syntax}"}}"#),
                    None => {
                        error_json(&format!(
                            "unknown command {other:?}; commands: {}",
                            command_names()
                        ))
                    }
                }
            }
        };
        let mut out = stdout.lock();
        let _ = writeln!(out, "{answer}");
        let _ = out.flush();
    }

    let _ = tx.send(Command::Quit);
    let _ = writer.join();
    eprintln!("seacmad: bye");
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_tracker::TrackerConfig;
    use seacma_vision::cluster::ScreenshotPoint;

    #[test]
    fn malformed_argv_is_an_error_not_a_default() {
        let parse = |argv: &[&str]| parse_args(argv.iter().map(|a| a.to_string()));
        let want = Opts { seed: 7, epoch_ms: 10, resume: Some("s.json".into()), help: false };
        assert_eq!(parse(&["--seed", "7", "--epoch-ms", "10", "--resume", "s.json"]), Ok(want));
        assert!(parse(&["-h"]).is_ok_and(|o| o.help));
        for argv in [
            &["--sede", "1"][..],    // unknown flag
            &["--seed"],             // flag missing its value
            &["--seed", "4z"],       // bad number
            &["--epoch-ms", "fast"], // bad number
            &["--epoch-ms", "-5"],   // negative duration
            &["--resume"],           // no path
        ] {
            let err = parse(argv).expect_err(&format!("{argv:?} must be rejected"));
            assert!(err.contains(argv[0]), "{argv:?}: message {err:?} must name the flag");
        }
    }

    #[test]
    fn malformed_repl_arguments_are_errors_not_defaults() {
        let parse = |line: &str| parse_signals(line.split_whitespace());
        let full = parse("3 4 phone,survey").expect("well-formed");
        assert_eq!((full.redirect_hops, full.third_party_e2lds), (3, 4));
        assert!(full.scam_phone && full.survey_gateway && !full.locking);
        assert_eq!(parse(""), Ok(PageSignals::default()));
        assert_eq!(parse("2").map(|s| (s.redirect_hops, s.third_party_e2lds)), Ok((2, 0)));
        for (line, names) in [
            ("phone", "hops"),           // a signal where the hop count goes
            ("x 4", "hops"),             // bad hop count
            ("3 -1", "e2lds"),           // negative e2LD count
            ("3 4 phnoe", "phnoe"),      // unknown signal
            ("3 4 lock extra", "extra"), // trailing token
        ] {
            let err = parse(line).expect_err(&format!("{line:?} must be rejected"));
            assert!(err.contains(names), "{line:?}: message {err:?} must name {names:?}");
        }
        assert_eq!(count(None, "frames", 1), Ok(1));
        assert_eq!(count(Some("20"), "frames", 1), Ok(20));
        assert!(count(Some("x"), "frames", 1).is_err_and(|e| e.contains("frames")));
        assert!(no_more(Some("5")).is_err() && no_more(None).is_ok());
    }

    #[test]
    fn a_save_killed_mid_write_leaves_the_previous_snapshot_loadable() {
        let mut daemon = Daemon::new(TrackerConfig::default());
        daemon.ingest_all((0..12u32).map(|i| {
            ScreenshotPoint::new(Dhash(0xFACE ^ (1 << (i % 3))), format!("evil{}.club", i % 6))
        }));
        daemon.close_epoch();
        let text = daemon.to_json();

        let path = std::env::temp_dir()
            .join(format!("seacmad-save-test-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        save_snapshot(&path, &text).expect("first save");
        // The next save dies half-way: only its temporary file is touched.
        std::fs::write(format!("{path}.tmp"), &text[..text.len() / 2]).expect("partial write");

        let on_disk = std::fs::read_to_string(&path).expect("target still there");
        let resumed = Daemon::from_json(&on_disk).expect("target still loads");
        assert_eq!(on_disk, text);
        assert_eq!(
            json::to_string(&resumed.handle().url("evil0.club")),
            json::to_string(&daemon.handle().url("evil0.club")),
            "and answers as before"
        );
        assert_eq!(resumed.handle().epoch(), 1);

        // A completed save replaces the target and consumes the temporary.
        save_snapshot(&path, &text).expect("second save");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        std::fs::remove_file(&path).expect("cleanup");
    }
}
