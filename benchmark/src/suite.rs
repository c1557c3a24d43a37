//! A full set: every workload `reps` times in fresh processes, medians
//! with min/max, the host-disturbance guard, and (with `--trace`) one
//! traced run per workload for the per-layer ledger.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use seacma_util::json::{self, Value};

use crate::cli::Args;
use crate::host;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;

/// A run whose steal share exceeds this is marked `disturbed`.
pub const STEAL_LIMIT: f64 = 0.05;
/// … as is one whose wall exceeds this multiple of its siblings' median.
pub const WALL_LIMIT: f64 = 1.5;

/// Which of `runs` (wall seconds, steal share) the guard marks: over the
/// steal limit, or slower than [`WALL_LIMIT`] × the median of the others.
pub fn disturbed(runs: &[(f64, f64)]) -> Vec<bool> {
    (0..runs.len())
        .map(|i| {
            let siblings: Vec<f64> = runs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, r)| r.0)
                .collect();
            runs[i].1 > STEAL_LIMIT
                || (!siblings.is_empty() && runs[i].0 > WALL_LIMIT * median(&siblings))
        })
        .collect()
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn f(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Runs one child process and returns its record.
fn child(
    bin: &Path,
    args: &Args,
    workload: &str,
    trace: bool,
    untraced_wall: Option<f64>,
) -> Result<Value, String> {
    let record = args.out_dir.join(format!("record-{workload}.json"));
    let mut cmd = Command::new(bin);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .arg("--record")
        .arg(&record);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(wall) = untraced_wall {
        cmd.args(["--untraced-wall", &wall.to_string()]);
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let text = std::fs::read_to_string(&record).map_err(|e| {
        format!(
            "{workload}: no record ({e}); exit {:?}\n{}{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let _ = std::fs::remove_file(&record);
    let record = json::parse(&text).map_err(|e| format!("{workload}: unreadable record: {e}"))?;
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stdout));
    }
    Ok(record)
}

fn metric_value(record: &Value, name: &str) -> f64 {
    record
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get(name))
        .map_or(0.0, |m| f(m, "value"))
}

pub fn main(args: &Args) -> ExitCode {
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness gate failed or digests differ");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the set; `Ok(false)` when it completed but a gate failed.
fn run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let traced_bin: PathBuf = args
        .traced_bin
        .clone()
        .unwrap_or_else(|| exe.with_file_name("benchmark-traced"));
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let (commit, rustc) = host::build_facts();
    let host_facts = obj(vec![
        ("nproc", Value::UInt(host::nproc() as u128)),
        ("loadavg_at_start", Value::Str(host::loadavg())),
        ("commit", Value::Str(commit)),
        ("rustc", Value::Str(rustc)),
    ]);

    let mut ok = true;
    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.only.as_deref().is_none_or(|o| o == w.name))
    {
        eprintln!("== {} ({} reps)", w.name, args.reps);
        let mut records = Vec::new();
        for _ in 0..args.reps {
            records.push(child(&exe, args, w.name, false, None)?);
        }
        // Host-disturbance guard: mark, re-run once, keep both.
        let readings: Vec<(f64, f64)> = records
            .iter()
            .map(|r| (f(r, "wall_s"), f(r, "steal_share")))
            .collect();
        let mut marks = disturbed(&readings);
        for i in 0..marks.len() {
            if marks[i] {
                eprintln!(
                    "   run {i} disturbed (wall {:.2} s, steal {:.3}); re-running once",
                    readings[i].0, readings[i].1
                );
                records.push(child(&exe, args, w.name, false, None)?);
                marks.push(false);
            }
        }
        let kept: Vec<&Value> = if marks.iter().all(|m| *m) {
            records.iter().collect()
        } else {
            records
                .iter()
                .zip(&marks)
                .filter(|(_, m)| !**m)
                .map(|(r, _)| r)
                .collect()
        };

        let digests: Vec<&str> = records
            .iter()
            .filter_map(|r| r.get("digest").and_then(Value::as_str))
            .collect();
        let identical = digests.windows(2).all(|d| d[0] == d[1]);
        let correct = records
            .iter()
            .all(|r| r.get("result").and_then(|x| x.get("correct")) == Some(&Value::Bool(true)));
        ok &= identical && correct;
        if !identical {
            eprintln!(
                "error: {} digests differ across reps of one seed: {digests:?}",
                w.name
            );
        }

        let mut metric_rows = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = kept.iter().map(|r| metric_value(r, m.name)).collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            println!(
                "{:<15} {:<20} {:>14.4} {:<9} (min {lo:.4}, max {hi:.4}, n {})",
                w.name,
                m.name,
                median(&values),
                m.unit,
                values.len()
            );
            metric_rows.push((
                m.name,
                obj(vec![
                    ("unit", Value::Str(m.unit.into())),
                    ("median", Value::Float(median(&values))),
                    ("min", Value::Float(lo)),
                    ("max", Value::Float(hi)),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            ));
        }
        let runs: Vec<Value> = records
            .iter()
            .zip(&marks)
            .map(|(r, mark)| {
                let result = r.get("result");
                obj(vec![
                    ("wall_s", Value::Float(f(r, "wall_s"))),
                    ("steal_share", Value::Float(f(r, "steal_share"))),
                    ("loadavg", r.get("loadavg").cloned().unwrap_or(Value::Null)),
                    ("disturbed", Value::Bool(*mark)),
                    (
                        "attempted",
                        result
                            .and_then(|x| x.get("attempted"))
                            .cloned()
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "failed",
                        result
                            .and_then(|x| x.get("failed"))
                            .cloned()
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "correct",
                        result
                            .and_then(|x| x.get("correct"))
                            .cloned()
                            .unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect();
        let wall = median(&kept.iter().map(|r| f(r, "wall_s")).collect::<Vec<_>>());
        workloads.push(obj(vec![
            ("name", Value::Str(w.name.into())),
            ("why", Value::Str(w.why.into())),
            ("reps", Value::UInt(args.reps as u128)),
            (
                "digest",
                Value::Str(digests.first().copied().unwrap_or("").into()),
            ),
            ("digests_identical", Value::Bool(identical)),
            ("wall_s_median", Value::Float(wall)),
            (
                "config",
                records[0].get("config").cloned().unwrap_or(Value::Null),
            ),
            ("metrics", obj(metric_rows)),
            ("runs", Value::Arr(runs)),
        ]));

        if args.trace {
            eprintln!("== {} (traced)", w.name);
            let record = child(&traced_bin, args, w.name, true, Some(wall))?;
            ok &= record.get("result").and_then(|x| x.get("correct")) == Some(&Value::Bool(true));
            for m in PER_LAYER {
                println!(
                    "{:<15} {:<36} {:>16.4} {}",
                    w.name,
                    m.name,
                    metric_value(&record, m.name),
                    m.unit
                );
            }
            let spans =
                std::fs::read_to_string(args.out_dir.join(format!("trace-{}.json", w.name)))
                    .ok()
                    .and_then(|t| json::parse(&t).ok())
                    .and_then(|doc| doc.get("summary").cloned())
                    .unwrap_or(Value::Null);
            traces.push(obj(vec![
                ("name", Value::Str(w.name.into())),
                ("untraced_wall_s", Value::Float(wall)),
                ("traced_wall_s", Value::Float(f(&record, "wall_s"))),
                (
                    "per_layer",
                    record
                        .get("result")
                        .and_then(|x| x.get("metrics"))
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                ("span_summary", spans),
            ]));
        }
    }

    let header = |what: &str| {
        vec![
            ("schema", Value::Str(format!("seacma-benchmark/{what}/1"))),
            ("seed", Value::UInt(u128::from(args.seed))),
            ("seconds", Value::UInt(u128::from(args.seconds))),
            (
                "size",
                Value::Str(if args.smoke { "smoke" } else { "std" }.into()),
            ),
            ("host", host_facts.clone()),
        ]
    };
    let mut files = vec![("results.json", header("results"), workloads)];
    if args.trace {
        files.push(("trace-summary.json", header("trace-summary"), traces));
    }
    for (name, mut doc, rows) in files {
        doc.push(("workloads", Value::Arr(rows)));
        let path = args.out_dir.join(name);
        std::fs::write(
            &path,
            json::to_string_pretty(&obj(doc))
                + "
",
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_marks_steal_and_slow_outliers_only() {
        // The sizing incident: one 24.2 s run against 4.9–5.8 s siblings.
        assert_eq!(
            disturbed(&[(5.8, 0.0), (24.2, 0.0), (4.9, 0.0), (5.1, 0.0)]),
            [false, true, false, false]
        );
        assert_eq!(
            disturbed(&[(5.0, 0.06), (5.1, 0.01), (5.2, 0.0)]),
            [true, false, false]
        );
        // A lone run has no siblings to be slower than.
        assert_eq!(disturbed(&[(99.0, 0.0)]), [false]);
        assert_eq!(disturbed(&[(5.0, 0.0), (7.4, 0.0)]), [false, false]);
    }
}
