//! `benchmark compare A.json B.json`: one row per workload × end-to-end
//! metric with both medians, quartiles, the ratio with its base named and
//! a verdict (choosing-metrics §6). Also the tool that checks two sets of
//! the same commit agree.

use std::process::ExitCode;

use seacma_util::json::{self, Value};

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    /// The run-to-run spread is wider than the bound, so "no change"
    /// cannot be told from a change of the bound's size.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on `b` (the change) against `a` (the base) for `metric`.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let every = |wins: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| wins(y, x)));
    let wide = spread(a).max(spread(b)) > metric.bound;
    if worse_by > metric.bound && (!wide || every(&|y, x| better(x, y))) {
        Verdict::Regressed
    } else if wide && !every(&better) {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = doc
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?;
    let vals = w.get("metrics")?.get(metric)?.get("values")?.as_array()?;
    Some(vals.iter().filter_map(Value::as_f64).collect())
}

fn quartile_text(v: &[f64]) -> String {
    quartiles(v).map_or("[n<2]".into(), |(q1, q3)| format!("[{q1:.4}, {q3:.4}]"))
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("A (base) = {path_a}\nB        = {path_b}");
    println!(
        "{:<15} {:<20} {:<9} {:>12} {:<22} {:>12} {:<22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B/A",
        "bound"
    );
    let (mut rows, mut regressed) = (0, 0);
    for w in crate::metrics::WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w.name, m.name), values(&b, w.name, m.name))
            else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(m, &va, &vb);
            rows += 1;
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{:<15} {:<20} {:<9} {:>12.4} {:<22} {:>12.4} {:<22} {:>8.3} {:>5.0}%  {}",
                w.name,
                m.name,
                m.unit,
                median(&va),
                quartile_text(&va),
                median(&vb),
                quartile_text(&vb),
                median(&vb) / median(&va),
                m.bound * 100.0,
                v.as_str()
            );
        }
    }
    println!("{rows} rows, {regressed} regressed; ratios are B's median over A's (base A)");
    if rows == 0 {
        eprintln!("error: the two files share no workload x metric");
        return ExitCode::from(2);
    }
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "q",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&LOWER, &base, &[10.2, 10.3, 10.1]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&LOWER, &base, &[11.5, 11.6, 11.4]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&LOWER, &base, &[8.0, 8.1, 7.9]),
            Verdict::WithinBound
        );
        // Spread wider than the bound: unresolved either way …
        let noisy = [8.0, 10.0, 12.0];
        assert_eq!(
            verdict(&LOWER, &noisy, &[9.0, 10.5, 12.5]),
            Verdict::Unresolved
        );
        // … unless every run of B beats, or loses to, every run of A.
        assert_eq!(
            verdict(&LOWER, &noisy, &[5.0, 6.0, 7.0]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&LOWER, &noisy, &[13.0, 15.0, 17.0]),
            Verdict::Regressed
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&HIGHER, &base, &[8.0, 8.1, 7.9]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&HIGHER, &base, &[12.0, 12.1, 11.9]),
            Verdict::WithinBound
        );
    }
}
