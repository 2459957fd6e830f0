//! Multi-run tooling: `--all` and `--repeat` run workloads in child
//! processes (so `ru_maxrss` is per run), and `--compare` judges two
//! `--repeat` summaries metric by metric.

use crate::harness::{Outcome, END_TO_END};
use crate::stats::{median, quartiles};
use regwin_sweep::json::{self, obj, Value};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The flag that makes a run execute its workload in its own process.
pub const IN_PROCESS: &str = "--in-process";

fn this_binary() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    Ok(Command::new(exe))
}

/// Runs this invocation again in a child process with [`IN_PROCESS`],
/// passing its output through, and returns the child's exit code.
///
/// A process's `ru_maxrss` starts at the peak of the process it was
/// exec'd from (`exec` keeps the old image's high-water mark), so a
/// workload run directly under `cargo run` would report cargo's
/// footprint. The child starts from this small process instead.
pub fn rerun_in_child() -> Result<i32, String> {
    let status = this_binary()?
        .args(std::env::args().skip(1))
        .arg(IN_PROCESS)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run the workload process: {e}"))?;
    Ok(status.code().unwrap_or(1))
}

/// One child run of this binary on one workload; forwards its lines
/// (prefixed with the workload) and returns its result line.
pub fn run_child(workload: &str, args: &[String]) -> Result<Outcome, String> {
    let out = this_binary()?
        .arg("--workload")
        .arg(workload)
        .arg(IN_PROCESS)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (last, rest) = lines.split_last().ok_or_else(|| format!("{workload} printed nothing"))?;
    for line in rest {
        println!("[{workload}] {line}");
    }
    let outcome = Outcome::parse(last).map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() && outcome.correct {
        return Err(format!("{workload} exited with {}", out.status));
    }
    Ok(outcome)
}

/// Every value of every metric over the runs of each workload.
pub type Series = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

/// Runs each of `workloads` `repeat` times with seeds `seed`, `seed+1`,
/// …; returns the series and whether every run was correct.
pub fn repeat(
    workloads: &[&str],
    repeat: usize,
    seed: Option<u64>,
    args: &[String],
) -> Result<(Series, bool), String> {
    let mut series = Series::new();
    let mut all_correct = true;
    for &w in workloads {
        let base = seed.unwrap_or_else(|| crate::harness::default_seed(w));
        for i in 0..repeat {
            let mut child_args = args.to_vec();
            child_args.extend(["--seed".to_string(), base.wrapping_add(i as u64).to_string()]);
            let outcome = run_child(w, &child_args)?;
            all_correct &= outcome.correct;
            let metrics = series.entry(w.to_string()).or_default();
            for m in outcome.metrics {
                metrics.entry(m.name).or_insert_with(|| (m.unit, Vec::new())).1.push(m.value);
            }
        }
    }
    Ok((series, all_correct))
}

/// The `--repeat` summary: per workload and metric, the values with
/// their median and quartiles. Prints one line per metric and returns
/// the JSON summary line.
pub fn summarize(series: &Series, runs: usize) -> String {
    let mut workloads = Vec::new();
    for (w, metrics) in series {
        let mut entries = Vec::new();
        for (name, (unit, values)) in metrics {
            let med = median(values).unwrap_or(0.0);
            let (q1, q3) = quartiles(values).unwrap_or((0.0, 0.0));
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!("{w} {name} median {med} q1 {q1} q3 {q3} spread {spread:.4} {unit}");
            entries.push((
                name.clone(),
                obj(vec![
                    ("unit", Value::Str(unit.clone())),
                    ("values", Value::Arr(values.iter().map(|&v| Value::Float(v)).collect())),
                    ("median", Value::Float(med)),
                    ("q1", Value::Float(q1)),
                    ("q3", Value::Float(q3)),
                ]),
            ));
        }
        workloads.push((w.clone(), Value::Obj(entries)));
    }
    obj(vec![("runs", Value::Int(runs as u64)), ("workloads", Value::Obj(workloads))]).to_json()
}

/// Reads the series back from a `--repeat` summary (its last line).
pub fn load_series(text: &str) -> Result<Series, String> {
    let line = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("empty summary")?;
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err("summary has no workloads object".into());
    };
    let mut series = Series::new();
    for (w, metrics) in workloads {
        let Value::Obj(metrics) = metrics else { return Err(format!("{w}: not an object")) };
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            let values = m
                .get("values")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{w}/{name}: no values"))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| format!("{w}/{name}: non-numeric value")))
                .collect::<Result<Vec<f64>, String>>()?;
            series.entry(w.clone()).or_default().insert(name.clone(), (unit, values));
        }
    }
    Ok(series)
}

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the gain rule: at least 9 in 10 paired runs won, and
    /// the medians differ by more than the parent's quartile spread.
    Improved,
    /// Within the bound, and not shown better.
    Unchanged,
    /// The median worsened by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound, and the change
    /// does not beat every parent run.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` (runs paired by index) for a
/// lower-is-better metric with the given bound.
pub fn verdict(parent: &[f64], change: &[f64], bound: f64) -> Verdict {
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    if cm > pm * (1.0 + bound) {
        return Verdict::Regressed;
    }
    let (q1, q3) = quartiles(parent).expect("parent has samples");
    let parent_iqr = q3 - q1;
    let every_run_better = change.iter().all(|c| parent.iter().all(|p| c < p));
    if pm > 0.0 && parent_iqr / pm > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| c < p).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && pm - cm > parent_iqr {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `--compare parent.json change.json`: one verdict per end-to-end
/// metric and workload present in both. Returns the JSON verdict line
/// and whether anything regressed.
pub fn compare(parent: &Series, change: &Series) -> (String, bool) {
    let mut regressed = false;
    let mut rows = Vec::new();
    for (w, pmetrics) in parent {
        let Some(cmetrics) = change.get(w) else { continue };
        let mut verdicts = Vec::new();
        for &(name, unit, _, bound) in END_TO_END {
            let (Some((_, p)), Some((_, c))) = (pmetrics.get(name), cmetrics.get(name)) else {
                continue;
            };
            let v = verdict(p, c, bound);
            regressed |= v == Verdict::Regressed;
            let (pm, cm) = (median(p).unwrap_or(0.0), median(c).unwrap_or(0.0));
            let delta = if pm != 0.0 { (cm - pm) / pm * 100.0 } else { 0.0 };
            println!(
                "{w} {name}: parent {pm} {unit}, change {cm} {unit} ({delta:+.1}%, bound {:.0}%): {}",
                bound * 100.0,
                v.name()
            );
            verdicts.push((name.to_string(), Value::Str(v.name().into())));
        }
        rows.push((w.clone(), Value::Obj(verdicts)));
    }
    (Value::Obj(rows).to_json(), regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(m: f64, spread: f64) -> Vec<f64> {
        (0..10).map(|i| m * (1.0 + spread * (i as f64 / 9.0 - 0.5))).collect()
    }

    #[test]
    fn verdicts_follow_the_gain_and_bound_rules() {
        let parent = around(10.0, 0.02);
        assert_eq!(verdict(&parent, &around(10.05, 0.02), 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&parent, &around(12.0, 0.02), 0.1), Verdict::Regressed);
        assert_eq!(verdict(&parent, &around(8.0, 0.02), 0.1), Verdict::Improved);
        // A noisy parent leaves a small difference unresolved...
        let noisy = around(10.0, 0.5);
        assert_eq!(verdict(&noisy, &around(10.5, 0.02), 0.1), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        assert_eq!(verdict(&noisy, &around(5.0, 0.02), 0.1), Verdict::Improved);
        // A median worse by more than the bound regresses however noisy
        // the parent is.
        assert_eq!(verdict(&noisy, &around(12.0, 0.02), 0.1), Verdict::Regressed);
    }

    #[test]
    fn summaries_round_trip() {
        let mut series = Series::new();
        series
            .entry("w".into())
            .or_default()
            .insert("pass_s".into(), ("s".into(), vec![1.0, 2.0, 3.5]));
        let line = summarize(&series, 3);
        assert_eq!(load_series(&line).unwrap(), series);
    }
}
