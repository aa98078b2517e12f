//! `--repeat`: the noise check. `--compare`: the regression gate.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use kairos::sim::json::Json;

use crate::json::{as_array, as_f64, as_str, get, parse};
use crate::stats::{iqr_share, median};
use crate::tables::{Better, Metric, END_TO_END, WORKLOADS};
use crate::Options;

/// The end-to-end values of one run, by metric name.
type Values = BTreeMap<String, f64>;

/// The run's own set-up time is the one metric whose spread the
/// acceptance rule does not bound (its medians are still compared).
const UNBOUNDED_SPREAD: &str = "setup_s";

fn metric_values(metrics: &Json) -> Values {
    let mut values = Values::new();
    if let Json::Object(entries) = metrics {
        for (name, entry) in entries {
            if let Some(value) = get(entry, "value").and_then(as_f64) {
                values.insert(name.clone(), value);
            }
        }
    }
    values
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Runs each selected workload `runs` times in fresh processes — with
/// consecutive seeds, as the acceptance rule does, or with one seed under
/// `--fixed-seed` — and prints the spread of every end-to-end metric.
pub fn repeat(options: &Options, runs: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut records = Vec::new();
    let mut steady = true;
    for workload in
        WORKLOADS.iter().filter(|w| options.workload == "all" || options.workload == w.name)
    {
        let mut samples: Vec<Values> = Vec::new();
        for run in 0..runs {
            let seed = if options.fixed_seed { options.seed } else { options.seed + run as u64 };
            let output = Command::new(&exe)
                .args(["--workload", workload.name, "--trace", "0"])
                .args(["--seed", &seed.to_string(), "--seconds", &options.seconds.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let result = parse(line).map_err(|e| format!("{} run {run}: {e}", workload.name))?;
            if !output.status.success() {
                print!("{stdout}");
                return Err(format!("{} seed {seed} failed its correctness gate", workload.name));
            }
            let metrics = get(&result, "metrics").cloned().unwrap_or(Json::Null);
            let values = metric_values(&metrics);
            println!(
                "{} seed {seed}: {}",
                workload.name,
                END_TO_END
                    .iter()
                    .map(|m| format!(
                        "{} {:.5}",
                        m.name,
                        values.get(m.name).copied().unwrap_or(f64::NAN)
                    ))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
            let mut record = Json::object();
            record.push("workload", workload.name).push("seed", seed).push("metrics", metrics);
            records.push(record);
            samples.push(values);
        }
        println!(
            "{}: {runs} runs\n  {:<18} {:>14} {:>14} {:>14} {:>10} {:>10} {:>7}",
            workload.name, "metric", "median", "min", "max", "range/med", "iqr/med", "bound"
        );
        for metric in &END_TO_END {
            let values: Vec<f64> =
                samples.iter().filter_map(|s| s.get(metric.name).copied()).collect();
            let (lo, hi) = min_max(&values);
            let mid = median(&values);
            let spread = iqr_share(&values);
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let verdict = if metric.name == UNBOUNDED_SPREAD {
                "not bounded"
            } else if spread > bound {
                steady = false;
                "TOO NOISY"
            } else if spread > bound / 3.0 {
                "within bound, above a third of it"
            } else {
                "steady"
            };
            println!(
                "  {:<18} {:>14.5} {:>14.5} {:>14.5} {:>10.4} {:>10.4} {:>7.2}  {verdict}",
                metric.name,
                mid,
                lo,
                hi,
                (hi - lo) / mid,
                spread,
                bound
            );
        }
    }
    if let Some(path) = &options.out {
        let mut doc = Json::object();
        doc.push("runs", Json::Array(records));
        crate::write_file(path, &doc.render())?;
    }
    Ok(if steady { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The runs of an `--out` file, grouped by workload.
fn load(path: &Path) -> Result<BTreeMap<String, Vec<Values>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = get(&doc, "runs")
        .and_then(as_array)
        .ok_or_else(|| format!("{}: no `runs` array", path.display()))?;
    let mut by_workload: BTreeMap<String, Vec<Values>> = BTreeMap::new();
    for run in runs {
        let workload = get(run, "workload")
            .and_then(as_str)
            .ok_or_else(|| format!("{}: a run without a workload", path.display()))?;
        let metrics = get(run, "metrics").unwrap_or(&Json::Null);
        by_workload.entry(workload.to_owned()).or_default().push(metric_values(metrics));
    }
    Ok(by_workload)
}

/// How much worse `after` is than `before`, as a share of `before`
/// (negative when it is better).
fn worsening(metric: &Metric, before: f64, after: f64) -> f64 {
    match metric.better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    }
}

/// The verdict on one workload × metric: `regressed` when the change's
/// median is worse than the parent's by more than the bound; `unresolved`
/// in place of either verdict when the run-to-run spread is wider than
/// the bound and the two sets of runs overlap.
fn verdict(metric: &Metric, before: &[f64], after: &[f64]) -> &'static str {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let worse = worsening(metric, median(before), median(after));
    let spread = [before, after]
        .into_iter()
        .filter(|runs| runs.len() >= 2)
        .map(iqr_share)
        .fold(0.0, f64::max);
    if spread > bound {
        let every_pair_worse =
            before.iter().all(|&b| after.iter().all(|&a| worsening(metric, b, a) > 0.0));
        let every_pair_better =
            before.iter().all(|&b| after.iter().all(|&a| worsening(metric, b, a) < 0.0));
        return if every_pair_better {
            "ok"
        } else if every_pair_worse && worse > bound {
            "regressed"
        } else {
            "unresolved"
        };
    }
    if worse > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// One row per workload × end-to-end metric; non-zero exit on any
/// `regressed`.
pub fn compare(before: &Path, after: &Path) -> Result<ExitCode, String> {
    let parent = load(before)?;
    let change = load(after)?;
    let mut regressed = false;
    println!(
        "{:<26} {:<18} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "before", "after", "after/before", "bound"
    );
    for workload in &WORKLOADS {
        let (Some(b), Some(a)) = (parent.get(workload.name), change.get(workload.name)) else {
            continue;
        };
        for metric in &END_TO_END {
            let column = |runs: &[Values]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(metric.name).copied()).collect()
            };
            let (b, a) = (column(b), column(a));
            if b.is_empty() || a.is_empty() {
                continue;
            }
            let (mb, ma) = (median(&b), median(&a));
            let status = verdict(metric, &b, &a);
            regressed |= status == "regressed";
            println!(
                "{:<26} {:<18} {:>14.5} {:>14.5} {:>9.4} of {:>9.4} {:>6.2}  {status}",
                workload.name,
                metric.name,
                mb,
                ma,
                ma / mb,
                mb,
                metric.bound.expect("end-to-end metrics carry a bound"),
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).expect("declared")
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let ops = metric("ops_per_s");
        let bound = ops.bound.unwrap();
        let steady = [1000.0, 1001.0, 999.0, 1000.5, 1000.2];
        let slower: Vec<f64> = steady.iter().map(|v| v * (1.0 - 2.0 * bound)).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 1.5).collect();
        assert_eq!(verdict(ops, &steady, &slower), "regressed");
        assert_eq!(verdict(ops, &steady, &faster), "ok");
        assert_eq!(verdict(ops, &steady, &steady), "ok");
        // A spread wider than the bound leaves overlapping sets unresolved.
        let noisy = [600.0, 1000.0, 1400.0, 800.0, 1200.0];
        assert_eq!(verdict(ops, &noisy, &steady), "unresolved");
        // Lower-is-better metrics regress upwards.
        let p50 = metric("admit_p50_us");
        let up: Vec<f64> = steady.iter().map(|v| v * (1.0 + 2.0 * p50.bound.unwrap())).collect();
        assert_eq!(verdict(p50, &steady, &up), "regressed");
    }
}
