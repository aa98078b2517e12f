//! Host-calibrated admission benchmark for the kairos resource manager.
//! See `benchmark/README.md`.

mod calib;
mod compare;
mod drive;
mod host;
mod json;
mod layers;
mod run;
mod spans;
mod stats;
mod storm;
mod tables;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kairos::sim::json::Json;

use tables::{Metric, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "\
usage: kairos-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--out FILE] [--trace-out FILE]
       kairos-benchmark --repeat K [--fixed-seed] [--workload NAME|all] [--seed N] [--seconds S] [--out FILE]
       kairos-benchmark --compare BEFORE.json AFTER.json
       kairos-benchmark --benchmark-json";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub repeat: Option<usize>,
    pub fixed_seed: bool,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: tables::WORKLOADS[0].name.to_owned(),
        seed: tables::DEFAULT_SEED,
        seconds: tables::RUN_SECONDS as f64,
        trace: false,
        out: None,
        trace_out: None,
        repeat: None,
        fixed_seed: false,
        compare: None,
        benchmark_json: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => {
                options.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if options.seconds.is_nan() || options.seconds < 0.0 {
                    return Err("--seconds must not be negative".to_owned());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--trace-out" => options.trace_out = Some(PathBuf::from(value()?)),
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|_| "--repeat takes a whole number")?;
                if k < 2 {
                    return Err("--repeat needs at least two runs".to_owned());
                }
                options.repeat = Some(k);
            }
            "--fixed-seed" => options.fixed_seed = true,
            "--compare" => {
                options.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)));
            }
            "--benchmark-json" => options.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.workload != "all" && tables::workload(&options.workload).is_none() {
        let names: Vec<&str> = tables::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {}; one of {}", options.workload, names.join(", ")));
    }
    if options.workload == "all" && options.repeat.is_none() {
        return Err("--workload all needs --repeat".to_owned());
    }
    Ok(options)
}

/// The outcome of one run, in the shape both the result line and the
/// `--out` file are rendered from.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl Outcome {
    fn metrics_json(&self) -> Json {
        let mut metrics = Json::object();
        for (metric, value) in &self.metrics {
            let mut m = Json::object();
            m.push("value", *value).push("unit", metric.unit);
            metrics.push(metric.name, m);
        }
        metrics
    }

    /// The result line: the last line of standard output.
    fn result_line(&self) -> String {
        let mut doc = Json::object();
        doc.push("correct", self.correct)
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", self.metrics_json());
        json::compact(&doc)
    }

    /// The run's record in an `--out` file.
    fn record(&self, workload: &Workload, options: &Options) -> Json {
        let mut doc = Json::object();
        doc.push("workload", workload.name)
            .push("seed", options.seed)
            .push("trace", options.trace)
            .push("correct", self.correct)
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", self.metrics_json());
        doc
    }
}

/// Pairs every metric of `table` with its measured value.
fn tabulate(
    table: &'static [Metric],
    value_of: impl Fn(&str) -> Option<f64>,
) -> Vec<(&'static Metric, f64)> {
    table
        .iter()
        .map(|metric| {
            let value = value_of(metric.name)
                .unwrap_or_else(|| panic!("metric {} was declared but not measured", metric.name));
            (metric, value)
        })
        .collect()
}

fn print_metrics(metrics: &[(&'static Metric, f64)], note: impl Fn(&str) -> Option<String>) {
    for (metric, value) in metrics {
        let note = note(metric.name).map_or(String::new(), |s| format!("  ({s})"));
        println!("  {:<32} {:>16.6} {}{note}", metric.name, value, metric.unit);
    }
}

fn print_gate(measured: &run::Measured) {
    let counts = &measured.counts;
    println!(
        "  ops_attempted {}  ops_failed {}  (admissions requested / not admitted, one replay of \
         every sequence)",
        counts.attempted, counts.rejected
    );
    if measured.violations.is_empty() {
        println!(
            "  correctness: ok — event digests (combined {:016x}) and exact counters equal in \
             every replay, every ticket reached one terminal event, platform idle after every \
             drain",
            counts.digest
        );
    } else {
        for violation in &measured.violations {
            println!("  correctness: VIOLATED — {violation}");
        }
    }
}

/// The result line's counts. `failed` counts tickets that did not reach
/// exactly one terminal event. A refused admission is not one of them:
/// on a saturated platform refusal is the manager's correct answer, and
/// its share is gated as the end-to-end metric `reject_share`.
fn outcome(measured: &run::Measured, metrics: Vec<(&'static Metric, f64)>) -> Outcome {
    Outcome {
        correct: measured.violations.is_empty(),
        attempted: measured.rounds().map(|r| r.counts.attempted).sum(),
        failed: measured.rounds().map(|r| r.counts.terminal_violations).sum(),
        metrics,
    }
}

fn run_untraced(workload: &Workload, options: &Options) -> Outcome {
    let result = run::run(workload, options.seed, options.seconds);
    let measured = &result.measured;
    let (sequences, passes) = (measured.sequences.len(), result.passes);
    println!(
        "  storm: {} applications generated, {} pass the extraneous-sample filter; {sequences} \
         sequences of {} admissions; {} set-up passes, 1 warm-up round, {passes} timed passes \
         ({} rounds)",
        result.generated,
        result.catalogue,
        measured.counts.attempted / sequences as u64,
        tables::SETUP_REPS,
        measured.round_count(),
    );
    let values = result.metrics();
    let metrics = tabulate(&END_TO_END, |name| {
        values.iter().find(|(n, _)| *n == name).map(|&(_, value)| value)
    });
    print_metrics(&metrics, |name| match name {
        "setup_s" => Some(format!("median of {} passes, plus the warm-up", tables::SETUP_REPS)),
        "ops_per_s" => Some(format!("each sequence at the median of its {passes} replays")),
        "admit_p50_us" | "admit_p99_us" => Some(format!(
            "{} requests, each the median of its {passes} replays",
            result.latency_samples
        )),
        "frag_mean" => Some(format!("{} samples", measured.counts.frag_samples)),
        _ => None,
    });
    println!(
        "  host: calibration factor {:.3} (kernel time / reference), raw ops_per_s {:.1}",
        measured.calib_factor(),
        measured.raw_ops_per_s()
    );
    print_gate(measured);
    outcome(measured, metrics)
}

/// Where run artefacts go when no path is given: the build directory,
/// which is inside the checkout and ignored by git.
fn artefact_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_traced(workload: &Workload, options: &Options) -> Result<Outcome, String> {
    let result = layers::run(workload, options.seed);
    let metrics = tabulate(&PER_LAYER, |name| result.values.get(name).copied());
    print_metrics(&metrics, |_| None);

    println!("  busy time by span (self time = span minus children; traced rounds, calibrated):");
    let self_times = result.tracer.self_times();
    let total: u64 = self_times.values().map(|&(ns, _)| ns).sum();
    for (name, (ns, calls)) in &self_times {
        println!(
            "    {:<24} {:>6.1} %  {:>10.2} us/admission  {:>8} calls",
            name,
            100.0 * *ns as f64 / total.max(1) as f64,
            *ns as f64 * result.traced_scale / 1e3 / result.traced_admits as f64,
            calls
        );
    }
    let path = options
        .trace_out
        .clone()
        .unwrap_or_else(|| artefact_dir().join(format!("trace-{}.json", workload.name)));
    write_file(&path, &result.tracer.to_json().render())?;
    println!("  {} spans written to {}", result.tracer.span_count(), path.display());
    print_gate(&result.measured);
    Ok(outcome(&result.measured, metrics))
}

fn single_run(options: &Options) -> Result<ExitCode, String> {
    let workload = tables::workload(&options.workload).expect("validated by parse_args");
    println!(
        "workload {} seed {} trace {} ({} core(s) available)",
        workload.name,
        options.seed,
        options.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = if options.trace {
        run_traced(workload, options)?
    } else {
        run_untraced(workload, options)
    };
    if let Some(path) = &options.out {
        let mut doc = Json::object();
        doc.push("runs", Json::Array(vec![outcome.record(workload, options)]));
        write_file(path, &doc.render())?;
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn try_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if options.benchmark_json {
        print!("{}", tables::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((before, after)) = &options.compare {
        return compare::compare(before, after);
    }
    if let Some(runs) = options.repeat {
        return compare::repeat(&options, runs);
    }
    single_run(&options)
}

fn main() -> ExitCode {
    match try_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("kairos-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
