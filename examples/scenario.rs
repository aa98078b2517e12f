//! Runs a named catalog scenario through the discrete-event engine and
//! prints its JSON report.
//!
//! ```text
//! cargo run --release --example scenario [NAME]
//! cargo run --release --example scenario -- --list
//! cargo run --release --example scenario -- NAME --trace out.json
//! ```
//!
//! Defaults to `steady-churn`. Reports are byte-identical across reruns of
//! the same scenario — pipe to a file and diff to convince yourself. With
//! `--trace PATH` the exported Chrome-trace JSON (load via
//! `chrome://tracing` or Perfetto) is written to PATH after the run; the
//! file is byte-identical across reruns too. The export is empty (`[]`)
//! unless the scenario enables tracing.

use kairos::sim::{Scenario, Simulator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for scenario in Scenario::catalog() {
                    println!(
                        "{:<24} {} phases, horizon {}",
                        scenario.name,
                        scenario.phases.len(),
                        scenario.horizon()
                    );
                }
                return;
            }
            "--trace" => match iter.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace requires an output path");
                    std::process::exit(2);
                }
            },
            _ => name = Some(arg),
        }
    }
    let name = name.unwrap_or_else(|| "steady-churn".to_owned());
    let Some(scenario) = Scenario::by_name(&name) else {
        eprintln!("unknown scenario '{name}'; try --list");
        std::process::exit(2);
    };
    let mut simulator = Simulator::new(scenario).expect("catalog scenarios are valid");
    let report = simulator.run();
    if let Some(path) = trace_path {
        if let Err(err) = std::fs::write(&path, simulator.telemetry().chrome_trace()) {
            eprintln!("writing trace to {path}: {err}");
            std::process::exit(1);
        }
    }
    print!("{}", report.to_json_string());
}
