//! Telemetry overhead — wall-clock cost of running the stack with the
//! observability layer on versus off.
//!
//! Instrumentation sits on the admission hot path (pipeline phase
//! histograms, admission counters, probe histograms), so its cost budget is a
//! design constraint: a *disabled* handle must be one pointer test per
//! site, and an *enabled* one a handful of relaxed atomic increments.
//! This bench drives the same deterministic scenarios dark and lit and
//! reports the paired wall times; CI runs it in smoke mode and asserts a
//! generous bounded-slowdown gate so regressions that make telemetry
//! expensive fail loudly.

use std::time::Instant;

use kairos_bench::print_table;
use kairos_sim::{Scenario, Simulator};

/// Scenarios paired dark/lit: one queued monolithic regime, one sharded
/// probe-heavy regime, and the catalog's own telemetry scenario.
const SCENARIOS: &[&str] =
    &["overload-backpressure", "sharded-arrival-storm", "telemetry-probe-latency"];

fn timed_run(scenario: &Scenario) -> (f64, u64) {
    let start = Instant::now();
    let report = Simulator::new(scenario.clone()).expect("catalog scenario is valid").run();
    (start.elapsed().as_secs_f64(), report.totals.arrivals)
}

fn main() {
    let mut rows = Vec::new();
    let mut worst_ratio = 0.0f64;
    for name in SCENARIOS {
        let mut dark = Scenario::by_name(name).expect("catalog scenario");
        dark.telemetry = false;
        let mut lit = dark.clone();
        lit.telemetry = true;

        // Warm up both variants, then interleave measured runs so page
        // cache and frequency drift hit both sides evenly.
        timed_run(&dark);
        timed_run(&lit);
        let mut dark_secs = 0.0;
        let mut lit_secs = 0.0;
        let mut arrivals = 0;
        for _ in 0..3 {
            let (d, a) = timed_run(&dark);
            let (l, _) = timed_run(&lit);
            dark_secs += d;
            lit_secs += l;
            arrivals = a;
        }

        let ratio = lit_secs / dark_secs;
        worst_ratio = worst_ratio.max(ratio);
        rows.push(vec![
            (*name).to_string(),
            arrivals.to_string(),
            format!("{:.2}", dark_secs * 1e3 / 3.0),
            format!("{:.2}", lit_secs * 1e3 / 3.0),
            format!("{ratio:.2}x"),
        ]);
    }
    print_table(
        "Telemetry overhead: identical runs, registry off vs on",
        &["scenario", "arrivals", "dark (ms)", "lit (ms)", "slowdown"],
        &rows,
    );
    println!("\nworst slowdown {worst_ratio:.2}x (1.00x = free)");

    // Smoke gate: telemetry must never multiply the cost of a run. The
    // bound is deliberately loose — CI machines are noisy and the runs
    // are short — but a 3x regression means an instrumentation site
    // started doing real work per event and must fail the build.
    assert!(worst_ratio < 3.0, "telemetry slowdown {worst_ratio:.2}x exceeds the 3x smoke budget");
    println!("smoke gate: worst slowdown within the 3x budget");
}
