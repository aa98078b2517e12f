//! Observer overhead — wall-clock cost of running the stack with each
//! observer (the metrics registry, request tracing, the energy/health
//! watch) on versus off.
//!
//! Every observer sits on or beside the admission hot path, so its cost
//! budget is a design constraint: a disabled handle is one pointer test
//! per site; lit, the registry is a handful of relaxed atomic increments,
//! tracing a short critical section appending a span to a `Vec`, and the
//! watch a bounded sweep per sample tick. Each row of [`OBSERVERS`] drives
//! its three catalogue scenarios dark and lit and reports the paired wall
//! times; CI runs it and asserts a generous bounded-slowdown gate per
//! observer, so a regression that makes an observer expensive fails
//! loudly.

use std::time::Instant;

use kairos_bench::print_table;
use kairos_sim::{Scenario, Simulator, WatchSpec};

/// One observer: the scenarios it is paired on — one queued monolithic
/// regime, one sharded probe-heavy regime and the catalogue's own
/// scenario for it — and how to switch it off and on.
struct Observer {
    name: &'static str,
    scenarios: [&'static str; 3],
    dark: fn(Scenario) -> Scenario,
    /// Applied to the dark scenario.
    lit: fn(Scenario) -> Scenario,
}

const OBSERVERS: [Observer; 3] = [
    Observer {
        name: "telemetry",
        scenarios: ["overload-backpressure", "sharded-arrival-storm", "telemetry-probe-latency"],
        dark: |s| Scenario { telemetry: false, ..s },
        lit: |s| Scenario { telemetry: true, ..s },
    },
    Observer {
        name: "tracing",
        scenarios: ["overload-backpressure", "sharded-arrival-storm", "traced-preemption-storm"],
        dark: |s| Scenario { telemetry: false, trace: false, ..s },
        lit: |s| Scenario { trace: true, ..s },
    },
    Observer {
        name: "watch",
        scenarios: ["overload-backpressure", "sharded-arrival-storm", "slo-burn-storm"],
        dark: |s| Scenario { watch: None, power: None, ..s },
        lit: |s| Scenario { watch: Some(WatchSpec::default()), ..s },
    },
];

fn timed_run(scenario: &Scenario) -> (f64, u64) {
    let start = Instant::now();
    let report = Simulator::new(scenario.clone()).expect("catalog scenario is valid").run();
    (start.elapsed().as_secs_f64(), report.totals.arrivals)
}

fn main() {
    let mut rows = Vec::new();
    let mut worst = [0.0f64; OBSERVERS.len()];
    for (observer, worst) in OBSERVERS.iter().zip(&mut worst) {
        for name in observer.scenarios {
            let dark = (observer.dark)(Scenario::by_name(name).expect("catalog scenario"));
            let lit = (observer.lit)(dark.clone());

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
            *worst = worst.max(ratio);
            rows.push(vec![
                observer.name.to_string(),
                name.to_string(),
                arrivals.to_string(),
                format!("{:.2}", dark_secs * 1e3 / 3.0),
                format!("{:.2}", lit_secs * 1e3 / 3.0),
                format!("{ratio:.2}x"),
            ]);
        }
    }
    print_table(
        "Observer overhead: identical runs, observer off vs on",
        &["observer", "scenario", "arrivals", "dark (ms)", "lit (ms)", "slowdown"],
        &rows,
    );

    // Smoke gates: no observer may multiply the cost of a run. The bound
    // is deliberately loose — CI machines are noisy and the runs are
    // short — but a 3x regression means an instrumentation site, span
    // recording or the per-sample sweep started doing real work per
    // event (or a disabled site stopped being a pointer test).
    for (observer, worst) in OBSERVERS.iter().zip(worst) {
        let name = observer.name;
        println!("{name}: worst slowdown {worst:.2}x (1.00x = free)");
        assert!(worst < 3.0, "{name} slowdown {worst:.2}x exceeds the 3x smoke budget");
    }
    println!("smoke gates: every worst slowdown within the 3x budget");
}
