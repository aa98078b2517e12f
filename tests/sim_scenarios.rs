//! End-to-end scenario runs through the `kairos` facade: the catalog
//! executes, the JSON report carries every advertised section, the
//! queueing scenarios show what they were built to show, seeded reruns
//! reproduce the report exactly and a new seed changes the run. The
//! reruns are the knob-less row of the observer-effect harness
//! (`tests/observers/mod.rs`), which audits every run.

mod observers;

use kairos::platform::ElementId;
use kairos::sim::{FaultSpec, Scenario, Simulator, SweepSpec};

#[test]
fn catalog_scenario_produces_a_complete_json_report() {
    let scenario = Scenario::by_name("hotspot-failures").expect("catalog scenario exists");
    let report = Simulator::new(scenario).unwrap().run();
    let json = report.to_json_string();
    for key in [
        "\"scenario\"",
        "\"totals\"",
        "\"admissions\"",
        "\"rejections\"",
        "\"departures\"",
        "\"faults_injected\"",
        "\"rejections_by_phase\"",
        "\"binding\"",
        "\"mapping\"",
        "\"routing\"",
        "\"validation\"",
        "\"phases\"",
        "\"rejection_rate\"",
        "\"samples\"",
        "\"external_fragmentation\"",
        "\"final_state\"",
    ] {
        assert!(json.contains(key), "report is missing {key}");
    }
    assert!(report.totals.admissions > 0);
    assert!(report.totals.faults_injected > 0);
    assert!(report.samples.len() > 10, "fragmentation time-series must be sampled");
}

#[test]
fn seeded_rerun_reproduces_the_report_exactly() {
    observers::assert_catalogued_runs_reproduce([Scenario::by_name("mixed-datasets").unwrap()]);
}

#[test]
fn queueing_scenarios_are_byte_reproducible() {
    let names = ["priority-inversion", "overload-backpressure", "retry-storm"];
    observers::assert_catalogued_runs_reproduce(names.map(|name| Scenario::by_name(name).unwrap()));
}

#[test]
fn queueing_reports_carry_the_queue_sections() {
    let report = Simulator::new(Scenario::by_name("overload-backpressure").unwrap()).unwrap().run();
    let json = report.to_json_string();
    for key in [
        "\"queue\"",
        "\"queued\"",
        "\"admitted_after_wait\"",
        "\"retry_attempts\"",
        "\"rejected_queue_full\"",
        "\"dropped_timeout\"",
        "\"max_depth\"",
        "\"mean_wait\"",
        "\"by_class\"",
        "\"queue_depth\"",
    ] {
        assert!(json.contains(key), "report is missing {key}");
    }
}

#[test]
fn overload_backpressure_bounds_queue_memory() {
    let scenario = Scenario::by_name("overload-backpressure").unwrap();
    let capacity: usize = scenario.admission.as_ref().unwrap().class_capacity.iter().sum();
    let report = Simulator::new(scenario).unwrap().run();
    assert!(report.queue.rejected_queue_full > 0, "overload must trip backpressure");
    assert!(
        report.queue.max_depth <= capacity as u64,
        "queue depth {} exceeded the configured bound {capacity}",
        report.queue.max_depth
    );
    assert!(
        report.samples.iter().all(|s| s.queue_depth <= capacity as u64),
        "sampled depth must stay within the bound"
    );
    assert!(report.totals.admissions > 0, "backpressure must not starve admission entirely");
}

#[test]
fn retry_storm_retries_on_capacity_events() {
    let report = Simulator::new(Scenario::by_name("retry-storm").unwrap()).unwrap().run();
    assert!(report.queue.retry_attempts > 0, "the storm must produce retries");
    assert!(report.queue.queued > 0);
    assert!(
        report.queue.retry_attempts > report.queue.admitted_after_wait,
        "most waiters need several attempts"
    );
}

#[test]
fn priority_inversion_favours_critical_requests() {
    let report = Simulator::new(Scenario::by_name("priority-inversion").unwrap()).unwrap().run();
    let class = |name: &str| {
        report.queue.by_class.iter().find(|c| c.class == name).expect("class row").clone()
    };
    let critical = class("critical");
    let low = class("low");
    assert!(critical.queued > 0 && low.queued > 0, "both classes must actually queue");
    assert!(
        critical.mean_wait < low.mean_wait,
        "critical requests ({:.1}) must wait less than low ones ({:.1})",
        critical.mean_wait,
        low.mean_wait
    );
    let admit_rate =
        |c: &kairos::sim::ClassQueueStats| c.admitted as f64 / (c.admitted + c.dropped) as f64;
    assert!(
        admit_rate(&critical) > admit_rate(&low),
        "critical requests must be admitted at a higher rate"
    );
}

/// The guarantee holds where every run ends: after the whole catalog —
/// queue-less, queued, clustered (shard 0's manager), gatewayed, faulted,
/// preempted, defragmented, rebalanced — the manager's registry and the
/// platform's claims agree with each other and every admitted layout
/// still validates. Each scenario runs twice in this process, and the
/// two runs are byte-identical.
#[test]
fn every_catalog_scenario_ends_with_a_clean_audit() {
    observers::assert_catalogued_runs_reproduce(Scenario::catalog());
}

#[test]
fn changing_the_seed_changes_the_run() {
    let scenario = Scenario::by_name("steady-churn").unwrap();
    let mut reseeded = scenario.clone();
    reseeded.seed ^= 0xDEAD_BEEF;
    let a = Simulator::new(scenario).unwrap().run();
    let b = Simulator::new(reseeded).unwrap().run();
    assert_ne!(a.to_json_string(), b.to_json_string());
}

/// `u64::MAX` is a scenario's way to say "never": a repair that never
/// comes, a queue wait that never times out, a lifetime that outlasts
/// the run. The engine schedules each as `now + delay`, which must
/// saturate past the horizon (and so never fire) instead of overflowing
/// into a panic or wrapping into the past. Horizons near `u64::MAX` are
/// the same edge: phase durations whose sum overflows are refused, and
/// periodic events stop where their next tick would overflow.
#[test]
fn never_values_saturate_past_the_horizon() {
    let element = 28;
    let mut scenario = Scenario::by_name("overload-backpressure").unwrap();
    scenario.faults = vec![FaultSpec { at: 400, element, repair_after: Some(u64::MAX) }];
    scenario.admission.as_mut().unwrap().max_wait = Some(u64::MAX);
    scenario.phases[0].mean_lifetime = u64::MAX;
    let mut simulator = Simulator::new(scenario).unwrap();
    let report = simulator.run();
    assert_eq!(report.totals.repairs, 0, "a repair after u64::MAX ticks never comes");
    assert!(
        simulator.manager().platform().is_failed(ElementId(element)),
        "the faulted element is still failed at the horizon"
    );
    assert!(report.queue.queued > 0, "requests waited in the queue");
    assert_eq!(report.queue.dropped_timeout, 0, "a wait of u64::MAX ticks never times out");
    assert_eq!(
        report.totals.departures, 0,
        "lifetimes drawn at a mean of u64::MAX outlast the run"
    );
    assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);

    let mut overflowing = Scenario::by_name("steady-churn").unwrap();
    overflowing.phases.truncate(1);
    overflowing.phases[0].duration = u64::MAX / 2 + 1;
    overflowing.phases.push(overflowing.phases[0].clone());
    overflowing.faults.clear();
    assert!(overflowing.validate().is_err(), "phase durations summing past u64::MAX are refused");
    assert!(Simulator::new(overflowing).is_err());

    let mut endless = Scenario::by_name("defrag-sweep").unwrap();
    endless.phases.truncate(1);
    endless.phases[0].duration = u64::MAX;
    endless.phases[0].mean_interarrival = u64::MAX / 4;
    endless.faults.clear();
    endless.sample_period = u64::MAX / 2;
    endless.defrag = Some(SweepSpec { period: u64::MAX / 2, max_moves: 1 });
    let report = Simulator::new(endless).unwrap().run();
    assert_eq!(report.horizon, u64::MAX);
    assert_eq!(report.samples.len(), 3, "samples at 0, u64::MAX / 2 and u64::MAX - 1");
    assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);
}
