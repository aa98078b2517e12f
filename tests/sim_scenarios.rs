//! End-to-end scenario runs through the `kairos` facade: the catalog
//! executes, the JSON report carries every advertised section, and seeded
//! reruns reproduce it exactly.

use kairos::sim::{Scenario, Simulator};

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
    let scenario = Scenario::by_name("mixed-datasets").unwrap();
    let first = Simulator::new(scenario.clone()).unwrap().run().to_json_string();
    let second = Simulator::new(scenario).unwrap().run().to_json_string();
    assert_eq!(first, second);
}

#[test]
fn queueing_scenarios_are_byte_reproducible() {
    for name in ["priority-inversion", "overload-backpressure", "retry-storm"] {
        let scenario = Scenario::by_name(name).unwrap();
        let first = Simulator::new(scenario.clone()).unwrap().run().to_json_string();
        let second = Simulator::new(scenario).unwrap().run().to_json_string();
        assert_eq!(first, second, "{name} must reproduce byte-for-byte");
    }
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
/// still validates.
#[test]
fn every_catalog_scenario_ends_with_a_clean_audit() {
    for scenario in Scenario::catalog() {
        let name = scenario.name.clone();
        let mut sim = Simulator::new(scenario).unwrap();
        sim.run();
        assert_eq!(sim.manager().audit(), Ok(()), "{name}");
    }
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
