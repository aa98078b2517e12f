//! Integration tests of the scenario engine: determinism, conservation
//! laws, and resource release after departures.

use kairos_appgen::{DatasetSpec, MixEntry, Orientation, SizeClass};
use kairos_sim::{FaultSpec, PhaseSpec, PlatformSpec, Scenario, Simulator};

fn light_mix() -> Vec<MixEntry> {
    vec![MixEntry::new(
        DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Small },
        1,
    )]
}

/// A short scenario whose applications all depart well before the horizon.
fn churn_and_drain(seed: u64) -> Scenario {
    let phases = vec![
        PhaseSpec::new("churn", 600, 20, 60, light_mix()),
        PhaseSpec::new("drain", 2000, 0, 0, Vec::new()),
    ];
    Scenario::new("test-churn", seed, 25, PlatformSpec::Crisp, phases)
}

#[test]
fn identical_seeds_give_byte_identical_reports() {
    for scenario in Scenario::catalog() {
        let a = Simulator::new(scenario.clone()).unwrap().run();
        let b = Simulator::new(scenario.clone()).unwrap().run();
        assert_eq!(
            a.to_json_string(),
            b.to_json_string(),
            "{} must reproduce byte-for-byte",
            scenario.name
        );
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let a = Simulator::new(churn_and_drain(1)).unwrap().run();
    let b = Simulator::new(churn_and_drain(2)).unwrap().run();
    assert_ne!(a.to_json_string(), b.to_json_string());
}

#[test]
fn departures_return_the_platform_to_baseline() {
    let mut simulator = Simulator::new(churn_and_drain(7)).unwrap();
    let report = simulator.run();
    assert!(report.totals.admissions > 0, "the scenario must admit something");
    assert_eq!(
        report.totals.departures, report.totals.admissions,
        "every admitted application departs within the drain window"
    );
    assert_eq!(report.final_state.admitted_apps, 0);
    assert_eq!(report.final_state.element_utilisation, 0.0);
    assert_eq!(report.final_state.resource_utilisation, 0.0);
    assert_eq!(report.final_state.free_islands, 1);
    assert!(
        simulator.manager().platform().is_idle(),
        "all elements and links must be reclaimed after the last departure"
    );
}

#[test]
fn arrivals_split_into_admissions_and_rejections() {
    for scenario in Scenario::catalog() {
        let report = Simulator::new(scenario.clone()).unwrap().run();
        // Every arrival reaches exactly one terminal outcome — with an
        // admission queue, the shutdown flush guarantees it.
        assert_eq!(
            report.totals.arrivals,
            report.totals.admissions + report.totals.rejections,
            "{}",
            scenario.name
        );
        let by_phase: u64 = report.rejections_by_phase.iter().map(|(_, n)| n).sum();
        if scenario.admission.is_none() {
            assert_eq!(by_phase, report.totals.rejections, "{}", scenario.name);
            assert!(!report.queue.enabled, "{}", scenario.name);
        } else {
            // Queue-level rejections (full, timeout, shutdown) carry no
            // pipeline phase; the reason breakdown must balance instead.
            assert!(by_phase <= report.totals.rejections, "{}", scenario.name);
            let q = &report.queue;
            assert!(q.enabled, "{}", scenario.name);
            assert_eq!(
                q.rejected_queue_full
                    + q.rejected_permanent
                    + q.dropped_timeout
                    + q.dropped_retries_exhausted
                    + q.flushed_at_shutdown,
                report.totals.rejections,
                "{}",
                scenario.name
            );
            assert_eq!(
                q.admitted_immediate + q.admitted_after_wait,
                report.totals.admissions,
                "{}",
                scenario.name
            );
        }
        let per_phase_arrivals: u64 = report.phases.iter().map(|p| p.arrivals).sum();
        assert_eq!(per_phase_arrivals, report.totals.arrivals, "{}", scenario.name);
        assert!(!report.samples.is_empty());
        assert_eq!(report.horizon, scenario.horizon());
    }
}

#[test]
fn faults_evict_and_repair_restores_capacity() {
    let mut scenario = churn_and_drain(3);
    scenario.name = "test-faults".to_owned();
    // Heavier, longer-lived load so the faulted elements are likely busy.
    scenario.phases[0] = PhaseSpec::new("churn", 600, 8, 400, light_mix());
    scenario.faults = vec![
        FaultSpec { at: 300, element: 5, repair_after: Some(100) },
        FaultSpec { at: 350, element: 6, repair_after: None },
    ];
    scenario.readmit_evicted = true;

    let mut simulator = Simulator::new(scenario).unwrap();
    let report = simulator.run();
    assert_eq!(report.totals.faults_injected, 2);
    assert_eq!(report.totals.repairs, 1);
    assert_eq!(report.totals.evictions, report.totals.readmissions + report.totals.lost_to_faults);
    assert_eq!(report.final_state.failed_elements, 1, "one element is never repaired");
    // Everything that stayed admitted departs during the drain phase.
    assert_eq!(report.final_state.admitted_apps, 0);
    let platform = simulator.manager().platform();
    assert!(platform.is_idle(), "no claims remain after the drain (failure marks aside)");
    assert_eq!(platform.failed_elements().len(), 1);
}

#[test]
fn readmitted_apps_still_depart_across_seeds() {
    // Regression: a departure coinciding exactly with a fault tick must be
    // rescheduled for the re-admitted instance, or it leaks until the
    // horizon. Sweep seeds so fault ticks land on many different offsets
    // relative to departure times. Lifetimes are short relative to the
    // drain window so no draw can legitimately outlive the horizon.
    for seed in 0..10 {
        let mut scenario = churn_and_drain(seed);
        scenario.name = format!("test-fault-drain-{seed}");
        scenario.phases[0] = PhaseSpec::new("churn", 600, 6, 100, light_mix());
        scenario.faults = (0..12)
            .map(|i| FaultSpec { at: 50 * (i + 1), element: i as u32, repair_after: Some(40) })
            .collect();
        scenario.readmit_evicted = true;
        let mut simulator = Simulator::new(scenario).unwrap();
        let report = simulator.run();
        assert_eq!(report.final_state.admitted_apps, 0, "seed {seed} leaked an application");
        assert!(simulator.manager().platform().is_idle(), "seed {seed} leaked claims");
    }
}

#[test]
fn queued_scenarios_with_faults_keep_accounting_balanced() {
    // Queueing + faults + eviction re-submission: the regime no catalog
    // scenario covers. Queue statistics count first-class requests only;
    // re-submissions surface under readmissions/lost_to_faults, so every
    // balance below must hold exactly.
    let mut scenario = churn_and_drain(5);
    scenario.name = "test-queued-faults".to_owned();
    scenario.phases[0] = PhaseSpec::new("churn", 600, 8, 400, light_mix());
    scenario.faults = vec![
        FaultSpec { at: 300, element: 5, repair_after: Some(100) },
        FaultSpec { at: 350, element: 6, repair_after: None },
    ];
    scenario.readmit_evicted = true;
    scenario.admission = Some(kairos_admitd::AdmitPolicy {
        class_capacity: [4, 4, 8, 4],
        max_wait: Some(300),
        max_attempts: 4,
        backoff_base: 1,
        backoff_cap: 4,
        ..kairos_admitd::AdmitPolicy::default()
    });
    let report = Simulator::new(scenario).unwrap().run();
    let q = &report.queue;
    assert_eq!(report.totals.faults_injected, 2);
    assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);
    assert_eq!(
        q.rejected_queue_full
            + q.rejected_permanent
            + q.dropped_timeout
            + q.dropped_retries_exhausted
            + q.flushed_at_shutdown,
        report.totals.rejections
    );
    assert_eq!(q.admitted_immediate + q.admitted_after_wait, report.totals.admissions);
    assert_eq!(report.totals.evictions, report.totals.readmissions + report.totals.lost_to_faults);
    let class_queued: u64 = q.by_class.iter().map(|c| c.queued).sum();
    assert_eq!(class_queued, q.queued, "per-class and top-level queued counts must agree");
    let by_phase: u64 = report.rejections_by_phase.iter().map(|(_, n)| n).sum();
    assert!(by_phase <= report.totals.rejections);
}

#[test]
#[should_panic(expected = "only be called once")]
fn rerunning_a_simulator_is_refused() {
    let mut simulator = Simulator::new(churn_and_drain(1)).unwrap();
    simulator.run();
    simulator.run();
}

#[test]
fn hotspot_catalog_scenario_exercises_the_fault_path() {
    let report = Simulator::new(Scenario::by_name("hotspot-failures").unwrap()).unwrap().run();
    assert_eq!(report.totals.faults_injected, 5);
    assert_eq!(report.totals.repairs, 5);
    assert!(report.totals.evictions > 0, "faults must evict at least one application");
    assert_eq!(report.final_state.failed_elements, 0, "all elements recover");
}
