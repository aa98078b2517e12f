//! Integration tests of the relocation scenarios: preemption accounting
//! balances, the migrate-versus-evict acceptance comparison, and
//! defragmentation sweeps.

use kairos_admitd::PreemptionPolicy;
use kairos_sim::{Scenario, Simulator};

#[test]
fn critical_preempt_evicts_and_balances() {
    let mut simulator = Simulator::new(Scenario::by_name("critical-preempt").unwrap()).unwrap();
    let report = simulator.run();
    assert!(report.totals.preemptions > 0, "the scenario must actually preempt");
    // Preempted victims are requeued, never dropped silently: each one
    // either made it back in or reached an accounted terminal outcome.
    assert_eq!(
        report.totals.preemptions,
        report.totals.preempt_readmissions + report.totals.lost_to_preemption,
        "every preempted app is either readmitted or accounted as lost"
    );
    // First-class accounting is untouched by the relocation machinery.
    assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);
    let crit = report.queue.by_class.iter().find(|c| c.class == "critical").unwrap();
    assert!(crit.admitted > 0, "preemption exists to admit blocked criticals");
    // Accounting balance (claims = releases + live): after the drain
    // phase every claim has been released back.
    assert_eq!(report.final_state.admitted_apps, 0);
    assert!(
        simulator.manager().platform().is_idle(),
        "claims must balance releases across all preempt paths"
    );
}

/// The acceptance comparison: the `migrate-vs-evict` scenario run as
/// shipped (migration) against the identical scenario with the policy
/// flipped to evict-and-readmit. Migration admits the same blocked
/// criticals with strictly fewer full evictions — victims keep running
/// through a move instead of being thrown back into the queue.
#[test]
fn migration_beats_evict_and_readmit_on_full_evictions() {
    let migrate = Scenario::by_name("migrate-vs-evict").unwrap();
    assert_eq!(
        migrate.admission.unwrap().preemption,
        PreemptionPolicy::Migrate,
        "the catalog scenario ships with the migration policy"
    );
    let mut evict = migrate.clone();
    evict.admission.as_mut().unwrap().preemption = PreemptionPolicy::Evict;

    let m = Simulator::new(migrate).unwrap().run();
    let e = Simulator::new(evict).unwrap().run();

    let crit_admitted = |r: &kairos_sim::SimReport| {
        r.queue.by_class.iter().find(|c| c.class == "critical").unwrap().admitted
    };
    assert!(m.totals.migrations > 0, "the migration run must actually migrate");
    assert_eq!(e.totals.migrations, 0, "the evict baseline never migrates");
    assert!(crit_admitted(&m) > 0, "blocked criticals are admitted");
    assert!(
        crit_admitted(&m) >= crit_admitted(&e),
        "migration admits no fewer criticals ({} vs {})",
        crit_admitted(&m),
        crit_admitted(&e)
    );
    assert!(
        m.totals.preemptions < e.totals.preemptions,
        "migration must need strictly fewer full evictions ({} vs {})",
        m.totals.preemptions,
        e.totals.preemptions
    );
    // Both runs keep the ledger balanced: what is still admitted at the
    // horizon is exactly admissions plus preempt-readmissions minus
    // departures and preemptions (claims = releases + live). Long-lived
    // residents may legitimately outlive the horizon.
    for (name, r) in [("migrate", &m), ("evict", &e)] {
        assert_eq!(
            r.totals.preemptions,
            r.totals.preempt_readmissions + r.totals.lost_to_preemption,
            "{name} preemption balance"
        );
        assert_eq!(r.totals.arrivals, r.totals.admissions + r.totals.rejections, "{name}");
        assert_eq!(
            r.final_state.admitted_apps as u64,
            r.totals.admissions + r.totals.preempt_readmissions
                - r.totals.departures
                - r.totals.preemptions,
            "{name} live-set balance"
        );
    }
}

#[test]
fn defrag_sweep_compacts_without_touching_accounting() {
    let mut simulator = Simulator::new(Scenario::by_name("defrag-sweep").unwrap()).unwrap();
    let report = simulator.run();
    assert!(report.totals.defrag_moves > 0, "sweeps must move something under churn");
    assert_eq!(report.totals.preemptions, 0, "compaction never evicts");
    assert_eq!(report.totals.migrations, 0, "compaction moves count separately");
    assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);
    assert_eq!(
        report.totals.departures, report.totals.admissions,
        "every admitted app still departs — migration preserves identity and departures"
    );
    assert_eq!(report.final_state.admitted_apps, 0);
    assert!(simulator.manager().platform().is_idle(), "claims balance after defrag churn");
}

/// A queued scenario with defrag exercises `Admitd::defrag` (the catalog
/// sweep runs queue-less); byte-reproducibility must hold there
/// too, and compaction must not disturb the queue accounting balances.
#[test]
fn queued_defrag_stays_balanced_and_reproducible() {
    let mut scenario = Scenario::by_name("retry-storm").unwrap();
    scenario.name = "test-queued-defrag".to_owned();
    scenario.defrag = Some(kairos_sim::SweepSpec { period: 120, max_moves: 3 });
    let a = Simulator::new(scenario.clone()).unwrap().run();
    let b = Simulator::new(scenario).unwrap().run();
    assert_eq!(a.to_json_string(), b.to_json_string(), "queued defrag reproduces");
    let q = &a.queue;
    assert_eq!(
        q.rejected_queue_full
            + q.rejected_permanent
            + q.dropped_timeout
            + q.dropped_retries_exhausted
            + q.flushed_at_shutdown,
        a.totals.rejections
    );
    assert_eq!(q.admitted_immediate + q.admitted_after_wait, a.totals.admissions);
}

/// Preemption under scripted faults: the fault-eviction and
/// preemption-eviction books are kept separately and both balance.
#[test]
fn preemption_and_faults_keep_separate_balanced_books() {
    let mut scenario = Scenario::by_name("critical-preempt").unwrap();
    scenario.name = "test-preempt-faults".to_owned();
    scenario.readmit_evicted = true;
    scenario.faults = vec![
        kairos_sim::FaultSpec { at: 500, element: 10, repair_after: Some(200) },
        kairos_sim::FaultSpec { at: 1100, element: 28, repair_after: None },
    ];
    let report = Simulator::new(scenario).unwrap().run();
    assert_eq!(report.totals.faults_injected, 2);
    assert_eq!(
        report.totals.evictions,
        report.totals.readmissions + report.totals.lost_to_faults,
        "fault eviction balance"
    );
    assert_eq!(
        report.totals.preemptions,
        report.totals.preempt_readmissions + report.totals.lost_to_preemption,
        "preemption balance"
    );
    assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);
}
