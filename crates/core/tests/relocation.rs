//! Property-based tests of the relocation invariants: a failed or
//! declined migration never leaves a partially-moved binding, victim sets
//! are minimal with respect to single-victim removal, and planning never
//! perturbs the platform state.

use proptest::prelude::*;

use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_core::{Kairos, KairosConfig, MigrationError};
use kairos_platform::{topology, AppId, ElementKind, ResourceVector};

/// A chain of `tasks` DSP tasks, each demanding `cpu`.
fn chain(name: &str, tasks: usize, cpu: u64) -> Application {
    let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 4, 0, 0), 50, 1);
    let mut b = ApplicationBuilder::new(name);
    let mut prev = None;
    for i in 0..tasks {
        let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]);
        if let Some(p) = prev {
            b.add_channel(p, t, 10, 1);
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

/// Admits a generated workload onto a 3x3 DSP mesh, returning the manager
/// and the admitted ids. Apps that don't fit are simply skipped.
fn occupied_mesh(specs: &[(u8, u8)]) -> (Kairos, Vec<AppId>) {
    let mut kairos = Kairos::new(topology::dsp_mesh(3, 3), KairosConfig::default());
    let mut ids = Vec::new();
    for (n, &(tasks, cpu)) in specs.iter().enumerate() {
        let tasks = 1 + (tasks % 3) as usize;
        let cpu = 200 + 100 * (cpu % 6) as u64;
        if let Ok(report) = kairos.admit(&chain(&format!("a{n}"), tasks, cpu)) {
            ids.push(report.app_id);
        }
    }
    (kairos, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A migration that fails (nowhere to go) or is declined by the
    /// acceptance check rolls back to the byte-identical pre-move state:
    /// no binding is ever left partially moved.
    #[test]
    fn failed_and_declined_migrations_roll_back_exactly(
        specs in proptest::collection::vec((0u8..=255, 0u8..=255), 1..10),
        avoid_mask in 0u16..512,
    ) {
        let (mut kairos, ids) = occupied_mesh(&specs);
        let before = kairos.platform().checkpoint();
        let layouts: Vec<_> =
            ids.iter().map(|&id| kairos.layout(id).unwrap().clone()).collect();

        // Declined moves must be perfect no-ops.
        for &id in &ids {
            let err = kairos.migrate_if(id, &[], |_, _, _| false).unwrap_err();
            prop_assert!(matches!(err, MigrationError::Declined | MigrationError::Admission(_)));
        }
        prop_assert_eq!(kairos.platform().checkpoint(), before.clone());

        // Moves with an arbitrary (often infeasible) avoidance mask either
        // commit fully or roll back fully — and an avoided element never
        // hosts the app afterwards.
        let avoid: Vec<_> = kairos
            .platform()
            .element_ids()
            .filter(|e| avoid_mask & (1 << (e.index() % 16)) != 0)
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            match kairos.migrate(id, &avoid) {
                Ok(report) => {
                    for (_, e) in report.new_layout.placement.iter() {
                        prop_assert!(!avoid.contains(&e), "avoided element reused");
                    }
                    prop_assert_eq!(kairos.layout(id).unwrap(), &report.new_layout);
                }
                Err(_) => {
                    prop_assert_eq!(kairos.layout(id).unwrap(), &layouts[i],
                        "failed move must leave the old layout in force");
                }
            }
            // No avoidance failure-mark may leak out of the move.
            let platform = kairos.platform();
            prop_assert!(!platform.element_ids().any(|e| platform.is_failed(e)));
        }

        // Whatever happened, the ledger still balances: releasing all
        // admitted applications restores the idle platform.
        for &id in &ids {
            prop_assert!(kairos.release(id));
        }
        prop_assert!(kairos.platform().is_idle(), "claims = releases + live violated");
    }

    /// Victim plans are minimal w.r.t. single-victim removal and planning
    /// itself is state-neutral.
    #[test]
    fn victim_sets_are_minimal_and_planning_is_state_neutral(
        specs in proptest::collection::vec((0u8..=255, 0u8..=255), 2..10),
        req_tasks in 1u8..4,
        req_cpu in 0u8..4,
    ) {
        let (mut kairos, ids) = occupied_mesh(&specs);
        let before = kairos.platform().checkpoint();
        let request = chain("req", req_tasks as usize, 500 + 150 * req_cpu as u64);

        if let Some(plan) = kairos.select_victims(&request, &ids, ids.len()) {
            prop_assert!(!plan.victims.is_empty());
            prop_assert!(
                kairos.probe_admit_without(&request, &plan.victims).is_ok(),
                "the plan must actually unblock the request"
            );
            if plan.victims.len() > 1 {
                for i in 0..plan.victims.len() {
                    let mut trial = plan.victims.clone();
                    trial.remove(i);
                    prop_assert!(
                        kairos.probe_admit_without(&request, &trial).is_err(),
                        "victim {} is redundant in {:?}",
                        i,
                        plan.victims
                    );
                }
            }
        }
        prop_assert_eq!(kairos.platform().checkpoint(), before,
            "victim planning must not perturb the platform");
    }

    /// Compaction sweeps never increase fragmentation, never change the
    /// admitted-application set, and keep the ledger balanced.
    #[test]
    fn compaction_is_safe_under_arbitrary_occupancy(
        specs in proptest::collection::vec((0u8..=255, 0u8..=255), 1..12),
        releases in proptest::collection::vec(0u8..=255, 0..6),
        budget in 0usize..6,
    ) {
        let (mut kairos, mut ids) = occupied_mesh(&specs);
        // Randomly release some applications to open up holes.
        for &r in &releases {
            if ids.is_empty() {
                break;
            }
            let id = ids.remove(r as usize % ids.len());
            prop_assert!(kairos.release(id));
        }
        let before_ids = kairos.admitted_ids();
        let report = kairos.compact(budget);
        prop_assert!(report.fragmentation_after <= report.fragmentation_before);
        prop_assert!(report.move_count() <= budget);
        prop_assert_eq!(kairos.admitted_ids(), before_ids,
            "compaction must move applications, not add or drop them");
        for id in kairos.admitted_ids() {
            prop_assert!(kairos.release(id));
        }
        prop_assert!(kairos.platform().is_idle());
    }
}
