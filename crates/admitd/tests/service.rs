//! Property-based and integration tests of the service surface:
//! batched submission is outcome-equivalent to sequential submission,
//! the whole surface replays deterministically, and the cluster's hooks
//! compose like a rebalance move.

use proptest::prelude::*;

use kairos_admitd::{
    AdmitPolicy, Admitd, CapacityEvent, Command, Event, PreemptionPolicy, PriorityClass,
    RejectCause, Request, ResourceService, ServiceBuilder, Ticket,
};
use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_core::{Kairos, KairosConfig};
use kairos_platform::{topology, ElementId, ElementKind, ResourceVector};
use kairos_telemetry::{Telemetry, TelemetryConfig};

/// A chain of `tasks` DSP tasks, each demanding `cpu`.
fn chain(name: &str, tasks: usize, cpu: u64) -> Application {
    let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 50, 1);
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

/// Queue policy roomy enough that no wave in these tests ever hits the
/// door (class capacities above every generated wave size, no timeout).
fn roomy_policy() -> AdmitPolicy {
    AdmitPolicy { class_capacity: [16, 16, 16, 16], max_wait: None, ..AdmitPolicy::default() }
}

/// Terminal outcome of an admission request: `Some(true)` admitted,
/// `Some(false)` rejected, `None` still queued.
fn outcome_of(events: &[Event], ticket: Ticket) -> Option<bool> {
    events.iter().find_map(|e| match e {
        Event::Admitted { ticket: t, .. } if *t == ticket => Some(true),
        Event::Rejected { ticket: t, .. } if *t == ticket => Some(false),
        _ => None,
    })
}

/// One generated admission: task count, class index, and whether the app
/// is structurally hopeless (rejected permanently regardless of order).
type Gen = (u8, u8, bool);

fn wave_from(spec: &[Gen], cpu: u64) -> Vec<(Application, PriorityClass)> {
    spec.iter()
        .enumerate()
        .map(|(i, &(tasks, class, hopeless))| {
            let cpu = if hopeless { 1_000_000 } else { cpu };
            let app = chain(&format!("w{i}"), 1 + (tasks % 3) as usize, cpu);
            (app, PriorityClass::ALL[(class % 4) as usize])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Uncontended equivalence: when neither the platform nor the queue
    /// is contended, a batched wave produces exactly the same per-request
    /// accept/reject outcomes as sequential submission in arrival order.
    #[test]
    fn batch_equals_sequential_when_uncontended(
        spec in proptest::collection::vec((0u8..3, 0u8..4, any::<bool>()), 1..10),
    ) {
        // Small demands on the 62-element CRISP platform: every sound app
        // fits, every hopeless app rejects permanently, order-free.
        let wave = wave_from(&spec, 80);

        let mut sequential = ServiceBuilder::new(topology::crisp())
            .deterministic(true).admission(roomy_policy()).build().unwrap();
        let mut seq_outcomes = Vec::new();
        for (app, class) in wave.clone() {
            let ticket = sequential.submit(Request::admit(0, app, class));
            let events = sequential.take_events();
            seq_outcomes.push(outcome_of(&events, ticket));
        }

        let mut batched = ServiceBuilder::new(topology::crisp())
            .deterministic(true).admission(roomy_policy()).build().unwrap();
        let requests = wave.into_iter().map(|(app, class)| Request::admit(0, app, class)).collect();
        let tickets = batched.submit_batch(requests);
        let events = batched.take_events();
        let batch_outcomes: Vec<Option<bool>> =
            tickets.iter().map(|&t| outcome_of(&events, t)).collect();

        prop_assert_eq!(&batch_outcomes, &seq_outcomes, "uncontended outcomes must be identical");
        prop_assert!(batch_outcomes.iter().all(|o| o.is_some()), "nothing waits uncontended");
        prop_assert_eq!(
            batched.kairos().admitted_count(),
            sequential.kairos().admitted_count()
        );
    }

    /// Contended safety: a batched wave admits exactly the requests that
    /// sequential submission of the same wave in class-sorted order
    /// (the order the batch drain itself uses) would admit — in
    /// particular, the batch never accepts an app that sequential
    /// admission would reject.
    #[test]
    fn batch_never_admits_what_sequential_rejects(
        spec in proptest::collection::vec((0u8..3, 0u8..4), 2..12),
    ) {
        // Heavy demands on a 2x2 mesh: most waves are platform-contended.
        let spec: Vec<Gen> = spec.into_iter().map(|(t, c)| (t, c, false)).collect();
        let wave = wave_from(&spec, 700);

        let mut batched = ServiceBuilder::new(topology::dsp_mesh(2, 2))
            .deterministic(true).admission(roomy_policy()).build().unwrap();
        let requests: Vec<Request> =
            wave.iter().map(|(app, class)| Request::admit(0, app.clone(), *class)).collect();
        let tickets = batched.submit_batch(requests);
        let events = batched.take_events();
        let batch_admitted: Vec<&str> = tickets
            .iter()
            .zip(&wave)
            .filter(|&(&t, _)| outcome_of(&events, t) == Some(true))
            .map(|(_, (app, _))| app.name())
            .collect();

        // Sequential submission in the batch's own order: stable
        // class-sort of the wave.
        let mut sorted = wave.clone();
        sorted.sort_by_key(|(_, class)| class.index());
        let mut sequential = ServiceBuilder::new(topology::dsp_mesh(2, 2))
            .deterministic(true).admission(roomy_policy()).build().unwrap();
        let mut seq_admitted = Vec::new();
        for (app, class) in sorted {
            let name = app.name().to_owned();
            let ticket = sequential.submit(Request::admit(0, app, class));
            let events = sequential.take_events();
            if outcome_of(&events, ticket) == Some(true) {
                seq_admitted.push(name);
            }
        }

        let mut batch_sorted: Vec<String> =
            batch_admitted.iter().map(|s| s.to_string()).collect();
        batch_sorted.sort();
        seq_admitted.sort();
        prop_assert_eq!(batch_sorted, seq_admitted,
            "batched admission decisions must match class-sorted sequential submission");
    }

    /// Replay determinism: the same request sequence produces the same
    /// event stream, byte for byte.
    #[test]
    fn identical_request_sequences_replay_identically(
        spec in proptest::collection::vec((0u8..3, 0u8..4, any::<bool>()), 1..10),
    ) {
        let run = || {
            let mut service = ServiceBuilder::new(topology::dsp_mesh(3, 3))
                .deterministic(true).admission(roomy_policy()).build().unwrap();
            let wave = wave_from(&spec, 400);
            let half = wave.len() / 2;
            let mut log = Vec::new();
            for (i, (app, class)) in wave.iter().take(half).enumerate() {
                service.submit(Request::admit(i as u64, app.clone(), *class));
                log.extend(service.take_events());
            }
            let batch: Vec<Request> = wave[half..]
                .iter()
                .map(|(app, class)| Request::admit(half as u64, app.clone(), *class))
                .collect();
            service.submit_batch(batch);
            log.extend(service.take_events());
            // Release everything, then flush.
            for id in service.kairos().admitted_ids() {
                service.submit(Request::release(100, id));
                log.extend(service.take_events());
            }
            log.extend(service.pump(CapacityEvent::Shutdown { now: 200 }));
            log
        };
        prop_assert_eq!(run(), run(), "service replay must be deterministic");
    }
}

/// One constructor wires every instrument from the manager's hub: over a
/// lit manager `kairos.svc.*` and `kairos.reloc.*` always, and
/// `kairos.admitd.*` iff a policy is set (a queue-less front-end has no
/// queue instruments to register); over a dark one nothing at all.
#[test]
fn wrappers_register_their_instruments_on_the_managers_hub() {
    let registered = |admitd: &Admitd, prefix: &str| {
        admitd.telemetry().snapshot().metrics.iter().filter(|m| m.name.starts_with(prefix)).count()
    };
    let manager = |lit: bool| {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        if lit {
            kairos.set_telemetry(Telemetry::new(TelemetryConfig::default()));
        }
        kairos
    };
    for policy in [None, Some(AdmitPolicy::default())] {
        let lit = Admitd::new(manager(true), policy).unwrap();
        assert!(registered(&lit, "kairos.svc.") > 0);
        assert!(registered(&lit, "kairos.reloc.") > 0, "defrag sweeps report either way");
        assert_eq!(registered(&lit, "kairos.admitd.") > 0, policy.is_some(), "{policy:?}");
        let dark = Admitd::new(manager(false), policy).unwrap();
        assert!(dark.telemetry().snapshot().is_empty());
    }
}

/// Element ids outside the platform get an answer, not a panic: a fault
/// or a repair there is reported with no eviction and no capacity event,
/// a migration skips them in its avoidance set, and nothing else moves.
#[test]
fn hostile_element_ids_get_an_answer_not_a_panic() {
    let mut service = ServiceBuilder::new(topology::dsp_mesh(2, 2))
        .deterministic(true)
        .admission(roomy_policy())
        .build()
        .unwrap();
    service.submit(Request::admit(0, chain("r", 2, 600), PriorityClass::Normal));
    let Event::Admitted { report, .. } = service.take_events().remove(1) else {
        panic!("the resident admits")
    };
    let before = service.kairos().platform().checkpoint();
    let outside = ElementId(4);
    let fault = service.submit(Request::new(1, Command::InjectFault { element: outside }));
    let repair = service.submit(Request::new(2, Command::Repair { element: outside }));
    assert_eq!(
        service.take_events(),
        vec![
            Event::ElementFailed { ticket: fault, element: outside, evicted: Vec::new() },
            Event::ElementRepaired { ticket: repair, element: outside },
        ]
    );
    assert_eq!(service.capacity_events(), 0);
    assert_eq!(service.kairos().platform().checkpoint(), before);
    let avoid = vec![outside, ElementId(u32::MAX)];
    service.submit(Request::new(3, Command::Migrate { app: report.app_id, avoid }));
    let events = service.take_events();
    assert!(
        matches!(events.as_slice(), [Event::Migrated { .. } | Event::MigrationFailed { .. }]),
        "{events:?}"
    );
    assert_eq!(service.kairos().audit(), Ok(()));
}

#[test]
fn direct_rejections_carry_the_refusing_phase() {
    let mut service =
        ServiceBuilder::new(topology::dsp_mesh(2, 2)).deterministic(true).build().unwrap();
    service.submit(Request::admit(0, chain("fill", 4, 900), PriorityClass::Normal));
    service.take_events();
    service.submit(Request::admit(1, chain("blocked", 4, 900), PriorityClass::Normal));
    let events = service.take_events();
    assert!(matches!(
        &events[..],
        [Event::Rejected { cause: RejectCause::Refused { .. }, waited: 0, .. }]
    ));
}

#[test]
fn preemption_requeues_run_under_the_ticket_derived_from_the_victim() {
    let mut service = ServiceBuilder::new(topology::dsp_mesh(2, 2))
        .deterministic(true)
        .admission(AdmitPolicy {
            max_wait: None,
            preemption: PreemptionPolicy::Evict,
            ..roomy_policy()
        })
        .build()
        .unwrap();
    let low = service.submit(Request::admit(0, chain("low", 4, 900), PriorityClass::Low));
    service.take_events();
    let crit = service.submit(Request::admit(1, chain("crit", 4, 900), PriorityClass::Critical));
    let events = service.take_events();
    let (victim, requeued_as, by) = events
        .iter()
        .find_map(|e| match e {
            Event::Preempted { victim, requeued_as, by, .. } => Some((*victim, *requeued_as, *by)),
            _ => None,
        })
        .expect("the critical must preempt: {events:?}");
    assert_eq!(by, crit, "attribution names the blocked request's ticket");
    assert_eq!(requeued_as, Ticket::requeue_of(victim), "requeues derive from the victim");
    assert!(requeued_as != low && requeued_as != crit, "and never collide with minted tickets");
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::Queued { ticket, .. } if *ticket == requeued_as)));
    assert!(events.iter().any(|e| matches!(e, Event::Admitted { ticket, .. } if *ticket == crit)));
    // The requeue consumed nothing from the mint: numbering stays dense.
    let next = service.submit(Request::release(2, victim));
    assert_eq!(next.0, crit.0 + 1);
}

/// The builder and the front-end it wraps refuse a policy that fails
/// `AdmitPolicy::validate` with that very error, and panic on none.
#[test]
fn builder_rejects_invalid_admission_policies() {
    let policy = AdmitPolicy { max_attempts: 0, ..AdmitPolicy::default() };
    let expected = policy.validate().unwrap_err();
    let built = ServiceBuilder::new(topology::crisp()).admission(policy).build();
    assert_eq!(built.map(drop), Err(expected.clone()));
    let kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    assert_eq!(Admitd::new(kairos, Some(policy)).map(drop), Err(expected));
}

#[test]
fn mixed_batches_run_non_admissions_after_the_wave() {
    let mut service = ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap();
    let resident = service.submit(Request::admit(0, chain("r", 2, 500), PriorityClass::Normal));
    let events = service.take_events();
    assert_eq!(events[0].ticket(), resident);
    let Event::Admitted { report, .. } = &events[0] else { panic!("admitted") };
    let id = report.app_id;

    let tickets = service.submit_batch(vec![
        Request::new(1, Command::Release { app: id }),
        Request::admit(1, chain("n", 1, 500), PriorityClass::Normal),
    ]);
    let events = service.take_events();
    // The admission (second request) resolves first; the release follows.
    assert_eq!(events.len(), 2);
    assert!(matches!(&events[0], Event::Admitted { ticket, .. } if *ticket == tickets[1]));
    assert!(matches!(
        &events[1],
        Event::Released { ticket, found: true, .. } if *ticket == tickets[0]
    ));
}

#[test]
fn rebalance_on_a_single_manager_service_is_a_zero_move_sweep() {
    for queued in [false, true] {
        let b = ServiceBuilder::new(topology::crisp()).deterministic(true);
        let mut service =
            if queued { b.admission(roomy_policy()).build() } else { b.build() }.unwrap();
        service.submit(Request::admit(0, chain("r", 2, 500), PriorityClass::Normal));
        service.take_events();
        let before = service.kairos().platform().checkpoint();
        let ticket = service.submit(Request::new(1, Command::Rebalance { max_moves: 4 }));
        let events = service.take_events();
        assert!(
            matches!(
                events.as_slice(),
                [Event::Rebalanced { ticket: t, moves }] if *t == ticket && moves.is_empty()
            ),
            "queued={queued}: no shard boundary, no moves: {events:?}"
        );
        assert_eq!(service.kairos().platform().checkpoint(), before);
    }
}

#[test]
fn probe_admit_now_and_release_now_compose_like_a_rebalance_move() {
    for queued in [false, true] {
        let b = ServiceBuilder::new(topology::crisp()).deterministic(true);
        let mut service =
            if queued { b.admission(roomy_policy()).build() } else { b.build() }.unwrap();
        let app = chain("mover", 2, 500);
        // Probe is state-neutral and event-free.
        let before = service.kairos().platform().checkpoint();
        service.probe_admit(&app).unwrap();
        assert_eq!(service.kairos().platform().checkpoint(), before);
        assert!(service.take_events().is_empty());
        // Import half: admitted with no ticket and no events.
        let report = service.admit_now(&app, PriorityClass::Normal).unwrap();
        assert!(service.take_events().is_empty(), "queue-bypass admissions are event-free");
        assert_eq!(service.kairos().admitted_count(), 1);
        // Export half: released with no Released event (only drains, and
        // with an empty queue there are none).
        let (found, events) = service.release_now(report.app_id, 1);
        assert!(found && events.is_empty(), "queued={queued}: {events:?}");
        assert!(service.kairos().platform().is_idle());
        let (found, _) = service.release_now(report.app_id, 2);
        assert!(!found, "double release is refused");
    }
}
