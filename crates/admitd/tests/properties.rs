//! Property-based tests of the front-end: drain order respects
//! priority-then-FIFO, no request is both admitted and dropped, queue
//! depth never exceeds the configured capacity, identical operation
//! sequences reproduce identical event streams, and every command kind
//! keeps the one ticket mint, the one event buffer and the manager whole.

use std::collections::HashSet;

use proptest::prelude::*;

use kairos_admitd::{
    AdmitPolicy, Admitd, CapacityEvent, Command, Event, PreemptionPolicy, PriorityClass,
    RejectCause, Request, ResourceService, Ticket,
};
use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_core::{Kairos, KairosConfig};
use kairos_platform::{topology, AppId, ElementId, ElementKind, ResourceVector};

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

fn test_policy() -> AdmitPolicy {
    AdmitPolicy {
        class_capacity: [2, 3, 3, 2],
        max_wait: Some(40),
        max_attempts: 4,
        backoff_base: 1,
        backoff_cap: 4,
        ..AdmitPolicy::default()
    }
}

fn front() -> Admitd {
    Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default()), Some(test_policy()))
        .unwrap()
}

/// Interprets one generated op against the front-end, returning the event
/// batch it produced.
fn apply_op(
    admitd: &mut Admitd,
    live: &mut Vec<AppId>,
    op: (u8, u8),
    now: u64,
    n: usize,
) -> Vec<Event> {
    let (kind, detail) = op;
    match kind {
        // Submit: class and demand derived from the generated byte.
        0..=5 => {
            let class = PriorityClass::ALL[(detail % 4) as usize];
            let tasks = 1 + (detail % 4) as usize;
            admitd.submit(Request::admit(now, chain(&format!("a{n}"), tasks, 600), class));
            admitd.take_events()
        }
        // Release one live app (a capacity event), if any; the drain's
        // events follow the release's own result.
        6 => match live.is_empty() {
            true => Vec::new(),
            false => {
                let id = live.remove(detail as usize % live.len());
                admitd.submit(Request::release(now, id));
                let mut events = admitd.take_events();
                let released = events.remove(0);
                assert!(
                    matches!(released, Event::Released { found: true, .. }),
                    "released id was live: {released:?}"
                );
                events
            }
        },
        // Expire overdue requests.
        _ => admitd.pump(CapacityEvent::Tick { now }),
    }
}

/// Runs `ops` against a fresh front-end under `policy` on the zero phase
/// clock, returning every event it produced, in order.
fn replay(policy: AdmitPolicy, ops: &[(u8, u8)]) -> Vec<Event> {
    let config = KairosConfig { deterministic: true, ..KairosConfig::default() };
    let mut admitd =
        Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), config), Some(policy)).unwrap();
    let mut live: Vec<AppId> = Vec::new();
    let mut stream = Vec::new();
    for (n, &op) in ops.iter().enumerate() {
        let events = apply_op(&mut admitd, &mut live, op, n as u64, n);
        for e in &events {
            match e {
                Event::Admitted { report, .. } => live.push(report.app_id),
                Event::Preempted { victim, .. } => live.retain(|id| id != victim),
                _ => {}
            }
        }
        stream.extend(events);
    }
    stream
}

/// The tickets of a batch that belong to the queue walk (everything but
/// enqueues and queue-full refusals), paired with their class.
fn walk_order(events: &[Event]) -> Vec<(usize, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Rejected { cause: RejectCause::QueueFull, .. } => None,
            Event::Admitted { ticket, class, .. }
            | Event::AttemptFailed { ticket, class, .. }
            | Event::Rejected { ticket, class, .. } => Some((class.index(), ticket.0)),
            // Enqueues and relocations are not walk steps.
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every event batch attempts requests in strictly increasing
    /// (priority class, submission order) — priority-then-FIFO — and the
    /// queue never exceeds its configured capacity.
    #[test]
    fn drains_respect_priority_then_fifo_and_capacity(
        ops in proptest::collection::vec((0u8..8, 0u8..=255), 1..60),
    ) {
        let mut admitd = front();
        let mut live: Vec<AppId> = Vec::new();
        for (n, &op) in ops.iter().enumerate() {
            let events = apply_op(&mut admitd, &mut live, op, n as u64, n);
            for e in &events {
                if let Event::Admitted { report, .. } = e {
                    live.push(report.app_id);
                }
            }
            let walk = walk_order(&events);
            for pair in walk.windows(2) {
                prop_assert!(
                    pair[0] < pair[1],
                    "drain visited {:?} before {:?}: not priority-then-FIFO",
                    pair[0],
                    pair[1]
                );
            }
            let depths = admitd.queue().depths();
            for (class, &depth) in depths.iter().enumerate() {
                prop_assert!(
                    depth <= admitd.policy().expect("queued").class_capacity[class],
                    "class {class} depth {depth} exceeds its capacity"
                );
            }
        }
    }

    /// Outcomes are exclusive and final: no ticket is both admitted and
    /// dropped, terminal events happen at most once per ticket, and the
    /// ledger balances (admitted = live + released).
    #[test]
    fn no_request_is_both_admitted_and_dropped(
        ops in proptest::collection::vec((0u8..8, 0u8..=255), 1..60),
    ) {
        let mut admitd = front();
        let mut live: Vec<AppId> = Vec::new();
        let mut admitted: HashSet<Ticket> = HashSet::new();
        let mut dropped: HashSet<Ticket> = HashSet::new();
        let mut all_events = Vec::new();
        for (n, &op) in ops.iter().enumerate() {
            let events = apply_op(&mut admitd, &mut live, op, n as u64, n);
            for e in &events {
                if let Event::Admitted { report, .. } = e {
                    live.push(report.app_id);
                }
            }
            all_events.extend(events);
        }
        all_events.extend(admitd.pump(CapacityEvent::Shutdown { now: ops.len() as u64 }));
        for e in &all_events {
            match e {
                Event::Admitted { ticket, .. } => {
                    prop_assert!(admitted.insert(*ticket), "{ticket} admitted twice");
                }
                Event::Rejected { ticket, .. } => {
                    prop_assert!(dropped.insert(*ticket), "{ticket} dropped twice");
                }
                _ => {}
            }
        }
        prop_assert!(
            admitted.is_disjoint(&dropped),
            "tickets both admitted and dropped: {:?}",
            admitted.intersection(&dropped).collect::<Vec<_>>()
        );
        // After the shutdown flush, every enqueued ticket reached exactly
        // one terminal outcome.
        prop_assert!(admitd.queue().is_empty());
        prop_assert_eq!(admitd.kairos().admitted_count(), live.len());
    }

    /// The front-end is a pure function of its call sequence: replaying
    /// the same ops yields the identical event stream, whole events
    /// compared (on the zero phase clock, so the admission reports inside
    /// them carry no wall-clock timings).
    #[test]
    fn identical_op_sequences_reproduce_identical_events(
        ops in proptest::collection::vec((0u8..8, 0u8..=255), 1..40),
    ) {
        prop_assert_eq!(replay(test_policy(), &ops), replay(test_policy(), &ops));
    }

    /// Relocation invariants under arbitrary op sequences with preemption
    /// enabled: a preempted application was live at that instant and is
    /// never double-released, a migrated application stays live under the
    /// same id, and the ledger balances — after flushing the queue and
    /// releasing every live application the platform is exactly idle
    /// (claims = releases + live).
    #[test]
    fn preemption_never_double_releases_and_the_ledger_balances(
        ops in proptest::collection::vec((0u8..8, 0u8..=255), 1..60),
        migrate in 0u8..2,
    ) {
        let policy = AdmitPolicy {
            preemption: if migrate == 1 { PreemptionPolicy::Migrate } else { PreemptionPolicy::Evict },
            ..test_policy()
        };
        let mut admitd =
            Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default()), Some(policy))
                .unwrap();
        let mut live: Vec<AppId> = Vec::new();
        for (n, &op) in ops.iter().enumerate() {
            let events = apply_op(&mut admitd, &mut live, op, n as u64, n);
            for e in &events {
                match e {
                    Event::Admitted { report, .. } => {
                        prop_assert!(
                            !live.contains(&report.app_id),
                            "{} admitted while already live",
                            report.app_id
                        );
                        live.push(report.app_id);
                    }
                    Event::Preempted { victim, .. } => {
                        let pos = live.iter().position(|id| id == victim);
                        prop_assert!(
                            pos.is_some(),
                            "{victim} preempted but not live: double release"
                        );
                        live.remove(pos.unwrap());
                    }
                    Event::Migrated { app, .. } => {
                        prop_assert!(live.contains(app), "{app} migrated but not live");
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(admitd.kairos().admitted_count(), live.len());
        }
        admitd.pump(CapacityEvent::Shutdown { now: ops.len() as u64 });
        for id in live {
            admitd.submit(Request::release(ops.len() as u64 + 1, id));
            let released = admitd.take_events().remove(0);
            prop_assert!(
                matches!(released, Event::Released { found: true, .. }),
                "{id} double-released"
            );
        }
        prop_assert!(
            admitd.kairos().platform().is_idle(),
            "claims must balance releases after every relocation path"
        );
    }

    /// Replayed preemption runs are identical: the same op sequence under
    /// an enabled preemption policy reproduces the same relocation
    /// decisions, victim sets and event stream.
    #[test]
    fn preemption_replays_identically(
        ops in proptest::collection::vec((0u8..8, 0u8..=255), 1..40),
        migrate in 0u8..2,
    ) {
        let policy = AdmitPolicy {
            preemption: if migrate == 1 { PreemptionPolicy::Migrate } else { PreemptionPolicy::Evict },
            ..test_policy()
        };
        prop_assert_eq!(replay(policy, &ops), replay(policy, &ops));
    }
}

/// The terminal outcomes an admission ticket reached in `events`.
fn terminals(events: &[Event], ticket: Ticket) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, Event::Admitted { .. } | Event::Rejected { .. }))
        .filter(|e| e.ticket() == ticket)
        .count()
}

proptest! {
    /// One front-end, one mint, one buffer: every command kind — single
    /// and batched admissions in all four classes, releases of live and
    /// unknown ids, migrations, defrag sweeps, faults, repairs (on every
    /// element and on one id past the platform), ticks and the shutdown
    /// flush — queue-less, and queued with either preemption policy.
    /// Tickets come back dense and in submission order; a non-admission
    /// command's result is the first event its submission buffers, and
    /// the only one under its ticket; a queue-less front-end never queues;
    /// a refusal carries the refusing phase's own error exactly where its
    /// cause names a phase, and that error is of the phase named; the
    /// manager audits clean after every operation; and after shutdown
    /// every admission ticket has exactly one terminal event.
    #[test]
    fn every_command_keeps_the_front_end_whole(
        ops in proptest::collection::vec((0u8..12, 0u8..=255), 1..50),
        mode in 0u8..3,
    ) {
        let policy = (mode > 0).then(|| AdmitPolicy {
            preemption: if mode == 2 { PreemptionPolicy::Migrate } else { PreemptionPolicy::Evict },
            ..test_policy()
        });
        let config = KairosConfig { deterministic: true, ..KairosConfig::default() };
        let mut admitd = Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), config), policy).unwrap();
        let mut live: Vec<AppId> = Vec::new();
        let mut minted: Vec<Ticket> = Vec::new();
        let mut admissions: Vec<Ticket> = Vec::new();
        let mut stream: Vec<Event> = Vec::new();
        let unknown = AppId(9_999);
        for (n, &(kind, detail)) in ops.iter().enumerate() {
            let now = n as u64;
            // Four DSPs: id 4 lies one past the platform.
            let element = ElementId(u32::from(detail % 5));
            let app = |i: u8| {
                let detail = detail.wrapping_add(i.wrapping_mul(37));
                let class = PriorityClass::ALL[(detail % 4) as usize];
                let cpu = [200, 350, 600, 900][(detail / 16 % 4) as usize];
                Request::admit(now, chain(&format!("a{n}.{i}"), 1 + (detail / 4 % 4) as usize, cpu), class)
            };
            let pick = |live: &[AppId]| {
                if live.is_empty() { unknown } else { live[detail as usize % live.len()] }
            };
            let command = match kind {
                0..=5 => None,
                6 => {
                    let app = pick(&live);
                    live.retain(|&id| id != app);
                    Some(Command::Release { app })
                }
                7 => Some(Command::Migrate { app: pick(&live), avoid: vec![element] }),
                8 => Some(Command::Defrag { max_moves: 1 + usize::from(detail % 3) }),
                9 => Some(Command::InjectFault { element }),
                10 => Some(Command::Repair { element }),
                _ => {
                    stream.extend(admitd.pump(CapacityEvent::Tick { now }));
                    continue;
                }
            };
            let events = match command {
                Some(command) => {
                    let ticket = admitd.submit(Request::new(now, command));
                    minted.push(ticket);
                    let events = admitd.take_events();
                    let first = events.first().map(Event::ticket);
                    prop_assert_eq!(first, Some(ticket), "op {} ({}, {})", n, kind, detail);
                    prop_assert!(
                        events.iter().skip(1).all(|e| e.ticket() != ticket),
                        "op {} ({}, {}): {:?}", n, kind, detail, events
                    );
                    events
                }
                None if kind == 5 => {
                    let tickets = admitd.submit_batch((0..1 + detail % 3).map(app).collect());
                    minted.extend(&tickets);
                    admissions.extend(tickets);
                    admitd.take_events()
                }
                None => {
                    let ticket = admitd.submit(app(0));
                    minted.push(ticket);
                    admissions.push(ticket);
                    admitd.take_events()
                }
            };
            for event in &events {
                match event {
                    Event::Admitted { report, .. } => live.push(report.app_id),
                    Event::Preempted { victim, .. } => live.retain(|id| id != victim),
                    Event::ElementFailed { evicted, .. } => live.retain(|id| !evicted.contains(id)),
                    Event::Queued { .. } | Event::AttemptFailed { .. } => {
                        prop_assert!(policy.is_some(), "a queue-less front-end queued: {:?}", event);
                    }
                    _ => {}
                }
            }
            stream.extend(events);
            prop_assert_eq!(admitd.kairos().audit(), Ok(()), "op {} ({}, {})", n, kind, detail);
        }
        let dense: Vec<Ticket> = (0..minted.len() as u64).map(Ticket).collect();
        prop_assert_eq!(minted, dense, "one mint, in submission order");
        stream.extend(admitd.pump(CapacityEvent::Shutdown { now: ops.len() as u64 }));
        prop_assert!(admitd.queue().is_empty());
        prop_assert_eq!(admitd.kairos().audit(), Ok(()));
        for ticket in admissions {
            prop_assert_eq!(terminals(&stream, ticket), 1, "{} after shutdown", ticket);
        }
        for event in &stream {
            match event {
                Event::AttemptFailed { phase, reason, .. } => {
                    prop_assert_eq!(reason.phase(), *phase, "{:?}", event);
                }
                Event::Rejected { cause, reason, .. } => {
                    let phase = match *cause {
                        RejectCause::Refused { phase }
                        | RejectCause::Permanent { phase }
                        | RejectCause::RetriesExhausted { phase } => Some(phase),
                        RejectCause::QueueFull | RejectCause::Timeout | RejectCause::Shutdown => None,
                    };
                    prop_assert_eq!(reason.as_ref().map(|r| r.phase()), phase, "{:?}", event);
                }
                _ => {}
            }
        }
    }
}
