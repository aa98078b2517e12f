//! Property-based tests of the admission front-end's queue invariants:
//! drain order respects priority-then-FIFO, no request is both admitted
//! and dropped, queue depth never exceeds the configured capacity, and
//! identical operation sequences reproduce identical event streams.

use std::collections::HashSet;

use proptest::prelude::*;

use kairos_admitd::{
    AdmitPolicy, Admitd, Event, PreemptionPolicy, PriorityClass, RejectCause, Ticket,
};
use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_core::{Kairos, KairosConfig};
use kairos_platform::{topology, AppId, ElementKind, ResourceVector};

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
            let (_, events) = admitd.submit(chain(&format!("a{n}"), tasks, 600), class, now);
            events
        }
        // Release one live app (a capacity event), if any.
        6 => match live.is_empty() {
            true => Vec::new(),
            false => {
                let id = live.remove(detail as usize % live.len());
                let (ok, events) = admitd.release(id, now);
                assert!(ok, "released id was live");
                events
            }
        },
        // Expire overdue requests.
        _ => admitd.expire(now),
    }
}

/// Runs `ops` against a fresh front-end under `policy` on the zero phase
/// clock, returning every event it produced, in order.
fn replay(policy: AdmitPolicy, ops: &[(u8, u8)]) -> Vec<Event> {
    let config = KairosConfig { deterministic: true, ..KairosConfig::default() };
    let mut admitd = Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), config), Some(policy));
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
            // Enqueues and relocations are not walk steps (and command
            // results are the service's to emit).
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
        all_events.extend(admitd.shutdown(ops.len() as u64));
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
            Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default()), Some(policy));
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
        admitd.shutdown(ops.len() as u64);
        for id in live {
            let (ok, _) = admitd.release(id, ops.len() as u64 + 1);
            prop_assert!(ok, "{id} double-released");
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
