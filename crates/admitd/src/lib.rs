//! # kairos-admitd
//!
//! The Kairos resource service: one typed command/event surface over one
//! manager, with priority admission control at its door.
//!
//! The paper's manager is a single run-time entity applications talk to
//! through one request interface. [`Admitd`] is that entity: built by
//! [`ServiceBuilder`] over one [`Kairos`](kairos_core::Kairos) manager,
//! it implements [`ResourceService`] — the surface `kairos-cluster`,
//! `kairos-gateway` and the `kairos-sim` engine all speak:
//!
//! * **Operations as data** — every request is a [`Command`]
//!   (`Admit`, `Release`, `Migrate`, `Defrag`, `InjectFault`, `Repair`,
//!   `Rebalance`) wrapped in a time-stamped [`Request`]; callers build
//!   traffic instead of calling subsystem methods.
//! * **One ticket, one event stream** — every request runs under one
//!   [`Ticket`], minted once by the outermost layer, and everything
//!   observable is a tagged [`Event`] carrying it (and, once admitted,
//!   the application's stable `AppId`). An outcome is constructed once,
//!   where it is decided, and buffered until
//!   [`ResourceService::take_events`] drains it.
//! * **Batches are first-class** — [`ResourceService::submit_batch`]
//!   admits a whole arrival wave as one operation: class-sorted, stamped
//!   with the wave's earliest arrival time, with one drain pass instead
//!   of N independent submissions. A wave is not a transaction: each
//!   admission is written as it is decided.
//!
//! Built without an [`AdmitPolicy`], the front-end is the paper's manager
//! itself: the door runs the pipeline once and admits or refuses on the
//! spot ([`RejectCause::Refused`]), a wave is decided class by class, and
//! nothing ever queues. With one, the door fronts the manager with:
//!
//! * **Priority queueing** — four priority classes drained
//!   highest-priority-first, FIFO within a class ([`AdmissionQueue`]);
//! * **Backpressure** — hard per-class capacities; a full class refuses
//!   new requests ([`RejectCause::QueueFull`]) so queue memory is bounded
//!   under any overload;
//! * **Bounded retry** — transient failures (mapping/routing contention,
//!   load-dependent binding failures; see
//!   [`AllocationError::is_permanent`](kairos_core::AllocationError::is_permanent)) are retried
//!   with deterministic exponential backoff measured in *capacity events*
//!   (releases, repairs, evictions), never on a blind timer, and bounded
//!   by [`AdmitPolicy::max_attempts`]. Structurally hopeless requests are
//!   rejected permanently on first contact;
//! * **Batch admission** — every capacity-changing event triggers a drain
//!   pass that walks the whole queue in priority-then-FIFO order, so one
//!   big release can admit many small waiters at once;
//! * **Timeouts** — requests that wait past [`AdmitPolicy::max_wait`] are
//!   dropped ([`RejectCause::Timeout`]);
//! * **Preemption** — under an enabled [`PreemptionPolicy`], a blocked
//!   critical request may relocate running lower-priority applications: a
//!   minimal victim set is planned by `Kairos::select_victims`, then
//!   either evicted and re-queued as retryable requests
//!   ([`Event::Preempted`] — preempted, not dropped, with cumulative wait
//!   preserved across the requeue) or live-migrated off the request's
//!   target region with their identity intact ([`Event::Migrated`]).
//!   [`Command::Defrag`] runs the same migration machinery as a
//!   fragmentation-reducing sweep.
//!
//! Everything is deterministic: same request sequence, same events —
//! the property the `kairos-sim` byte-reproducibility tests lean on.
//!
//! ## Example
//!
//! ```
//! use kairos_admitd::{Event, PriorityClass, Request, ResourceService, ServiceBuilder};
//! use kairos_appgen::{AppGenerator, GeneratorConfig};
//! use kairos_platform::topology;
//!
//! let mut service = ServiceBuilder::new(topology::crisp()).deterministic(true).build()?;
//! let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
//!
//! // A synchronized arrival wave, admitted as one batch.
//! let wave: Vec<Request> = (0..4)
//!     .map(|i| Request::admit(0, generator.generate(format!("app-{i}")), PriorityClass::Normal))
//!     .collect();
//! let tickets = service.submit_batch(wave);
//! let events = service.take_events();
//! assert_eq!(tickets.len(), 4);
//! assert!(events.iter().any(|e| matches!(e, Event::Admitted { .. })));
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;
mod command;
mod event;
mod frontend;
mod policy;
mod queue;
mod service;

pub use builder::ServiceBuilder;
pub use command::{CapacityEvent, Command, Request};
pub use event::{Event, RejectCause};
pub use frontend::{Admitd, WAIT_TICKS_BOUNDS};
pub use policy::{AdmitPolicy, PreemptionPolicy};
pub use queue::{AdmissionQueue, PriorityClass, Ticket};
pub use service::ResourceService;

/// Compile-time thread-safety pin: nothing in the product spawns a
/// thread, but callers box services as `dyn ResourceService + Send` (the
/// gateway's wrapped service among them), so the service must stay
/// `Send` (and `Sync`, so it can be shared behind a reference). A field
/// change that silently dropped either would break them — fail the build
/// here instead.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Admitd>();
const _: () = _assert_send_sync::<Event>();

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
    use kairos_core::{Kairos, KairosConfig, Phase};
    use kairos_platform::{topology, AppId, ElementId, ElementKind, ResourceVector};

    /// A `tasks`-task chain demanding `cpu` per task on the 2x2 DSP mesh.
    fn chain_with(name: &str, tasks: usize, cpu: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 16, 0, 0), 50, 1);
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

    /// A chain of near-whole-DSP tasks: each occupies 90% of one DSP, so
    /// at most four fit at once.
    fn chain(name: &str, tasks: usize) -> Application {
        chain_with(name, tasks, 900)
    }

    fn front(policy: AdmitPolicy) -> Admitd {
        Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default()), Some(policy))
            .unwrap()
    }

    /// Submits `request`: its ticket and every event it caused.
    fn run(admitd: &mut Admitd, request: Request) -> (Ticket, Vec<Event>) {
        let ticket = admitd.submit(request);
        (ticket, admitd.take_events())
    }

    fn admit(
        admitd: &mut Admitd,
        app: Application,
        class: PriorityClass,
        at: u64,
    ) -> (Ticket, Vec<Event>) {
        run(admitd, Request::admit(at, app, class))
    }

    /// Submits `wave` as one batch arriving at `at`.
    fn batch(
        admitd: &mut Admitd,
        wave: Vec<(Application, PriorityClass)>,
        at: u64,
    ) -> (Vec<Ticket>, Vec<Event>) {
        let wave = wave.into_iter().map(|(app, class)| Request::admit(at, app, class)).collect();
        let tickets = admitd.submit_batch(wave);
        (tickets, admitd.take_events())
    }

    /// Releases `id` at `at`: whether it was admitted, and what the drain
    /// behind the `Released` result did.
    fn release(admitd: &mut Admitd, id: AppId, at: u64) -> (bool, Vec<Event>) {
        let (ticket, mut events) = run(admitd, Request::release(at, id));
        match events.remove(0) {
            Event::Released { ticket: t, app, found } if t == ticket && app == id => {
                (found, events)
            }
            other => panic!("a release reports first: {other:?}"),
        }
    }

    fn admitted_id(events: &[Event]) -> Option<AppId> {
        events.iter().find_map(|e| match e {
            Event::Admitted { report, .. } => Some(report.app_id),
            _ => None,
        })
    }

    #[test]
    fn uncontended_requests_admit_immediately_with_zero_wait() {
        let mut admitd = front(AdmitPolicy::default());
        let (ticket, events) = admit(&mut admitd, chain("a", 2), PriorityClass::Normal, 5);
        let admitted = events
            .iter()
            .find(|e| matches!(e, Event::Admitted { .. }))
            .expect("admitted in the same call");
        if let Event::Admitted { ticket: t, waited, attempts, .. } = admitted {
            assert_eq!(*t, ticket);
            assert_eq!(*waited, 0);
            assert_eq!(*attempts, 1);
        }
        assert_eq!(admitd.queue_depth(), 0);
        assert_eq!(admitd.kairos().admitted_count(), 1);
    }

    #[test]
    fn a_queue_less_front_end_decides_at_the_door() {
        let mut admitd =
            Admitd::new(Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default()), None)
                .unwrap();
        assert!(admitd.policy().is_none());
        let (_, events) = admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let fill = admitted_id(&events).expect("the fill app admits");
        assert!(matches!(events.as_slice(), [Event::Admitted { waited: 0, attempts: 1, .. }]));
        assert_eq!(admitd.admitted_class(fill), Some(PriorityClass::Low));
        // A full platform refuses on the spot: nothing queues, nothing
        // retries on the next capacity event.
        let (_, events) = admit(&mut admitd, chain("blocked", 4), PriorityClass::Critical, 1);
        assert!(matches!(
            events.as_slice(),
            [Event::Rejected {
                cause: RejectCause::Refused { phase: Phase::Binding },
                waited: 0,
                ..
            }]
        ));
        assert_eq!(admitd.queue_depth(), 0);
        let (ok, events) = release(&mut admitd, fill, 2);
        assert!(ok && events.is_empty(), "an empty queue drains nothing: {events:?}");
        // A wave is decided class by class, FIFO within a class; its
        // tickets still follow submission order.
        let wave = vec![
            (chain("low", 4), PriorityClass::Low),
            (chain("crit", 4), PriorityClass::Critical),
            (chain("norm", 4), PriorityClass::Normal),
        ];
        let (tickets, events) = batch(&mut admitd, wave, 3);
        let order: Vec<Ticket> = events.iter().map(Event::ticket).collect();
        assert_eq!(order, vec![tickets[1], tickets[2], tickets[0]]);
        assert_eq!(
            admitted_id(&events).map(|id| admitd.admitted_class(id)),
            Some(Some(PriorityClass::Critical))
        );
        assert!(admitd.pump(CapacityEvent::Shutdown { now: 4 }).is_empty());
    }

    #[test]
    fn full_class_applies_backpressure() {
        let policy = AdmitPolicy { class_capacity: [0, 0, 1, 0], ..AdmitPolicy::default() };
        let mut admitd = front(policy);
        // Fill the platform so subsequent requests queue.
        admit(&mut admitd, chain("fill", 4), PriorityClass::Normal, 0);
        // One queues, the second is refused.
        let (_, e1) = admit(&mut admitd, chain("q1", 1), PriorityClass::Normal, 1);
        assert!(e1.iter().any(|e| matches!(e, Event::AttemptFailed { .. })));
        let (_, e2) = admit(&mut admitd, chain("q2", 1), PriorityClass::Normal, 2);
        assert!(matches!(
            e2.as_slice(),
            [Event::Rejected { cause: RejectCause::QueueFull, waited: 0, .. }]
        ));
        // A disabled class refuses instantly.
        let (_, e3) = admit(&mut admitd, chain("c", 1), PriorityClass::Critical, 3);
        assert!(matches!(e3.as_slice(), [Event::Rejected { cause: RejectCause::QueueFull, .. }]));
        assert_eq!(admitd.queue_depth(), 1, "memory stays bounded at the class capacity");
    }

    #[test]
    fn release_drains_waiters_in_priority_then_fifo_order() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut admitd = front(policy);
        let (_, fill) = admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let fill_id = admitted_id(&fill).expect("the fill app admits");
        // Three waiters: low first, then normal, then critical.
        let (low, _) = admit(&mut admitd, chain("w-low", 4), PriorityClass::Low, 1);
        let (norm, _) = admit(&mut admitd, chain("w-norm", 4), PriorityClass::Normal, 2);
        let (crit, _) = admit(&mut admitd, chain("w-crit", 4), PriorityClass::Critical, 3);
        assert_eq!(admitd.queue_depth(), 3);

        // Releasing the fill app frees the whole mesh: the drain must
        // attempt critical before normal before low, and the first fit
        // wins the capacity.
        let (ok, events) = release(&mut admitd, fill_id, 10);
        assert!(ok);
        let admitted: Vec<Ticket> = events
            .iter()
            .filter_map(|e| match e {
                Event::Admitted { ticket, .. } => Some(*ticket),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, vec![crit], "highest priority wins the freed capacity");
        // The others were attempted (in order) and failed transiently.
        let attempted: Vec<Ticket> = events.iter().map(Event::ticket).collect();
        assert_eq!(attempted, vec![crit, norm, low], "drain order is priority-then-FIFO");
    }

    #[test]
    fn backoff_parks_requests_between_capacity_events() {
        let policy = AdmitPolicy {
            class_capacity: [4, 4, 4, 4],
            max_wait: None,
            max_attempts: 10,
            backoff_base: 2,
            backoff_cap: 8,
            ..AdmitPolicy::default()
        };
        let mut admitd = front(policy);
        let (_, fill) = admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let fill_id = admitted_id(&fill).unwrap();
        let (waiter, e) = admit(&mut admitd, chain("w", 4), PriorityClass::Normal, 1);
        assert!(e.iter().any(
            |ev| matches!(ev, Event::AttemptFailed { ticket, attempt: 1, .. } if *ticket == waiter)
        ));
        // Backoff after attempt 1 is 2 capacity events: an admit+release
        // of a tiny app (one event) must NOT re-attempt the waiter...
        let (_, e) = admit(&mut admitd, chain_with("tiny", 1, 50), PriorityClass::Normal, 2);
        let tiny_id = admitted_id(&e).unwrap();
        let (_, e) = release(&mut admitd, tiny_id, 3);
        assert!(
            !e.iter().any(|ev| ev.ticket() == waiter),
            "parked request must sit out the first capacity event"
        );
        // ...but the second capacity event re-attempts it, and with the
        // fill app gone it is admitted.
        let (_, e) = release(&mut admitd, fill_id, 4);
        assert!(e.iter().any(
            |ev| matches!(ev, Event::Admitted { ticket, attempts: 2, waited: 3, .. } if *ticket == waiter)
        ));
    }

    #[test]
    fn retries_are_bounded_and_report_the_final_phase() {
        let policy = AdmitPolicy {
            class_capacity: [4, 4, 4, 4],
            max_wait: None,
            max_attempts: 3,
            backoff_base: 1,
            backoff_cap: 1,
            ..AdmitPolicy::default()
        };
        let mut admitd = front(policy);
        admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        // A 4-task waiter can never fit while the fill app stays: admit
        // and release unrelated tiny apps to burn capacity events.
        let (waiter, _) = admit(&mut admitd, chain("w", 4), PriorityClass::Normal, 1);
        let mut dropped = None;
        for round in 0..10u64 {
            let (_, e) =
                admit(&mut admitd, chain_with("tiny", 1, 50), PriorityClass::Normal, 2 + round);
            let id = admitted_id(&e).unwrap();
            let (_, e) = release(&mut admitd, id, 3 + round);
            if let Some(ev) = e.iter().find(|ev| {
                matches!(
                    ev,
                    Event::Rejected { ticket, cause: RejectCause::RetriesExhausted { .. }, .. }
                    if *ticket == waiter
                )
            }) {
                dropped = Some(ev.clone());
                break;
            }
        }
        let Some(Event::Rejected { cause: RejectCause::RetriesExhausted { phase }, .. }) = dropped
        else {
            panic!("waiter must exhaust its retry budget");
        };
        assert_eq!(phase, Phase::Binding, "whole-mesh demand fails at the aggregate check");
        assert_eq!(admitd.queue_depth(), 0);
    }

    #[test]
    fn structurally_hopeless_requests_reject_permanently() {
        let mut admitd = front(AdmitPolicy::default());
        let imp =
            Implementation::new(ElementKind::Dsp, ResourceVector::new(100_000, 0, 0, 0), 10, 1);
        let mut b = ApplicationBuilder::new("huge");
        b.add_task("t", TaskRole::Internal, vec![imp]);
        let (_, events) = admit(&mut admitd, b.build().unwrap(), PriorityClass::Critical, 0);
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Rejected { cause: RejectCause::Permanent { phase: Phase::Binding }, .. }
            )),
            "no retry budget wasted on a request that can never fit: {events:?}"
        );
        assert_eq!(admitd.queue_depth(), 0);
    }

    #[test]
    fn timeouts_drop_overdue_requests() {
        let policy = AdmitPolicy {
            class_capacity: [4, 4, 4, 4],
            max_wait: Some(100),
            ..AdmitPolicy::default()
        };
        let mut admitd = front(policy);
        admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let (waiter, _) = admit(&mut admitd, chain("w", 4), PriorityClass::Normal, 10);
        assert!(admitd.pump(CapacityEvent::Tick { now: 109 }).is_empty(), "not yet overdue");
        let events = admitd.pump(CapacityEvent::Tick { now: 110 });
        assert!(matches!(
            events.as_slice(),
            [Event::Rejected { ticket, cause: RejectCause::Timeout, waited: 100, .. }]
            if *ticket == waiter
        ));
        assert_eq!(admitd.queue_depth(), 0);
    }

    #[test]
    fn shutdown_flushes_everything_still_queued() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut admitd = front(policy);
        admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        admit(&mut admitd, chain("w1", 4), PriorityClass::Normal, 1);
        admit(&mut admitd, chain("w2", 4), PriorityClass::Low, 2);
        let events = admitd.pump(CapacityEvent::Shutdown { now: 50 });
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| matches!(e, Event::Rejected { cause: RejectCause::Shutdown, .. })));
        assert!(admitd.queue().is_empty());
    }

    #[test]
    fn repairing_a_healthy_element_is_not_a_capacity_event() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut admitd = front(policy);
        admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let (waiter, _) = admit(&mut admitd, chain("w", 4), PriorityClass::Normal, 1);
        let before = admitd.capacity_events();
        // Repairing an element that never failed must not drain (and so
        // must not burn the waiter's retry budget).
        let (ticket, events) =
            run(&mut admitd, Request::new(2, Command::Repair { element: ElementId(0) }));
        assert_eq!(events, vec![Event::ElementRepaired { ticket, element: ElementId(0) }]);
        assert_eq!(admitd.capacity_events(), before);
        assert!(admitd.queue().tickets().contains(&waiter));
    }

    fn preempt_policy(preemption: PreemptionPolicy) -> AdmitPolicy {
        AdmitPolicy {
            class_capacity: [4, 4, 4, 4],
            max_wait: None,
            preemption,
            ..AdmitPolicy::default()
        }
    }

    #[test]
    fn blocked_critical_evicts_and_requeues_lower_priority_work() {
        let mut admitd = front(preempt_policy(PreemptionPolicy::Evict));
        let (_, fill) = admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let fill_id = admitted_id(&fill).expect("fill admits");
        assert_eq!(admitd.admitted_class(fill_id), Some(PriorityClass::Low));

        // A critical that cannot fit while the fill app runs: under the
        // preemption policy it evicts the fill app and admits immediately.
        let (crit, events) = admit(&mut admitd, chain("crit", 4), PriorityClass::Critical, 10);
        let preempted = events
            .iter()
            .find_map(|e| match e {
                Event::Preempted { victim, class, requeued_as, by } => {
                    Some((*victim, *class, *requeued_as, *by))
                }
                _ => None,
            })
            .expect("the fill app is preempted: {events:?}");
        assert_eq!(preempted.0, fill_id);
        assert_eq!(preempted.1, PriorityClass::Low);
        assert_eq!(preempted.3, crit, "preemption is attributed to the blocked critical");
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Admitted { ticket, .. } if *ticket == crit
            )),
            "the critical must be admitted in the same call: {events:?}"
        );
        // The victim is preempted, not dropped: its requeue ticket sits in
        // the low-priority queue as a retryable request.
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Queued { ticket, class: PriorityClass::Low, .. }
                    if *ticket == preempted.2
            )),
            "victim re-enters the queue: {events:?}"
        );
        assert!(admitd.queue().tickets().contains(&preempted.2));
        assert_eq!(admitd.kairos().admitted_count(), 1);
        assert_eq!(admitd.admitted_class(fill_id), None);

        // Releasing the critical lets the requeued victim back in.
        let crit_id = admitted_id(&events).unwrap();
        let (ok, events) = release(&mut admitd, crit_id, 20);
        assert!(ok);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Admitted { ticket, .. } if *ticket == preempted.2
        )));
    }

    #[test]
    fn preemption_victim_sets_are_minimal() {
        let mut admitd = front(preempt_policy(PreemptionPolicy::Evict));
        // Four independent single-task residents fill the mesh.
        let mut ids = Vec::new();
        for i in 0..4 {
            let (_, e) =
                admit(&mut admitd, chain_with(&format!("r{i}"), 1, 900), PriorityClass::Low, 0);
            ids.push(admitted_id(&e).unwrap());
        }
        // A single-task critical needs exactly one victim.
        let (_, events) = admit(&mut admitd, chain_with("c", 1, 900), PriorityClass::Critical, 1);
        let evicted: Vec<_> =
            events.iter().filter(|e| matches!(e, Event::Preempted { .. })).collect();
        assert_eq!(evicted.len(), 1, "one eviction suffices: {events:?}");
        assert_eq!(admitd.kairos().admitted_count(), 4, "three residents plus the critical");
    }

    #[test]
    fn disabled_preemption_leaves_criticals_waiting() {
        let mut admitd = front(preempt_policy(PreemptionPolicy::Disabled));
        admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let (crit, events) = admit(&mut admitd, chain("crit", 4), PriorityClass::Critical, 1);
        assert!(events.iter().all(|e| !matches!(e, Event::Preempted { .. })));
        assert!(admitd.queue().tickets().contains(&crit), "the critical waits");
    }

    #[test]
    fn migrate_policy_moves_victims_and_falls_back_to_eviction() {
        // 2x2 mesh. Three 600-CPU normals occupy e0..e2 and a fourth takes
        // e3; a 350-CPU low-priority app co-locates with the first (the
        // mapper packs). Releasing the e1 resident leaves exactly one
        // element a 2x700 critical can use — it needs e0 too, so the plan
        // is {low, normal-on-e0}. The low victim (350) still fits beside
        // another resident and is live-migrated; the 600 normal fits
        // nowhere and falls back to eviction-and-requeue.
        let mut admitd = front(preempt_policy(PreemptionPolicy::Migrate));
        let mut normals = Vec::new();
        for i in 0..3 {
            let (_, e) =
                admit(&mut admitd, chain_with(&format!("n{i}"), 1, 600), PriorityClass::Normal, 0);
            normals.push(admitted_id(&e).unwrap());
        }
        let (_, e) = admit(&mut admitd, chain_with("low", 1, 350), PriorityClass::Low, 0);
        let low = admitted_id(&e).unwrap();
        let (_, e) = admit(&mut admitd, chain_with("n3", 1, 600), PriorityClass::Normal, 0);
        normals.push(admitted_id(&e).unwrap());
        let low_host =
            admitd.kairos().layout(low).unwrap().placement.element(kairos_app::TaskId(0));
        // Release a normal hosted away from the low app, opening one
        // whole element.
        let doomed = *normals
            .iter()
            .find(|&&id| {
                admitd.kairos().layout(id).unwrap().placement.element(kairos_app::TaskId(0))
                    != low_host
            })
            .unwrap();
        release(&mut admitd, doomed, 1);

        let (crit, events) =
            admit(&mut admitd, chain_with("crit", 2, 700), PriorityClass::Critical, 5);
        assert!(
            events.iter().any(|e| matches!(e, Event::Admitted { ticket, .. } if *ticket == crit)),
            "the critical must get in: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Migrated { app, ticket, .. } if *app == low && *ticket == crit
            )),
            "the small victim is migrated, not evicted: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Preempted { victim, .. } if normals.contains(victim)
            )),
            "the unmigratable 600-CPU victim falls back to eviction: {events:?}"
        );
        // The migrated app is still running under its original id.
        assert_eq!(admitd.admitted_class(low), Some(PriorityClass::Low));
        assert_ne!(
            admitd.kairos().layout(low).unwrap().placement.element(kairos_app::TaskId(0)),
            low_host,
            "the migrated app actually moved"
        );
    }

    #[test]
    fn queue_full_criticals_preempt_at_the_door() {
        let policy = AdmitPolicy {
            class_capacity: [1, 4, 4, 4],
            max_wait: None,
            preemption: PreemptionPolicy::Evict,
            ..AdmitPolicy::default()
        };
        let mut admitd = front(policy);
        // A 3-element critical resident (not preemptible) plus a
        // low-priority resident on the remaining element.
        let (_, e) = admit(&mut admitd, chain_with("c0", 3, 800), PriorityClass::Critical, 0);
        assert!(admitted_id(&e).is_some());
        let (_, e) = admit(&mut admitd, chain_with("r", 1, 600), PriorityClass::Low, 0);
        let resident = admitted_id(&e).unwrap();
        // A hopelessly large critical fills the capacity-1 critical queue:
        // even evicting the low resident frees just one element of the
        // four it needs, so no relocation plan exists and it waits.
        let (waiter, _) = admit(&mut admitd, chain_with("w", 4, 600), PriorityClass::Critical, 1);
        assert!(admitd.queue().tickets().contains(&waiter), "the waiter stays queued");
        // The door-knock critical arrives to a full queue and relocates
        // its way in directly, never entering the queue.
        let (knock, events) =
            admit(&mut admitd, chain_with("k", 1, 700), PriorityClass::Critical, 2);
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Preempted { victim, by, .. } if *victim == resident && *by == knock
            )),
            "the door-knock preempts the low resident: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Admitted { ticket, waited: 0, .. } if *ticket == knock
            )),
            "the door-knock is admitted without ever queueing: {events:?}"
        );
        assert!(admitd.queue().tickets().contains(&waiter), "the big waiter still waits");
    }

    /// Regression test pinning the intended wait-time semantics: a
    /// preempted-and-requeued application's reported wait is *cumulative
    /// across requeues* — the wait before its first admission plus the
    /// wait of the requeue — never reset by the preemption and never
    /// counting its original enqueue instant against the later requeue.
    #[test]
    fn preempted_requeues_accumulate_wait_across_lives() {
        let mut admitd = front(preempt_policy(PreemptionPolicy::Evict));
        let (_, e) = admit(&mut admitd, chain("a", 4), PriorityClass::Low, 0);
        let a_id = admitted_id(&e).unwrap();
        // B waits 10 ticks behind A before its first admission.
        let (b_ticket, _) = admit(&mut admitd, chain("b", 4), PriorityClass::Low, 0);
        let (_, e) = release(&mut admitd, a_id, 10);
        assert!(e.iter().any(|ev| matches!(
            ev,
            Event::Admitted { ticket, waited: 10, .. } if *ticket == b_ticket
        )));
        let b_id = admitted_id(&e).unwrap();

        // At t=20 a critical preempts B; B requeues carrying waited=10.
        let (_, e) = admit(&mut admitd, chain("crit", 4), PriorityClass::Critical, 20);
        let crit_id = admitted_id(&e).unwrap();
        let b_requeue = e
            .iter()
            .find_map(|ev| match ev {
                Event::Preempted { victim, requeued_as, .. } if *victim == b_id => {
                    Some(*requeued_as)
                }
                _ => None,
            })
            .expect("B is preempted");

        // The critical departs at t=25: B re-admits having waited
        // 10 (first life) + 5 (requeue), not 5 (reset) and not 25
        // (counted from its original enqueue instant).
        let (_, e) = release(&mut admitd, crit_id, 25);
        let waited = e
            .iter()
            .find_map(|ev| match ev {
                Event::Admitted { ticket, waited, .. } if *ticket == b_requeue => Some(*waited),
                _ => None,
            })
            .expect("B re-admits after the critical departs");
        assert_eq!(waited, 15, "cumulative wait across requeues");
    }

    /// Regression test for the door-path asymmetry: the `QueueFull` door
    /// hook and the drain hook share one victim-selection code path, so
    /// for the same admitted state the same blocked critical must preempt
    /// the same victims, whichever hook fires.
    #[test]
    fn door_and_drain_hooks_select_identical_victims() {
        let victims_of = |events: &[Event]| -> Vec<AppId> {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Preempted { victim, .. } => Some(*victim),
                    _ => None,
                })
                .collect()
        };
        // Drain hook: the critical enters a non-full queue, fails its
        // first attempt and relocates from inside the drain. With r0
        // (1 task) and r1 (2 tasks) admitted one element stays free, so
        // the 2-task critical needs exactly one victim.
        let drain_policy = AdmitPolicy {
            class_capacity: [4, 4, 4, 4],
            max_wait: None,
            preemption: PreemptionPolicy::Evict,
            max_victims: 1,
            ..AdmitPolicy::default()
        };
        let mut drain_path = front(drain_policy);
        admit(&mut drain_path, chain_with("r0", 1, 900), PriorityClass::Low, 0);
        admit(&mut drain_path, chain_with("r1", 2, 900), PriorityClass::Low, 0);
        let (_, drain_events) =
            admit(&mut drain_path, chain("crit", 2), PriorityClass::Critical, 1);
        let drain_victims = victims_of(&drain_events);
        assert!(!drain_victims.is_empty(), "the drain hook must preempt: {drain_events:?}");

        // Door hook: identical admitted state, but the capacity-1 critical
        // queue is plugged by a waiter no single victim can unblock (a
        // whole-mesh request under max_victims = 1), so the same critical
        // relocates at the door instead.
        let door_policy = AdmitPolicy { class_capacity: [1, 4, 4, 4], ..drain_policy };
        let mut door_path = front(door_policy);
        admit(&mut door_path, chain_with("r0", 1, 900), PriorityClass::Low, 0);
        admit(&mut door_path, chain_with("r1", 2, 900), PriorityClass::Low, 0);
        admit(&mut door_path, chain("plug", 4), PriorityClass::Critical, 0);
        assert_eq!(door_path.queue_depth(), 1, "the plug must stay queued");
        let (_, door_events) = admit(&mut door_path, chain("crit", 2), PriorityClass::Critical, 1);
        let door_victims = victims_of(&door_events);
        assert!(
            door_events.iter().any(|e| matches!(e, Event::Admitted { waited: 0, .. })),
            "the door-knock admits without queueing: {door_events:?}"
        );
        assert_eq!(door_victims, drain_victims, "both hooks share one victim-selection path");
    }

    #[test]
    fn preemption_offers_the_smallest_resident_first() {
        // A 1-task and a 2-task resident of equal class leave one free
        // element; a 2-task critical is unblocked by evicting *either*
        // resident alone, so the greedy planner takes whichever the
        // candidate order offers first: fewest tasks.
        let mut admitd = front(preempt_policy(PreemptionPolicy::Evict));
        let (_, e) = admit(&mut admitd, chain_with("small", 1, 900), PriorityClass::Low, 0);
        let small = admitted_id(&e).unwrap();
        admit(&mut admitd, chain_with("large", 2, 900), PriorityClass::Low, 0);
        let victims_of = |events: &[Event]| -> Vec<AppId> {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Preempted { victim, .. } => Some(*victim),
                    _ => None,
                })
                .collect()
        };
        let (_, e) = admit(&mut admitd, chain("crit", 2), PriorityClass::Critical, 1);
        assert_eq!(victims_of(&e), vec![small], "the 1-task resident is evicted");
    }

    #[test]
    fn batch_submission_matches_sequential_outcomes_when_uncontended() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut sequential = front(policy);
        let mut batched = front(policy);
        let wave: Vec<(Application, PriorityClass)> = (0..3)
            .map(|i| (chain_with(&format!("w{i}"), 1, 200), PriorityClass::ALL[i % 4]))
            .collect();
        let mut seq_admitted = 0;
        for (app, class) in wave.clone() {
            let (_, e) = admit(&mut sequential, app, class, 5);
            seq_admitted += e.iter().filter(|ev| matches!(ev, Event::Admitted { .. })).count();
        }
        let (tickets, events) = batch(&mut batched, wave, 5);
        assert_eq!(tickets.len(), 3);
        assert_eq!(tickets, vec![Ticket(0), Ticket(1), Ticket(2)], "submission-order tickets");
        let batch_admitted =
            events.iter().filter(|ev| matches!(ev, Event::Admitted { .. })).count();
        assert_eq!(batch_admitted, seq_admitted);
        assert_eq!(batched.kairos().admitted_count(), sequential.kairos().admitted_count());
    }

    #[test]
    fn batch_drains_in_priority_order_under_contention() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut admitd = front(policy);
        // Room for exactly one whole-mesh app; the critical must win it
        // even though it is submitted last in the wave.
        let wave = vec![
            (chain("low", 4), PriorityClass::Low),
            (chain("norm", 4), PriorityClass::Normal),
            (chain("crit", 4), PriorityClass::Critical),
        ];
        let (tickets, events) = batch(&mut admitd, wave, 0);
        let admitted: Vec<Ticket> = events
            .iter()
            .filter_map(|e| match e {
                Event::Admitted { ticket, .. } => Some(*ticket),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, vec![tickets[2]], "the critical wins the single slot");
    }

    #[test]
    fn migrate_is_a_capacity_event_on_success_only() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut admitd = front(policy);
        let (_, e) = admit(&mut admitd, chain_with("mover", 1, 600), PriorityClass::Normal, 0);
        let mover = admitted_id(&e).unwrap();
        let host = admitd.kairos().layout(mover).unwrap().placement.element(kairos_app::TaskId(0));
        let before = admitd.capacity_events();
        let (_, events) =
            run(&mut admitd, Request::new(1, Command::Migrate { app: mover, avoid: vec![host] }));
        assert!(matches!(events[0], Event::Migrated { app, .. } if app == mover), "{events:?}");
        assert_eq!(admitd.capacity_events(), before + 1);
        // Migrating an unknown app changes nothing.
        let unknown = Command::Migrate { app: AppId(999), avoid: Vec::new() };
        let (_, events) = run(&mut admitd, Request::new(2, unknown));
        assert!(matches!(events.as_slice(), [Event::MigrationFailed { .. }]), "{events:?}");
        assert_eq!(admitd.capacity_events(), before + 1);
    }

    #[test]
    fn defrag_compacts_and_drains() {
        let policy = AdmitPolicy { max_wait: None, ..AdmitPolicy::default() };
        let kairos = Kairos::new(topology::dsp_line(8), kairos_core::KairosConfig::default());
        let mut admitd = Admitd::new(kairos, Some(policy)).unwrap();
        // Checkerboard the line, then release every other app.
        let mut ids = Vec::new();
        for i in 0..8 {
            let (_, e) =
                admit(&mut admitd, chain_with(&format!("c{i}"), 1, 900), PriorityClass::Normal, 0);
            ids.push(admitted_id(&e).unwrap());
        }
        for id in ids.iter().skip(1).step_by(2) {
            release(&mut admitd, *id, 1);
        }
        let frag_before = admitd.occupancy().external_fragmentation;
        let before_events = admitd.capacity_events();
        let (_, events) = run(&mut admitd, Request::new(2, Command::Defrag { max_moves: 8 }));
        assert!(matches!(events[0], Event::Defragged { moves, .. } if moves > 0), "must compact");
        assert!(admitd.occupancy().external_fragmentation < frag_before);
        assert_eq!(admitd.capacity_events(), before_events + 1, "a sweep is one capacity event");
        // An idle follow-up sweep is free.
        let (_, events) = run(&mut admitd, Request::new(3, Command::Defrag { max_moves: 8 }));
        if matches!(events[0], Event::Defragged { moves: 0, .. }) {
            assert_eq!(events.len(), 1);
            assert_eq!(admitd.capacity_events(), before_events + 1);
        }
    }

    #[test]
    fn probe_admit_is_state_neutral_through_the_front_end() {
        let mut admitd = front(AdmitPolicy::default());
        admit(&mut admitd, chain_with("resident", 1, 600), PriorityClass::Normal, 0);
        let before = admitd.kairos().platform().checkpoint();
        let depth = admitd.queue_depth();
        let probe = admitd.probe_admit(&chain_with("ghost", 2, 500)).unwrap();
        assert_eq!(probe.layout.placement.len(), 2);
        assert_eq!(admitd.kairos().platform().checkpoint(), before);
        assert_eq!(admitd.queue_depth(), depth, "a probe enqueues nothing");
        assert!(admitd.probe_admit(&chain("hopeless", 5)).is_err());
        assert_eq!(admitd.kairos().platform().checkpoint(), before);
    }

    #[test]
    fn admit_now_bypasses_the_queue_but_joins_the_victim_registry() {
        let mut admitd = front(preempt_policy(PreemptionPolicy::Evict));
        let report = admitd.admit_now(&chain("import", 4), PriorityClass::Low).unwrap();
        assert_eq!(admitd.queue_depth(), 0, "no ticket, no queue entry");
        assert_eq!(admitd.admitted_class(report.app_id), Some(PriorityClass::Low));
        // The import is a first-class preemption candidate: a blocked
        // critical may relocate it like any drained admission.
        let (crit, events) = admit(&mut admitd, chain("crit", 4), PriorityClass::Critical, 1);
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::Preempted { victim, by, .. }
                    if *victim == report.app_id && *by == crit
            )),
            "the imported app is preemptible: {events:?}"
        );
        // A failing direct admission changes nothing.
        let mut full = front(AdmitPolicy::default());
        full.admit_now(&chain("fill", 4), PriorityClass::Normal).unwrap();
        let before = full.kairos().platform().checkpoint();
        assert!(full.admit_now(&chain("no-room", 4), PriorityClass::Normal).is_err());
        assert_eq!(full.kairos().platform().checkpoint(), before);
    }

    #[test]
    fn failed_elements_trigger_a_drain_and_return_victims() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut admitd = front(policy);
        let (_, fill) = admit(&mut admitd, chain("fill", 4), PriorityClass::Low, 0);
        let fill_id = admitted_id(&fill).unwrap();
        let (waiter, _) = admit(&mut admitd, chain("w", 1), PriorityClass::Normal, 1);
        // Fail an element hosting the fill app: everything it claimed is
        // released, so the 1-task waiter fits on a surviving DSP.
        let hosting = admitd.kairos().layout(fill_id).unwrap().placement.iter().next().unwrap().1;
        let (_, events) =
            run(&mut admitd, Request::new(5, Command::InjectFault { element: hosting }));
        assert!(
            matches!(&events[0], Event::ElementFailed { evicted, .. } if *evicted == [fill_id])
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Admitted { ticket, .. } if *ticket == waiter)));
    }
}
