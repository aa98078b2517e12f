//! The front-end itself: [`Admitd`] and its [`ResourceService`]
//! implementation.

use std::collections::BTreeMap;
use std::sync::Arc;

use kairos_app::Application;
use kairos_core::{
    AdmissionFailure, AdmissionProbe, AdmissionReport, AllocationError, Kairos, VictimPlan,
};
use kairos_platform::{AppId, ElementId};
use kairos_telemetry::{Counter, Gauge, Histogram, Level, Telemetry, TraceContext};

use crate::command::{CapacityEvent, Command, Request};
use crate::event::{Event, RejectCause};
use crate::policy::{AdmitPolicy, PreemptionPolicy, VictimOrder};
use crate::queue::{AdmissionQueue, PriorityClass, QueuedRequest, Ticket};
use crate::service::{ResourceService, SvcMetrics};

/// What the front-end remembers about an admitted application, for the
/// benefit of the preemption hook: the class decides who may be
/// victimised, the accumulated wait travels with a preempted victim back
/// into the queue (cumulative-wait semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AdmittedMeta {
    class: PriorityClass,
    waited: u64,
}

/// Why a traced request left unadmitted: its cause and, when a phase
/// refused it, that phase's error. `None` for an admission.
type Rejection<'a> = Option<(&'a str, Option<&'a AllocationError>)>;

/// Bucket bounds for the queue-wait histogram, in virtual-time ticks.
pub const WAIT_TICKS_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Pre-resolved registry handles for the front-end's queue-transition
/// accounting, resolved once at construction from the managed manager's
/// hub. Every [`Event`] variant the front-end emits (and every
/// [`RejectCause`] it gives) maps onto exactly one counter, so the text
/// exposition reads as a complete transition ledger.
#[derive(Debug, Clone)]
struct AdmitdMetrics {
    enqueued: Arc<Counter>,
    admitted: Arc<Counter>,
    attempt_failed: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    rejected_permanent: Arc<Counter>,
    rejected_timeout: Arc<Counter>,
    rejected_retries: Arc<Counter>,
    rejected_shutdown: Arc<Counter>,
    preempted: Arc<Counter>,
    migrated: Arc<Counter>,
    depth: Arc<Gauge>,
    wait_ticks: Arc<Histogram>,
}

impl AdmitdMetrics {
    fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(AdmitdMetrics {
            enqueued: registry.counter("kairos.admitd.enqueued"),
            admitted: registry.counter("kairos.admitd.admitted"),
            attempt_failed: registry.counter("kairos.admitd.attempt_failed"),
            rejected_queue_full: registry.counter("kairos.admitd.rejected.queue_full"),
            rejected_permanent: registry.counter("kairos.admitd.rejected.permanent"),
            rejected_timeout: registry.counter("kairos.admitd.rejected.timeout"),
            rejected_retries: registry.counter("kairos.admitd.rejected.retries_exhausted"),
            rejected_shutdown: registry.counter("kairos.admitd.rejected.shutdown"),
            preempted: registry.counter("kairos.admitd.preempted"),
            migrated: registry.counter("kairos.admitd.migrated"),
            depth: registry.gauge("kairos.admitd.queue.depth"),
            wait_ticks: registry.histogram("kairos.admitd.wait.ticks", WAIT_TICKS_BOUNDS),
        })
    }
}

/// The Kairos resource service: one [`ResourceService`] over one
/// [`Kairos`] manager, with priority admission control at its door.
///
/// Sits between request sources and `Kairos::admit`: holds requests in a
/// bounded priority queue instead of dropping them, retries transient
/// mapping failures when a release or repair actually frees capacity
/// (deterministic exponential backoff, measured in capacity events), and
/// rejects permanently hopeless requests immediately
/// ([`AllocationError::is_permanent`]).
///
/// Built without a policy it is the paper's manager instead: the door
/// runs the pipeline once and its verdict is final
/// ([`RejectCause::Refused`] on failure), nothing ever queues, and the
/// drain every capacity event triggers finds an empty queue.
///
/// Every [`Request`] is settled under one ticket from the front-end's
/// own mint (or the one an outer layer stamped on it), and everything
/// it caused lands in one event buffer, drained by
/// [`ResourceService::take_events`].
///
/// # Examples
///
/// ```
/// use kairos_admitd::{AdmitPolicy, Admitd, Event, PriorityClass, Request, ResourceService};
/// use kairos_core::{Kairos, KairosConfig};
/// use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
/// use kairos_platform::{topology, ElementKind, ResourceVector};
///
/// let kairos = Kairos::new(topology::crisp(), KairosConfig::default());
/// let mut admitd = Admitd::new(kairos, Some(AdmitPolicy::default()));
/// let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(700, 32, 0, 0), 90, 4);
/// let mut b = ApplicationBuilder::new("stream");
/// let t0 = b.add_task("in", TaskRole::Input, vec![imp]);
/// let t1 = b.add_task("out", TaskRole::Output, vec![imp]);
/// b.add_channel(t0, t1, 150, 1);
/// let app = b.build()?;
///
/// let ticket = admitd.submit(Request::admit(0, app, PriorityClass::Normal));
/// let events = admitd.take_events();
/// assert!(matches!(&events[..], [Event::Queued { .. }, Event::Admitted { .. }]));
/// assert!(events.iter().all(|e| e.ticket() == ticket));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Admitd {
    kairos: Kairos,
    /// The queueing policy; `None` makes the door the whole admission
    /// (the paper's immediate admit-or-reject).
    policy: Option<AdmitPolicy>,
    queue: AdmissionQueue,
    /// Mint for requests that arrive without a ticket (the front-end is
    /// then the outermost layer); allocation order is submission order.
    next_ticket: u64,
    /// Events accumulated since the last [`ResourceService::take_events`].
    events: Vec<Event>,
    /// Monotone count of capacity-freeing events (releases, repairs,
    /// evictions, relocations); the clock retry backoff is measured
    /// against.
    capacity_events: u64,
    /// Class and accumulated wait per admitted application — the
    /// preemption hook's victim registry. Ordered so candidate
    /// enumeration is deterministic.
    admitted_meta: BTreeMap<AppId, AdmittedMeta>,
    metrics: Option<AdmitdMetrics>,
    svc_metrics: Option<SvcMetrics>,
}

impl Admitd {
    /// A front-end managing `kairos`, queueing under `policy` — or, with
    /// `None`, admitting or refusing every request at the door.
    /// Observability comes with the manager: over one whose hub is lit
    /// ([`Kairos::set_telemetry`]) commands land on the `kairos.svc.*`
    /// metrics and queue transitions on `kairos.admitd.*` (a queue-less
    /// front-end has none to register), beside the manager's own
    /// `kairos.core.*` and `kairos.reloc.*`; over a dark one nothing is
    /// registered.
    ///
    /// # Panics
    ///
    /// Panics when the policy fails [`AdmitPolicy::validate`].
    pub fn new(kairos: Kairos, policy: Option<AdmitPolicy>) -> Self {
        if let Some(policy) = &policy {
            policy.validate().unwrap_or_else(|e| panic!("invalid admission policy: {e}"));
        }
        Admitd {
            queue: AdmissionQueue::with_capacity(policy.map_or([0; 4], |p| p.class_capacity)),
            metrics: policy.and_then(|_| AdmitdMetrics::new(kairos.telemetry())),
            svc_metrics: SvcMetrics::new(kairos.telemetry()),
            policy,
            next_ticket: 0,
            events: Vec::new(),
            capacity_events: 0,
            admitted_meta: BTreeMap::new(),
            kairos,
        }
    }

    /// The managed manager's observability hub (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        self.kairos.telemetry()
    }

    /// Folds a finished call's event list onto the registry: one counter
    /// bump per transition, the wait histogram for everything that left
    /// the queue, a flight-recorder line per noteworthy transition, and
    /// the live depth gauge. Called exactly once per finished event list
    /// — an admission's or a wave's, one capacity event's drain, a tick's
    /// or the shutdown flush — so no transition is double-counted.
    fn record_events(&self, events: &[Event]) {
        let Some(m) = &self.metrics else { return };
        let telemetry = self.kairos.telemetry();
        for event in events {
            match event {
                Event::Queued { ticket, class, depth } => {
                    m.enqueued.inc();
                    telemetry.event(
                        Level::DEBUG,
                        "kairos_admitd",
                        format!("{ticket} enqueued ({class}), depth {depth}"),
                    );
                }
                Event::Admitted { ticket, class, waited, attempts, .. } => {
                    m.admitted.inc();
                    m.wait_ticks.record(*waited);
                    telemetry.event(
                        Level::INFO,
                        "kairos_admitd",
                        format!(
                            "{ticket} admitted ({class}) after {waited} ticks, {attempts} attempts"
                        ),
                    );
                }
                Event::AttemptFailed { ticket, attempt, phase, .. } => {
                    m.attempt_failed.inc();
                    telemetry.event(
                        Level::DEBUG,
                        "kairos_admitd",
                        format!("{ticket} attempt {attempt} failed in {phase} phase, backing off"),
                    );
                }
                Event::Rejected { ticket, class, cause, waited, .. } => {
                    match cause {
                        RejectCause::QueueFull => m.rejected_queue_full.inc(),
                        // `Refused` is the queue-less door's verdict, and a
                        // queue-less front-end resolves no instruments.
                        RejectCause::Refused { .. } => {}
                        RejectCause::Permanent { .. } => m.rejected_permanent.inc(),
                        RejectCause::Timeout => m.rejected_timeout.inc(),
                        RejectCause::RetriesExhausted { .. } => m.rejected_retries.inc(),
                        RejectCause::Shutdown => m.rejected_shutdown.inc(),
                    }
                    m.wait_ticks.record(*waited);
                    telemetry.event(
                        Level::WARN,
                        "kairos_admitd",
                        format!("{ticket} rejected ({class}): {cause:?} after {waited} ticks"),
                    );
                }
                Event::Preempted { victim, requeued_as, by, .. } => {
                    m.preempted.inc();
                    telemetry.event(
                        Level::WARN,
                        "kairos_admitd",
                        format!("{victim} preempted for {by}, requeued as {requeued_as}"),
                    );
                }
                Event::Migrated { ticket, app, moved_tasks } => {
                    m.migrated.inc();
                    telemetry.event(
                        Level::INFO,
                        "kairos_admitd",
                        format!("{app} migrated for {ticket}, {moved_tasks} tasks moved"),
                    );
                }
                // Command results are no queue transitions.
                Event::MigrationFailed { .. }
                | Event::Released { .. }
                | Event::ElementFailed { .. }
                | Event::ElementRepaired { .. }
                | Event::Defragged { .. }
                | Event::Rebalanced { .. } => {}
            }
        }
        m.depth.set(i64::try_from(self.queue.len()).unwrap_or(i64::MAX));
    }

    /// The front-end's queueing policy; `None` for a queue-less one.
    pub fn policy(&self) -> Option<&AdmitPolicy> {
        self.policy.as_ref()
    }

    /// The policy queued work runs under. Only a front-end with a policy
    /// enqueues a request or plans a preemption, so every caller has one.
    fn queueing(&self) -> AdmitPolicy {
        self.policy.expect("only a front-end with a policy queues or preempts")
    }

    /// The current queue contents (read-only).
    pub fn queue(&self) -> &AdmissionQueue {
        &self.queue
    }

    /// Capacity-freeing events observed so far.
    pub fn capacity_events(&self) -> u64 {
        self.capacity_events
    }

    /// Takes one request through the door. Without a policy the door is
    /// the whole admission: the pipeline runs once and its verdict is
    /// final. With one, the request is enqueued (emitting `Queued`; the
    /// drain pass that follows admits an uncontended request with zero
    /// wait) or resolved at the door — `QueueFull` backpressure, with the
    /// critical preemption hook (relocate victims under an enabled
    /// [`AdmitPolicy::preemption`], then admit directly) as the last
    /// resort. Returns whether the request actually entered the queue
    /// (and so needs a drain pass).
    fn through_the_door(
        &mut self,
        app: Application,
        class: PriorityClass,
        now: u64,
        ctx: TraceContext,
        ticket: Ticket,
        events: &mut Vec<Event>,
    ) -> bool {
        let Some(policy) = self.policy else {
            events.push(self.verdict(app, class, now, ctx, ticket));
            return false;
        };
        if self.queue.is_full(class) {
            if class == PriorityClass::Critical && policy.preemption != PreemptionPolicy::Disabled {
                if let Some(door_events) = self.try_preempt_admit(&app, ticket, class, now, ctx) {
                    events.extend(door_events);
                    return false;
                }
            }
            self.trace_terminal(ctx, now, 0, Some(("QueueFull", None)), 0);
            events.push(Event::Rejected {
                ticket,
                class,
                cause: RejectCause::QueueFull,
                reason: None,
                waited: 0,
            });
            return false;
        }
        self.queue.push(QueuedRequest {
            ticket,
            app,
            class,
            submitted_at: now,
            deadline: policy.max_wait.map(|w| now.saturating_add(w)),
            attempts: 0,
            eligible_at_event: 0,
            prior_wait: 0,
            preempt_attempts: 0,
            trace: ctx,
        });
        events.push(Event::Queued { ticket, class, depth: self.queue.len() });
        true
    }

    /// The queue-less door's one-shot verdict: the pipeline runs once and
    /// admits or refuses on the spot. Nothing waited, so the trace root
    /// closes without a `queue` span.
    fn verdict(
        &mut self,
        app: Application,
        class: PriorityClass,
        now: u64,
        ctx: TraceContext,
        ticket: Ticket,
    ) -> Event {
        match self.kairos.admit_traced(&app, ctx, now) {
            Ok(report) => {
                self.close_trace(ctx, now, None, 1);
                self.admitted_at_door(ticket, class, app, report)
            }
            Err(failure) => {
                let reason = failure.error;
                let phase = reason.phase();
                if ctx.is_some() {
                    self.close_trace(ctx, now, Some((&format!("{phase:?}"), Some(&reason))), 0);
                }
                let cause = RejectCause::Refused { phase };
                Event::Rejected { ticket, class, cause, reason: Some(reason), waited: 0 }
            }
        }
    }

    /// Registers an admission made at the door — zero wait, one attempt —
    /// in the victim registry and builds its event.
    fn admitted_at_door(
        &mut self,
        ticket: Ticket,
        class: PriorityClass,
        app: Application,
        report: AdmissionReport,
    ) -> Event {
        self.admitted_meta.insert(report.app_id, AdmittedMeta { class, waited: 0 });
        Event::Admitted {
            ticket,
            class,
            app: Box::new(app),
            report: Box::new(report),
            waited: 0,
            attempts: 1,
        }
    }

    // ---- the cluster's hooks ----------------------------------------------------

    /// Probes whether `app` could be admitted right now, leaving the
    /// platform, the queue and every registry exactly as they were. The
    /// per-shard half of `kairos-cluster`'s admission probe fan-out.
    ///
    /// # Errors
    ///
    /// The [`AdmissionFailure`] the pipeline would report.
    pub fn probe_admit(&mut self, app: &Application) -> Result<AdmissionProbe, AdmissionFailure> {
        self.kairos.probe_admit(app)
    }

    /// Admits `app` immediately, bypassing the queue — no ticket, no
    /// events, no retry. The admitted application is registered in the
    /// preemption victim registry under `class` (zero accumulated wait),
    /// so later preemption planning treats it exactly like a drained
    /// admission. This is the target-shard half of a cross-shard
    /// rebalance move: the application already waited its wait on
    /// another shard and must not re-enter a queue here. Ordinary traffic
    /// belongs in [`ResourceService::submit`].
    ///
    /// # Errors
    ///
    /// The pipeline's [`AdmissionFailure`], if any; nothing changes then.
    pub fn admit_now(
        &mut self,
        app: &Application,
        class: PriorityClass,
    ) -> Result<AdmissionReport, AdmissionFailure> {
        let report = self.kairos.admit(app)?;
        self.admitted_meta.insert(report.app_id, AdmittedMeta { class, waited: 0 });
        Ok(report)
    }

    /// Releases `app` without buffering a `Released` event of its own,
    /// returning whether the id was admitted plus the events of the drain
    /// the freed capacity triggered (none without a queue). The
    /// source-shard half of a cross-shard rebalance move: the application
    /// is leaving this manager but not the system, so no caller-visible
    /// release must be reported — while waiters admitted into the freed
    /// room are real and are.
    pub fn release_now(&mut self, app: AppId, at: u64) -> (bool, Vec<Event>) {
        if !self.kairos.release(app) {
            return (false, Vec::new());
        }
        self.admitted_meta.remove(&app);
        (true, self.capacity_event(at))
    }

    /// Drops every cached operating point touching `elements` from the
    /// manager's decision store ([`Kairos::invalidate_cached_points`]).
    /// The cross-shard rebalancer calls this on both sides of a completed
    /// move; a no-op without a configured cache.
    pub fn invalidate_cached_points(&mut self, elements: &[ElementId]) -> u64 {
        self.kairos.invalidate_cached_points(elements)
    }

    // ---- commands ---------------------------------------------------------------

    /// Performs one non-admission command under its settled ticket:
    /// buffers the command's own result event, then whatever the drain
    /// its freed capacity triggered admitted or dropped. Only a command
    /// that changed the shape of free capacity is a capacity event: a
    /// release of a known id, a completed migration, a sweep that moved
    /// something, a fault that evicted someone, the repair of a failed
    /// element. An element id outside the platform changes nothing.
    fn perform(&mut self, ticket: Ticket, at: u64, command: Command) {
        let (result, drained) = match command {
            Command::Admit { .. } => unreachable!("admissions go through the door"),
            Command::Release { app } => {
                let (found, drained) = self.release_now(app, at);
                (Event::Released { ticket, app, found }, drained)
            }
            Command::Migrate { app, avoid } => match self.kairos.migrate(app, &avoid) {
                Ok(report) => {
                    let moved_tasks = report.moved_tasks;
                    (Event::Migrated { ticket, app, moved_tasks }, self.capacity_event(at))
                }
                Err(error) => {
                    (Event::MigrationFailed { ticket, app, error: Box::new(error) }, Vec::new())
                }
            },
            Command::Defrag { max_moves } => {
                let moves = self.kairos.compact(max_moves).move_count();
                let drained = if moves == 0 { Vec::new() } else { self.capacity_event(at) };
                (Event::Defragged { ticket, moves }, drained)
            }
            Command::InjectFault { element } => {
                let evicted = self.kairos.fail_element(element);
                for victim in &evicted {
                    self.admitted_meta.remove(victim);
                }
                let drained = if evicted.is_empty() { Vec::new() } else { self.capacity_event(at) };
                (Event::ElementFailed { ticket, element, evicted }, drained)
            }
            Command::Repair { element } => {
                let repaired = self.kairos.repair_element(element);
                let drained = if repaired { self.capacity_event(at) } else { Vec::new() };
                (Event::ElementRepaired { ticket, element }, drained)
            }
            // One manager owns the whole platform: there is no shard
            // boundary to move anything across. `kairos-cluster`'s
            // `ClusterService` implements the real sweep.
            Command::Rebalance { .. } => {
                (Event::Rebalanced { ticket, moves: Vec::new() }, Vec::new())
            }
        };
        self.events.push(result);
        self.events.extend(drained);
    }

    /// Counts one capacity event and drains the queue against it.
    fn capacity_event(&mut self, now: u64) -> Vec<Event> {
        self.capacity_events += 1;
        let events = self.drain(now);
        self.record_events(&events);
        events
    }

    /// Drops queued requests with `cause` — on [`RejectCause::Timeout`]
    /// those whose deadline has passed by `now` (unlike a drain this makes
    /// no admission attempts: nothing freed up), on
    /// [`RejectCause::Shutdown`] every one, the end-of-run flush that
    /// keeps request accounting conservative.
    fn reject_queued(&mut self, cause: RejectCause, now: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for class in 0..4 {
            let mut i = 0;
            while i < self.queue.class_len(class) {
                if cause == RejectCause::Shutdown || self.is_overdue(class, i, now) {
                    events.push(self.reject_at(class, i, cause, None, now));
                } else {
                    i += 1;
                }
            }
        }
        self.record_events(&events);
        events
    }

    /// Whether the request at `(class, i)` has waited past its deadline.
    fn is_overdue(&self, class: usize, i: usize, now: u64) -> bool {
        self.queue
            .get(class, i)
            .expect("index bounded by class_len")
            .deadline
            .is_some_and(|d| now >= d)
    }

    /// Records the terminal `queue` span (its width is the request's
    /// cumulative wait) and closes the trace root — the single exit
    /// point of a request's trace on the queued path. No-op on
    /// [`TraceContext::NONE`].
    fn trace_terminal(
        &self,
        ctx: TraceContext,
        now: u64,
        waited: u64,
        rejected: Rejection<'_>,
        attempts: u32,
    ) {
        if ctx.is_none() {
            return;
        }
        self.kairos.telemetry().trace_child(ctx, "queue", now.saturating_sub(waited), now, &[]);
        self.close_trace(ctx, now, rejected, attempts);
    }

    /// Closes the trace root with the request's outcome — for a
    /// rejection its cause, and the refusing phase's error as `reason`
    /// when there is one — and its attempt count when it made any. No-op
    /// on [`TraceContext::NONE`].
    fn close_trace(&self, ctx: TraceContext, now: u64, rejected: Rejection<'_>, attempts: u32) {
        if ctx.is_none() {
            return;
        }
        let outcome = if rejected.is_some() { "rejected" } else { "admitted" };
        let mut args = vec![("outcome", outcome.to_owned())];
        if let Some((cause, reason)) = rejected {
            args.push(("cause", cause.to_owned()));
            if let Some(reason) = reason {
                args.push(("reason", reason.to_string()));
            }
        }
        if attempts > 0 {
            args.push(("attempts", attempts.to_string()));
        }
        self.kairos.telemetry().trace_close(ctx, now, &args);
    }

    /// Removes the request at `(class, i)` and builds its rejection event,
    /// reporting the cumulative wait across requeues and, when a phase
    /// refused it, that phase's error.
    fn reject_at(
        &mut self,
        class: usize,
        i: usize,
        cause: RejectCause,
        reason: Option<Box<AllocationError>>,
        now: u64,
    ) -> Event {
        let req = self.queue.remove(class, i);
        let waited = req.waited(now);
        if req.trace.is_some() {
            let rejected = Some((&*format!("{cause:?}"), reason.as_deref()));
            self.trace_terminal(req.trace, now, waited, rejected, req.attempts);
        }
        Event::Rejected { ticket: req.ticket, class: req.class, cause, reason, waited }
    }

    /// One batch drain pass at `now`: walks the queue in priority-then-
    /// FIFO order and attempts every *eligible* request once. A request is
    /// eligible when its retry backoff has elapsed (in capacity events);
    /// overdue requests are dropped on the way. Capacity only shrinks
    /// during a pass, so a single pass is complete — nothing skipped
    /// could have become admissible by the end.
    fn drain(&mut self, now: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for class in 0..4 {
            let mut i = 0;
            while i < self.queue.class_len(class) {
                if self.is_overdue(class, i, now) {
                    events.push(self.reject_at(class, i, RejectCause::Timeout, None, now));
                    continue;
                }
                let eligible =
                    self.queue.get(class, i).expect("index bounded by class_len").eligible_at_event
                        <= self.capacity_events;
                if !eligible {
                    i += 1;
                    continue;
                }
                let attempt_result = {
                    let req = self.queue.get(class, i).expect("index bounded by class_len");
                    self.kairos.admit_traced(&req.app, req.trace, now)
                };
                match attempt_result {
                    Ok(report) => {
                        let req = self.queue.remove(class, i);
                        let waited = req.waited(now);
                        self.trace_terminal(req.trace, now, waited, None, req.attempts + 1);
                        self.admitted_meta
                            .insert(report.app_id, AdmittedMeta { class: req.class, waited });
                        events.push(Event::Admitted {
                            ticket: req.ticket,
                            class: req.class,
                            app: Box::new(req.app),
                            report: Box::new(report),
                            waited,
                            attempts: req.attempts + 1,
                        });
                    }
                    Err(failure) if failure.error.is_permanent() => {
                        let cause = RejectCause::Permanent { phase: failure.phase() };
                        let reason = Some(failure.error);
                        events.push(self.reject_at(class, i, cause, reason, now));
                    }
                    Err(failure) => {
                        let policy = self.queueing();
                        // Preemption hook: a blocked critical may relocate
                        // running lower-priority work once, then is
                        // re-attempted immediately against the freed room.
                        let can_preempt = {
                            let req = self.queue.get(class, i).expect("index bounded by class_len");
                            req.class == PriorityClass::Critical
                                && policy.preemption != PreemptionPolicy::Disabled
                                && req.preempt_attempts == 0
                        };
                        if can_preempt && self.relocate_for(class, i, now, &mut events) {
                            let req =
                                self.queue.get_mut(class, i).expect("index bounded by class_len");
                            req.attempts += 1;
                            req.preempt_attempts += 1;
                            continue;
                        }
                        let exhausted = {
                            let req =
                                self.queue.get_mut(class, i).expect("index bounded by class_len");
                            req.attempts += 1;
                            req.attempts >= policy.max_attempts
                        };
                        let phase = failure.phase();
                        let reason = failure.error;
                        if exhausted {
                            let cause = RejectCause::RetriesExhausted { phase };
                            events.push(self.reject_at(class, i, cause, Some(reason), now));
                        } else {
                            let backoff = {
                                let req = self
                                    .queue
                                    .get_mut(class, i)
                                    .expect("index bounded by class_len");
                                let b = policy.backoff(req.attempts);
                                req.eligible_at_event = self.capacity_events.saturating_add(b);
                                (req.ticket, req.class, req.attempts, req.trace)
                            };
                            if backoff.3.is_some() {
                                self.kairos.telemetry().trace_child(
                                    backoff.3,
                                    "attempt",
                                    now,
                                    now,
                                    &[
                                        ("attempt", backoff.2.to_string()),
                                        ("phase", format!("{phase:?}")),
                                        ("reason", reason.to_string()),
                                    ],
                                );
                            }
                            events.push(Event::AttemptFailed {
                                ticket: backoff.0,
                                class: backoff.1,
                                attempt: backoff.2,
                                phase,
                                reason,
                            });
                            i += 1;
                        }
                    }
                }
            }
        }
        events
    }

    // ---- preemption / relocation ------------------------------------------------

    /// The priority class an application was admitted under, while it is
    /// still admitted. Applications admitted before preemption support
    /// existed (none — the registry is as old as the hook) always have an
    /// entry; unknown or already-released ids return `None`.
    pub fn admitted_class(&self, id: AppId) -> Option<PriorityClass> {
        self.admitted_meta.get(&id).map(|m| m.class)
    }

    /// Running applications of a class *strictly lower* than `than`, in
    /// eviction-preference order: lowest class first, then the policy's
    /// [`VictimOrder`] tie-break (fewest or most tasks first), then id —
    /// a deterministic order [`Kairos::select_victims`] treats as
    /// cheapest-first.
    fn preemption_candidates(&self, than: PriorityClass) -> Vec<AppId> {
        let mut candidates: Vec<(usize, usize, AppId)> = self
            .admitted_meta
            .iter()
            .filter(|(_, meta)| meta.class.index() > than.index())
            .map(|(&id, meta)| {
                let tasks = self.kairos.layout(id).map_or(0, |l| l.placement.len());
                (meta.class.index(), tasks, id)
            })
            .collect();
        let order = self.queueing().victim_order;
        candidates.sort_by(|a, b| {
            let size = match order {
                VictimOrder::SmallestFirst => a.1.cmp(&b.1),
                VictimOrder::LargestFirst => b.1.cmp(&a.1),
            };
            b.0.cmp(&a.0).then(size).then(a.2.cmp(&b.2))
        });
        candidates.into_iter().map(|(_, _, id)| id).collect()
    }

    /// The single victim-selection code path shared by the drain hook and
    /// the `QueueFull` door hook: enumerate candidates strictly below
    /// `class`, plan a minimal victim set that provably unblocks `app`,
    /// and apply it (evicting or migrating per the policy), attributing
    /// every relocation event to the blocked request `by`. Returns
    /// whether a relocation actually happened — `false` means no plan
    /// exists and nothing changed.
    fn relocate_to_unblock(
        &mut self,
        app: &Application,
        class: PriorityClass,
        by: Ticket,
        ctx: TraceContext,
        now: u64,
        events: &mut Vec<Event>,
    ) -> bool {
        let candidates = self.preemption_candidates(class);
        let max_victims = self.queueing().max_victims;
        let Some(plan) = self.kairos.select_victims(app, &candidates, max_victims) else {
            return false;
        };
        self.apply_relocation(plan, by, ctx, now, events);
        true
    }

    /// Plans and applies a relocation for the blocked request at
    /// `(class, i)`. Returns whether a relocation actually happened (the
    /// caller then re-attempts the request against the freed room).
    fn relocate_for(&mut self, class: usize, i: usize, now: u64, events: &mut Vec<Event>) -> bool {
        let (ticket, req_class, app, ctx) = {
            let req = self.queue.get(class, i).expect("index bounded by class_len");
            (req.ticket, req.class, req.app.clone(), req.trace)
        };
        self.relocate_to_unblock(&app, req_class, ticket, ctx, now, events)
    }

    /// Executes a validated relocation plan: under
    /// [`PreemptionPolicy::Migrate`] each victim is live-migrated off the
    /// plan's target region (falling back to eviction when both footprints
    /// don't fit at once); under [`PreemptionPolicy::Evict`] every victim
    /// is evicted and re-queued as a retryable request carrying its
    /// accumulated wait. Every completed relocation is a capacity event.
    fn apply_relocation(
        &mut self,
        plan: VictimPlan,
        by: Ticket,
        ctx: TraceContext,
        now: u64,
        events: &mut Vec<Event>,
    ) {
        let targets = plan.target_elements();
        for victim in plan.victims {
            let meta = *self.admitted_meta.get(&victim).expect("candidates are admitted");
            let migrated = match self.queueing().preemption {
                PreemptionPolicy::Migrate => self.kairos.migrate(victim, &targets).ok(),
                _ => None,
            };
            self.capacity_events += 1;
            match migrated {
                Some(report) => {
                    if ctx.is_some() {
                        self.kairos.telemetry().trace_child(
                            ctx,
                            "preempt.migrate",
                            now,
                            now,
                            &[
                                ("victim", format!("{victim:?}")),
                                ("moved_tasks", report.moved_tasks.to_string()),
                            ],
                        );
                    }
                    events.push(Event::Migrated {
                        ticket: by,
                        app: victim,
                        moved_tasks: report.moved_tasks,
                    });
                }
                None => {
                    let app = self
                        .kairos
                        .application(victim)
                        .expect("victim is admitted until released")
                        .clone();
                    assert!(self.kairos.release(victim), "a victim is never double-released");
                    self.admitted_meta.remove(&victim);
                    if ctx.is_some() {
                        self.kairos.telemetry().trace_child(
                            ctx,
                            "preempt.evict",
                            now,
                            now,
                            &[("victim", format!("{victim:?}"))],
                        );
                    }
                    let ticket = Ticket::requeue_of(victim);
                    events.push(Event::Preempted {
                        victim,
                        class: meta.class,
                        requeued_as: ticket,
                        by,
                    });
                    // The evicted victim re-enters as a fresh request with
                    // its own trace root (when tracing is on at all), so
                    // its second life is analysable separately from the
                    // request that displaced it.
                    let victim_trace = self.kairos.telemetry().trace_root(
                        "request",
                        now,
                        &[
                            ("class", meta.class.to_string()),
                            ("origin", "preempt-requeue".to_owned()),
                        ],
                    );
                    if self.queue.is_full(meta.class) {
                        let rejected = Some(("QueueFull", None));
                        self.trace_terminal(victim_trace, now, meta.waited, rejected, 0);
                        events.push(Event::Rejected {
                            ticket,
                            class: meta.class,
                            cause: RejectCause::QueueFull,
                            reason: None,
                            waited: meta.waited,
                        });
                    } else {
                        self.queue.push(QueuedRequest {
                            ticket,
                            app,
                            class: meta.class,
                            submitted_at: now,
                            deadline: self.queueing().max_wait.map(|w| now.saturating_add(w)),
                            attempts: 0,
                            eligible_at_event: 0,
                            prior_wait: meta.waited,
                            preempt_attempts: 0,
                            trace: victim_trace,
                        });
                        events.push(Event::Queued {
                            ticket,
                            class: meta.class,
                            depth: self.queue.len(),
                        });
                    }
                }
            }
        }
    }

    /// The `QueueFull` preemption hook: admits `app` directly — without
    /// ever entering the full queue — when a relocation plan exists.
    /// Returns `None` (and changes nothing) when no plan exists; the
    /// caller then falls back to the plain `QueueFull` rejection.
    fn try_preempt_admit(
        &mut self,
        app: &Application,
        ticket: Ticket,
        class: PriorityClass,
        now: u64,
        ctx: TraceContext,
    ) -> Option<Vec<Event>> {
        let mut events = Vec::new();
        let door_admit = |this: &mut Self, report: AdmissionReport| {
            this.trace_terminal(ctx, now, 0, None, 1);
            this.admitted_at_door(ticket, class, app.clone(), report)
        };
        // A request that fits outright needs no victims — only plan a
        // relocation when the request is actually blocked by occupancy.
        if let Ok(report) = self.kairos.admit_traced(app, ctx, now) {
            events.push(door_admit(self, report));
            return Some(events);
        }
        if !self.relocate_to_unblock(app, class, ticket, ctx, now, &mut events) {
            return None;
        }
        match self.kairos.admit_traced(app, ctx, now) {
            Ok(report) => events.push(door_admit(self, report)),
            Err(_) => {
                // Migration side effects can, in rare routing-contention
                // cases, leave the probed layout unreachable; the request
                // still cannot enter the full queue.
                self.trace_terminal(ctx, now, 0, Some(("QueueFull", None)), 0);
                events.push(Event::Rejected {
                    ticket,
                    class,
                    cause: RejectCause::QueueFull,
                    reason: None,
                    waited: 0,
                });
            }
        }
        // Relocation freed capacity elsewhere too — drain the waiters.
        events.extend(self.drain(now));
        Some(events)
    }
}

impl ResourceService for Admitd {
    fn submit(&mut self, request: Request) -> Ticket {
        let _span = self.kairos.telemetry().span("kairos_svc", "submit");
        let Request { at, command, trace, ticket } = request;
        if let Some(m) = &self.svc_metrics {
            m.note_command(&command);
        }
        let ticket = Ticket::resolve(ticket, &mut self.next_ticket);
        let Command::Admit { app, class } = command else {
            self.perform(ticket, at, command);
            return ticket;
        };
        // The outermost service mints the request's trace root; a context
        // already stamped on the request (a sharded service forwarding to
        // its shard) is honoured as-is.
        let ctx = self.kairos.telemetry().request_root(trace, at, &class);
        let mut events = Vec::new();
        if self.through_the_door(app, class, at, ctx, ticket, &mut events) {
            events.extend(self.drain(at));
        }
        self.record_events(&events);
        self.events.extend(events);
        ticket
    }

    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let _span = self.kairos.telemetry().span("kairos_svc", "submit_batch");
        if let Some(m) = &self.svc_metrics {
            m.batches.inc();
            for request in &requests {
                m.note_command(&request.command);
            }
        }
        // Settle every ticket up front, in submission order — batching
        // changes how work is performed, never how it is identified.
        let mut tickets = Vec::with_capacity(requests.len());
        let mut wave = Vec::new();
        let mut wave_at = u64::MAX;
        let mut rest = Vec::new();
        for Request { at, command, trace, ticket } in requests {
            let ticket = Ticket::resolve(ticket, &mut self.next_ticket);
            tickets.push(ticket);
            match command {
                Command::Admit { app, class } => {
                    // Roots are minted here, in submission order, so trace
                    // id allocation never depends on the door's order.
                    let ctx = self.kairos.telemetry().request_root(trace, at, &class);
                    // Batches model synchronized arrivals: the earliest
                    // request time stamps the whole wave.
                    wave_at = wave_at.min(at);
                    wave.push((app, class, ctx, ticket));
                }
                other => rest.push((ticket, at, other)),
            }
        }
        if !wave.is_empty() {
            if self.policy.is_none() {
                // Nothing queues, so the door decides the wave in the
                // order a queued wave's one drain pass would (stable:
                // FIFO within a class).
                wave.sort_by_key(|(_, class, _, _)| class.index());
            }
            let mut events = Vec::new();
            for (app, class, ctx, ticket) in wave {
                self.through_the_door(app, class, wave_at, ctx, ticket, &mut events);
            }
            events.extend(self.drain(wave_at));
            self.record_events(&events);
            self.events.extend(events);
        }
        for (ticket, at, command) in rest {
            self.perform(ticket, at, command);
        }
        tickets
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        let events = match event {
            CapacityEvent::Tick { now } => self.reject_queued(RejectCause::Timeout, now),
            CapacityEvent::Shutdown { now } => self.reject_queued(RejectCause::Shutdown, now),
        };
        if let Some(m) = &self.svc_metrics {
            m.events.add(events.len() as u64);
        }
        events
    }

    fn take_events(&mut self) -> Vec<Event> {
        let events = std::mem::take(&mut self.events);
        if let Some(m) = &self.svc_metrics {
            m.events.add(events.len() as u64);
        }
        events
    }

    fn kairos(&self) -> &Kairos {
        &self.kairos
    }

    fn queue_depth(&self) -> usize {
        self.queue.len()
    }
}
