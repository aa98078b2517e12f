//! The [`ResourceService`] trait and its canonical [`KairosService`]
//! implementation.

use std::sync::Arc;

use kairos_admitd::{Admitd, Event, PriorityClass, RejectCause, Ticket};
use kairos_app::Application;
use kairos_core::{CacheStats, ElementActivity, Kairos, OccupancySnapshot};
use kairos_platform::AppId;
use kairos_reloc::RelocMetrics;
use kairos_telemetry::{Counter, Telemetry, TraceContext};

use crate::command::{CapacityEvent, Command, Request};

/// The one typed surface applications (and the `kairos-sim` scenario
/// engine) talk to the run-time through.
///
/// A service accepts [`Request`]s — operations as data — and reports
/// everything that happened as a single ordered [`Event`] stream:
///
/// * [`ResourceService::submit`] performs one command and returns its
///   service [`Ticket`]; the events it caused accumulate until
///   [`ResourceService::take_events`] drains them.
/// * [`ResourceService::submit_batch`] performs a whole arrival wave as
///   one operation: its admissions are class-sorted, stamped with the
///   wave's earliest arrival time and, on a queued service, drained in
///   one pass instead of N.
/// * [`ResourceService::pump`] feeds lifecycle events (time advancing,
///   shutdown) and returns the decisions they forced.
///
/// Everything is deterministic: the same request sequence produces the
/// same event stream, byte for byte.
///
/// Implementations must be [`fmt::Debug`](std::fmt::Debug) so drivers
/// (the `kairos-sim` engine holds its service as a trait object) stay
/// debuggable.
pub trait ResourceService: std::fmt::Debug {
    /// Performs one command, returning the ticket correlating its events.
    fn submit(&mut self, request: Request) -> Ticket;

    /// Performs a whole wave of commands as one operation, returning one
    /// ticket per request in submission order.
    ///
    /// Admissions in the wave are handled collectively: sorted by
    /// priority class (stable, so FIFO within a class is preserved),
    /// stamped with the wave's earliest arrival time and — on a queued
    /// service — drained in one pass. A wave is not a transaction: each
    /// admission is written as it is decided, exactly as under
    /// [`Self::submit`], and a refusal writes nothing. Non-admission
    /// commands execute after the wave's admissions, in submission order.
    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket>;

    /// Feeds one lifecycle event and returns the decisions it forced
    /// (timed-out drops, shutdown flushes). Unlike [`Self::submit`], the
    /// returned events are not also buffered.
    fn pump(&mut self, event: CapacityEvent) -> Vec<Event>;

    /// Drains every event buffered since the last call, in order.
    fn take_events(&mut self) -> Vec<Event>;

    /// Read access to the underlying resource manager (the "low-level"
    /// layer), for inspection. Multi-manager services (a `kairos-cluster`
    /// of shards) return their first manager; use
    /// [`ResourceService::occupancy`] for whole-service metrics.
    fn kairos(&self) -> &Kairos;

    /// Requests currently waiting in the admission queue (`0` for
    /// queue-less services).
    fn queue_depth(&self) -> usize;

    /// An occupancy snapshot of the managed platform (aggregated over
    /// every shard, for multi-manager services).
    fn occupancy(&self) -> OccupancySnapshot {
        self.kairos().occupancy()
    }

    /// Lifetime counters of the operating-point cache,
    /// summed over every shard for multi-manager services; `None` when no
    /// cache is configured.
    fn cache_stats(&self) -> Option<CacheStats> {
        self.kairos().cache_stats()
    }

    /// Number of independent shards behind this service — `1` for a
    /// monolithic manager; a `kairos-cluster` reports its region count.
    /// Serving front-ends (the `kairos-gateway`) use it to stripe their
    /// bounded request lanes one-per-shard.
    fn shard_count(&self) -> usize {
        1
    }

    /// Per-element busy/failed/resident-apps activity over the whole
    /// service, in global-element-id order — the raw signal behind energy
    /// accounting and health monitoring (`kairos-watch`). Multi-manager
    /// services translate shard-local element ids to global ones and tag
    /// each entry with its owning shard.
    fn element_activity(&self) -> Vec<ElementActivity> {
        self.kairos().element_activity()
    }
}

/// The admission path behind a [`KairosService`]: the bare manager (the
/// paper's immediate admit-or-reject), or the `kairos-admitd` priority
/// front-end. One long-lived instance per service, so the variant size
/// difference is irrelevant.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Backend {
    Direct(Kairos),
    Queued(Admitd),
}

/// Pre-resolved registry handles for the service surface: one counter per
/// command kind dispatched, one for batched waves, one for events handed
/// back to the consumer.
#[derive(Debug, Clone)]
struct SvcMetrics {
    commands: Arc<Counter>,
    admit: Arc<Counter>,
    release: Arc<Counter>,
    migrate: Arc<Counter>,
    defrag: Arc<Counter>,
    inject_fault: Arc<Counter>,
    repair: Arc<Counter>,
    rebalance: Arc<Counter>,
    batches: Arc<Counter>,
    events: Arc<Counter>,
}

impl SvcMetrics {
    fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(SvcMetrics {
            commands: registry.counter("kairos.svc.commands"),
            admit: registry.counter("kairos.svc.command.admit"),
            release: registry.counter("kairos.svc.command.release"),
            migrate: registry.counter("kairos.svc.command.migrate"),
            defrag: registry.counter("kairos.svc.command.defrag"),
            inject_fault: registry.counter("kairos.svc.command.inject_fault"),
            repair: registry.counter("kairos.svc.command.repair"),
            rebalance: registry.counter("kairos.svc.command.rebalance"),
            batches: registry.counter("kairos.svc.batches"),
            events: registry.counter("kairos.svc.events"),
        })
    }

    fn note_command(&self, command: &Command) {
        self.commands.inc();
        match command {
            Command::Admit { .. } => self.admit.inc(),
            Command::Release { .. } => self.release.inc(),
            Command::Migrate { .. } => self.migrate.inc(),
            Command::Defrag { .. } => self.defrag.inc(),
            Command::InjectFault { .. } => self.inject_fault.inc(),
            Command::Repair { .. } => self.repair.inc(),
            Command::Rebalance { .. } => self.rebalance.inc(),
        }
    }
}

/// The canonical [`ResourceService`]: owns a [`Kairos`] manager — behind
/// a `kairos-admitd` front-end when built with an admission policy — and
/// the `kairos-reloc` relocation machinery, all under one typed
/// command/event surface.
///
/// Built by [`ServiceBuilder`](crate::ServiceBuilder), which is where
/// policies (cost weights, admission queueing, preemption, victim
/// ordering) are injected.
///
/// # Examples
///
/// ```
/// use kairos_svc::{Command, Event, Request, ResourceService, ServiceBuilder};
/// use kairos_admitd::PriorityClass;
/// use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
/// use kairos_platform::{topology, ElementKind, ResourceVector};
///
/// let mut service = ServiceBuilder::new(topology::crisp()).build()?;
/// let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(700, 32, 0, 0), 90, 4);
/// let mut b = ApplicationBuilder::new("stream");
/// let t0 = b.add_task("in", TaskRole::Input, vec![imp]);
/// let t1 = b.add_task("out", TaskRole::Output, vec![imp]);
/// b.add_channel(t0, t1, 150, 1);
/// let app = b.build()?;
///
/// let ticket = service.submit(Request::admit(0, app, PriorityClass::Normal));
/// let events = service.take_events();
/// assert!(matches!(&events[..], [Event::Admitted { ticket: t, .. }] if *t == ticket));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct KairosService {
    backend: Backend,
    /// Mint for requests that arrive without a ticket (this service is
    /// then the outermost layer); allocation order is submission order.
    next_ticket: u64,
    /// Events accumulated since the last [`ResourceService::take_events`].
    events: Vec<Event>,
    metrics: Option<SvcMetrics>,
    /// Relocation instruments for the direct backend's defrag sweeps (a
    /// queued backend resolves its own inside `Admitd`).
    reloc_metrics: Option<RelocMetrics>,
}

impl KairosService {
    /// A queue-less service over `kairos`: admissions run the pipeline
    /// once and reject immediately on failure, the paper's behaviour.
    /// Like every wrapper, the service reads the hub of the manager it
    /// wraps: over a lit one ([`Kairos::set_telemetry`]) the
    /// `kairos.svc.*` dispatch counters are registered, over a dark one
    /// nothing is.
    pub fn direct(kairos: Kairos) -> Self {
        KairosService {
            metrics: SvcMetrics::new(kairos.telemetry()),
            reloc_metrics: RelocMetrics::new(kairos.telemetry()),
            backend: Backend::Direct(kairos),
            next_ticket: 0,
            events: Vec::new(),
        }
    }

    /// A queued service over an existing front-end (whose manager's hub
    /// it reads, as [`KairosService::direct`] does).
    pub fn queued(admitd: Admitd) -> Self {
        KairosService {
            metrics: SvcMetrics::new(admitd.telemetry()),
            reloc_metrics: None,
            backend: Backend::Queued(admitd),
            next_ticket: 0,
            events: Vec::new(),
        }
    }

    /// The managed manager's observability hub (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        self.kairos().telemetry()
    }

    /// The admission front-end, when the service runs with one.
    pub fn admitd(&self) -> Option<&Admitd> {
        match &self.backend {
            Backend::Direct(_) => None,
            Backend::Queued(admitd) => Some(admitd),
        }
    }

    /// One direct-path admission: run the pipeline once, admit or reject.
    /// The queue-less path has no residency, so the trace (when `ctx` is
    /// set) is just the pipeline's phase spans under a root closed here —
    /// no `queue` span is ever recorded for it.
    fn admit_direct(
        kairos: &mut Kairos,
        ticket: Ticket,
        app: Application,
        class: PriorityClass,
        ctx: TraceContext,
        at: u64,
        events: &mut Vec<Event>,
    ) {
        match kairos.admit_traced(&app, ctx, at) {
            Ok(report) => {
                if ctx.is_some() {
                    kairos.telemetry().trace_close(
                        ctx,
                        at,
                        &[("outcome", "admitted".to_owned()), ("attempts", "1".to_owned())],
                    );
                }
                events.push(Event::Admitted {
                    ticket,
                    class,
                    app: Box::new(app),
                    report: Box::new(report),
                    waited: 0,
                    attempts: 1,
                });
            }
            Err(failure) => {
                if ctx.is_some() {
                    kairos.telemetry().trace_close(
                        ctx,
                        at,
                        &[
                            ("outcome", "rejected".to_owned()),
                            ("cause", format!("{:?}", failure.phase())),
                        ],
                    );
                }
                events.push(Event::Rejected {
                    ticket,
                    class,
                    cause: RejectCause::Refused { phase: failure.phase() },
                    waited: 0,
                });
            }
        }
    }

    /// Performs one non-admission command under an already-allocated
    /// ticket. Admissions are handled by the callers (they differ between
    /// single and batched submission).
    fn perform(&mut self, ticket: Ticket, at: u64, command: Command) {
        match command {
            Command::Admit { .. } => unreachable!("admissions are routed by the callers"),
            Command::Release { app } => {
                let (found, queued) = match &mut self.backend {
                    Backend::Direct(kairos) => (kairos.release(app), Vec::new()),
                    Backend::Queued(admitd) => admitd.release(app, at),
                };
                self.events.push(Event::Released { ticket, app, found });
                self.events.extend(queued);
            }
            Command::Migrate { app, avoid } => {
                let (result, queued) = match &mut self.backend {
                    Backend::Direct(kairos) => (kairos.migrate(app, &avoid), Vec::new()),
                    Backend::Queued(admitd) => admitd.migrate(app, &avoid, at),
                };
                match result {
                    Ok(report) => self.events.push(Event::Migrated {
                        ticket,
                        app,
                        moved_tasks: report.moved_tasks,
                    }),
                    Err(error) => self.events.push(Event::MigrationFailed {
                        ticket,
                        app,
                        error: Box::new(error),
                    }),
                }
                self.events.extend(queued);
            }
            Command::Defrag { max_moves } => {
                let (moves, queued) = match &mut self.backend {
                    Backend::Direct(kairos) => (
                        kairos_reloc::compact_with(kairos, max_moves, self.reloc_metrics.as_ref())
                            .move_count(),
                        Vec::new(),
                    ),
                    Backend::Queued(admitd) => {
                        let (report, queued) = admitd.defrag(at, max_moves);
                        (report.move_count(), queued)
                    }
                };
                self.events.push(Event::Defragged { ticket, moves });
                self.events.extend(queued);
            }
            Command::InjectFault { element } => {
                let (evicted, queued) = match &mut self.backend {
                    Backend::Direct(kairos) => (kairos.fail_element(element), Vec::new()),
                    Backend::Queued(admitd) => admitd.fail_element(element, at),
                };
                self.events.push(Event::ElementFailed { ticket, element, evicted });
                self.events.extend(queued);
            }
            Command::Repair { element } => {
                let queued = match &mut self.backend {
                    Backend::Direct(kairos) => {
                        kairos.repair_element(element);
                        Vec::new()
                    }
                    Backend::Queued(admitd) => admitd.repair_element(element, at),
                };
                self.events.push(Event::ElementRepaired { ticket, element });
                self.events.extend(queued);
            }
            Command::Rebalance { .. } => {
                // One manager owns the whole platform: there is no shard
                // boundary to move anything across. `kairos-cluster`'s
                // `ClusterService` implements the real sweep.
                self.events.push(Event::Rebalanced { ticket, moves: Vec::new() });
            }
        }
    }

    /// Probes whether `app` could be admitted right now, leaving the
    /// service (platform, queue, registries) exactly as it was. The
    /// per-shard half of `kairos-cluster`'s admission probe fan-out.
    ///
    /// # Errors
    ///
    /// The [`kairos_core::AdmissionFailure`] the pipeline would report.
    pub fn probe_admit(
        &mut self,
        app: &Application,
    ) -> Result<kairos_core::AdmissionProbe, kairos_core::AdmissionFailure> {
        match &mut self.backend {
            Backend::Direct(kairos) => kairos.probe_admit(app),
            Backend::Queued(admitd) => admitd.probe_admit(app),
        }
    }

    /// Admits `app` immediately under `class`, bypassing any admission
    /// queue — no ticket, no buffered events. On a queued service the
    /// admission is registered in the preemption victim registry, so the
    /// import behaves exactly like a drained admission afterwards. This
    /// is the target-shard half of a cross-shard rebalance move; ordinary
    /// traffic belongs in [`ResourceService::submit`].
    ///
    /// # Errors
    ///
    /// The pipeline's [`kairos_core::AdmissionFailure`], if any; nothing
    /// changes then.
    pub fn admit_now(
        &mut self,
        app: &Application,
        class: PriorityClass,
    ) -> Result<kairos_core::AdmissionReport, kairos_core::AdmissionFailure> {
        match &mut self.backend {
            Backend::Direct(kairos) => kairos.admit(app),
            Backend::Queued(admitd) => admitd.admit_direct(app, class),
        }
    }

    /// Drops every cached operating point touching `elements` from the
    /// manager's operating-point cache
    /// ([`Kairos::invalidate_cached_points`]). The cross-shard
    /// rebalancer calls this on both sides of a completed move; a no-op
    /// without a configured cache.
    pub fn invalidate_cached_points(&mut self, elements: &[kairos_platform::ElementId]) -> u64 {
        match &mut self.backend {
            Backend::Direct(kairos) => kairos.invalidate_cached_points(elements),
            Backend::Queued(admitd) => admitd.kairos_mut().invalidate_cached_points(elements),
        }
    }

    /// Releases `app` without emitting a `Released` event of its own,
    /// returning whether the id was admitted plus the events of the drain
    /// the freed capacity triggered (queued services only). The
    /// source-shard half of a cross-shard rebalance move: the application
    /// is leaving this manager but not the system, so no caller-visible
    /// release must be reported — while waiters admitted into the freed
    /// room are real and are.
    pub fn release_now(&mut self, app: AppId, at: u64) -> (bool, Vec<Event>) {
        match &mut self.backend {
            Backend::Direct(kairos) => (kairos.release(app), Vec::new()),
            Backend::Queued(admitd) => admitd.release(app, at),
        }
    }
}

impl ResourceService for KairosService {
    fn submit(&mut self, request: Request) -> Ticket {
        let _span = self.telemetry().span("kairos_svc", "submit");
        let Request { at, command, trace, ticket } = request;
        if let Some(m) = &self.metrics {
            m.note_command(&command);
        }
        let ticket = Ticket::resolve(ticket, &mut self.next_ticket);
        if let Command::Admit { app, class } = command {
            // The outermost service mints the request's trace root; a
            // context already stamped on the request (a sharded service
            // forwarding to its shard) is honoured as-is.
            let ctx = self.telemetry().request_root(trace, at, &class);
            match &mut self.backend {
                Backend::Direct(kairos) => {
                    Self::admit_direct(kairos, ticket, app, class, ctx, at, &mut self.events);
                }
                Backend::Queued(admitd) => {
                    let (_, queued) = admitd.submit_traced(app, class, at, ctx, Some(ticket));
                    self.events.extend(queued);
                }
            }
        } else {
            self.perform(ticket, at, command);
        }
        ticket
    }

    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let _span = self.telemetry().span("kairos_svc", "submit_batch");
        if let Some(m) = &self.metrics {
            m.batches.inc();
            for request in &requests {
                m.note_command(&request.command);
            }
        }
        // Settle every ticket up front, in submission order — batching
        // changes how work is performed, never how it is identified.
        let mut tickets = Vec::with_capacity(requests.len());
        let mut admissions: Vec<(Ticket, u64, Application, PriorityClass, TraceContext)> =
            Vec::new();
        let mut rest: Vec<(Ticket, u64, Command)> = Vec::new();
        for Request { at, command, trace, ticket } in requests {
            let ticket = Ticket::resolve(ticket, &mut self.next_ticket);
            tickets.push(ticket);
            match command {
                Command::Admit { app, class } => {
                    // Roots are minted here, in submission order, so trace
                    // id allocation never depends on the class sort below.
                    let ctx = self.telemetry().request_root(trace, at, &class);
                    admissions.push((ticket, at, app, class, ctx));
                }
                other => rest.push((ticket, at, other)),
            }
        }

        if !admissions.is_empty() {
            // The wave's timestamp: batches model synchronized arrivals,
            // so the earliest request time stamps the whole wave.
            let wave_at = admissions.iter().map(|(_, at, _, _, _)| *at).min().expect("non-empty");
            match &mut self.backend {
                Backend::Direct(kairos) => {
                    // Class-sort (stable: FIFO within a class), mirroring
                    // the drain order a queued service would use.
                    admissions.sort_by_key(|(_, _, _, class, _)| class.index());
                    for (ticket, _, app, class, ctx) in admissions {
                        Self::admit_direct(
                            kairos,
                            ticket,
                            app,
                            class,
                            ctx,
                            wave_at,
                            &mut self.events,
                        );
                    }
                }
                Backend::Queued(admitd) => {
                    // The front-end's batch path: every request through
                    // the door, then one drain pass (which is itself
                    // priority-then-FIFO ordered).
                    let wave = admissions
                        .into_iter()
                        .map(|(ticket, _, app, class, ctx)| (app, class, ctx, Some(ticket)))
                        .collect();
                    let (_, queued) = admitd.submit_batch_traced(wave, wave_at);
                    self.events.extend(queued);
                }
            }
        }

        for (ticket, at, command) in rest {
            self.perform(ticket, at, command);
        }
        tickets
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        let events = match (&mut self.backend, event) {
            (Backend::Direct(_), _) => Vec::new(),
            (Backend::Queued(admitd), CapacityEvent::Tick { now }) => admitd.expire(now),
            (Backend::Queued(admitd), CapacityEvent::Shutdown { now }) => admitd.shutdown(now),
        };
        if let Some(m) = &self.metrics {
            m.events.add(events.len() as u64);
        }
        events
    }

    fn take_events(&mut self) -> Vec<Event> {
        let events = std::mem::take(&mut self.events);
        if let Some(m) = &self.metrics {
            m.events.add(events.len() as u64);
        }
        events
    }

    fn kairos(&self) -> &Kairos {
        match &self.backend {
            Backend::Direct(kairos) => kairos,
            Backend::Queued(admitd) => admitd.kairos(),
        }
    }

    fn queue_depth(&self) -> usize {
        match &self.backend {
            Backend::Direct(_) => 0,
            Backend::Queued(admitd) => admitd.queue_depth(),
        }
    }
}
