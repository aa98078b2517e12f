//! The [`ResourceService`] trait and its canonical [`KairosService`]
//! implementation.

use std::sync::Arc;

use kairos_admitd::{Admitd, Event, PriorityClass, Ticket};
use kairos_app::Application;
use kairos_core::{CacheStats, ElementActivity, Kairos, OccupancySnapshot};
use kairos_platform::AppId;
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

/// The canonical [`ResourceService`]: one `kairos-admitd` front-end over
/// a [`Kairos`] manager — queue-less (the paper's immediate
/// admit-or-reject) or queueing under an admission policy — under one
/// typed command/event surface.
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
    admitd: Admitd,
    /// Mint for requests that arrive without a ticket (this service is
    /// then the outermost layer); allocation order is submission order.
    next_ticket: u64,
    /// Events accumulated since the last [`ResourceService::take_events`].
    events: Vec<Event>,
    metrics: Option<SvcMetrics>,
}

impl KairosService {
    /// A service over `admitd`. Like every wrapper, the service reads the
    /// hub of the manager it wraps: over a lit one
    /// ([`Kairos::set_telemetry`]) the `kairos.svc.*` dispatch counters
    /// are registered, over a dark one nothing is.
    pub fn new(admitd: Admitd) -> Self {
        KairosService {
            metrics: SvcMetrics::new(admitd.telemetry()),
            admitd,
            next_ticket: 0,
            events: Vec::new(),
        }
    }

    /// The managed manager's observability hub (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        self.admitd.telemetry()
    }

    /// The admission front-end every request passes through.
    pub fn admitd(&self) -> &Admitd {
        &self.admitd
    }

    /// Performs one non-admission command under an already-allocated
    /// ticket, followed by whatever the front-end's drain admitted or
    /// dropped. Admissions are handled by the callers (they differ
    /// between single and batched submission).
    fn perform(&mut self, ticket: Ticket, at: u64, command: Command) {
        let drained = match command {
            Command::Admit { .. } => unreachable!("admissions are routed by the callers"),
            Command::Release { app } => {
                let (found, drained) = self.admitd.release(app, at);
                self.events.push(Event::Released { ticket, app, found });
                drained
            }
            Command::Migrate { app, avoid } => {
                let (result, drained) = self.admitd.migrate(app, &avoid, at);
                self.events.push(match result {
                    Ok(report) => Event::Migrated { ticket, app, moved_tasks: report.moved_tasks },
                    Err(error) => Event::MigrationFailed { ticket, app, error: Box::new(error) },
                });
                drained
            }
            Command::Defrag { max_moves } => {
                let (report, drained) = self.admitd.defrag(at, max_moves);
                self.events.push(Event::Defragged { ticket, moves: report.move_count() });
                drained
            }
            Command::InjectFault { element } => {
                let (evicted, drained) = self.admitd.fail_element(element, at);
                self.events.push(Event::ElementFailed { ticket, element, evicted });
                drained
            }
            Command::Repair { element } => {
                let drained = self.admitd.repair_element(element, at);
                self.events.push(Event::ElementRepaired { ticket, element });
                drained
            }
            Command::Rebalance { .. } => {
                // One manager owns the whole platform: there is no shard
                // boundary to move anything across. `kairos-cluster`'s
                // `ClusterService` implements the real sweep.
                self.events.push(Event::Rebalanced { ticket, moves: Vec::new() });
                Vec::new()
            }
        };
        self.events.extend(drained);
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
        self.admitd.probe_admit(app)
    }

    /// Admits `app` immediately under `class`, bypassing any admission
    /// queue — no ticket, no buffered events. The admission is registered
    /// in the front-end's preemption victim registry, so the import
    /// behaves exactly like a drained admission afterwards. This is the
    /// target-shard half of a cross-shard rebalance move; ordinary
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
        self.admitd.admit_direct(app, class)
    }

    /// Drops every cached operating point touching `elements` from the
    /// manager's operating-point cache
    /// ([`Kairos::invalidate_cached_points`]). The cross-shard
    /// rebalancer calls this on both sides of a completed move; a no-op
    /// without a configured cache.
    pub fn invalidate_cached_points(&mut self, elements: &[kairos_platform::ElementId]) -> u64 {
        self.admitd.kairos_mut().invalidate_cached_points(elements)
    }

    /// Releases `app` without emitting a `Released` event of its own,
    /// returning whether the id was admitted plus the events of the drain
    /// the freed capacity triggered (none without a queue). The
    /// source-shard half of a cross-shard rebalance move: the application
    /// is leaving this manager but not the system, so no caller-visible
    /// release must be reported — while waiters admitted into the freed
    /// room are real and are.
    pub fn release_now(&mut self, app: AppId, at: u64) -> (bool, Vec<Event>) {
        self.admitd.release(app, at)
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
            let (_, events) = self.admitd.submit_traced(app, class, at, ctx, Some(ticket));
            self.events.extend(events);
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
        let mut wave: Vec<(Application, PriorityClass, TraceContext, Option<Ticket>)> = Vec::new();
        let mut wave_at = u64::MAX;
        let mut rest: Vec<(Ticket, u64, Command)> = Vec::new();
        for Request { at, command, trace, ticket } in requests {
            let ticket = Ticket::resolve(ticket, &mut self.next_ticket);
            tickets.push(ticket);
            match command {
                Command::Admit { app, class } => {
                    // Roots are minted here, in submission order, so trace
                    // id allocation never depends on the door's order.
                    let ctx = self.telemetry().request_root(trace, at, &class);
                    // Batches model synchronized arrivals: the earliest
                    // request time stamps the whole wave.
                    wave_at = wave_at.min(at);
                    wave.push((app, class, ctx, Some(ticket)));
                }
                other => rest.push((ticket, at, other)),
            }
        }

        if !wave.is_empty() {
            let (_, events) = self.admitd.submit_batch_traced(wave, wave_at);
            self.events.extend(events);
        }

        for (ticket, at, command) in rest {
            self.perform(ticket, at, command);
        }
        tickets
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        let events = match event {
            CapacityEvent::Tick { now } => self.admitd.expire(now),
            CapacityEvent::Shutdown { now } => self.admitd.shutdown(now),
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
        self.admitd.kairos()
    }

    fn queue_depth(&self) -> usize {
        self.admitd.queue_depth()
    }
}
