//! The [`ResourceService`] trait — implemented by [`Admitd`](crate::Admitd)
//! over one manager, and by `kairos-cluster` and `kairos-gateway` over
//! many — and the front-end's `kairos.svc.*` command counters.

use std::sync::Arc;

use kairos_core::{CacheStats, ElementActivity, Kairos, OccupancySnapshot};
use kairos_telemetry::{Counter, Telemetry};

use crate::command::{CapacityEvent, Command, Request};
use crate::event::Event;
use crate::queue::Ticket;

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
/// Implementations must be [`fmt::Debug`](std::fmt::Debug) so callers
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
    /// service, in global-element-id order — the raw signal behind the
    /// simulator's energy accounting. Multi-manager services translate
    /// shard-local element ids to global ones.
    fn element_activity(&self) -> Vec<ElementActivity> {
        self.kairos().element_activity()
    }
}

/// Pre-resolved registry handles for the service surface: one counter per
/// command kind dispatched, one for batched waves, one for events handed
/// back to the consumer.
#[derive(Debug, Clone)]
pub(crate) struct SvcMetrics {
    commands: Arc<Counter>,
    admit: Arc<Counter>,
    release: Arc<Counter>,
    migrate: Arc<Counter>,
    defrag: Arc<Counter>,
    inject_fault: Arc<Counter>,
    repair: Arc<Counter>,
    rebalance: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) events: Arc<Counter>,
}

impl SvcMetrics {
    pub(crate) fn new(telemetry: &Telemetry) -> Option<Self> {
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

    pub(crate) fn note_command(&self, command: &Command) {
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
