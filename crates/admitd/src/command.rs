//! The operation set of the service, expressed as data.
//!
//! Everything a caller can ask the run-time to do is a [`Command`]
//! variant; a [`Request`] stamps a command with its virtual submission
//! time. Making operations data (rather than one method per operation) is
//! what makes batches first-class: a `Vec<Request>` *is* an arrival wave,
//! and [`ResourceService::submit_batch`](crate::ResourceService::submit_batch)
//! can sort and group it.

use kairos_app::Application;
use kairos_platform::{AppId, ElementId};
use kairos_telemetry::TraceContext;

use crate::queue::{PriorityClass, Ticket};

/// One operation against the managed platform.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Admit `app` under priority `class`: queued, retried and — for
    /// blocked criticals under an enabled preemption policy — relocated
    /// for. On a service without an admission queue the command admits
    /// or rejects immediately (the paper's behaviour).
    Admit {
        /// The application requesting admission.
        app: Application,
        /// Its priority class (on a queue-less service it only orders a
        /// batched wave and labels events).
        class: PriorityClass,
    },
    /// Release the admitted application `app`, freeing all its element
    /// and link claims. A successful release is a capacity event: queued
    /// waiters are drained in priority order.
    Release {
        /// The application to release.
        app: AppId,
    },
    /// Live-migrate the admitted application `app` off the `avoid`
    /// elements (make-before-break; its identity is stable across the
    /// move). A completed migration is a capacity event.
    Migrate {
        /// The application to move.
        app: AppId,
        /// Elements its new placement must not use, in the *service's*
        /// element id space: global platform ids on a sharded service
        /// (which translates them for the owning shard) — not the
        /// shard-local ids found inside an
        /// [`Event::Admitted`](crate::Event::Admitted) report there.
        /// Ids outside the platform are skipped.
        avoid: Vec<ElementId>,
    },
    /// Run one defragmenting compaction sweep *per managed platform*,
    /// live-migrating up to `max_moves` applications on each; only moves
    /// that strictly reduce external fragmentation (paper §III-A) are
    /// kept. A sharded service compacts every shard (so one sweep may
    /// report up to `shards × max_moves` moves in total); relocation
    /// never crosses a shard boundary here — that is
    /// [`Command::Rebalance`]'s job. A sweep that moved anything is a
    /// capacity event.
    Defrag {
        /// Most applications the sweep may move per managed platform.
        max_moves: usize,
    },
    /// Mark `element` failed, evicting every application placed on it.
    /// The evicted ids come back in the resulting
    /// [`Event::ElementFailed`](crate::Event::ElementFailed) for the
    /// caller's re-submission policy; a non-empty eviction is a capacity
    /// event. An already-failed element, or an id outside the platform,
    /// changes nothing and evicts no one.
    InjectFault {
        /// The element to fail.
        element: ElementId,
    },
    /// Clear the failure mark on `element`. Repairing an actually-failed
    /// element is a capacity event; repairing a healthy one (or an id
    /// outside the platform) is a no-op that must not burn anyone's retry
    /// budget.
    Repair {
        /// The element to repair.
        element: ElementId,
    },
    /// Run one load-rebalancing sweep, moving up to `max_moves` running
    /// applications *between shard managers* (evict-and-readmit across the
    /// shard boundary, two-phase with rollback — the moved application
    /// gets a fresh id on its new shard, reported in
    /// [`Event::Rebalanced`](crate::Event::Rebalanced)). On a
    /// single-manager service there is no boundary to move across, so the
    /// sweep completes with zero moves.
    Rebalance {
        /// Most applications one sweep may move across shards.
        max_moves: usize,
    },
}

/// A [`Command`] stamped with its virtual submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Virtual time of the submission (the service never consults a wall
    /// clock; time is whatever the driver says it is).
    pub at: u64,
    /// The operation to perform.
    pub command: Command,
    /// The request trace this command belongs to.
    /// [`TraceContext::NONE`] (the constructors' default) means "not yet
    /// traced": when the receiving service has tracing enabled, the
    /// *outermost* service mints a root trace for admissions and
    /// propagates the context down the stack by value. An already-set
    /// context is honoured as-is (a sharded service forwards to its
    /// shards this way).
    pub trace: TraceContext,
    /// The ticket this request runs under. `None` (the constructors'
    /// default) means "not yet identified": the *outermost* service mints
    /// one and propagates it down the stack by value. An already-set
    /// ticket is honoured verbatim and returned (a gateway forwards to
    /// its cluster, and a cluster to its shards, this way), so every
    /// layer names the request identically and none translates.
    pub ticket: Option<Ticket>,
}

impl Request {
    /// A request performing `command` at virtual time `at`.
    pub fn new(at: u64, command: Command) -> Self {
        Request { at, command, trace: TraceContext::NONE, ticket: None }
    }

    /// Shorthand for an admission request.
    pub fn admit(at: u64, app: Application, class: PriorityClass) -> Self {
        Request::new(at, Command::Admit { app, class })
    }

    /// Shorthand for a release request.
    pub fn release(at: u64, app: AppId) -> Self {
        Request::new(at, Command::Release { app })
    }

    /// The same request carrying `trace` — how an outer service stamps
    /// its minted context onto the request it forwards inward.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }

    /// The same request running under `ticket` — how an outer service
    /// stamps the ticket it minted onto the request it forwards inward.
    #[must_use]
    pub fn with_ticket(mut self, ticket: Ticket) -> Self {
        self.ticket = Some(ticket);
        self
    }
}

/// A clock- or lifecycle-driven nudge to the service, distinct from a
/// [`Command`]: nothing is being asked for, but queued work may reach
/// decisions — which [`pump`](crate::ResourceService::pump) returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityEvent {
    /// Virtual time advanced to `now`: requests that waited past their
    /// deadline are dropped.
    Tick {
        /// The new virtual time.
        now: u64,
    },
    /// The service is shutting down at `now`: everything still queued is
    /// flushed with [`RejectCause::Shutdown`](crate::RejectCause::Shutdown)
    /// so every submission reaches exactly one terminal outcome.
    Shutdown {
        /// The virtual shutdown time.
        now: u64,
    },
}
