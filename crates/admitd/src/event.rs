//! The workspace's one event vocabulary.
//!
//! Everything a request to the service caused lands in one ordered
//! [`Event`] buffer: a command's own result (`Released`,
//! `ElementFailed`, …) first, then the queue transitions it triggered —
//! an outcome is constructed once, where it is decided, and outer layers
//! pass it on untouched. Every event carries a
//! [`Ticket`] correlating it to the request that caused it — or, for
//! relocation events, to the blocked request they were performed for —
//! and admitted applications are additionally correlated by their stable
//! [`AppId`].

use kairos_app::Application;
use kairos_core::{AdmissionReport, AllocationError, MigrationError, Phase};
use kairos_platform::{AppId, ElementId};

use crate::queue::{PriorityClass, Ticket};

/// Why a request left the service without being admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// Its priority class's queue was at capacity (backpressure).
    QueueFull,
    /// A front-end built without a policy ran the pipeline once at the
    /// door and `phase` rejected it — the paper's immediate-rejection
    /// behaviour.
    Refused {
        /// The pipeline phase that rejected the request.
        phase: Phase,
    },
    /// The failure can never clear up
    /// ([`AllocationError::is_permanent`]); `phase` rejected it
    /// permanently.
    Permanent {
        /// The pipeline phase that rejected the request.
        phase: Phase,
    },
    /// The request waited past its deadline.
    Timeout,
    /// The retry budget ran out; `phase` rejected the final attempt.
    RetriesExhausted {
        /// The pipeline phase that rejected the final attempt.
        phase: Phase,
    },
    /// The service shut down with the request still queued.
    Shutdown,
}

/// One observable state change of the service — the single stream every
/// driver consumes instead of per-crate event and report types.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An admission request entered its class queue.
    Queued {
        /// The request's service ticket.
        ticket: Ticket,
        /// Its priority class.
        class: PriorityClass,
        /// Total queue depth right after the enqueue.
        depth: usize,
    },
    /// An admission request was admitted (possibly after waiting).
    Admitted {
        /// The request's service ticket.
        ticket: Ticket,
        /// Its priority class.
        class: PriorityClass,
        /// The admitted application, returned for the caller's lifetime
        /// bookkeeping. Boxed to keep the enum small.
        app: Box<Application>,
        /// The pipeline's admission report (stable [`AppId`], layout,
        /// timings), boxed for the same reason. On a multi-manager
        /// service (a `kairos-cluster` shard fleet) the layout's element
        /// ids are in the *admitting manager's own* coordinate space —
        /// translate them through the cluster's region map before
        /// feeding them back into element-addressed commands such as
        /// `Command::Migrate`.
        report: Box<AdmissionReport>,
        /// Ticks spent queued (`0` for immediate admissions).
        waited: u64,
        /// Total admission attempts, the successful one included.
        attempts: u32,
    },
    /// An eligible attempt failed transiently; the request stays queued
    /// and backs off.
    AttemptFailed {
        /// The request's service ticket.
        ticket: Ticket,
        /// Its priority class.
        class: PriorityClass,
        /// The failed attempt's number (1-based).
        attempt: u32,
        /// The pipeline phase that rejected the attempt.
        phase: Phase,
        /// The rejecting phase's own error, as the pipeline built it —
        /// what the attempt was short of. Element and link ids are in the
        /// admitting manager's own coordinate space, as in
        /// [`Event::Admitted`]'s layout.
        reason: Box<AllocationError>,
    },
    /// An admission request left the service unadmitted.
    Rejected {
        /// The request's service ticket.
        ticket: Ticket,
        /// Its priority class.
        class: PriorityClass,
        /// Why it was rejected.
        cause: RejectCause,
        /// The rejecting phase's own error, exactly when `cause` carries a
        /// phase (`Refused`, `Permanent`, `RetriesExhausted`: the final
        /// attempt's). Ids are in the admitting manager's own coordinate
        /// space, as in [`Event::AttemptFailed`].
        reason: Option<Box<AllocationError>>,
        /// Ticks spent queued (`0` when it never entered the queue).
        waited: u64,
    },
    /// A running application was evicted to make room for a blocked
    /// higher-priority request. The victim is preempted, not dropped: it
    /// re-enters the queue under the ticket `requeued_as` — always
    /// [`Ticket::requeue_of`] the victim, so it needs no bookkeeping to
    /// correlate — carrying its previously accumulated wait (a `Queued`
    /// for that ticket follows, or a `Rejected { QueueFull }` when its
    /// class queue is full).
    Preempted {
        /// The evicted application.
        victim: AppId,
        /// The victim's priority class (strictly lower than the
        /// preempting request's).
        class: PriorityClass,
        /// The ticket the victim's requeue runs under.
        requeued_as: Ticket,
        /// The blocked request the eviction was performed for.
        by: Ticket,
    },
    /// An application was live-migrated: by a
    /// `Command::Migrate`, or by a preemption
    /// under the `Migrate` policy (a defrag sweep's internal moves
    /// surface in [`Event::Defragged`] counts instead). Its id is stable
    /// across the move.
    Migrated {
        /// The command's ticket — or, for preemption-driven migration,
        /// the blocked request the move was performed for.
        ticket: Ticket,
        /// The migrated application.
        app: AppId,
        /// Tasks whose hosting element changed.
        moved_tasks: usize,
    },
    /// A `Command::Migrate` found no
    /// acceptable move; the platform is exactly as it was.
    MigrationFailed {
        /// The command's ticket.
        ticket: Ticket,
        /// The application that stayed put.
        app: AppId,
        /// Why the move failed, boxed to keep the enum small.
        error: Box<MigrationError>,
    },
    /// A `Command::Release` completed.
    Released {
        /// The command's ticket.
        ticket: Ticket,
        /// The released application.
        app: AppId,
        /// Whether the id was actually admitted (`false` for unknown or
        /// already-released ids — nothing changed then).
        found: bool,
    },
    /// A `Command::InjectFault` completed.
    ElementFailed {
        /// The command's ticket.
        ticket: Ticket,
        /// The failed element.
        element: ElementId,
        /// Applications evicted by the failure, in id order — candidates
        /// for the caller's re-submission policy.
        evicted: Vec<AppId>,
    },
    /// A `Command::Repair` completed.
    ElementRepaired {
        /// The command's ticket.
        ticket: Ticket,
        /// The repaired element.
        element: ElementId,
    },
    /// A `Command::Defrag` sweep completed.
    Defragged {
        /// The command's ticket.
        ticket: Ticket,
        /// Applications the sweep migrated.
        moves: usize,
    },
    /// A `Command::Rebalance` sweep
    /// completed. Each move relocated one running application across a
    /// shard boundary by evict-and-readmit: it keeps running, but under a
    /// fresh id minted by its new shard manager (ids encode their home
    /// shard, so they cannot survive the crossing). Callers tracking
    /// applications by id must re-key `from` to `to`.
    Rebalanced {
        /// The command's ticket.
        ticket: Ticket,
        /// Completed moves, in sweep order: `(old id, new id)`.
        moves: Vec<(AppId, AppId)>,
    },
}

impl Event {
    /// The service ticket the event concerns: for the relocation events
    /// [`Event::Preempted`] and [`Event::Migrated`] that is the victim's
    /// requeue ticket and the blocked requester respectively.
    pub fn ticket(&self) -> Ticket {
        match *self {
            Event::Queued { ticket, .. }
            | Event::Admitted { ticket, .. }
            | Event::AttemptFailed { ticket, .. }
            | Event::Rejected { ticket, .. }
            | Event::Migrated { ticket, .. }
            | Event::MigrationFailed { ticket, .. }
            | Event::Released { ticket, .. }
            | Event::ElementFailed { ticket, .. }
            | Event::ElementRepaired { ticket, .. }
            | Event::Defragged { ticket, .. }
            | Event::Rebalanced { ticket, .. } => ticket,
            Event::Preempted { requeued_as, .. } => requeued_as,
        }
    }
}
