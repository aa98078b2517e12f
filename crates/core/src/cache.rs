//! Replayable pipeline decisions, the two carriers that bring one back to
//! the manager that computed it, and [`replay_point`], the one writer every
//! admission ends in — cold run, cache hit and probe hand-off alike. The
//! phases decide over `&Platform` and write nothing, so a refusal from any
//! source touches nothing.
//!
//! [`CachedDecision`] is the complete outcome of one `run_phases` call —
//! a [`CachedPoint`] (layout, and the *seats*: the placement's claims in
//! the order the mapper made them), or the exact refusal. A decision is a
//! function of the application's shape and of what the pipeline *reads*
//! of the platform — free vectors, failure marks, which elements are used,
//! link occupancy — and of no `AppId`: the phases tell the request's own
//! tasks from everyone else's by the placement they are building
//! (`CostTables`, the debit overlay). So replaying one is sound from any
//! state that agrees on those reads, and lands on the platform a cold run
//! from that state would have produced. A carrier changes *which work
//! runs*, never *what is decided*. Each carrier proves the state its own
//! way:
//!
//! * the **operating-point cache** (`kairos-opcache`, when
//!   `KairosConfig::cache` is set) keys decisions by
//!   `(ShapeKey, StateStamp)` — a digest of exactly that admission view,
//!   not of who the residents are — so a decision can come back any
//!   number of admissions later, and under other tenants, as long as the
//!   same resources are free in the same places. Neither half is computed
//!   per lookup: the shape is a field the application hashed when it was
//!   built, and the stamp is a sum of per-record digests the platform
//!   maintains, re-digesting at a lookup only the records mutated since
//!   the previous one (only `Platform::restore` voids all of them).
//!   `Kairos::decide` asserts it equal to the from-scratch
//!   `kairos_opcache::stamp_of` on every lookup in debug builds;
//! * the **probe hand-off** (the `handoff` field of an uncached
//!   `Kairos`) keeps the last `probe_admit`'s decision beside the
//!   platform's `state_epoch`, read after the probe — a refusal writes
//!   nothing, rollback restores the bytes exactly and every later
//!   mutation bumps the epoch, so an equal epoch proves the same state
//!   without digesting anything. It serves the one admission that
//!   follows the probe.
//!
//! Neither key covers the cost weights: `Kairos::set_weights` voids both.

use kairos_opcache::OperatingPoint;
use kairos_platform::{AppId, ElementId, Occupant, Platform, ResourceVector};

use crate::error::AllocationError;
use crate::layout::{ExecutionLayout, Route};
use crate::validation::ValidationReport;

/// One claim of a decided placement: `(element, task, claimed)`.
pub(crate) type Seat = (ElementId, u32, ResourceVector);

/// One cached pipeline decision: either a replayable admission or the
/// exact refusal the pipeline produced. Refusals are cached too —
/// re-asking a saturated platform the same question is the common case
/// in arrival storms, and the answer is a pure function of the key.
#[derive(Debug, Clone)]
pub(crate) enum CachedDecision {
    /// The pipeline admitted the shape; the point replays its claims.
    Admit(CachedPoint),
    /// The pipeline refused the shape with this phase-tagged error.
    Refuse(AllocationError),
}

/// A replayable operating point.
#[derive(Debug, Clone)]
pub(crate) struct CachedPoint {
    /// The layout the pipeline computed.
    pub layout: ExecutionLayout,
    /// The placement's claims in placing order, without an app id: each
    /// replay seats them under its own.
    pub seats: Vec<Seat>,
    /// The validation report of the cold run, when validation ran.
    pub validation: Option<ValidationReport>,
}

impl OperatingPoint for CachedDecision {
    fn uses_element(&self, element: ElementId) -> bool {
        match self {
            CachedDecision::Admit(point) => {
                point.layout.placement.iter().any(|(_, e)| e == element)
            }
            // A refusal claims nothing; element-targeted invalidation
            // never needs to drop it (the state stamp already keys it).
            CachedDecision::Refuse(_) => false,
        }
    }
}

/// The one writer: claims `seats` under `app` in order — so each element
/// seats the occupants behind its earlier residents as a cold run would —
/// then one virtual channel of each route's bandwidth (`bandwidths`,
/// aligned with `routes`) on its links, in one nested transaction that a
/// failed claim rolls back whole (`false`). `app` must be on no element
/// yet: an `(app, task)` pair names one occupant (debug-asserted).
pub(crate) fn replay_point(
    platform: &mut Platform,
    app: AppId,
    seats: &[Seat],
    routes: &[Route],
    bandwidths: impl IntoIterator<Item = u64>,
) -> bool {
    debug_assert!(
        seats.is_empty()
            || platform.element_ids().flat_map(|e| platform.residents(e)).all(|o| o.app != app),
        "{app} is already resident: an admission's claims need an id no occupant carries"
    );
    platform.begin_txn();
    let seated = seats.iter().all(|&(element, task, claimed)| {
        platform.claim(element, Occupant { app, task, claimed }).is_ok()
    });
    let written = seated
        && routes.iter().zip(bandwidths).all(|(route, bandwidth)| {
            route.links().iter().all(|&link| platform.claim_link(link, bandwidth).is_ok())
        });
    if written {
        platform.commit_txn();
    } else {
        platform.rollback_txn();
    }
    written
}
