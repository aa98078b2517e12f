//! Replayable pipeline decisions, and the two carriers that bring one
//! back to the manager that computed it.
//!
//! [`CachedDecision`] is the complete outcome of one `run_phases` call —
//! a [`CachedPoint`] whose recorded claims reproduce the cold run's
//! platform mutations, or the exact refusal. A decision is a function of
//! the application's shape and of what the pipeline *reads* of the
//! platform — free vectors, failure marks, which elements are used, link
//! occupancy — so replaying one is sound from any state that agrees on
//! those, and lands on the platform a cold run from that state would
//! have produced. A carrier changes *which work runs*, never *what is
//! decided*. Each carrier proves the state its own way:
//!
//! * the **operating-point cache** (`kairos-opcache`, when
//!   `KairosConfig::cache` is set) keys decisions by
//!   `(ShapeKey, StateStamp)` — a digest of exactly that admission view,
//!   not of who the residents are — so a decision can come back any
//!   number of admissions later, and under other tenants, as long as the
//!   same resources are free in the same places. What makes leaving
//!   identity out sound: nothing on the admission path reads it. The
//!   mapper's cost function asks the platform only whether a neighbour
//!   is used (`Platform::is_used`) and learns which used neighbours hold
//!   its own tasks or their peers from the placement it is building
//!   (`CostTables`), never from occupant ids — exact because
//!   `Kairos::place` and `map_application` are always handed an id no
//!   resident carries (asserted in debug builds), so everything resident
//!   before a placement starts is someone else's.
//!   Neither half is computed per lookup: the shape is a field the
//!   application hashed when it was built, and the stamp is a sum of
//!   per-record digests the platform maintains, re-digesting at a lookup
//!   only the records mutated since the previous one (a probe's
//!   claim-and-rollback dirties a handful and leaves the sum where it
//!   was; only `Platform::restore` voids all of them). `Kairos::place`
//!   asserts the maintained stamp equal to the from-scratch
//!   `kairos_opcache::stamp_of` on every lookup in debug builds;
//! * the **probe hand-off** (the `handoff` field of an uncached
//!   `Kairos`) keeps the last `probe_admit`'s decision beside the
//!   platform's `state_epoch`, read after the probe's rollback —
//!   rollback restores the bytes exactly and every later mutation bumps
//!   the epoch, so an equal epoch proves the same state without
//!   digesting anything, not even the dirty records: an uncached
//!   manager never stamps, so its platform never builds the digest
//!   tables. It serves the one admission that follows the probe.
//!
//! Neither key covers the cost weights: `Kairos::set_weights` voids both.

use kairos_opcache::OperatingPoint;
use kairos_platform::{ElementId, ResourceVector};

use crate::error::AllocationError;
use crate::layout::ExecutionLayout;
use crate::validation::ValidationReport;

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

/// A replayable operating point: the execution layout plus everything
/// needed to reproduce the cold run's platform mutations claim for claim.
#[derive(Debug, Clone)]
pub(crate) struct CachedPoint {
    /// The layout the pipeline computed.
    pub layout: ExecutionLayout,
    /// The admitted application's final per-element claims, captured in
    /// resident order after the cold run: `(element, task, claimed)`.
    /// Replaying claims in this order seats the occupants behind the
    /// element's earlier residents in the order the cold pipeline left
    /// them in. The app id is *not* stored — seats relabel to whatever id
    /// the warm admission uses.
    pub seats: Vec<(ElementId, u32, ResourceVector)>,
    /// Channel bandwidths aligned with `layout.routes`, for link claims.
    pub bandwidths: Vec<u64>,
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
