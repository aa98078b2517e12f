//! # kairos-reloc
//!
//! The relocation planner: the layer that turns the Kairos admitter into a
//! manager of *running* applications.
//!
//! The paper's run-time manager only ever admits or rejects — once a
//! mapping is claimed it is frozen until the application leaves, so
//! high-criticality arrivals starve behind fragmented low-priority
//! occupancy. This crate closes that gap with three mechanisms, all of
//! which decide before anything is written — on the manager's what-if copy
//! of the platform — so no operation ever leaves an application
//! half-moved:
//!
//! * **Preemption planning** ([`select_victims`]) — given a blocked
//!   request and an ordered list of preemptible running applications, find
//!   a victim set whose eviction provably unblocks the request
//!   ([`Kairos::probe_admit_without`] releases the candidates on the
//!   what-if copy and runs the full pipeline against what is left; the
//!   live platform is not written), *minimal* with respect to
//!   single-victim removal: dropping any one victim from the set leaves
//!   the request blocked.
//! * **Live migration** (re-exported [`Kairos::migrate`] /
//!   [`Kairos::migrate_if`]) — re-bind a running application to a
//!   different tile/route set via a make-before-break move (decide and
//!   move on the what-if copy, then release old → write new on the live
//!   platform) instead of evicting and re-admitting it. The application's
//!   id is stable across the move, and a failed or declined move writes
//!   nothing.
//! * **Defragmentation** ([`compact`]) — a sweep that migrates admitted
//!   applications one at a time, keeping only moves that strictly reduce
//!   external resource fragmentation (the paper's §III-A metric, computed
//!   by `kairos_platform::external_fragmentation`).
//!
//! The `kairos-admitd` front-end drives [`select_victims`] from its
//! preemption hook (blocked critical requests, `QueueFull` refusals) and
//! re-queues evicted victims as retryable requests; the `kairos-sim`
//! engine drives [`compact`] from its periodic defrag event. Everything
//! here is deterministic: identical inputs produce identical plans.
//!
//! ## Example
//!
//! ```
//! use kairos_core::{Kairos, KairosConfig};
//! use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
//! use kairos_platform::{topology, ElementKind, ResourceVector};
//!
//! let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
//! let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(900, 16, 0, 0), 50, 1);
//! let mut b = ApplicationBuilder::new("resident");
//! b.add_task("t", TaskRole::Internal, vec![imp]);
//! let resident = b.build()?;
//! let mut ids = Vec::new();
//! for _ in 0..4 {
//!     ids.push(kairos.admit(&resident)?.app_id); // fill all four DSPs
//! }
//!
//! // A blocked request: nothing fits until someone is preempted.
//! let plan = kairos_reloc::select_victims(&mut kairos, &resident, &ids, 4)
//!     .expect("one eviction suffices");
//! assert_eq!(plan.victims.len(), 1, "minimal victim set");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod compact;
mod metrics;
mod victim;

pub use compact::{compact, compact_with, CompactMove, CompactReport};
pub use metrics::RelocMetrics;
pub use victim::{select_victims, select_victims_with, VictimPlan};

// The migration primitive itself lives in `kairos-core` (it needs the
// manager's internals); re-export it so relocation users have one import.
pub use kairos_core::{Kairos, MigrationError, MigrationReport};
