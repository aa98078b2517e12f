//! # kairos-core
//!
//! The Kairos run-time spatial resource manager — a full reimplementation of
//! *ter Braak, Hölzenspies, Kuper, Hurink, Smit: "Run-time Spatial Resource
//! Management for Real-Time Applications on Heterogeneous MPSoCs", DATE 2010*.
//!
//! Resource allocation is decomposed into four phases (paper Fig. 1), each a
//! module of this crate:
//!
//! 1. **[`bind`]** — select an implementation per task (regret-ordered,
//!    platform-feasibility-checked);
//! 2. **[`map_application`]** — the paper's contribution: incremental,
//!    topology-matching task placement via neighborhood decomposition,
//!    directed BFS element search and a GAP/knapsack assignment core, driven
//!    by a weighted communication + fragmentation cost function;
//! 3. **[`route_channels`]** — per-channel virtual-circuit reservation over
//!    NoC links (BFS, with a Dijkstra variant for ablation);
//! 4. **[`validate`]** — SDF throughput analysis of the resulting execution
//!    layout against the application's constraints.
//!
//! [`Kairos`] packages the pipeline as a resource manager — the phases
//! decide, one writer commits — with release, timing and fault handling,
//! and relocation beyond the paper: live migration, minimal preemption
//! plans ([`Kairos::select_victims`]) and defragmenting compaction
//! ([`Kairos::compact`]).
//!
//! ## Example
//!
//! ```
//! use kairos_core::{Kairos, KairosConfig, CostPolicy};
//! use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
//! use kairos_platform::{topology, ElementKind, ResourceVector};
//!
//! let mut kairos = Kairos::new(topology::crisp(), KairosConfig::with_policy(CostPolicy::Both));
//! let dsp = Implementation::new(ElementKind::Dsp, ResourceVector::new(600, 32, 0, 0), 120, 5);
//! let mut b = ApplicationBuilder::new("filter");
//! let src = b.add_task("in", TaskRole::Input, vec![dsp]);
//! let mid = b.add_task("fir", TaskRole::Internal, vec![dsp]);
//! let dst = b.add_task("out", TaskRole::Output, vec![dsp]);
//! b.add_channel(src, mid, 120, 1);
//! b.add_channel(mid, dst, 120, 1);
//! let app = b.build()?;
//!
//! let report = kairos.admit(&app)?;
//! println!("admitted as {} in {}", report.app_id, report.timings);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod binding;
mod cache;
mod error;
mod layout;
mod manager;
mod mapping;
mod metrics;
mod routing;
mod validation;
mod workspace;

pub use binding::bind;
pub use cache::{CacheConfig, CacheStats};
pub use error::{
    AllocationError, BindingError, MappingError, Phase, RoutingError, ValidationError,
};
pub use layout::{Binding, ExecutionLayout, Placement, Route};
pub use manager::{
    AdmissionFailure, AdmissionProbe, AdmissionReport, CompactMove, CompactReport, Kairos,
    KairosAuditError, KairosCheckpoint, KairosConfig, MigrationError, MigrationReport, VictimPlan,
    DURATION_NS_BOUNDS,
};
pub use mapping::{
    map_application, CostContext, CostPolicy, CostTables, CostWeights, ElementSearch, GapState,
    KnapsackItem, KnapsackSolver, MapperConfig, MappingReport, DISTANCE_MISS_PENALTY,
    START_RETRIES,
};
pub use metrics::{
    ElementActivity, OccupancySnapshot, PhaseClock, PhaseStart, PhaseTimings, ProbedOccupancy,
};
pub use routing::{release_routes, route_channels, RouteAlgorithm};
pub use validation::{layout_to_sdf, validate, ValidationConfig, ValidationReport};

/// Compile-time thread-safety pin: nothing in the product spawns a
/// thread, but a service stack's owner may sit on any (drivers box
/// `dyn ResourceService + Send`), so `Kairos` (and everything it owns)
/// must stay `Send + Sync`. A field change that silently dropped either
/// would break them — fail the build here instead.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Kairos>();
const _: () = _assert_send_sync::<AdmissionProbe>();
