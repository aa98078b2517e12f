//! # kairos
//!
//! Run-time spatial resource management for real-time applications on
//! heterogeneous MPSoCs — a complete Rust reproduction of *ter Braak,
//! Hölzenspies, Kuper, Hurink, Smit (DATE 2010)*.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! * [`platform`] — MPSoC platform model (elements, NoC links, resource
//!   vectors, the CRISP topology, fragmentation metrics, fault injection);
//! * [`app`] — application model (task graphs, implementations, channels,
//!   constraints, the Kairos binary container format);
//! * [`appgen`] — TGFF-like workload generator, the six DATE'10 datasets and
//!   the 53-task beamforming case study;
//! * [`sdf`] — SDF graphs and self-timed state-space throughput analysis;
//! * [`core`] — the four-phase resource manager itself: binding, mapping
//!   (the paper's contribution), routing, validation, and
//!   its decision store: the design-time operating-point cache
//!   (shape-keyed, state-stamped pipeline decisions replayed in O(claims)
//!   on re-admission of a known application shape and platform state;
//!   the state stamp is its one guard) and the probe-to-admission
//!   hand-off — either changes which work runs, never what is decided —
//!   and relocation: make-before-break live migration, minimal
//!   preemption victim plans and defragmenting compaction;
//! * [`admitd`] — the resource service: one typed command/event surface
//!   (`ResourceService`) over one manager, implemented by the `Admitd`
//!   front-end, with operations as data (`Command`), one ticket mint and
//!   one correlated `Event` stream, first-class batched submission of
//!   arrival waves and construction-time policy injection
//!   (`ServiceBuilder`); under an admission policy its door adds bounded
//!   per-class queues with backpressure, deterministic capacity-event
//!   retry with exponential backoff, timeouts, batch drains and the
//!   preemption hook that evicts or migrates lower-priority work for
//!   blocked criticals;
//! * [`cluster`] — the sharded deployment: the platform partitioned into
//!   contiguous capacity-balanced region shards (`RegionMap`), one
//!   manager per shard behind the same `ResourceService` surface
//!   (`ClusterService`), what-if admission probes of the shards in
//!   shard-id order (as many as the placement policy compares), one
//!   closed `Placement` (first-fit / least-loaded) and cross-shard
//!   rebalancing sweeps;
//! * [`gateway`] — the queueing front-end: a decorator over any
//!   `ResourceService` that streams admissions through per-shard bounded
//!   request lanes in a deterministic single-threaded ticket-ordered
//!   queue, keeps tens of thousands of requests in flight, and stays
//!   byte-identical to driving the service directly under the default
//!   knobs;
//! * [`sim`] — a deterministic discrete-event scenario engine driving the
//!   service through long-running multi-application workloads with
//!   arrivals (lone or in batched waves), departures and element faults,
//!   with or without the admission queue, and optionally metering energy
//!   against per-class busy/idle power rates (`Scenario::power`);
//! * [`telemetry`] — the unified observability layer (see
//!   `docs/OBSERVABILITY.md`): a registry of named counters, gauges and
//!   fixed-bucket latency histograms with atomic hot-path recording and
//!   deterministic snapshot/render (Prometheus-style text exposition,
//!   byte-stable JSON embedding in sim reports), and request-scoped
//!   causal traces with Chrome-trace export. Disabled by
//!   default everywhere; a disabled handle costs one pointer test per
//!   instrumentation site and records nothing.
//!
//! ## Quickstart
//!
//! ```
//! use kairos::core::{Kairos, KairosConfig};
//! use kairos::platform::topology;
//! use kairos::appgen::{AppGenerator, GeneratorConfig};
//!
//! let mut manager = Kairos::new(topology::crisp(), KairosConfig::default());
//! let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
//! let app = generator.generate("demo");
//! match manager.admit(&app) {
//!     Ok(report) => println!("admitted {} in {}", report.app_id, report.timings),
//!     Err(failure) => println!("rejected in {} phase: {}", failure.phase(), failure),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kairos_admitd as admitd;
pub use kairos_app as app;
pub use kairos_appgen as appgen;
pub use kairos_cluster as cluster;
pub use kairos_core as core;
pub use kairos_gateway as gateway;
pub use kairos_platform as platform;
pub use kairos_sdf as sdf;
pub use kairos_sim as sim;
pub use kairos_telemetry as telemetry;

/// The service surface's former crate path, kept only for the frozen
/// benchmark's imports: the surface now lives in [`admitd`].
pub mod svc {
    pub use kairos_admitd::{
        CapacityEvent, Command, Event, RejectCause, Request, ResourceService, ServiceBuilder,
        Ticket,
    };
}

/// The operating-point cache's former crate path, kept for the frozen
/// benchmark's imports: the keyed tier's switch and counters, and the two
/// halves of its key.
pub mod opcache {
    pub use kairos_core::{CacheConfig, CacheStats};

    /// The shape half: `app.shape_hash()`, hashed when `app` was built.
    pub fn shape_of(app: &kairos_app::Application) -> u128 {
        app.shape_hash()
    }

    /// The state half, from scratch: `platform.state_stamp_from_scratch()`.
    pub fn stamp_of(platform: &kairos_platform::Platform) -> u128 {
        platform.state_stamp_from_scratch()
    }
}
