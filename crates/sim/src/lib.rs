//! # kairos-sim
//!
//! A deterministic discrete-event scenario engine for the Kairos resource
//! manager. The paper's entire point is *run-time* management —
//! applications arrive, leave, and elements fail while the manager keeps
//! the platform packed — and this crate turns the one-shot admission
//! pipeline into that long-running system: timed event traces of
//! application arrivals (drawn from the `kairos-appgen` datasets),
//! exponential lifetimes, scripted element faults with optional recovery,
//! and periodic occupancy sampling.
//!
//! * [`Scenario`] — a seeded, fully declarative experiment description,
//!   with a built-in catalog of twenty-two named scenarios
//!   ([`Scenario::catalog`], documented in `docs/SCENARIOS.md`):
//!   `steady-churn`, `bursty-arrivals`, `saturation`, `hotspot-failures`,
//!   `mixed-datasets`, three that exercise the `kairos-admitd` admission
//!   front-end — `priority-inversion`, `overload-backpressure`,
//!   `retry-storm` — three that exercise the manager's relocation
//!   planners — `critical-preempt`, `migrate-vs-evict`, `defrag-sweep`
//!   — `batch-arrival-wave`, which admits synchronized arrival waves
//!   through the batched service path, two that exercise the
//!   `kairos-cluster` sharded deployment ([`ClusterSpec`]) —
//!   `sharded-arrival-storm` (admission probes fanned out over four region
//!   shards) and `cross-shard-rebalance` (periodic evict-and-readmit
//!   sweeps against a skewed first-fit fill, [`ClusterSpec::rebalance`]) —
//!   `telemetry-probe-latency`, which runs a sharded preempting workload
//!   with [`Scenario::telemetry`] recording enabled (see
//!   `docs/OBSERVABILITY.md`), `traced-preemption-storm`, which runs
//!   with [`Scenario::trace`] causal tracing enabled, and two that
//!   exercise the operating-point cache (the manager's keyed tier) with
//!   [`Scenario::cache`] enabled — `cache-warm-storm` (a repeating
//!   same-shape admission storm replayed from the cache) and
//!   `cache-invalidation-churn` (element faults and repairs sweeping
//!   cached points out from under continuing admissions), and two that
//!   run behind the `kairos-gateway` queueing front-end
//!   ([`Scenario::gateway`]) — `gateway-arrival-storm` (a sharded
//!   storm streamed through per-shard bounded lanes, byte-identical to
//!   its unwrapped twin) and `gateway-backpressure` (a queued overload
//!   behind a four-slot lane that parks requests in the gateway), and
//!   two that meter energy ([`Scenario::power`]) — `slo-burn-storm` (a
//!   queued overload whose admissions wait long before a recovery) and
//!   `power-cap-skew` (a package-wide DSP outage that collapses one
//!   package's draw);
//! * [`Simulator`] — the event queue + virtual clock driving all
//!   scenario traffic through the unified
//!   [`kairos_admitd::ResourceService`] API: arrivals are `Admit` commands
//!   (waves go through `submit_batch` as one batched operation),
//!   departures are `Release`, scripted faults are `InjectFault`, and
//!   every accounting decision is read off the service's single
//!   [`kairos_admitd::Event`] stream — with or without a
//!   [`kairos_admitd::AdmitPolicy`] priority queue (backpressure,
//!   bounded retry, timeouts, preemption), plus periodic defragmenting
//!   compaction sweeps ([`Scenario::defrag`], a [`SweepSpec`]);
//! * [`SimReport`] — aggregated admissions, rejections by pipeline phase,
//!   departures, fault statistics, relocation counters (preemptions,
//!   migrations, defrag moves), queue behaviour ([`QueueReport`]: depth,
//!   waits, retries, drops) and metric time-series — plus, for
//!   telemetry-enabled runs, the end-of-run snapshot of the whole
//!   stack's metric registry ([`SimReport::telemetry`]) — and, for
//!   metered runs, the energy account ([`SimReport::energy`]: per-class,
//!   per-package and per-app milliwatt-ticks and a virtual-time power
//!   series, integrated from sampled element activity against a
//!   [`kairos_platform::PowerModel`]) — rendered as byte-deterministic
//!   JSON.
//!
//! Identical scenarios yield byte-identical reports: the engine draws every
//! random choice from the scenario seed and never consults wall-clock time.
//!
//! ## Example
//!
//! ```
//! use kairos_sim::{Scenario, Simulator};
//!
//! let scenario = Scenario::by_name("bursty-arrivals").unwrap();
//! let report = Simulator::new(scenario.clone()).unwrap().run();
//! let again = Simulator::new(scenario).unwrap().run();
//! assert_eq!(report.to_json_string(), again.to_json_string());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod energy;
mod engine;
pub mod json;
mod report;
mod scenario;

pub use energy::{AppEnergy, EnergyReport, KindEnergy, PackageEnergy, PowerPoint};
pub use engine::Simulator;
pub use report::{
    ClassQueueStats, GatewayReport, PhaseStats, QueueReport, SamplePoint, SimReport, Totals,
};
pub use scenario::{
    ClusterSpec, FaultSpec, PhaseSpec, PlatformSpec, Scenario, SweepSpec, WatchSpec,
};
