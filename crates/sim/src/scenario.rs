//! Scenario descriptions and the built-in catalog.
//!
//! A [`Scenario`] is a complete, seeded description of a multi-application
//! experiment: the platform, a sequence of workload phases (each with its
//! own dataset mixture, arrival rate and lifetime distribution), and a
//! script of element faults. Identical scenarios produce identical
//! simulations — the engine draws every random choice from the scenario
//! seed.
//!
//! [`Scenario::catalog`] ships twenty-two named scenarios: five spanning the
//! regimes the paper motivates (steady churn, bursty arrivals, saturation,
//! hotspot element failures, a mixed-dataset workload), three exercising
//! the `kairos-admitd` admission front-end (priority inversion, overload
//! backpressure, retry storms), three exercising the manager's
//! relocation planners (preemption of low-priority work for criticals,
//! migration versus evict-and-readmit, defragmenting compaction sweeps),
//! one exercising batched submission through the `ResourceService`
//! API (synchronized arrival waves), two exercising the
//! `kairos-cluster` sharded deployment (a probe-fan-out arrival storm
//! over four region shards, and cross-shard rebalancing of a skewed
//! first-fit fill), one exercising the `kairos-telemetry`
//! observability layer (`telemetry-probe-latency`, which runs a sharded
//! preempting workload with [`Scenario::telemetry`] enabled and embeds
//! the metric snapshot in its report), one exercising per-request causal
//! tracing (`traced-preemption-storm`, with [`Scenario::trace`] enabled),
//! and two exercising the manager's operating-point cache
//! (`cache-warm-storm`, a small-application storm over three cached
//! shards whose every commit replays the point its own probe stored, and
//! `cache-invalidation-churn`, which interleaves
//! element faults and repairs with cached admissions; both run with
//! [`Scenario::cache`] enabled), and
//! two exercising the `kairos-gateway` queueing front-end
//! (`gateway-arrival-storm`, a sharded storm streamed through the
//! gateway's default lanes and pinned byte-identical to the unwrapped
//! run, and `gateway-backpressure`, a queued overload behind a
//! four-slot lane that parks requests in the gateway; both run with
//! [`Scenario::gateway`] set), and two metering energy
//! (`slo-burn-storm`, a queued overload whose admissions wait long
//! before a recovery, and `power-cap-skew`, a sharded run
//! whose package-wide DSP outage collapses one package's draw; both run
//! with [`Scenario::power`] set).
//! `docs/SCENARIOS.md` documents every entry; CI checks the two stay in
//! sync.

use kairos_admitd::{AdmitPolicy, PreemptionPolicy, PriorityClass};
use kairos_appgen::{
    ArrivalDistribution, DatasetSpec, MixEntry, Orientation, SizeClass, WorkloadMix,
};
use kairos_cluster::Placement;
use kairos_gateway::GatewayConfig;
use kairos_platform::{topology, ElementKind, Platform, PowerModel, PowerRate};

/// The benchmark's switch for energy metering: `Some(WatchSpec)` meters
/// against [`PowerModel::default`], exactly as
/// `power: Some(PowerModel::default())` does, and the engine folds it
/// into [`Scenario::power`] when it starts. It has nothing to set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchSpec;

/// The platform a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformSpec {
    /// The paper's CRISP General Stream Processor (62 elements).
    Crisp,
    /// A homogeneous DSP mesh.
    DspMesh {
        /// Mesh width in elements.
        width: usize,
        /// Mesh height in elements.
        height: usize,
    },
    /// A heterogeneous mesh (ARM/DSP/FPGA/memory mix).
    HeterogeneousMesh {
        /// Mesh width in elements.
        width: usize,
        /// Mesh height in elements.
        height: usize,
    },
}

impl PlatformSpec {
    /// Instantiates the platform.
    pub fn build(&self) -> Platform {
        match *self {
            PlatformSpec::Crisp => topology::crisp(),
            PlatformSpec::DspMesh { width, height } => topology::dsp_mesh(width, height),
            PlatformSpec::HeterogeneousMesh { width, height } => {
                topology::heterogeneous_mesh(width, height)
            }
        }
    }

    /// The element count [`PlatformSpec::build`] would produce, read from
    /// a mesh's dimensions without building it, or why it cannot build:
    /// `width * height` overflows, or the mesh has fewer cells than its
    /// topology needs (one for a DSP mesh, four for a heterogeneous one).
    fn element_count(&self) -> Result<usize, String> {
        let (width, height, min) = match *self {
            PlatformSpec::Crisp => return Ok(topology::crisp().element_count()),
            PlatformSpec::DspMesh { width, height } => (width, height, 1),
            PlatformSpec::HeterogeneousMesh { width, height } => (width, height, 4),
        };
        match width.checked_mul(height) {
            None => Err(format!("a {width}x{height} mesh overflows the element count")),
            Some(cells) if cells < min => {
                Err(format!("a {width}x{height} mesh has {cells} cells; it needs at least {min}"))
            }
            Some(cells) => Ok(cells),
        }
    }
}

/// One workload phase: a time window with its own arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name, used in per-phase report rows.
    pub name: String,
    /// Phase length in virtual ticks.
    pub duration: u64,
    /// Mean inter-arrival gap; `0` disables arrivals (a drain or
    /// quiescent phase).
    pub mean_interarrival: u64,
    /// Mean exponential application lifetime; `0` means admitted
    /// applications never depart on their own.
    pub mean_lifetime: u64,
    /// Dataset mixture arrivals are drawn from.
    pub mix: Vec<MixEntry>,
    /// Shape of the inter-arrival distribution (exponential by default;
    /// deterministic and Pareto cover periodic and heavy-tailed sources).
    pub arrival: ArrivalDistribution,
    /// Priority class this phase's arrivals are submitted under when the
    /// scenario runs with an admission queue; ignored otherwise.
    pub priority: PriorityClass,
    /// Applications arriving *together* at each arrival instant — a
    /// synchronized wave. `1` is a lone arrival; larger waves are
    /// admitted through `ResourceService::submit_batch` as one batched
    /// operation (class-sorted, one drain pass).
    pub batch: u64,
}

impl PhaseSpec {
    /// A phase named `name` lasting `duration` ticks, with exponential
    /// arrivals of [`PriorityClass::Normal`] priority.
    pub fn new(
        name: impl Into<String>,
        duration: u64,
        mean_interarrival: u64,
        mean_lifetime: u64,
        mix: Vec<MixEntry>,
    ) -> Self {
        PhaseSpec {
            name: name.into(),
            duration,
            mean_interarrival,
            mean_lifetime,
            mix,
            arrival: ArrivalDistribution::Exponential,
            priority: PriorityClass::Normal,
            batch: 1,
        }
    }

    /// The same phase with a different inter-arrival distribution.
    pub fn with_arrival(mut self, arrival: ArrivalDistribution) -> Self {
        self.arrival = arrival;
        self
    }

    /// The same phase submitting its arrivals under `priority`.
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// The same phase arriving in synchronized waves of `batch`
    /// applications per arrival instant.
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Whether the phase generates arrivals at all.
    pub fn has_arrivals(&self) -> bool {
        self.mean_interarrival > 0 && !self.mix.is_empty()
    }
}

/// A periodic relocation sweep: every `period` ticks the engine moves up
/// to `max_moves` admitted applications. [`Scenario::defrag`] runs it as
/// a defragmenting compaction (`Kairos::compact`, keeping only moves that
/// strictly reduce external resource fragmentation);
/// [`ClusterSpec::rebalance`] runs it as a cross-shard rebalance
/// ([`kairos_admitd::Command::Rebalance`], evict-and-readmit from the
/// most- to the least-loaded shard, two-phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    /// Ticks between sweeps (the first sweep runs at `period`).
    pub period: u64,
    /// Most applications one sweep may move.
    pub max_moves: usize,
}

impl SweepSpec {
    /// Checks the sweep can run and can move something; `what` names it
    /// in the error.
    fn validate(&self, what: &str) -> Result<(), String> {
        if self.period == 0 {
            return Err(format!("{what} period must be positive"));
        }
        if self.max_moves == 0 {
            return Err(format!("{what} with max_moves of 0 can never move anything"));
        }
        Ok(())
    }
}

/// Sharded deployment of the scenario's platform: the engine partitions
/// the platform into `shards` contiguous capacity-balanced regions and
/// drives a `kairos-cluster` [`ClusterService`](kairos_cluster::ClusterService)
/// instead of the monolithic service — same `ResourceService` surface,
/// same traffic, a fleet of managers underneath. With `shards: 1` the
/// run is byte-identical to the unsharded scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of region shards.
    pub shards: usize,
    /// Shard-placement policy admissions are routed by.
    pub policy: Placement,
    /// Periodic cross-shard rebalancing; `None` never rebalances.
    pub rebalance: Option<SweepSpec>,
}

/// A scripted element fault (and optional repair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Virtual time of the failure.
    pub at: u64,
    /// Index of the failing element on the scenario platform.
    pub element: u32,
    /// Ticks until the element is repaired; `None` leaves it failed.
    pub repair_after: Option<u64>,
}

/// A complete, seeded scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (catalog key).
    pub name: String,
    /// Master seed; every random draw in the simulation derives from it.
    pub seed: u64,
    /// Sampling period of the metric time-series, in virtual ticks.
    pub sample_period: u64,
    /// Platform to manage.
    pub platform: PlatformSpec,
    /// Consecutive workload phases.
    pub phases: Vec<PhaseSpec>,
    /// Scripted element faults.
    pub faults: Vec<FaultSpec>,
    /// Whether applications evicted by a fault are immediately offered for
    /// re-admission on the remaining healthy elements.
    pub readmit_evicted: bool,
    /// Admission front-end policy. `None` admits at the door (reject when
    /// full, the paper's behaviour); `Some` routes every request through
    /// a `kairos-admitd` priority queue with backpressure, retry and —
    /// under an enabled [`kairos_admitd::PreemptionPolicy`] — preemption
    /// of running lower-priority applications for blocked criticals.
    pub admission: Option<AdmitPolicy>,
    /// Periodic defragmenting compaction sweeps; `None` never compacts.
    pub defrag: Option<SweepSpec>,
    /// Sharded platform deployment. `None` runs the monolithic service
    /// (one manager owning the whole platform); `Some` partitions the
    /// platform into region shards behind a `kairos-cluster` service,
    /// with admission probes fanned out over the shards and optional
    /// cross-shard rebalancing.
    pub cluster: Option<ClusterSpec>,
    /// Queueing front-end. `None` drives the service directly;
    /// `Some` wraps it in a `kairos-gateway` [`Gateway`](kairos_gateway::Gateway)
    /// (per-shard bounded request lanes in a deterministic
    /// ticket-ordered queue) and embeds the serving counters as the
    /// report's `gateway` section. With the default config the wrapped
    /// run is byte-identical to the unwrapped one apart from that section
    /// (`tests/observers/mod.rs` pins that); a small
    /// [`GatewayConfig::channel_capacity`] makes full lanes park requests
    /// until completions free slots (bounded backpressure).
    pub gateway: Option<GatewayConfig>,
    /// Whether the run records `kairos-telemetry` metrics: the full
    /// registry (every layer's counters, gauges and latency histograms).
    /// The engine always runs the deterministic zero phase clock, so an
    /// enabled run is byte-identical to a disabled one apart from the
    /// extra `telemetry` section in the report (all duration histograms
    /// record zero-nanosecond observations and degenerate to attempt
    /// counters).
    pub telemetry: bool,
    /// Whether the run records per-request causal traces: every admission
    /// gets a trace root at the outermost service, queue residency and
    /// pipeline phases become spans, and the report embeds a `trace`
    /// section (per-class latency percentiles and the critical-path
    /// breakdown). Spans carry virtual-tick timestamps only, so — like
    /// [`Scenario::telemetry`] — an enabled run is byte-identical to a
    /// disabled one apart from the extra report section, and the trace
    /// itself is byte-reproducible run to run.
    pub trace: bool,
    /// Whether every manager runs with the design-time operating-point
    /// cache ([`kairos_core::KairosConfig::cache`], the keyed tier of
    /// its decision store)
    /// enabled: pipeline decisions are stored per
    /// `(application shape, platform state)` key and replayed on exact
    /// recurrence. The cache changes which work runs, never what is
    /// decided, so an enabled run is byte-identical to a disabled one
    /// apart from the extra `cache` section in the report (the
    /// observer-effect harness, `tests/observers/mod.rs`, pins exactly this).
    pub cache: bool,
    /// `Some` meters against the default power model unless
    /// [`Scenario::power`] names one: the same as
    /// `power.get_or_insert_with(PowerModel::default)`. Kept for the
    /// benchmark; set `power` instead.
    pub watch: Option<WatchSpec>,
    /// Energy accounting. `None` (with [`Scenario::watch`] also `None`)
    /// runs no meter; `Some` integrates sampled activity against this
    /// power model and embeds the `energy` section in the report. The
    /// meter is a pure observer — a metered run is byte-identical to an
    /// unmetered one apart from that section (`tests/observers/mod.rs`
    /// pins that).
    pub power: Option<PowerModel>,
}

impl Scenario {
    /// A scenario named `name` running `phases` on `platform`, with every
    /// optional subsystem off: no faults, queue-less admission, no defrag,
    /// one monolithic manager, no gateway, no telemetry, tracing, cache
    /// or metering. Name what a scenario turns on with struct
    /// update syntax over this.
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        sample_period: u64,
        platform: PlatformSpec,
        phases: Vec<PhaseSpec>,
    ) -> Self {
        Scenario {
            name: name.into(),
            seed,
            sample_period,
            platform,
            phases,
            faults: Vec::new(),
            readmit_evicted: false,
            admission: None,
            defrag: None,
            cluster: None,
            gateway: None,
            telemetry: false,
            trace: false,
            cache: false,
            watch: None,
            power: None,
        }
    }

    /// Total virtual duration: the sum of all phase durations
    /// (`u64::MAX` when that sum overflows, which [`Self::validate`]
    /// refuses).
    pub fn horizon(&self) -> u64 {
        self.checked_horizon().unwrap_or(u64::MAX)
    }

    fn checked_horizon(&self) -> Option<u64> {
        self.phases.iter().try_fold(0u64, |t, p| t.checked_add(p.duration))
    }

    /// Structural sanity checks.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("scenario has no phases".into());
        }
        if self.sample_period == 0 {
            return Err("sample_period must be positive".into());
        }
        for phase in &self.phases {
            if phase.duration == 0 {
                return Err(format!("phase '{}' has zero duration", phase.name));
            }
            if phase.mean_interarrival > 0 && phase.mix.is_empty() {
                return Err(format!("phase '{}' has arrivals but an empty mix", phase.name));
            }
            if phase.mean_interarrival > 0 && phase.mix.iter().all(|e| e.weight == 0) {
                return Err(format!("phase '{}' mix has no positive weight", phase.name));
            }
            if phase.batch == 0 {
                return Err(format!("phase '{}' has a zero arrival batch", phase.name));
            }
            if let ArrivalDistribution::Pareto { alpha_centi } = phase.arrival {
                if alpha_centi <= 100 {
                    return Err(format!(
                        "phase '{}' Pareto shape {alpha_centi} must exceed 100 (alpha > 1)",
                        phase.name
                    ));
                }
            }
        }
        if let Some(policy) = &self.admission {
            policy.validate().map_err(|e| format!("admission policy: {e}"))?;
        }
        if let Some(defrag) = &self.defrag {
            defrag.validate("defrag")?;
        }
        let elements = self.platform.element_count()?;
        if let Some(cluster) = &self.cluster {
            if cluster.shards == 0 {
                return Err("a cluster needs at least one shard".into());
            }
            if cluster.shards > elements {
                return Err(format!(
                    "cannot split {elements} elements into {} shards",
                    cluster.shards
                ));
            }
            if let Some(rebalance) = &cluster.rebalance {
                rebalance.validate("rebalance")?;
            }
        }
        if let Some(gateway) = &self.gateway {
            if gateway.channel_capacity == 0 {
                return Err("gateway channel_capacity must be at least 1".into());
            }
        }
        if let Some(power) = &self.power {
            for kind in ElementKind::ALL {
                let rate = power.rate(kind);
                if rate.idle_mw > rate.busy_mw {
                    return Err(format!(
                        "power model for '{}' draws more idle ({}) than busy ({})",
                        kind.label(),
                        rate.idle_mw,
                        rate.busy_mw
                    ));
                }
            }
        }
        let horizon = self.checked_horizon().ok_or("the phase durations overflow u64 ticks")?;
        for fault in &self.faults {
            if fault.element as usize >= elements {
                return Err(format!(
                    "fault at t={} targets element {} but the platform has {elements}",
                    fault.at, fault.element
                ));
            }
            if fault.at > horizon {
                return Err(format!("fault at t={} is beyond the horizon", fault.at));
            }
        }
        // Outage windows on one element must not overlap or even touch: the
        // platform's failure mark is a single flag, so an earlier fault's
        // repair would clear a later, still-active fault — and at the exact
        // repair tick the new fault is processed before the pending repair,
        // which would then silently cancel it.
        let mut by_element: Vec<&FaultSpec> = self.faults.iter().collect();
        by_element.sort_by_key(|f| (f.element, f.at));
        for pair in by_element.windows(2) {
            let (first, second) = (pair[0], pair[1]);
            if first.element != second.element {
                continue;
            }
            let repaired_by = first.repair_after.map(|after| first.at.saturating_add(after));
            if repaired_by.is_none_or(|t| t >= second.at) {
                return Err(format!(
                    "element {} faults again at t={} while its outage from t={} is still active",
                    second.element, second.at, first.at
                ));
            }
        }
        Ok(())
    }

    /// The built-in catalog of named scenarios.
    pub fn catalog() -> Vec<Scenario> {
        vec![
            steady_churn(),
            bursty_arrivals(),
            saturation(),
            hotspot_failures(),
            mixed_datasets(),
            priority_inversion(),
            overload_backpressure(),
            retry_storm(),
            critical_preempt(),
            migrate_vs_evict(),
            defrag_sweep(),
            batch_arrival_wave(),
            sharded_arrival_storm(),
            cross_shard_rebalance(),
            telemetry_probe_latency(),
            traced_preemption_storm(),
            cache_warm_storm(),
            cache_invalidation_churn(),
            gateway_arrival_storm(),
            gateway_backpressure(),
            slo_burn_storm(),
            power_cap_skew(),
        ]
    }

    /// Looks up a catalog scenario by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::catalog().into_iter().find(|s| s.name == name)
    }
}

fn spec(orientation: Orientation, size: SizeClass) -> DatasetSpec {
    DatasetSpec { orientation, size }
}

fn small_mix() -> Vec<MixEntry> {
    vec![
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ]
}

/// Steady-state churn: applications arrive and depart at a balanced rate,
/// keeping the platform at moderate occupancy for a long horizon.
fn steady_churn() -> Scenario {
    let phases = vec![
        PhaseSpec::new("warmup", 500, 40, 400, small_mix()),
        PhaseSpec::new("steady", 2000, 25, 300, small_mix()),
        PhaseSpec::new("drain", 1500, 0, 0, Vec::new()),
    ];
    Scenario::new("steady-churn", 0xC0FFEE, 50, PlatformSpec::Crisp, phases)
}

/// Bursty arrivals: tight bursts alternate with quiet lulls, stressing
/// admission latency and the rejection behaviour under momentary overload.
fn bursty_arrivals() -> Scenario {
    let burst_mix = vec![
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("burst-1", 300, 5, 250, burst_mix.clone()),
        PhaseSpec::new("lull-1", 500, 150, 250, burst_mix.clone()),
        PhaseSpec::new("burst-2", 300, 4, 250, burst_mix.clone()),
        PhaseSpec::new("lull-2", 500, 150, 250, burst_mix),
        PhaseSpec::new("drain", 800, 0, 0, Vec::new()),
    ];
    Scenario::new("bursty-arrivals", 0xB0057, 25, PlatformSpec::Crisp, phases)
}

/// High-occupancy saturation: long-lived, resource-heavy applications pile
/// up until admissions mostly reject, probing behaviour at the capacity
/// cliff.
fn saturation() -> Scenario {
    let heavy_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Large), 1),
    ];
    let phases = vec![
        PhaseSpec::new("fill", 1200, 15, 0, heavy_mix.clone()),
        PhaseSpec::new("saturated", 1200, 20, 6000, heavy_mix),
        PhaseSpec::new("drain", 600, 0, 0, Vec::new()),
    ];
    Scenario::new("saturation", 0x5A7, 40, PlatformSpec::Crisp, phases)
}

/// Hotspot element failures: a steady workload while the DSPs of the
/// central CRISP package fail one after another (then recover), exercising
/// eviction and re-admission on the remaining healthy elements.
fn hotspot_failures() -> Scenario {
    // CRISP element ids: 0 = FPGA, packages of 12 from 1, ARM last.
    // Package 2 (the central one) spans ids 25..=36; its DSPs are 25..=33.
    let central_dsps = [28u32, 29, 31, 26, 32];
    let faults = central_dsps
        .iter()
        .enumerate()
        .map(|(i, &element)| FaultSpec {
            at: 400 + 250 * i as u64,
            element,
            repair_after: Some(700),
        })
        .collect();
    let phases = vec![
        PhaseSpec::new("warmup", 400, 12, 900, small_mix()),
        PhaseSpec::new("failing", 1600, 12, 800, small_mix()),
        PhaseSpec::new("recovered", 800, 20, 400, small_mix()),
        PhaseSpec::new("drain", 1200, 0, 0, Vec::new()),
    ];
    Scenario {
        faults,
        readmit_evicted: true,
        ..Scenario::new("hotspot-failures", 0xFA17, 40, PlatformSpec::Crisp, phases)
    }
}

/// Mixed-dataset workload: all six Table-I datasets arrive uniformly,
/// reproducing the paper's heterogeneous admission mix as a long-running
/// stream.
fn mixed_datasets() -> Scenario {
    let phases = vec![
        PhaseSpec::new("mixed", 2500, 35, 350, WorkloadMix::all_datasets().entries().to_vec()),
        PhaseSpec::new("drain", 1200, 0, 0, Vec::new()),
    ];
    Scenario::new("mixed-datasets", 0x717C, 50, PlatformSpec::Crisp, phases)
}

/// Priority inversion probe: a saturating stream of low-priority,
/// long-lived applications builds a backlog, then a burst of critical
/// requests arrives. With the admission queue in place the criticals jump
/// the older low-priority waiters the moment departures free capacity —
/// the inversion a plain FIFO front-end would suffer never happens.
fn priority_inversion() -> Scenario {
    let heavy_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Large), 1),
    ];
    let phases = vec![
        PhaseSpec::new("fill-low", 900, 12, 2200, heavy_mix.clone())
            .with_priority(PriorityClass::Low),
        PhaseSpec::new("critical-burst", 700, 25, 500, small_mix())
            .with_priority(PriorityClass::Critical),
        PhaseSpec::new("drain", 2400, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [12, 8, 8, 16],
            max_wait: Some(1500),
            max_attempts: 10,
            backoff_base: 1,
            backoff_cap: 4,
            ..AdmitPolicy::default()
        }),
        ..Scenario::new("priority-inversion", 0x1A2B3C, 40, PlatformSpec::Crisp, phases)
    }
}

/// Overload backpressure: heavy-tailed Pareto arrivals far above the
/// service rate slam a deliberately small queue. The class capacities are
/// the memory bound — once full, requests are refused with `QueueFull`
/// instead of growing the queue without limit.
fn overload_backpressure() -> Scenario {
    let heavy_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Medium), 1),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Large), 1),
    ];
    let phases = vec![
        PhaseSpec::new("overload", 1800, 6, 1200, heavy_mix)
            .with_arrival(ArrivalDistribution::Pareto { alpha_centi: 160 }),
        PhaseSpec::new("drain", 2000, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [4, 4, 8, 4],
            max_wait: Some(600),
            max_attempts: 5,
            backoff_base: 1,
            backoff_cap: 8,
            ..AdmitPolicy::default()
        }),
        ..Scenario::new("overload-backpressure", 0x0F10AD, 25, PlatformSpec::Crisp, phases)
    }
}

/// Retry storm: strictly periodic arrivals of mid-sized applications into
/// a platform kept near-full by long-lived residents. Almost every
/// admission needs several attempts, each re-triggered by a departure
/// (capacity event), exercising the deterministic backoff ladder.
fn retry_storm() -> Scenario {
    let resident_mix = vec![MixEntry::new(spec(Orientation::Computation, SizeClass::Large), 1)];
    let churn_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 1),
    ];
    let phases = vec![
        PhaseSpec::new("residents", 600, 18, 0, resident_mix).with_priority(PriorityClass::Low),
        PhaseSpec::new("storm", 1500, 14, 260, churn_mix)
            .with_arrival(ArrivalDistribution::Deterministic),
        PhaseSpec::new("drain", 1600, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [8, 8, 24, 12],
            max_wait: Some(900),
            max_attempts: 8,
            backoff_base: 1,
            backoff_cap: 2,
            ..AdmitPolicy::default()
        }),
        ..Scenario::new("retry-storm", 0x57083, 30, PlatformSpec::Crisp, phases)
    }
}

/// Critical preemption: a saturating stream of long-lived low-priority
/// applications owns the platform when a surge of criticals arrives. With
/// [`PreemptionPolicy::Evict`] each blocked critical evicts a minimal
/// victim set back into the queue (preempted, not dropped) and takes the
/// room — the report shows criticals admitted against a full platform,
/// with the preempted/readmitted/lost balance in the totals.
fn critical_preempt() -> Scenario {
    let heavy_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Large), 1),
    ];
    let phases = vec![
        PhaseSpec::new("fill-low", 900, 12, 2600, heavy_mix).with_priority(PriorityClass::Low),
        PhaseSpec::new("critical-surge", 700, 28, 450, small_mix())
            .with_priority(PriorityClass::Critical),
        PhaseSpec::new("drain", 2600, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [12, 8, 8, 24],
            max_wait: Some(1600),
            max_attempts: 8,
            backoff_base: 1,
            backoff_cap: 4,
            preemption: PreemptionPolicy::Evict,
            max_victims: 4,
        }),
        ..Scenario::new("critical-preempt", 0x9EE47, 40, PlatformSpec::Crisp, phases)
    }
}

/// Migration versus evict-and-readmit: the same blocked-critical regime as
/// `critical-preempt`, but under [`PreemptionPolicy::Migrate`] victims are
/// live-migrated off the critical's target region whenever both footprints
/// fit at once — they keep running instead of being thrown back into the
/// queue. Rerunning this scenario with the policy flipped to `Evict` is
/// the paper-style baseline comparison: migration admits the same blocked
/// criticals with strictly fewer full evictions (the sim test suite pins
/// exactly that).
fn migrate_vs_evict() -> Scenario {
    // Small, long-lived low-priority residents: light enough that another
    // element's slack can absorb one, so make-before-break usually works.
    let light_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
    ];
    let crit_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("fill-low", 900, 12, 3000, light_mix).with_priority(PriorityClass::Low),
        PhaseSpec::new("critical-surge", 800, 40, 500, crit_mix)
            .with_priority(PriorityClass::Critical),
        PhaseSpec::new("drain", 2600, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [12, 8, 8, 32],
            max_wait: Some(1600),
            max_attempts: 8,
            backoff_base: 1,
            backoff_cap: 4,
            preemption: PreemptionPolicy::Migrate,
            max_victims: 6,
        }),
        ..Scenario::new("migrate-vs-evict", 0x316A7E, 40, PlatformSpec::Crisp, phases)
    }
}

/// Defragmenting compaction sweeps: high churn of small applications
/// shreds the platform into scattered free crumbs; every 150 ticks a
/// `Kairos::compact` sweep live-migrates up to four applications,
/// keeping only moves that strictly reduce external fragmentation. The
/// sampled fragmentation series shows the saw-tooth the sweeps cut into
/// the churn's upward drift.
fn defrag_sweep() -> Scenario {
    let churn_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("churn", 2400, 18, 220, churn_mix),
        PhaseSpec::new("drain", 1200, 0, 0, Vec::new()),
    ];
    Scenario {
        defrag: Some(SweepSpec { period: 150, max_moves: 4 }),
        ..Scenario::new("defrag-sweep", 0xDF, 30, PlatformSpec::Crisp, phases)
    }
}

/// Batched arrival waves: applications arrive in tight synchronized
/// bursts — the multi-application reconfiguration points of Khasanov &
/// Castrillon's runtime — and each wave is admitted through
/// `ResourceService::submit_batch` as one operation: class-sorted, one
/// arrival time, one priority-ordered drain pass. A smaller
/// critical wave phase interleaves priorities so the batched drain's
/// class ordering is actually exercised.
fn batch_arrival_wave() -> Scenario {
    let wave_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ];
    let crit_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 2),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 1),
    ];
    let phases = vec![
        PhaseSpec::new("normal-waves", 1500, 120, 500, wave_mix)
            .with_arrival(ArrivalDistribution::Deterministic)
            .with_batch(6),
        PhaseSpec::new("critical-waves", 600, 150, 400, crit_mix)
            .with_priority(PriorityClass::Critical)
            .with_batch(4),
        PhaseSpec::new("drain", 1500, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [8, 8, 24, 16],
            max_wait: Some(800),
            max_attempts: 6,
            backoff_base: 1,
            backoff_cap: 4,
            ..AdmitPolicy::default()
        }),
        ..Scenario::new("batch-arrival-wave", 0xBA7C4, 30, PlatformSpec::Crisp, phases)
    }
}

/// Sharded arrival storm: a heavy-tailed Pareto storm of mixed-size
/// applications slams a CRISP platform partitioned into four region
/// shards. Every arrival fans out as what-if probes across all four
/// shard managers; the least-loaded policy routes it to the shard that
/// would end up emptiest, and requests no shard can take queue at the
/// policy's fallback shard under per-shard backpressure.
fn sharded_arrival_storm() -> Scenario {
    // Mostly small applications: a shard is a third of the platform, and
    // an application must fit inside one shard (placements never span the
    // region boundary), so the storm is sized to shards, not to the
    // whole fabric.
    let storm_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 4),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("storm", 1600, 7, 400, storm_mix)
            .with_arrival(ArrivalDistribution::Pareto { alpha_centi: 150 }),
        PhaseSpec::new("drain", 1800, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [6, 6, 12, 6],
            max_wait: Some(700),
            max_attempts: 6,
            backoff_base: 1,
            backoff_cap: 4,
            ..AdmitPolicy::default()
        }),
        cluster: Some(ClusterSpec { shards: 3, policy: Placement::LeastLoaded, rebalance: None }),
        ..Scenario::new("sharded-arrival-storm", 0x54A2D, 30, PlatformSpec::Crisp, phases)
    }
}

/// Cross-shard rebalancing: long-lived applications arrive under the
/// *first-fit* placement policy, which deliberately piles everything
/// onto the lowest-id shards of a three-shard CRISP cluster. Every 150
/// ticks a rebalance sweep moves work from the most- to the least-loaded
/// shard — evict-and-readmit across the region boundary, two-phase with
/// rollback, each move surfacing as an id change in the report's
/// `rebalance_moves` total — so the load the placement policy skewed is
/// spread back out at run time.
fn cross_shard_rebalance() -> Scenario {
    let resident_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("skewed-fill", 900, 16, 2800, resident_mix.clone()),
        PhaseSpec::new("steady", 900, 30, 700, resident_mix),
        PhaseSpec::new("drain", 1400, 0, 0, Vec::new()),
    ];
    Scenario {
        cluster: Some(ClusterSpec {
            shards: 3,
            policy: Placement::FirstFit,
            rebalance: Some(SweepSpec { period: 150, max_moves: 2 }),
        }),
        ..Scenario::new("cross-shard-rebalance", 0xC7055, 30, PlatformSpec::Crisp, phases)
    }
}

/// Telemetry probe latency: the observability showcase. A three-shard
/// CRISP cluster under the least-loaded policy admits a queued, preempting
/// workload — low-priority residents first, then a critical surge that
/// live-migrates victims — with [`Scenario::telemetry`] enabled, so the
/// report embeds the full metric snapshot: per-shard probe-latency
/// histograms and placement-score distributions from the probe
/// fan-out, pipeline-phase and probe counters from every shard
/// manager, queue-transition counters from the admission front-ends, and
/// the two-phase migration tallies. Under the engine's deterministic zero
/// clock the snapshot is byte-reproducible run to run.
fn telemetry_probe_latency() -> Scenario {
    // The migrate-vs-evict recipe, sharded: small long-lived residents a
    // neighbouring element's slack can absorb, then criticals that force
    // make-before-break moves — every instrumented subsystem fires.
    let light_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
    ];
    let crit_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("fill-low", 900, 10, 2800, light_mix).with_priority(PriorityClass::Low),
        PhaseSpec::new("critical-surge", 700, 35, 500, crit_mix)
            .with_priority(PriorityClass::Critical),
        PhaseSpec::new("drain", 2400, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [10, 8, 8, 24],
            max_wait: Some(1400),
            max_attempts: 8,
            backoff_base: 1,
            backoff_cap: 4,
            preemption: PreemptionPolicy::Migrate,
            max_victims: 4,
        }),
        cluster: Some(ClusterSpec { shards: 3, policy: Placement::LeastLoaded, rebalance: None }),
        telemetry: true,
        ..Scenario::new("telemetry-probe-latency", 0x7E1E, 30, PlatformSpec::Crisp, phases)
    }
}

/// Traced preemption storm: the causal-tracing showcase. A three-shard
/// CRISP cluster under the least-loaded policy fills with low-priority
/// residents, then takes a critical surge under an *evicting* preemption
/// policy — so traces capture the full repertoire: queue residency,
/// per-shard probe fan-outs, pipeline phases, retry attempts, and
/// `preempt.evict` detours with freshly rooted victim requeues. Runs with
/// [`Scenario::trace`] enabled (and the metric registry off), so the
/// report embeds the `trace` section and
/// `examples/scenario.rs --trace out.json` exports the Chrome-trace
/// timeline, byte-identical across runs.
fn traced_preemption_storm() -> Scenario {
    let light_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
    ];
    let crit_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("fill-low", 900, 10, 2800, light_mix).with_priority(PriorityClass::Low),
        PhaseSpec::new("critical-storm", 700, 30, 600, crit_mix)
            .with_priority(PriorityClass::Critical),
        PhaseSpec::new("drain", 2400, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [10, 8, 8, 24],
            max_wait: Some(1400),
            max_attempts: 8,
            backoff_base: 1,
            backoff_cap: 4,
            preemption: PreemptionPolicy::Evict,
            max_victims: 4,
        }),
        cluster: Some(ClusterSpec { shards: 3, policy: Placement::LeastLoaded, rebalance: None }),
        trace: true,
        ..Scenario::new("traced-preemption-storm", 0x7ACE, 30, PlatformSpec::Crisp, phases)
    }
}

/// Cache warm storm: the operating-point cache's *wiring* scenario. A
/// three-shard CRISP cluster under the least-loaded policy takes a long
/// deterministic storm of short-lived applications drawn from a mixture
/// of just two datasets, with [`Scenario::cache`] enabled so every shard
/// manager runs an operating-point cache
/// ([`CacheConfig`](kairos_core::CacheConfig)). What it shows is the
/// probe-to-commit replay, not recurrence: the sampler draws a *new*
/// application per arrival, and two sampled applications of one dataset
/// never share a shape, so every probe of the fan-out misses and runs the
/// pipeline (224 arrivals x 3 shards = 672 misses and insertions) and the
/// one hit per arrival is the winning shard's commit replaying the point
/// its own probe stored a moment earlier (224 hits). The report's `cache`
/// section pins exactly that split. Decisions recurring *across* requests
/// — the same shapes against occupancies that come back under other
/// tenants — are what the frozen benchmark's `cluster2-recurring-cached`
/// workload and `tests/opcache_equivalence.rs`'s recurring regime
/// exercise; the `opcache` bench times a warm replay against the cold
/// pipeline.
fn cache_warm_storm() -> Scenario {
    // Two datasets only, small ones: every arrival fits some shard, so
    // each one exercises the full probe, store, commit-replay sequence.
    let storm_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 1),
    ];
    let phases = vec![
        PhaseSpec::new("storm", 1800, 8, 200, storm_mix)
            .with_arrival(ArrivalDistribution::Deterministic),
        PhaseSpec::new("drain", 1000, 0, 0, Vec::new()),
    ];
    Scenario {
        cluster: Some(ClusterSpec { shards: 3, policy: Placement::LeastLoaded, rebalance: None }),
        cache: true,
        ..Scenario::new("cache-warm-storm", 0xCA4E5, 30, PlatformSpec::Crisp, phases)
    }
}

/// Cache invalidation churn: the cache's fault-tolerance counterpart. A
/// three-shard CRISP cluster fills with small cached applications, then a
/// rolling script of element faults and repairs passes over the fabric
/// while admissions continue. Every fault and repair changes the
/// platform's state stamp, so admissions during an outage miss, fall back
/// to the cold pipeline and store points for the new state, while the
/// points stored before it stay (the name predates that: nothing is
/// invalidated, and the report's `cache.invalidations` reads 0). Stale
/// points never admit onto dead elements, because no outage state stamps
/// like a healthy one and every hit is re-checked against the platform.
/// The `opcache_faults` suite covers faults, repairs, migrations and
/// rewinds one by one.
fn cache_invalidation_churn() -> Scenario {
    let churn_mix = small_mix();
    // One outage per element, strictly separated in time: 600-tick
    // outages starting 300 ticks apart on distinct elements never
    // overlap, so the script passes outage validation. The targets are
    // DSPs spread across packages (and so across shard regions) — the
    // elements the sampled applications actually occupy, so each fault
    // evicts work and changes the state later admissions look up.
    let faults = [5u32, 17, 29, 41]
        .iter()
        .enumerate()
        .map(|(i, &element)| FaultSpec {
            at: 500 + 300 * i as u64,
            element,
            repair_after: Some(600),
        })
        .collect();
    let phases = vec![
        PhaseSpec::new("warmup", 500, 14, 600, churn_mix.clone()),
        PhaseSpec::new("faulting", 1700, 14, 500, churn_mix),
        PhaseSpec::new("drain", 1200, 0, 0, Vec::new()),
    ];
    Scenario {
        faults,
        readmit_evicted: true,
        cluster: Some(ClusterSpec { shards: 3, policy: Placement::LeastLoaded, rebalance: None }),
        cache: true,
        ..Scenario::new("cache-invalidation-churn", 0x1CACE, 40, PlatformSpec::Crisp, phases)
    }
}

/// Gateway arrival storm: the queueing-front-end showcase. The
/// sharded-arrival recipe — a heavy storm of small applications over a
/// three-shard least-loaded CRISP cluster — runs behind a
/// `kairos-gateway` [`Gateway`](kairos_gateway::Gateway) with the default
/// knobs: every admission streams through a per-shard bounded request
/// lane in the gateway's deterministic ticket-ordered queue before
/// reaching the cluster. The run is byte-identical to the unwrapped
/// scenario apart from the report's `gateway` section (the
/// `gateway_equivalence` suite pins exactly this), which tallies the
/// forwarded singles and per-lane traffic.
fn gateway_arrival_storm() -> Scenario {
    let storm_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ];
    let phases = vec![
        PhaseSpec::new("storm", 1600, 8, 300, storm_mix.clone()),
        PhaseSpec::new("tail", 600, 40, 300, storm_mix),
        PhaseSpec::new("drain", 1000, 0, 0, Vec::new()),
    ];
    Scenario {
        cluster: Some(ClusterSpec { shards: 3, policy: Placement::LeastLoaded, rebalance: None }),
        gateway: Some(GatewayConfig::default()),
        ..Scenario::new("gateway-arrival-storm", 0x6A7E, 30, PlatformSpec::Crisp, phases)
    }
}

/// Gateway backpressure: bounded request lanes under saturation. A
/// monolithic CRISP service takes a queued overload — admissions park in
/// the `kairos-admitd` front-end as non-terminal residents — behind a
/// gateway whose single lane holds only four requests, so once four
/// admissions are queued-but-unresolved the lane is full and later
/// requests park *in the gateway* until completions free slots (the
/// report's `parked` counter pins that the bound actually bit). The
/// shutdown drain then flushes every parked request, so the run still
/// retires its whole workload; double runs are byte-identical, but the
/// tiny lane changes when requests reach the service, so this scenario
/// is deliberately outside the sync-equivalence guarantee.
fn gateway_backpressure() -> Scenario {
    let surge_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Medium), 1),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Large), 1),
    ];
    let phases = vec![
        PhaseSpec::new("surge", 1200, 6, 900, surge_mix),
        PhaseSpec::new("drain", 1400, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [16, 16, 16, 48],
            max_wait: Some(900),
            max_attempts: 6,
            backoff_base: 1,
            backoff_cap: 4,
            ..AdmitPolicy::default()
        }),
        gateway: Some(GatewayConfig { channel_capacity: 4 }),
        ..Scenario::new("gateway-backpressure", 0x6A7E8, 25, PlatformSpec::Crisp, phases)
    }
}

/// SLO burn storm: a queued monolith rides through a calm warmup, a hard
/// overload surge, and a long light-traffic recovery. During the surge
/// admissions wait hundreds of ticks, up to the 900-tick `max_wait`; the
/// recovery's prompt admissions follow before the horizon. The run is
/// metered against the default power model, so its `energy` section
/// follows a churning workload's draw through the surge.
fn slo_burn_storm() -> Scenario {
    let surge_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Medium), 1),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Large), 1),
    ];
    let phases = vec![
        PhaseSpec::new("calm", 600, 30, 250, small_mix()),
        PhaseSpec::new("surge", 1200, 6, 900, surge_mix),
        PhaseSpec::new("recovery", 1600, 40, 150, small_mix()),
        PhaseSpec::new("drain", 800, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: Some(AdmitPolicy {
            class_capacity: [16, 16, 16, 48],
            max_wait: Some(900),
            max_attempts: 6,
            backoff_base: 1,
            backoff_cap: 4,
            ..AdmitPolicy::default()
        }),
        power: Some(PowerModel::default()),
        ..Scenario::new("slo-burn-storm", 0x510B, 25, PlatformSpec::Crisp, phases)
    }
}

/// Power-cap skew: long-lived residents fill a three-shard CRISP cluster,
/// then six of package 2's nine DSPs black out for 600 ticks mid-run. The
/// package's draw collapses — and because the outage evicts the residents
/// for good (no re-admission, no later arrivals), the package never
/// returns to its pre-fault draw: a permanent capability loss in the
/// per-package power series. The scenario also overrides the DSP power
/// rates, exercising the [`Scenario::power`] override path;
/// `tests/watch_observer.rs` asserts the collapse.
fn power_cap_skew() -> Scenario {
    let resident_mix = vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 2),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 1),
    ];
    // Package 2 spans elements 25..=36 on the CRISP platform; its nine
    // DSPs are 25..=33. Six of them fail together and repair together.
    let faults = (25u32..=30)
        .map(|element| FaultSpec { at: 900, element, repair_after: Some(600) })
        .collect();
    let phases = vec![
        PhaseSpec::new("fill", 600, 20, 0, resident_mix),
        PhaseSpec::new("steady", 1800, 0, 0, Vec::new()),
    ];
    Scenario {
        faults,
        cluster: Some(ClusterSpec { shards: 3, policy: Placement::FirstFit, rebalance: None }),
        power: Some(dsp_skewed_power()),
        ..Scenario::new("power-cap-skew", 0x50CA9, 30, PlatformSpec::Crisp, phases)
    }
}

/// The Table-I power model with the DSP class redrawn at 400 mW busy and
/// 100 mW idle.
fn dsp_skewed_power() -> PowerModel {
    let mut model = PowerModel::table1_defaults();
    model.set_rate(ElementKind::Dsp, PowerRate::new(400, 100));
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_twenty_two_valid_named_scenarios() {
        let catalog = Scenario::catalog();
        assert_eq!(catalog.len(), 22);
        let mut names: Vec<&str> = catalog.iter().map(|s| s.name.as_str()).collect();
        for scenario in &catalog {
            scenario.validate().unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert!(scenario.horizon() > 0);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22, "catalog names must be unique");
        // The queueing, preemption and batching scenarios all carry an
        // admission policy; the five legacy scenarios and the defrag
        // sweep stay queue-less.
        let queued: Vec<&str> =
            catalog.iter().filter(|s| s.admission.is_some()).map(|s| s.name.as_str()).collect();
        assert_eq!(
            queued,
            vec![
                "priority-inversion",
                "overload-backpressure",
                "retry-storm",
                "critical-preempt",
                "migrate-vs-evict",
                "batch-arrival-wave",
                "sharded-arrival-storm",
                "telemetry-probe-latency",
                "traced-preemption-storm",
                "gateway-backpressure",
                "slo-burn-storm",
            ]
        );
        let clustered: Vec<&str> =
            catalog.iter().filter(|s| s.cluster.is_some()).map(|s| s.name.as_str()).collect();
        assert_eq!(
            clustered,
            vec![
                "sharded-arrival-storm",
                "cross-shard-rebalance",
                "telemetry-probe-latency",
                "traced-preemption-storm",
                "cache-warm-storm",
                "cache-invalidation-churn",
                "gateway-arrival-storm",
                "power-cap-skew",
            ]
        );
        // Exactly the two gateway scenarios run behind the queueing
        // front-end; only the backpressure one narrows the lane bound.
        let gatewayed: Vec<&str> =
            catalog.iter().filter(|s| s.gateway.is_some()).map(|s| s.name.as_str()).collect();
        assert_eq!(gatewayed, vec!["gateway-arrival-storm", "gateway-backpressure"]);
        let narrow: Vec<&str> = catalog
            .iter()
            .filter(|s| s.gateway.is_some_and(|g| g.channel_capacity < 64))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(narrow, vec!["gateway-backpressure"]);
        let rebalancing: Vec<&str> = catalog
            .iter()
            .filter(|s| s.cluster.is_some_and(|c| c.rebalance.is_some()))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(rebalancing, vec!["cross-shard-rebalance"]);
        let batched: Vec<&str> = catalog
            .iter()
            .filter(|s| s.phases.iter().any(|p| p.batch > 1))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(batched, vec!["batch-arrival-wave"]);
        let preempting: Vec<&str> = catalog
            .iter()
            .filter(|s| s.admission.is_some_and(|p| p.preemption != PreemptionPolicy::Disabled))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            preempting,
            vec![
                "critical-preempt",
                "migrate-vs-evict",
                "telemetry-probe-latency",
                "traced-preemption-storm",
            ]
        );
        let defragging: Vec<&str> =
            catalog.iter().filter(|s| s.defrag.is_some()).map(|s| s.name.as_str()).collect();
        assert_eq!(defragging, vec!["defrag-sweep"]);
        // Exactly one scenario runs with telemetry recording on; all the
        // legacy entries stay byte-identical to their pre-telemetry runs.
        let telemetric: Vec<&str> =
            catalog.iter().filter(|s| s.telemetry).map(|s| s.name.as_str()).collect();
        assert_eq!(telemetric, vec!["telemetry-probe-latency"]);
        // Exactly one scenario runs with request tracing on.
        let traced: Vec<&str> =
            catalog.iter().filter(|s| s.trace).map(|s| s.name.as_str()).collect();
        assert_eq!(traced, vec!["traced-preemption-storm"]);
        // Exactly the two opcache scenarios run with the operating-point
        // cache enabled; every legacy entry keeps cache-off byte
        // identity with its pre-opcache report.
        let cached: Vec<&str> =
            catalog.iter().filter(|s| s.cache).map(|s| s.name.as_str()).collect();
        assert_eq!(cached, vec!["cache-warm-storm", "cache-invalidation-churn"]);
        // Exactly the two energy scenarios meter; no entry sets `watch`,
        // and every legacy entry keeps metering-off byte identity with
        // its pre-metering report.
        assert!(catalog.iter().all(|s| s.watch.is_none()));
        let powered: Vec<&str> =
            catalog.iter().filter(|s| s.power.is_some()).map(|s| s.name.as_str()).collect();
        assert_eq!(powered, vec!["slo-burn-storm", "power-cap-skew"]);
    }

    #[test]
    fn by_name_finds_catalog_entries() {
        assert!(Scenario::by_name("steady-churn").is_some());
        assert!(Scenario::by_name("hotspot-failures").is_some());
        assert!(Scenario::by_name("overload-backpressure").is_some());
        assert!(Scenario::by_name("priority-inversion").is_some());
        assert!(Scenario::by_name("retry-storm").is_some());
        assert!(Scenario::by_name("nonsense").is_none());
    }

    #[test]
    fn validate_rejects_broken_scenarios() {
        let mut s = Scenario::by_name("steady-churn").unwrap();
        s.phases.clear();
        assert!(s.validate().is_err());

        let mut s = Scenario::by_name("steady-churn").unwrap();
        s.faults.push(FaultSpec { at: 0, element: 10_000, repair_after: None });
        assert!(s.validate().unwrap_err().contains("element"));

        let mut s = Scenario::by_name("steady-churn").unwrap();
        s.phases[0].mix.clear();
        assert!(s.validate().unwrap_err().contains("empty mix"));

        let mut s = Scenario::by_name("steady-churn").unwrap();
        s.phases[0].arrival = ArrivalDistribution::Pareto { alpha_centi: 100 };
        assert!(s.validate().unwrap_err().contains("Pareto"));

        let mut s = Scenario::by_name("batch-arrival-wave").unwrap();
        s.phases[0].batch = 0;
        assert!(s.validate().unwrap_err().contains("batch"));

        let mut s = Scenario::by_name("overload-backpressure").unwrap();
        s.admission.as_mut().unwrap().max_attempts = 0;
        assert!(s.validate().unwrap_err().contains("admission policy"));

        let mut s = Scenario::by_name("sharded-arrival-storm").unwrap();
        s.cluster.as_mut().unwrap().shards = 0;
        assert!(s.validate().unwrap_err().contains("shard"));

        let mut s = Scenario::by_name("sharded-arrival-storm").unwrap();
        s.cluster.as_mut().unwrap().shards = 10_000;
        assert!(s.validate().unwrap_err().contains("shards"));

        let mut s = Scenario::by_name("cross-shard-rebalance").unwrap();
        s.cluster.as_mut().unwrap().rebalance.as_mut().unwrap().max_moves = 0;
        assert!(s.validate().unwrap_err().contains("rebalance"));

        let mut s = Scenario::by_name("gateway-backpressure").unwrap();
        s.gateway.as_mut().unwrap().channel_capacity = 0;
        assert!(s.validate().unwrap_err().contains("channel_capacity"));

        let mut s = Scenario::by_name("power-cap-skew").unwrap();
        s.power.as_mut().unwrap().set_rate(ElementKind::Dsp, PowerRate::new(400, 10_000));
        assert!(s.validate().unwrap_err().contains("idle"));

        // Unbuildable platforms are refused before anything builds them.
        let mut s = Scenario::by_name("steady-churn").unwrap();
        s.platform = PlatformSpec::DspMesh { width: 0, height: 4 };
        assert!(s.validate().unwrap_err().contains("at least 1"));

        let mut s = Scenario::by_name("steady-churn").unwrap();
        s.platform = PlatformSpec::HeterogeneousMesh { width: 1, height: 3 };
        assert!(s.validate().unwrap_err().contains("at least 4"));

        let mut s = Scenario::by_name("steady-churn").unwrap();
        s.platform = PlatformSpec::DspMesh { width: usize::MAX, height: 2 };
        assert!(s.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn validate_rejects_overlapping_outages_on_one_element() {
        let mut s = Scenario::by_name("steady-churn").unwrap();
        // Second fault strikes while the first outage is still active.
        s.faults = vec![
            FaultSpec { at: 100, element: 5, repair_after: Some(300) },
            FaultSpec { at: 200, element: 5, repair_after: Some(300) },
        ];
        assert!(s.validate().unwrap_err().contains("still active"));

        // A permanent outage can never be followed by another fault there.
        s.faults = vec![
            FaultSpec { at: 100, element: 5, repair_after: None },
            FaultSpec { at: 900, element: 5, repair_after: None },
        ];
        assert!(s.validate().unwrap_err().contains("still active"));

        // A fault at the exact repair tick would race the pending repair
        // (the fault is processed first, the repair then cancels it).
        s.faults = vec![
            FaultSpec { at: 100, element: 5, repair_after: Some(100) },
            FaultSpec { at: 200, element: 5, repair_after: None },
        ];
        assert!(s.validate().unwrap_err().contains("still active"));

        // Strictly separated outages and different elements are fine.
        s.faults = vec![
            FaultSpec { at: 100, element: 5, repair_after: Some(100) },
            FaultSpec { at: 201, element: 5, repair_after: None },
            FaultSpec { at: 150, element: 6, repair_after: Some(10) },
        ];
        s.validate().unwrap();
    }

    /// `watch` meters against the default model and yields to a model
    /// `power` names: either way the report is the `power` run's.
    #[test]
    fn watch_is_metering_against_the_default_model() {
        let report = |s: Scenario| crate::Simulator::new(s).unwrap().run().to_json_string();
        for name in ["slo-burn-storm", "power-cap-skew"] {
            let catalogued = Scenario::by_name(name).unwrap();
            let watched = Scenario {
                watch: Some(WatchSpec),
                power: (name == "power-cap-skew").then(dsp_skewed_power),
                ..catalogued.clone()
            };
            assert_eq!(report(watched), report(catalogued), "{name}");
        }
    }

    #[test]
    fn platform_specs_build() {
        for spec in [
            PlatformSpec::Crisp,
            PlatformSpec::DspMesh { width: 3, height: 2 },
            PlatformSpec::HeterogeneousMesh { width: 2, height: 2 },
            PlatformSpec::HeterogeneousMesh { width: 3, height: 3 },
        ] {
            assert_eq!(spec.element_count(), Ok(spec.build().element_count()), "{spec:?}");
        }
        assert_eq!(PlatformSpec::Crisp.build().element_count(), 62);
        assert_eq!(PlatformSpec::DspMesh { width: 3, height: 2 }.build().element_count(), 6);
        assert!(
            PlatformSpec::HeterogeneousMesh { width: 3, height: 3 }.build().element_count() >= 9
        );
    }
}
