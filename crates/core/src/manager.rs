//! The Kairos run-time resource manager: the four-phase admission pipeline.
//!
//! [`Kairos`] owns the platform state and processes allocation requests
//! exactly as the paper's prototype does: binding → mapping → routing →
//! validation, with per-phase wall-clock timing. The four phases decide a
//! layout and write nothing; only an admitted layout is written, by the
//! one writer (`cache::replay_point`), so a request any phase rejects
//! leaves the platform untouched. Admitted applications can later be
//! released (their elements and links are reclaimed), and element
//! failures can be injected to exercise the fault-tolerance scenario that
//! motivates run-time resource management.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use kairos_app::Application;
use kairos_platform::{
    free_island_count, AppId, ElementId, OccupancyTotals, Platform, PlatformCheckpoint,
};
use kairos_telemetry::{Counter, Histogram, Telemetry, TraceContext};

use crate::binding::bind_in;
use crate::cache::{
    point_fits, replay_point, CacheConfig, CacheStats, CachedDecision, CachedPoint, DecisionStore,
    Recall, Seat,
};
use crate::error::{AllocationError, Phase, CAUSES};
use crate::layout::ExecutionLayout;
use crate::mapping::{map_application_in, MapperConfig};
use crate::metrics::{
    ElementActivity, OccupancySnapshot, PhaseClock, PhaseTimings, ProbedOccupancy,
};
use crate::routing::{release_routes, route_channels_in, RouteAlgorithm};
use crate::validation::{validate_in, ValidationConfig, ValidationReport};
use crate::workspace::Workspace;

mod audit;
mod reloc;

pub use audit::KairosAuditError;
pub use reloc::{CompactMove, CompactReport, VictimPlan};

/// Configuration of the resource manager, covering all four phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KairosConfig {
    /// The mapping phase's knobs.
    pub mapper: MapperConfig,
    /// Path-search algorithm of the routing phase.
    pub route_algorithm: RouteAlgorithm,
    /// Whether the validation phase runs at all. The paper's synthetic-
    /// dataset experiments "do not reject applications in the validation
    /// phase"; disabling validation mirrors that setup exactly, while
    /// enabling it still never rejects constraint-free applications.
    pub validate: bool,
    /// Validation-phase model parameters.
    pub validation: ValidationConfig,
    /// Run the pipeline on the zero [`PhaseClock`]: every recorded
    /// [`PhaseTimings`] duration is exactly zero and `Instant` is never
    /// consulted. Timing never feeds back into any allocation decision,
    /// so this changes no admission outcome — it exists for
    /// byte-determinism-sensitive drivers (the `kairos-sim` engine sets
    /// it) whose outputs must be pure functions of their inputs.
    pub deterministic: bool,
    /// First [`AppId`] this manager assigns (ids count up from here).
    /// Multi-manager deployments (`kairos-cluster` shards) give every
    /// manager a disjoint base so admitted ids are globally unique and an
    /// id alone identifies its home shard. The default of `0` is the
    /// single-manager behaviour.
    pub app_id_base: u32,
    /// The design-time operating-point cache, the keyed tier of the
    /// manager's decision store: when set, every pipeline entry point
    /// first looks up the request's `(shape, platform-state)` key and
    /// replays the stored decision on a hit — O(claims) instead of a full
    /// pipeline run. Keys pin everything an admission reads of the
    /// platform (what is free where, what is used, what has failed — not
    /// who the residents are), so a warm cache changes *which work runs*,
    /// never *what is decided*. `None` (the default) leaves the store
    /// only its last-probe tier, which carries a `probe_admit`'s decision
    /// to the admission that follows it under either setting.
    pub cache: Option<CacheConfig>,
}

impl Default for KairosConfig {
    fn default() -> Self {
        KairosConfig {
            mapper: MapperConfig::default(),
            route_algorithm: RouteAlgorithm::Bfs,
            validate: true,
            validation: ValidationConfig::default(),
            deterministic: false,
            app_id_base: 0,
            cache: None,
        }
    }
}

impl KairosConfig {
    /// A configuration with the given cost policy and defaults elsewhere.
    pub fn with_policy(policy: crate::mapping::CostPolicy) -> Self {
        KairosConfig { mapper: MapperConfig::with_policy(policy), ..KairosConfig::default() }
    }
}

/// Report returned for every successful admission.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionReport {
    /// Identity assigned to the admitted application instance.
    pub app_id: AppId,
    /// Wall-clock time spent per phase.
    pub timings: PhaseTimings,
    /// The computed execution layout, shared with the registry and, when
    /// it keeps the decision, the decision store; never copied.
    pub layout: Arc<ExecutionLayout>,
    /// The validation report, when the validation phase ran.
    pub validation: Option<ValidationReport>,
}

/// A failed admission: the phase-tagged error plus the time spent reaching it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionFailure {
    /// What went wrong, tagged with the rejecting phase and naming what
    /// the request was short of. Boxed once, where the refusal is handed
    /// up, so that layers above can move it on as it is.
    pub error: Box<AllocationError>,
    /// Wall-clock time spent per phase (later phases read zero).
    pub timings: PhaseTimings,
}

impl AdmissionFailure {
    /// The phase that rejected the application.
    pub fn phase(&self) -> Phase {
        self.error.phase()
    }
}

impl fmt::Display for AdmissionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for AdmissionFailure {}

#[derive(Debug, Clone, PartialEq)]
struct AdmittedApp {
    /// The admitted application itself, retained so relocation (live
    /// migration, preemption re-queueing) can re-run the pipeline for it.
    app: Application,
    /// The layout the admission (or the last migration) reported, shared
    /// with that report.
    layout: Arc<ExecutionLayout>,
}

/// Why a live migration failed. The platform is always left exactly as it
/// was before the attempt — a failed migration never half-moves an
/// application.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationError {
    /// The id is not an admitted application.
    UnknownApp(AppId),
    /// The pipeline could not place the application on the allowed
    /// elements while its old claims were still held (make-before-break
    /// needs room for both footprints).
    Admission(AdmissionFailure),
    /// The acceptance check of [`Kairos::migrate_if`] declined the
    /// computed move; everything was rolled back.
    Declined,
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::UnknownApp(id) => write!(f, "{id} is not admitted"),
            MigrationError::Admission(e) => write!(f, "no alternate placement: {e}"),
            MigrationError::Declined => f.write_str("migration declined by acceptance check"),
        }
    }
}

impl std::error::Error for MigrationError {}

/// Report of a completed live migration. The new layout is the one the
/// registry now holds, the old one the one it held before the move: both
/// shared, never copied.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// The migrated application (its id is stable across the move).
    pub app_id: AppId,
    /// The layout the application ran under before the move.
    pub old_layout: Arc<ExecutionLayout>,
    /// The layout it runs under now.
    pub new_layout: Arc<ExecutionLayout>,
    /// Tasks whose hosting element actually changed.
    pub moved_tasks: usize,
    /// Wall-clock time spent per pipeline phase computing the new layout.
    pub timings: PhaseTimings,
}

/// Result of a state-neutral what-if admission ([`Kairos::probe_admit`]):
/// the layout the pipeline would produce, plus what a placement policy
/// reads of the occupancy the platform *would* reach — everything it needs
/// to compare shards without committing anything anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionProbe {
    /// The execution layout the pipeline computed, shared with the
    /// manager's record of the decision: a probe copies no layout.
    pub layout: Arc<ExecutionLayout>,
    /// The fragmentation and resource utilisation the platform would read
    /// with the decision written, derived from the platform's kept
    /// [`OccupancyTotals`] and the decision's seats in O(seats × degree),
    /// without writing them.
    pub after: ProbedOccupancy,
}

/// A point-in-time image of a manager's complete admission state
/// ([`Kairos::checkpoint`]): the platform ledger plus the admission
/// registry and the id counter. Opaque — it exists only to be handed
/// back to [`Kairos::restore`], or compared with another one.
#[derive(Debug, Clone, PartialEq)]
pub struct KairosCheckpoint {
    platform: PlatformCheckpoint,
    admitted: HashMap<AppId, AdmittedApp>,
    next_app: u32,
}

/// The run-time spatial resource manager.
///
/// # Examples
///
/// ```
/// use kairos_core::{Kairos, KairosConfig};
/// use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
/// use kairos_platform::{topology, ElementKind, ResourceVector};
///
/// let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
/// let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(700, 32, 0, 0), 90, 4);
/// let mut b = ApplicationBuilder::new("blinker");
/// let t0 = b.add_task("gen", TaskRole::Input, vec![imp]);
/// let t1 = b.add_task("out", TaskRole::Output, vec![imp]);
/// b.add_channel(t0, t1, 150, 1);
/// let app = b.build()?;
///
/// let report = kairos.admit(&app)?;
/// assert_eq!(kairos.admitted_count(), 1);
/// kairos.release(report.app_id);
/// assert!(kairos.platform().is_idle());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Kairos {
    platform: Platform,
    config: KairosConfig,
    admitted: HashMap<AppId, AdmittedApp>,
    next_app: u32,
    telemetry: Telemetry,
    metrics: Option<CoreMetrics>,
    /// Every decision the manager remembers: the keyed tier iff
    /// [`KairosConfig::cache`] is set, and the last-probe tier (see
    /// `cache.rs`). Only `probe_admit` offers the last-probe tier a
    /// decision — `probe_admit_without` and `migrate_if` decide on the
    /// what-if copy, a state the live platform never takes —
    /// `admit_traced` alone takes it. Nothing clears it: the cost weights,
    /// the one decision input no key covers, are fixed at construction.
    store: DecisionStore,
    /// The working memory of `run_phases`: capacity, never state. Every
    /// phase clears what it uses before reading it, so no decision depends
    /// on what an earlier call left here — which is why a clone starts
    /// with an empty one and checkpoints do not carry it.
    workspace: Workspace,
}

/// Duration bucket bounds shared by all pipeline latency histograms:
/// 1µs .. 1s in decade steps (every value is nanoseconds).
pub const DURATION_NS_BOUNDS: &[u64] =
    &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// Pre-resolved registry handles for the manager's hot paths, built once
/// when telemetry is attached so recording is a single atomic op. Eager
/// registration also makes every pipeline metric visible in snapshots
/// from the first render, whether or not it has fired yet.
#[derive(Debug, Clone)]
struct CoreMetrics {
    /// Per-phase pipeline latency, in [`crate::Phase`] order.
    phase_ns: [Arc<Histogram>; 4],
    admit_ok: Arc<Counter>,
    admit_fail: Arc<Counter>,
    /// Refused admissions by cause, in `AllocationError::cause_index`
    /// order: a partition of `admit_fail`.
    reject: [Arc<Counter>; CAUSES.len()],
    /// Admissions decided by a probe hand-off instead of a pipeline run
    /// (each also counts in `admit_ok` or `admit_fail`).
    admit_replayed: Arc<Counter>,
    probes: Arc<Counter>,
    migrate_attempts: Arc<Counter>,
    migrate_claims: Arc<Counter>,
    migrate_commits: Arc<Counter>,
    migrate_rollbacks: Arc<Counter>,
    reloc_plans_requested: Arc<Counter>,
    reloc_plans_none: Arc<Counter>,
    reloc_plans_found: Arc<Counter>,
    reloc_plan_victims: Arc<Counter>,
    reloc_compact_sweeps: Arc<Counter>,
    reloc_compact_moves: Arc<Counter>,
}

impl CoreMetrics {
    fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        let phase_hist = |name: &str| {
            registry.histogram(&format!("kairos.core.phase.{name}.ns"), DURATION_NS_BOUNDS)
        };
        Some(CoreMetrics {
            phase_ns: [
                phase_hist("binding"),
                phase_hist("mapping"),
                phase_hist("routing"),
                phase_hist("validation"),
            ],
            admit_ok: registry.counter("kairos.core.admit.ok"),
            admit_fail: registry.counter("kairos.core.admit.fail"),
            reject: CAUSES.map(|cause| registry.counter(&format!("kairos.core.reject.{cause}"))),
            admit_replayed: registry.counter("kairos.core.admit.replayed"),
            probes: registry.counter("kairos.core.probes"),
            migrate_attempts: registry.counter("kairos.core.migrate.attempts"),
            migrate_claims: registry.counter("kairos.core.migrate.claims"),
            migrate_commits: registry.counter("kairos.core.migrate.commits"),
            migrate_rollbacks: registry.counter("kairos.core.migrate.rollbacks"),
            reloc_plans_requested: registry.counter("kairos.reloc.plans.requested"),
            reloc_plans_none: registry.counter("kairos.reloc.plans.none"),
            reloc_plans_found: registry.counter("kairos.reloc.plans.found"),
            reloc_plan_victims: registry.counter("kairos.reloc.plan.victims"),
            reloc_compact_sweeps: registry.counter("kairos.reloc.compact.sweeps"),
            reloc_compact_moves: registry.counter("kairos.reloc.compact.moves"),
        })
    }
}

/// A phase duration as whole nanoseconds, saturating at `u64::MAX`
/// (over five centuries — only reachable through clock misbehaviour).
fn duration_ns(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// What an admission decided, before anything is written.
type Decided = Result<Decision, AllocationError>;

/// What an admission wrote, or what a cold run decided (its seats left in
/// the workspace): the layout, built into the one `Arc` everything that
/// holds it shares, and its validation report, or the refusal.
type Admitted = Result<(Arc<ExecutionLayout>, Option<ValidationReport>), AllocationError>;

/// A decided admission.
enum Decision {
    /// What the pipeline just decided against the platform as it stands,
    /// so it fits: the layout, shared from here on, and its validation
    /// report. Its seats are in the workspace.
    Cold(Arc<ExecutionLayout>, Option<ValidationReport>),
    /// A decision the store shares. `fits` when it was decided or settled
    /// against the platform as it stands; a point brought back from
    /// another moment is checked first.
    Shared { point: Arc<CachedPoint>, fits: bool },
}

impl Decision {
    fn cold((layout, validation): (Arc<ExecutionLayout>, Option<ValidationReport>)) -> Self {
        Decision::Cold(layout, validation)
    }

    fn layout(&self) -> &ExecutionLayout {
        match self {
            Decision::Cold(layout, _) => layout,
            Decision::Shared { point, .. } => &point.layout,
        }
    }

    /// The decision's seats: a shared point's, or `cold`, the workspace's.
    fn seats<'a>(&'a self, cold: &'a [Seat]) -> &'a [Seat] {
        match self {
            Decision::Cold(..) => cold,
            Decision::Shared { point, .. } => &point.seats,
        }
    }

    /// The decision as the store shares it; a cold one is recorded with
    /// `cold`, its seats.
    fn into_point(self, cold: &[Seat]) -> Arc<CachedPoint> {
        match self {
            Decision::Cold(layout, validation) => CachedPoint::shared(layout, validation, cold),
            Decision::Shared { point, .. } => point,
        }
    }

    /// The layout and report as they leave the manager: the layout
    /// shared, the report copied.
    fn into_owned(self) -> (Arc<ExecutionLayout>, Option<ValidationReport>) {
        match self {
            Decision::Cold(layout, validation) => (layout, validation),
            Decision::Shared { point, .. } => (Arc::clone(&point.layout), point.validation.clone()),
        }
    }
}

/// `part / whole`, 0 for an empty whole: the element-utilisation and
/// fragmentation ratios of the kept totals.
fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// External resource fragmentation of `platform` from its kept totals:
/// [`kairos_platform::external_fragmentation`] without the walk.
fn fragmentation_of(platform: &Platform) -> f64 {
    share(platform.totals().mixed_pairs, platform.pair_count())
}

impl Kairos {
    /// Creates a resource manager owning `platform`, with telemetry
    /// disabled (attach a hub with [`Kairos::set_telemetry`]).
    ///
    /// Whatever already resides on `platform` must not carry an id this
    /// manager hands out (`config.app_id_base` upwards): the writer claims
    /// an admission under an id no occupant carries yet, and debug builds
    /// assert it.
    pub fn new(platform: Platform, config: KairosConfig) -> Self {
        let next_app = config.app_id_base;
        Kairos {
            platform,
            config,
            admitted: HashMap::new(),
            next_app,
            telemetry: Telemetry::disabled(),
            metrics: None,
            store: DecisionStore::new(config.cache),
            workspace: Workspace::default(),
        }
    }

    /// Attaches an observability hub: the `kairos.core.*` and
    /// `kairos.reloc.*` metrics are registered eagerly, and traced
    /// admissions record their phase spans into its trace sink.
    /// Attaching a disabled hub detaches instrumentation again.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = CoreMetrics::new(&telemetry);
        self.telemetry = telemetry;
    }

    /// The attached observability hub (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Read access to the managed platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The manager's configuration.
    pub fn config(&self) -> &KairosConfig {
        &self.config
    }

    /// Number of currently admitted applications.
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// Ids of all currently admitted applications.
    pub fn admitted_ids(&self) -> Vec<AppId> {
        let mut ids: Vec<AppId> = self.admitted.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The execution layout of an admitted application.
    pub fn layout(&self, id: AppId) -> Option<&ExecutionLayout> {
        self.admitted.get(&id).map(|a| &*a.layout)
    }

    /// The admitted application itself. Relocation layers use this to
    /// re-queue a preempted application without the original submitter's
    /// involvement.
    pub fn application(&self, id: AppId) -> Option<&Application> {
        self.admitted.get(&id).map(|a| &a.app)
    }

    /// External resource fragmentation of the platform (paper §III-A),
    /// read from the platform's kept totals in O(1).
    pub fn fragmentation(&self) -> f64 {
        fragmentation_of(&self.platform)
    }

    /// Fraction of elements hosting at least one task, in `[0, 1]`, read
    /// from the platform's kept totals in O(1).
    pub fn utilisation(&self) -> f64 {
        share(self.platform.totals().used, self.platform.element_count())
    }

    /// An instantaneous snapshot of all occupancy metrics, for time-series
    /// sampling by long-running drivers (the `kairos-sim` scenario engine).
    /// Every ratio reads the platform's kept totals; only the island count
    /// walks the platform (a flood fill), so a caller that needs no islands
    /// reads [`Self::fragmentation`] and its siblings instead.
    pub fn occupancy(&self) -> OccupancySnapshot {
        let totals = self.platform.totals();
        OccupancySnapshot {
            admitted_apps: self.admitted.len(),
            element_utilisation: self.utilisation(),
            resource_utilisation: totals.resource_utilisation(),
            external_fragmentation: self.fragmentation(),
            free_islands: free_island_count(&self.platform),
            failed_elements: totals.failed,
        }
    }

    /// Fraction of the non-failed elements' resources currently claimed,
    /// read from the platform's kept totals in O(1).
    pub fn resource_utilisation(&self) -> f64 {
        self.platform.totals().resource_utilisation()
    }

    /// Per-element busy/failed/resident-apps activity, in element-id order.
    ///
    /// The raw signal behind energy accounting: a pure function of platform
    /// state (like [`Kairos::occupancy`]), suitable for periodic sampling.
    /// Cluster layers translate shard-local ids to global ones.
    pub fn element_activity(&self) -> Vec<ElementActivity> {
        self.platform
            .element_ids()
            .map(|id| {
                let element = self.platform.element(id);
                let mut apps: Vec<AppId> =
                    self.platform.residents(id).iter().map(|o| o.app).collect();
                apps.sort_unstable();
                apps.dedup();
                ElementActivity {
                    element: id,
                    kind: element.kind(),
                    name: element.name().to_string(),
                    busy: self.platform.is_used(id),
                    failed: self.platform.is_failed(id),
                    apps,
                }
            })
            .collect()
    }

    /// Attempts to admit `app`, running all four phases.
    ///
    /// On success all claims stay on the platform and the app is tracked
    /// under the returned id; on failure nothing was written, so the
    /// platform is in its pre-admission state.
    ///
    /// # Errors
    ///
    /// An [`AdmissionFailure`] carrying the rejecting phase, error detail
    /// and the per-phase timings collected up to the rejection.
    pub fn admit(&mut self, app: &Application) -> Result<AdmissionReport, AdmissionFailure> {
        self.admit_traced(app, TraceContext::NONE, 0)
    }

    /// [`Kairos::admit`] under a request trace: each pipeline phase that
    /// runs records a `phase.*` child span of `ctx` at virtual tick `now`
    /// (zero-width — under the virtual clock the pipeline itself takes no
    /// scenario time), annotated with its outcome. With
    /// [`TraceContext::NONE`] this *is* `admit`.
    ///
    /// When the call right before was a [`Kairos::probe_admit`] of the
    /// same application and nothing has touched the platform since, the
    /// probe's decision is committed instead of recomputed: its claims
    /// are replayed or its refusal returned, with the result and platform
    /// state a cold run would have produced and zero `timings`. With an
    /// operating-point cache that counts as the cache hit (and traces as
    /// the `cache.lookup` span) the lookup it replaces would have been;
    /// without one, one `commit.replay` span stands in for the phase
    /// spans.
    ///
    /// # Errors
    ///
    /// See [`Kairos::admit`].
    pub fn admit_traced(
        &mut self,
        app: &Application,
        ctx: TraceContext,
        now: u64,
    ) -> Result<AdmissionReport, AdmissionFailure> {
        let app_id = AppId(self.next_app);
        let mut timings = PhaseTimings::default();

        let probed = self.store.take_probed(app.shape_hash(), self.platform.state_epoch());
        let result = match probed {
            Some((decision, keyed)) => self.hand_off(decision, keyed, app, app_id, ctx, now),
            None => self.place(app, app_id, &mut timings, ctx, now),
        };
        match result {
            Ok((layout, validation)) => {
                self.next_app += 1;
                let admitted = AdmittedApp { app: app.clone(), layout: Arc::clone(&layout) };
                self.admitted.insert(app_id, admitted);
                if let Some(m) = &self.metrics {
                    m.admit_ok.inc();
                }
                Ok(AdmissionReport { app_id, timings, layout, validation })
            }
            Err(error) => {
                let failure = AdmissionFailure { error: Box::new(error), timings };
                if let Some(m) = &self.metrics {
                    m.admit_fail.inc();
                    m.reject[failure.error.cause_index()].inc();
                }
                Err(failure)
            }
        }
    }

    /// Releases the platform claims (element resources and link
    /// reservations) of an admitted application *without* touching the
    /// admission registry: the what-ifs release on the what-if copy, where
    /// the registry must stay as it is; `release` wraps it for the real
    /// thing.
    fn release_claims_of(&mut self, id: AppId) {
        let Some(admitted) = self.admitted.get(&id) else { return };
        // The layout names every element the application holds: release
        // there, each element once, in ascending id order — the order a
        // walk of the platform would visit them in.
        let held = &mut self.workspace.held;
        held.clear();
        held.extend(admitted.layout.placement.iter().map(|(_, e)| e));
        held.sort_unstable();
        held.dedup();
        self.platform.release_app(id, held.iter().copied());
        let bandwidths = admitted.app.channels().map(|c| c.bandwidth());
        release_routes(&mut self.platform, &admitted.layout.routes, bandwidths);
    }

    /// Probes whether `app` could be admitted right now, writing nothing,
    /// and reports the layout the pipeline would produce together with the
    /// fragmentation and resource utilisation the platform would reach.
    ///
    /// This is the fan-out query behind sharded admission
    /// (`kairos-cluster`): every shard manager is probed in turn and a
    /// placement policy compares the returned [`AdmissionProbe`]s to
    /// pick the winning shard. The pipeline decides; what a decision that
    /// fits would leave is the platform's kept totals plus the decision's
    /// seats — O(seats × degree), not a walk of the platform — and nothing
    /// is written.
    ///
    /// The manager keeps what the probe decided, so the winning shard's
    /// [`Kairos::admit`] that follows commits it in O(claims) instead of
    /// deciding again, with or without an operating-point cache; any
    /// platform mutation in between voids it, so that admission decides
    /// as usual. The kept decision shares its layout with the returned
    /// probe; only a cold probe's seats are copied into it.
    ///
    /// # Errors
    ///
    /// The [`AdmissionFailure`] the pipeline would report, if any.
    pub fn probe_admit(&mut self, app: &Application) -> Result<AdmissionProbe, AdmissionFailure> {
        if let Some(m) = &self.metrics {
            m.probes.inc();
        }
        let mut timings = PhaseTimings::default();
        // Probes never trace: the phases of a trial that is not admitted
        // are not part of the request's causal chain (the cluster records
        // one `probe.shard{i}` span per probe instead).
        let probed = self
            .decide(app, &mut timings, TraceContext::NONE, 0)
            .and_then(|d| self.settle(d, app, &mut timings, TraceContext::NONE, 0))
            .map(|decision| {
                let after = self.probed_occupancy(&decision);
                (decision.into_point(self.workspace.mapping.seats()), after)
            });
        // Nothing was written: the epoch is the one the probe settled at.
        let epoch = self.platform.state_epoch();
        let settled = probed.as_ref().map(|(point, _)| Arc::clone(point)).map_err(Clone::clone);
        self.store.keep_probed(app.shape_hash(), epoch, settled);
        probed
            .map(|(point, after)| AdmissionProbe { layout: Arc::clone(&point.layout), after })
            .map_err(|error| AdmissionFailure { error: Box::new(error), timings })
    }

    /// Probes whether `app` could be admitted if the applications in
    /// `without` were released first, leaving the platform state exactly
    /// as it was. Returns the execution layout the pipeline would produce.
    ///
    /// This is the what-if query behind preemption planning: a relocation
    /// planner grows a victim set and asks, per candidate set, whether
    /// evicting it actually unblocks the request. The victims are released
    /// on the manager's what-if copy of the platform and the trial
    /// admission is decided there; the live platform is not written. A
    /// victim listed twice is released once. The layout is the decision's
    /// own, shared with the decision store when it keeps the decision;
    /// never copied.
    ///
    /// # Errors
    ///
    /// The [`AdmissionFailure`] the pipeline would report, if any.
    pub fn probe_admit_without(
        &mut self,
        app: &Application,
        without: &[AppId],
    ) -> Result<Arc<ExecutionLayout>, AdmissionFailure> {
        if let Some(m) = &self.metrics {
            m.probes.inc();
        }
        let mut timings = PhaseTimings::default();
        let decided = self.on_copy(|this| {
            for (i, &victim) in without.iter().enumerate() {
                if !without[..i].contains(&victim) {
                    this.release_claims_of(victim);
                }
            }
            this.decide(app, &mut timings, TraceContext::NONE, 0)
        });
        decided
            .map(|decision| decision.into_owned().0)
            .map_err(|error| AdmissionFailure { error: Box::new(error), timings })
    }

    /// Live-migrates an admitted application to a fresh placement computed
    /// by the full pipeline, avoiding the `avoid` elements. Equivalent to
    /// [`Kairos::migrate_if`] with an acceptance check that always accepts.
    ///
    /// # Errors
    ///
    /// See [`Kairos::migrate_if`].
    pub fn migrate(
        &mut self,
        id: AppId,
        avoid: &[ElementId],
    ) -> Result<MigrationReport, MigrationError> {
        self.migrate_if(id, avoid, |_, _, _| true)
    }

    /// Live-migrates an admitted application, letting `accept` veto the
    /// move after seeing the would-be result.
    ///
    /// The move is decided and tried on the manager's what-if copy of the
    /// platform, then committed on the live one, make-before-break:
    ///
    /// 1. **decide** — on the copy, the pipeline re-runs for the
    ///    application with its old claims still in place (so a migration
    ///    needs room for both footprints at once);
    /// 2. **move the copy** — the old claims are released there and the
    ///    new placement is written under the application's own id, which
    ///    is stable across the move;
    /// 3. **accept, then commit** — `accept` sees the old layout, the new
    ///    layout and the moved copy. Accepting commits the move on the
    ///    live platform: the old claims are released, then the one writer
    ///    claims the new placement. Declining (or any earlier failure)
    ///    leaves the live platform as it was, so the application is never
    ///    left half-moved.
    ///
    /// Elements in `avoid` are off-limits to the new placement (they are
    /// failure-marked on the copy for the pipeline run and restored
    /// before `accept` runs); ids outside the platform are skipped.
    ///
    /// # Errors
    ///
    /// [`MigrationError::UnknownApp`] for unknown ids,
    /// [`MigrationError::Admission`] when no alternate placement exists
    /// under the avoidance set and current occupancy, and
    /// [`MigrationError::Declined`] when `accept` vetoed the move. In
    /// every error case the platform was not written at all.
    pub fn migrate_if(
        &mut self,
        id: AppId,
        avoid: &[ElementId],
        accept: impl FnOnce(&ExecutionLayout, &ExecutionLayout, &Platform) -> bool,
    ) -> Result<MigrationReport, MigrationError> {
        let Some(admitted) = self.admitted.get(&id) else {
            return Err(MigrationError::UnknownApp(id));
        };
        let app = admitted.app.clone();
        let old_layout = Arc::clone(&admitted.layout);

        if let Some(m) = &self.metrics {
            m.migrate_attempts.inc();
        }
        let mut timings = PhaseTimings::default();
        let moved = self.on_copy(|this| {
            // Failure-mark the avoided elements so the pipeline's searches
            // skip them; only elements not already failed are restored
            // afterwards.
            let mut masked: Vec<ElementId> = Vec::new();
            for &e in avoid {
                if this.is_live_element(e) && !masked.contains(&e) {
                    this.platform.fail_element(e);
                    masked.push(e);
                }
            }
            let decision = this
                .decide(&app, &mut timings, TraceContext::NONE, 0)
                .and_then(|d| this.settle(d, &app, &mut timings, TraceContext::NONE, 0))?;
            for e in masked {
                this.platform.repair_element(e);
            }
            this.release_claims_of(id);
            this.write_decision(&decision, &app, id);
            let accepted = accept(&old_layout, decision.layout(), &this.platform);
            Ok((decision, accepted))
        });
        match moved {
            Err(error) => {
                let failure = AdmissionFailure { error: Box::new(error), timings };
                if let Some(m) = &self.metrics {
                    m.migrate_rollbacks.inc();
                }
                Err(MigrationError::Admission(failure))
            }
            Ok((decision, accepted)) => {
                // The alternate placement was found, and the move made on
                // the copy.
                if let Some(m) = &self.metrics {
                    m.migrate_claims.inc();
                }
                if !accepted {
                    if let Some(m) = &self.metrics {
                        m.migrate_rollbacks.inc();
                    }
                    return Err(MigrationError::Declined);
                }
                // Commit on the live platform: the new placement fit beside
                // the old one, so it lands once the old claims are gone.
                self.release_claims_of(id);
                self.write_decision(&decision, &app, id);
                let new_layout = decision.into_owned().0;
                if let Some(m) = &self.metrics {
                    m.migrate_commits.inc();
                }
                let moved_tasks = old_layout
                    .placement
                    .iter()
                    .zip(new_layout.placement.iter())
                    .filter(|((_, old), (_, new))| old != new)
                    .count();
                let entry = self.admitted.get_mut(&id).expect("checked above");
                entry.layout = Arc::clone(&new_layout);
                Ok(MigrationReport { app_id: id, old_layout, new_layout, moved_tasks, timings })
            }
        }
    }

    /// The timing source of the pipeline: the wall clock, or the zero
    /// clock under [`KairosConfig::deterministic`].
    fn phase_clock(&self) -> PhaseClock {
        if self.config.deterministic {
            PhaseClock::zero()
        } else {
            PhaseClock::wall()
        }
    }

    /// Records one pipeline-step child span of `ctx` (a `phase.*`, or
    /// `commit.replay`) at tick `now` — zero width (the pipeline takes no
    /// virtual time), annotated with the step's outcome. Free when
    /// tracing is off or `ctx` is absent.
    fn trace_phase(&self, ctx: TraceContext, now: u64, name: &str, ok: bool) {
        if ctx.is_some() {
            let outcome = if ok { "ok" } else { "rejected" };
            self.telemetry.trace_child(ctx, name, now, now, &[("outcome", outcome.to_owned())]);
        }
    }

    /// The four phases, deciding `app` against the platform as it stands.
    /// They read it through `&Platform` and write nothing; the one write
    /// here is the free rank's refresh before binding, which is history,
    /// not state. An admission's seats are left in the workspace.
    fn run_phases(
        &mut self,
        app: &Application,
        timings: &mut PhaseTimings,
        ctx: TraceContext,
        now: u64,
    ) -> Admitted {
        let clock = self.phase_clock();

        // Phase 1: binding, on a free-capacity rank brought up to date with
        // whatever was mutated since the last cold run.
        let start = clock.start();
        self.platform.refresh_free_rank();
        let binding = bind_in(app, &self.platform, &mut self.workspace.binding);
        let platform = &self.platform;
        let elapsed = start.elapsed();
        timings.set(Phase::Binding, elapsed);
        if let Some(m) = &self.metrics {
            m.phase_ns[0].record(duration_ns(elapsed));
        }
        self.trace_phase(ctx, now, "phase.binding", binding.is_ok());
        let binding = binding?;

        // Phase 2: mapping, through the request's own per-element debits.
        let start = clock.start();
        let mapper = &self.config.mapper;
        let mapping =
            map_application_in(app, &binding, platform, mapper, &mut self.workspace.mapping);
        let elapsed = start.elapsed();
        timings.set(Phase::Mapping, elapsed);
        if let Some(m) = &self.metrics {
            m.phase_ns[1].record(duration_ns(elapsed));
        }
        self.trace_phase(ctx, now, "phase.mapping", mapping.is_ok());
        let mapping = mapping?;

        // Phase 3: routing, through the request's own per-link debits.
        let start = clock.start();
        let routes = route_channels_in(
            app,
            &mapping.placement,
            platform,
            self.config.route_algorithm,
            &mut self.workspace.routing,
        );
        let elapsed = start.elapsed();
        timings.set(Phase::Routing, elapsed);
        if let Some(m) = &self.metrics {
            m.phase_ns[2].record(duration_ns(elapsed));
        }
        self.trace_phase(ctx, now, "phase.routing", routes.is_ok());
        let routes = routes?;

        let layout = ExecutionLayout { binding, placement: mapping.placement, routes };

        // Phase 4: validation.
        let validation = if self.config.validate {
            let start = clock.start();
            let report =
                validate_in(app, &layout, &self.config.validation, &mut self.workspace.validation);
            let elapsed = start.elapsed();
            timings.set(Phase::Validation, elapsed);
            if let Some(m) = &self.metrics {
                m.phase_ns[3].record(duration_ns(elapsed));
            }
            self.trace_phase(ctx, now, "phase.validation", report.is_ok());
            Some(report?)
        } else {
            None
        };

        Ok((Arc::new(layout), validation))
    }

    /// Decides `app` and admits the decision under `app_id`: the pipeline
    /// entry point behind every admission and migration attempt.
    fn place(
        &mut self,
        app: &Application,
        app_id: AppId,
        timings: &mut PhaseTimings,
        ctx: TraceContext,
        now: u64,
    ) -> Admitted {
        let decision = self.decide(app, timings, ctx, now)?;
        self.commit(decision, app, app_id, timings, ctx, now)
    }

    /// Decides `app` against the platform as it stands, writing nothing:
    /// asks the decision store's keyed tier, when there is one, carrying a
    /// stored decision back on a hit, and runs the cold four-phase
    /// pipeline otherwise, storing what it decided on a miss under the
    /// pre-run `(shape, stamp)` key, so the identical question asked from
    /// the identical platform state is answered from the store instead.
    ///
    /// A hit requires the exact `(shape, admission-view)` key — the stamp
    /// digests what the pipeline reads of the platform, not who resides
    /// on it, and the pipeline decides under no id at all — so the stored
    /// decision is the one a cold run from this state would make.
    /// `timings` stays zero on a hit (there are no phases to time —
    /// deterministic drivers zero the cold path's clock too, so the cache
    /// never changes report bytes).
    fn decide(
        &mut self,
        app: &Application,
        timings: &mut PhaseTimings,
        ctx: TraceContext,
        now: u64,
    ) -> Decided {
        let key = match self.store.recall(app.shape_hash(), &mut self.platform) {
            Recall::Cold => return self.run_phases(app, timings, ctx, now).map(Decision::cold),
            Recall::Hit(decision) => {
                self.trace_lookup(ctx, now, true);
                return decision.map(|point| Decision::Shared { point, fits: false });
            }
            Recall::Miss(key) => {
                self.trace_lookup(ctx, now, false);
                key
            }
        };
        // The record takes the layout; what leaves the manager shares it.
        let recorded: CachedDecision = self
            .run_phases(app, timings, ctx, now)
            .map(|(l, v)| CachedPoint::shared(l, v, self.workspace.mapping.seats()));
        self.store.remember(key, recorded.clone());
        recorded.map(|point| Decision::Shared { point, fits: true })
    }

    /// Traces a keyed-tier lookup: a `cache.lookup` child span of `ctx`
    /// with its outcome. The store's own `CacheStats` count it.
    fn trace_lookup(&self, ctx: TraceContext, now: u64, hit: bool) {
        if ctx.is_some() {
            let outcome = if hit { "hit" } else { "miss" };
            let args = [("outcome", outcome.to_owned())];
            self.telemetry.trace_child(ctx, "cache.lookup", now, now, &args);
        }
    }

    /// Admits a decision onto the platform under `app_id`: settled, then
    /// written by the one writer.
    fn commit(
        &mut self,
        decision: Decision,
        app: &Application,
        app_id: AppId,
        timings: &mut PhaseTimings,
        ctx: TraceContext,
        now: u64,
    ) -> Admitted {
        let decision = self.settle(decision, app, timings, ctx, now)?;
        self.write_decision(&decision, app, app_id);
        Ok(decision.into_owned())
    }

    /// Commits the decision the probe right before settled at this very
    /// state: no stamp, no lookup, no copy and no second fit check.
    /// Under a keyed tier (`keyed`) it accounts as the hit the lookup it
    /// replaces would have been; without one, as a replayed admission,
    /// with one `commit.replay` span where the `phase.*` spans would be.
    /// `timings` stays zero, as on a cache hit.
    fn hand_off(
        &mut self,
        decision: CachedDecision,
        keyed: bool,
        app: &Application,
        app_id: AppId,
        ctx: TraceContext,
        now: u64,
    ) -> Admitted {
        if keyed {
            self.trace_lookup(ctx, now, true);
        }
        let mut timings = PhaseTimings::default();
        let result = decision.and_then(|point| {
            let settled = Decision::Shared { point, fits: true };
            self.commit(settled, app, app_id, &mut timings, ctx, now)
        });
        if !keyed {
            if let Some(m) = &self.metrics {
                m.admit_replayed.inc();
            }
            self.trace_phase(ctx, now, "commit.replay", result.is_ok());
        }
        result
    }

    /// Makes `decision` one that fits the platform as it stands, writing
    /// nothing. A decision made or settled against this very state fits
    /// (debug-asserted). One brought back by a keyed hit fits unless
    /// something short of a 128-bit stamp collision carried it to a state
    /// it does not fit; then the cold pipeline decides instead — the
    /// decision store must never change an admission outcome.
    fn settle(
        &mut self,
        decision: Decision,
        app: &Application,
        timings: &mut PhaseTimings,
        ctx: TraceContext,
        now: u64,
    ) -> Decided {
        let seats = decision.seats(self.workspace.mapping.seats());
        let routes = &decision.layout().routes;
        let bandwidths = app.channels().map(|c| c.bandwidth());
        if matches!(decision, Decision::Cold(..) | Decision::Shared { fits: true, .. }) {
            debug_assert!(
                point_fits(&self.platform, seats, routes, bandwidths, &mut self.workspace.fit),
                "a decision fits the state it was decided against"
            );
            return Ok(decision);
        }
        if point_fits(&self.platform, seats, routes, bandwidths, &mut self.workspace.fit) {
            return Ok(decision);
        }
        self.run_phases(app, timings, ctx, now).map(Decision::cold)
    }

    /// Writes a settled decision onto the platform under `app_id`.
    fn write_decision(&mut self, decision: &Decision, app: &Application, app_id: AppId) {
        let seats = decision.seats(self.workspace.mapping.seats());
        let bandwidths = app.channels().map(|c| c.bandwidth());
        replay_point(&mut self.platform, app_id, seats, &decision.layout().routes, bandwidths);
    }

    /// The fragmentation and resource utilisation the platform would read
    /// with `decision` written, from its kept totals and the decision's
    /// seats instead of writing them: the seats' claims leave the free
    /// total, and each element a seat newly uses flips its pairs, one flip
    /// at a time (`seated` holds the flipped ones). Exact integers: the
    /// claims lie on live elements, within their free vectors.
    fn probed_occupancy(&mut self, decision: &Decision) -> ProbedOccupancy {
        let platform = &self.platform;
        let totals = platform.totals();
        debug_assert_eq!(
            totals,
            platform.totals_from_scratch(),
            "a platform mutation went unkept in the occupancy totals"
        );
        let seated = &mut self.workspace.seated;
        seated.reset(platform.element_count());
        let (mut claimed, mut mixed_pairs) = (0, totals.mixed_pairs);
        for &(element, _, claim) in decision.seats(self.workspace.mapping.seats()) {
            claimed += claim.total();
            if !platform.is_used(element) && seated.insert(element.index()) {
                let change = platform.mixed_pair_change(element, |e| {
                    platform.is_used(e) || seated.contains(e.index())
                });
                mixed_pairs = mixed_pairs.wrapping_add_signed(change);
            }
        }
        ProbedOccupancy {
            external_fragmentation: share(mixed_pairs, platform.pair_count()),
            resource_utilisation: OccupancyTotals { free: totals.free - claimed, ..totals }
                .resource_utilisation(),
        }
    }

    /// Runs `what_if` on the manager's what-if copy of its platform,
    /// brought to the live state first (into the buffers the last what-if
    /// left): for the call, `self.platform` *is* the copy, so releases,
    /// decisions and the writer all work on it while the live platform is
    /// out of reach. Afterwards `self.platform` is the live platform again,
    /// untouched, and the copy goes back to the workspace.
    fn on_copy<R>(&mut self, what_if: impl FnOnce(&mut Self) -> R) -> R {
        let mut copy = self.workspace.what_if.take().unwrap_or_else(|| self.platform.clone());
        copy.copy_state_from(&self.platform);
        let live = std::mem::replace(&mut self.platform, copy);
        let result = what_if(self);
        self.workspace.what_if = Some(std::mem::replace(&mut self.platform, live));
        result
    }

    /// Lifetime counters of the operating-point cache, `None` when no
    /// cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.store.stats()
    }

    /// Captures the manager's complete admission state — platform ledger,
    /// admission registry and id counter — for a later
    /// [`Kairos::restore`]. The decision store is *not* part of the
    /// image: cached decisions are keyed by platform state, so they stay
    /// valid across a rewind. What makes that safe is that
    /// `Platform::restore` voids the maintained stamp wholesale, so the
    /// next cache lookup digests the restored state instead of trusting
    /// per-record digests from before the rewind; and it bumps the state
    /// epoch, which voids a kept probe decision.
    pub fn checkpoint(&self) -> KairosCheckpoint {
        KairosCheckpoint {
            platform: self.platform.checkpoint(),
            admitted: self.admitted.clone(),
            next_app: self.next_app,
        }
    }

    /// Rewinds the manager to a previously captured checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint belongs to a structurally different
    /// platform (see `Platform::restore`).
    pub fn restore(&mut self, checkpoint: KairosCheckpoint) {
        self.platform.restore(checkpoint.platform);
        self.admitted = checkpoint.admitted;
        self.next_app = checkpoint.next_app;
    }

    /// Releases an admitted application, reclaiming all its element and
    /// link resources. Returns `false` when `id` is unknown.
    pub fn release(&mut self, id: AppId) -> bool {
        self.release_claims_of(id);
        self.admitted.remove(&id).is_some()
    }

    /// Releases every admitted application.
    pub fn release_all(&mut self) {
        for id in self.admitted_ids() {
            self.release(id);
        }
    }

    /// Marks `element` as failed and evicts every application with a task
    /// placed on it, returning the evicted ids (candidates for re-admission
    /// on the remaining healthy elements). Failing an element that is
    /// already failed, or an id outside the platform, is no mutation: it
    /// changes nothing, not even the state epoch or the cache, and evicts
    /// no one (nothing sits there).
    pub fn fail_element(&mut self, element: ElementId) -> Vec<AppId> {
        if !self.is_live_element(element) {
            return Vec::new();
        }
        self.platform.fail_element(element);
        let victims: Vec<AppId> = self
            .admitted
            .iter()
            .filter(|(_, a)| a.layout.placement.iter().any(|(_, e)| e == element))
            .map(|(&id, _)| id)
            .collect();
        let mut sorted = victims;
        sorted.sort_unstable();
        for &id in &sorted {
            self.release(id);
        }
        sorted
    }

    /// Clears the failure mark on a failed `element` and returns whether it
    /// did. Cached decisions need no sweep: a state from before the fault
    /// can recur once the element is back (an idle platform does), and a
    /// decision stored for it replays then as it would have before.
    /// Repairing a healthy element, or an id outside the platform, is no
    /// mutation: it changes nothing, not even the state epoch or the
    /// cache.
    pub fn repair_element(&mut self, element: ElementId) -> bool {
        let failed =
            element.index() < self.platform.element_count() && self.platform.is_failed(element);
        if failed {
            self.platform.repair_element(element);
        }
        failed
    }

    /// Whether `element` is on the platform and not failed.
    fn is_live_element(&self, element: ElementId) -> bool {
        element.index() < self.platform.element_count() && !self.platform.is_failed(element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Constraint, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, ResourceVector};

    fn dsp(cpu: u64) -> Implementation {
        Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 16, 0, 0), 50, 1)
    }

    fn chain(name: &str, n: usize, cpu: u64, bw: u64) -> Application {
        let mut b = ApplicationBuilder::new(name);
        let mut prev = None;
        for i in 0..n {
            let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![dsp(cpu)]);
            if let Some(p) = prev {
                b.add_channel(p, t, bw, 1);
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn admit_and_release_restores_idle_platform() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let app = chain("c", 4, 700, 100);
        let report = kairos.admit(&app).unwrap();
        assert!(!kairos.platform().is_idle());
        assert_eq!(kairos.admitted_count(), 1);
        assert!(report.validation.is_some());
        assert!(kairos.layout(report.app_id).is_some());
        assert!(kairos.release(report.app_id));
        assert!(kairos.platform().is_idle());
        assert!(!kairos.release(report.app_id), "double release is refused");
    }

    #[test]
    fn failed_admissions_leave_no_trace() {
        let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let app = chain("big", 5, 1000, 100);
        let failure = kairos.admit(&app).unwrap_err();
        assert_eq!(failure.phase(), Phase::Binding);
        assert!(kairos.platform().is_idle());
        assert_eq!(kairos.admitted_count(), 0);
        assert!(failure.timings.binding > std::time::Duration::ZERO);
        assert_eq!(failure.timings.mapping, std::time::Duration::ZERO);
    }

    #[test]
    fn each_reject_counter_is_named_after_its_cause() {
        let telemetry = Telemetry::new(kairos_telemetry::TelemetryConfig::default());
        let metrics = CoreMetrics::new(&telemetry).unwrap();
        let registry = telemetry.registry().unwrap();
        for (counter, cause) in metrics.reject.iter().zip(crate::error::CAUSES) {
            let named = registry.counter(&["kairos.core.reject", cause].join("."));
            assert!(Arc::ptr_eq(counter, &named), "{cause}");
        }
    }

    #[test]
    fn app_ids_are_unique_across_admissions() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let app = chain("c", 2, 500, 50);
        let a = kairos.admit(&app).unwrap().app_id;
        let b = kairos.admit(&app).unwrap().app_id;
        assert_ne!(a, b);
        kairos.release_all();
        assert!(kairos.platform().is_idle());
        let c = kairos.admit(&app).unwrap().app_id;
        assert_ne!(c, b, "ids are not recycled");
    }

    #[test]
    fn validation_rejects_infeasible_constraints() {
        let mut b = ApplicationBuilder::new("tight");
        let t0 = b.add_task("a", TaskRole::Input, vec![dsp(500)]);
        let t1 = b.add_task("b", TaskRole::Output, vec![dsp(500)]);
        b.add_channel(t0, t1, 100, 1);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 1 });
        let app = b.build().unwrap();
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let failure = kairos.admit(&app).unwrap_err();
        assert_eq!(failure.phase(), Phase::Validation);
        assert!(kairos.platform().is_idle(), "validation failure rolls back claims");
    }

    #[test]
    fn disabling_validation_skips_the_phase() {
        let config = KairosConfig { validate: false, ..KairosConfig::default() };
        let mut kairos = Kairos::new(topology::crisp(), config);
        let app = chain("c", 3, 500, 50);
        let report = kairos.admit(&app).unwrap();
        assert!(report.validation.is_none());
        assert_eq!(report.timings.validation, std::time::Duration::ZERO);
    }

    #[test]
    fn saturation_eventually_rejects() {
        let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let app = chain("c", 2, 900, 100);
        assert!(kairos.admit(&app).is_ok());
        assert!(kairos.admit(&app).is_ok());
        let failure = kairos.admit(&app).unwrap_err();
        assert_eq!(failure.phase(), Phase::Binding, "aggregate resources exhausted");
    }

    #[test]
    fn element_failure_evicts_and_allows_readmission() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let app = chain("c", 3, 700, 100);
        let report = kairos.admit(&app).unwrap();
        let victim_element = report.layout.placement.element(kairos_app::TaskId(0));
        let evicted = kairos.fail_element(victim_element);
        assert_eq!(evicted, vec![report.app_id]);
        assert_eq!(kairos.admitted_count(), 0);
        // Re-admission must avoid the failed element.
        let second = kairos.admit(&app).unwrap();
        for (_, e) in second.layout.placement.iter() {
            assert_ne!(e, victim_element);
        }
        kairos.repair_element(victim_element);
        assert!(!kairos.platform().is_failed(victim_element));
    }

    #[test]
    fn occupancy_snapshot_tracks_admission_and_release() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let idle = kairos.occupancy();
        assert_eq!(idle.admitted_apps, 0);
        assert_eq!(idle.element_utilisation, 0.0);
        assert_eq!(idle.resource_utilisation, 0.0);
        assert_eq!(idle.free_islands, 1);
        assert_eq!(idle.failed_elements, 0);

        let report = kairos.admit(&chain("c", 3, 700, 100)).unwrap();
        let busy = kairos.occupancy();
        assert_eq!(busy.admitted_apps, 1);
        assert!(busy.element_utilisation > 0.0);
        assert!(busy.resource_utilisation > 0.0);
        assert_eq!(busy.element_utilisation, kairos.utilisation());

        // The snapshot's kept totals read what the platform's vector walks
        // read, failed elements excluded from both sides of the ratio.
        let spare = kairos.platform().element_ids().find(|&e| !kairos.platform().is_used(e));
        kairos.fail_element(spare.unwrap());
        let degraded = kairos.occupancy();
        let free: u64 = kairos.platform().total_free().as_array().iter().sum();
        let capacity: u64 = kairos.platform().total_capacity().as_array().iter().sum();
        assert_eq!(degraded.resource_utilisation, 1.0 - free as f64 / capacity as f64);
        assert_eq!(degraded.element_utilisation, kairos.utilisation());
        assert_eq!(degraded.failed_elements, kairos.platform().failed_elements().len());
        assert!(degraded.resource_utilisation > busy.resource_utilisation);
        kairos.repair_element(spare.unwrap());

        kairos.release(report.app_id);
        assert_eq!(kairos.occupancy(), idle, "release restores the idle snapshot");
    }

    #[test]
    fn probe_admit_reports_the_would_be_occupancy_without_committing() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let before = kairos.platform().checkpoint();
        let idle = kairos.occupancy();
        let ghost = chain("ghost", 3, 700, 100);
        let probe = kairos.probe_admit(&ghost).unwrap();
        assert_eq!(probe.layout.placement.len(), 3);
        assert!(probe.after.resource_utilisation > idle.resource_utilisation);
        let mut written = kairos.clone();
        written.admit(&ghost).unwrap();
        let expected = ProbedOccupancy {
            external_fragmentation: written.fragmentation(),
            resource_utilisation: written.resource_utilisation(),
        };
        assert_eq!(probe.after, expected, "the probe reads what its admission writes");
        assert_eq!(kairos.platform().checkpoint(), before, "probe must be state-neutral");
        assert_eq!(kairos.occupancy(), idle);
        // A failing probe reports the pipeline's failure, equally traceless.
        let mut tiny = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let failure = tiny.probe_admit(&chain("big", 5, 1000, 100)).unwrap_err();
        assert_eq!(failure.phase(), Phase::Binding);
        assert!(tiny.platform().is_idle());
    }

    #[test]
    fn app_id_base_offsets_every_assigned_id() {
        let config = KairosConfig { app_id_base: 500, ..KairosConfig::default() };
        let mut kairos = Kairos::new(topology::crisp(), config);
        let app = chain("c", 2, 500, 50);
        let a = kairos.admit(&app).unwrap().app_id;
        let b = kairos.admit(&app).unwrap().app_id;
        assert_eq!(a, AppId(500));
        assert_eq!(b, AppId(501));
        assert!(kairos.release(a) && kairos.release(b));
        assert!(kairos.platform().is_idle(), "offset ids release cleanly");
    }

    #[test]
    fn probe_admit_without_leaves_no_trace() {
        let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let resident = kairos.admit(&chain("fill", 4, 900, 100)).unwrap().app_id;
        let before = kairos.platform().checkpoint();
        let blocked = chain("blocked", 2, 900, 100);
        // Blocked while the resident holds the mesh...
        assert!(kairos.probe_admit_without(&blocked, &[]).is_err());
        // ...admittable if the resident were gone — but nothing changes.
        let layout = kairos.probe_admit_without(&blocked, &[resident]).unwrap();
        assert_eq!(layout.placement.len(), 2);
        assert_eq!(kairos.platform().checkpoint(), before, "probe must be state-neutral");
        assert_eq!(kairos.admitted_count(), 1);
        assert!(kairos.layout(resident).is_some());
    }

    #[test]
    fn a_victim_named_twice_is_released_once() {
        // Three non-local routes: a second release of them would return
        // link capacity the platform never lent.
        let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let resident = kairos.admit(&chain("fill", 4, 900, 100)).unwrap().app_id;
        let before = kairos.platform().checkpoint();
        let blocked = chain("blocked", 2, 900, 100);
        let once = kairos.probe_admit_without(&blocked, &[resident]);
        assert!(once.is_ok());
        assert_eq!(kairos.probe_admit_without(&blocked, &[resident, resident]), once);
        assert_eq!(kairos.platform().checkpoint(), before, "probe must be state-neutral");
    }

    #[test]
    fn migrate_keeps_id_and_balances_claims() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let app = chain("mover", 3, 700, 100);
        let report = kairos.admit(&app).unwrap();
        let id = report.app_id;
        let old_elements: Vec<_> = report.layout.placement.iter().map(|(_, e)| e).collect();

        // Force the app off every element it currently occupies.
        let migration = kairos.migrate(id, &old_elements).unwrap();
        assert_eq!(migration.app_id, id, "identity is stable across the move");
        assert_eq!(migration.moved_tasks, 3);
        for (_, e) in migration.new_layout.placement.iter() {
            assert!(!old_elements.contains(&e), "avoided elements must not be reused");
            assert!(!kairos.platform().is_failed(e));
        }
        assert_eq!(kairos.admitted_count(), 1);
        assert_eq!(kairos.layout(id), Some(&*migration.new_layout));
        // Accounting balance: releasing the migrated app restores idle.
        assert!(kairos.release(id));
        assert!(kairos.platform().is_idle(), "claims = releases + live must hold after a move");
    }

    #[test]
    fn failed_migration_never_half_moves() {
        let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let report = kairos.admit(&chain("pinned", 2, 900, 100)).unwrap();
        let before = kairos.platform().checkpoint();
        // Avoiding the whole mesh leaves nowhere to go.
        let everywhere: Vec<_> = kairos.platform().element_ids().collect();
        let err = kairos.migrate(report.app_id, &everywhere).unwrap_err();
        assert!(matches!(err, MigrationError::Admission(_)));
        assert_eq!(kairos.platform().checkpoint(), before, "failed move rolls back exactly");
        assert_eq!(kairos.layout(report.app_id), Some(&*report.layout));
        assert!(!kairos.platform().element_ids().any(|e| kairos.platform().is_failed(e)));
    }

    #[test]
    fn declined_migration_rolls_back() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let report = kairos.admit(&chain("stay", 3, 700, 100)).unwrap();
        let before = kairos.platform().checkpoint();
        let err = kairos.migrate_if(report.app_id, &[], |_, _, _| false).unwrap_err();
        assert_eq!(err, MigrationError::Declined);
        assert_eq!(kairos.platform().checkpoint(), before);
        assert_eq!(kairos.layout(report.app_id), Some(&*report.layout));
        assert!(matches!(
            kairos.migrate(AppId(999), &[]),
            Err(MigrationError::UnknownApp(AppId(999)))
        ));
    }

    #[test]
    fn deterministic_config_zeroes_all_timings() {
        let config = KairosConfig { deterministic: true, ..KairosConfig::default() };
        let mut kairos = Kairos::new(topology::crisp(), config);
        let report = kairos.admit(&chain("c", 4, 700, 100)).unwrap();
        assert_eq!(report.timings, PhaseTimings::default(), "zero clock records nothing");
        let mut full = Kairos::new(topology::dsp_mesh(2, 2), config);
        let failure = full.admit(&chain("big", 5, 1000, 100)).unwrap_err();
        assert_eq!(failure.timings, PhaseTimings::default());
    }

    #[test]
    fn fragmentation_rises_with_occupancy() {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        assert_eq!(kairos.fragmentation(), 0.0);
        kairos.admit(&chain("c", 3, 700, 100)).unwrap();
        assert!(kairos.fragmentation() > 0.0);
    }

    /// Under a keyed tier the admission after a probe takes the probe's
    /// decision, and accounts exactly as the keyed lookup it replaces:
    /// one hit, one `cache.lookup` span with outcome `hit`, no
    /// `commit.replay` span and no `admit.replayed`.
    #[test]
    fn a_keyed_hand_off_accounts_as_the_lookup_it_replaces() {
        let cached =
            KairosConfig { cache: Some(CacheConfig::default()), ..KairosConfig::default() };
        let mut kairos = Kairos::new(topology::crisp(), cached);
        let config = kairos_telemetry::TelemetryConfig { tracing: true, wall_clock: false };
        let telemetry = Telemetry::new(config);
        kairos.set_telemetry(telemetry.clone());
        let count = |name: &str| telemetry.counter(name).unwrap().get();
        let app = chain("c", 3, 700, 100);

        kairos.probe_admit(&app).unwrap();
        let probed = CacheStats { misses: 1, insertions: 1, points: 1, ..CacheStats::default() };
        assert_eq!(kairos.cache_stats(), Some(probed), "the probe decided cold and stored it");
        let replayed = count("kairos.core.admit.replayed");

        let ctx = telemetry.trace_root("request", 0, &[]);
        let report = kairos.admit_traced(&app, ctx, 0).unwrap();
        assert_eq!(report.timings, PhaseTimings::default(), "no phase ran");
        let spans: Vec<(String, Option<String>)> = telemetry
            .trace_dump()
            .iter()
            .filter(|span| span.parent != kairos_telemetry::ROOT_PARENT)
            .map(|span| (span.name.clone(), span.arg("outcome").map(str::to_owned)))
            .collect();
        assert_eq!(spans, [("cache.lookup".to_owned(), Some("hit".to_owned()))]);
        assert_eq!(count("kairos.core.admit.replayed"), replayed);
        assert_eq!(kairos.cache_stats(), Some(CacheStats { hits: 1, ..probed }));
    }

    #[test]
    fn a_recurring_occupancy_hits_whoever_holds_it() {
        let cached =
            KairosConfig { cache: Some(CacheConfig::default()), ..KairosConfig::default() };
        let mut kairos = Kairos::new(topology::crisp(), cached);
        let (a, b) = (chain("a", 3, 600, 80), chain("b", 4, 700, 100));
        let hits = |k: &Kairos| k.cache_stats().unwrap().hits;

        let b1 = kairos.admit(&b).unwrap();
        let a1 = kairos.admit(&a).unwrap();
        assert_eq!(hits(&kairos), 0);
        let under_b1 = kairos.platform().checkpoint();
        kairos.release(a1.app_id);
        kairos.release(b1.app_id);

        // The same shape under a new id: the idle platform recurs, so this
        // replays b1's point — and leaves every element b1 held to b2.
        let b2 = kairos.admit(&b).unwrap();
        assert_ne!(b2.app_id, b1.app_id, "ids are never recycled");
        assert_eq!(b2.layout, b1.layout);
        assert_eq!(hits(&kairos), 1);

        // The occupancy `a` was first decided against is back, held by
        // another tenant. Nothing the pipeline reads tells b2 from b1.
        let a2 = kairos.admit(&a).unwrap();
        assert_eq!(hits(&kairos), 2, "who the neighbours are is not part of the key");
        assert_eq!(a2.layout, a1.layout);
        assert_ne!(kairos.platform().checkpoint(), under_b1, "other tenants: not the same bytes");

        // And both replays left what the pipeline leaves: an uncached
        // manager through the same history ends on the same bytes.
        let mut cold = Kairos::new(topology::crisp(), KairosConfig::default());
        for id in [cold.admit(&b).unwrap().app_id, cold.admit(&a).unwrap().app_id] {
            assert!(cold.release(id));
        }
        assert_eq!(cold.admit(&b).unwrap().app_id, b2.app_id);
        assert_eq!(cold.admit(&a).unwrap().app_id, a2.app_id);
        assert_eq!(kairos.platform().checkpoint(), cold.platform().checkpoint());
    }
}
