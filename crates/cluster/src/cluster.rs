//! The sharded [`ResourceService`]: one `Kairos` manager per platform
//! region, what-if admission probes across all of them, and cross-shard
//! rebalancing.

use std::sync::Arc;

use kairos_admitd::{
    AdmitPolicy, Admitd, CapacityEvent, Command, Event, PriorityClass, Request, ResourceService,
    ServiceBuilder, Ticket,
};
use kairos_app::Application;
use kairos_core::{
    AdmissionProbe, CacheStats, ElementActivity, Kairos, KairosConfig, OccupancySnapshot,
    DURATION_NS_BOUNDS,
};
use kairos_platform::{free_island_count, AppId, ElementId, Platform, RegionMap};
use kairos_telemetry::{Counter, Histogram, Telemetry, TraceContext};

use crate::policy::{Placement, ShardFit, ShardLoad, ShardProbe};

/// Size of each shard's [`AppId`] namespace: shard `i` mints ids from
/// `i * APP_ID_STRIDE`, so an id alone identifies its home shard and ids
/// stay globally unique across the cluster (shard 0 of a one-shard
/// cluster numbers from 0 — exactly the single-manager behaviour).
pub const APP_ID_STRIDE: u32 = 1 << 24;

/// Shards a load may lag the most-loaded shard by before a
/// [`Command::Rebalance`] sweep moves work across the boundary.
const REBALANCE_GAP: f64 = 0.05;

/// Translates shard `shard`'s event batch into the cluster's id space:
/// element ids from the shard's local space back to the global platform,
/// through the cluster's one [`RegionMap`].
/// Tickets pass through untouched — the cluster stamped them on the way
/// down — and so do app ids, globally unique by construction (the
/// per-shard [`APP_ID_STRIDE`] namespace). Admission-report layouts stay
/// in shard-local element coordinates; translate them through
/// [`ClusterService::regions`] when needed.
fn translate_events(region: &RegionMap, shard: usize, mut events: Vec<Event>) -> Vec<Event> {
    for event in &mut events {
        if let Event::ElementFailed { element, .. } | Event::ElementRepaired { element, .. } = event
        {
            *element = region.to_global(shard, *element);
        }
    }
    events
}

/// Builds a [`ClusterService`]: the platform, the shard count, and the
/// same policy knobs as [`ServiceBuilder`] — every shard gets an
/// identical configuration (admission queue included), plus the
/// cluster-level [`Placement`] deciding which shard each admission
/// is routed to.
///
/// # Examples
///
/// ```
/// use kairos_cluster::{ClusterBuilder, Placement};
/// use kairos_platform::topology;
///
/// let cluster = ClusterBuilder::new(topology::crisp(), 4)
///     .deterministic(true)
///     .placement(Placement::LeastLoaded)
///     .build()?;
/// assert_eq!(cluster.shard_count(), 4);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    platform: Platform,
    shards: usize,
    config: KairosConfig,
    admission: Option<AdmitPolicy>,
    policy: Placement,
    telemetry: Telemetry,
}

impl ClusterBuilder {
    /// A builder for a cluster of `shards` region managers over
    /// `platform`, with the default manager configuration, no admission
    /// queue, [`Placement::FirstFit`] and telemetry disabled.
    pub fn new(platform: Platform, shards: usize) -> Self {
        ClusterBuilder {
            platform,
            shards,
            config: KairosConfig::default(),
            admission: None,
            policy: Placement::FirstFit,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the per-shard manager configuration (each shard's
    /// [`KairosConfig::app_id_base`] is still overridden to its own
    /// [`APP_ID_STRIDE`] slot).
    pub fn config(mut self, config: KairosConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs every shard's pipeline on the zero phase clock, making
    /// cluster output a pure function of its inputs.
    pub fn deterministic(mut self, deterministic: bool) -> Self {
        self.config.deterministic = deterministic;
        self
    }

    /// Fronts every shard manager with a `kairos-admitd` priority queue
    /// under `policy` (class capacities apply per shard).
    pub fn admission(mut self, policy: AdmitPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Sets the shard-placement policy (default: [`Placement::FirstFit`]).
    pub fn placement(mut self, policy: Placement) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches an observability hub to the whole cluster: the
    /// cluster-level `kairos.cluster.*` metrics (probe fan-out latency
    /// per shard, placement-score distributions, rebalance accounting)
    /// land in its registry, and every shard gets a clone of the hub,
    /// so the shards' `kairos.core.*` totals aggregate in the one
    /// registry and their spans land in the one trace sink.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the cluster: partitions the platform into contiguous
    /// capacity-balanced regions ([`RegionMap::new`]) and starts one
    /// [`Admitd`] service per region.
    ///
    /// # Errors
    ///
    /// The partitioner's error (zero shards, more shards than elements,
    /// or more shards than [`APP_ID_STRIDE`] namespaces), or the
    /// admission policy's validation error.
    pub fn build(self) -> Result<ClusterService, String> {
        if self.shards > (u32::MAX / APP_ID_STRIDE) as usize {
            return Err(format!("at most {} shards are addressable", u32::MAX / APP_ID_STRIDE));
        }
        let region = RegionMap::new(&self.platform, self.shards)?;
        let mut shards = Vec::with_capacity(region.region_count());
        for r in 0..region.region_count() {
            let config = KairosConfig { app_id_base: r as u32 * APP_ID_STRIDE, ..self.config };
            let mut builder = ServiceBuilder::new(region.extract(&self.platform, r))
                .config(config)
                .telemetry(self.telemetry.clone());
            if let Some(policy) = self.admission {
                builder = builder.admission(policy);
            }
            shards.push(builder.build()?);
        }
        let metrics = ClusterMetrics::new(&self.telemetry, region.region_count());
        Ok(ClusterService {
            shards,
            region,
            policy: self.policy,
            next_ticket: 0,
            events: Vec::new(),
            telemetry: self.telemetry,
            metrics,
        })
    }
}

/// A fleet of shard managers behind one [`ResourceService`] surface.
///
/// The platform is partitioned into contiguous, capacity-balanced
/// regions; each region is owned by its own [`Admitd`] service (queue-less
/// or queued, exactly as a monolithic service would be). Traffic flows:
///
/// * **Admissions** are placed by what-if probes of the shards (a probe
///   writes nothing, so a losing probe leaves nothing behind — but it is
///   a full pipeline run), shard by shard in shard-id order — a single
///   admission and a batched wave alike — until the cluster's
///   [`Placement`] calls the row
///   [settled](Placement::settled) or every shard has answered,
///   and the policy picks the winning shard from that row. The admission
///   is then submitted to that shard's service, queueing semantics and
///   all. When no shard fits, the policy's fallback shard takes the
///   request (to queue or reject it).
/// * **Releases, migrations, faults and repairs** route to the owning
///   shard: app ids encode their home shard ([`APP_ID_STRIDE`]), element
///   ids translate through the [`RegionMap`]. An element id outside the
///   platform reaches no shard: its fault or repair is answered by the
///   cluster with no eviction, and a migration skips it.
/// * **[`Command::Defrag`]** compacts every shard in shard-id order
///   (each manager's live migration stays shard-local) and reports one sweep.
/// * **[`Command::Rebalance`]** moves running applications from the
///   most- to the least-loaded shard by evict-and-readmit across the
///   boundary — two-phase (claim the new home, then free the old; any
///   failure rolls the move back) — reporting each move's id change in
///   [`Event::Rebalanced`].
///
/// A one-shard cluster is byte-for-byte the monolithic service: identity
/// partition, identity id maps, probes skipped.
///
/// # Examples
///
/// ```
/// use kairos_cluster::ClusterBuilder;
/// use kairos_admitd::{Event, PriorityClass, Request, ResourceService};
/// use kairos_appgen::{AppGenerator, GeneratorConfig};
/// use kairos_platform::topology;
///
/// let mut cluster = ClusterBuilder::new(topology::crisp(), 3).deterministic(true).build()?;
/// let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
/// let ticket = cluster.submit(Request::admit(0, generator.generate("app"), PriorityClass::Normal));
/// let events = cluster.take_events();
/// assert!(matches!(&events[..], [Event::Admitted { ticket: t, .. }] if *t == ticket));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct ClusterService {
    /// One service per region, indexed by region.
    shards: Vec<Admitd>,
    region: RegionMap,
    policy: Placement,
    /// Mint for requests that arrive without a ticket (the cluster is
    /// then the outermost layer); allocation order is submission order.
    next_ticket: u64,
    /// Events accumulated since the last [`ResourceService::take_events`].
    events: Vec<Event>,
    telemetry: Telemetry,
    metrics: Option<ClusterMetrics>,
}

/// Bucket bounds for the placement-score histograms: scores are fractions
/// in `[0, 1]` scaled by `1e6` to integers, so the buckets cut at 10%,
/// 25%, 50%, 75%, 90% and 100%.
pub const SCORE_E6_BOUNDS: &[u64] = &[100_000, 250_000, 500_000, 750_000, 900_000, 1_000_000];

/// Pre-resolved registry handles for the cluster layer, built once at
/// construction. Under the zero clock every recorded probe duration is
/// `0`, so the per-shard probe histograms are a pure function of the
/// probes actually run (`pooled_probe_waves_match_sequential_standalone_probes`
/// pins full rows against standalone services,
/// `first_fit_probes_up_to_the_first_shard_that_fits` the settled ones).
#[derive(Debug, Clone)]
struct ClusterMetrics {
    probe_waves: Arc<Counter>,
    probes: Arc<Counter>,
    /// Per-shard probe latency, indexed by shard id.
    probe_ns: Vec<Arc<Histogram>>,
    /// Fragmentation score of every fitting probe, scaled by `1e6`.
    score_fragmentation: Arc<Histogram>,
    /// Resource-utilisation score of every fitting probe, scaled by `1e6`.
    score_utilisation: Arc<Histogram>,
    placements: Arc<Counter>,
    fallbacks: Arc<Counter>,
    rebalance_sweeps: Arc<Counter>,
    rebalance_moves: Arc<Counter>,
    rebalance_aborts: Arc<Counter>,
}

impl ClusterMetrics {
    fn new(telemetry: &Telemetry, shards: usize) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(ClusterMetrics {
            probe_waves: registry.counter("kairos.cluster.probe.waves"),
            probes: registry.counter("kairos.cluster.probes"),
            probe_ns: (0..shards)
                .map(|i| {
                    registry
                        .histogram(&format!("kairos.cluster.shard{i}.probe.ns"), DURATION_NS_BOUNDS)
                })
                .collect(),
            score_fragmentation: registry
                .histogram("kairos.cluster.placement.score.fragmentation_e6", SCORE_E6_BOUNDS),
            score_utilisation: registry
                .histogram("kairos.cluster.placement.score.utilisation_e6", SCORE_E6_BOUNDS),
            placements: registry.counter("kairos.cluster.placements"),
            fallbacks: registry.counter("kairos.cluster.placement.fallbacks"),
            rebalance_sweeps: registry.counter("kairos.cluster.rebalance.sweeps"),
            rebalance_moves: registry.counter("kairos.cluster.rebalance.moves"),
            rebalance_aborts: registry.counter("kairos.cluster.rebalance.aborts"),
        })
    }

    /// Folds one shard-id-ordered probe row onto the score histograms.
    fn note_fits(&self, row: &[ShardProbe]) {
        for probe in row {
            if let Some(fit) = &probe.fit {
                self.score_fragmentation.record(score_e6(fit.fragmentation));
                self.score_utilisation.record(score_e6(fit.resource_utilisation));
            }
        }
    }
}

/// A `[0, 1]` score as an integer in parts-per-million (clamped), so the
/// distribution can live in an integer histogram without breaking the
/// byte-stable snapshot rendering.
fn score_e6(score: f64) -> u64 {
    (score.clamp(0.0, 1.0) * 1e6) as u64
}

impl ClusterService {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The region partition the cluster runs on (element id translation
    /// between the global platform and each shard's local space).
    pub fn regions(&self) -> &RegionMap {
        &self.region
    }

    /// Read access to one shard's service, for inspection.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &Admitd {
        &self.shards[shard]
    }

    /// The placement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The attached observability hub (disabled by default). This is the
    /// cluster-level handle; each shard records through its own
    /// `shard{i}`-labelled child sharing the same registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The shard that minted `app` (ids encode their home shard).
    pub fn shard_of_app(&self, app: AppId) -> usize {
        ((app.0 / APP_ID_STRIDE) as usize).min(self.shards.len() - 1)
    }

    /// Probes every shard with a state-neutral what-if admission of
    /// `app` and returns the results in shard-id order. Nothing changes
    /// anywhere: a probe writes nothing. The one-element case of
    /// [`Self::probe_admit_wave`].
    pub fn probe_admit(&mut self, app: &Application) -> Vec<ShardProbe> {
        self.probe_wave(&[app], true).pop().expect("one probe row per application")
    }

    /// Probes every shard with a state-neutral what-if admission of a
    /// whole arrival wave: each shard in turn probes *all* of `apps`
    /// against its region. Returns one full shard-id-ordered probe row
    /// per application (probes are state-neutral, so the rows are
    /// independent and row `i` is what [`Self::probe_admit`] returns for
    /// `apps[i]`). Submission places its admissions with the same loop,
    /// but stops growing a row once the policy calls it
    /// [settled](Placement::settled).
    pub fn probe_admit_wave(&mut self, apps: &[Application]) -> Vec<Vec<ShardProbe>> {
        let refs: Vec<&Application> = apps.iter().collect();
        self.probe_wave(&refs, true)
    }

    /// The cluster's one probing loop: every shard, **in shard-id
    /// order**, probes the wave members whose rows are not settled yet,
    /// so row `a` of the result is the shard-id-ordered prefix of
    /// `apps[a]`'s full probe row that its placement reads. `full_rows`
    /// never settles (the public probe surface); the submission paths
    /// pass `false` and ask [`Placement::settled`], so a request
    /// costs as many pipeline runs as its policy compares shards — one
    /// when the first shard fits under [`Placement::FirstFit`], every
    /// shard under [`Placement::LeastLoaded`]. Counters, per-shard
    /// histograms and score histograms see the probes actually run.
    fn probe_wave(&mut self, apps: &[&Application], full_rows: bool) -> Vec<Vec<ShardProbe>> {
        let mut rows: Vec<Vec<ShardProbe>> =
            apps.iter().map(|_| Vec::with_capacity(self.shards.len())).collect();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let hist = self.metrics.as_ref().map(|m| &m.probe_ns[i]);
            for (&app, row) in apps.iter().zip(&mut rows) {
                if !full_rows && self.policy.settled(row) {
                    continue;
                }
                let start = self.telemetry.clock();
                let fit = fit_of(shard.probe_admit(app).ok());
                if let Some(hist) = hist {
                    hist.record(Telemetry::elapsed_ns(start));
                }
                row.push(ShardProbe { shard: i, fit });
            }
        }
        if let Some(m) = &self.metrics {
            m.probe_waves.inc();
            for row in &rows {
                m.probes.add(row.len() as u64);
                m.note_fits(row);
            }
        }
        rows
    }

    /// Current per-shard loads, in shard-id order.
    pub fn loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardLoad {
                shard,
                resource_utilisation: s.kairos().resource_utilisation(),
                queue_depth: s.queue_depth(),
            })
            .collect()
    }

    /// Probes and routes: the shard this admission is submitted to — a
    /// one-application wave through [`Self::probe_wave`], so up to one
    /// probe per shard, fewer when the policy settles early.
    fn place(&mut self, app: &Application, ctx: TraceContext, at: u64) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let probes = self.probe_wave(&[app], false).pop().expect("one probe row per application");
        self.route(&probes, ctx, at)
    }

    /// Asks the policy, falls back, counts the placement: the shard the
    /// admission behind probe row `probes` (possibly cut short by
    /// [`Placement::settled`]) is routed to. A set `ctx` gets one
    /// `probe.shard{i}` span per probed shard, in shard-id order (probes
    /// themselves never trace — see `Kairos::probe_admit`).
    fn route(&self, probes: &[ShardProbe], ctx: TraceContext, at: u64) -> usize {
        let (chosen, fell_back) = match self.policy.choose(probes) {
            Some(shard) => (shard, false),
            None => (self.policy.fallback(&self.loads()), true),
        };
        if let Some(m) = &self.metrics {
            m.placements.inc();
            if fell_back {
                m.fallbacks.inc();
            }
        }
        if ctx.is_some() {
            for probe in probes {
                let fit = if probe.fit.is_some() { "yes" } else { "no" };
                let mut args = vec![("fit", fit.to_owned())];
                if probe.shard == chosen {
                    args.push(("chosen", "yes".to_owned()));
                }
                let name = format!("probe.shard{}", probe.shard);
                self.telemetry.trace_child(ctx, &name, at, at, &args);
            }
        }
        chosen
    }

    /// Drains one shard's buffered events into the cluster's, translated.
    fn drain_shard(&mut self, shard: usize) {
        let events = self.shards[shard].take_events();
        self.events.extend(translate_events(&self.region, shard, events));
    }

    /// Submits `request`, stamped with the cluster ticket `ticket`, to
    /// `shard` and drains the fallout.
    fn forward(&mut self, shard: usize, ticket: Ticket, request: Request) {
        self.shards[shard].submit(request.with_ticket(ticket));
        self.drain_shard(shard);
    }

    /// Performs one command under its settled ticket. For admissions the
    /// cluster may be the outermost service: it mints the request's trace
    /// root when `trace` is still unset and stamps context and ticket
    /// onto the request it forwards, so the shard continues the same
    /// trace under the same ticket instead of minting its own.
    fn dispatch(&mut self, ticket: Ticket, at: u64, command: Command, trace: TraceContext) {
        match command {
            Command::Admit { app, class } => {
                let ctx = self.telemetry.request_root(trace, at, &class);
                let target = self.place(&app, ctx, at);
                self.forward(target, ticket, Request::admit(at, app, class).with_trace(ctx));
            }
            Command::Release { app } => {
                let target = self.shard_of_app(app);
                self.forward(target, ticket, Request::new(at, Command::Release { app }));
            }
            Command::Migrate { app, avoid } => {
                let target = self.shard_of_app(app);
                // Only elements of the owning shard can host the app;
                // avoided elements elsewhere (or nowhere) are unreachable
                // anyway.
                let avoid: Vec<ElementId> = avoid
                    .into_iter()
                    .filter_map(|e| self.region.locate(e))
                    .filter_map(|(region, local)| (region == target).then_some(local))
                    .collect();
                self.forward(target, ticket, Request::new(at, Command::Migrate { app, avoid }));
            }
            Command::InjectFault { element } => match self.region.locate(element) {
                Some((target, element)) => {
                    self.forward(
                        target,
                        ticket,
                        Request::new(at, Command::InjectFault { element }),
                    );
                }
                None => {
                    self.events.push(Event::ElementFailed { ticket, element, evicted: Vec::new() })
                }
            },
            Command::Repair { element } => match self.region.locate(element) {
                Some((target, element)) => {
                    self.forward(target, ticket, Request::new(at, Command::Repair { element }));
                }
                None => self.events.push(Event::ElementRepaired { ticket, element }),
            },
            Command::Defrag { max_moves } => self.run_defrag(at, ticket, max_moves),
            Command::Rebalance { max_moves } => self.run_rebalance(at, ticket, max_moves),
        }
    }

    /// One cluster-wide defrag sweep: every shard compacts itself (up to
    /// `max_moves` each, in shard-id order), reported as one
    /// [`Event::Defragged`] with the summed move count, followed by
    /// whatever the freed room drained out of the shard queues.
    fn run_defrag(&mut self, at: u64, ticket: Ticket, max_moves: usize) {
        let mut moves = 0;
        let mut tail = Vec::new();
        for i in 0..self.shards.len() {
            let s = &mut self.shards[i];
            s.submit(Request::new(at, Command::Defrag { max_moves }).with_ticket(ticket));
            let events = s.take_events();
            for event in translate_events(&self.region, i, events) {
                match event {
                    Event::Defragged { moves: m, .. } => moves += m,
                    other => tail.push(other),
                }
            }
        }
        self.events.push(Event::Defragged { ticket, moves });
        self.events.extend(tail);
    }

    /// One cross-shard rebalance sweep (the real implementation behind
    /// [`Command::Rebalance`]).
    ///
    /// Repeatedly pairs the most- with the least-loaded shard (by
    /// resource utilisation; ties break toward the lower id) while their
    /// gap exceeds the rebalance threshold, and moves the first
    /// probe-fitting application across the boundary — evict-and-readmit,
    /// two-phase:
    ///
    /// 1. **make** — the destination shard admits the application
    ///    directly (bypassing its queue: the application already waited
    ///    its wait), minting a fresh id in its own namespace;
    /// 2. **break** — the source shard releases the old claims; the
    ///    freed room is a capacity event, so source-shard waiters drain.
    ///
    /// A failure in phase 1 skips the candidate with nothing to undo; a
    /// failure in phase 2 (the app vanished) rolls phase 1 back by
    /// releasing the fresh claims, so no move is ever half-made.
    fn run_rebalance(&mut self, at: u64, ticket: Ticket, max_moves: usize) {
        if let Some(m) = &self.metrics {
            m.rebalance_sweeps.inc();
        }
        let mut moves: Vec<(AppId, AppId)> = Vec::new();
        let mut tail: Vec<Event> = Vec::new();
        'sweep: while moves.len() < max_moves && self.shards.len() > 1 {
            let loads = self.loads();
            let src = loads
                .iter()
                .max_by(|a, b| {
                    a.resource_utilisation.total_cmp(&b.resource_utilisation).then(
                        b.shard.cmp(&a.shard), // ties -> lower id wins the max
                    )
                })
                .expect("at least one shard")
                .shard;
            let dst = loads
                .iter()
                .min_by(|a, b| {
                    a.resource_utilisation.total_cmp(&b.resource_utilisation).then(
                        a.shard.cmp(&b.shard), // ties -> lower id wins the min
                    )
                })
                .expect("at least one shard")
                .shard;
            if src == dst
                || loads[src].resource_utilisation - loads[dst].resource_utilisation < REBALANCE_GAP
            {
                break;
            }
            for id in self.shards[src].kairos().admitted_ids() {
                let app = self.shards[src]
                    .kairos()
                    .application(id)
                    .expect("admitted ids resolve")
                    .clone();
                let Ok(probe) = self.shards[dst].probe_admit(&app) else {
                    continue;
                };
                // Convergence guard: the move must leave the destination
                // strictly below the source's current load, or the next
                // iteration would just ship work back (ping-pong).
                if probe.after.resource_utilisation + f64::EPSILON
                    >= loads[src].resource_utilisation
                {
                    continue;
                }
                let class = self.shards[src].admitted_class(id).unwrap_or(PriorityClass::Normal);
                // Captured before the release erases the layout: the
                // source-side elements the move frees, for cache
                // invalidation once the move is final.
                let src_elements: Vec<ElementId> = self.shards[src]
                    .kairos()
                    .layout(id)
                    .map(|l| {
                        let mut es: Vec<ElementId> = l.placement.iter().map(|(_, e)| e).collect();
                        es.sort_unstable();
                        es.dedup();
                        es
                    })
                    .unwrap_or_default();
                // Phase 1 (make): claim the new home across the boundary.
                let Ok(report) = self.shards[dst].admit_now(&app, class) else {
                    continue;
                };
                // Phase 2 (break): free the old home, draining waiters.
                let (found, drained) = self.shards[src].release_now(id, at);
                if !found {
                    self.shards[dst].release_now(report.app_id, at);
                    if let Some(m) = &self.metrics {
                        m.rebalance_aborts.inc();
                    }
                    continue;
                }
                // Cache hygiene on both sides of the boundary: the move
                // changed occupancy on the source's freed elements and
                // the destination's fresh ones, so cached points touching
                // either are superseded.
                self.shards[src].invalidate_cached_points(&src_elements);
                let mut dst_elements: Vec<ElementId> =
                    report.layout.placement.iter().map(|(_, e)| e).collect();
                dst_elements.sort_unstable();
                dst_elements.dedup();
                self.shards[dst].invalidate_cached_points(&dst_elements);
                tail.extend(translate_events(&self.region, src, drained));
                moves.push((id, report.app_id));
                continue 'sweep;
            }
            break; // nothing on the loaded shard fits anywhere lighter
        }
        // Drain fallout first, the sweep summary last: a later iteration
        // may move an application a drain admitted moments earlier, and
        // its `Admitted` must reach the caller before the `Rebalanced`
        // that renames it (the sim's live-app accounting relies on it).
        if let Some(m) = &self.metrics {
            m.rebalance_moves.add(moves.len() as u64);
        }
        self.events.extend(tail);
        self.events.push(Event::Rebalanced { ticket, moves });
    }
}

/// What placement reads of a shard's probe. The probe's layout, an `Arc`
/// shared with the decision the shard keeps for its admission, is
/// dropped unread.
fn fit_of(probe: Option<AdmissionProbe>) -> Option<ShardFit> {
    probe.map(|p| ShardFit {
        fragmentation: p.after.external_fragmentation,
        resource_utilisation: p.after.resource_utilisation,
    })
}

impl ResourceService for ClusterService {
    fn submit(&mut self, request: Request) -> Ticket {
        let Request { at, command, trace, ticket } = request;
        let ticket = Ticket::resolve(ticket, &mut self.next_ticket);
        self.dispatch(ticket, at, command, trace);
        ticket
    }

    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        // Place every admission against the pre-wave state — probes are
        // state-neutral, so the whole wave is probed in one per-shard
        // pass ([`Self::probe_wave`]) — group the wave
        // by winning shard, and hand each shard its sub-wave as one
        // batched submission (one class sort, one drain pass — per
        // shard). Non-admission commands run after the wave, in
        // submission order, exactly as the monolithic service does.
        //
        // Tickets are settled up front in submission order — batching
        // changes how work is performed, never how it is identified
        // (mirroring the monolithic service).
        let mut tickets = Vec::with_capacity(requests.len());
        let mut admissions: Vec<(Ticket, u64, Application, PriorityClass, TraceContext)> =
            Vec::new();
        let mut rest: Vec<(Ticket, u64, Command, TraceContext)> = Vec::new();
        for Request { at, command, trace, ticket } in requests {
            let ticket = Ticket::resolve(ticket, &mut self.next_ticket);
            tickets.push(ticket);
            match command {
                Command::Admit { app, class } => {
                    // Roots are minted here, in submission order, so trace
                    // id allocation never depends on where the wave's rows
                    // end up being placed.
                    let ctx = self.telemetry.request_root(trace, at, &class);
                    admissions.push((ticket, at, app, class, ctx));
                }
                other => rest.push((ticket, at, other, trace)),
            }
        }
        let stamped = |ticket, at, app, class, ctx| {
            Request::admit(at, app, class).with_trace(ctx).with_ticket(ticket)
        };
        let mut waves: Vec<Vec<Request>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        if self.shards.len() == 1 {
            for (ticket, at, app, class, ctx) in admissions {
                waves[0].push(stamped(ticket, at, app, class, ctx));
            }
        } else {
            let apps: Vec<&Application> = admissions.iter().map(|(_, _, app, _, _)| app).collect();
            let probes = self.probe_wave(&apps, false);
            drop(apps);
            for ((ticket, at, app, class, ctx), row) in admissions.into_iter().zip(probes) {
                let target = self.route(&row, ctx, at);
                waves[target].push(stamped(ticket, at, app, class, ctx));
            }
        }
        for (i, wave) in waves.into_iter().enumerate() {
            if wave.is_empty() {
                continue;
            }
            self.shards[i].submit_batch(wave);
            self.drain_shard(i);
        }
        for (ticket, at, command, trace) in rest {
            self.dispatch(ticket, at, command, trace);
        }
        tickets
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let events = self.shards[i].pump(event);
            out.extend(translate_events(&self.region, i, events));
        }
        out
    }

    fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    fn kairos(&self) -> &Kairos {
        self.shards[0].kairos()
    }

    fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth()).sum()
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whole-cluster cache counters: the field-wise sum over every shard
    /// manager's operating-point cache ([`CacheStats::merge`]); `None`
    /// when no shard has a cache (all shards share one configuration, so
    /// it is all or none).
    fn cache_stats(&self) -> Option<CacheStats> {
        self.shards.iter().filter_map(|s| s.cache_stats()).reduce(CacheStats::merge)
    }

    /// Whole-cluster occupancy, aggregated exactly: utilisations from the
    /// summed kept totals, fragmentation over the union of all intra-shard
    /// adjacent pairs (cross-shard pairs are invisible to the shard
    /// managers and excluded — a one-shard cluster therefore matches the
    /// monolithic snapshot bit for bit), islands and failures summed. The
    /// island flood fill is the one walk of each shard.
    fn occupancy(&self) -> OccupancySnapshot {
        let mut admitted_apps = 0;
        let mut used = 0usize;
        let mut elements = 0usize;
        let (mut free, mut capacity) = (0u64, 0u64);
        let (mut mixed, mut pairs) = (0usize, 0usize);
        let mut free_islands = 0;
        let mut failed_elements = 0;
        for s in &self.shards {
            let kairos = s.kairos();
            let p = kairos.platform();
            let totals = p.totals();
            admitted_apps += kairos.admitted_count();
            used += totals.used;
            elements += p.element_count();
            free += totals.free;
            capacity += totals.capacity;
            mixed += totals.mixed_pairs;
            pairs += p.pair_count();
            free_islands += free_island_count(p);
            failed_elements += totals.failed;
        }
        OccupancySnapshot {
            admitted_apps,
            element_utilisation: if elements == 0 { 0.0 } else { used as f64 / elements as f64 },
            resource_utilisation: if capacity == 0 {
                0.0
            } else {
                1.0 - free as f64 / capacity as f64
            },
            external_fragmentation: if pairs == 0 { 0.0 } else { mixed as f64 / pairs as f64 },
            free_islands,
            failed_elements,
        }
    }

    /// Per-element activity over every shard, with shard-local element ids
    /// translated back to the global platform through each shard's region
    /// slice — in global-id order, as the trait promises. Regions are
    /// contiguous in the topology, not in element ids, so shard-major
    /// order is not that.
    fn element_activity(&self) -> Vec<ElementActivity> {
        let mut out = Vec::new();
        for (shard_index, s) in self.shards.iter().enumerate() {
            for mut activity in s.kairos().element_activity() {
                activity.element = self.region.to_global(shard_index, activity.element);
                out.push(activity);
            }
        }
        out.sort_by_key(|activity| activity.element);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, ResourceVector};

    fn chain(name: &str, tasks: usize, cpu: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 50, 1);
        let mut b = ApplicationBuilder::new(name);
        let mut prev = None;
        for i in 0..tasks {
            let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]);
            if let Some(p) = prev {
                b.add_channel(p, t, 10, 1);
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    fn cluster(shards: usize) -> ClusterService {
        ClusterBuilder::new(topology::crisp(), shards).deterministic(true).build().unwrap()
    }

    #[test]
    fn builder_rejects_degenerate_shard_counts() {
        assert!(ClusterBuilder::new(topology::crisp(), 0).build().is_err());
        assert!(ClusterBuilder::new(topology::dsp_line(3), 4).build().is_err());
        assert!(ClusterBuilder::new(topology::crisp(), 1_000_000).build().is_err());
    }

    #[test]
    fn one_shard_cluster_reproduces_the_monolithic_event_stream() {
        let mut mono = ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap();
        let mut one = cluster(1);
        let traffic: Vec<Request> = vec![
            Request::admit(0, chain("a", 3, 700), PriorityClass::Normal),
            Request::admit(1, chain("b", 2, 500), PriorityClass::Critical),
            Request::admit(2, chain("hopeless", 70, 990), PriorityClass::Low),
            Request::new(3, Command::InjectFault { element: ElementId(5) }),
            Request::new(4, Command::Repair { element: ElementId(5) }),
            Request::new(5, Command::Defrag { max_moves: 4 }),
            Request::new(6, Command::Rebalance { max_moves: 4 }),
        ];
        let mono_tickets: Vec<Ticket> = traffic.iter().cloned().map(|r| mono.submit(r)).collect();
        let one_tickets: Vec<Ticket> = traffic.into_iter().map(|r| one.submit(r)).collect();
        assert_eq!(mono_tickets, one_tickets);
        let (a, b) = (mono.take_events(), one.take_events());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "event streams must match byte-for-byte");
        assert_eq!(mono.occupancy(), one.occupancy());
        assert_eq!(mono.queue_depth(), one.queue_depth());
    }

    #[test]
    fn one_shard_batches_match_the_monolithic_batch_path() {
        let mut mono = ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap();
        let mut one = cluster(1);
        let wave = |i: u64| -> Vec<Request> {
            vec![
                Request::admit(i, chain("w0", 2, 600), PriorityClass::Low),
                Request::admit(i, chain("w1", 1, 400), PriorityClass::Critical),
                Request::admit(i, chain("w2", 2, 500), PriorityClass::Normal),
            ]
        };
        assert_eq!(mono.submit_batch(wave(0)), one.submit_batch(wave(0)));
        let (a, b) = (mono.take_events(), one.take_events());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Pins the probe fan-out against a reference that is not production
    /// code: one standalone service per [`RegionMap::extract`] region,
    /// probed sequentially. Probe rows must match for waves of any length
    /// — and (lit) so must the rendered per-shard probe histograms.
    #[test]
    fn pooled_probe_waves_match_sequential_standalone_probes() {
        let platform = topology::crisp();
        let mut wave: Vec<Application> =
            (0..16).map(|i| chain(&format!("w{i}"), 1 + i % 3, 400 + 35 * i as u64)).collect();
        wave[7] = chain("hopeless", 70, 990);
        for lit in [false, true] {
            let hub = || match lit {
                true => Telemetry::new(kairos_telemetry::TelemetryConfig::default()),
                false => Telemetry::disabled(),
            };
            let mut cluster = ClusterBuilder::new(platform.clone(), 3)
                .deterministic(true)
                .telemetry(hub())
                .build()
                .unwrap();
            let mut standalone: Vec<Admitd> = (0..3)
                .map(|r| {
                    ServiceBuilder::new(cluster.regions().extract(&platform, r))
                        .config(KairosConfig {
                            app_id_base: r as u32 * APP_ID_STRIDE,
                            ..KairosConfig::default()
                        })
                        .deterministic(true)
                        .build()
                        .unwrap()
                })
                .collect();
            // Load every shard and its standalone mirror identically,
            // bypassing placement (and its probes).
            for i in 0..8 {
                let app = chain(&format!("p{i}"), 2, 600);
                cluster.shards[i % 3].admit_now(&app, PriorityClass::Normal).unwrap();
                standalone[i % 3].admit_now(&app, PriorityClass::Normal).unwrap();
            }
            for (s, service) in standalone.iter().enumerate() {
                assert_eq!(
                    service.kairos().platform().checkpoint(),
                    cluster.shard(s).kairos().platform().checkpoint()
                );
            }

            let reference_hub = hub();
            let mut reference_rows = |apps: &[Application]| -> Vec<Vec<ShardProbe>> {
                apps.iter()
                    .map(|app| {
                        let probe = |(i, service): (usize, &mut Admitd)| {
                            let start = reference_hub.clock();
                            let fit = fit_of(service.probe_admit(app).ok());
                            let name = format!("kairos.cluster.shard{i}.probe.ns");
                            if let Some(hist) = reference_hub.histogram(&name, DURATION_NS_BOUNDS) {
                                hist.record(Telemetry::elapsed_ns(start));
                            }
                            ShardProbe { shard: i, fit }
                        };
                        standalone.iter_mut().enumerate().map(probe).collect()
                    })
                    .collect()
            };
            for len in [0, 1, 8, 16] {
                let expected = reference_rows(&wave[..len]);
                assert_eq!(cluster.probe_admit_wave(&wave[..len]), expected, "lit={lit} len={len}");
                assert_eq!(expected.len(), len);
                if len > 7 {
                    assert!(expected.iter().flatten().any(|p| p.fit.is_some()));
                    assert!(expected[7].iter().all(|p| p.fit.is_none()));
                }
            }
            let probe_histograms = |hub: &Telemetry| -> Vec<String> {
                let text = hub.render_text();
                text.lines().filter(|l| l.contains("_probe_ns")).map(str::to_owned).collect()
            };
            assert_eq!(probe_histograms(cluster.telemetry()), probe_histograms(&reference_hub));
            assert_eq!(probe_histograms(&reference_hub).is_empty(), !lit);
        }
    }

    /// Pins the saving: placement probes as many shards as its policy
    /// compares. Reads `(kairos.cluster.probes, per-shard probe_ns
    /// counts, kairos.core.admit.replayed)` off the registry.
    #[test]
    fn first_fit_probes_up_to_the_first_shard_that_fits() {
        let lit = |policy: Placement| {
            ClusterBuilder::new(topology::crisp(), 3)
                .deterministic(true)
                .placement(policy)
                .telemetry(Telemetry::new(kairos_telemetry::TelemetryConfig::default()))
                .build()
                .unwrap()
        };
        let read = |cluster: &ClusterService| -> (u64, Vec<u64>, u64) {
            let m = cluster.metrics.as_ref().expect("lit cluster");
            let replayed = cluster.telemetry.counter("kairos.core.admit.replayed").unwrap().get();
            (m.probes.get(), m.probe_ns.iter().map(|h| h.snapshot().count).collect(), replayed)
        };
        let admit =
            |i: u64| Request::admit(i, chain(&format!("a{i}"), 2, 600), PriorityClass::Normal);

        let mut first_fit = lit(Placement::FirstFit);
        first_fit.submit(admit(0));
        assert_eq!(read(&first_fit), (1, vec![1, 0, 0], 1), "shard 0 fits: one pipeline run");
        assert_eq!(first_fit.shard(0).kairos().admitted_count(), 1);
        // Fill shards 0 and 1 behind placement's back: the next request
        // fits only on shard 2, and every shard is asked on the way.
        for shard in &mut first_fit.shards[..2] {
            while shard.admit_now(&chain("fill", 1, 990), PriorityClass::Normal).is_ok() {}
        }
        first_fit.submit(admit(1));
        assert_eq!(first_fit.shard(2).kairos().admitted_count(), 1, "only shard 2 had room");
        assert_eq!(read(&first_fit), (4, vec![2, 1, 1], 2));
        // A batched wave shares the loop: both rows settle on shard 2.
        first_fit.submit_batch(vec![admit(2), admit(3)]);
        assert_eq!(first_fit.shard(2).kairos().admitted_count(), 3);
        assert_eq!(read(&first_fit).0, 10);
        // The public probe surface still returns full rows.
        let mut idle = lit(Placement::FirstFit);
        assert_eq!(idle.probe_admit(&chain("probe", 2, 600)).len(), 3);
        assert_eq!(read(&idle), (3, vec![1, 1, 1], 0));

        let mut least_loaded = lit(Placement::LeastLoaded);
        least_loaded.submit(admit(0));
        assert_eq!(read(&least_loaded), (3, vec![1, 1, 1], 1), "a comparing policy asks everyone");
    }

    #[test]
    fn app_ids_encode_their_home_shard_and_releases_route_back() {
        let mut cluster = ClusterBuilder::new(topology::crisp(), 3)
            .deterministic(true)
            .placement(Placement::LeastLoaded)
            .build()
            .unwrap();
        let mut homes = Vec::new();
        for i in 0..6 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("a{i}"), 2, 600),
                PriorityClass::Normal,
            ));
        }
        for event in cluster.take_events() {
            let Event::Admitted { report, .. } = event else {
                panic!("uncontended admissions admit: {event:?}")
            };
            let home = cluster.shard_of_app(report.app_id);
            assert!(
                cluster.shard(home).kairos().admitted_ids().contains(&report.app_id),
                "the id's encoded shard actually owns it"
            );
            homes.push((report.app_id, home));
        }
        assert!(
            homes.iter().map(|&(_, h)| h).collect::<std::collections::BTreeSet<_>>().len() > 1,
            "least-loaded placement spreads the apps: {homes:?}"
        );
        // Releases route home: every shard drains back to idle.
        for (i, &(id, _)) in homes.iter().enumerate() {
            cluster.submit(Request::release(10 + i as u64, id));
        }
        let releases = cluster.take_events();
        assert!(releases.iter().all(|e| matches!(e, Event::Released { found: true, .. })));
        for s in 0..cluster.shard_count() {
            assert!(cluster.shard(s).kairos().platform().is_idle(), "shard {s} leaked claims");
        }
    }

    #[test]
    fn faults_translate_between_global_and_shard_local_element_ids() {
        let mut cluster = cluster(4);
        // Fill broadly so some shard hosts work on the target element.
        for i in 0..10 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("f{i}"), 2, 600),
                PriorityClass::Normal,
            ));
        }
        let admitted = cluster.take_events().len();
        assert!(admitted > 0);
        // Pick a used global element from some shard's residents.
        let (global, victim_shard) = (0..cluster.shard_count())
            .find_map(|s| {
                let p = cluster.shard(s).kairos().platform();
                p.element_ids()
                    .find(|&e| p.is_used(e))
                    .map(|local| (cluster.regions().to_global(s, local), s))
            })
            .expect("something was admitted somewhere");
        let before = cluster.shard(victim_shard).kairos().admitted_count();
        cluster.submit(Request::new(20, Command::InjectFault { element: global }));
        let events = cluster.take_events();
        let Some(Event::ElementFailed { element, evicted, .. }) =
            events.iter().find(|e| matches!(e, Event::ElementFailed { .. }))
        else {
            panic!("fault must report: {events:?}")
        };
        assert_eq!(*element, global, "the event reports the global id back");
        assert!(!evicted.is_empty(), "the used element evicts its apps");
        assert!(evicted.iter().all(|&id| cluster.shard_of_app(id) == victim_shard));
        assert_eq!(cluster.shard(victim_shard).kairos().admitted_count(), before - evicted.len());
        cluster.submit(Request::new(21, Command::Repair { element: global }));
        let events = cluster.take_events();
        assert!(matches!(
            events.as_slice(),
            [Event::ElementRepaired { element, .. }] if *element == global
        ));
        assert_eq!(cluster.occupancy().failed_elements, 0);
    }

    /// Element ids outside the platform reach no shard: the cluster
    /// answers a fault or a repair there itself, with no eviction and no
    /// capacity event, a migration skips them, and nothing else moves.
    #[test]
    fn hostile_element_ids_get_an_answer_not_a_panic() {
        let mut cluster = cluster(3);
        cluster.submit(Request::admit(0, chain("r", 2, 600), PriorityClass::Normal));
        let Some(Event::Admitted { report, .. }) = cluster.take_events().pop() else {
            panic!("the resident admits")
        };
        let checkpoints = |cluster: &ClusterService| -> Vec<_> {
            (0..3).map(|s| cluster.shard(s).kairos().platform().checkpoint()).collect()
        };
        let before = checkpoints(&cluster);
        let outside = ElementId(topology::crisp().element_count() as u32);
        let fault = cluster.submit(Request::new(1, Command::InjectFault { element: outside }));
        let repair = cluster.submit(Request::new(2, Command::Repair { element: outside }));
        assert_eq!(
            cluster.take_events(),
            vec![
                Event::ElementFailed { ticket: fault, element: outside, evicted: Vec::new() },
                Event::ElementRepaired { ticket: repair, element: outside },
            ]
        );
        assert_eq!(checkpoints(&cluster), before);
        assert!((0..3).all(|s| cluster.shard(s).capacity_events() == 0));
        let avoid = vec![outside, ElementId(u32::MAX)];
        cluster.submit(Request::new(3, Command::Migrate { app: report.app_id, avoid }));
        let events = cluster.take_events();
        assert!(
            matches!(events.as_slice(), [Event::Migrated { .. } | Event::MigrationFailed { .. }]),
            "{events:?}"
        );
        assert!((0..3).all(|s| cluster.shard(s).kairos().audit().is_ok()));
    }

    #[test]
    fn probes_are_deterministic_and_state_neutral() {
        let mut cluster = ClusterBuilder::new(topology::crisp(), 4)
            .deterministic(true)
            .placement(Placement::LeastLoaded)
            .build()
            .unwrap();
        for i in 0..5 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("r{i}"), 2, 700),
                PriorityClass::Normal,
            ));
        }
        cluster.take_events();
        let app = chain("probe", 3, 600);
        let checkpoints: Vec<_> = (0..cluster.shard_count())
            .map(|s| cluster.shard(s).kairos().platform().checkpoint())
            .collect();
        let first = cluster.probe_admit(&app);
        for _ in 0..10 {
            assert_eq!(cluster.probe_admit(&app), first, "probe results replay identically");
        }
        assert!(first.iter().enumerate().all(|(i, p)| p.shard == i), "shard-id order");
        for (s, checkpoint) in checkpoints.into_iter().enumerate() {
            assert_eq!(
                cluster.shard(s).kairos().platform().checkpoint(),
                checkpoint,
                "probing left shard {s} untouched"
            );
        }
        assert!(cluster.take_events().is_empty(), "probes emit nothing");
    }

    #[test]
    fn rebalance_moves_work_from_loaded_to_idle_shards() {
        // FirstFit concentrates everything on shard 0; the sweep then
        // spreads it across the boundary.
        let mut cluster =
            ClusterBuilder::new(topology::dsp_mesh(4, 2), 2).deterministic(true).build().unwrap();
        for i in 0..3 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("m{i}"), 1, 600),
                PriorityClass::Normal,
            ));
        }
        let admitted = cluster.take_events().len();
        assert_eq!(admitted, 3);
        assert_eq!(cluster.shard(0).kairos().admitted_count(), 3, "first-fit piles on shard 0");
        assert_eq!(cluster.shard(1).kairos().admitted_count(), 0);

        let ticket = cluster.submit(Request::new(10, Command::Rebalance { max_moves: 8 }));
        let events = cluster.take_events();
        let Some(Event::Rebalanced { ticket: t, moves }) =
            events.iter().find(|e| matches!(e, Event::Rebalanced { .. }))
        else {
            panic!("rebalance must report: {events:?}")
        };
        assert_eq!(*t, ticket);
        assert!(!moves.is_empty(), "the imbalance must trigger moves");
        for &(from, to) in moves {
            assert_eq!(cluster.shard_of_app(from), 0);
            assert_eq!(cluster.shard_of_app(to), 1, "moves cross the boundary");
            assert!(cluster.shard(1).kairos().admitted_ids().contains(&to));
            assert!(!cluster.shard(0).kairos().admitted_ids().contains(&from));
        }
        assert_eq!(
            cluster.occupancy().admitted_apps,
            3,
            "rebalance moves apps, it never loses them"
        );
        let loads = cluster.loads();
        assert!(
            (loads[0].resource_utilisation - loads[1].resource_utilisation).abs()
                < REBALANCE_GAP + 0.35,
            "the sweep narrows the gap: {loads:?}"
        );
        // A balanced cluster's follow-up sweep is a no-op.
        cluster.submit(Request::new(11, Command::Rebalance { max_moves: 8 }));
        let events = cluster.take_events();
        assert!(matches!(
            events.as_slice(),
            [Event::Rebalanced { moves, .. }] if moves.is_empty()
        ));
        // Ledger balance: releasing everything restores both shards.
        for s in 0..2 {
            for id in cluster.shard(s).kairos().admitted_ids() {
                cluster.submit(Request::release(20, id));
            }
        }
        cluster.take_events();
        for s in 0..2 {
            assert!(cluster.shard(s).kairos().platform().is_idle(), "shard {s} leaked claims");
        }
    }

    #[test]
    fn queued_cluster_rebalance_keeps_the_victim_registry_whole() {
        let policy =
            AdmitPolicy { class_capacity: [8, 8, 8, 8], max_wait: None, ..AdmitPolicy::default() };
        let mut cluster = ClusterBuilder::new(topology::dsp_mesh(4, 2), 2)
            .deterministic(true)
            .admission(policy)
            .build()
            .unwrap();
        for i in 0..3 {
            cluster.submit(Request::admit(i, chain(&format!("q{i}"), 1, 600), PriorityClass::Low));
        }
        cluster.take_events();
        cluster.submit(Request::new(5, Command::Rebalance { max_moves: 4 }));
        let events = cluster.take_events();
        let Some(Event::Rebalanced { moves, .. }) =
            events.iter().find(|e| matches!(e, Event::Rebalanced { .. }))
        else {
            panic!("rebalance must report: {events:?}")
        };
        assert!(!moves.is_empty());
        // The moved app keeps its admission class on its new shard.
        for &(_, to) in moves {
            let home = cluster.shard_of_app(to);
            assert_eq!(
                cluster.shard(home).admitted_class(to),
                Some(PriorityClass::Low),
                "the import registered in the destination victim registry"
            );
        }
    }

    /// Regression test for the rebalance event order: a sweep's source
    /// releases drain source-shard waiters, and a later iteration may
    /// move an application a drain admitted moments earlier — so every
    /// drain `Admitted` must be emitted *before* the `Rebalanced` that
    /// may rename its application. A driver folding the stream in order
    /// (the sim engine's live-app accounting) would otherwise see a move
    /// of an application it has never heard of.
    #[test]
    fn rebalance_emits_drain_admissions_before_the_sweep_summary() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut cluster = ClusterBuilder::new(topology::dsp_mesh(8, 2), 2)
            .deterministic(true)
            .admission(policy)
            .build()
            .unwrap();
        // Fill both shards completely, then queue a waiter that fits
        // nowhere (it lands on the fallback shard 0), then empty most of
        // shard 1 so the sweep pulls work across the boundary.
        for i in 0..8 {
            cluster.submit(Request::admit(i, chain(&format!("f{i}"), 2, 990), PriorityClass::Low));
        }
        let waiter =
            cluster.submit(Request::admit(8, chain("waiter", 1, 500), PriorityClass::Normal));
        let setup = cluster.take_events();
        assert!(
            setup.iter().any(|e| matches!(e, Event::Queued { ticket, .. } if *ticket == waiter)),
            "the waiter must queue: {setup:?}"
        );
        let shard1_apps = cluster.shard(1).kairos().admitted_ids();
        for id in shard1_apps.iter().take(3) {
            cluster.submit(Request::release(9, *id));
        }
        cluster.take_events();

        cluster.submit(Request::new(10, Command::Rebalance { max_moves: 8 }));
        let events = cluster.take_events();
        let rebalance_at = events
            .iter()
            .position(|e| matches!(e, Event::Rebalanced { .. }))
            .expect("the sweep reports");
        assert_eq!(rebalance_at, events.len() - 1, "sweep summary comes last: {events:?}");
        let Event::Rebalanced { moves, .. } = &events[rebalance_at] else { unreachable!() };
        assert!(!moves.is_empty(), "the skew must trigger moves: {events:?}");
        // The first cross-shard release freed room for the waiter.
        let drained = events
            .iter()
            .position(|e| matches!(e, Event::Admitted { ticket, .. } if *ticket == waiter));
        assert!(drained.is_some_and(|i| i < rebalance_at), "drain precedes summary: {events:?}");
        // An in-order fold (the sim's) only ever sees moves of known apps.
        let mut live: Vec<AppId> = Vec::new();
        for s in 0..2 {
            live.extend(cluster.shard(s).kairos().admitted_ids());
        }
        let mut known: Vec<AppId> = setup
            .iter()
            .filter_map(|e| match e {
                Event::Admitted { report, .. } => Some(report.app_id),
                _ => None,
            })
            .collect();
        for event in &events {
            match event {
                Event::Admitted { report, .. } => known.push(report.app_id),
                Event::Rebalanced { moves, .. } => {
                    for &(from, to) in moves {
                        assert!(known.contains(&from), "move of an unknown app {from}");
                        known.retain(|&id| id != from);
                        known.push(to);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cluster_occupancy_aggregates_across_shards() {
        let mut cluster = cluster(3);
        assert_eq!(cluster.occupancy().admitted_apps, 0);
        assert_eq!(cluster.occupancy().free_islands, 3, "each shard is one idle island");
        for i in 0..4 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("o{i}"), 2, 600),
                PriorityClass::Normal,
            ));
        }
        cluster.take_events();
        let occ = cluster.occupancy();
        assert_eq!(occ.admitted_apps, 4);
        assert!(occ.element_utilisation > 0.0 && occ.element_utilisation < 1.0);
        assert!(occ.resource_utilisation > 0.0);
        let per_shard: usize = (0..3).map(|s| cluster.shard(s).kairos().admitted_count()).sum();
        assert_eq!(per_shard, 4);
    }

    /// On the 4x4 mesh cut three ways a region's ids are not a contiguous
    /// run (shard 1 holds 6, 7, 9, 10, 11 and shard 2 starts at 8), so
    /// shard-major order is not global-id order; the trait promises the
    /// latter.
    #[test]
    fn element_activity_is_in_global_element_id_order() {
        let cluster =
            ClusterBuilder::new(topology::dsp_mesh(4, 4), 3).deterministic(true).build().unwrap();
        let activity = cluster.element_activity();
        let ids: Vec<usize> = activity.iter().map(|a| a.element.index()).collect();
        assert_eq!(ids, (0..16).collect::<Vec<_>>());
        let shards: Vec<usize> = activity
            .iter()
            .map(|a| cluster.region.locate(a.element).expect("on the mesh").0)
            .collect();
        assert!(shards.windows(2).any(|w| w[0] > w[1]), "this cut interleaves shards: {shards:?}");
    }
}
