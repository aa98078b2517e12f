//! The discrete-event simulation engine.
//!
//! [`Simulator`] drives the Kairos run-time through a [`Scenario`]: a
//! binary-heap event queue ordered by `(time, sequence)` advances a
//! virtual clock over application arrivals, departures, scripted element
//! faults and repairs, and periodic metric samples. Arrivals chain within
//! each phase — processing one arrival schedules the next — so the whole
//! run is a pure function of the scenario (seed included), which the
//! determinism tests rely on.
//!
//! All scenario traffic flows through the unified
//! [`ResourceService`](kairos_admitd::ResourceService) API: every simulation
//! action is a typed [`Command`](kairos_admitd::Command) (arrivals are
//! `Admit` requests — batched waves go through `submit_batch` as one
//! operation — departures are `Release`, scripted faults are
//! `InjectFault`, and so on), and every accounting decision is driven by
//! the service's single [`Event`](kairos_admitd::Event) stream. Scenarios
//! with an [`AdmitPolicy`](kairos_admitd::AdmitPolicy) get a queued
//! service (requests queue under their phase's priority class, retry on
//! capacity events, time out, and are flushed at the horizon — all of it
//! surfacing in the report's queue section); scenarios without one get a
//! queue-less service that admits or rejects immediately, the paper's
//! behaviour. The engine talks to the service through the trait alone
//! and never drives relocation itself — the service owns that glue.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use kairos_admitd::{
    CapacityEvent, Command, Event, PriorityClass, RejectCause, Request, ResourceService,
    ServiceBuilder,
};
use kairos_app::Application;
use kairos_appgen::{WorkloadMix, WorkloadSampler};
use kairos_cluster::ClusterBuilder;
use kairos_core::{CacheConfig, Kairos, KairosConfig, Phase};
use kairos_gateway::{Gateway, GatewayStats};
use kairos_platform::{AppId, ElementId, PowerModel};
use kairos_telemetry::{Counter, Gauge, Histogram, Telemetry, TelemetryConfig};

use crate::energy::EnergyMeter;
use crate::report::{
    ClassQueueStats, ClassTraceStats, GatewayReport, PhaseStats, QueueReport, SamplePoint,
    SimReport, Totals, TraceReport,
};
use crate::scenario::Scenario;

/// What happens at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimEvent {
    /// A wave of applications of workload phase `phase` arrives.
    Arrival { phase: usize },
    /// An admitted application's lifetime expires.
    Departure { app: AppId },
    /// Scripted fault `fault` (index into the scenario) strikes.
    Fault { fault: usize },
    /// A previously failed element recovers.
    Repair { element: ElementId },
    /// Queued requests whose deadline has passed are dropped.
    QueueExpiry,
    /// A defragmenting compaction sweep runs (`Scenario::defrag`).
    Defrag,
    /// A cross-shard rebalancing sweep runs (`ClusterSpec::rebalance`).
    Rebalance,
    /// A metric time-series sample is taken.
    Sample,
}

/// An event at a virtual time; `seq` breaks ties deterministically in
/// schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: u64,
    seq: u64,
    event: SimEvent,
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A currently admitted application and its scheduled departure.
#[derive(Debug, Clone)]
struct LiveApp {
    app: Application,
    departs_at: Option<u64>,
    class: PriorityClass,
}

/// Where a service request came from; decides which accounting bucket
/// its terminal outcome lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A first-class workload arrival.
    Fresh,
    /// The re-submission of a fault-evicted application.
    Fault,
    /// The requeue of a preemption victim.
    Preempt,
}

/// A request somewhere in the service, keyed by its service ticket.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Lifetime drawn at arrival; departure is scheduled from the
    /// admission instant.
    lifetime: Option<u64>,
    /// Fixed departure instant (fault and preemption re-submissions keep
    /// their original departure time).
    fixed_departure: Option<u64>,
    /// Workload phase the request arrived in (accounting attribution).
    phase: usize,
    /// How the request entered the service.
    origin: Origin,
}

/// Per-workload-phase accumulator.
#[derive(Debug, Default, Clone)]
struct PhaseAccum {
    arrivals: u64,
    admissions: u64,
    rejections: u64,
    departures: u64,
}

/// The run totals, tallied on the workspace's one counter implementation
/// ([`kairos_telemetry::Counter`]). With telemetry enabled the handles
/// are the registry's own `kairos.sim.total.*` counters, so the report's
/// `totals` section and the embedded metric snapshot are two views of
/// the same atomics; disabled runs tally on standalone counters with
/// identical behaviour. [`TotalsTally::materialize`] freezes the handles
/// into the report's plain-integer [`Totals`], byte-identical to the
/// pre-registry accounting.
#[derive(Debug)]
struct TotalsTally {
    arrivals: Arc<Counter>,
    admissions: Arc<Counter>,
    rejections: Arc<Counter>,
    departures: Arc<Counter>,
    faults_injected: Arc<Counter>,
    repairs: Arc<Counter>,
    evictions: Arc<Counter>,
    readmissions: Arc<Counter>,
    lost_to_faults: Arc<Counter>,
    preemptions: Arc<Counter>,
    preempt_readmissions: Arc<Counter>,
    lost_to_preemption: Arc<Counter>,
    migrations: Arc<Counter>,
    defrag_moves: Arc<Counter>,
    rebalance_moves: Arc<Counter>,
}

impl TotalsTally {
    fn new(telemetry: &Telemetry) -> Self {
        let counter = |name: &str| match telemetry.registry() {
            Some(registry) => registry.counter(name),
            None => Arc::new(Counter::new()),
        };
        TotalsTally {
            arrivals: counter("kairos.sim.total.arrivals"),
            admissions: counter("kairos.sim.total.admissions"),
            rejections: counter("kairos.sim.total.rejections"),
            departures: counter("kairos.sim.total.departures"),
            faults_injected: counter("kairos.sim.total.faults_injected"),
            repairs: counter("kairos.sim.total.repairs"),
            evictions: counter("kairos.sim.total.evictions"),
            readmissions: counter("kairos.sim.total.readmissions"),
            lost_to_faults: counter("kairos.sim.total.lost_to_faults"),
            preemptions: counter("kairos.sim.total.preemptions"),
            preempt_readmissions: counter("kairos.sim.total.preempt_readmissions"),
            lost_to_preemption: counter("kairos.sim.total.lost_to_preemption"),
            migrations: counter("kairos.sim.total.migrations"),
            defrag_moves: counter("kairos.sim.total.defrag_moves"),
            rebalance_moves: counter("kairos.sim.total.rebalance_moves"),
        }
    }

    fn materialize(&self) -> Totals {
        Totals {
            arrivals: self.arrivals.get(),
            admissions: self.admissions.get(),
            rejections: self.rejections.get(),
            departures: self.departures.get(),
            faults_injected: self.faults_injected.get(),
            repairs: self.repairs.get(),
            evictions: self.evictions.get(),
            readmissions: self.readmissions.get(),
            lost_to_faults: self.lost_to_faults.get(),
            preemptions: self.preemptions.get(),
            preempt_readmissions: self.preempt_readmissions.get(),
            lost_to_preemption: self.lost_to_preemption.get(),
            migrations: self.migrations.get(),
            defrag_moves: self.defrag_moves.get(),
            rebalance_moves: self.rebalance_moves.get(),
        }
    }
}

/// Bucket bounds of the per-class wait histograms, in virtual ticks:
/// powers of two spanning zero-wait door admissions up to the longest
/// deadline any catalog scenario allows.
const WAIT_HIST_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Running admission-queue statistics. The monotonic counters and the
/// depth high-water mark live on registry instruments
/// (`kairos.sim.queue.*`) exactly like [`TotalsTally`]; the per-class
/// arrays feed the report's per-class rows and stay plain integers, and
/// every wait figure — per class and overall — is read off the per-class
/// wait histograms.
#[derive(Debug)]
struct QueueAccum {
    queued: Arc<Counter>,
    admitted_immediate: Arc<Counter>,
    admitted_after_wait: Arc<Counter>,
    retry_attempts: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    rejected_permanent: Arc<Counter>,
    dropped_timeout: Arc<Counter>,
    dropped_retries_exhausted: Arc<Counter>,
    flushed_at_shutdown: Arc<Counter>,
    max_depth: Arc<Gauge>,
    class_queued: [u64; 4],
    class_admitted: [u64; 4],
    class_dropped: [u64; 4],
    /// Per-class wait histograms: their count, sum and max back the
    /// report's wait totals, means and maximum, their buckets its
    /// interpolated percentiles. Standalone instruments, never registered:
    /// they must exist — and record identically — whether or not the
    /// scenario enables telemetry, so wait fields cannot become an
    /// observer effect.
    class_wait_hist: [Histogram; 4],
}

impl QueueAccum {
    fn new(telemetry: &Telemetry) -> Self {
        let counter = |name: &str| match telemetry.registry() {
            Some(registry) => registry.counter(name),
            None => Arc::new(Counter::new()),
        };
        let max_depth = match telemetry.registry() {
            Some(registry) => registry.gauge("kairos.sim.queue.max_depth"),
            None => Arc::new(Gauge::new()),
        };
        QueueAccum {
            queued: counter("kairos.sim.queue.queued"),
            admitted_immediate: counter("kairos.sim.queue.admitted_immediate"),
            admitted_after_wait: counter("kairos.sim.queue.admitted_after_wait"),
            retry_attempts: counter("kairos.sim.queue.retry_attempts"),
            rejected_queue_full: counter("kairos.sim.queue.rejected.queue_full"),
            rejected_permanent: counter("kairos.sim.queue.rejected.permanent"),
            dropped_timeout: counter("kairos.sim.queue.dropped.timeout"),
            dropped_retries_exhausted: counter("kairos.sim.queue.dropped.retries_exhausted"),
            flushed_at_shutdown: counter("kairos.sim.queue.flushed_at_shutdown"),
            max_depth,
            class_queued: [0; 4],
            class_admitted: [0; 4],
            class_dropped: [0; 4],
            class_wait_hist: std::array::from_fn(|_| Histogram::new(WAIT_HIST_BOUNDS)),
        }
    }
}

/// Drives the Kairos run-time through one scenario run.
///
/// # Examples
///
/// ```
/// use kairos_sim::{Scenario, Simulator};
///
/// let scenario = Scenario::by_name("steady-churn").unwrap();
/// let report = Simulator::new(scenario).unwrap().run();
/// assert!(report.totals.arrivals > 0);
/// assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);
/// ```
#[derive(Debug)]
pub struct Simulator {
    scenario: Scenario,
    service: Box<dyn ResourceService>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    ran: bool,
    samplers: Vec<Option<WorkloadSampler>>,
    phase_starts: Vec<u64>,
    live: HashMap<AppId, LiveApp>,
    pending: HashMap<u64, Pending>,
    /// Cross-shard rebalancing re-admits an application under a fresh id;
    /// departures scheduled under the old id resolve through this chain.
    renames: HashMap<AppId, AppId>,
    /// Live handle onto the gateway's serving counters when the scenario
    /// runs behind one; the boxed service hides the concrete type.
    gateway_stats: Option<GatewayStats>,
    gateway_lanes: usize,
    /// Energy meter over the sampled element activity; runs when the
    /// scenario sets `power` (or `watch`, folded into `power`). A pure
    /// observer.
    energy: Option<EnergyMeter>,
    telemetry: Telemetry,
    totals: TotalsTally,
    rejections_by_phase: [u64; 4],
    phase_accum: Vec<PhaseAccum>,
    queue_accum: QueueAccum,
    samples: Vec<SamplePoint>,
}

impl Simulator {
    /// A simulator for `scenario` over the default manager configuration.
    ///
    /// Reports must be pure functions of the scenario, so the engine
    /// forces [`KairosConfig::deterministic`] (the pipeline runs on the
    /// zero phase clock) and takes the operating-point cache from
    /// [`Scenario::cache`].
    ///
    /// # Errors
    ///
    /// The scenario's [`Scenario::validate`] error, if any.
    pub fn new(mut scenario: Scenario) -> Result<Self, String> {
        scenario.validate()?;
        // `watch` means metering against the default power model.
        if scenario.watch.take().is_some() {
            scenario.power.get_or_insert_with(PowerModel::default);
        }
        let config = KairosConfig {
            cache: scenario.cache.then(CacheConfig::default),
            ..KairosConfig::default()
        };
        // One telemetry hub for the whole stack. The engine's forced
        // deterministic clock keeps the hub's default zero-duration mode:
        // every instrument below the service boundary records pure
        // op-sequence functions, so enabling telemetry cannot perturb a
        // report beyond adding its snapshot section.
        let telemetry = if scenario.telemetry || scenario.trace {
            Telemetry::new(TelemetryConfig {
                tracing: scenario.trace,
                ..TelemetryConfig::default()
            })
        } else {
            Telemetry::disabled()
        };
        let inner: Box<dyn ResourceService + Send> = match &scenario.cluster {
            None => {
                let mut builder = ServiceBuilder::new(scenario.platform.build())
                    .config(config)
                    .deterministic(true)
                    .telemetry(telemetry.clone());
                if let Some(policy) = &scenario.admission {
                    builder = builder.admission(*policy);
                }
                Box::new(builder.build().map_err(|e| format!("admission policy: {e}"))?)
            }
            Some(spec) => {
                let mut builder = ClusterBuilder::new(scenario.platform.build(), spec.shards)
                    .config(config)
                    .deterministic(true)
                    .telemetry(telemetry.clone())
                    .placement(spec.policy);
                if let Some(policy) = &scenario.admission {
                    builder = builder.admission(*policy);
                }
                Box::new(builder.build().map_err(|e| format!("cluster: {e}"))?)
            }
        };
        // The gateway wraps the (possibly clustered) service behind the
        // same `ResourceService` surface; the engine keeps a stats handle
        // so `finalize` can embed the serving counters after the service
        // is consumed by the run.
        let mut gateway_stats = None;
        let mut gateway_lanes = 0;
        let service: Box<dyn ResourceService> = match &scenario.gateway {
            None => inner,
            Some(config) => {
                let gateway = Gateway::with_telemetry(inner, *config, telemetry.clone());
                gateway_stats = Some(gateway.stats_handle());
                gateway_lanes = gateway.lane_count();
                Box::new(gateway)
            }
        };
        // One independent sampler per phase, seeded off the scenario seed so
        // adding a phase does not disturb the streams of the others.
        let samplers = scenario
            .phases
            .iter()
            .enumerate()
            .map(|(i, phase)| {
                phase.has_arrivals().then(|| {
                    WorkloadSampler::new(
                        format!("{}-p{i}", scenario.name),
                        WorkloadMix::new(phase.mix.clone()),
                        scenario.seed.wrapping_add(0x9E3779B9 * (i as u64 + 1)),
                    )
                })
            })
            .collect();
        let mut phase_starts = Vec::with_capacity(scenario.phases.len());
        let mut t = 0;
        for phase in &scenario.phases {
            phase_starts.push(t);
            t += phase.duration;
        }
        let phase_accum = vec![PhaseAccum::default(); scenario.phases.len()];
        // The meter reads the sample stream and never feeds anything
        // back: a metered run differs from an unmetered one only in its
        // `energy` report section (`tests/observers/mod.rs` pins that).
        let energy = scenario.power.clone().map(|model| EnergyMeter::new(model, &telemetry));
        Ok(Simulator {
            scenario,
            service,
            queue: BinaryHeap::new(),
            next_seq: 0,
            ran: false,
            samplers,
            phase_starts,
            live: HashMap::new(),
            pending: HashMap::new(),
            renames: HashMap::new(),
            gateway_stats,
            gateway_lanes,
            energy,
            totals: TotalsTally::new(&telemetry),
            rejections_by_phase: [0; 4],
            phase_accum,
            queue_accum: QueueAccum::new(&telemetry),
            telemetry,
            samples: Vec::new(),
        })
    }

    /// The managed platform's resource manager (for post-run inspection).
    /// For a clustered scenario this is the *first shard's* manager; use
    /// [`ResourceService::occupancy`] on [`Simulator::service`] for
    /// whole-service metrics.
    pub fn manager(&self) -> &Kairos {
        self.service.kairos()
    }

    /// The service the engine drives all scenario traffic through: one
    /// `kairos_admitd::Admitd` over the whole platform, or a
    /// `kairos-cluster` shard fleet of them when the scenario sets
    /// [`crate::ClusterSpec`] — either behind a `kairos-gateway` when it
    /// sets [`crate::Scenario::gateway`].
    pub fn service(&self) -> &dyn ResourceService {
        self.service.as_ref()
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The run's telemetry hub: [`Telemetry::disabled`] unless the
    /// scenario sets [`Scenario::telemetry`], in which case it is the
    /// parent handle every service layer (and the engine's own tallies)
    /// records through — use it to render the text exposition after a
    /// run.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether the scenario runs with an admission queue (queue
    /// statistics are only accumulated then).
    fn queue_enabled(&self) -> bool {
        self.scenario.admission.is_some()
    }

    fn schedule(&mut self, at: u64, event: SimEvent) {
        if at > self.scenario.horizon() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, event }));
    }

    /// The workload phase containing tick `t` (the last phase for the
    /// horizon tick itself).
    fn phase_at(&self, t: u64) -> usize {
        match self.phase_starts.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    fn phase_end(&self, phase: usize) -> u64 {
        self.phase_starts[phase] + self.scenario.phases[phase].duration
    }

    /// Runs the scenario to its horizon and aggregates the report. The
    /// simulator stays available afterwards for [`Self::manager`]
    /// inspection.
    ///
    /// # Panics
    ///
    /// Panics when called a second time: the service and samplers are
    /// mid-stream after a run, so a rerun would produce a corrupt report.
    /// Build a fresh `Simulator` instead (identical scenarios reproduce
    /// identical runs).
    pub fn run(&mut self) -> SimReport {
        assert!(!self.ran, "Simulator::run may only be called once; build a fresh Simulator");
        self.ran = true;
        // Seed the queue: samples over the whole horizon, the first arrival
        // of every arrival phase, and the scripted faults.
        let horizon = self.scenario.horizon();
        for t in ticks(0, self.scenario.sample_period, horizon) {
            self.schedule(t, SimEvent::Sample);
        }
        for phase in 0..self.scenario.phases.len() {
            if self.samplers[phase].is_some() {
                let start = self.phase_starts[phase];
                let mean = self.scenario.phases[phase].mean_interarrival;
                let dist = self.scenario.phases[phase].arrival;
                let gap =
                    self.samplers[phase].as_mut().expect("checked").next_delay_with(dist, mean);
                let at = start + gap;
                if at < self.phase_end(phase) {
                    self.schedule(at, SimEvent::Arrival { phase });
                }
            }
        }
        let fault_times: Vec<u64> = self.scenario.faults.iter().map(|f| f.at).collect();
        for (i, at) in fault_times.into_iter().enumerate() {
            self.schedule(at, SimEvent::Fault { fault: i });
        }
        if let Some(defrag) = self.scenario.defrag {
            for t in ticks(defrag.period, defrag.period, horizon) {
                self.schedule(t, SimEvent::Defrag);
            }
        }
        if let Some(rebalance) = self.scenario.cluster.and_then(|c| c.rebalance) {
            for t in ticks(rebalance.period, rebalance.period, horizon) {
                self.schedule(t, SimEvent::Rebalance);
            }
        }

        while let Some(Reverse(Scheduled { at, event, .. })) = self.queue.pop() {
            match event {
                SimEvent::Arrival { phase } => self.on_arrival(at, phase),
                SimEvent::Departure { app } => self.on_departure(at, app),
                SimEvent::Fault { fault } => self.on_fault(at, fault),
                SimEvent::Repair { element } => self.on_repair(at, element),
                SimEvent::QueueExpiry => {
                    let events = self.service.pump(CapacityEvent::Tick { now: at });
                    self.apply_events(at, events);
                }
                SimEvent::Defrag => self.on_defrag(at),
                SimEvent::Rebalance => self.on_rebalance(at),
                SimEvent::Sample => {
                    self.samples.push(SamplePoint {
                        at,
                        occupancy: self.service.occupancy(),
                        queue_depth: self.service.queue_depth() as u64,
                    });
                    if let Some(meter) = &mut self.energy {
                        meter.observe(at, self.service.element_activity());
                    }
                }
            }
        }

        // Flush whatever is still queued at the horizon so every arrival
        // reaches exactly one terminal outcome.
        let events = self.service.pump(CapacityEvent::Shutdown { now: horizon });
        self.apply_events(horizon, events);

        self.finalize()
    }

    fn on_arrival(&mut self, at: u64, phase: usize) {
        let spec_mean_lifetime = self.scenario.phases[phase].mean_lifetime;
        let mean_gap = self.scenario.phases[phase].mean_interarrival;
        let dist = self.scenario.phases[phase].arrival;
        let wave = self.scenario.phases[phase].batch.max(1);
        let class = self.scenario.phases[phase].priority;
        let sampler = self.samplers[phase].as_mut().expect("arrival phases have samplers");
        // Draw the whole wave, then the gap to the next one — one fixed
        // consumption order keeps the random streams stable.
        let mut arrivals: Vec<(Application, Option<u64>)> = Vec::with_capacity(wave as usize);
        for _ in 0..wave {
            let app = sampler.next_app();
            let lifetime = if spec_mean_lifetime > 0 {
                Some(sampler.next_delay(spec_mean_lifetime))
            } else {
                None
            };
            arrivals.push((app, lifetime));
        }
        let next_gap = sampler.next_delay_with(dist, mean_gap);

        self.totals.arrivals.add(wave);
        self.phase_accum[phase].arrivals += wave;
        if wave == 1 {
            let (app, lifetime) = arrivals.pop().expect("wave of one");
            let ticket = self.service.submit(Request::admit(at, app, class));
            self.pending.insert(
                ticket.0,
                Pending { lifetime, fixed_departure: None, phase, origin: Origin::Fresh },
            );
        } else {
            // A synchronized wave: admitted through the batched service
            // path as one operation.
            let lifetimes: Vec<Option<u64>> = arrivals.iter().map(|(_, l)| *l).collect();
            let requests: Vec<Request> =
                arrivals.into_iter().map(|(app, _)| Request::admit(at, app, class)).collect();
            let tickets = self.service.submit_batch(requests);
            for (ticket, lifetime) in tickets.into_iter().zip(lifetimes) {
                self.pending.insert(
                    ticket.0,
                    Pending { lifetime, fixed_departure: None, phase, origin: Origin::Fresh },
                );
            }
        }
        let events = self.service.take_events();
        self.apply_events(at, events);

        let next = at.saturating_add(next_gap);
        if next < self.phase_end(phase) {
            self.schedule(next, SimEvent::Arrival { phase });
        }
    }

    fn on_departure(&mut self, at: u64, app: AppId) {
        // A rebalance sweep may have moved the app to another shard since
        // this departure was scheduled, re-keying it; chase the renames to
        // its current id. The app may also already be gone entirely:
        // evicted by a fault and not re-admitted, or re-admitted under a
        // fresh id. The service reports `found: false` then and the
        // release is a no-op.
        let app = self.resolve(app);
        self.service.submit(Request::release(at, app));
        let events = self.service.take_events();
        self.apply_events(at, events);
    }

    /// The current id of `app`, chasing cross-shard rebalance renames
    /// (ids are never reused, so the chain cannot cycle).
    fn resolve(&self, mut app: AppId) -> AppId {
        while let Some(&next) = self.renames.get(&app) {
            app = next;
        }
        app
    }

    /// One cross-shard rebalancing sweep over the clustered platform.
    fn on_rebalance(&mut self, at: u64) {
        let max_moves = self
            .scenario
            .cluster
            .and_then(|c| c.rebalance)
            .expect("Rebalance events need a rebalance spec")
            .max_moves;
        self.service.submit(Request::new(at, Command::Rebalance { max_moves }));
        let events = self.service.take_events();
        self.apply_events(at, events);
    }

    /// One defragmenting compaction sweep over the managed platform.
    /// Moves strictly reduce external fragmentation and are bounded by the
    /// scenario's `max_moves`; on a queued service a sweep that moved
    /// anything is a capacity event, so its drain may admit waiters into
    /// the newly contiguous room.
    fn on_defrag(&mut self, at: u64) {
        let max_moves = self.scenario.defrag.expect("Defrag events need a defrag spec").max_moves;
        self.service.submit(Request::new(at, Command::Defrag { max_moves }));
        let events = self.service.take_events();
        self.apply_events(at, events);
    }

    fn on_repair(&mut self, at: u64, element: ElementId) {
        self.totals.repairs.inc();
        self.service.submit(Request::new(at, Command::Repair { element }));
        let events = self.service.take_events();
        self.apply_events(at, events);
    }

    fn on_fault(&mut self, at: u64, fault: usize) {
        let spec = self.scenario.faults[fault];
        let element = ElementId(spec.element);
        self.totals.faults_injected.inc();
        if let Some(after) = spec.repair_after {
            self.schedule(at.saturating_add(after), SimEvent::Repair { element });
        }
        self.service.submit(Request::new(at, Command::InjectFault { element }));
        let events = self.service.take_events();
        let victims: Vec<AppId> = events
            .iter()
            .find_map(|e| match e {
                Event::ElementFailed { evicted, .. } => Some(evicted.clone()),
                _ => None,
            })
            .expect("a fault command reports ElementFailed");
        self.apply_events(at, events);
        for victim in victims {
            let Some(live) = self.live.remove(&victim) else { continue };
            if !self.scenario.readmit_evicted {
                self.totals.lost_to_faults.inc();
                continue;
            }
            // Evicted applications are offered for re-admission under
            // their original class, keeping their departure instant: an
            // immediate outcome on a queue-less service, a queued retryable
            // request on a queued one.
            let ticket = self.service.submit(Request::admit(at, live.app.clone(), live.class));
            self.pending.insert(
                ticket.0,
                Pending {
                    lifetime: None,
                    fixed_departure: live.departs_at,
                    phase: self.phase_at(at),
                    origin: Origin::Fault,
                },
            );
            let events = self.service.take_events();
            self.apply_events(at, events);
        }
    }

    /// Folds one batch of service events into the run's accounting:
    /// admissions (scheduling departures), retries, rejections, releases,
    /// evictions and queue-depth high-water marks.
    ///
    /// Queue statistics (`QueueReport`) count *first-class requests only*:
    /// the re-submissions of fault-evicted applications surface under
    /// `readmissions`/`lost_to_faults` exactly as without a queue, so
    /// `queued == admitted + dropped` style balances hold with or without
    /// faults in the scenario.
    fn apply_events(&mut self, at: u64, events: Vec<Event>) {
        let max_wait = self.scenario.admission.as_ref().and_then(|p| p.max_wait);
        let queue_enabled = self.queue_enabled();
        for event in events {
            match event {
                Event::Queued { ticket, class, depth } => {
                    let info = self.pending[&ticket.0];
                    if info.origin == Origin::Fresh {
                        self.queue_accum.queued.inc();
                        self.queue_accum.class_queued[class.index()] += 1;
                    }
                    self.queue_accum.max_depth.set_max(depth as i64);
                    if let Some(wait) = max_wait {
                        self.schedule(at.saturating_add(wait), SimEvent::QueueExpiry);
                    }
                }
                Event::Admitted { ticket, class, app, report, waited, .. } => {
                    let info =
                        self.pending.remove(&ticket.0).expect("admitted tickets are pending");
                    match info.origin {
                        Origin::Fault => self.totals.readmissions.inc(),
                        Origin::Preempt => self.totals.preempt_readmissions.inc(),
                        Origin::Fresh => {
                            self.totals.admissions.inc();
                            self.phase_accum[info.phase].admissions += 1;
                            if queue_enabled {
                                if waited == 0 {
                                    self.queue_accum.admitted_immediate.inc();
                                } else {
                                    self.queue_accum.admitted_after_wait.inc();
                                }
                                self.queue_accum.class_admitted[class.index()] += 1;
                                self.record_wait(class, waited);
                            }
                        }
                    }
                    let departs_at =
                        info.fixed_departure.or(info.lifetime.map(|l| at.saturating_add(l)));
                    if let Some(departure) = departs_at {
                        // A re-admitted app whose departure is overdue
                        // leaves immediately (next tick processing order).
                        self.schedule(
                            departure.max(at),
                            SimEvent::Departure { app: report.app_id },
                        );
                    }
                    self.live.insert(report.app_id, LiveApp { app: *app, departs_at, class });
                }
                Event::AttemptFailed { ticket, .. } => {
                    let first_class =
                        self.pending.get(&ticket.0).is_none_or(|p| p.origin == Origin::Fresh);
                    if first_class {
                        self.queue_accum.retry_attempts.inc();
                    }
                }
                Event::Preempted { victim, requeued_as, .. } => {
                    // The victim leaves the platform but not the system:
                    // its requeue ticket inherits the departure schedule,
                    // exactly like a fault-evicted re-submission.
                    let live = self.live.remove(&victim).expect("preemption victims are live apps");
                    self.totals.preemptions.inc();
                    self.pending.insert(
                        requeued_as.0,
                        Pending {
                            lifetime: None,
                            fixed_departure: live.departs_at,
                            phase: self.phase_at(at),
                            origin: Origin::Preempt,
                        },
                    );
                }
                Event::Migrated { .. } => {
                    // The app keeps running under the same id; only the
                    // placement changed. (Defrag sweeps report their moves
                    // in `Event::Defragged` counts, not here.)
                    self.totals.migrations.inc();
                }
                Event::MigrationFailed { .. } => {
                    // The engine issues no `Migrate` commands of its own;
                    // a failed preemption-migration falls back to eviction
                    // inside the service and never surfaces here.
                }
                Event::Rejected { ticket, class, cause, waited, .. } => {
                    let info =
                        self.pending.remove(&ticket.0).expect("rejected tickets are pending");
                    match info.origin {
                        Origin::Fault => {
                            self.totals.lost_to_faults.inc();
                            continue;
                        }
                        Origin::Preempt => {
                            self.totals.lost_to_preemption.inc();
                            continue;
                        }
                        Origin::Fresh => {}
                    }
                    self.totals.rejections.inc();
                    self.phase_accum[info.phase].rejections += 1;
                    if let RejectCause::Refused { phase } = cause {
                        // The queue-less door's immediate rejection: pipeline
                        // attribution only, no queue involved.
                        self.rejections_by_phase[phase as usize] += 1;
                        continue;
                    }
                    self.queue_accum.class_dropped[class.index()] += 1;
                    match cause {
                        RejectCause::Refused { .. } => unreachable!("handled above"),
                        RejectCause::QueueFull => self.queue_accum.rejected_queue_full.inc(),
                        RejectCause::Permanent { phase } => {
                            self.queue_accum.rejected_permanent.inc();
                            self.rejections_by_phase[phase as usize] += 1;
                            self.record_wait(class, waited);
                        }
                        RejectCause::Timeout => {
                            self.queue_accum.dropped_timeout.inc();
                            self.record_wait(class, waited);
                        }
                        RejectCause::RetriesExhausted { phase } => {
                            self.queue_accum.dropped_retries_exhausted.inc();
                            self.rejections_by_phase[phase as usize] += 1;
                            self.record_wait(class, waited);
                        }
                        RejectCause::Shutdown => {
                            self.queue_accum.flushed_at_shutdown.inc();
                            self.record_wait(class, waited);
                        }
                    }
                }
                Event::Released { app, found, .. } => {
                    if found {
                        self.live.remove(&app);
                        self.totals.departures.inc();
                        let phase = self.phase_at(at);
                        self.phase_accum[phase].departures += 1;
                    }
                }
                Event::ElementFailed { evicted, .. } => {
                    self.totals.evictions.add(evicted.len() as u64);
                }
                Event::ElementRepaired { .. } => {}
                Event::Defragged { moves, .. } => {
                    self.totals.defrag_moves.add(moves as u64);
                }
                Event::Rebalanced { moves, .. } => {
                    // Each move re-admitted a live application on another
                    // shard under a fresh id; re-key its bookkeeping and
                    // remember the rename so its scheduled departure still
                    // finds it.
                    self.totals.rebalance_moves.add(moves.len() as u64);
                    for (from, to) in moves {
                        let live = self.live.remove(&from).expect("rebalance moves only live apps");
                        self.renames.insert(from, to);
                        self.live.insert(to, live);
                    }
                }
            }
        }
        self.queue_accum.max_depth.set_max(self.service.queue_depth() as i64);
    }

    fn record_wait(&mut self, class: PriorityClass, waited: u64) {
        self.queue_accum.class_wait_hist[class.index()].record(waited);
    }

    fn finalize(&mut self) -> SimReport {
        let phases = self
            .scenario
            .phases
            .iter()
            .enumerate()
            .map(|(i, phase)| {
                let accum = &self.phase_accum[i];
                let start = self.phase_starts[i];
                let end = self.phase_end(i);
                let window: Vec<&SamplePoint> =
                    self.samples.iter().filter(|s| s.at >= start && s.at < end).collect();
                let mean = |f: fn(&SamplePoint) -> f64| {
                    if window.is_empty() {
                        0.0
                    } else {
                        window.iter().map(|s| f(s)).sum::<f64>() / window.len() as f64
                    }
                };
                PhaseStats {
                    name: phase.name.clone(),
                    start,
                    end,
                    arrivals: accum.arrivals,
                    admissions: accum.admissions,
                    rejections: accum.rejections,
                    departures: accum.departures,
                    rejection_rate: if accum.arrivals == 0 {
                        0.0
                    } else {
                        accum.rejections as f64 / accum.arrivals as f64
                    },
                    mean_utilisation: mean(|s| s.occupancy.element_utilisation),
                    mean_fragmentation: mean(|s| s.occupancy.external_fragmentation),
                }
            })
            .collect();

        let qa = &self.queue_accum;
        let mean_of = |total: u64, samples: u64| {
            if samples == 0 {
                0.0
            } else {
                total as f64 / samples as f64
            }
        };
        let waits = qa.class_wait_hist.each_ref().map(Histogram::snapshot);
        let by_class = PriorityClass::ALL
            .iter()
            .map(|&class| {
                let i = class.index();
                ClassQueueStats {
                    class: class.to_string(),
                    queued: qa.class_queued[i],
                    admitted: qa.class_admitted[i],
                    dropped: qa.class_dropped[i],
                    total_wait: waits[i].sum,
                    mean_wait: mean_of(waits[i].sum, waits[i].count),
                    wait_p50: waits[i].percentile(50),
                    wait_p95: waits[i].percentile(95),
                    wait_p99: waits[i].percentile(99),
                }
            })
            .collect();
        let queue = QueueReport {
            enabled: self.scenario.admission.is_some(),
            queued: qa.queued.get(),
            admitted_immediate: qa.admitted_immediate.get(),
            admitted_after_wait: qa.admitted_after_wait.get(),
            retry_attempts: qa.retry_attempts.get(),
            rejected_queue_full: qa.rejected_queue_full.get(),
            rejected_permanent: qa.rejected_permanent.get(),
            dropped_timeout: qa.dropped_timeout.get(),
            dropped_retries_exhausted: qa.dropped_retries_exhausted.get(),
            flushed_at_shutdown: qa.flushed_at_shutdown.get(),
            max_depth: qa.max_depth.get().max(0) as u64,
            mean_wait: mean_of(
                waits.iter().map(|w| w.sum).sum(),
                waits.iter().map(|w| w.count).sum(),
            ),
            max_wait: waits.iter().map(|w| w.max).max().unwrap_or(0),
            by_class,
        };

        SimReport {
            scenario: self.scenario.name.clone(),
            seed: self.scenario.seed,
            horizon: self.scenario.horizon(),
            totals: self.totals.materialize(),
            rejections_by_phase: Phase::ALL
                .iter()
                .enumerate()
                .map(|(i, phase)| (phase.to_string(), self.rejections_by_phase[i]))
                .collect(),
            phases,
            queue,
            samples: std::mem::take(&mut self.samples),
            final_state: self.service.occupancy(),
            // Snapshot last: the occupancy call above is read-only, so
            // every instrument has its final value by now. The registry
            // also runs when only tracing is on (one hub serves both);
            // the report section stays gated on the scenario flag.
            telemetry: if self.scenario.telemetry {
                self.telemetry.registry().map(kairos_telemetry::Registry::snapshot)
            } else {
                None
            },
            trace: self.scenario.trace.then(|| self.trace_report()),
            cache: self.scenario.cache.then(|| self.service.cache_stats().unwrap_or_default()),
            gateway: self.gateway_stats.as_ref().map(|stats| GatewayReport {
                counters: stats.snapshot(),
                lanes: self.gateway_lanes as u64,
            }),
            energy: self.energy.take().map(|meter| meter.finish(self.scenario.horizon())),
        }
    }

    /// The end-of-run [`TraceReport`]: dumps the trace sink, summarizes
    /// every request trace ([`kairos_telemetry::summarize`]) and
    /// aggregates per-class latency digests plus the critical-path tally.
    fn trace_report(&self) -> TraceReport {
        let spans = self.telemetry.trace_dump();
        let summaries = kairos_telemetry::summarize(&spans);
        let mut critical: BTreeMap<String, u64> = BTreeMap::new();
        let mut latencies: [Vec<u64>; 4] = Default::default();
        for summary in &summaries {
            *critical.entry(summary.critical.clone()).or_insert(0) += 1;
            if let Some(class) = PriorityClass::ALL.iter().find(|c| c.to_string() == summary.class)
            {
                latencies[class.index()].push(summary.latency);
            }
        }
        let by_class = PriorityClass::ALL
            .iter()
            .filter(|class| !latencies[class.index()].is_empty())
            .map(|class| {
                let sorted = &mut latencies[class.index()].clone();
                sorted.sort_unstable();
                ClassTraceStats {
                    class: class.to_string(),
                    count: sorted.len() as u64,
                    p50: nearest_rank(sorted, 50),
                    p95: nearest_rank(sorted, 95),
                    p99: nearest_rank(sorted, 99),
                    max: *sorted.last().expect("non-empty by filter"),
                }
            })
            .collect();
        TraceReport {
            traces: summaries.len() as u64,
            spans: spans.len() as u64,
            by_class,
            critical_paths: critical.into_iter().collect(),
        }
    }
}

/// Exact nearest-rank percentile over an ascending-sorted population
/// (`0` when empty): the value whose rank is `ceil(p × n / 100)`.
fn nearest_rank(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u128 * u128::from(p)).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `first`, `first + period`, … up to `horizon`, stopping where the next
/// tick would overflow `u64` (a horizon of `u64::MAX` never ends a
/// `while t <= horizon` loop).
fn ticks(first: u64, period: u64, horizon: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(first), move |t| t.checked_add(period))
        .take_while(move |&t| t <= horizon)
}
