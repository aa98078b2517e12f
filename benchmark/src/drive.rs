//! One round: build a fresh service stack, replay the storm through its
//! outermost layer as a closed loop with one client, keep FIFO lifetimes,
//! and record raw timings, calibration samples, exact counters and the
//! event digest.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use kairos::admitd::{AdmitPolicy, PreemptionPolicy};
use kairos::app::Application;
use kairos::cluster::ClusterBuilder;
use kairos::core::{CacheConfig, CacheStats, KairosConfig, Phase};
use kairos::gateway::{Gateway, GatewayConfig, GatewayCounters};
use kairos::platform::{AppId, Platform};
use kairos::svc::{
    CapacityEvent, Command, Event, RejectCause, Request, ResourceService, ServiceBuilder,
};

use crate::calib::CalClock;
use crate::spans::{LayerNames, Spanned, Tracer, CLUSTER_SPANS, GATEWAY_SPANS, OUTER_SPANS};
use crate::storm::{self, Step};
use crate::tables::{Stack, Workload, WINDOW_OPS};

/// Moves one scripted `Defrag` sweep may make.
const DEFRAG_MOVES: usize = 4;

/// Shards of the clustered workloads: two, so probe workers never exceed
/// the box's two cores.
pub const SHARDS: usize = 2;

/// The queued workload's admission policy: the default queue sizes and
/// back-off, migrate-preemption for blocked criticals, and a time-out
/// and a retry budget tight enough that both fire inside a round.
pub fn queued_policy() -> AdmitPolicy {
    AdmitPolicy {
        max_wait: Some(16),
        max_attempts: 4,
        preemption: PreemptionPolicy::Migrate,
        ..AdmitPolicy::default()
    }
}

/// The outermost layer a client talks to.
pub enum Outer {
    Service(Box<dyn ResourceService + Send>),
    Gateway(Box<Gateway>),
}

impl Outer {
    pub fn service(&mut self) -> &mut dyn ResourceService {
        match self {
            Outer::Service(service) => service.as_mut(),
            Outer::Gateway(gateway) => gateway.as_mut(),
        }
    }

    /// The span names of the trait calls into the outermost layer.
    fn names(&self) -> &'static LayerNames {
        match self {
            Outer::Service(_) => &OUTER_SPANS,
            Outer::Gateway(_) => &GATEWAY_SPANS,
        }
    }

    /// One command through the trait surface, then its events.
    fn perform(&mut self, request: Request, tracer: Option<&Tracer>) -> Vec<Event> {
        let names = self.names();
        {
            let _span = tracer.map(|t| t.enter(names.submit));
            self.service().submit(request);
        }
        let _span = tracer.map(|t| t.enter(names.take_events));
        self.service().take_events()
    }

    fn pump(&mut self, event: CapacityEvent, tracer: Option<&Tracer>) -> Vec<Event> {
        let _span = tracer.map(|t| t.enter(self.names().pump));
        self.service().pump(event)
    }

    /// Hands a wave of admissions over and returns the events: one
    /// `submit` each on a service, `enqueue` each then one `drive` on the
    /// gateway. `submitted` is told each request's ticket.
    fn admit(
        &mut self,
        wave: Vec<(usize, Request)>,
        tracer: Option<&Tracer>,
        mut submitted: impl FnMut(u64, usize),
    ) -> Vec<Event> {
        for (request, admit) in wave {
            let ticket = match self {
                Outer::Service(service) => {
                    let _span = tracer.map(|t| t.enter(OUTER_SPANS.submit));
                    service.submit(admit)
                }
                Outer::Gateway(gateway) => {
                    let _span = tracer.map(|t| t.enter("gateway.enqueue"));
                    gateway.enqueue(admit)
                }
            };
            submitted(ticket.0, request);
        }
        if let Outer::Gateway(gateway) = self {
            let _span = tracer.map(|t| t.enter("gateway.drive"));
            gateway.drive();
        }
        let _span = tracer.map(|t| t.enter(self.names().take_events));
        self.service().take_events()
    }
}

/// Events the validation phase may simulate per request in every
/// benchmark stack — a twentieth of the default.
///
/// Validation cost is wildly skewed: on an empty CRISP the median
/// application's state-space analysis takes 34 us and the worst 130 ms
/// (and tens of megabytes), 25 of 1060 admissible applications hold 71 %
/// of the catalogue's validation time, and a normally cheap application
/// can blow up the same way beside the wrong residents. Whether such a
/// request reaches validation at all depends on the order of the storm,
/// so at the default budget the *order* alone moved `ops_per_s` by 15 %
/// and `peak_rss_mb` by 70 % from seed to seed. A real-time admission
/// controller bounds its analysis; the benchmark runs with a bound, and
/// measures the unbounded analysis on its own, deterministically, as
/// `sdf.throughput_us`.
pub const VALIDATION_EVENTS: usize = 10_000;

/// The manager configuration of every benchmark stack: the defaults,
/// the bounded validation budget, and optionally the cache.
pub fn manager_config(cached: bool) -> KairosConfig {
    let mut config = KairosConfig::default();
    config.validation.max_events = VALIDATION_EVENTS;
    config.cache = cached.then(CacheConfig::default);
    config
}

pub fn cluster(platform: Platform, shards: usize, cached: bool) -> Box<dyn ResourceService + Send> {
    Box::new(
        ClusterBuilder::new(platform, shards)
            .config(manager_config(cached))
            .build()
            .expect("two shards fit every benchmark platform"),
    )
}

/// Builds the workload's stack over `platform`. With a tracer, the
/// gateway's inner service is wrapped so the gateway→cluster boundary
/// records spans.
pub fn build_stack(workload: &Workload, platform: Platform, tracer: Option<&Tracer>) -> Outer {
    match workload.stack {
        Stack::Direct => Outer::Service(Box::new(
            ServiceBuilder::new(platform)
                .config(manager_config(false))
                .build()
                .expect("default policies are valid"),
        )),
        Stack::Queued => Outer::Service(Box::new(
            ServiceBuilder::new(platform)
                .config(manager_config(false))
                .admission(queued_policy())
                .build()
                .expect("the queued policy is valid"),
        )),
        Stack::Gateway { cached } => {
            let mut inner = cluster(platform, SHARDS, cached);
            if let Some(tracer) = tracer {
                inner = Box::new(Spanned::new(inner, CLUSTER_SPANS, tracer.clone()));
            }
            Outer::Gateway(Box::new(Gateway::new(inner, GatewayConfig::default())))
        }
    }
}

/// Exact, seed-determined results of a round — equal across rounds of a
/// run or the run fails.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub attempted: u64,
    pub rejected: u64,
    pub hops: u64,
    pub channels: u64,
    pub frag_sum: f64,
    pub frag_samples: u64,
    /// Binding, mapping, routing, validation (refused or permanent).
    pub reject_phase: [u64; 4],
    pub reject_queue_full: u64,
    /// Timed out, or still waiting when the round ended.
    pub reject_timeout: u64,
    pub reject_retries: u64,
    pub queued: u64,
    pub admitted: u64,
    pub attempts_sum: u64,
    pub wait_ticks_sum: u64,
    pub preemptions: u64,
    pub readmitted: u64,
    pub moves: u64,
    pub releases: u64,
    pub cache: Option<CacheStats>,
    pub gateway: Option<GatewayCounters>,
    /// Tickets that saw no terminal event, or more than one.
    pub terminal_violations: u64,
    pub idle_after_drain: bool,
    pub digest: u64,
}

impl Counts {
    /// Adds another sequence's results to these.
    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.hops += other.hops;
        self.channels += other.channels;
        self.frag_sum += other.frag_sum;
        self.frag_samples += other.frag_samples;
        for (mine, theirs) in self.reject_phase.iter_mut().zip(other.reject_phase) {
            *mine += theirs;
        }
        self.reject_queue_full += other.reject_queue_full;
        self.reject_timeout += other.reject_timeout;
        self.reject_retries += other.reject_retries;
        self.queued += other.queued;
        self.admitted += other.admitted;
        self.attempts_sum += other.attempts_sum;
        self.wait_ticks_sum += other.wait_ticks_sum;
        self.preemptions += other.preemptions;
        self.readmitted += other.readmitted;
        self.moves += other.moves;
        self.releases += other.releases;
        self.cache = match (self.cache, other.cache) {
            (Some(mine), Some(theirs)) => Some(mine.merge(theirs)),
            (mine, theirs) => mine.or(theirs),
        };
        self.gateway = match (self.gateway, other.gateway) {
            (Some(mine), Some(theirs)) => Some(GatewayCounters {
                submitted: mine.submitted + theirs.submitted,
                forwarded: mine.forwarded + theirs.forwarded,
                singles: mine.singles + theirs.singles,
                batches: mine.batches + theirs.batches,
                coalesced: mine.coalesced + theirs.coalesced,
                completions: mine.completions + theirs.completions,
                peak_inflight: mine.peak_inflight.max(theirs.peak_inflight),
                parked: mine.parked + theirs.parked,
            }),
            (mine, theirs) => mine.or(theirs),
        };
        self.terminal_violations += other.terminal_violations;
        self.idle_after_drain &= other.idle_after_drain;
        fnv(&mut self.digest, other.digest);
    }

    pub fn reject_share(&self) -> f64 {
        self.rejected as f64 / self.attempted as f64
    }

    pub fn hops_per_channel(&self) -> f64 {
        self.hops as f64 / self.channels.max(1) as f64
    }

    pub fn frag_mean(&self) -> f64 {
        self.frag_sum / self.frag_samples.max(1) as f64
    }
}

/// Calibrated timings of a round.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Calibrated latency of each admission in microseconds, in request
    /// order: from handing the request (or its wave) to the outermost
    /// layer until the call that returned its terminal event came back.
    pub latency_us: Vec<f64>,
    /// Calibrated time inside calls into the system — admissions,
    /// releases and every other command — each window scaled by its own
    /// kernel sample.
    pub round_ns: f64,
    /// The same, as the host measured it.
    pub raw_round_ns: f64,
    /// Every kernel sample of the round.
    pub kernel_ns: Vec<f64>,
    /// Calibrated time inside `pump(Tick)` calls, and their count.
    pub pump_ns: f64,
    pub pumps: u64,
    /// Calibrated time inside `Defrag` commands, and their count.
    pub defrag_ns: f64,
    pub defrags: u64,
}

pub struct Round {
    pub counts: Counts,
    pub timings: Timings,
}

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Binding => 0,
        Phase::Mapping => 1,
        Phase::Routing => 2,
        Phase::Validation => 3,
    }
}

/// Client-side bookkeeping of one round: FIFO residents, ticket
/// lifecycle, counters and the digest.
struct Ledger {
    counts: Counts,
    residents: VecDeque<AppId>,
    /// Tickets still owed a terminal event.
    pending: HashSet<u64>,
    /// Request tickets: ticket → (request index, submission instant).
    requests: HashMap<u64, (usize, Instant)>,
    /// Tickets minted for preempted victims.
    requeued: HashSet<u64>,
    /// Rejections seen since the lifetimes were last applied.
    fresh_rejections: usize,
    /// Raw latencies of the requests completed in the open window.
    completed: Vec<(usize, f64)>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            counts: Counts { digest: 0xCBF2_9CE4_8422_2325, ..Counts::default() },
            residents: VecDeque::new(),
            pending: HashSet::new(),
            requests: HashMap::new(),
            requeued: HashSet::new(),
            fresh_rejections: 0,
            completed: Vec::new(),
        }
    }

    fn submitted(&mut self, ticket: u64, request: usize, at: Instant) {
        self.counts.attempted += 1;
        self.pending.insert(ticket);
        self.requests.insert(ticket, (request, at));
    }

    fn terminal(&mut self, ticket: u64, returned: Instant) {
        if !self.pending.remove(&ticket) {
            self.counts.terminal_violations += 1;
        }
        if let Some((request, start)) = self.requests.remove(&ticket) {
            self.completed.push((request, returned.duration_since(start).as_nanos() as f64));
        }
    }

    /// Folds the events one call returned into the ledger. `returned` is
    /// the instant the call handed them back — the end of the latency of
    /// every request they complete.
    fn absorb(&mut self, events: Vec<Event>, returned: Instant) {
        for event in events {
            let digest = &mut self.counts.digest;
            match event {
                Event::Queued { ticket, depth, .. } => {
                    fnv(digest, 1);
                    fnv(digest, ticket.0);
                    fnv(digest, depth as u64);
                    self.counts.queued += 1;
                }
                Event::Admitted { ticket, app, report, waited, attempts, .. } => {
                    fnv(digest, 2);
                    fnv(digest, ticket.0);
                    fnv(digest, report.app_id.0 as u64);
                    fnv(digest, waited);
                    fnv(digest, attempts as u64);
                    fnv(digest, report.layout.total_hops() as u64);
                    self.counts.admitted += 1;
                    self.counts.attempts_sum += attempts as u64;
                    self.counts.wait_ticks_sum += waited;
                    self.counts.hops += report.layout.total_hops() as u64;
                    self.counts.channels += app.channel_count() as u64;
                    if self.requeued.remove(&ticket.0) {
                        self.counts.readmitted += 1;
                    }
                    self.residents.push_back(report.app_id);
                    self.terminal(ticket.0, returned);
                }
                Event::AttemptFailed { ticket, attempt, phase, .. } => {
                    fnv(digest, 3);
                    fnv(digest, ticket.0);
                    fnv(digest, attempt as u64);
                    fnv(digest, phase_index(phase) as u64);
                }
                Event::Rejected { ticket, cause, waited, .. } => {
                    fnv(digest, 4);
                    fnv(digest, ticket.0);
                    fnv(digest, waited);
                    let code = match cause {
                        RejectCause::Refused { phase } | RejectCause::Permanent { phase } => {
                            phase_index(phase) as u64
                        }
                        RejectCause::RetriesExhausted { phase } => 4 + phase_index(phase) as u64,
                        RejectCause::QueueFull => 8,
                        RejectCause::Timeout => 9,
                        RejectCause::Shutdown => 10,
                    };
                    fnv(digest, code);
                    if self.requeued.remove(&ticket.0) {
                        // A preempted victim that never got back in: not a
                        // request of the storm, so not in `rejected`.
                    } else {
                        self.counts.rejected += 1;
                        match cause {
                            RejectCause::Refused { phase } | RejectCause::Permanent { phase } => {
                                self.counts.reject_phase[phase_index(phase)] += 1;
                            }
                            RejectCause::RetriesExhausted { .. } => self.counts.reject_retries += 1,
                            RejectCause::QueueFull => self.counts.reject_queue_full += 1,
                            RejectCause::Timeout | RejectCause::Shutdown => {
                                self.counts.reject_timeout += 1;
                            }
                        }
                        self.fresh_rejections += 1;
                    }
                    self.terminal(ticket.0, returned);
                }
                Event::Preempted { victim, requeued_as, by, .. } => {
                    fnv(digest, 5);
                    fnv(digest, victim.0 as u64);
                    fnv(digest, requeued_as.0);
                    fnv(digest, by.0);
                    self.counts.preemptions += 1;
                    self.residents.retain(|&id| id != victim);
                    self.pending.insert(requeued_as.0);
                    self.requeued.insert(requeued_as.0);
                }
                Event::Migrated { ticket, app, moved_tasks } => {
                    fnv(digest, 6);
                    fnv(digest, ticket.0);
                    fnv(digest, app.0 as u64);
                    fnv(digest, moved_tasks as u64);
                    self.counts.moves += 1;
                }
                Event::MigrationFailed { ticket, app, .. } => {
                    fnv(digest, 7);
                    fnv(digest, ticket.0);
                    fnv(digest, app.0 as u64);
                }
                Event::Released { ticket, app, found } => {
                    fnv(digest, 8);
                    fnv(digest, ticket.0);
                    fnv(digest, app.0 as u64);
                    fnv(digest, found as u64);
                    self.counts.releases += 1;
                }
                Event::ElementFailed { ticket, element, evicted } => {
                    fnv(digest, 9);
                    fnv(digest, ticket.0);
                    fnv(digest, element.0 as u64);
                    for victim in evicted {
                        fnv(digest, victim.0 as u64);
                        self.residents.retain(|&id| id != victim);
                    }
                }
                Event::ElementRepaired { ticket, element } => {
                    fnv(digest, 10);
                    fnv(digest, ticket.0);
                    fnv(digest, element.0 as u64);
                }
                Event::Defragged { ticket, moves } => {
                    fnv(digest, 11);
                    fnv(digest, ticket.0);
                    fnv(digest, moves as u64);
                    self.counts.moves += moves as u64;
                }
                Event::Rebalanced { ticket, moves } => {
                    fnv(digest, 12);
                    fnv(digest, ticket.0);
                    fnv(digest, moves.len() as u64);
                }
            }
        }
    }
}

/// Stopwatch slots of a round.
const ALL: usize = 0;
const PUMP: usize = 1;
const DEFRAG: usize = 2;

/// The replay state of one round.
struct Replay<'a> {
    workload: &'a Workload,
    outer: Outer,
    tracer: Option<&'a Tracer>,
    ledger: Ledger,
    clock: CalClock<3>,
    latency_us: Vec<f64>,
    ops_in_window: usize,
    now: u64,
}

impl Replay<'_> {
    /// Runs `call` against the outermost layer inside the timed section
    /// and folds the events it produced into the ledger.
    fn timed(
        &mut self,
        span: &'static str,
        slot: Option<usize>,
        call: impl FnOnce(&mut Outer, &mut Ledger, Option<&Tracer>) -> Vec<Event>,
    ) {
        let _span = self.tracer.map(|t| t.enter(span));
        let start = Instant::now();
        let events = call(&mut self.outer, &mut self.ledger, self.tracer);
        let returned = Instant::now();
        let elapsed = returned.duration_since(start).as_nanos() as f64;
        self.clock.add(ALL, elapsed);
        if let Some(slot) = slot {
            self.clock.add(slot, elapsed);
        }
        self.ledger.absorb(events, returned);
    }

    fn command(&mut self, span: &'static str, slot: Option<usize>, command: Command) {
        let request = Request::new(self.now, command);
        self.timed(span, slot, |outer, _, tracer| outer.perform(request, tracer));
    }

    /// FIFO lifetimes: the oldest resident leaves once per fresh
    /// rejection, and while more than the cap are resident.
    fn apply_lifetimes(&mut self) {
        loop {
            let over = self.ledger.residents.len() > self.workload.resident_cap;
            if !over && self.ledger.fresh_rejections == 0 {
                break;
            }
            if !over {
                self.ledger.fresh_rejections -= 1;
            }
            let Some(oldest) = self.ledger.residents.pop_front() else {
                self.ledger.fresh_rejections = 0;
                break;
            };
            self.command("client.release", None, Command::Release { app: oldest });
        }
    }

    /// Hands one wave of admissions to the outermost layer.
    fn admit_wave(&mut self, wave: Vec<(usize, Request)>) {
        if wave.is_empty() {
            return;
        }
        if let Some(tracer) = self.tracer {
            tracer.set_request(wave[0].0 as u64);
        }
        let size = wave.len();
        self.timed("client.admit", None, |outer, ledger, tracer| {
            let start = Instant::now();
            outer.admit(wave, tracer, |ticket, request| ledger.submitted(ticket, request, start))
        });
        self.ops_in_window += size;
        let closing = self.ops_in_window >= WINDOW_OPS;
        if closing {
            // Fragmentation is sampled as in the paper's Fig. 9: right
            // after an admission attempt, before anything leaves.
            let occupancy = self.outer.service().occupancy();
            self.ledger.counts.frag_sum += occupancy.external_fragmentation;
            self.ledger.counts.frag_samples += 1;
        }
        self.apply_lifetimes();
        if closing {
            self.close_window();
        }
    }

    /// Ends a calibration window with a kernel sample, outside the timed
    /// sections, and scales the window's latencies by it.
    fn close_window(&mut self) {
        let scale = self.clock.close();
        for (request, raw_ns) in self.ledger.completed.drain(..) {
            self.latency_us[request] = raw_ns * scale / 1e3;
        }
        self.ops_in_window = 0;
    }
}

/// Replays `steps` over `apps` once through `outer`, a freshly built
/// stack.
pub fn run_round(
    workload: &Workload,
    apps: &[Application],
    steps: &[Step],
    outer: Outer,
    tracer: Option<&Tracer>,
) -> Round {
    // The client's requests are built before the clock starts: the
    // program receives only generated inputs.
    let mut requests: Vec<Option<Request>> = steps
        .iter()
        .map(|step| match *step {
            Step::Admit { app, class, at } => Some(Request::admit(at, apps[app].clone(), class)),
            _ => None,
        })
        .collect();
    let mut replay = Replay {
        workload,
        outer,
        tracer,
        ledger: Ledger::new(),
        clock: CalClock::start(),
        latency_us: vec![0.0; storm::admits(steps)],
        ops_in_window: 0,
        now: 0,
    };
    let mut pumps = 0;
    let mut defrags = 0;

    let mut wave: Vec<(usize, Request)> = Vec::with_capacity(workload.wave);
    let mut next_request = 0usize;
    for (i, step) in steps.iter().enumerate() {
        if let Step::Admit { at, .. } = *step {
            replay.now = at;
            wave.push((next_request, requests[i].take().expect("one request per admit")));
            next_request += 1;
            if wave.len() == workload.wave {
                replay.admit_wave(std::mem::take(&mut wave));
            }
            continue;
        }
        replay.admit_wave(std::mem::take(&mut wave));
        match *step {
            Step::Fault { element, at } => {
                replay.now = at;
                replay.command("client.fault", None, Command::InjectFault { element });
                replay.apply_lifetimes();
            }
            Step::Repair { element, at } => {
                replay.now = at;
                replay.command("client.repair", None, Command::Repair { element });
            }
            Step::Defrag { at } => {
                replay.now = at;
                let command = Command::Defrag { max_moves: DEFRAG_MOVES };
                replay.command("client.defrag", Some(DEFRAG), command);
                defrags += 1;
                replay.apply_lifetimes();
            }
            Step::Tick { at } => {
                replay.now = at;
                replay.timed("client.pump", Some(PUMP), |outer, _, tracer| {
                    outer.pump(CapacityEvent::Tick { now: at }, tracer)
                });
                pumps += 1;
                replay.apply_lifetimes();
            }
            Step::Admit { .. } => unreachable!("handled above"),
        }
    }
    replay.admit_wave(wave);

    // End-of-round drain: flush the queue so every ticket reaches its
    // terminal event, release every resident, and require an idle
    // platform. Requests the flush completes close in a last window of
    // their own; the drain's own work is not part of the storm and is
    // not timed.
    let now = replay.now;
    let flushed = replay.outer.service().pump(CapacityEvent::Shutdown { now });
    replay.ledger.absorb(flushed, Instant::now());
    if replay.ops_in_window > 0 || !replay.ledger.completed.is_empty() {
        replay.close_window();
    }
    let Replay { mut outer, mut ledger, clock, latency_us, .. } = replay;
    while let Some(app) = ledger.residents.pop_front() {
        outer.service().submit(Request::release(now, app));
        let events = outer.service().take_events();
        ledger.absorb(events, Instant::now());
    }
    ledger.counts.terminal_violations += ledger.pending.len() as u64;
    let service = outer.service();
    let occupancy = service.occupancy();
    ledger.counts.idle_after_drain = service.kairos().platform().is_idle()
        && occupancy.admitted_apps == 0
        && occupancy.element_utilisation == 0.0
        && occupancy.resource_utilisation == 0.0
        && service.queue_depth() == 0;
    ledger.counts.cache = service.cache_stats();
    if let Outer::Gateway(gateway) = &outer {
        ledger.counts.gateway = Some(gateway.stats());
    }
    let timings = Timings {
        latency_us,
        round_ns: clock.calibrated[ALL],
        raw_round_ns: clock.raw_total[ALL],
        pump_ns: clock.calibrated[PUMP],
        pumps,
        defrag_ns: clock.calibrated[DEFRAG],
        defrags,
        kernel_ns: clock.kernel_ns,
    };
    Round { counts: ledger.counts, timings }
}
