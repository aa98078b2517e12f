//! # kairos-gateway
//!
//! A queueing front-end over the [`ResourceService`] surface — the layer
//! that turns the synchronous request/event API into a deterministic
//! admission *server*.
//!
//! The paper's run-time manager answers one admission at a time; a
//! deployment serves tens of thousands of concurrent requests. The
//! gateway bridges the two without giving up byte-determinism, and it
//! does so as a plain, single-threaded queue with no async machinery:
//!
//! * **A ticket-ordered task queue** — every accepted request, or batch,
//!   is one small state-machine value (waiting for lane slots, then
//!   waiting for terminal events) in a map keyed by acceptance order,
//!   beside a run-queue holding the keys of the tasks that can make
//!   progress. [`Gateway::drive`] always steps the lowest runnable key
//!   next — including keys that became runnable during the same pass —
//!   then flushes what that pass forwarded into the wrapped service, in
//!   order, and delivers the events. Concurrency therefore never reorders
//!   decisions: a double run is byte-identical, tens of thousands of
//!   admissions in flight or not.
//! * **Per-shard bounded lanes** — requests are striped over one bounded
//!   lane per shard of the inner service
//!   ([`ResourceService::shard_count`]). A full lane parks the request
//!   (counted in [`GatewayCounters::parked`], once per park) until a
//!   finished request hands its slot back — bounded-channel backpressure,
//!   deterministic because the slot goes to the lowest parked ticket. A
//!   finished request returns its slot when its task is next stepped, not
//!   when its terminal event is delivered. A batch claims its members'
//!   slots in ticket order while holding the earlier ones, is forwarded
//!   as one [`ResourceService::submit_batch`], and returns the slots
//!   member by member.
//! * **One service surface** — [`Gateway`] itself implements
//!   [`ResourceService`], driving each submission to completion before
//!   returning. As the outermost layer the gateway mints each request's
//!   ticket and stamps it on the request it forwards
//!   ([`Request::ticket`]), so the wrapped service answers under the
//!   very same ticket and its events pass through untranslated; in that
//!   lockstep mode the event stream is the wrapped service's own, byte
//!   for byte (`tests/observers/mod.rs` pins this across queued, clustered,
//!   preempting and cached regimes and the whole catalog). The queueing
//!   API ([`Gateway::enqueue`] + [`Gateway::drive`]) relaxes only *when*
//!   work happens, never what is decided.
//!
//! Telemetry: when constructed over a lit hub
//! ([`Gateway::with_telemetry`]) the gateway registers
//! `kairos.gateway.submitted` / `.forwarded` / `.batches` counters, a
//! `kairos.gateway.inflight` gauge, per-lane `kairos.gateway.lane{i}.depth`
//! gauges and a `kairos.gateway.completion.ticks` histogram of
//! virtual-tick completion latency. All values derive from the virtual
//! clock and per-ticket bookkeeping, so a lit run stays byte-identical
//! to a dark one apart from the report's telemetry section.
//!
//! ## Example
//!
//! ```
//! use kairos_gateway::{Gateway, GatewayConfig};
//! use kairos_admitd::{PriorityClass, Request, ResourceService, ServiceBuilder};
//! use kairos_appgen::{AppGenerator, GeneratorConfig};
//! use kairos_platform::topology;
//!
//! let inner = ServiceBuilder::new(topology::crisp()).deterministic(true).build()?;
//! let mut gateway = Gateway::new(Box::new(inner), GatewayConfig::default());
//! let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
//!
//! // Queued serving: accept a burst, then drive it to completion.
//! for i in 0..16 {
//!     gateway.enqueue(Request::admit(i, generator.generate(format!("app-{i}")), PriorityClass::Normal));
//! }
//! gateway.drive();
//! assert_eq!(gateway.stats().completions, 16);
//! assert_eq!(gateway.take_events().len(), 16);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

use kairos_admitd::{CapacityEvent, Command, Event, Request, ResourceService, Ticket};
use kairos_core::{CacheStats, ElementActivity, Kairos, OccupancySnapshot};
use kairos_telemetry::{Counter, Gauge, Histogram, Telemetry};

/// Power-of-two bucket bounds for the completion-latency histogram
/// (virtual ticks from acceptance to terminal event).
pub const COMPLETION_BOUNDS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Gateway tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Bound of each per-shard request lane: how many accepted requests
    /// may be in flight per lane before further requests park. The
    /// default is large enough that the synchronous lockstep path never
    /// parks (preserving sync equivalence); serving benchmarks shrink it
    /// to exercise backpressure.
    pub channel_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { channel_capacity: 65_536 }
    }
}

/// Lifetime counters of one gateway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayCounters {
    /// Requests accepted (`enqueue`, and each batch member).
    pub submitted: u64,
    /// Requests forwarded into the inner service.
    pub forwarded: u64,
    /// Forwards that went through `ResourceService::submit`.
    pub singles: u64,
    /// Forwards that went through `ResourceService::submit_batch`.
    pub batches: u64,
    /// Always 0: the gateway forwards every request as it was enqueued,
    /// and never merges single admissions into a batched wave. Kept for
    /// the report's `coalesced` key.
    pub coalesced: u64,
    /// Requests driven to their terminal event.
    pub completions: u64,
    /// Most tasks in flight at once (see [`Gateway::inflight`]: a batch
    /// counts once).
    pub peak_inflight: u64,
    /// Times a request parked on a full lane.
    pub parked: u64,
}

/// Locks the counters, shared with handles that can outlive the gateway.
/// Poisoned only if a holder panicked.
fn locked<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared.lock().expect("a holder of this gateway lock panicked")
}

/// A cloneable read handle on a gateway's counters, for reporting after
/// the gateway itself (or the service stack owning it) is consumed.
#[derive(Debug, Clone)]
pub struct GatewayStats {
    counters: Arc<Mutex<GatewayCounters>>,
}

impl GatewayStats {
    /// The counters as of now.
    pub fn snapshot(&self) -> GatewayCounters {
        *locked(&self.counters)
    }
}

/// Pre-resolved registry handles, present only over a lit hub.
#[derive(Debug, Clone)]
struct GatewayMetrics {
    submitted: Arc<Counter>,
    forwarded: Arc<Counter>,
    batches: Arc<Counter>,
    inflight: Arc<Gauge>,
    completion: Arc<Histogram>,
}

impl GatewayMetrics {
    fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(GatewayMetrics {
            submitted: registry.counter("kairos.gateway.submitted"),
            forwarded: registry.counter("kairos.gateway.forwarded"),
            batches: registry.counter("kairos.gateway.batches"),
            inflight: registry.gauge("kairos.gateway.inflight"),
            completion: registry.histogram("kairos.gateway.completion.ticks", &COMPLETION_BOUNDS),
        })
    }
}

/// The terminal event kind a ticket's command resolves with. `Migrated`
/// events can name tickets that merely *caused* a move (a preemption's
/// make-before-break detour), so completion matches the expected kind,
/// never just the ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Admit,
    Release,
    Migrate,
    Defrag,
    Fault,
    Repair,
    Rebalance,
}

impl Expect {
    fn of(command: &Command) -> Expect {
        match command {
            Command::Admit { .. } => Expect::Admit,
            Command::Release { .. } => Expect::Release,
            Command::Migrate { .. } => Expect::Migrate,
            Command::Defrag { .. } => Expect::Defrag,
            Command::InjectFault { .. } => Expect::Fault,
            Command::Repair { .. } => Expect::Repair,
            Command::Rebalance { .. } => Expect::Rebalance,
        }
    }

    fn is_terminal(self, event: &Event) -> bool {
        matches!(
            (self, event),
            (Expect::Admit, Event::Admitted { .. } | Event::Rejected { .. })
                | (Expect::Release, Event::Released { .. })
                | (Expect::Migrate, Event::Migrated { .. } | Event::MigrationFailed { .. })
                | (Expect::Defrag, Event::Defragged { .. })
                | (Expect::Fault, Event::ElementFailed { .. })
                | (Expect::Repair, Event::ElementRepaired { .. })
                | (Expect::Rebalance, Event::Rebalanced { .. })
        )
    }
}

/// What a task hands the inner service once it holds all its lane slots
/// (the requests already stamped with their gateway tickets): the flush
/// after each pass forwards these in the order the pass produced them.
#[derive(Debug)]
enum Forward {
    Single(Request),
    Batch(Vec<Request>),
}

/// One bounded per-shard request lane.
#[derive(Debug)]
struct Lane {
    capacity: usize,
    inflight: usize,
    /// Parked members by ticket, each with the key of the task to make
    /// runnable; a freed slot goes to the lowest ticket, so lane hand-off
    /// order is deterministic.
    waiters: BTreeMap<Ticket, u64>,
    depth: Option<Arc<Gauge>>,
}

impl Lane {
    fn set_inflight(&mut self, inflight: usize) {
        self.inflight = inflight;
        if let Some(depth) = &self.depth {
            depth.set(inflight as i64);
        }
    }
}

/// Where an accepted request or batch stands.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Claiming lane slots in member (= ticket) order while holding the
    /// earlier ones; `next_member` is the first member without a slot.
    AwaitingSlot { next_member: usize },
    /// Forwarded; every member before `member` has reached its terminal
    /// event and returned its slot.
    AwaitingTerminal { member: usize },
}

/// One accepted request (a single member) or batch.
#[derive(Debug)]
struct Task {
    members: Vec<Ticket>,
    /// The requests, until every member holds a slot and they are
    /// forwarded.
    payload: Option<Forward>,
    state: State,
}

/// An accepted ticket still owed its terminal event. The entry is retired
/// at completion, so an absent ticket is a finished one.
#[derive(Debug)]
struct Pending {
    expect: Expect,
    /// Acceptance time, for the completion latency histogram.
    accepted_at: u64,
    /// Key of the task to make runnable at completion.
    task: u64,
}

/// The queueing front-end. See the crate docs for the model.
pub struct Gateway {
    inner: Box<dyn ResourceService + Send>,
    lanes: Vec<Lane>,
    /// Set at shutdown: lanes stop bounding so every parked request
    /// flushes into the inner service before its final drain.
    draining: bool,
    /// Every unfinished request or batch, keyed by acceptance order.
    tasks: BTreeMap<u64, Task>,
    /// Keys of the tasks that can make progress; a pass always steps the
    /// lowest. "Waking" a task is inserting its key.
    runnable: BTreeSet<u64>,
    next_task: u64,
    /// What the current pass has forwarded, not yet flushed.
    forwards: Vec<Forward>,
    pending: BTreeMap<Ticket, Pending>,
    /// Mint for requests that arrive without a ticket (the gateway is
    /// normally the outermost layer); every ticket below it has been
    /// accepted at some point.
    next_ticket: u64,
    outbox: Vec<Event>,
    now: u64,
    config: GatewayConfig,
    metrics: Option<GatewayMetrics>,
    /// Shared with every [`GatewayStats`] handle.
    counters: Arc<Mutex<GatewayCounters>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("inner", &self.inner)
            .field("inflight", &self.tasks.len())
            .field("next_ticket", &self.next_ticket)
            .field("now", &self.now)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Wraps `inner` with a dark telemetry hub.
    pub fn new(inner: Box<dyn ResourceService + Send>, config: GatewayConfig) -> Self {
        Gateway::with_telemetry(inner, config, Telemetry::disabled())
    }

    /// Wraps `inner`, registering the `kairos.gateway.*` instruments on
    /// `telemetry` when it is lit. One bounded lane is created per inner
    /// shard ([`ResourceService::shard_count`]); a zero
    /// [`GatewayConfig::channel_capacity`] is clamped to one.
    pub fn with_telemetry(
        inner: Box<dyn ResourceService + Send>,
        config: GatewayConfig,
        telemetry: Telemetry,
    ) -> Self {
        let capacity = config.channel_capacity.max(1);
        let lanes = (0..inner.shard_count().max(1))
            .map(|i| Lane {
                capacity,
                inflight: 0,
                waiters: BTreeMap::new(),
                depth: telemetry.gauge(&format!("kairos.gateway.lane{i}.depth")),
            })
            .collect();
        Gateway {
            inner,
            lanes,
            draining: false,
            tasks: BTreeMap::new(),
            runnable: BTreeSet::new(),
            next_task: 0,
            forwards: Vec::new(),
            pending: BTreeMap::new(),
            next_ticket: 0,
            outbox: Vec::new(),
            now: 0,
            config: GatewayConfig { channel_capacity: capacity },
            metrics: GatewayMetrics::new(&telemetry),
            counters: Arc::default(),
        }
    }

    /// The configuration the gateway runs with.
    pub fn config(&self) -> GatewayConfig {
        self.config
    }

    /// Number of per-shard request lanes (the inner service's shard
    /// count).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Tasks currently in flight: accepted requests and batches not yet
    /// at their terminal events. A batch counts once, however many
    /// members it has.
    pub fn inflight(&self) -> usize {
        self.tasks.len()
    }

    /// The counters as of now.
    pub fn stats(&self) -> GatewayCounters {
        *locked(&self.counters)
    }

    /// A cloneable counter handle that outlives the gateway's ownership
    /// (drivers embed it in their final report).
    pub fn stats_handle(&self) -> GatewayStats {
        GatewayStats { counters: Arc::clone(&self.counters) }
    }

    /// Settles `request`'s ticket (minting one unless an outer layer
    /// stamped it), stamps it on the request for the trip inward, and
    /// opens the ticket's in-flight bookkeeping under task `task`.
    fn accept(&mut self, request: Request, task: u64) -> (Ticket, Request) {
        let ticket = Ticket::resolve(request.ticket, &mut self.next_ticket);
        self.now = self.now.max(request.at);
        let expect = Expect::of(&request.command);
        self.pending.insert(ticket, Pending { expect, accepted_at: request.at, task });
        if let Some(metrics) = &self.metrics {
            metrics.submitted.add(1);
        }
        locked(&self.counters).submitted += 1;
        (ticket, request.with_ticket(ticket))
    }

    /// The key the next accepted request or batch runs under.
    fn next_key(&mut self) -> u64 {
        self.next_task += 1;
        self.next_task - 1
    }

    /// Queues the task `key` for its first step.
    fn spawn(&mut self, key: u64, members: Vec<Ticket>, payload: Forward) {
        let state = State::AwaitingSlot { next_member: 0 };
        self.tasks.insert(key, Task { members, payload: Some(payload), state });
        self.runnable.insert(key);
        let inflight = self.tasks.len() as u64;
        let mut counters = locked(&self.counters);
        counters.peak_inflight = counters.peak_inflight.max(inflight);
    }

    /// Accepts one request without driving it: on the next
    /// [`Gateway::drive`] it claims a lane slot and is forwarded, and it
    /// holds the slot until its terminal event.
    pub fn enqueue(&mut self, request: Request) -> Ticket {
        let key = self.next_key();
        let (ticket, request) = self.accept(request, key);
        self.spawn(key, vec![ticket], Forward::Single(request));
        ticket
    }

    /// Accepts a whole arrival wave as one batched operation (one ticket
    /// per request, forwarded through [`ResourceService::submit_batch`]).
    pub fn enqueue_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let key = self.next_key();
        let (tickets, requests): (Vec<Ticket>, Vec<Request>) =
            requests.into_iter().map(|request| self.accept(request, key)).unzip();
        self.spawn(key, tickets.clone(), Forward::Batch(requests));
        tickets
    }

    /// Runs the queue until no task can make progress: steps every
    /// runnable task, lowest key first (keys made runnable on the way
    /// included), flushes the requests they forwarded into the inner
    /// service, delivers the resulting events (completing tickets, making
    /// their tasks runnable), and repeats until a pass forwards nothing.
    pub fn drive(&mut self) {
        loop {
            while let Some(key) = self.runnable.pop_first() {
                self.step(key);
            }
            if !self.flush_forwards() {
                break;
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.inflight.set(self.tasks.len() as i64);
        }
    }

    /// Advances task `key` until it has to wait — for a lane slot or for
    /// a terminal event — or is finished.
    fn step(&mut self, key: u64) {
        let Some(task) = self.tasks.get_mut(&key) else { return };
        let lanes = self.lanes.len();
        loop {
            task.state = match task.state {
                State::AwaitingSlot { next_member } => match task.members.get(next_member) {
                    Some(&ticket) => {
                        let lane = &mut self.lanes[ticket.0 as usize % lanes];
                        if !self.draining && lane.inflight >= lane.capacity {
                            lane.waiters.insert(ticket, key);
                            locked(&self.counters).parked += 1;
                            return;
                        }
                        lane.set_inflight(lane.inflight + 1);
                        State::AwaitingSlot { next_member: next_member + 1 }
                    }
                    None => {
                        self.forwards.extend(task.payload.take());
                        State::AwaitingTerminal { member: 0 }
                    }
                },
                State::AwaitingTerminal { member } => match task.members.get(member) {
                    Some(ticket) if self.pending.contains_key(ticket) => return,
                    Some(&ticket) => {
                        let lane = &mut self.lanes[ticket.0 as usize % lanes];
                        lane.set_inflight(lane.inflight.saturating_sub(1));
                        if let Some((_, waiter)) = lane.waiters.pop_first() {
                            self.runnable.insert(waiter);
                        }
                        State::AwaitingTerminal { member: member + 1 }
                    }
                    None => {
                        self.tasks.remove(&key);
                        return;
                    }
                },
            };
        }
    }

    /// Pushes everything the last pass forwarded into the inner service,
    /// delivering the inner events after each push. Returns whether
    /// anything was forwarded.
    fn flush_forwards(&mut self) -> bool {
        let forwards = std::mem::take(&mut self.forwards);
        if forwards.is_empty() {
            return false;
        }
        for forward in forwards {
            let (count, singles, batches) = match forward {
                Forward::Single(request) => {
                    self.inner.submit(request);
                    (1, 1, 0)
                }
                Forward::Batch(requests) => {
                    let count = requests.len() as u64;
                    self.inner.submit_batch(requests);
                    (count, 0, 1)
                }
            };
            let mut counters = locked(&self.counters);
            counters.forwarded += count;
            counters.singles += singles;
            counters.batches += batches;
            drop(counters);
            if let Some(metrics) = &self.metrics {
                metrics.forwarded.add(count);
                metrics.batches.add(batches);
            }
            let mut events = self.inner.take_events();
            self.deliver(&events);
            self.outbox.append(&mut events);
        }
        true
    }

    /// Books `events` coming out of the inner service: retires each
    /// ticket that reached its expected terminal event, making its task
    /// runnable.
    fn deliver(&mut self, events: &[Event]) {
        for event in events {
            let Entry::Occupied(entry) = self.pending.entry(event.ticket()) else { continue };
            if !entry.get().expect.is_terminal(event) {
                continue;
            }
            let Pending { accepted_at, task, .. } = entry.remove();
            if let Some(metrics) = &self.metrics {
                metrics.completion.record(self.now.saturating_sub(accepted_at));
            }
            locked(&self.counters).completions += 1;
            self.runnable.insert(task);
        }
    }
}

impl ResourceService for Gateway {
    /// Accepts the request and drives it as far as the inner service
    /// allows before returning — the synchronous lockstep mode, byte-
    /// identical to driving the inner service directly (under a default
    /// config).
    fn submit(&mut self, request: Request) -> Ticket {
        let ticket = self.enqueue(request);
        self.drive();
        ticket
    }

    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let tickets = self.enqueue_batch(requests);
        self.drive();
        tickets
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        match event {
            CapacityEvent::Tick { now } => {
                self.now = self.now.max(now);
                let mut out = self.inner.pump(event);
                self.deliver(&out);
                // Completions may have freed lane slots: let parked
                // requests forward, and hand their events back with the
                // pump's (in lockstep mode nothing is ever parked, so
                // this adds nothing and sync equivalence holds).
                let flushed = self.outbox.len();
                self.drive();
                out.extend(self.outbox.split_off(flushed));
                out
            }
            CapacityEvent::Shutdown { now } => {
                self.now = self.now.max(now);
                // Unbound the lanes and flush every parked request into
                // the inner service so its shutdown drain sees them;
                // their events precede the drain's chronologically.
                self.draining = true;
                for lane in &mut self.lanes {
                    self.runnable.extend(std::mem::take(&mut lane.waiters).into_values());
                }
                let flushed = self.outbox.len();
                self.drive();
                let mut out = self.outbox.split_off(flushed);
                let mut events = self.inner.pump(event);
                self.deliver(&events);
                out.append(&mut events);
                // Retire the tasks those completions made runnable
                // (everything is already flushed, so this forwards
                // nothing new).
                self.drive();
                out
            }
        }
    }

    fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.outbox)
    }

    fn kairos(&self) -> &Kairos {
        self.inner.kairos()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn occupancy(&self) -> OccupancySnapshot {
        self.inner.occupancy()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn element_activity(&self) -> Vec<ElementActivity> {
        self.inner.element_activity()
    }
}

// Compile-time thread-safety pin: the gateway is handed across threads
// by serving drivers (and the sim's report finalizer holds its stats
// handle); if any layer silently stopped being `Send`, that would
// regress. Fail the build here instead.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Gateway>();
const _: () = _assert_send::<GatewayStats>();

#[cfg(test)]
mod tests {
    use super::*;

    use kairos_admitd::{AdmitPolicy, PriorityClass, ServiceBuilder};
    use kairos_appgen::{AppGenerator, GeneratorConfig};
    use kairos_cluster::ClusterBuilder;
    use kairos_platform::topology;

    fn direct_service() -> Box<dyn ResourceService + Send> {
        Box::new(ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap())
    }

    fn queued_service(class_capacity: [usize; 4]) -> Box<dyn ResourceService + Send> {
        Box::new(
            ServiceBuilder::new(topology::crisp())
                .deterministic(true)
                .admission(AdmitPolicy {
                    class_capacity,
                    max_wait: Some(400),
                    max_attempts: 5,
                    backoff_base: 1,
                    backoff_cap: 4,
                    ..AdmitPolicy::default()
                })
                .build()
                .unwrap(),
        )
    }

    fn admits(count: usize, seed: u64) -> Vec<Request> {
        let mut generator = AppGenerator::new(GeneratorConfig::default(), seed);
        (0..count)
            .map(|i| {
                Request::admit(
                    i as u64,
                    generator.generate(format!("app-{i}")),
                    PriorityClass::Normal,
                )
            })
            .collect()
    }

    /// Lockstep mode reproduces the sync service byte for byte: same
    /// tickets, same event stream, same occupancy.
    #[test]
    fn lockstep_matches_sync_service_byte_for_byte() {
        let mut sync = direct_service();
        let mut gateway = Gateway::new(direct_service(), GatewayConfig::default());
        for request in admits(24, 11) {
            let a = sync.submit(request.clone());
            let b = gateway.submit(request);
            assert_eq!(a, b);
        }
        let sync_events = sync.pump(CapacityEvent::Shutdown { now: 100 });
        let gate_events = gateway.pump(CapacityEvent::Shutdown { now: 100 });
        assert_eq!(format!("{sync_events:?}"), format!("{gate_events:?}"));
        assert_eq!(format!("{:?}", sync.take_events()), format!("{:?}", gateway.take_events()));
        assert_eq!(sync.occupancy(), gateway.occupancy());
        assert_eq!(sync.queue_depth(), gateway.queue_depth());
    }

    /// Two identical queued runs produce identical event streams and
    /// counters — the lowest-key-first run-queue at work.
    #[test]
    fn double_runs_are_byte_identical() {
        let run = || {
            let mut gateway = Gateway::new(queued_service([8, 8, 16, 8]), GatewayConfig::default());
            for request in admits(40, 3) {
                gateway.enqueue(request);
            }
            gateway.drive();
            gateway.pump(CapacityEvent::Tick { now: 50 });
            let shutdown = gateway.pump(CapacityEvent::Shutdown { now: 200 });
            (format!("{:?}{:?}", gateway.take_events(), shutdown), gateway.stats())
        };
        assert_eq!(run(), run());
    }

    /// Full lanes park requests; the shutdown drain unbounds the
    /// lanes and flushes every parked request into the inner service.
    #[test]
    fn full_lanes_park_requests_until_drain() {
        use kairos_appgen::{generate_dataset, DatasetSpec, Orientation, SizeClass};
        let config = GatewayConfig { channel_capacity: 2 };
        let mut gateway = Gateway::new(queued_service([64, 64, 64, 64]), config);
        // Large applications saturate the platform after a handful of
        // admissions; the rest stay queued (non-terminal), holding their
        // lane slots so later requests park.
        let spec = DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Large };
        for (i, app) in generate_dataset(spec, 40, 7).into_iter().enumerate() {
            gateway.enqueue(Request::admit(i as u64, app, PriorityClass::Normal));
        }
        gateway.drive();
        let mid = gateway.stats();
        assert_eq!(mid.submitted, 40);
        assert!(mid.forwarded < 40, "a full lane must hold requests back");
        assert!(mid.parked > 0);
        gateway.pump(CapacityEvent::Shutdown { now: 500 });
        let done = gateway.stats();
        assert_eq!(done.forwarded, 40, "draining flushes every parked request");
        assert_eq!(done.completions, 40);
        assert_eq!(gateway.inflight(), 0);
    }

    /// Tens of thousands of admissions can sit in flight before a single
    /// drive pass resolves them all — deterministically.
    #[test]
    fn tens_of_thousands_in_flight() {
        let run = || {
            let mut gateway = Gateway::new(direct_service(), GatewayConfig::default());
            for request in admits(20_000, 42) {
                gateway.enqueue(request);
            }
            assert_eq!(gateway.inflight(), 20_000);
            gateway.drive();
            let stats = gateway.stats();
            assert_eq!(stats.peak_inflight, 20_000);
            assert_eq!(stats.completions, 20_000);
            assert_eq!(gateway.inflight(), 0);
            let events = gateway.take_events();
            assert_eq!(events.len(), 20_000);
            format!("{events:?}")
        };
        assert_eq!(run(), run());
    }

    /// Lanes stripe one-per-shard over a clustered inner service.
    #[test]
    fn lanes_stripe_per_cluster_shard() {
        let cluster =
            ClusterBuilder::new(topology::crisp(), 3).deterministic(true).build().unwrap();
        let gateway = Gateway::new(Box::new(cluster), GatewayConfig::default());
        assert_eq!(gateway.lane_count(), 3);
        assert_eq!(gateway.shard_count(), 3);
    }

    /// The stats handle reads counters after the gateway is gone.
    #[test]
    fn stats_handle_outlives_the_gateway() {
        let mut gateway = Gateway::new(direct_service(), GatewayConfig::default());
        let handle = gateway.stats_handle();
        for request in admits(4, 13) {
            gateway.enqueue(request);
        }
        gateway.drive();
        drop(gateway);
        assert_eq!(handle.snapshot().completions, 4);
    }

    /// Per-ticket state is retired with the ticket: once every request
    /// has reached its terminal event nothing is left behind.
    #[test]
    fn finished_tickets_leave_no_per_ticket_state() {
        let cluster = ClusterBuilder::new(topology::crisp(), 2)
            .deterministic(true)
            .admission(AdmitPolicy { class_capacity: [8, 8, 16, 8], ..AdmitPolicy::default() })
            .build()
            .unwrap();
        let mut gateway = Gateway::new(Box::new(cluster), GatewayConfig::default());
        for request in admits(12, 21) {
            gateway.enqueue(request);
        }
        gateway.drive();
        let admitted: Vec<_> = gateway
            .take_events()
            .into_iter()
            .filter_map(|event| match event {
                Event::Admitted { report, .. } => Some(report.app_id),
                _ => None,
            })
            .collect();
        assert!(!admitted.is_empty());
        for app in admitted {
            gateway.enqueue(Request::release(20, app));
        }
        gateway.drive();
        // Whatever is still queued reaches its terminal event here.
        gateway.pump(CapacityEvent::Shutdown { now: 30 });
        assert_eq!(gateway.inflight(), 0);
        assert!(gateway.runnable.is_empty());
        assert!(gateway.pending.is_empty(), "tickets leaked: {:?}", gateway.pending);
    }

    /// Records every call the gateway makes into the service below it, in
    /// order: what was forwarded (and how), and where the pumps fell.
    #[derive(Debug)]
    struct Tap {
        inner: Box<dyn ResourceService + Send>,
        calls: Arc<Mutex<Vec<String>>>,
    }

    impl Tap {
        fn log(&self, call: String) {
            self.calls.lock().unwrap().push(call);
        }
    }

    impl ResourceService for Tap {
        fn submit(&mut self, request: Request) -> Ticket {
            self.log(format!("submit {}", request.ticket.expect("stamped by the gateway")));
            self.inner.submit(request)
        }
        fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
            let tickets: Vec<String> = requests
                .iter()
                .map(|request| request.ticket.expect("stamped by the gateway").to_string())
                .collect();
            self.log(format!("batch {}", tickets.join(" ")));
            self.inner.submit_batch(requests)
        }
        fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
            self.log(match event {
                CapacityEvent::Tick { .. } => "tick".to_owned(),
                CapacityEvent::Shutdown { .. } => "shutdown".to_owned(),
            });
            self.inner.pump(event)
        }
        fn take_events(&mut self) -> Vec<Event> {
            self.inner.take_events()
        }
        fn kairos(&self) -> &Kairos {
            self.inner.kairos()
        }
        fn queue_depth(&self) -> usize {
            self.inner.queue_depth()
        }
        fn shard_count(&self) -> usize {
            self.inner.shard_count()
        }
    }

    /// The parked hand-off order, pinned: a batch of four and three
    /// singles over two bounded lanes of a queued cluster, releases of
    /// whatever was admitted, a tick and the shutdown drain. The expected
    /// call orders and counters are literals captured by running this
    /// body against the executor this state machine replaced.
    ///
    /// With one slot per lane the batch waits on itself — it holds req0's
    /// slot while asking for req2's on the same lane — so everything parks
    /// behind it until the shutdown drain unbounds the lanes. With two, the
    /// batch forwards at once and releases member by member: req0's slot
    /// goes to req4, whose rejection hands it on to req6 in the same drive,
    /// while req5 stays parked behind the batch's queued req1 and req3, and
    /// the releases (req7, req8) are forwarded out of ticket order.
    #[test]
    fn parked_requests_are_handed_slots_in_a_pinned_order() {
        use kairos_appgen::{generate_dataset, DatasetSpec, Orientation, SizeClass};
        let run = |channel_capacity: usize| {
            let cluster = ClusterBuilder::new(topology::crisp(), 2)
                .deterministic(true)
                .admission(AdmitPolicy { class_capacity: [8, 8, 16, 8], ..AdmitPolicy::default() })
                .build()
                .unwrap();
            let calls = Arc::new(Mutex::new(Vec::new()));
            let tap = Tap { inner: Box::new(cluster), calls: Arc::clone(&calls) };
            let config = GatewayConfig { channel_capacity };
            let mut gateway = Gateway::new(Box::new(tap), config);
            let spec =
                DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Large };
            let mut admits = generate_dataset(spec, 7, 7)
                .into_iter()
                .enumerate()
                .map(|(i, app)| Request::admit(i as u64, app, PriorityClass::Normal));
            gateway.enqueue_batch(admits.by_ref().take(4).collect());
            for request in admits {
                gateway.enqueue(request);
            }
            gateway.drive();
            for event in gateway.take_events() {
                if let Event::Admitted { report, .. } = event {
                    gateway.enqueue(Request::release(10, report.app_id));
                }
            }
            gateway.pump(CapacityEvent::Tick { now: 20 });
            gateway.pump(CapacityEvent::Shutdown { now: 30 });
            assert_eq!(gateway.inflight(), 0);
            let calls = calls.lock().unwrap().join(", ");
            (calls, gateway.stats())
        };
        let (calls, stats) = run(1);
        assert_eq!(
            calls,
            "tick, batch req0 req1 req2 req3, submit req4, submit req5, submit req6, shutdown"
        );
        assert_eq!(
            stats,
            GatewayCounters {
                submitted: 7,
                forwarded: 7,
                singles: 3,
                batches: 1,
                coalesced: 0,
                completions: 7,
                peak_inflight: 4,
                parked: 4,
            }
        );
        let (calls, stats) = run(2);
        assert_eq!(
            calls,
            "batch req0 req1 req2 req3, submit req4, submit req6, tick, \
             submit req8, submit req5, submit req7, shutdown"
        );
        assert_eq!(
            stats,
            GatewayCounters {
                submitted: 9,
                forwarded: 9,
                singles: 5,
                batches: 1,
                coalesced: 0,
                completions: 9,
                peak_inflight: 4,
                parked: 4,
            }
        );
    }
}
