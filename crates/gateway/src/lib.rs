//! # kairos-gateway
//!
//! An async serving front-end over the
//! [`ResourceService`] surface — the layer
//! that turns the synchronous request/event API into a deterministic
//! admission *server*.
//!
//! The paper's run-time manager answers one admission at a time; a
//! deployment serves tens of thousands of concurrent requests. The
//! gateway bridges the two without giving up byte-determinism:
//!
//! * **Hand-rolled single-threaded executor** — every accepted request
//!   becomes one future on a `FuturesUnordered` ready-queue (from the
//!   offline `futures` shim; no executor crate). The queue drains ready
//!   entries **in ticket order**, so concurrency never reorders
//!   decisions: a double run is byte-identical, tens of thousands of
//!   admissions in flight or not.
//! * **Per-shard bounded lanes** — requests are striped over one bounded
//!   lane per shard of the inner service
//!   ([`ResourceService::shard_count`]). A full lane parks the request
//!   future (counted in [`GatewayCounters::parked`]) until a completion
//!   frees a slot — bounded-channel backpressure, deterministic because
//!   waiters wake lowest-ticket-first.
//! * **Completion streams** — [`Gateway::subscribe`] returns a
//!   [`CompletionStream`] that yields every event correlated to one
//!   ticket as it happens, ending after the terminal event (admitted,
//!   rejected, released, …) — the "response stream" of the serving
//!   front-end.
//! * **One service surface** — [`Gateway`] itself implements
//!   [`ResourceService`], driving each submission to completion before
//!   returning. As the outermost layer the gateway mints each request's
//!   ticket and stamps it on the request it forwards
//!   ([`Request::ticket`]), so the wrapped service answers under the
//!   very same ticket and its events pass through untranslated; in that
//!   lockstep mode the event stream is the wrapped service's own, byte
//!   for byte (the `gateway_equivalence` suite pins this across queued,
//!   clustered, preempting and cached regimes). The async API
//!   ([`Gateway::enqueue`] + [`Gateway::drive`]) relaxes only *when*
//!   work happens, never what is decided.
//! * **Optional admit coalescing** — [`GatewayConfig::coalesce`] merges
//!   contiguous single admissions flushed in one drive pass into one
//!   [`ResourceService::submit_batch`] wave (one platform transaction,
//!   one drain pass). That changes how the inner service is driven, so
//!   it is off by default and excluded from the sync-equivalence
//!   guarantee; the `gateway` bench uses it for the async-throughput
//!   comparison.
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
//! use kairos_svc::{Request, ResourceService, ServiceBuilder, PriorityClass};
//! use kairos_appgen::{AppGenerator, GeneratorConfig};
//! use kairos_platform::topology;
//!
//! let inner = ServiceBuilder::new(topology::crisp()).deterministic(true).build()?;
//! let mut gateway = Gateway::new(Box::new(inner), GatewayConfig::default());
//! let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
//!
//! // Async serving: accept a burst, then drive it to completion.
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

use std::collections::{BTreeMap, VecDeque};
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use futures::future::poll_fn;
use futures::stream::FuturesUnordered;
use futures::task::noop_waker;
use futures::{future::BoxFuture, FutureExt, Stream};

use kairos_core::{CacheStats, ElementActivity, Kairos, OccupancySnapshot};
use kairos_svc::{CapacityEvent, Command, Event, Request, ResourceService, Ticket};
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
    /// Merge contiguous single admissions flushed in one drive pass into
    /// one batched wave. Off by default: coalescing changes how the
    /// inner service is driven (batched drains), so it is excluded from
    /// the sync-equivalence guarantee.
    pub coalesce: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { channel_capacity: 65_536, coalesce: false }
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
    /// Forwards that went through `ResourceService::submit_batch`
    /// (enqueued batches plus coalesced waves).
    pub batches: u64,
    /// Single admissions absorbed into coalesced waves.
    pub coalesced: u64,
    /// Requests driven to their terminal event.
    pub completions: u64,
    /// Most request futures in flight at once.
    pub peak_inflight: u64,
    /// Times a request parked on a full lane.
    pub parked: u64,
}

/// A cloneable read handle on a gateway's counters, for reporting after
/// the gateway itself (or the service stack owning it) is consumed.
#[derive(Debug, Clone)]
pub struct GatewayStats {
    core: Arc<Mutex<Core>>,
}

impl GatewayStats {
    /// The counters as of now.
    pub fn snapshot(&self) -> GatewayCounters {
        self.core.lock().expect("gateway core").stats
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

/// A request (already stamped with its gateway ticket) the executor has
/// accepted but not yet pushed into the inner service: the flush between
/// polls forwards these in poll order.
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
    /// Parked acquirers by gateway ticket; woken lowest-ticket-first so
    /// lane handoff order is deterministic.
    waiters: BTreeMap<u64, Waker>,
    depth: Option<Arc<Gauge>>,
}

/// Per-subscriber event buffer for one ticket.
#[derive(Debug, Default)]
struct SubState {
    queue: VecDeque<Event>,
    done: bool,
    waker: Option<Waker>,
}

/// State shared between the gateway and its request futures.
#[derive(Debug)]
struct Core {
    lanes: Vec<Lane>,
    /// Set at shutdown: lanes stop bounding so every parked request
    /// flushes into the inner service before its final drain.
    draining: bool,
    forwards: Vec<Forward>,
    /// Accepted tickets still owed their terminal event, each with the
    /// waker of the request future parked on it (if it got that far). An
    /// entry is retired at completion, so an absent ticket is a finished
    /// one.
    terminals: BTreeMap<u64, Option<Waker>>,
    streams: BTreeMap<u64, SubState>,
    stats: GatewayCounters,
}

impl Core {
    fn poll_acquire(&mut self, lane: usize, ticket: u64, cx: &mut Context<'_>) -> Poll<()> {
        let draining = self.draining;
        let l = &mut self.lanes[lane];
        if draining || l.inflight < l.capacity {
            l.inflight += 1;
            if let Some(depth) = &l.depth {
                depth.set(l.inflight as i64);
            }
            Poll::Ready(())
        } else {
            if l.waiters.insert(ticket, cx.waker().clone()).is_none() {
                self.stats.parked += 1;
            }
            Poll::Pending
        }
    }

    fn release(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        l.inflight = l.inflight.saturating_sub(1);
        if let Some(depth) = &l.depth {
            depth.set(l.inflight as i64);
        }
        if let Some((_, waker)) = l.waiters.pop_first() {
            waker.wake();
        }
    }

    fn drain(&mut self) {
        self.draining = true;
        for lane in &mut self.lanes {
            while let Some((_, waker)) = lane.waiters.pop_first() {
                waker.wake();
            }
        }
    }

    fn poll_terminal(&mut self, ticket: u64, cx: &mut Context<'_>) -> Poll<()> {
        match self.terminals.get_mut(&ticket) {
            None => Poll::Ready(()),
            Some(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    fn complete(&mut self, ticket: u64) {
        if let Some(Some(waker)) = self.terminals.remove(&ticket) {
            waker.wake();
        }
        if let Some(sub) = self.streams.get_mut(&ticket) {
            sub.done = true;
            if let Some(waker) = sub.waker.take() {
                waker.wake();
            }
        }
    }

    fn feed_stream(&mut self, ticket: u64, event: &Event) {
        if let Some(sub) = self.streams.get_mut(&ticket) {
            sub.queue.push_back(event.clone());
            if let Some(waker) = sub.waker.take() {
                waker.wake();
            }
        }
    }
}

/// The async serving front-end. See the crate docs for the model.
pub struct Gateway {
    inner: Box<dyn ResourceService + Send>,
    core: Arc<Mutex<Core>>,
    /// The executor: one future per accepted request, drained in ticket
    /// order by the shim's deterministic ready-queue.
    tasks: FuturesUnordered<BoxFuture<'static, ()>>,
    /// Mint for requests that arrive without a ticket (the gateway is
    /// normally the outermost layer); every ticket below it has been
    /// accepted at some point.
    next_ticket: u64,
    /// Acceptance time of each in-flight ticket, for the completion
    /// latency histogram.
    started: BTreeMap<u64, u64>,
    /// Expected terminal event kind per in-flight ticket.
    expects: BTreeMap<u64, Expect>,
    outbox: Vec<Event>,
    now: u64,
    config: GatewayConfig,
    metrics: Option<GatewayMetrics>,
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
            core: Arc::new(Mutex::new(Core {
                lanes,
                draining: false,
                forwards: Vec::new(),
                terminals: BTreeMap::new(),
                streams: BTreeMap::new(),
                stats: GatewayCounters::default(),
            })),
            tasks: FuturesUnordered::new(),
            next_ticket: 0,
            started: BTreeMap::new(),
            expects: BTreeMap::new(),
            outbox: Vec::new(),
            now: 0,
            config: GatewayConfig { channel_capacity: capacity, ..config },
            metrics: GatewayMetrics::new(&telemetry),
        }
    }

    /// The configuration the gateway runs with.
    pub fn config(&self) -> GatewayConfig {
        self.config
    }

    /// Number of per-shard request lanes (the inner service's shard
    /// count).
    pub fn lane_count(&self) -> usize {
        self.core.lock().expect("gateway core").lanes.len()
    }

    /// Request futures currently in flight (accepted, not yet at their
    /// terminal event).
    pub fn inflight(&self) -> usize {
        self.tasks.len()
    }

    /// The counters as of now.
    pub fn stats(&self) -> GatewayCounters {
        self.core.lock().expect("gateway core").stats
    }

    /// A cloneable counter handle that outlives the gateway's ownership
    /// (drivers embed it in their final report).
    pub fn stats_handle(&self) -> GatewayStats {
        GatewayStats { core: Arc::clone(&self.core) }
    }

    /// Settles `request`'s ticket (minting one unless an outer layer
    /// stamped it), stamps it on the request for the trip inward, and
    /// opens the ticket's in-flight bookkeeping.
    fn accept(&mut self, request: Request) -> (Ticket, Request) {
        let ticket = Ticket::resolve(request.ticket, &mut self.next_ticket);
        self.now = self.now.max(request.at);
        self.started.insert(ticket.0, request.at);
        self.expects.insert(ticket.0, Expect::of(&request.command));
        if let Some(metrics) = &self.metrics {
            metrics.submitted.add(1);
        }
        let mut core = self.core.lock().expect("gateway core");
        core.stats.submitted += 1;
        core.terminals.insert(ticket.0, None);
        drop(core);
        (ticket, request.with_ticket(ticket))
    }

    /// Accepts one request without driving it: the returned ticket's
    /// future acquires a lane slot, forwards on the next [`Gateway::drive`]
    /// pass, and resolves at the request's terminal event.
    pub fn enqueue(&mut self, request: Request) -> Ticket {
        let (ticket, request) = self.accept(request);
        let lane = (ticket.0 as usize) % self.lane_count();
        let core = Arc::clone(&self.core);
        let id = ticket.0;
        self.tasks.push(
            async move {
                poll_fn(|cx| core.lock().expect("gateway core").poll_acquire(lane, id, cx)).await;
                core.lock().expect("gateway core").forwards.push(Forward::Single(request));
                poll_fn(|cx| core.lock().expect("gateway core").poll_terminal(id, cx)).await;
                core.lock().expect("gateway core").release(lane);
            }
            .boxed(),
        );
        self.note_peak();
        ticket
    }

    /// Accepts a whole arrival wave as one batched operation (one ticket
    /// per request, forwarded through [`ResourceService::submit_batch`]).
    pub fn enqueue_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let lanes = self.lane_count();
        let (tickets, requests): (Vec<Ticket>, Vec<Request>) =
            requests.into_iter().map(|request| self.accept(request)).unzip();
        let core = Arc::clone(&self.core);
        let members: Vec<u64> = tickets.iter().map(|ticket| ticket.0).collect();
        self.tasks.push(
            async move {
                // Claim every member's lane slot in ticket order, then
                // forward the wave as one batch.
                for &id in &members {
                    let lane = (id as usize) % lanes;
                    poll_fn(|cx| core.lock().expect("gateway core").poll_acquire(lane, id, cx))
                        .await;
                }
                core.lock().expect("gateway core").forwards.push(Forward::Batch(requests));
                for &id in &members {
                    poll_fn(|cx| core.lock().expect("gateway core").poll_terminal(id, cx)).await;
                    core.lock().expect("gateway core").release((id as usize) % lanes);
                }
            }
            .boxed(),
        );
        self.note_peak();
        tickets
    }

    fn note_peak(&mut self) {
        let inflight = self.tasks.len() as u64;
        let mut core = self.core.lock().expect("gateway core");
        if core.stats.peak_inflight < inflight {
            core.stats.peak_inflight = inflight;
        }
    }

    /// Streams every event correlated to `ticket` as it is delivered,
    /// ending after its terminal event. Subscribe before driving;
    /// events delivered earlier are not replayed, so the stream of an
    /// already-finished ticket ends immediately.
    pub fn subscribe(&mut self, ticket: Ticket) -> CompletionStream {
        let mut core = self.core.lock().expect("gateway core");
        let done = ticket.0 < self.next_ticket && !core.terminals.contains_key(&ticket.0);
        let sub = core.streams.entry(ticket.0).or_default();
        sub.done = sub.done || done;
        drop(core);
        CompletionStream { ticket: ticket.0, core: Arc::clone(&self.core) }
    }

    /// Runs the executor until no request future can make progress:
    /// polls every ready future (in ticket order), flushes the requests
    /// they forwarded into the inner service, delivers the resulting
    /// events (completing tickets, waking their futures), and repeats
    /// until a pass forwards nothing.
    pub fn drive(&mut self) {
        loop {
            let waker = noop_waker();
            let mut cx = Context::from_waker(&waker);
            while let Poll::Ready(Some(())) = Pin::new(&mut self.tasks).poll_next(&mut cx) {}
            if !self.flush_forwards() {
                break;
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.inflight.set(self.tasks.len() as i64);
        }
    }

    /// Pushes every forward parked by the last poll pass into the inner
    /// service, delivering the inner events after each push. Returns
    /// whether anything was forwarded.
    fn flush_forwards(&mut self) -> bool {
        let forwards = std::mem::take(&mut self.core.lock().expect("gateway core").forwards);
        if forwards.is_empty() {
            return false;
        }
        let forwards = if self.config.coalesce { self.coalesce(forwards) } else { forwards };
        for forward in forwards {
            match forward {
                Forward::Single(request) => {
                    self.inner.submit(request);
                    let mut core = self.core.lock().expect("gateway core");
                    core.stats.forwarded += 1;
                    core.stats.singles += 1;
                    drop(core);
                    if let Some(metrics) = &self.metrics {
                        metrics.forwarded.add(1);
                    }
                }
                Forward::Batch(requests) => {
                    let count = requests.len() as u64;
                    self.inner.submit_batch(requests);
                    let mut core = self.core.lock().expect("gateway core");
                    core.stats.forwarded += count;
                    core.stats.batches += 1;
                    drop(core);
                    if let Some(metrics) = &self.metrics {
                        metrics.forwarded.add(count);
                        metrics.batches.add(1);
                    }
                }
            }
            let events = self.inner.take_events();
            self.deliver(events, true);
        }
        true
    }

    /// Merges contiguous runs of single admissions into one batched
    /// wave each; other commands keep their position and break runs.
    fn coalesce(&mut self, forwards: Vec<Forward>) -> Vec<Forward> {
        fn flush(run: &mut Vec<Request>, out: &mut Vec<Forward>, core: &Arc<Mutex<Core>>) {
            match run.len() {
                0 => {}
                1 => out.push(Forward::Single(run.remove(0))),
                n => {
                    core.lock().expect("gateway core").stats.coalesced += n as u64;
                    out.push(Forward::Batch(std::mem::take(run)));
                }
            }
        }
        let mut out = Vec::with_capacity(forwards.len());
        let mut run: Vec<Request> = Vec::new();
        for forward in forwards {
            match forward {
                Forward::Single(request) if matches!(request.command, Command::Admit { .. }) => {
                    run.push(request);
                }
                other => {
                    flush(&mut run, &mut out, &self.core);
                    out.push(other);
                }
            }
        }
        flush(&mut run, &mut out, &self.core);
        out
    }

    /// Completes tickets reaching their expected terminal event, feeds
    /// completion streams, and either buffers the inner events for
    /// [`ResourceService::take_events`] (`to_outbox`) or returns them
    /// (the pump path).
    fn deliver(&mut self, events: Vec<Event>, to_outbox: bool) -> Vec<Event> {
        let mut out = Vec::with_capacity(events.len());
        for event in events {
            let subject = event.ticket();
            self.core.lock().expect("gateway core").feed_stream(subject.0, &event);
            let terminal =
                self.expects.get(&subject.0).is_some_and(|expect| expect.is_terminal(&event));
            if terminal {
                self.expects.remove(&subject.0);
                self.finish(subject);
            }
            out.push(event);
        }
        if to_outbox {
            self.outbox.append(&mut out);
        }
        out
    }

    fn finish(&mut self, ticket: Ticket) {
        if let Some(start) = self.started.remove(&ticket.0) {
            if let Some(metrics) = &self.metrics {
                metrics.completion.record(self.now.saturating_sub(start));
            }
        }
        let mut core = self.core.lock().expect("gateway core");
        core.stats.completions += 1;
        core.complete(ticket.0);
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
                let events = self.inner.pump(event);
                let mut out = self.deliver(events, false);
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
                self.core.lock().expect("gateway core").drain();
                let flushed = self.outbox.len();
                self.drive();
                let mut out = self.outbox.split_off(flushed);
                let events = self.inner.pump(event);
                out.extend(self.deliver(events, false));
                // Retire the futures those completions woke (everything
                // is already flushed, so this forwards nothing new).
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

/// The per-ticket event stream returned by [`Gateway::subscribe`]:
/// yields every event correlated to the ticket, then ends after its
/// terminal event. Dropping the stream unsubscribes.
#[derive(Debug)]
pub struct CompletionStream {
    ticket: u64,
    core: Arc<Mutex<Core>>,
}

impl Stream for CompletionStream {
    type Item = Event;

    fn poll_next(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<Event>> {
        let this = self.get_mut();
        let mut core = this.core.lock().expect("gateway core");
        let Some(sub) = core.streams.get_mut(&this.ticket) else {
            return Poll::Ready(None);
        };
        if let Some(event) = sub.queue.pop_front() {
            return Poll::Ready(Some(event));
        }
        if sub.done {
            return Poll::Ready(None);
        }
        sub.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl Drop for CompletionStream {
    fn drop(&mut self) {
        if let Ok(mut core) = self.core.lock() {
            core.streams.remove(&self.ticket);
        }
    }
}

// Compile-time thread-safety pin: the gateway is handed across threads
// by serving drivers (and the sim's report finalizer holds its stats
// handle); if any layer silently stopped being `Send`, that would
// regress. Fail the build here instead.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Gateway>();
const _: () = _assert_send::<GatewayStats>();
const _: () = _assert_send::<CompletionStream>();

#[cfg(test)]
mod tests {
    use super::*;

    use futures::executor::block_on;
    use futures::StreamExt;
    use kairos_admitd::AdmitPolicy;
    use kairos_appgen::{AppGenerator, GeneratorConfig};
    use kairos_cluster::ClusterBuilder;
    use kairos_platform::topology;
    use kairos_svc::{PriorityClass, ServiceBuilder};

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

    /// Two identical async runs produce identical event streams and
    /// counters — the executor's ticket-order ready queue at work.
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

    /// Full lanes park request futures; the shutdown drain unbounds the
    /// lanes and flushes every parked request into the inner service.
    #[test]
    fn full_lanes_park_requests_until_drain() {
        use kairos_appgen::{generate_dataset, DatasetSpec, Orientation, SizeClass};
        let config = GatewayConfig { channel_capacity: 2, ..GatewayConfig::default() };
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

    /// A subscription streams the ticket's events and ends at its
    /// terminal event.
    #[test]
    fn completion_streams_end_at_the_terminal_event() {
        let mut gateway = Gateway::new(queued_service([8, 8, 16, 8]), GatewayConfig::default());
        let mut requests = admits(2, 9);
        let second = requests.pop().unwrap();
        let ticket = gateway.enqueue(requests.pop().unwrap());
        let mut stream = gateway.subscribe(ticket);
        gateway.enqueue(second);
        gateway.drive();
        gateway.pump(CapacityEvent::Shutdown { now: 300 });
        let mut kinds = Vec::new();
        while let Some(event) = block_on(stream.next()) {
            assert_eq!(event.ticket(), ticket);
            kinds.push(match event {
                Event::Queued { .. } => "queued",
                Event::Admitted { .. } => "admitted",
                Event::Rejected { .. } => "rejected",
                _ => "other",
            });
        }
        assert_eq!(kinds.first(), Some(&"queued"));
        assert!(matches!(kinds.last(), Some(&"admitted") | Some(&"rejected")));
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

    /// Coalescing merges a drive pass's contiguous single admissions
    /// into batched waves without losing completions.
    #[test]
    fn coalescing_batches_contiguous_admits() {
        let config = GatewayConfig { coalesce: true, ..GatewayConfig::default() };
        let mut gateway = Gateway::new(direct_service(), config);
        for request in admits(12, 5) {
            gateway.enqueue(request);
        }
        gateway.drive();
        let stats = gateway.stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.forwarded, 12);
        assert_eq!(stats.coalesced, 12, "one pass coalesces the whole run");
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.completions, 12);
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
    /// has reached its terminal event nothing is left behind, and a late
    /// subscription to a finished ticket ends at once instead of hanging.
    #[test]
    fn finished_tickets_leave_no_per_ticket_state() {
        let cluster = ClusterBuilder::new(topology::crisp(), 2)
            .deterministic(true)
            .admission(AdmitPolicy { class_capacity: [8, 8, 16, 8], ..AdmitPolicy::default() })
            .build()
            .unwrap();
        let mut gateway = Gateway::new(Box::new(cluster), GatewayConfig::default());
        let tickets: Vec<Ticket> =
            admits(12, 21).into_iter().map(|request| gateway.enqueue(request)).collect();
        let stream = gateway.subscribe(tickets[0]);
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
        drop(stream);
        assert_eq!(gateway.inflight(), 0);
        assert!(gateway.started.is_empty() && gateway.expects.is_empty());
        {
            let core = gateway.core.lock().unwrap();
            assert!(core.terminals.is_empty(), "terminals leaked: {:?}", core.terminals);
            assert!(core.streams.is_empty());
        }
        let mut late = gateway.subscribe(tickets[0]);
        assert!(block_on(late.next()).is_none(), "a finished ticket's stream ends immediately");
    }
}
