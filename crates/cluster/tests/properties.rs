//! Property tests of the sharded service: cluster output is a pure
//! function of its inputs, a probe wave is its applications probed one
//! by one and changes nothing, a one-shard cluster is indistinguishable
//! from the monolithic service, one ticket names a request at every
//! layer of the stack (monolith, cluster, gateway over cluster), and a
//! policy that settles early decides what probing every shard decides.

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use kairos_admitd::{
    AdmitPolicy, Admitd, CapacityEvent, Command, Event, PreemptionPolicy, PriorityClass, Request,
    ResourceService, ServiceBuilder, Ticket,
};
use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_cluster::{
    ClusterBuilder, ClusterService, Placement, ShardFit, ShardLoad, ShardProbe, APP_ID_STRIDE,
};
use kairos_core::{CacheConfig, Kairos, KairosConfig};
use kairos_gateway::{Gateway, GatewayConfig};
use kairos_platform::{
    topology, AppId, ElementId, ElementKind, PlatformCheckpoint, RegionMap, ResourceVector,
};
use kairos_telemetry::{Telemetry, TelemetryConfig};

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

/// One generated operation: an opcode plus two free parameters.
type Op = (u8, u8, u8);

/// Replays `ops` against `service`, returning the rendered event log —
/// the byte-comparable trace determinism is judged on.
fn drive(service: &mut dyn ResourceService, ops: &[Op]) -> String {
    let mut log = String::new();
    let mut live: Vec<AppId> = Vec::new();
    for (i, &(op, a, b)) in ops.iter().enumerate() {
        let at = i as u64;
        match op % 6 {
            0 | 1 => {
                let tasks = 1 + (a % 3) as usize;
                let cpu = 300 + 100 * (b % 5) as u64;
                let class = PriorityClass::ALL[(b % 4) as usize];
                service.submit(Request::admit(at, chain(&format!("p{i}"), tasks, cpu), class));
            }
            2 => {
                if live.is_empty() {
                    continue;
                }
                let id = live[(a as usize) % live.len()];
                service.submit(Request::release(at, id));
            }
            3 => {
                let element = ElementId(u32::from(a) * 7 % 62);
                service.submit(Request::new(at, Command::InjectFault { element }));
                service.submit(Request::new(at, Command::Repair { element }));
            }
            4 => {
                service.submit(Request::new(at, Command::Defrag { max_moves: 2 }));
            }
            _ => {
                service.submit(Request::new(at, Command::Rebalance { max_moves: 2 }));
            }
        }
        let events = service.take_events();
        for event in &events {
            match event {
                Event::Admitted { report, .. } => live.push(report.app_id),
                Event::Released { app, found: true, .. } => live.retain(|&id| id != *app),
                Event::ElementFailed { evicted, .. } => {
                    live.retain(|id| !evicted.contains(id));
                }
                Event::Rebalanced { moves, .. } => {
                    for &(from, to) in moves {
                        live.retain(|&id| id != from);
                        live.push(to);
                    }
                }
                _ => {}
            }
        }
        log.push_str(&format!("{events:?}\n"));
    }
    log.push_str(&format!("final: {:?}\n", service.occupancy()));
    log
}

fn cluster(shards: usize, queued: bool) -> ClusterService {
    let mut builder = ClusterBuilder::new(topology::crisp(), shards)
        .deterministic(true)
        .placement(Placement::LeastLoaded);
    if queued {
        builder = builder.admission(AdmitPolicy {
            class_capacity: [8, 8, 8, 8],
            max_wait: Some(20),
            ..AdmitPolicy::default()
        });
    }
    builder.build().unwrap()
}

fn monolith(queued: bool) -> Admitd {
    let builder = ServiceBuilder::new(topology::crisp()).deterministic(true);
    if queued {
        builder.admission(AdmitPolicy {
            class_capacity: [8, 8, 8, 8],
            max_wait: Some(20),
            ..AdmitPolicy::default()
        })
    } else {
        builder
    }
    .build()
    .unwrap()
}

/// One call a gateway made into the service it wraps.
#[derive(Debug, Clone)]
enum Call {
    Submit(Box<Request>),
    Pump(CapacityEvent),
}

/// A pass-through [`ResourceService`] recording every mutating call (the
/// requests exactly as forwarded, stamped tickets included), so a test
/// can replay the gateway's traffic against a bare service.
#[derive(Debug)]
struct Tap {
    inner: Box<dyn ResourceService + Send>,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl ResourceService for Tap {
    fn submit(&mut self, request: Request) -> Ticket {
        self.calls.lock().unwrap().push(Call::Submit(Box::new(request.clone())));
        self.inner.submit(request)
    }
    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        unreachable!("the storms forward one request at a time, not {requests:?}")
    }
    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        self.calls.lock().unwrap().push(Call::Pump(event));
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

/// Queue policy of the storms: evicting preemption, no timeouts, room for
/// every requeue.
fn evict_policy() -> AdmitPolicy {
    AdmitPolicy {
        class_capacity: [16, 16, 16, 16],
        max_wait: None,
        preemption: PreemptionPolicy::Evict,
        ..AdmitPolicy::default()
    }
}

/// The platform of the storms: twelve DSPs, four per shard of three.
fn storm_cluster() -> ClusterService {
    ClusterBuilder::new(topology::dsp_mesh(4, 3), 3)
        .deterministic(true)
        .admission(evict_policy())
        .build()
        .unwrap()
}

/// Drives an eviction storm — a low-priority fill of near-whole-DSP
/// chains, one critical that must preempt, then `ops` accepted six at a
/// time (`accept`) between settling passes (`settle`) — and a final
/// shutdown flush. Returns every ticket handed back, in acceptance order,
/// and the whole event stream.
fn storm<S: ResourceService>(
    stack: &mut S,
    accept: fn(&mut S, Request) -> Ticket,
    settle: fn(&mut S) -> Vec<Event>,
    ops: &[Op],
) -> (Vec<Ticket>, Vec<Event>) {
    let mut requests: Vec<Op> = (0..6).map(|_| (0, 1, 3)).collect();
    requests.push((0, 1, 0));
    requests.extend_from_slice(ops);
    let mut tickets = Vec::new();
    let mut events = Vec::new();
    let mut live: Vec<AppId> = Vec::new();
    let mut at = 0;
    for chunk in requests.chunks(6) {
        for &(op, a, b) in chunk {
            at += 1;
            let request = match op % 5 {
                0..=2 => {
                    let app = chain(&format!("s{at}"), 1 + (a % 3) as usize, 900);
                    Request::admit(at, app, PriorityClass::ALL[(b % 4) as usize])
                }
                3 if !live.is_empty() => Request::release(at, live[(a as usize) % live.len()]),
                _ => Request::new(at, Command::Defrag { max_moves: 2 }),
            };
            tickets.push(accept(stack, request));
        }
        let settled = settle(stack);
        for event in &settled {
            match event {
                Event::Admitted { report, .. } => live.push(report.app_id),
                Event::Released { app, .. } => live.retain(|id| id != app),
                Event::Preempted { victim, .. } => live.retain(|id| id != victim),
                _ => {}
            }
        }
        events.extend(settled);
    }
    events.extend(stack.pump(CapacityEvent::Shutdown { now: at + 1 }));
    (tickets, events)
}

/// The ticket laws every stack obeys: no value is issued twice, every
/// issued ticket — minted or requeue-derived — reaches exactly one
/// terminal event, and a requeue's ticket is a pure function of its
/// victim.
fn check_ticket_laws(tickets: &[Ticket], events: &[Event]) {
    let mut issued: BTreeSet<Ticket> = BTreeSet::new();
    for &ticket in tickets {
        assert!(issued.insert(ticket), "{ticket} returned twice");
    }
    let mut preemptions = 0;
    let mut terminals: BTreeMap<Ticket, usize> = BTreeMap::new();
    for event in events {
        match event {
            Event::Preempted { victim, requeued_as, by, .. } => {
                preemptions += 1;
                assert_eq!(*requeued_as, Ticket::requeue_of(*victim));
                assert!(issued.contains(by), "{by} preempted but was never issued");
                assert!(issued.insert(*requeued_as), "{requeued_as} issued twice");
            }
            Event::Queued { .. } | Event::AttemptFailed { .. } => {}
            terminal => *terminals.entry(terminal.ticket()).or_default() += 1,
        }
    }
    assert!(preemptions > 0, "the storm's critical must evict something");
    for ticket in &issued {
        assert_eq!(terminals.get(ticket), Some(&1), "{} terminal events", ticket);
    }
    assert_eq!(terminals.len(), issued.len(), "a terminal event names an unissued ticket");
}

/// A ticket stamped on a request comes back verbatim — as the return
/// value and on every event — and the layer that honoured it never later
/// mints a value at or below it.
fn assert_stamped_tickets_are_honoured(service: &mut dyn ResourceService) {
    let stamped = Ticket(41);
    let admit = |name: &str| Request::admit(0, chain(name, 1, 300), PriorityClass::Normal);
    assert_eq!(service.submit(admit("stamped").with_ticket(stamped)), stamped);
    let events = service.take_events();
    assert!(!events.is_empty() && events.iter().all(|e| e.ticket() == stamped), "{events:?}");
    let minted = service.submit(admit("minted"));
    assert!(minted > stamped, "{minted} minted after honouring {stamped}");
    // Out of order and inside a batch, stamped and unstamped side by side.
    let wave = vec![admit("w0").with_ticket(Ticket(7)), admit("w1"), admit("w2")];
    let tickets = service.submit_batch(wave);
    assert_eq!(tickets[0], Ticket(7));
    assert!(tickets[1] > minted && tickets[2] > tickets[1], "{tickets:?}");
    let tail = service.submit(Request::new(1, Command::Defrag { max_moves: 1 }));
    assert!(tail > tickets[2]);
}

/// A small cluster — twelve DSPs cut `shards` ways, so shards fill up
/// within a storm — under `policy`, queued and cached as asked.
fn twin(policy: Placement, shards: usize, queued: bool, cached: bool) -> ClusterService {
    let cache = cached.then(CacheConfig::default);
    let mut builder = ClusterBuilder::new(topology::dsp_mesh(4, 3), shards)
        .config(KairosConfig { cache, ..KairosConfig::default() })
        .deterministic(true)
        .placement(policy);
    if queued {
        builder = builder.admission(evict_policy());
    }
    builder.build().unwrap()
}

/// The cluster's routing rebuilt from public parts, probing eagerly:
/// every admission is probed on every shard's service, in the cluster's
/// shard-major order, and [`Placement::choose`] or
/// [`Placement::fallback`] routes it — the reference a cluster that
/// settles before the last shard is compared with.
struct Eager {
    shards: Vec<Admitd>,
    regions: RegionMap,
    policy: Placement,
    next_ticket: u64,
}

impl Eager {
    /// [`twin`]'s shards, built the way [`ClusterBuilder`] builds them.
    fn new(policy: Placement, shards: usize, queued: bool, cached: bool) -> Self {
        let platform = topology::dsp_mesh(4, 3);
        let regions = RegionMap::new(&platform, shards).unwrap();
        let shards = (0..shards)
            .map(|r| {
                let config = KairosConfig {
                    app_id_base: r as u32 * APP_ID_STRIDE,
                    cache: cached.then(CacheConfig::default),
                    deterministic: true,
                    ..KairosConfig::default()
                };
                let builder = ServiceBuilder::new(regions.extract(&platform, r)).config(config);
                if queued { builder.admission(evict_policy()) } else { builder }.build().unwrap()
            })
            .collect();
        Eager { shards, regions, policy, next_ticket: 0 }
    }

    /// Full probe rows for `apps`: shard by shard, every application.
    fn rows(&mut self, apps: &[&Application]) -> Vec<Vec<ShardProbe>> {
        let mut rows = vec![Vec::new(); apps.len()];
        for (shard, service) in self.shards.iter_mut().enumerate() {
            for (app, row) in apps.iter().zip(&mut rows) {
                let fit = service.probe_admit(app).ok().map(|p| ShardFit {
                    fragmentation: p.after.external_fragmentation,
                    resource_utilisation: p.after.resource_utilisation,
                });
                row.push(ShardProbe { shard, fit });
            }
        }
        rows
    }

    /// The policy's shard for a full row, or its fallback.
    fn route(&self, row: &[ShardProbe]) -> usize {
        self.policy.choose(row).unwrap_or_else(|| {
            let loads: Vec<ShardLoad> = (self.shards.iter().enumerate())
                .map(|(shard, service)| ShardLoad {
                    shard,
                    resource_utilisation: service.kairos().resource_utilisation(),
                    queue_depth: service.queue_depth(),
                })
                .collect();
            self.policy.fallback(&loads)
        })
    }

    /// One shard's events with their element ids translated to global.
    fn drain(&mut self, shard: usize) -> Vec<Event> {
        let mut events = self.shards[shard].take_events();
        for event in &mut events {
            if let Event::ElementFailed { element, .. } | Event::ElementRepaired { element, .. } =
                event
            {
                *element = self.regions.to_global(shard, *element);
            }
        }
        events
    }

    /// Routes one stamped request to its shard and returns the fallout.
    fn forward(&mut self, request: Request) -> Vec<Event> {
        let (shard, command) = match request.command {
            Command::Admit { app, class } => {
                let row = self.rows(&[&app]).pop().unwrap();
                (self.route(&row), Command::Admit { app, class })
            }
            Command::Release { app } => {
                ((app.0 / APP_ID_STRIDE) as usize, Command::Release { app })
            }
            Command::InjectFault { element } => {
                let (shard, element) = self.regions.locate(element).unwrap();
                (shard, Command::InjectFault { element })
            }
            Command::Repair { element } => {
                let (shard, element) = self.regions.locate(element).unwrap();
                (shard, Command::Repair { element })
            }
            other => panic!("the storm never submits {other:?}"),
        };
        self.shards[shard].submit(Request { command, ..request });
        self.drain(shard)
    }

    /// `requests` one by one, or as one wave: the wave's admissions are
    /// probed against the pre-wave state and handed to each shard as one
    /// batch, and the rest follow in submission order.
    fn step(&mut self, requests: Vec<Request>, batched: bool) -> (Vec<Ticket>, Vec<Event>) {
        let stamped: Vec<Request> = (requests.into_iter())
            .map(|r| {
                let ticket = Ticket::resolve(r.ticket, &mut self.next_ticket);
                r.with_ticket(ticket)
            })
            .collect();
        let tickets = stamped.iter().map(|r| r.ticket.unwrap()).collect();
        let mut events = Vec::new();
        let (admissions, rest): (Vec<Request>, Vec<Request>) = match batched {
            true => stamped.into_iter().partition(|r| matches!(r.command, Command::Admit { .. })),
            false => (Vec::new(), stamped),
        };
        let apps: Vec<&Application> = (admissions.iter())
            .filter_map(|r| match &r.command {
                Command::Admit { app, .. } => Some(app),
                _ => None,
            })
            .collect();
        let rows = self.rows(&apps);
        let mut waves = vec![Vec::new(); self.shards.len()];
        for (request, row) in admissions.into_iter().zip(rows) {
            waves[self.route(&row)].push(request);
        }
        for (shard, wave) in waves.into_iter().enumerate().filter(|(_, w)| !w.is_empty()) {
            self.shards[shard].submit_batch(wave);
            events.extend(self.drain(shard));
        }
        for request in rest {
            events.extend(self.forward(request));
        }
        (tickets, events)
    }
}

#[test]
fn every_layer_honours_a_stamped_ticket_and_mints_past_it() {
    assert_stamped_tickets_are_honoured(&mut monolith(false));
    assert_stamped_tickets_are_honoured(&mut monolith(true));
    assert_stamped_tickets_are_honoured(&mut cluster(1, true));
    assert_stamped_tickets_are_honoured(&mut cluster(3, false));
    assert_stamped_tickets_are_honoured(&mut cluster(3, true));
    let gateway = |inner: ClusterService| Gateway::new(Box::new(inner), GatewayConfig::default());
    assert_stamped_tickets_are_honoured(&mut gateway(cluster(3, true)));
}

/// Regression test: a batched wave's placements are counted exactly as
/// per-request ones are — `placements` once per admission, `fallbacks`
/// once per admission no shard's probe fits.
#[test]
fn batched_placements_are_counted_like_per_request_ones() {
    let build = || {
        ClusterBuilder::new(topology::crisp(), 2)
            .deterministic(true)
            .telemetry(Telemetry::new(TelemetryConfig::default()))
            .build()
            .unwrap()
    };
    let wave = || -> Vec<Request> {
        let mut wave: Vec<Request> = (0..6)
            .map(|i| Request::admit(0, chain(&format!("a{i}"), 2, 600), PriorityClass::Normal))
            .collect();
        wave.push(Request::admit(0, chain("hopeless", 70, 990), PriorityClass::Normal));
        wave.push(Request::admit(0, chain("hopeless-too", 70, 990), PriorityClass::Normal));
        wave
    };
    let counts = |cluster: &ClusterService| {
        let count = |name: &str| cluster.telemetry().counter(name).unwrap().get();
        (count("kairos.cluster.placements"), count("kairos.cluster.placement.fallbacks"))
    };
    let mut single = build();
    for request in wave() {
        single.submit(request);
    }
    let mut batched = build();
    batched.submit_batch(wave());
    assert_eq!(counts(&single), (8, 2));
    assert_eq!(counts(&batched), (8, 2), "one count per admission, however it arrived");
}

/// `loads()` and `occupancy()` read the platform without building
/// what they do not report; the values are the ones the full snapshot
/// and the materialised pair / failure lists give, bit for bit.
#[test]
fn loads_and_occupancy_equal_their_materialising_definitions() {
    let mut cluster = ClusterBuilder::new(topology::crisp(), 3)
        .deterministic(true)
        .placement(Placement::LeastLoaded)
        .build()
        .unwrap();
    for i in 0..9 {
        let app = chain(&format!("l{i}"), 1 + i % 3, 500 + 40 * i as u64);
        cluster.submit(Request::admit(i as u64, app, PriorityClass::Normal));
    }
    cluster.submit(Request::new(9, Command::InjectFault { element: ElementId(3) }));
    cluster.take_events();

    for (shard, load) in cluster.loads().into_iter().enumerate() {
        let service = cluster.shard(shard);
        assert_eq!(load.shard, shard);
        assert_eq!(load.queue_depth, service.queue_depth());
        let full = service.occupancy().resource_utilisation;
        assert!(full > 0.0, "shard {shard} is loaded");
        assert_eq!(load.resource_utilisation.to_bits(), full.to_bits(), "shard {shard}");
    }

    let (mut admitted, mut used, mut elements) = (0, 0, 0);
    let (mut free, mut capacity) = (0u64, 0u64);
    let (mut mixed, mut pairs, mut islands, mut failed) = (0, 0, 0, 0);
    for shard in 0..cluster.shard_count() {
        let kairos = cluster.shard(shard).kairos();
        let p = kairos.platform();
        admitted += kairos.admitted_count();
        used += p.element_ids().filter(|&e| p.is_used(e)).count();
        elements += p.element_count();
        free += p.total_free().as_array().iter().sum::<u64>();
        capacity += p.total_capacity().as_array().iter().sum::<u64>();
        let shard_pairs: Vec<(ElementId, ElementId)> = p
            .element_ids()
            .flat_map(|a| p.neighbors(a).iter().filter(move |&&b| a < b).map(move |&b| (a, b)))
            .collect();
        mixed += shard_pairs.iter().filter(|&&(a, b)| p.is_used(a) != p.is_used(b)).count();
        pairs += shard_pairs.len();
        islands += kairos_platform::free_island_count(p);
        failed += p.failed_elements().len();
    }
    assert_eq!(failed, 1);
    let occ = cluster.occupancy();
    assert_eq!(occ.admitted_apps, admitted);
    assert_eq!(occ.element_utilisation.to_bits(), (used as f64 / elements as f64).to_bits());
    assert_eq!(occ.resource_utilisation.to_bits(), (1.0 - free as f64 / capacity as f64).to_bits());
    assert!(mixed > 0 && mixed < pairs);
    assert_eq!(occ.external_fragmentation.to_bits(), (mixed as f64 / pairs as f64).to_bits());
    assert_eq!(occ.free_islands, islands);
    assert_eq!(occ.failed_elements, failed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One ticket, minted once: under eviction storms the ticket laws
    /// hold on a monolith, on a 3-shard queued cluster, and on the same
    /// cluster behind a two-slot-lane gateway — where parked requests
    /// reach the cluster out of ticket order and the gateway's stream is
    /// still, byte for byte, what the bare cluster answers to the very
    /// requests the gateway forwarded.
    #[test]
    fn tickets_are_unique_and_terminate_exactly_once_at_every_layer(
        ops in proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 0..24),
    ) {
        let mut monolith = ServiceBuilder::new(topology::dsp_mesh(4, 3))
            .deterministic(true)
            .admission(evict_policy())
            .build()
            .unwrap();
        let (tickets, events) =
            storm(&mut monolith, Admitd::submit, Admitd::take_events, &ops);
        check_ticket_laws(&tickets, &events);

        let (tickets, events) =
            storm(&mut storm_cluster(), ClusterService::submit, ClusterService::take_events, &ops);
        check_ticket_laws(&tickets, &events);

        // Driven with `enqueue` + `drive`, a two-slot lane bound forwards
        // parked requests out of ticket order.
        let calls = Arc::new(Mutex::new(Vec::new()));
        let tap = Tap { inner: Box::new(storm_cluster()), calls: Arc::clone(&calls) };
        let config = GatewayConfig { channel_capacity: 2 };
        let settle = |gateway: &mut Gateway| {
            gateway.drive();
            gateway.take_events()
        };
        let (tickets, events) =
            storm(&mut Gateway::new(Box::new(tap), config), Gateway::enqueue, settle, &ops);
        check_ticket_laws(&tickets, &events);

        let mut direct = storm_cluster();
        let mut replayed = Vec::new();
        for call in calls.lock().unwrap().drain(..) {
            match call {
                Call::Submit(request) => {
                    prop_assert!(request.ticket.is_some(), "the gateway stamps what it forwards");
                    direct.submit(*request);
                    replayed.extend(direct.take_events());
                }
                Call::Pump(event) => replayed.extend(direct.pump(event)),
            }
        }
        prop_assert_eq!(format!("{events:?}"), format!("{replayed:?}"));
    }

    /// Replay determinism: the same operation sequence against a fresh
    /// multi-shard cluster produces the byte-identical event stream on
    /// every run.
    #[test]
    fn multi_shard_replays_are_byte_identical(
        ops in proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..28),
        shards in 2usize..5,
        queued in any::<bool>(),
    ) {
        let first = drive(&mut cluster(shards, queued), &ops);
        for _ in 0..3 {
            let again = drive(&mut cluster(shards, queued), &ops);
            prop_assert_eq!(&first, &again, "a replay diverged");
        }
    }

    /// A wave is its applications probed one by one — row `i` of
    /// `probe_admit_wave(apps)` is `probe_admit(&apps[i])` — and probing
    /// is state-neutral: every shard's platform checkpoint — the exact
    /// bytes, not a digest of some of them — is the same before and after
    /// the wave.
    #[test]
    fn a_probe_wave_equals_its_single_probes_and_changes_nothing(
        ops in proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..28),
        wave in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
        shards in 2usize..5,
        queued in any::<bool>(),
    ) {
        let mut service = cluster(shards, queued);
        drive(&mut service, &ops);
        let apps: Vec<Application> = wave
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                chain(&format!("w{i}"), 1 + (a % 4) as usize, 300 + 100 * (b % 7) as u64)
            })
            .collect();
        let states = |service: &ClusterService| -> Vec<PlatformCheckpoint> {
            (0..service.shard_count())
                .map(|s| service.shard(s).kairos().platform().checkpoint())
                .collect()
        };
        let before = states(&service);
        let rows = service.probe_admit_wave(&apps);
        prop_assert_eq!(states(&service), before.clone(), "the wave left a mark");
        prop_assert_eq!(rows.len(), apps.len());
        for (app, row) in apps.iter().zip(&rows) {
            prop_assert_eq!(&service.probe_admit(app), row);
        }
        prop_assert_eq!(states(&service), before);
    }

    /// A one-shard cluster is the monolithic service: identical event
    /// streams for arbitrary operation sequences, queued or direct.
    #[test]
    fn one_shard_cluster_equals_the_monolithic_service(
        ops in proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..28),
        queued in any::<bool>(),
    ) {
        let mono = drive(&mut monolith(queued), &ops);
        let one = drive(&mut cluster(1, queued), &ops);
        prop_assert_eq!(&mono, &one, "shard count 1 must be transparent");
    }

    /// Rebalance conservation: however the sweep moves applications
    /// around, none is ever lost or duplicated — the cluster's admitted
    /// population equals admissions minus departures/evictions.
    #[test]
    fn rebalance_conserves_applications(
        ops in proptest::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 1..28),
    ) {
        let mut service = cluster(3, false);
        // Drive, then recount the population from the event stream only.
        let trace = drive(&mut service, &ops);
        let admitted = trace.matches("Admitted").count() as i64;
        let released = trace.matches("found: true").count() as i64;
        let mut evicted = 0i64;
        for part in trace.split("ElementFailed").skip(1) {
            if let Some(list) = part.split("evicted: [").nth(1) {
                let inner = list.split(']').next().unwrap_or("");
                if !inner.trim().is_empty() {
                    evicted += inner.matches("AppId").count() as i64;
                }
            }
        }
        let expected_live = admitted - released - evicted;
        prop_assert_eq!(
            service.occupancy().admitted_apps as i64,
            expected_live,
            "population must balance: {}", trace
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lazy == eager, end to end: a cluster whose policy may settle
    /// before the last shard and the [`Eager`] reference hand back the
    /// same tickets, the same event stream in the same order and — shard
    /// by shard, after every step — the same manager state, through
    /// `submit` and `submit_batch`, across faults and repairs, with the
    /// operating-point cache (whose contents the skipped probes do
    /// change) on and off.
    #[test]
    fn settling_early_decides_what_probing_every_shard_decides(
        ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..40),
        shards in 2usize..5,
        policy in 0u8..4,
        queued in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let policy = if policy == 0 { Placement::LeastLoaded } else { Placement::FirstFit };
        let mut lazy = twin(policy, shards, queued, cached);
        let mut eager = Eager::new(policy, shards, queued, cached);
        let mut live: Vec<AppId> = Vec::new();
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            let at = i as u64;
            let admit = |k: u8| {
                let (tasks, cpu) = (1 + ((a >> k) % 3) as usize, 400 + 150 * u64::from((b >> k) % 5));
                let class = PriorityClass::ALL[((b >> k) % 4) as usize];
                Request::admit(at, chain(&format!("e{i}-{k}"), tasks, cpu), class)
            };
            let element = ElementId(u32::from(a) % 12);
            let requests: Vec<Request> = match op {
                0..=2 => vec![admit(0)],
                3 => (0..2 + a % 3).map(admit).collect(),
                4 | 5 if !live.is_empty() => {
                    vec![Request::release(at, live[a as usize % live.len()])]
                }
                6 => vec![Request::new(at, Command::InjectFault { element })],
                7 => vec![Request::new(at, Command::Repair { element })],
                _ => continue,
            };
            let batched = requests.len() > 1 || b >= 128;
            let tickets = match batched {
                true => lazy.submit_batch(requests.clone()),
                false => requests.iter().cloned().map(|r| lazy.submit(r)).collect(),
            };
            let answered = (tickets, lazy.take_events());
            prop_assert_eq!(&eager.step(requests, batched), &answered, "step {} diverged", i);
            for shard in 0..shards {
                prop_assert_eq!(
                    lazy.shard(shard).kairos().checkpoint(),
                    eager.shards[shard].kairos().checkpoint(),
                    "shard {} after step {}", shard, i
                );
            }
            for event in answered.1 {
                match event {
                    Event::Admitted { report, .. } => live.push(report.app_id),
                    Event::Released { app, .. } => live.retain(|&id| id != app),
                    Event::Preempted { victim, .. } => live.retain(|&id| id != victim),
                    Event::ElementFailed { evicted, .. } => live.retain(|id| !evicted.contains(id)),
                    _ => {}
                }
            }
        }
    }
}
