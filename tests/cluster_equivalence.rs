//! The sharding transparency pin: a one-shard cluster behind the
//! `ResourceService` surface is indistinguishable from the monolithic
//! service. It is a row of the observer-effect harness
//! (`tests/observers/mod.rs`): generated regimes and every unclustered
//! catalog scenario reproduce their reports byte for byte when re-run
//! through `ClusterService` with shard count 1. The two clustered
//! catalog scenarios are byte-reproducible and do what they were built
//! to show: the sharded storm queues per shard, and the skewed fill
//! rebalances without losing an application. The differential at the
//! bottom pins the probe hand-off at cluster level: a winning shard that
//! commits its own probe decides exactly what a shard that never saw a
//! probe decides.

mod observers;

use kairos::admitd::{
    AdmitPolicy, Admitd, CapacityEvent, Command, Event, PriorityClass, Request, ResourceService,
    ServiceBuilder, Ticket,
};
use kairos::app::Application;
use kairos::appgen::{WorkloadMix, WorkloadSampler};
use kairos::cluster::{
    BestFitFragmentation, ClusterBuilder, LeastLoaded, PlacementPolicy, ShardFit, ShardLoad,
    ShardProbe, APP_ID_STRIDE,
};
use kairos::core::{KairosConfig, DURATION_NS_BOUNDS};
use kairos::platform::{topology, AppId, ElementId, RegionMap};
use kairos::sim::{Scenario, Simulator};
use kairos::telemetry::{MetricValue, Telemetry, TelemetryConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A generated regime, its cluster removed, decides the same through
    /// a one-shard cluster as through the monolithic service.
    #[test]
    fn one_shard_cluster_never_perturbs_the_simulation(regime in observers::regimes()) {
        observers::assert_transparent_in("one-shard cluster", regime);
    }
}

#[test]
fn every_unclustered_scenario_is_byte_identical_through_a_one_shard_cluster() {
    assert_eq!(
        observers::assert_transparent_across_the_catalog("one-shard cluster"),
        14,
        "the twelve pre-cluster scenarios plus gateway-backpressure and slo-burn-storm"
    );
}

#[test]
fn clustered_scenarios_are_byte_reproducible() {
    observers::assert_catalogued_with_it_reproduce("one-shard cluster");
}

#[test]
fn sharded_storm_queues_per_shard_and_admits_real_load() {
    let report = Simulator::new(Scenario::by_name("sharded-arrival-storm").unwrap()).unwrap().run();
    assert!(report.totals.admissions > 0, "the storm must admit work");
    assert!(report.queue.admitted_after_wait > 0, "shard queues must actually hold waiters");
    assert!(report.queue.retry_attempts > 0);
    assert_eq!(
        report.totals.arrivals,
        report.totals.admissions + report.totals.rejections,
        "every arrival reaches exactly one terminal outcome"
    );
}

#[test]
fn cross_shard_rebalance_moves_work_and_keeps_the_population_consistent() {
    let report = Simulator::new(Scenario::by_name("cross-shard-rebalance").unwrap()).unwrap().run();
    assert!(report.totals.rebalance_moves > 0, "the skewed fill must trigger moves");
    assert_eq!(report.totals.arrivals, report.totals.admissions + report.totals.rejections);
    // Moved applications keep running and still depart on schedule: the
    // platform ends the long drain with every short-lived app gone.
    assert!(report.totals.departures > 0);
    assert_eq!(
        report.final_state.admitted_apps as u64,
        report.totals.admissions - report.totals.departures,
        "rebalancing must never lose or duplicate a running application"
    );
}

/// The cluster's admit/release/fault routing rebuilt from public parts,
/// with one difference: it never probes the services it admits on. Each
/// placement probes a *clone* of every shard's manager, so the shard
/// that wins always decides cold — the reference a cluster whose
/// winning shard commits its own probe must be indistinguishable from.
struct ProbeBlind {
    shards: Vec<Admitd>,
    regions: RegionMap,
    policy: Box<dyn PlacementPolicy>,
    events: Vec<Event>,
}

impl ProbeBlind {
    /// One shard's events with their element ids translated to global.
    fn globalised(&self, shard: usize, mut events: Vec<Event>) -> Vec<Event> {
        for event in &mut events {
            if let Event::ElementFailed { element, .. } | Event::ElementRepaired { element, .. } =
                event
            {
                *element = self.regions.to_global(shard, *element);
            }
        }
        events
    }

    /// The shard `app` is placed on: probe clones, ask the policy, fall back.
    fn place(&self, app: &Application) -> usize {
        let probes: Vec<ShardProbe> = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, service)| {
                let probe = service.kairos().clone().probe_admit(app).ok();
                let fit = probe.map(|p| ShardFit {
                    fragmentation: p.after.external_fragmentation,
                    resource_utilisation: p.after.resource_utilisation,
                });
                ShardProbe { shard, fit }
            })
            .collect();
        self.policy.choose(&probes).unwrap_or_else(|| {
            let loads: Vec<ShardLoad> = self
                .shards
                .iter()
                .enumerate()
                .map(|(shard, service)| ShardLoad {
                    shard,
                    resource_utilisation: service.occupancy().resource_utilisation,
                    queue_depth: service.queue_depth(),
                })
                .collect();
            self.policy.fallback(&loads)
        })
    }

    fn submit(&mut self, request: Request) {
        let Request { at, command, ticket, .. } = request;
        let (shard, command) = match command {
            Command::Admit { app, class } => (self.place(&app), Command::Admit { app, class }),
            Command::Release { app } => ((app.0 / APP_ID_STRIDE) as usize, command),
            Command::InjectFault { element } => (
                self.regions.region_of(element),
                Command::InjectFault { element: self.regions.to_local(element) },
            ),
            Command::Repair { element } => (
                self.regions.region_of(element),
                Command::Repair { element: self.regions.to_local(element) },
            ),
            other => panic!("the storm never submits {other:?}"),
        };
        let ticket = ticket.expect("the storm stamps every ticket");
        self.shards[shard].submit(Request::new(at, command).with_ticket(ticket));
        let events = self.shards[shard].take_events();
        self.events.extend(self.globalised(shard, events));
    }

    fn pump(&mut self, event: CapacityEvent) {
        for shard in 0..self.shards.len() {
            let events = self.shards[shard].pump(event);
            self.events.extend(self.globalised(shard, events));
        }
    }
}

/// A 400-request admit/release/fault storm through a 3-shard cluster
/// against the probe-blind reference: equal event streams, equal final
/// platform bytes on every shard, and (the hub is lit) pipeline runs
/// that add up once replayed admissions are taken out.
fn storm_differential(admission: Option<AdmitPolicy>, policy: fn() -> Box<dyn PlacementPolicy>) {
    let platform = topology::crisp();
    let hub = Telemetry::new(TelemetryConfig::default());
    let mut builder = ClusterBuilder::new(platform.clone(), 3)
        .deterministic(true)
        .placement(policy())
        .telemetry(hub.clone());
    if let Some(queue) = admission {
        builder = builder.admission(queue);
    }
    let mut cluster = builder.build().unwrap();
    let regions = cluster.regions().clone();
    let shards = (0..3)
        .map(|r| {
            let config = KairosConfig {
                app_id_base: r as u32 * APP_ID_STRIDE,
                deterministic: true,
                ..KairosConfig::default()
            };
            let mut builder = ServiceBuilder::new(regions.extract(&platform, r)).config(config);
            if let Some(queue) = admission {
                builder = builder.admission(queue);
            }
            builder.build().unwrap()
        })
        .collect();
    let mut blind = ProbeBlind { shards, regions, policy: policy(), events: Vec::new() };

    let mut sampler = WorkloadSampler::new("storm", WorkloadMix::all_datasets(), 0x2010);
    let mut state = 0x2010u64;
    let mut roll = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut events: Vec<Event> = Vec::new();
    let mut live: Vec<AppId> = Vec::new();
    let mut failed: Vec<ElementId> = Vec::new();
    for at in 0..400u64 {
        let command = match roll() % 20 {
            0 if failed.len() == 2 => Command::Repair { element: failed.remove(0) },
            0 => {
                let element = ElementId((roll() % platform.element_count()) as u32);
                failed.push(element);
                Command::InjectFault { element }
            }
            1..=8 if !live.is_empty() => {
                Command::Release { app: live.swap_remove(roll() % live.len()) }
            }
            _ => Command::Admit { app: sampler.next_app(), class: PriorityClass::ALL[roll() % 4] },
        };
        let request = Request::new(at, command).with_ticket(Ticket(at));
        cluster.submit(request.clone());
        blind.submit(request);
        let mut fresh = cluster.take_events();
        if at % 8 == 7 {
            fresh.extend(cluster.pump(CapacityEvent::Tick { now: at }));
            blind.pump(CapacityEvent::Tick { now: at });
        }
        for event in &fresh {
            match event {
                Event::Admitted { report, .. } => live.push(report.app_id),
                Event::ElementFailed { evicted, .. } => live.retain(|id| !evicted.contains(id)),
                _ => {}
            }
        }
        events.extend(fresh);
    }
    events.extend(cluster.pump(CapacityEvent::Shutdown { now: 400 }));
    blind.pump(CapacityEvent::Shutdown { now: 400 });

    let queued = admission.is_some();
    assert_eq!(events.len(), blind.events.len(), "queued={queued}");
    for (i, (real, reference)) in events.iter().zip(&blind.events).enumerate() {
        assert_eq!(real, reference, "queued={queued}: event {i} differs");
    }
    for (shard, reference) in blind.shards.iter().enumerate() {
        assert_eq!(
            cluster.shard(shard).kairos().platform().checkpoint(),
            reference.kairos().platform().checkpoint(),
            "queued={queued}: shard {shard} ended on different platform bytes"
        );
    }
    let admitted = events.iter().filter(|e| matches!(e, Event::Admitted { .. })).count();
    let rejected = events.iter().filter(|e| matches!(e, Event::Rejected { .. })).count();
    assert!(admitted > 50 && rejected > 20, "{admitted} admitted, {rejected} rejected");

    // Only the real cluster is lit. Every probe and every admission
    // that did not commit a hand-off ran the pipeline from its first
    // phase, and nothing else did.
    let count = |name: &str| hub.counter(name).expect("the hub is lit").get();
    let replayed = count("kairos.core.admit.replayed");
    assert!(replayed > 0, "queued={queued}: no winning shard committed its own probe");
    let runs = hub
        .histogram("kairos.core.phase.binding.ns", DURATION_NS_BOUNDS)
        .expect("the hub is lit")
        .snapshot()
        .count;
    assert_eq!(
        runs,
        count("kairos.core.probes")
            + count("kairos.core.admit.ok")
            + count("kairos.core.admit.fail")
            - replayed,
        "queued={queued}"
    );
    // Every refusal is counted once, under its cause.
    let snapshot = hub.snapshot();
    let causes: Vec<u64> = snapshot
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("kairos.core.reject."))
        .map(|m| match m.value {
            MetricValue::Counter(n) => n,
            _ => panic!("{} is a counter", m.name),
        })
        .collect();
    assert_eq!(causes.len(), 8, "queued={queued}");
    assert_eq!(causes.iter().sum::<u64>(), count("kairos.core.admit.fail"), "queued={queued}");
}

#[test]
fn a_shard_committing_its_own_probe_decides_what_a_probe_blind_shard_does() {
    storm_differential(None, || Box::new(BestFitFragmentation));
    let queue = AdmitPolicy { max_wait: Some(40), ..AdmitPolicy::default() };
    storm_differential(Some(queue), || Box::new(LeastLoaded));
}
