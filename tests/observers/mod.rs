//! The observer-effect harness, shared by the per-layer suites. The
//! manager promises real-time guarantees under spatial isolation, so no
//! layer switched on around it may change what it decides: not an
//! observer (telemetry, tracing, the energy meter) and not an
//! infrastructure layer (the operating-point cache, a default-knob
//! gateway, a one-shard cluster). Each such knob is one row of [`KNOBS`]: how to switch it
//! off and on, the report sections it owns and a sanity check of those
//! sections.
//!
//! The transparency rule: strip the knob's own sections from both
//! reports, and `telemetry` and `trace` too when the base run already
//! records them (those two record work, and the cache changes which work
//! runs). What is left is byte-identical, and shard 0 ends in the same
//! platform state. Every run the harness makes audits shard 0. Each row
//! is checked by two legs:
//! - (a) [`assert_transparent_in`], over the generated queued,
//!   clustered, preempting, cached, gatewayed and metered [`regimes`],
//!   with element faults and defrag / rebalance sweeps;
//! - (b) [`assert_transparent_across_the_catalog`]: every catalog
//!   scenario the knob applies to is transparent with it on, and two
//!   such runs are byte-identical, trace export included. Both runs
//!   share one process, so leaked process state shows too. The
//!   scenarios catalogued with the knob already on pass its sanity check
//!   and reproduce ([`assert_catalogued_with_it_reproduce`]).
//!
//! The knob-less row, [`assert_catalogued_runs_reproduce`], reruns
//! scenarios as catalogued. Where each row runs:
//!
//! | row | leg (a) | leg (b) |
//! |---|---|---|
//! | telemetry | `telemetry_observer.rs` | `telemetry_observer.rs` |
//! | trace | `telemetry_observer.rs` | `trace_determinism.rs` |
//! | cache | `opcache_equivalence.rs` | `opcache_equivalence.rs` |
//! | gateway | `gateway_equivalence.rs` | `gateway_equivalence.rs` |
//! | watch | `watch_observer.rs` | `watch_observer.rs` |
//! | one-shard cluster | `cluster_equivalence.rs` | `cluster_equivalence.rs` |
//! | (none) | | `sim_scenarios.rs` |

// Each suite uses the part of the harness its rows need.
#![allow(dead_code)]

use kairos::admitd::{AdmitPolicy, PreemptionPolicy};
use kairos::appgen::{DatasetSpec, MixEntry, Orientation, SizeClass};
use kairos::cluster::Placement;
use kairos::gateway::GatewayConfig;
use kairos::platform::{Platform, PowerModel};
use kairos::sim::json::Json;
use kairos::sim::{
    ClusterSpec, FaultSpec, PhaseSpec, PlatformSpec, Scenario, SimReport, Simulator, SweepSpec,
};
use kairos::telemetry::{MetricValue, Snapshot};
use proptest::prelude::*;

/// A layer that can be switched on around the manager.
struct Knob {
    name: &'static str,
    off: fn(Scenario) -> Scenario,
    on: fn(Scenario) -> Scenario,
    /// The report sections the knob owns.
    sections: &'static [&'static str],
    /// Panics unless the owned sections of a run with the knob on are sane.
    sane: fn(&Run),
    /// Whether shard 0's platform comes out under another name with the
    /// knob on; its state must match all the same.
    renames_platform: bool,
}

impl Knob {
    /// Whether the knob is off in `scenario`, so that switching it on is
    /// a change.
    fn applies(&self, scenario: &Scenario) -> bool {
        (self.off)(scenario.clone()) == *scenario
    }
}

static KNOBS: [Knob; 6] = [
    Knob {
        name: "telemetry",
        off: |s| Scenario { telemetry: false, ..s },
        on: |s| Scenario { telemetry: true, ..s },
        sections: &["telemetry"],
        sane: |_| {},
        renames_platform: false,
    },
    Knob {
        name: "trace",
        off: |s| Scenario { trace: false, ..s },
        on: |s| Scenario { trace: true, ..s },
        sections: &["trace"],
        sane: |run| {
            assert_ne!(run.trace, "[\n\n]\n", "{}: the timeline is empty", run.scenario.name)
        },
        renames_platform: false,
    },
    Knob {
        name: "cache",
        off: |s| Scenario { cache: false, ..s },
        on: |s| Scenario { cache: true, ..s },
        sections: &["cache"],
        sane: |run| {
            let cache = run.report.cache.expect("cache section");
            assert!(
                cache.hits + cache.misses > 0,
                "{}: nothing consulted the cache",
                run.scenario.name
            );
            assert_eq!(
                cache.misses, cache.insertions,
                "{}: a miss stored nothing",
                run.scenario.name
            );
        },
        renames_platform: false,
    },
    Knob {
        name: "gateway",
        off: |s| Scenario { gateway: None, ..s },
        on: |s| Scenario { gateway: Some(GatewayConfig::default()), ..s },
        sections: &["gateway"],
        sane: |run| {
            let gateway = run.report.gateway.expect("gateway section").counters;
            assert_eq!(
                gateway.submitted, gateway.completions,
                "{}: a request hung",
                run.scenario.name
            );
            assert_eq!(
                gateway.forwarded, gateway.submitted,
                "{}: a request stayed",
                run.scenario.name
            );
            if run.scenario.gateway == Some(GatewayConfig::default()) {
                assert_eq!(
                    gateway.parked, 0,
                    "{}: a default lane filled in lockstep",
                    run.scenario.name
                );
            }
        },
        renames_platform: false,
    },
    Knob {
        name: "watch",
        off: |s| Scenario { power: None, ..s },
        on: |s| Scenario { power: Some(PowerModel::default()), ..s },
        sections: &["energy"],
        sane: |run| {
            let name = &run.scenario.name;
            let energy = run.report.energy.as_ref().expect("energy section");
            assert!(energy.samples > 0, "{name}: the meter integrated no sample");
            let total = energy.total_mw_ticks;
            assert_eq!(total, energy.busy_mw_ticks + energy.idle_mw_ticks, "{name}: busy + idle");
            let by_kind: u64 = energy.by_kind.iter().map(|k| k.mw_ticks).sum();
            let by_package: u64 = energy.packages.iter().map(|p| p.mw_ticks).sum();
            assert_eq!(by_kind, total, "{name}: the per-kind split must sum to the total");
            assert_eq!(by_package, total, "{name}: the per-package split must sum to the total");
        },
        renames_platform: false,
    },
    Knob {
        name: "one-shard cluster",
        off: |s| Scenario { cluster: None, ..s },
        on: |s| Scenario {
            cluster: Some(ClusterSpec { shards: 1, policy: Placement::FirstFit, rebalance: None }),
            ..s
        },
        sections: &[],
        sane: |_| {},
        // A cluster builds each shard's platform under the shard's name.
        renames_platform: true,
    },
];

/// The row of [`KNOBS`] called `name`.
fn knob(name: &str) -> &'static Knob {
    KNOBS.iter().find(|knob| knob.name == name).unwrap_or_else(|| panic!("no knob `{name}`"))
}

/// One finished run, with shard 0 audited.
struct Run {
    scenario: Scenario,
    report: SimReport,
    /// The Chrome-trace export.
    trace: String,
    /// Shard 0's final platform.
    platform: Platform,
}

fn run(scenario: Scenario) -> Run {
    let mut simulator = Simulator::new(scenario.clone()).unwrap();
    let report = simulator.run();
    assert_eq!(simulator.manager().audit(), Ok(()), "{}: shard 0 fails its audit", scenario.name);
    let trace = simulator.telemetry().chrome_trace();
    Run { scenario, report, trace, platform: simulator.manager().platform().clone() }
}

/// The report's sections, rendered, in key order.
fn sections(report: &SimReport) -> Vec<(String, String)> {
    let Json::Object(entries) = report.to_json() else { panic!("a report is a JSON object") };
    entries.into_iter().map(|(key, value)| (key, value.render())).collect()
}

/// Panics unless `on`, a run with `knob` on, carries the knob's
/// sections and they are sane.
fn assert_sane(knob: &Knob, on: &Run) {
    let name = format!("{} + {}", on.scenario.name, knob.name);
    let keys: Vec<String> = sections(&on.report).into_iter().map(|(key, _)| key).collect();
    for owned in knob.sections {
        assert!(keys.iter().any(|key| key == owned), "{name}: no `{owned}` section");
    }
    (knob.sane)(on);
}

/// Panics unless `on`, a run of `base`'s scenario with `knob` switched
/// on, is sane and transparent against `base`.
fn assert_transparent(knob: &Knob, base: &Run, on: &Run) {
    let name = format!("{} + {}", on.scenario.name, knob.name);
    assert_sane(knob, on);

    let mut stripped = knob.sections.to_vec();
    if base.report.telemetry.is_some() {
        stripped.push("telemetry");
    }
    if base.report.trace.is_some() {
        stripped.push("trace");
    }
    let rest = |sections: Vec<(String, String)>| -> Vec<(String, String)> {
        sections.into_iter().filter(|(key, _)| !stripped.contains(&key.as_str())).collect()
    };
    let (before, after) = (rest(sections(&base.report)), rest(sections(&on.report)));
    let keys = |s: &[(String, String)]| s.iter().map(|(key, _)| key.clone()).collect::<Vec<_>>();
    assert_eq!(keys(&before), keys(&after), "{name}: the knob changed the set of sections");
    for ((key, was), (_, now)) in before.iter().zip(&after) {
        assert!(was == now, "{name}: the knob moved section `{key}`");
    }
    let same_platform = if knob.renames_platform {
        base.platform.checkpoint() == on.platform.checkpoint()
    } else {
        base.platform == on.platform
    };
    assert!(same_platform, "{name}: the knob moved shard 0's final platform");
}

/// Panics unless two runs of one scenario are byte-identical, every
/// section and the trace export included.
fn assert_reproduced(first: &Run, second: &Run, how: &str) {
    let name = format!("{} {how}", first.scenario.name);
    assert!(
        first.report.to_json_string() == second.report.to_json_string(),
        "{name}: the report does not reproduce byte for byte"
    );
    assert!(first.trace == second.trace, "{name}: the trace export does not reproduce");
}

/// Two small computation-oriented datasets to one communication-oriented.
fn small_mix() -> Vec<MixEntry> {
    vec![
        MixEntry::new(
            DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Small },
            2,
        ),
        MixEntry::new(
            DatasetSpec { orientation: Orientation::Communication, size: SizeClass::Small },
            1,
        ),
    ]
}

/// A small CRISP churn-and-drain scenario over the queued, clustered and
/// preempting axes, with every knob of [`KNOBS`] off.
fn generated(
    seed: u64,
    interarrival: u64,
    lifetime: u64,
    queued: bool,
    cluster: Option<ClusterSpec>,
    preempt: bool,
    batch: u64,
) -> Scenario {
    let phases = vec![
        PhaseSpec::new("churn", 500, interarrival, lifetime, small_mix()).with_batch(batch),
        PhaseSpec::new("drain", 1200, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: queued.then_some(AdmitPolicy {
            class_capacity: [4, 4, 6, 8],
            max_wait: Some(400),
            max_attempts: 5,
            backoff_base: 1,
            backoff_cap: 4,
            preemption: if preempt {
                PreemptionPolicy::Migrate
            } else {
                PreemptionPolicy::Disabled
            },
            max_victims: 3,
        }),
        cluster,
        ..Scenario::new("generated", seed, 40, PlatformSpec::Crisp, phases)
    }
}

/// The generated regimes: [`generated`] scenarios, some of them cached,
/// some behind a default-knob gateway and some metered against the default
/// [`PowerModel`]; a clustered one runs 1–4
/// shards under either placement. Each may also carry up to two element
/// faults inside the churn phase (on distinct CRISP elements, repaired
/// 50–400 ticks later or never), a defrag sweep, and — clustered over at
/// least two shards — a rebalance sweep; and its churn may arrive in
/// `submit_batch` waves of 2–8 applications.
pub fn regimes() -> impl Strategy<Value = Scenario> {
    let axes =
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    let elements = PlatformSpec::Crisp.build().element_count() as u32;
    // (at, repaired, repair_after) of one fault.
    let fault = (0u64..500, any::<bool>(), 50u64..=400);
    // (count, first element, offset of the second, the two faults).
    let faults = (0usize..=2, 0..elements, 1..elements, fault.clone(), fault);
    // (on, period, max_moves) of one sweep.
    let sweep = (any::<bool>(), 50u64..300, 1usize..5);
    let sweeps = (sweep.clone(), sweep);
    // (on, size) of the churn phase's arrival waves.
    let waves = (any::<bool>(), 2u64..=8);
    let draws =
        (any::<u64>(), 5u64..40, 0u64..300, axes, 1usize..5, any::<bool>(), faults, sweeps, waves);
    draws.prop_map(
        move |(seed, interarrival, lifetime, axes, shards, spread, faults, sweeps, waves)| {
            let (queued, clustered, preempt, cached, gatewayed, metered) = axes;
            let policy = if spread { Placement::LeastLoaded } else { Placement::FirstFit };
            let (count, first, offset, a, b) = faults;
            let faults: Vec<FaultSpec> = [(first, a), ((first + offset) % elements, b)]
                .into_iter()
                .take(count)
                .map(|(element, (at, repaired, after))| FaultSpec {
                    at,
                    element,
                    repair_after: repaired.then_some(after),
                })
                .collect();
            let sweep = |(on, period, max_moves): (bool, u64, usize)| {
                on.then_some(SweepSpec { period, max_moves })
            };
            let defrag = sweep(sweeps.0);
            let rebalance = sweep(sweeps.1).filter(|_| clustered && shards >= 2);
            let batch = if waves.0 { waves.1 } else { 1 };
            // Captured, so printed only when the case fails.
            eprintln!(
                "seed {seed}, interarrival {interarrival}, lifetime {lifetime}, queued {queued}, \
                 clustered {clustered}, shards {shards}, placement {}, preempt {preempt}, \
                 cached {cached}, gatewayed {gatewayed}, metered {metered}, faults {faults:?}, \
                 defrag {defrag:?}, rebalance {rebalance:?}, batch {batch}",
                policy.name()
            );
            let cluster = clustered.then_some(ClusterSpec { shards, policy, rebalance });
            let mut scenario =
                generated(seed, interarrival, lifetime, queued, cluster, preempt, batch);
            scenario.cache = cached;
            scenario.gateway = gatewayed.then(GatewayConfig::default);
            scenario.power = metered.then(PowerModel::default);
            scenario.faults = faults;
            scenario.defrag = defrag;
            scenario
        },
    )
}

/// Leg (a) for one row and one regime: with the knob switched off and
/// then on, the two runs are transparent.
pub fn assert_transparent_in(name: &str, regime: Scenario) {
    let knob = knob(name);
    let base = (knob.off)(regime);
    let on = run((knob.on)(base.clone()));
    assert_transparent(knob, &run(base), &on);
}

/// With the row's knob switched on, one regime's two runs are sane and
/// byte-identical.
pub fn assert_reproducible_in(name: &str, regime: Scenario) {
    let knob = knob(name);
    let on = (knob.on)(regime);
    let first = run(on.clone());
    assert_sane(knob, &first);
    assert_reproduced(&first, &run(on), knob.name);
}

/// Leg (b) for one row: every catalog scenario the knob applies to is
/// transparent with it on, and two such runs are byte-identical. Returns
/// how many scenarios the knob applied to.
pub fn assert_transparent_across_the_catalog(name: &str) -> usize {
    let knob = knob(name);
    let applicable: Vec<Scenario> =
        Scenario::catalog().into_iter().filter(|scenario| knob.applies(scenario)).collect();
    for scenario in &applicable {
        let on = run((knob.on)(scenario.clone()));
        assert_transparent(knob, &run(scenario.clone()), &on);
        assert_reproduced(&on, &run((knob.on)(scenario.clone())), knob.name);
    }
    applicable.len()
}

/// The rest of the catalog for one row: every scenario catalogued with
/// the knob already on carries the knob's sections, passes its sanity
/// check and reproduces byte for byte.
pub fn assert_catalogued_with_it_reproduce(name: &str) {
    let knob = knob(name);
    for scenario in Scenario::catalog().into_iter().filter(|scenario| !knob.applies(scenario)) {
        let first = run(scenario.clone());
        assert_sane(knob, &first);
        assert_reproduced(&first, &run(scenario), "as catalogued");
    }
}

/// The knob-less row: each scenario, as catalogued, runs twice in this
/// process; both runs audit clean and are byte-identical.
pub fn assert_catalogued_runs_reproduce(scenarios: impl IntoIterator<Item = Scenario>) {
    for scenario in scenarios {
        assert_reproduced(&run(scenario.clone()), &run(scenario), "as catalogued");
    }
}

/// The value of the metric `name` in `snapshot`.
fn metric<'a>(snapshot: &'a Snapshot, name: &str) -> &'a MetricValue {
    let metric = snapshot.metrics.iter().find(|m| m.name == name);
    &metric.unwrap_or_else(|| panic!("metric {name} missing from snapshot")).value
}

pub fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    match metric(snapshot, name) {
        MetricValue::Counter(v) => *v,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

pub fn gauge(snapshot: &Snapshot, name: &str) -> i64 {
    match metric(snapshot, name) {
        MetricValue::Gauge(v) => *v,
        other => panic!("{name} is not a gauge: {other:?}"),
    }
}

/// The sample count of histogram `name`.
pub fn histogram_count(snapshot: &Snapshot, name: &str) -> u64 {
    match metric(snapshot, name) {
        MetricValue::Histogram(h) => h.count,
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}
