//! Shared test support for the workspace's integration suites.
//!
//! The cluster-transparency, telemetry-observer, trace-determinism,
//! opcache-equivalence, gateway-equivalence and watch-observer suites
//! all need the same
//! ingredients: a small deterministic workload mix, a parameterised
//! scenario generator covering the queued/clustered/preempting axes,
//! the one-shard cluster and gateway rewrites, and snapshot readers for
//! pinned metric names. They used to
//! carry private copies; this module (behind the `testkit` feature) is
//! the single shared implementation.

use kairos_admitd::{AdmitPolicy, PreemptionPolicy};
use kairos_appgen::{DatasetSpec, MixEntry, Orientation, SizeClass};
use kairos_cluster::PlacementPolicyKind;
use kairos_telemetry::{MetricValue, Snapshot};

use crate::{ClusterSpec, GatewaySpec, PhaseSpec, PlatformSpec, Scenario, Simulator, WatchSpec};

/// A small two-entry workload mix: two computation-oriented and one
/// communication-oriented small dataset.
pub fn small_mix() -> Vec<MixEntry> {
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

/// A small generated scenario covering the queued/clustered/preempting
/// axes; `telemetry`, `trace` and `cache` are left off for the caller to
/// flip.
pub fn generated(
    seed: u64,
    interarrival: u64,
    lifetime: u64,
    queued: bool,
    clustered: bool,
    preempt: bool,
) -> Scenario {
    let phases = vec![
        PhaseSpec::new("churn", 500, interarrival, lifetime, small_mix()),
        PhaseSpec::new("drain", 1200, 0, 0, Vec::new()),
    ];
    Scenario {
        admission: queued.then(|| AdmitPolicy {
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
            ..AdmitPolicy::default()
        }),
        cluster: clustered.then_some(ClusterSpec {
            shards: 2,
            policy: PlacementPolicyKind::LeastLoaded,
            rebalance: None,
        }),
        ..Scenario::new("generated", seed, 40, PlatformSpec::Crisp, phases)
    }
}

/// The scenario rewritten to run behind a default-knob gateway (the
/// gateway-transparency pin's rewrite).
///
/// # Panics
///
/// Panics when the scenario is already gatewayed.
pub fn gatewayed(mut scenario: Scenario) -> Scenario {
    assert!(scenario.gateway.is_none(), "only ungatewayed scenarios are rewritten");
    scenario.gateway = Some(GatewaySpec::default());
    scenario
}

/// The scenario rewritten to run through a one-shard cluster (the
/// sharding-transparency pin's rewrite).
///
/// # Panics
///
/// Panics when the scenario is already clustered.
pub fn clustered_once(mut scenario: Scenario) -> Scenario {
    assert!(scenario.cluster.is_none(), "only unclustered scenarios are rewritten");
    scenario.cluster =
        Some(ClusterSpec { shards: 1, policy: PlacementPolicyKind::FirstFit, rebalance: None });
    scenario
}

/// The scenario rewritten to run under a default-knob watch policy (the
/// watch observer pin's rewrite). Watching implies energy metering, so
/// the rewritten run carries both the `energy` and `health` report
/// sections.
///
/// # Panics
///
/// Panics when the scenario is already watched.
pub fn watched(mut scenario: Scenario) -> Scenario {
    assert!(scenario.watch.is_none(), "only unwatched scenarios are rewritten");
    scenario.watch = Some(WatchSpec::default());
    scenario
}

/// One traced run of `scenario` (with `trace` forced on): the report
/// JSON plus the exported Chrome-trace timeline.
pub fn traced_run(mut scenario: Scenario) -> (String, String) {
    scenario.trace = true;
    let mut simulator = Simulator::new(scenario).unwrap();
    let report = simulator.run();
    (report.to_json_string(), simulator.telemetry().chrome_trace())
}

/// The value of counter `name` in `snapshot`.
///
/// # Panics
///
/// Panics when the metric is missing or not a counter.
pub fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    let metric = snapshot
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing from snapshot"));
    match &metric.value {
        MetricValue::Counter(v) => *v,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

/// The sample count of histogram `name` in `snapshot`.
///
/// # Panics
///
/// Panics when the metric is missing or not a histogram.
pub fn histogram_count(snapshot: &Snapshot, name: &str) -> u64 {
    let metric = snapshot
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing from snapshot"));
    match &metric.value {
        MetricValue::Histogram(h) => h.count,
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}
