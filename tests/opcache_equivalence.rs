//! The operating-point cache (the keyed tier of the manager's decision
//! store) changes *which work runs*, never *what is decided*. The cache
//! is a row of the observer-effect harness (`tests/observers/mod.rs`):
//! outside its `cache` section a warm run is byte-identical to a cold
//! one, with an identical final platform state, across generated
//! queued, clustered, preempting and gatewayed regimes and across the
//! whole catalog, and warm runs reproduce byte for byte, cache section
//! included. The checks after those pin what the row cannot see. The
//! two cache catalog scenarios do what they were built to show: the
//! warm storm actually hits, and the invalidation churn actually
//! invalidates. The next test pins the one decision input no cache key
//! covers, the cost weights.
//!
//! Scenario arrivals are drawn per request, so no shape ever comes
//! twice and the only hits those runs see are a winning shard replaying
//! its own probe. The recurring regime at the bottom is the pin for what
//! the cache is for: a handful of named applications cycling through
//! FIFO lifetimes, where occupancies come back under other tenants and
//! decisions are replayed *across* requests.

mod observers;

use std::collections::VecDeque;

use kairos::admitd::{
    AdmitPolicy, Admitd, CapacityEvent, Command, Event, PriorityClass, Request, ResourceService,
    ServiceBuilder,
};
use kairos::app::Application;
use kairos::appgen::{generate_dataset, DatasetSpec};
use kairos::cluster::{ClusterBuilder, ClusterService};
use kairos::core::{CacheConfig, CacheStats, CostPolicy, Kairos, KairosConfig};
use kairos::platform::{topology, AppId, PlatformCheckpoint};
use kairos::sim::{Scenario, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equivalence: the warm run's report is byte-identical once its
    /// extra `cache` section is removed, and both runs leave the
    /// platform in exactly the same state.
    #[test]
    fn cache_never_changes_what_is_decided(regime in observers::regimes()) {
        observers::assert_transparent_in("cache", regime);
    }

    /// Warm determinism: two cache-enabled runs of the same scenario are
    /// byte-identical, lifetime cache counters included.
    #[test]
    fn warm_runs_reproduce_byte_for_byte(regime in observers::regimes()) {
        observers::assert_reproducible_in("cache", regime);
    }
}

/// With the cache forced on, every cold catalog scenario changes nothing
/// outside its `cache` section, and every warm run — forced or
/// catalogued — reproduces byte for byte.
#[test]
fn whole_catalog_is_byte_reproducible_with_cache_forced_on() {
    observers::assert_transparent_across_the_catalog("cache");
    observers::assert_catalogued_with_it_reproduce("cache");
}

/// Acceptance: both cache catalog scenarios exercise the behaviour they
/// were written for — the warm storm serves a real share of its
/// admissions from the cache, and the invalidation churn's faults
/// actually sweep cached points out.
#[test]
fn cache_catalog_scenarios_hit_and_invalidate() {
    let [_, churn] = ["cache-warm-storm", "cache-invalidation-churn"].map(|name| {
        let scenario = Scenario::by_name(name).unwrap();
        assert!(scenario.cache, "{name} must enable the cache");
        let report = Simulator::new(scenario).unwrap().run();
        let cache = report.cache.expect("cache section");
        assert!(cache.hits > 0, "{name} must serve admissions from the cache");
        assert_eq!(cache.misses, cache.insertions, "{name}: every miss stores its decision");
        report
    });
    let cache = churn.cache.expect("cache section");
    assert!(churn.totals.evictions > 0, "the churn's faults must evict running work");
    assert!(cache.invalidations > 0, "each fault must sweep the points using its element");
    assert_eq!(churn.totals.faults_injected, 4);
    assert_eq!(churn.totals.repairs, 4);
}

/// Regression: the `(shape, state)` key ignores the cost weights, so a
/// point decided under the old weights must not survive `set_weights`.
/// Re-admitting each application onto the same idle platform after a
/// weight change must decide what an uncached manager decides.
#[test]
fn a_weight_change_voids_every_cached_decision() {
    let cached = KairosConfig { cache: Some(CacheConfig::default()), ..KairosConfig::default() };
    let (mut compared, mut differing, mut stale_hits) = (0, 0, 0);
    for (d, spec) in DatasetSpec::all().into_iter().enumerate() {
        for app in generate_dataset(spec, 40, 0x5e7 + d as u64) {
            let [cold, warm] = [KairosConfig::default(), cached].map(|config| {
                let mut kairos = Kairos::new(topology::crisp(), config);
                if let Ok(report) = kairos.admit(&app) {
                    kairos.release(report.app_id);
                }
                kairos.set_weights(CostPolicy::Communication.weights());
                let layout = kairos.admit(&app).map(|r| r.layout).map_err(|f| *f.error);
                (layout, kairos.cache_stats())
            });
            compared += 1;
            differing += usize::from(cold.0 != warm.0);
            stale_hits += warm.1.expect("the warm manager has a cache").hits;
        }
    }
    assert_eq!(compared, 240);
    assert_eq!(differing, 0, "{differing} of {compared} layouts differ after set_weights");
    assert_eq!(stale_hits, 0, "nothing decided under the old weights may be replayed");
}

/// The recurring tenants: the first application of each Table-I dataset,
/// under the names the generator gave them.
fn recurring_apps() -> Vec<Application> {
    DatasetSpec::all().into_iter().flat_map(|spec| generate_dataset(spec, 1, 0x2010)).collect()
}

/// How many arrivals one recurring run submits.
const RECURRING_ARRIVALS: u64 = 360;

/// Cycles [`recurring_apps`] through `service`, every admitted
/// application leaving when the fifth after it has been admitted, with a
/// tick every eighth arrival and a shutdown at the end. Returns every
/// event in order.
fn drive_recurring(service: &mut dyn ResourceService) -> Vec<Event> {
    let apps = recurring_apps();
    let mut events: Vec<Event> = Vec::new();
    let mut live: VecDeque<AppId> = VecDeque::new();
    for at in 0..RECURRING_ARRIVALS {
        let app = apps[at as usize % apps.len()].clone();
        let class = PriorityClass::ALL[at as usize % 4];
        service.submit(Request::admit(at, app, class));
        if live.len() > 4 {
            let oldest = live.pop_front().unwrap();
            service.submit(Request::new(at, Command::Release { app: oldest }));
        }
        let mut fresh = service.take_events();
        if at % 8 == 7 {
            fresh.extend(service.pump(CapacityEvent::Tick { now: at }));
        }
        live.extend(fresh.iter().filter_map(|e| match e {
            Event::Admitted { report, .. } => Some(report.app_id),
            _ => None,
        }));
        events.extend(fresh);
    }
    events.extend(service.pump(CapacityEvent::Shutdown { now: RECURRING_ARRIVALS }));
    events
}

/// One recurring run cached against one uncached through services built
/// by `build`: the same events, the same final platform bytes (as
/// `platforms` reads them). Returns the cached run's counters.
fn recurring_differential<S: ResourceService>(
    regime: &str,
    build: impl Fn(KairosConfig) -> S,
    platforms: impl Fn(&S) -> Vec<PlatformCheckpoint>,
) -> CacheStats {
    let plain = KairosConfig { deterministic: true, ..KairosConfig::default() };
    let mut cold = build(plain);
    let mut warm = build(KairosConfig { cache: Some(CacheConfig::default()), ..plain });
    let cold_events = drive_recurring(&mut cold);
    let warm_events = drive_recurring(&mut warm);
    assert_eq!(cold_events.len(), warm_events.len(), "{regime}");
    for (i, (c, w)) in cold_events.iter().zip(&warm_events).enumerate() {
        assert_eq!(c, w, "{regime}: event {i} differs");
    }
    assert_eq!(platforms(&cold), platforms(&warm), "{regime}: different final platform bytes");
    let admitted = cold_events.iter().filter(|e| matches!(e, Event::Admitted { .. })).count();
    let rejected = cold_events.iter().filter(|e| matches!(e, Event::Rejected { .. })).count();
    assert!(admitted > 100 && rejected > 10, "{regime}: {admitted} admitted, {rejected} rejected");
    assert!(cold.cache_stats().is_none());
    warm.cache_stats().expect("the warm run has a cache")
}

/// The pin that sees what it pins: when shapes recur, the cache must
/// serve decisions *across* requests — and still change nothing. A
/// service does one lookup per admission attempt, so any hit there is a
/// decision of an earlier request; a cluster does one per shard probe
/// plus one for the commit, and the commit replaying its own probe
/// accounts for at most one hit per arrival — more hits than arrivals
/// cannot come from there.
#[test]
fn recurring_shapes_replay_across_requests_and_change_nothing() {
    let one = |s: &Admitd| vec![s.kairos().platform().checkpoint()];
    let direct = recurring_differential(
        "direct",
        |config| ServiceBuilder::new(topology::crisp()).config(config).build().unwrap(),
        one,
    );
    assert!(direct.hits * 2 > RECURRING_ARRIVALS, "direct: {direct:?}");

    let queue = AdmitPolicy { max_wait: Some(40), ..AdmitPolicy::default() };
    let queued = recurring_differential(
        "queued",
        |config| {
            ServiceBuilder::new(topology::crisp()).config(config).admission(queue).build().unwrap()
        },
        one,
    );
    assert!(queued.hits * 2 > RECURRING_ARRIVALS, "queued: {queued:?}");

    let clustered = recurring_differential(
        "2-shard cluster",
        |config| ClusterBuilder::new(topology::crisp(), 2).config(config).build().unwrap(),
        |c: &ClusterService| {
            (0..c.shard_count()).map(|s| c.shard(s).kairos().platform().checkpoint()).collect()
        },
    );
    assert!(clustered.hits > RECURRING_ARRIVALS, "2-shard cluster: {clustered:?}");
}
