//! The cache/cold equivalence pin for `kairos-opcache`: enabling the
//! operating-point mapping cache changes *which work runs*, never *what
//! is decided*. A cache-enabled run produces a byte-identical
//! `SimReport` (apart from the extra `cache` section) and an identical
//! final platform state, across randomly generated scenarios spanning
//! queued/unqueued, clustered/monolithic and preempting/plain regimes —
//! and warm runs are themselves byte-reproducible, cache section
//! included. The acceptance checks at the bottom pin the two cache
//! catalog scenarios: the warm storm must actually hit, and the
//! invalidation churn must actually invalidate. The last test pins the
//! one decision input no cache key covers, the cost weights.

use kairos::appgen::{generate_dataset, DatasetSpec};
use kairos::core::{CostPolicy, Kairos, KairosConfig};
use kairos::opcache::CacheConfig;
use kairos::platform::topology;
use kairos::sim::testkit::generated;
use kairos::sim::{Scenario, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equivalence: the warm run's report is byte-identical once its
    /// extra `cache` section is removed, and both runs leave the
    /// platform in exactly the same state.
    #[test]
    fn cache_never_changes_what_is_decided(
        seed in any::<u64>(),
        interarrival in 5u64..40,
        lifetime in 0u64..300,
        queued in any::<bool>(),
        clustered in any::<bool>(),
        preempt in any::<bool>(),
    ) {
        let cold = generated(seed, interarrival, lifetime, queued, clustered, preempt);
        let mut warm = cold.clone();
        warm.cache = true;

        let mut cold_sim = Simulator::new(cold).unwrap();
        let cold_report = cold_sim.run();
        let mut warm_sim = Simulator::new(warm).unwrap();
        let mut warm_report = warm_sim.run();

        prop_assert!(cold_report.cache.is_none());
        let stats = warm_report.cache.take().expect("warm runs embed a cache section");
        prop_assert!(stats.hits + stats.misses > 0, "every admission consults the cache");
        prop_assert_eq!(stats.misses, stats.insertions, "every miss stores its cold decision");

        prop_assert_eq!(
            cold_report.to_json_string(),
            warm_report.to_json_string(),
            "the cache must not change a single observable byte"
        );
        prop_assert_eq!(
            cold_sim.manager().platform(),
            warm_sim.manager().platform(),
            "the cache must not change the final platform state"
        );
    }

    /// Warm determinism: two cache-enabled runs of the same scenario are
    /// byte-identical, lifetime cache counters included.
    #[test]
    fn warm_runs_reproduce_byte_for_byte(
        seed in any::<u64>(),
        interarrival in 5u64..40,
        lifetime in 0u64..300,
        queued in any::<bool>(),
        clustered in any::<bool>(),
        preempt in any::<bool>(),
    ) {
        let mut scenario = generated(seed, interarrival, lifetime, queued, clustered, preempt);
        scenario.cache = true;
        let first = Simulator::new(scenario.clone()).unwrap().run();
        prop_assert!(first.cache.is_some());
        let second = Simulator::new(scenario).unwrap().run();
        prop_assert_eq!(
            first.to_json_string(),
            second.to_json_string(),
            "warm runs must reproduce byte-for-byte, cache section included"
        );
    }
}

/// Acceptance: both cache catalog scenarios reproduce byte-for-byte and
/// exercise the behaviour they were written for — the warm storm serves
/// a real share of its admissions from the cache, and the invalidation
/// churn's faults actually sweep cached points out.
#[test]
fn cache_catalog_scenarios_hit_and_invalidate() {
    for name in ["cache-warm-storm", "cache-invalidation-churn"] {
        let scenario = Scenario::by_name(name).unwrap();
        assert!(scenario.cache, "{name} must enable the cache");
        let first = Simulator::new(scenario.clone()).unwrap().run();
        let second = Simulator::new(scenario).unwrap().run();
        assert_eq!(
            first.to_json_string(),
            second.to_json_string(),
            "{name} must reproduce byte-for-byte"
        );
        let cache = first.cache.expect("cache section");
        assert!(cache.hits > 0, "{name} must serve admissions from the cache");
        assert_eq!(cache.misses, cache.insertions, "{name}: every miss stores its decision");
    }

    let churn =
        Simulator::new(Scenario::by_name("cache-invalidation-churn").unwrap()).unwrap().run();
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
                let layout = kairos.admit(&app).map(|r| r.layout).map_err(|f| f.error);
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
