//! The gateway transparency pin for `kairos-gateway`: running a scenario
//! behind the async serving front-end must never change what the service
//! decides. With default knobs a gatewayed run produces a byte-identical
//! `SimReport` (apart from the extra `gateway` section) and an identical
//! final platform state, across randomly generated scenarios spanning
//! queued/unqueued, clustered/monolithic, preempting/plain and
//! cached/uncached regimes. The two gateway catalog scenarios are
//! byte-reproducible run to run, `gateway-arrival-storm` matches its
//! ungatewayed twin exactly, and `gateway-backpressure` demonstrates the
//! bounded lanes actually parking requests under overload.

use kairos::sim::testkit::{gatewayed, generated};
use kairos::sim::{Scenario, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transparency: the gatewayed run's report is byte-identical once
    /// its extra `gateway` section is removed, and both runs leave the
    /// platform in exactly the same state.
    #[test]
    fn default_gateway_never_perturbs_the_simulation(
        seed in any::<u64>(),
        interarrival in 5u64..40,
        lifetime in 0u64..300,
        queued in any::<bool>(),
        clustered in any::<bool>(),
        preempt in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let mut direct = generated(seed, interarrival, lifetime, queued, clustered, preempt);
        direct.cache = cached;
        let wrapped = gatewayed(direct.clone());

        let mut direct_sim = Simulator::new(direct).unwrap();
        let direct_report = direct_sim.run();
        let mut wrapped_sim = Simulator::new(wrapped).unwrap();
        let mut wrapped_report = wrapped_sim.run();

        prop_assert!(direct_report.gateway.is_none());
        let counters = wrapped_report.gateway.take().expect("gateway section");
        prop_assert_eq!(
            counters.submitted, counters.completions,
            "every accepted request must reach its terminal event"
        );
        prop_assert_eq!(counters.forwarded, counters.submitted);
        prop_assert_eq!(counters.parked, 0, "default lanes must never fill in lockstep");

        prop_assert_eq!(
            direct_report.to_json_string(),
            wrapped_report.to_json_string(),
            "the gateway must not change a single observable byte"
        );
        prop_assert_eq!(
            direct_sim.manager().platform(),
            wrapped_sim.manager().platform(),
            "the gateway must not change the final platform state"
        );
    }
}

#[test]
fn gateway_scenarios_are_byte_reproducible() {
    for name in ["gateway-arrival-storm", "gateway-backpressure"] {
        let scenario = Scenario::by_name(name).unwrap();
        let first = Simulator::new(scenario.clone()).unwrap().run().to_json_string();
        let second = Simulator::new(scenario).unwrap().run().to_json_string();
        assert_eq!(first, second, "{name} must reproduce byte-for-byte");
    }
}

#[test]
fn arrival_storm_matches_its_ungatewayed_twin() {
    let wrapped = Scenario::by_name("gateway-arrival-storm").unwrap();
    let mut direct = wrapped.clone();
    direct.gateway = None;

    let direct_report = Simulator::new(direct).unwrap().run();
    let mut wrapped_report = Simulator::new(wrapped).unwrap().run();

    let counters = wrapped_report.gateway.take().expect("gateway section");
    assert_eq!(counters.lanes, 3, "one lane per cluster shard");
    assert!(counters.submitted > 0, "the storm must push real traffic through the lanes");
    assert_eq!(counters.submitted, counters.completions);
    assert_eq!(counters.singles, counters.forwarded, "lockstep admits forward one by one");
    assert_eq!(counters.coalesced, 0, "the gateway never merges admissions");

    assert_eq!(
        direct_report.to_json_string(),
        wrapped_report.to_json_string(),
        "gateway-arrival-storm must be byte-identical to the unwrapped run"
    );
}

#[test]
fn backpressure_scenario_parks_requests_and_still_drains() {
    let report = Simulator::new(Scenario::by_name("gateway-backpressure").unwrap()).unwrap().run();
    let counters = report.gateway.expect("gateway section");
    assert_eq!(counters.lanes, 1, "the monolithic service gets a single lane");
    assert!(counters.parked > 0, "the four-slot lane must actually hold requests back");
    assert_eq!(
        counters.submitted, counters.completions,
        "the shutdown drain must flush every parked request"
    );
    assert!(counters.peak_inflight > 4, "parked requests stay in flight beyond the lane bound");
    assert_eq!(
        report.totals.arrivals,
        report.totals.admissions + report.totals.rejections,
        "every arrival reaches exactly one terminal outcome"
    );
}
