//! The gateway transparency pin for `kairos-gateway`: running a scenario
//! behind the async serving front-end must never change what the service
//! decides. A default-knob gateway is a row of the observer-effect
//! harness (`tests/observers/mod.rs`): outside its `gateway` section a
//! gatewayed run is byte-identical to a direct one, with an identical
//! final platform state, across generated queued, clustered, preempting
//! and cached regimes and across the whole catalog. The two gateway
//! catalog scenarios are byte-reproducible run to run and do what they
//! were built to show: `gateway-arrival-storm` matches its ungatewayed
//! twin exactly, and `gateway-backpressure`'s bounded lanes actually
//! park requests under overload.

mod observers;

use kairos::sim::{Scenario, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transparency: the gatewayed run's report is byte-identical once
    /// its extra `gateway` section is removed, every accepted request
    /// reaches its terminal event, and both runs leave the platform in
    /// exactly the same state.
    #[test]
    fn default_gateway_never_perturbs_the_simulation(regime in observers::regimes()) {
        observers::assert_transparent_in("gateway", regime);
    }
}

/// Behind a default-knob gateway, every direct catalog scenario changes
/// nothing outside its `gateway` section and reproduces byte for byte.
#[test]
fn whole_catalog_is_byte_reproducible_behind_a_default_gateway() {
    observers::assert_transparent_across_the_catalog("gateway");
}

/// The gateway catalog scenarios, default-knob or not, reproduce byte
/// for byte, and every accepted request reaches its terminal event.
#[test]
fn gateway_scenarios_are_byte_reproducible() {
    observers::assert_catalogued_with_it_reproduce("gateway");
}

#[test]
fn arrival_storm_matches_its_ungatewayed_twin() {
    let wrapped = Scenario::by_name("gateway-arrival-storm").unwrap();
    let mut direct = wrapped.clone();
    direct.gateway = None;

    let direct_report = Simulator::new(direct).unwrap().run();
    let mut wrapped_report = Simulator::new(wrapped).unwrap().run();

    let gateway = wrapped_report.gateway.take().expect("gateway section");
    assert_eq!(gateway.lanes, 3, "one lane per cluster shard");
    let counters = gateway.counters;
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
    let gateway = report.gateway.expect("gateway section");
    assert_eq!(gateway.lanes, 1, "the monolithic service gets a single lane");
    let counters = gateway.counters;
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
