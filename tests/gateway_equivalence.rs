//! The gateway transparency pin for `kairos-gateway`: running a scenario
//! behind the async serving front-end must never change what the service
//! decides. A default-knob gateway is a row of the observer-effect
//! harness (`tests/observers/mod.rs`): outside its `gateway` section a
//! gatewayed run is byte-identical to a direct one, with an identical
//! final platform state, across generated queued, clustered, preempting
//! and cached regimes and across the whole catalog. The two gateway
//! catalog scenarios are byte-reproducible run to run and do what they
//! were built to show: `gateway-arrival-storm` matches its ungatewayed
//! twin exactly, traced or not, and `gateway-backpressure`'s bounded
//! lanes actually park requests under overload, each parked request's
//! trace showing its wait.

mod observers;

use kairos::sim::{Scenario, Simulator};
use kairos::telemetry::{summarize, ROOT_PARENT};
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

/// Traced, the gateway mints each admission's root where the unwrapped
/// service would, so in lockstep the storm's trace section and its
/// Chrome-trace export are the unwrapped twin's, byte for byte.
#[test]
fn traced_arrival_storm_traces_what_its_ungatewayed_twin_traces() {
    let wrapped = Scenario { trace: true, ..Scenario::by_name("gateway-arrival-storm").unwrap() };
    let direct = Scenario { gateway: None, ..wrapped.clone() };
    let traced = |scenario: Scenario| {
        let mut simulator = Simulator::new(scenario).unwrap();
        let trace = simulator.run().trace.expect("trace section");
        (trace, simulator.telemetry().chrome_trace())
    };
    let (direct, wrapped) = (traced(direct), traced(wrapped));
    assert!(direct.0 == wrapped.0, "the gateway moved the trace section");
    assert!(direct.1 == wrapped.1, "the gateway moved the trace export");
}

/// A request that parks on a full lane shows its wait in its trace:
/// `gateway-backpressure`'s ticket 8 arrives at tick 93, parks behind
/// four waiters and is forwarded at tick 922, when ticket 1 times out.
/// The gateway mints roots in acceptance order and the first nine
/// tickets are all admissions, so ticket 8's trace is trace 8.
#[test]
fn a_parked_request_traces_its_wait_in_the_gateway() {
    let scenario = Scenario { trace: true, ..Scenario::by_name("gateway-backpressure").unwrap() };
    let mut simulator = Simulator::new(scenario).unwrap();
    simulator.run();
    let spans = simulator.telemetry().trace_dump();
    let trace: Vec<_> = spans.iter().filter(|span| span.trace == 8).collect();
    let root = trace.iter().find(|span| span.parent == ROOT_PARENT).expect("ticket 8's root");
    assert_eq!(root.start, 93, "ticket 8 arrives at tick 93");
    let parks: Vec<_> = trace.iter().filter(|span| span.name == "gateway.park").collect();
    assert_eq!(parks.len(), 1, "one park span per parked request: {trace:#?}");
    assert_eq!((parks[0].parent, parks[0].start, parks[0].end), (root.id, 93, 922));

    // The summary counts the wait: ticket 8's root closes at its arrival
    // tick, so only the park span carries its 829 ticks. Ticket 9 (parked
    // 98–922, then timed out) has a queue span that already covers its
    // park, and that longer wait stays its critical path.
    let summaries = summarize(&spans);
    let summary = |trace: u64| summaries.iter().find(|s| s.trace == trace).expect("a summary");
    let (eight, nine) = (summary(8), summary(9));
    assert_eq!((eight.latency, eight.critical.as_str()), (829, "gateway.park"));
    assert_eq!(eight.critical_ticks, 829);
    assert_eq!((nine.latency, nine.critical.as_str()), (1_724, "queue"));
}
