//! The observer-effect pin for `kairos-telemetry`: turning telemetry or
//! causal tracing on must never perturb the simulation. Both are rows of
//! the observer-effect harness (`tests/observers/mod.rs`): outside its
//! own section a lit run is byte-identical to a dark one, with an
//! identical final platform state, across generated queued, clustered,
//! preempting, cached and gatewayed regimes — and with telemetry forced
//! on, the whole catalog stays transparent and byte-reproducible. The
//! acceptance checks at the bottom pin that every instrumented layer
//! (pipeline phases, queue transitions, migration two-phase, probe
//! fan-out) is visible in both the
//! `telemetry-probe-latency` report snapshot and the Prometheus text
//! exposition, and that the gateway's instruments agree with its section.

mod observers;

use kairos::platform::PowerModel;
use kairos::sim::{Scenario, Simulator};
use observers::{counter, gauge, histogram_count};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observer effect: the lit run's report is byte-identical once its
    /// extra `telemetry` section is removed, and both runs leave the
    /// platform in exactly the same state.
    #[test]
    fn telemetry_never_perturbs_the_simulation(regime in observers::regimes()) {
        observers::assert_transparent_in("telemetry", regime);
    }

    /// Observer effect for causal tracing: flipping `trace` on mints
    /// roots, propagates contexts and records spans everywhere, yet the
    /// report is byte-identical once its extra `trace` section is
    /// removed, and the final platform state matches exactly.
    #[test]
    fn tracing_never_perturbs_the_simulation(regime in observers::regimes()) {
        observers::assert_transparent_in("trace", regime);
    }
}

/// Under the deterministic zero clock, telemetry-enabled runs of every
/// catalog scenario — including their embedded metric snapshots — stay
/// byte-reproducible, and forcing telemetry on changes nothing outside
/// the snapshot.
#[test]
fn whole_catalog_is_byte_reproducible_with_telemetry_forced_on() {
    observers::assert_transparent_across_the_catalog("telemetry");
    observers::assert_catalogued_with_it_reproduce("telemetry");
}

/// Acceptance: the `telemetry-probe-latency` catalog scenario makes every
/// instrumented layer visible in its report snapshot *and* in the text
/// exposition — probe fan-out with per-shard latency histograms, pipeline
/// phases, admission-queue transitions and the migration two-phase. The
/// engine's own totals live only in the report's sections.
#[test]
fn probe_latency_scenario_exposes_every_layer() {
    let scenario = Scenario::by_name("telemetry-probe-latency").unwrap();
    assert!(scenario.telemetry, "the catalog entry must enable telemetry");
    let mut simulator = Simulator::new(scenario).unwrap();
    let report = simulator.run();
    let snapshot = report.telemetry.as_ref().expect("telemetry section");

    // Probe fan-out: three shards, every probe wave timed per shard.
    let probes = counter(snapshot, "kairos.cluster.probes");
    assert!(probes > 0, "admissions must fan out as shard probes");
    assert!(counter(snapshot, "kairos.cluster.probe.waves") > 0);
    let per_shard: u64 = (0..3)
        .map(|i| histogram_count(snapshot, &format!("kairos.cluster.shard{i}.probe.ns")))
        .sum();
    assert_eq!(per_shard, probes, "every probe lands in exactly one shard histogram");
    assert!(histogram_count(snapshot, "kairos.cluster.placement.score.fragmentation_e6") > 0);

    // Pipeline phases: each admitted app passes binding → mapping →
    // routing → validation, so the phase histograms record one sample
    // per attempt reaching the phase.
    let bindings = histogram_count(snapshot, "kairos.core.phase.binding.ns");
    assert!(bindings > 0, "the binding phase must be timed");
    assert!(bindings >= histogram_count(snapshot, "kairos.core.phase.validation.ns"));

    // Queue transitions: the surge overflows the per-class capacities.
    assert!(counter(snapshot, "kairos.admitd.enqueued") > 0);
    assert!(
        counter(snapshot, "kairos.admitd.admitted") >= report.totals.admissions,
        "the queue admits every first-class admission, plus internal re-submissions"
    );
    assert!(histogram_count(snapshot, "kairos.admitd.wait.ticks") > 0);

    // Migration two-phase: the critical surge preempts via migration.
    assert!(counter(snapshot, "kairos.core.migrate.attempts") > 0);
    assert_eq!(
        counter(snapshot, "kairos.core.migrate.attempts"),
        counter(snapshot, "kairos.core.migrate.commits")
            + counter(snapshot, "kairos.core.migrate.rollbacks"),
        "every migration attempt ends in exactly one commit or rollback"
    );
    assert!(
        counter(snapshot, "kairos.core.migrate.commits")
            <= counter(snapshot, "kairos.core.migrate.claims"),
        "two-phase: an alternate placement is claimed before any commit"
    );

    // The same metrics appear in the Prometheus text exposition under
    // sanitised names, and in the report's JSON under raw names.
    let text = simulator.telemetry().render_text();
    for name in [
        "kairos_cluster_probes",
        "kairos_cluster_shard0_probe_ns_count",
        "kairos_core_phase_binding_ns_count",
        "kairos_core_probes",
        "kairos_admitd_enqueued",
        "kairos_core_migrate_attempts",
    ] {
        assert!(text.contains(name), "text exposition must expose {name}");
    }
    let json = report.to_json_string();
    for name in [
        "\"kairos.cluster.shard0.probe.ns\"",
        "\"kairos.core.probes\"",
        "\"kairos.admitd.enqueued\"",
        "\"kairos.core.migrate.attempts\"",
    ] {
        assert!(json.contains(name), "report JSON must expose {name}");
    }
}

/// The gateway's serving instruments ride the same hub: a lit run of
/// `gateway-arrival-storm` exposes the `kairos.gateway.*` in-flight and
/// per-lane depth gauges and the completion-latency histogram, whose
/// count agrees with the report's `gateway` section — and turning the
/// registry on does not change a single other byte of the report.
#[test]
fn gateway_instruments_are_visible_and_observer_safe() {
    let dark = Scenario::by_name("gateway-arrival-storm").unwrap();
    let mut lit = dark.clone();
    lit.telemetry = true;

    let dark_report = Simulator::new(dark).unwrap().run();
    let mut lit_sim = Simulator::new(lit).unwrap();
    let mut lit_report = lit_sim.run();

    let snapshot = lit_report.telemetry.take().expect("telemetry section");
    let counters = lit_report.gateway.expect("gateway section").counters;
    assert_eq!(
        histogram_count(&snapshot, "kairos.gateway.completion.ticks"),
        counters.completions,
        "every completion must land in the latency histogram"
    );
    // One depth gauge per cluster shard lane, and the executor's
    // in-flight gauge, all drained to zero by the shutdown flush.
    for name in [
        "kairos.gateway.inflight",
        "kairos.gateway.lane0.depth",
        "kairos.gateway.lane1.depth",
        "kairos.gateway.lane2.depth",
    ] {
        assert_eq!(gauge(&snapshot, name), 0, "{name} must drain to zero");
    }

    let text = lit_sim.telemetry().render_text();
    for name in ["kairos_gateway_inflight", "kairos_gateway_completion_ticks_count"] {
        assert!(text.contains(name), "text exposition must expose {name}");
    }

    assert_eq!(
        dark_report.to_json_string(),
        lit_report.to_json_string(),
        "gateway telemetry must not change a single observable byte"
    );
}

/// The instrument catalogue cannot drift from the code, either way: every
/// metric name a lit run of the catalog registers — each scenario with
/// telemetry on, and metered against the default power model where it
/// sets no model of its own — appears in `docs/OBSERVABILITY.md`, in full
/// or without its `kairos.<layer>.` prefix; and every row of the page's
/// table names an instrument that run registered (a `….*` row, one under
/// its prefix). Indexed names are compared in their documented form
/// (`shard{i}`, `lane{i}`, `kairos.core.phase.{name}.ns`).
#[test]
fn every_registered_instrument_is_documented() {
    let doc =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OBSERVABILITY.md"))
            .expect("docs/OBSERVABILITY.md is readable");
    let mut names = std::collections::BTreeSet::new();
    for mut scenario in Scenario::catalog() {
        scenario.telemetry = true;
        scenario.power.get_or_insert_with(PowerModel::default);
        let mut simulator = Simulator::new(scenario).unwrap();
        simulator.run();
        names.extend(simulator.telemetry().snapshot().metrics.into_iter().map(|m| m.name));
    }
    assert!(names.len() >= 60, "only {} instruments registered: is the hub dark?", names.len());
    let documented: Vec<String> = names.iter().map(|name| documented_form(name)).collect();
    let undocumented: Vec<&String> = documented
        .iter()
        .filter(|name| {
            let short = name.strip_prefix("kairos.").and_then(|rest| rest.split_once('.'));
            !doc.contains(name.as_str()) && !short.is_some_and(|(_, short)| doc.contains(short))
        })
        .collect();
    assert!(undocumented.is_empty(), "missing from docs/OBSERVABILITY.md: {undocumented:?}");

    let rows: Vec<&str> =
        doc.lines().filter_map(|line| line.strip_prefix("| `kairos.")?.split('`').next()).collect();
    assert!(rows.len() >= 8, "only {} catalogue rows found: has the table moved?", rows.len());
    let unregistered: Vec<String> = rows
        .into_iter()
        .map(|row| format!("kairos.{row}"))
        .filter(|row| {
            let registered = |name: &String| match row.strip_suffix('*') {
                Some(prefix) => name.starts_with(prefix),
                None => name == row,
            };
            !documented.iter().any(registered)
        })
        .collect();
    assert!(
        unregistered.is_empty(),
        "rows of docs/OBSERVABILITY.md no lit catalogue run registers: {unregistered:?}"
    );
}

/// `name` with shard and lane indices and pipeline phase names replaced
/// by the placeholders the catalogue writes.
fn documented_form(name: &str) -> String {
    const PHASES: [&str; 4] = ["binding", "mapping", "routing", "validation"];
    let segments: Vec<String> = name
        .split('.')
        .map(|segment| {
            for prefix in ["shard", "lane"] {
                if let Some(index) = segment.strip_prefix(prefix) {
                    if !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()) {
                        return format!("{prefix}{{i}}");
                    }
                }
            }
            segment.to_owned()
        })
        .collect();
    match segments.as_slice() {
        [kairos, core, phase, name, ns]
            if [kairos, core, phase, ns] == ["kairos", "core", "phase", "ns"]
                && PHASES.contains(&name.as_str()) =>
        {
            "kairos.core.phase.{name}.ns".to_owned()
        }
        _ => segments.join("."),
    }
}
