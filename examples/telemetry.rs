//! Guided tour of the `kairos-telemetry` observability layer: run the
//! sharded `telemetry-probe-latency` storm with metrics on, read the
//! embedded snapshot, render the Prometheus text exposition, refuse a
//! hopeless admission under observation, and read from the registry which
//! phase refused it.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! Output is deterministic (zero telemetry clock, seeded scenario) — run
//! it twice and diff. See `docs/OBSERVABILITY.md` for the full metric
//! catalogue and the determinism rules this example demonstrates.

use kairos::admitd::{Event, PriorityClass, Request, ResourceService};
use kairos::appgen::{AppGenerator, GeneratorConfig};
use kairos::cluster::{ClusterBuilder, Placement};
use kairos::platform::topology;
use kairos::sim::{Scenario, Simulator};
use kairos::telemetry::{MetricValue, Snapshot, Telemetry, TelemetryConfig};

fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    match snapshot.metrics.iter().find(|m| m.name == name).map(|m| &m.value) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

fn main() {
    // 1. A sharded storm with telemetry on: the catalog scenario runs a
    // low-priority fill, a critical surge that preempts via migration,
    // and a drain — over three region shards — while every layer records
    // into one shared registry. The scenario enables telemetry itself.
    let scenario = Scenario::by_name("telemetry-probe-latency").expect("catalog entry");
    println!("-- sharded storm: `{}` with telemetry enabled --", scenario.name);
    let mut simulator = Simulator::new(scenario).expect("valid scenario");
    let report = simulator.run();
    let snapshot = report.telemetry.as_ref().expect("telemetry-enabled report");
    println!("   {} metrics registered across the stack", snapshot.metrics.len());
    for name in [
        "kairos.admitd.admitted",
        "kairos.admitd.enqueued",
        "kairos.cluster.probe.waves",
        "kairos.cluster.probes",
        "kairos.core.migrate.attempts",
        "kairos.core.migrate.commits",
    ] {
        println!("   {name} = {}", counter(snapshot, name));
    }

    // 2. Per-shard probe latency: each admission fans out as one what-if
    // probe per shard (the scenario places least-loaded, which compares
    // every shard), timed into that shard's histogram. Under the
    // deterministic zero clock every duration is 0 ns, so the counts are
    // the signal — and they are byte-reproducible run to run.
    println!("-- probe fan-out, per shard --");
    for metric in &snapshot.metrics {
        if let MetricValue::Histogram(h) = &metric.value {
            if metric.name.contains("probe.ns") {
                println!("   {}: {} probes timed", metric.name, h.count);
            }
        }
    }

    // 3. The same snapshot renders in the Prometheus text exposition
    // format (names sanitised, `_bucket`/`_sum`/`_count` series per
    // histogram). Print the migration two-phase counters only; the full
    // text is what a scrape endpoint would serve.
    println!("-- text exposition (counters only) --");
    for line in simulator.telemetry().render_text().lines() {
        if line.starts_with("kairos_core_migrate_") && !line.ends_with(" 0") {
            println!("   {line}");
        }
    }

    // 4. Refusal, observed: a fresh two-shard cluster with its own hub
    // admits one app, then probes one far too large to place. Every
    // shard's probe refuses it and rolls back; nothing is written.
    println!("-- a hopeless admission rolls back under observation --");
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let mut cluster = ClusterBuilder::new(topology::crisp(), 2)
        .deterministic(true)
        .placement(Placement::LeastLoaded)
        .telemetry(telemetry.clone())
        .build()
        .expect("two shards fit CRISP");
    let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
    let ok = generator.generate("fits");
    cluster.submit(Request::admit(0, ok, PriorityClass::Normal));
    let config = GeneratorConfig { internal_tasks: 160..=160, ..GeneratorConfig::default() };
    let mut generator = AppGenerator::new(config, 8);
    let hopeless = generator.generate("hopeless");
    cluster.submit(Request::admit(1, hopeless, PriorityClass::Normal));
    for event in cluster.take_events() {
        match event {
            Event::Admitted { ticket, report, .. } => {
                println!("   {ticket} admitted as {}", report.app_id);
            }
            Event::Rejected { ticket, cause, .. } => println!("   {ticket} rejected: {cause:?}"),
            other => println!("   {other:?}"),
        }
    }

    // 5. Rejected by which phase? The two-shard hub's registry answers:
    // every refusal counts once in `kairos.core.admit.fail` and once
    // under its cause in `kairos.core.reject.*`, and
    // `kairos.cluster.probes` counts the probes the fan-out ran.
    println!("-- the refusal, read from the registry --");
    let snapshot = telemetry.snapshot();
    println!("   kairos.core.admit.fail = {}", counter(&snapshot, "kairos.core.admit.fail"));
    for metric in &snapshot.metrics {
        if let MetricValue::Counter(v) = metric.value {
            if metric.name.starts_with("kairos.core.reject.") && v > 0 {
                println!("   {} = {v}", metric.name);
            }
        }
    }
    println!("   kairos.cluster.probes = {}", counter(&snapshot, "kairos.cluster.probes"));
    println!("final: every byte of this output reproducible");
}
