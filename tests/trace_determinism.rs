//! The tracing determinism pin: with `trace` forced on, catalog
//! scenarios spanning the queued/clustered/preempting regimes export
//! byte-identical Chrome-trace timelines (and reports) across reruns —
//! and the `traced-preemption-storm` acceptance scenario assembles, for
//! every admitted request, the full causal chain the exporter promises:
//! queue residency, per-shard probe fan-out, pipeline phases (or the
//! `commit.replay` of the winning probe's decision), and a computed
//! critical path on the root.

use kairos::sim::testkit::traced_run;
use kairos::sim::{Scenario, Simulator};
use kairos::telemetry::{summarize, SpanRecord, ROOT_PARENT};

#[test]
fn traced_runs_export_byte_identical_timelines_across_regimes() {
    // A queued scenario, a clustered one, a preempting one, and the
    // traced catalog entry itself (trace already on — forcing it again
    // is a no-op).
    for name in
        ["retry-storm", "sharded-arrival-storm", "migrate-vs-evict", "traced-preemption-storm"]
    {
        let scenario = Scenario::by_name(name).unwrap();
        let (report_a, trace_a) = traced_run(scenario.clone());
        let (report_b, trace_b) = traced_run(scenario);
        assert_eq!(report_a, report_b, "{name}: traced report must reproduce byte-for-byte");
        assert_eq!(trace_a, trace_b, "{name}: timeline must reproduce byte-for-byte");
        assert_ne!(trace_a, "[\n\n]\n", "{name}: the timeline must not be empty");
    }
}

/// The spans of one trace, in `(trace, id)` dump order.
fn traces(spans: &[SpanRecord]) -> Vec<&[SpanRecord]> {
    let mut groups: Vec<&[SpanRecord]> = Vec::new();
    let mut start = 0;
    for i in 1..=spans.len() {
        if i == spans.len() || spans[i].trace != spans[start].trace {
            groups.push(&spans[start..i]);
            start = i;
        }
    }
    groups
}

#[test]
fn every_admitted_storm_request_assembles_the_full_causal_chain() {
    let scenario = Scenario::by_name("traced-preemption-storm").unwrap();
    assert!(scenario.trace, "the catalog entry must enable tracing");
    let shards = scenario.cluster.as_ref().unwrap().shards;
    let mut simulator = Simulator::new(scenario).unwrap();
    let report = simulator.run();

    let spans = simulator.telemetry().trace_dump();
    let summaries = summarize(&spans);
    assert_eq!(summaries.len(), traces(&spans).len(), "every trace has exactly one root");

    // Front-door admissions by deciding step: a full pipeline run, or the
    // commit of the decision the winning shard's probe handed off.
    let (mut ran_phases, mut replayed) = (0u64, 0u64);
    for group in traces(&spans) {
        let root = group.iter().find(|s| s.parent == ROOT_PARENT).expect("root span");
        assert_eq!(root.name, "request");
        let origin = root.arg("origin").expect("origin annotation");
        let outcome = root.arg("outcome").expect("every trace reaches a terminal outcome");
        assert!(matches!(outcome, "admitted" | "rejected"), "unexpected outcome {outcome}");

        // Preempt-requeued victims re-enter inside one shard's queue, so
        // only front-door requests carry the probe fan-out.
        if origin != "request" {
            assert_eq!(origin, "preempt-requeue");
            continue;
        }
        let probes = group.iter().filter(|s| s.name.starts_with("probe.shard")).count();
        assert_eq!(probes, shards, "one probe span per shard, coordinator-synthesized");
        assert!(
            group.iter().any(|s| s.name == "queue"),
            "queued admission always records queue residency"
        );
        if outcome == "admitted" {
            let deciding = group
                .iter()
                .rev()
                .find(|s| s.name.starts_with("phase.") || s.name == "commit.replay")
                .expect("an admitted request passed through the core pipeline");
            assert_eq!(deciding.arg("outcome"), Some("ok"));
            match deciding.name.as_str() {
                "phase.validation" => ran_phases += 1,
                "commit.replay" => replayed += 1,
                other => panic!("a successful admission cannot be decided by {other}"),
            }
        }
    }
    assert!(ran_phases > 0, "the storm must admit front-door work through the pipeline");
    assert!(replayed > 0, "the storm must admit front-door work by probe replay");

    // Every summary computed a critical path, and the aggregate report
    // section agrees with the raw span set.
    assert!(summaries.iter().all(|s| !s.critical.is_empty()));
    let trace_report = report.trace.as_ref().expect("trace section");
    assert_eq!(trace_report.traces, summaries.len() as u64);
    assert_eq!(trace_report.spans, spans.len() as u64);
    assert!(!trace_report.by_class.is_empty());
    assert_eq!(
        trace_report.critical_paths.iter().map(|(_, n)| n).sum::<u64>(),
        trace_report.traces,
        "every trace lands in exactly one critical-path bucket"
    );
    // The storm exercises all three detour kinds.
    assert!(trace_report.critical_paths.iter().any(|(p, _)| p == "queue"));
    assert!(trace_report.critical_paths.iter().any(|(p, _)| p == "preempt"));
}
