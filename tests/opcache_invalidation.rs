//! The invalidation fault matrix for the operating-point cache: every platform
//! mutation that can strand a cached operating point — element faults,
//! repairs, live migrations, checkpoint rewinds — against points that do
//! and do not overlap the touched elements. Overlapping points are swept
//! (and the `kairos.opcache.invalidations` instrument says so);
//! non-overlapping points survive; post-fault admissions miss, fall back
//! to the cold pipeline, avoid the dead element and repopulate the cache
//! against the new platform state.

use kairos::app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos::core::{CacheConfig, Kairos, KairosConfig};
use kairos::platform::{topology, ElementId, ElementKind, ResourceVector};
use kairos::telemetry::{Telemetry, TelemetryConfig};

fn dsp(cpu: u64) -> Implementation {
    Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 16, 0, 0), 50, 1)
}

fn chain(name: &str, n: usize, cpu: u64, bw: u64) -> Application {
    let mut b = ApplicationBuilder::new(name);
    let mut prev = None;
    for i in 0..n {
        let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![dsp(cpu)]);
        if let Some(p) = prev {
            b.add_channel(p, t, bw, 1);
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

/// A cache-enabled deterministic manager on the CRISP platform, with a
/// live telemetry hub so the `kairos.opcache.*` instruments record.
fn cached_kairos() -> (Kairos, Telemetry) {
    let config = KairosConfig {
        cache: Some(CacheConfig::default()),
        deterministic: true,
        ..KairosConfig::default()
    };
    let mut kairos = Kairos::new(topology::crisp(), config);
    let telemetry = Telemetry::new(TelemetryConfig::default());
    kairos.set_telemetry(telemetry.clone());
    (kairos, telemetry)
}

/// The distinct elements of an admitted layout, sorted.
fn footprint(layout: &kairos::core::ExecutionLayout) -> Vec<ElementId> {
    let mut v: Vec<ElementId> = layout.placement.iter().map(|(_, e)| e).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn fault_matrix_sweeps_exactly_the_overlapping_points() {
    let (mut kairos, telemetry) = cached_kairos();
    let app = chain("matrix", 3, 700, 100);

    // Cold admission populates the cache; an identical admit/release
    // cycle returns the platform to the stamped state and hits.
    let report = kairos.admit(&app).unwrap();
    let used = footprint(&report.layout);
    kairos.release(report.app_id);
    let again = kairos.admit(&app).unwrap();
    assert_eq!(kairos.cache_stats().unwrap().hits, 1, "exact state recurrence must hit");
    assert_eq!(again.layout, report.layout, "the replayed point is the cold decision");
    kairos.release(again.app_id);

    let outside = (0..62)
        .map(ElementId)
        .find(|e| !used.contains(e))
        .expect("a CRISP placement never covers the whole platform");

    // Non-overlapping fault and repair: no cached point uses the
    // element, so nothing is swept.
    let before = kairos.cache_stats().unwrap().invalidations;
    kairos.fail_element(outside);
    assert_eq!(
        kairos.cache_stats().unwrap().invalidations,
        before,
        "a fault outside every cached footprint sweeps nothing"
    );
    kairos.repair_element(outside);
    assert_eq!(kairos.cache_stats().unwrap().invalidations, before, "so does its repair");

    // Overlapping fault: the admit point covers `used[0]`, so it is
    // swept exactly once (defence in depth — its stamp could never
    // recur on the faulted platform anyway).
    kairos.fail_element(used[0]);
    assert_eq!(
        kairos.cache_stats().unwrap().invalidations,
        before + 1,
        "the one overlapping point is swept exactly once"
    );

    // Post-fault admission: new platform state, so a miss; the cold
    // fallback avoids the dead element and repopulates the cache.
    let refreshed = kairos.admit(&app).unwrap();
    assert!(!footprint(&refreshed.layout).contains(&used[0]), "placements avoid the dead element");
    let stats = kairos.cache_stats().unwrap();
    assert_eq!(stats.hits, 1, "a post-fault admission cannot hit a pre-fault point");
    assert_eq!(stats.points, 1, "only the fallback's fresh point remains after the sweep");
    kairos.release(refreshed.app_id);

    // Repair of the faulted element: the surviving points all avoided
    // it, so the sweep finds nothing new.
    let before_repair = kairos.cache_stats().unwrap().invalidations;
    kairos.repair_element(used[0]);
    assert_eq!(
        kairos.cache_stats().unwrap().invalidations,
        before_repair,
        "points placed during the outage avoided the element"
    );

    // The telemetry instruments mirror the cache's own ledger.
    let stats = kairos.cache_stats().unwrap();
    let registry = telemetry.registry().expect("telemetry is enabled");
    assert_eq!(registry.counter("kairos.opcache.invalidations").get(), stats.invalidations);
    assert_eq!(registry.counter("kairos.opcache.hits").get(), stats.hits);
    assert_eq!(registry.counter("kairos.opcache.misses").get(), stats.misses);
    assert_eq!(registry.gauge("kairos.opcache.points").get(), stats.points as i64);
}

#[test]
fn every_overlapping_fault_bumps_the_invalidation_instrument() {
    // One cached point per outage target: fault each in turn and pin the
    // instrument against the injected fault count.
    let (mut kairos, telemetry) = cached_kairos();
    let app = chain("storm", 2, 700, 100);
    let report = kairos.admit(&app).unwrap();
    let used = footprint(&report.layout);
    kairos.release(report.app_id);

    let mut swept = 0;
    for (i, &element) in used.iter().enumerate() {
        // Before each fault, re-prime a point that covers the element:
        // the platform state differs per iteration (failure marks
        // accumulate), so each admission stores a fresh point.
        let primed = kairos.admit(&app).unwrap();
        let primed_footprint = footprint(&primed.layout);
        kairos.release(primed.app_id);
        kairos.fail_element(element);
        if primed_footprint.contains(&element) {
            swept += 1;
        }
        assert!(
            kairos.cache_stats().unwrap().invalidations >= swept,
            "fault {i} on {element:?} must sweep the point that covers it"
        );
    }
    let stats = kairos.cache_stats().unwrap();
    assert!(stats.invalidations >= swept);
    assert_eq!(
        telemetry.registry().unwrap().counter("kairos.opcache.invalidations").get(),
        stats.invalidations,
        "the instrument and the cache ledger agree"
    );
}

#[test]
fn migration_sweeps_points_on_both_footprints() {
    let (mut kairos, _telemetry) = cached_kairos();
    let app = chain("mover", 2, 700, 100);
    let report = kairos.admit(&app).unwrap();
    let old = footprint(&report.layout);

    let before = kairos.cache_stats().unwrap().invalidations;
    let moved = kairos.migrate(report.app_id, &[old[0]]).unwrap();
    assert_ne!(footprint(&moved.new_layout), old, "the avoidance set forces a real move");
    assert!(
        kairos.cache_stats().unwrap().invalidations > before,
        "the move sweeps the cached point using the old footprint"
    );
}

#[test]
fn restore_rewinds_the_stamp_memo_not_just_the_bytes() {
    // The regression this pins: `Platform::restore` must void the stamp
    // the platform maintains. Its per-record digests are kept up to date
    // by the mutators marking what they touch, and a restore rewrites
    // every record without going through any of them — a rewind that
    // restored the bytes but kept the digests would leave the stamp
    // answering for the pre-restore state, and the next admission would
    // look up (and replay) against the wrong key.
    let (mut warm, _telemetry) = cached_kairos();
    let mut cold = Kairos::new(
        topology::crisp(),
        KairosConfig { cache: None, deterministic: true, ..KairosConfig::default() },
    );

    let resident = chain("resident", 2, 500, 50);
    let returning = chain("returning", 3, 700, 100);

    // Shared prefix on both managers: one resident stays admitted.
    warm.admit(&resident).unwrap();
    cold.admit(&resident).unwrap();
    let warm_checkpoint = warm.checkpoint();
    let cold_checkpoint = cold.checkpoint();

    // Warm path: admit (cold pipeline, populates the cache), rewind,
    // admit again. The rewound platform is byte-identical to the
    // checkpointed one, so the second admission legitimately HITS the
    // point stored before the rewind — state recurrence is real.
    let first = warm.admit(&returning).unwrap();
    warm.restore(warm_checkpoint);
    let second = warm.admit(&returning).unwrap();
    assert_eq!(warm.cache_stats().unwrap().hits, 1, "the rewound state must re-stamp and hit");
    assert_eq!(second.app_id, first.app_id, "the id counter rewound with the checkpoint");
    assert_eq!(second.layout, first.layout);

    // Cold reference: the same rewind without a cache decides the same.
    cold.admit(&returning).unwrap();
    cold.restore(cold_checkpoint);
    let reference = cold.admit(&returning).unwrap();
    assert_eq!(second.layout, reference.layout, "the replayed point is the cold decision");
    assert_eq!(
        warm.platform(),
        cold.platform(),
        "warm and cold managers end in identical platform states"
    );
}

/// Repairing an element that is not failed is no mutation: the stored
/// point that uses it survives, the state epoch stays, and the same
/// question asked again hits.
#[test]
fn repairing_a_healthy_element_sweeps_nothing() {
    let (mut kairos, _) = cached_kairos();
    let app = chain("c", 3, 600, 80);
    let first = kairos.admit(&app).unwrap();
    kairos.release(first.app_id);
    let (before, epoch) = (kairos.cache_stats().unwrap(), kairos.platform().state_epoch());
    kairos.repair_element(footprint(&first.layout)[0]);
    assert_eq!(kairos.platform().state_epoch(), epoch);
    assert_eq!(kairos.cache_stats().unwrap().invalidations, before.invalidations);
    let second = kairos.admit(&app).unwrap();
    assert_eq!(second.layout, first.layout);
    assert_eq!(kairos.cache_stats().unwrap().hits, before.hits + 1, "the stored point replays");
}

/// Failing an element that is already failed is no mutation either: the
/// state epoch stays, so the decision an uncached manager's probe kept
/// just before still reaches the admission that follows.
#[test]
fn failing_a_failed_element_changes_nothing() {
    let mut kairos = Kairos::new(
        topology::crisp(),
        KairosConfig { deterministic: true, ..KairosConfig::default() },
    );
    kairos.set_telemetry(Telemetry::new(TelemetryConfig::default()));
    let app = chain("c", 3, 600, 80);
    let dead = footprint(&kairos.probe_admit(&app).unwrap().layout)[0];
    assert!(kairos.fail_element(dead).is_empty());
    drop(kairos.probe_admit(&app));
    let (epoch, image) = (kairos.platform().state_epoch(), kairos.checkpoint());
    assert!(kairos.fail_element(dead).is_empty(), "nothing sits on a failed element");
    assert_eq!(kairos.platform().state_epoch(), epoch);
    assert_eq!(kairos.checkpoint(), image);
    let admitted = kairos.admit(&app).unwrap();
    assert!(!footprint(&admitted.layout).contains(&dead));
    let replayed = kairos.telemetry().counter("kairos.core.admit.replayed").unwrap().get();
    assert_eq!(replayed, 1, "the probe's decision reached the admission");
}
