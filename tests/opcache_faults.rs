//! The operating-point cache across platform mutations: element faults,
//! repairs, live migrations and checkpoint rewinds. The `(shape, state
//! stamp)` key is the keyed tier's one guard, so nothing is swept: while
//! an element is down the stamp differs and an admission misses, falls
//! back to the cold pipeline and avoids the dead element; once a state
//! recurs — an outage repaired, a moved application gone — the point
//! stored for it replays, deciding what a cache-free manager decides
//! from the same history. `CacheStats::invalidations` stays 0.

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

/// A cache-enabled deterministic manager on the CRISP platform.
fn cached_kairos() -> Kairos {
    let config = KairosConfig {
        cache: Some(CacheConfig::default()),
        deterministic: true,
        ..KairosConfig::default()
    };
    Kairos::new(topology::crisp(), config)
}

/// The distinct elements of an admitted layout, sorted.
fn footprint(layout: &kairos::core::ExecutionLayout) -> Vec<ElementId> {
    let mut v: Vec<ElementId> = layout.placement.iter().map(|(_, e)| e).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// A cache-free deterministic manager on the CRISP platform: the
/// reference every replayed decision must equal.
fn uncached_kairos() -> Kairos {
    Kairos::new(
        topology::crisp(),
        KairosConfig { cache: None, deterministic: true, ..KairosConfig::default() },
    )
}

/// Nothing was swept: the ledger's invalidations read 0.
fn assert_nothing_swept(kairos: &Kairos) {
    assert_eq!(kairos.cache_stats().unwrap().invalidations, 0, "no mutation sweeps the cache");
}

#[test]
fn a_repaired_outage_replays_the_point_stored_before_it() {
    let mut warm = cached_kairos();
    let mut cold = uncached_kairos();
    let app = chain("recurring", 3, 700, 100);

    // The same history on both managers: admit and release on the idle
    // platform, fail an element the decision used, admit and release
    // during the outage, repair, admit again.
    let [warm_layouts, cold_layouts] = [&mut warm, &mut cold].map(|kairos| {
        let stored = kairos.admit(&app).unwrap();
        kairos.release(stored.app_id);
        let dead = footprint(&stored.layout)[0];
        assert!(kairos.fail_element(dead).is_empty(), "nothing is resident");
        let during = kairos.admit(&app).unwrap();
        assert!(!footprint(&during.layout).contains(&dead), "placements avoid the dead element");
        kairos.release(during.app_id);
        assert!(kairos.repair_element(dead));
        let after = kairos.admit(&app).unwrap();
        [stored.layout, during.layout, after.layout]
    });
    let [stored, during, after] = &warm_layouts;

    let stats = warm.cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 2), "the outage misses, the repaired state hits");
    assert_eq!(stats.points, 2, "the point stored before the fault survived it");
    assert_ne!(during, stored, "the outage decided around the dead element");
    assert_eq!(after, stored, "the repaired idle platform replays the point stored on it");
    assert_eq!(warm_layouts, cold_layouts, "each decision is the cache-free one");
    assert_eq!(warm.platform(), cold.platform());
    assert_nothing_swept(&warm);
}

#[test]
fn a_migration_leaves_the_points_on_its_footprints_replayable() {
    let mut warm = cached_kairos();
    let mut cold = uncached_kairos();
    let app = chain("mover", 2, 700, 100);

    // The stored point is the idle platform's decision; the migration
    // moves the application it admitted off that point's first element,
    // so both footprints overlap it. Once the application leaves, the
    // platform is idle again and the point's state recurs.
    let [warm_layouts, cold_layouts] = [&mut warm, &mut cold].map(|kairos| {
        let first = kairos.admit(&app).unwrap();
        let old = footprint(&first.layout);
        let moved = kairos.migrate(first.app_id, &[old[0]]).unwrap();
        assert_ne!(footprint(&moved.new_layout), old, "the avoidance set forces a real move");
        assert!(kairos.release(first.app_id));
        let again = kairos.admit(&app).unwrap();
        [first.layout, moved.new_layout, again.layout]
    });
    let [first, _, again] = &warm_layouts;

    let hits = warm.cache_stats().unwrap().hits;
    assert_eq!(hits, 1, "the recurring idle state hits the point stored on it");
    assert_eq!(again, first, "and replays it");
    assert_eq!(warm_layouts, cold_layouts, "each decision is the cache-free one");
    assert_eq!(warm.platform(), cold.platform());
    assert_nothing_swept(&warm);
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
    let mut warm = cached_kairos();
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
    let mut kairos = cached_kairos();
    let app = chain("c", 3, 600, 80);
    let first = kairos.admit(&app).unwrap();
    kairos.release(first.app_id);
    let (before, epoch) = (kairos.cache_stats().unwrap(), kairos.platform().state_epoch());
    kairos.repair_element(footprint(&first.layout)[0]);
    assert_eq!(kairos.platform().state_epoch(), epoch);
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
