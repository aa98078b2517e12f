//! Sharded parallel versus monolithic sequential admission probing.
//!
//! A `kairos-cluster` batched admission places its whole arrival wave
//! with one parallel fan-out: one worker thread per shard probes every
//! wave member against its own region
//! (`ClusterService::probe_admit_wave`), so the wall-clock is the
//! slowest *shard's* pass over the wave — and each shard's platform is
//! only 1/N of the fabric, so that pass is cheaper than the monolithic
//! baseline's (the identical what-if probes, run sequentially over the
//! full 62-element CRISP platform). The workload is the
//! `sharded-arrival-storm` scenario's arrival mix.
//!
//! The run asserts the wave-probe wall-clock inequality — the sharded
//! parallel fan-out must not be slower than the monolithic sequential
//! baseline on this storm workload — which CI executes as a smoke
//! check. (Per-application probe latency is also reported: fanning out
//! threads for a *single* probe does not pay on a platform this small,
//! which is exactly why batched placement probes per wave.)

use std::time::Instant;

use kairos_admitd::PriorityClass;
use kairos_app::Application;
use kairos_appgen::{DatasetSpec, MixEntry, Orientation, SizeClass, WorkloadMix, WorkloadSampler};
use kairos_bench::print_table;
use kairos_cluster::{ClusterBuilder, ClusterService, LeastLoaded};
use kairos_core::{Kairos, KairosConfig};
use kairos_platform::topology;
use kairos_svc::{Request, ResourceService};

/// The `sharded-arrival-storm` arrival mix: mostly small applications
/// with a medium tail, sized to shards rather than to the whole fabric.
fn storm_mix() -> WorkloadMix {
    let spec = |orientation, size| DatasetSpec { orientation, size };
    WorkloadMix::new(vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 4),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ])
}

fn storm(n: usize, seed: u64) -> Vec<Application> {
    let mut sampler = WorkloadSampler::new("cluster-probe", storm_mix(), seed);
    (0..n).map(|_| sampler.next_app()).collect()
}

fn cluster(shards: usize) -> ClusterService {
    ClusterBuilder::new(topology::crisp(), shards)
        .deterministic(true)
        .placement(Box::new(LeastLoaded))
        .build()
        .expect("shard counts fit CRISP")
}

/// Monolithic baseline: the identical what-if probes, sequentially over
/// the whole platform. Best of `reps` (best-of damps scheduler noise).
fn monolithic_micros(apps: &[Application], reps: u32) -> f64 {
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for app in apps {
            let _ = std::hint::black_box(kairos.probe_admit(app));
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Sharded fan-out: the whole wave probed with one thread per shard.
fn sharded_micros(shards: usize, apps: &[Application], reps: u32) -> f64 {
    let mut cluster = cluster(shards);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(cluster.probe_admit_wave(apps));
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// End-to-end batched admission of the storm (probe fan-out, placement,
/// per-shard batch transactions), plus how many made it in.
fn admit_micros(shards: usize, apps: &[Application], reps: u32) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut admitted = 0;
    for _ in 0..reps {
        let mut cluster = cluster(shards);
        let wave: Vec<Request> = apps
            .iter()
            .enumerate()
            .map(|(i, app)| Request::admit(i as u64, app.clone(), PriorityClass::Normal))
            .collect();
        let start = Instant::now();
        cluster.submit_batch(wave);
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        admitted = cluster.occupancy().admitted_apps;
        cluster.take_events();
    }
    (best, admitted)
}

fn main() {
    const APPS: usize = 48;
    const REPS: u32 = 7;
    let apps = storm(APPS, 0x54A2D);

    let monolithic = monolithic_micros(&apps, REPS);
    let (mono_admit, mono_admitted) = admit_micros(1, &apps, REPS);
    let mut rows = vec![vec![
        "1 (monolithic)".to_owned(),
        format!("{monolithic:.0}"),
        "1.00x".to_owned(),
        format!("{mono_admit:.0}"),
        mono_admitted.to_string(),
    ]];
    let mut sharded_best = f64::INFINITY;
    for shards in [2usize, 3, 4] {
        let probe = sharded_micros(shards, &apps, REPS);
        sharded_best = sharded_best.min(probe);
        let (admit, admitted) = admit_micros(shards, &apps, REPS);
        rows.push(vec![
            shards.to_string(),
            format!("{probe:.0}"),
            format!("{:.2}x", monolithic / probe),
            format!("{admit:.0}"),
            admitted.to_string(),
        ]);
    }
    print_table(
        &format!("storm wave of {APPS} apps: sharded parallel vs monolithic sequential probing"),
        &["shards", "probe us", "speedup", "batch admit us", "admitted"],
        &rows,
    );

    // With ≥2 cores the per-shard threads actually overlap and the
    // fan-out must win outright. A single-core host serialises the
    // threads — the remaining edge is only that per-shard probes are
    // cheaper than full-platform ones — so a scheduling-noise tolerance
    // applies there (the inequality the feature exists for needs the
    // parallelism the host doesn't have).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tolerance = if cores > 1 { 1.0 } else { 1.15 };
    assert!(
        sharded_best <= monolithic * tolerance,
        "sharded parallel wave probing must not lose to the monolithic baseline \
         (best sharded {sharded_best:.0}us vs monolithic {monolithic:.0}us on {cores} core(s))"
    );
    println!(
        "OK ({cores} core(s)): best sharded wave probe {:.0}us vs monolithic {:.0}us ({:.2}x)",
        sharded_best,
        monolithic,
        monolithic / sharded_best
    );
}
