//! Gateway serving throughput — monolithic versus sync-cluster versus
//! async-cluster admission.
//!
//! The `kairos-gateway` front-end accepts admissions into bounded lanes
//! and drives the service from its deterministic task queue, so a storm
//! streamed through it flushes in *waves*: each enqueue-then-drive pass
//! coalesces its contiguous single admissions into one batched
//! submission, and the cluster underneath places that wave with one
//! parallel per-shard probe fan-out — one fan-out coordination per wave
//! instead of one per request. That is the serving claim this bench
//! pins: the async gateway path over a cluster must admit at least as
//! many applications per second as driving the same cluster
//! synchronously request by request (CI executes the assertion as a
//! smoke check; multi-core hosts must pass it strictly, a single-core
//! host gets a scheduling-noise tolerance).

use std::time::Instant;

use kairos_admitd::PriorityClass;
use kairos_app::Application;
use kairos_appgen::{DatasetSpec, MixEntry, Orientation, SizeClass, WorkloadMix, WorkloadSampler};
use kairos_bench::print_table;
use kairos_cluster::{ClusterBuilder, ClusterService, LeastLoaded};
use kairos_gateway::{Gateway, GatewayConfig};
use kairos_platform::topology;
use kairos_svc::{Request, ResourceService, ServiceBuilder};

/// Mostly small applications with a medium tail — the storm fits tens of
/// admissions onto CRISP, so every path does real placement work.
fn storm_mix() -> WorkloadMix {
    let spec = |orientation, size| DatasetSpec { orientation, size };
    WorkloadMix::new(vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 4),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ])
}

fn storm(n: usize, seed: u64) -> Vec<Application> {
    let mut sampler = WorkloadSampler::new("gateway-bench", storm_mix(), seed);
    (0..n).map(|_| sampler.next_app()).collect()
}

fn cluster(shards: usize) -> ClusterService {
    ClusterBuilder::new(topology::crisp(), shards)
        .deterministic(true)
        .placement(Box::new(LeastLoaded))
        .build()
        .expect("shard counts fit CRISP")
}

fn requests(apps: &[Application]) -> Vec<Request> {
    apps.iter()
        .enumerate()
        .map(|(i, app)| Request::admit(i as u64, app.clone(), PriorityClass::Normal))
        .collect()
}

/// Synchronous baseline: one `submit` per request against `service`,
/// sequential probes all the way down. Best of `reps`.
fn sync_micros(
    mut make: impl FnMut() -> Box<dyn ResourceService + Send>,
    apps: &[Application],
    reps: u32,
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut admitted = 0;
    for _ in 0..reps {
        let mut service = make();
        let wave = requests(apps);
        let start = Instant::now();
        for request in wave {
            service.submit(request);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        admitted = service.occupancy().admitted_apps;
        service.take_events();
    }
    (best, admitted)
}

/// Async gateway path: the storm streamed through the lanes in arrival
/// waves — enqueue a wave, `drive` once — with coalescing merging each
/// wave into one batched submission the cluster places with a single
/// parallel per-shard probe fan-out (one fan-out per wave instead of one
/// per request). Best of `reps`.
fn gateway_micros(shards: usize, wave_len: usize, apps: &[Application], reps: u32) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut admitted = 0;
    for _ in 0..reps {
        let inner = cluster(shards);
        let mut gateway = Gateway::new(
            Box::new(inner),
            GatewayConfig { coalesce: true, ..GatewayConfig::default() },
        );
        let waves = requests(apps);
        let start = Instant::now();
        let mut waves = waves.into_iter().peekable();
        while waves.peek().is_some() {
            for request in waves.by_ref().take(wave_len) {
                gateway.enqueue(request);
            }
            gateway.drive();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        admitted = gateway.occupancy().admitted_apps;
        gateway.take_events();
    }
    (best, admitted)
}

fn main() {
    const APPS: usize = 48;
    const REPS: u32 = 7;
    const SHARDS: usize = 3;
    const WAVE: usize = 8;
    let apps = storm(APPS, 0x6A7E);

    let (mono, mono_admitted) = sync_micros(
        || Box::new(ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap()),
        &apps,
        REPS,
    );
    let (sync_cluster, sync_admitted) = sync_micros(|| Box::new(cluster(SHARDS)), &apps, REPS);
    let (async_cluster, async_admitted) = gateway_micros(SHARDS, WAVE, &apps, REPS);

    let rate = |admitted: usize, micros: f64| admitted as f64 / (micros / 1e6);
    print_table(
        &format!("storm of {APPS} admissions: serving path throughput"),
        &["path", "wall us", "admissions/s", "admitted"],
        &[
            vec![
                "monolith (sync)".to_owned(),
                format!("{mono:.0}"),
                format!("{:.0}", rate(mono_admitted, mono)),
                mono_admitted.to_string(),
            ],
            vec![
                format!("cluster x{SHARDS} (sync)"),
                format!("{sync_cluster:.0}"),
                format!("{:.0}", rate(sync_admitted, sync_cluster)),
                sync_admitted.to_string(),
            ],
            vec![
                format!("cluster x{SHARDS} (async, waves of {WAVE})"),
                format!("{async_cluster:.0}"),
                format!("{:.0}", rate(async_admitted, async_cluster)),
                async_admitted.to_string(),
            ],
        ],
    );

    // With ≥2 cores the coalesced wave's parallel probe fan-out must beat
    // sequential per-request probing outright; a single-core host
    // serialises the shard workers, so only a noise tolerance applies.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tolerance = if cores > 1 { 1.0 } else { 1.15 };
    let sync_rate = rate(sync_admitted, sync_cluster);
    let async_rate = rate(async_admitted, async_cluster);
    assert!(
        async_rate * tolerance >= sync_rate,
        "the async gateway path must not admit slower than the sync cluster \
         ({async_rate:.0}/s vs {sync_rate:.0}/s on {cores} core(s))"
    );
    println!(
        "OK ({cores} core(s)): async {async_rate:.0} admissions/s vs sync cluster \
         {sync_rate:.0}/s ({:.2}x)",
        async_rate / sync_rate
    );
}
