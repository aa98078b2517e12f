//! Gateway serving throughput — monolithic versus sync-cluster versus
//! gatewayed-cluster admission.
//!
//! The `kairos-gateway` front-end accepts admissions into bounded lanes
//! and drives the service from its deterministic task queue, so a storm
//! streamed through it flushes in *waves* (enqueue a wave, `drive`
//! once). Each admission of a wave is forwarded on its own, and the
//! cluster underneath places it exactly as it places a direct `submit`:
//! every shard probed in turn (the bench places least-loaded, which
//! compares every shard — a first-fit cluster would stop at the first
//! shard that fits), then the winning shard commits its own probe by
//! replay. The sync cluster is reported beside the gateway (they differ
//! by lane bookkeeping only, ~0.9–1.0x). The bench prints a table and
//! asserts nothing.

use std::time::Instant;

use kairos_admitd::{PriorityClass, Request, ResourceService, ServiceBuilder};
use kairos_app::Application;
use kairos_appgen::{DatasetSpec, MixEntry, Orientation, SizeClass, WorkloadMix, WorkloadSampler};
use kairos_bench::print_table;
use kairos_cluster::{ClusterBuilder, ClusterService, Placement};
use kairos_gateway::{Gateway, GatewayConfig};
use kairos_platform::topology;

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
        .placement(Placement::LeastLoaded)
        .build()
        .expect("shard counts fit CRISP")
}

fn requests(apps: &[Application]) -> Vec<Request> {
    apps.iter()
        .enumerate()
        .map(|(i, app)| Request::admit(i as u64, app.clone(), PriorityClass::Normal))
        .collect()
}

/// Synchronous baseline: one `submit` per request against `service`.
/// Wall micros and admitted count.
fn sync_run(mut service: Box<dyn ResourceService + Send>, apps: &[Application]) -> (f64, usize) {
    let wave = requests(apps);
    let start = Instant::now();
    for request in wave {
        service.submit(request);
    }
    let micros = start.elapsed().as_secs_f64() * 1e6;
    (micros, service.occupancy().admitted_apps)
}

/// Gateway path: the storm streamed through the lanes in arrival waves —
/// enqueue a wave, `drive` once — each admission forwarded on its own.
fn gateway_run(shards: usize, wave_len: usize, apps: &[Application]) -> (f64, usize) {
    let mut gateway = Gateway::new(Box::new(cluster(shards)), GatewayConfig::default());
    let waves = requests(apps);
    let start = Instant::now();
    let mut waves = waves.into_iter().peekable();
    while waves.peek().is_some() {
        for request in waves.by_ref().take(wave_len) {
            gateway.enqueue(request);
        }
        gateway.drive();
    }
    let micros = start.elapsed().as_secs_f64() * 1e6;
    (micros, gateway.occupancy().admitted_apps)
}

fn main() {
    const APPS: usize = 48;
    const REPS: u32 = 15;
    const SHARDS: usize = 3;
    const WAVE: usize = 8;
    let apps = storm(APPS, 0x6A7E);

    type Path<'a> = (String, Box<dyn Fn() -> (f64, usize) + 'a>);
    let paths: [Path; 3] = [
        (
            "monolith (sync)".to_owned(),
            Box::new(|| {
                let mono = ServiceBuilder::new(topology::crisp()).deterministic(true).build();
                sync_run(Box::new(mono.unwrap()), &apps)
            }),
        ),
        (
            format!("cluster x{SHARDS} (sync)"),
            Box::new(|| sync_run(Box::new(cluster(SHARDS)), &apps)),
        ),
        (
            format!("cluster x{SHARDS} (gateway, waves of {WAVE})"),
            Box::new(|| gateway_run(SHARDS, WAVE, &apps)),
        ),
    ];
    // Best of `REPS` per path, the paths interleaved rep by rep so a noisy
    // stretch of the host falls on all of them alike.
    let mut best = [(f64::INFINITY, 0usize); 3];
    for _ in 0..REPS {
        for ((_, run), best) in paths.iter().zip(&mut best) {
            let (micros, admitted) = run();
            *best = (best.0.min(micros), admitted);
        }
    }

    let rate = |(micros, admitted): (f64, usize)| admitted as f64 / (micros / 1e6);
    let rows: Vec<Vec<String>> = paths
        .iter()
        .zip(best)
        .map(|((path, _), (micros, admitted))| {
            vec![
                path.clone(),
                format!("{micros:.0}"),
                format!("{:.0}", rate((micros, admitted))),
                admitted.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("storm of {APPS} admissions: serving path throughput"),
        &["path", "wall us", "admissions/s", "admitted"],
        &rows,
    );
}
