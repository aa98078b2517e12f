//! Criterion micro-benchmarks of the four allocation phases and their
//! algorithmic building blocks (M1–M5 of DESIGN.md).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use kairos_app::binfmt;
use kairos_appgen::{beamforming_app, AppGenerator, DatasetSpec, GeneratorConfig};
use kairos_core::{
    bind, map_application, route_channels, validate, Binding, CostPolicy, Kairos, KairosConfig,
    KnapsackItem, KnapsackSolver, MapperConfig, RouteAlgorithm, ValidationConfig,
};
use kairos_platform::{external_fragmentation, topology, AppId, Platform, ResourceVector};
use kairos_sdf::{throughput, SdfGraphBuilder};

/// Generates an application of the requested size that provably binds and
/// maps on an empty CRISP platform (some random instances do not; a bench
/// must not measure failures).
fn app_of_size(tasks: u32) -> kairos_app::Application {
    let spec = DatasetSpec::all()[0];
    let mut config = spec.generator_config();
    config.internal_tasks = tasks.saturating_sub(2).max(1)..=tasks.saturating_sub(2).max(1);
    // Light channels: the micro benches measure per-phase cost, not
    // admission-feasibility fights (large instances of the communication
    // band cannot route on an empty platform at all).
    config.channel_bandwidth = 40..=150;
    for seed in 42..142 {
        let app = AppGenerator::new(config.clone(), seed).generate(format!("bench-{tasks}"));
        // The full admission pipeline must succeed: all four phases are
        // benchmarked on this instance.
        let mut probe = Kairos::new(topology::crisp(), KairosConfig::default());
        if probe.admit(&app).is_ok() {
            return app;
        }
    }
    panic!("no admittable {tasks}-task application within 100 seeds");
}

/// Quick criterion profile: the statistical defaults take minutes over the
/// whole suite; the micro benches only need coarse relative numbers.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
}

fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("phases");
    for tasks in [4u32, 8, 16] {
        let app = app_of_size(tasks);
        let platform = topology::crisp();
        group.bench_with_input(BenchmarkId::new("binding", tasks), &app, |b, app| {
            b.iter(|| bind(black_box(app), black_box(&platform)).unwrap());
        });
        let binding = bind(&app, &platform).unwrap();
        group.bench_with_input(
            BenchmarkId::new("mapping", tasks),
            &app,
            mapping_run(&binding, &platform),
        );
        let mut mapped_platform = platform.clone();
        let report = map_application(
            &app,
            &binding,
            &mut mapped_platform,
            AppId(0),
            &MapperConfig::default(),
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("routing", tasks), &app, |b, app| {
            b.iter_batched(
                || mapped_platform.clone(),
                |mut p| {
                    route_channels(black_box(app), &report.placement, &mut p, RouteAlgorithm::Bfs)
                        .unwrap()
                },
                criterion::BatchSize::SmallInput,
            );
        });
        let routes = {
            let mut p = mapped_platform.clone();
            route_channels(&app, &report.placement, &mut p, RouteAlgorithm::Bfs).unwrap()
        };
        let layout = kairos_core::ExecutionLayout {
            binding: binding.clone(),
            placement: report.placement.clone(),
            routes,
        };
        group.bench_with_input(BenchmarkId::new("validation", tasks), &app, |b, app| {
            b.iter(|| validate(black_box(app), &layout, &ValidationConfig::default()).unwrap());
        });
    }
    // The scale axis of the mapping phase: the same applications on
    // heterogeneous meshes, whose single FPGA and ARM sit in opposite
    // corners, so the search from the pinned I/O tasks crosses the platform.
    for (label, side) in [("mapping-mesh16", 16), ("mapping-mesh32", 32)] {
        let platform = topology::heterogeneous_mesh(side, side);
        for tasks in [4u32, 8, 16] {
            let app = app_of_size(tasks);
            let binding = bind(&app, &platform).unwrap();
            group.bench_with_input(
                BenchmarkId::new(label, tasks),
                &app,
                mapping_run(&binding, &platform),
            );
        }
    }
    group.finish();
}

/// The body of a `phases/mapping*` row: `map_application` onto a fresh
/// clone of the idle `platform`. The clone is handed back with the report
/// so that freeing it — thousands of small vectors on a 32x32 mesh — is not
/// timed as mapping.
fn mapping_run<'a>(
    binding: &'a Binding,
    platform: &'a Platform,
) -> impl FnMut(&mut criterion::Bencher, &kairos_app::Application) + 'a {
    move |b, app| {
        b.iter_batched(
            || platform.clone(),
            |mut p| {
                let report = map_application(
                    black_box(app),
                    binding,
                    &mut p,
                    AppId(0),
                    &MapperConfig::default(),
                )
                .unwrap();
                (report, p)
            },
            criterion::BatchSize::SmallInput,
        );
    }
}

fn bench_knapsack(c: &mut Criterion) {
    let mut group = c.benchmark_group("knapsack");
    for n in [8usize, 16, 24] {
        let items: Vec<KnapsackItem> = (0..n)
            .map(|i| KnapsackItem {
                value: (i % 7 + 1) as f64,
                weight: ResourceVector::new((i as u64 % 5 + 1) * 100, 8, 0, 0),
            })
            .collect();
        let capacity = ResourceVector::new(1000, 64, 0, 0);
        group.bench_with_input(BenchmarkId::new("exact", n), &items, |b, items| {
            let solver = KnapsackSolver::Exact { max_exact_items: 24 };
            b.iter(|| solver.solve(black_box(items), capacity));
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &items, |b, items| {
            b.iter(|| KnapsackSolver::Greedy.solve(black_box(items), capacity));
        });
    }
    group.finish();
}

fn bench_sdf(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdf");
    for stages in [4usize, 16, 64] {
        let mut b = SdfGraphBuilder::new(format!("pipe{stages}"));
        let actors: Vec<_> =
            (0..stages).map(|i| b.add_actor(format!("a{i}"), 5 + (i as u64 % 7))).collect();
        for w in actors.windows(2) {
            b.add_channel(w[0], w[1], 1, 1, 0);
        }
        let graph = b.build().unwrap().with_bounded_buffers(2);
        group.bench_with_input(BenchmarkId::new("throughput", stages), &graph, |bench, graph| {
            bench.iter(|| throughput(black_box(graph), actors[0]).unwrap());
        });
    }
    group.finish();
}

fn bench_binfmt(c: &mut Criterion) {
    let app = beamforming_app();
    let image = binfmt::encode(&app);
    c.bench_function("binfmt/encode_beamformer", |b| {
        b.iter(|| binfmt::encode(black_box(&app)));
    });
    c.bench_function("binfmt/decode_beamformer", |b| {
        b.iter(|| binfmt::decode(black_box(&image)).unwrap());
    });
}

fn bench_platform_metrics(c: &mut Criterion) {
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut generator = AppGenerator::new(GeneratorConfig::default(), 5);
    for i in 0..6 {
        let _ = kairos.admit(&generator.generate(format!("filler{i}")));
    }
    c.bench_function("platform/external_fragmentation", |b| {
        b.iter(|| external_fragmentation(black_box(kairos.platform())));
    });
}

fn bench_beamformer_admission(c: &mut Criterion) {
    let app = beamforming_app();
    // Same configuration as the casestudy bench: the 45-of-45-DSP fill
    // needs the widened candidate search to admit.
    let config =
        KairosConfig { extra_search_rings: 5, ..KairosConfig::with_policy(CostPolicy::Both) };
    c.bench_function("casestudy/beamformer_admission", |b| {
        b.iter_batched(
            || Kairos::new(topology::crisp(), config),
            |mut kairos| kairos.admit(black_box(&app)).unwrap(),
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_phases,
        bench_knapsack,
        bench_sdf,
        bench_binfmt,
        bench_platform_metrics,
        bench_beamformer_admission
}
criterion_main!(benches);
