//! The traced run (`--trace 1`): every per-layer metric.
//!
//! Three kinds of measurement, all from outside the measured tree:
//!
//! * the workload itself, replayed untraced and traced in alternation —
//!   exact counters, host metrics, the span file and the tracing
//!   overhead;
//! * the *ladder*: the workload's admissions replayed through successive
//!   public entry points (`Kairos::admit`/`release` →
//!   `KairosService::submit` → 1-shard cluster → 2-shard cluster →
//!   `Gateway`), a layer's tax being its replay minus the one below;
//! * direct calls into single public functions.
//!
//! Ladder times are calibrated microseconds per admission; direct-call
//! times are calibrated microseconds per call.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

use kairos::admitd::PriorityClass;
use kairos::app::{Application, TaskRole};
use kairos::cluster::ClusterBuilder;
use kairos::core::{
    bind, layout_to_sdf, map_application, Kairos, KairosConfig, MapperConfig, ValidationConfig,
};
use kairos::gateway::{Gateway, GatewayConfig};
use kairos::opcache::{shape_of, stamp_of};
use kairos::platform::{AppId, Platform};
use kairos::sdf::{throughput_with, ActorId, StateSpaceConfig};
use kairos::sim::{Scenario, Simulator, WatchSpec};
use kairos::svc::{Request, ResourceService, ServiceBuilder};
use kairos::telemetry::{Telemetry, TelemetryConfig};

use crate::calib::CalClock;
use crate::drive::{cluster, manager_config, run_round, Outer, SHARDS};
use crate::host::SchedStat;
use crate::run::{self, hit_ratio, Collector, Measured, Prepared};
use crate::spans::{Spanned, Tracer, CLUSTER_SPANS};
use crate::stats::median;
use crate::storm::{self, Step};
use crate::tables::{PlatformKind, Stack, Workload, WINDOW_OPS};

/// Untraced/traced round pairs of the traced run.
const TRACE_PAIRS: usize = 3;
/// Admissions of the workload's storm the ladder replays.
const LADDER_ADMITS: usize = 512;
/// Rounds per ladder rung (the median counts).
const LADDER_ROUNDS: usize = 3;
/// Applications the direct-call measurements iterate over.
const SAMPLE_APPS: usize = 64;
/// Admissions per wave in the cluster wave measurements.
const WAVE: usize = 8;

/// Everything a traced run produced.
pub struct TraceRun {
    pub measured: Measured,
    /// Every per-layer metric by name.
    pub values: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
    /// Calibrated-scale factor of the traced rounds, to turn span self
    /// times into calibrated units.
    pub traced_scale: f64,
    pub traced_admits: u64,
}

/// The admissions of a sequence, truncated to the ladder's length, as a
/// plain storm every stack can replay: no faults, no ticks, one class.
fn plain_storm(steps: &[Step]) -> Vec<Step> {
    steps
        .iter()
        .filter_map(|step| match *step {
            Step::Admit { app, at, .. } => {
                Some(Step::Admit { app, class: PriorityClass::Normal, at })
            }
            _ => None,
        })
        .take(LADDER_ADMITS)
        .collect()
}

/// Calibrated totals of the direct `Kairos` replay, in nanoseconds.
struct CoreReplay {
    admits: f64,
    releases: f64,
    admit_ns: f64,
    release_ns: f64,
    phase_ns: [f64; 4],
}

/// Replays the plain storm against a bare `Kairos`, with the workload's
/// FIFO lifetimes, reading the per-phase split off the manager's own
/// `PhaseTimings` (admitted and rejected alike).
fn core_replay(
    workload: &Workload,
    apps: &[Application],
    steps: &[Step],
    platform: &Platform,
) -> CoreReplay {
    const ADMIT: usize = 0;
    const RELEASE: usize = 1;
    const PHASE: usize = 2;
    let mut manager = Kairos::new(platform.clone(), manager_config(false));
    let mut clock: CalClock<6> = CalClock::start();
    let mut residents: VecDeque<AppId> = VecDeque::new();
    let (mut admits, mut releases) = (0.0, 0.0);
    for (i, step) in steps.iter().enumerate() {
        let Step::Admit { app, .. } = *step else { continue };
        let app = &apps[app];
        let result = clock.time(ADMIT, || manager.admit(app));
        admits += 1.0;
        let (timings, rejected) = match result {
            Ok(report) => {
                residents.push_back(report.app_id);
                (report.timings, false)
            }
            Err(failure) => (failure.timings, true),
        };
        for (p, phase) in kairos::core::Phase::ALL.into_iter().enumerate() {
            clock.add(PHASE + p, timings.phase(phase).as_nanos() as f64);
        }
        if rejected || residents.len() > workload.resident_cap {
            if let Some(oldest) = residents.pop_front() {
                clock.time(RELEASE, || manager.release(oldest));
                releases += 1.0;
            }
        }
        if i % WINDOW_OPS == WINDOW_OPS - 1 {
            clock.close();
        }
    }
    clock.close();
    CoreReplay {
        admits,
        releases,
        admit_ns: clock.calibrated[ADMIT],
        release_ns: clock.calibrated[RELEASE],
        phase_ns: [
            clock.calibrated[PHASE],
            clock.calibrated[PHASE + 1],
            clock.calibrated[PHASE + 2],
            clock.calibrated[PHASE + 3],
        ],
    }
}

/// Calibrated microseconds per admission of the plain storm through
/// `make()`'s stack: the median of the rung's rounds.
fn ladder_us(
    workload: &Workload,
    apps: &[Application],
    steps: &[Step],
    mut make: impl FnMut() -> Box<dyn ResourceService + Send>,
) -> f64 {
    let rounds: Vec<f64> = (0..LADDER_ROUNDS)
        .map(|_| {
            let round = run_round(workload, apps, steps, Outer::Service(make()), None);
            round.timings.round_ns / steps.len() as f64 / 1e3
        })
        .collect();
    median(&rounds)
}

/// A platform with some of `apps` resident — what the O(platform) calls
/// are timed against.
fn loaded_manager(platform: &Platform, apps: &[Application], residents: usize) -> Kairos {
    let mut manager = Kairos::new(platform.clone(), manager_config(false));
    for app in apps {
        if manager.admitted_count() == residents {
            break;
        }
        let _ = manager.admit(app);
    }
    manager
}

/// Mean calibrated microseconds per call of `call`, over `reps` calls
/// timed as one window.
fn per_call_us(reps: usize, mut call: impl FnMut()) -> f64 {
    let mut clock: CalClock<1> = CalClock::start();
    clock.stage(0, || (0..reps).for_each(|_| call()));
    clock.calibrated[0] / reps as f64 / 1e3
}

/// The O(platform) direct calls on one topology.
fn platform_calls(
    kind: PlatformKind,
    apps: &[Application],
    values: &mut BTreeMap<&'static str, f64>,
) {
    let (reps, residents, names) = match kind {
        PlatformKind::Crisp => (
            200,
            4,
            [
                "platform.build_us.crisp",
                "platform.clone_us.crisp",
                "platform.frag_us.crisp",
                "opcache.stamp_us.crisp",
            ],
        ),
        PlatformKind::Mesh16 => (
            40,
            24,
            [
                "platform.build_us.mesh16",
                "platform.clone_us.mesh16",
                "platform.frag_us.mesh16",
                "opcache.stamp_us.mesh16",
            ],
        ),
    };
    values.insert(
        names[0],
        per_call_us(reps, || {
            black_box(storm::build_platform(kind));
        }),
    );
    let manager = loaded_manager(&storm::build_platform(kind), apps, residents);
    let platform = manager.platform();
    values.insert(
        names[1],
        per_call_us(reps, || {
            black_box(platform.clone());
        }),
    );
    values.insert(
        names[2],
        per_call_us(reps, || {
            black_box(manager.fragmentation());
        }),
    );
    values.insert(
        names[3],
        per_call_us(reps, || {
            black_box(stamp_of(platform));
        }),
    );
}

/// Direct calls on the workload's own platform and applications.
fn workload_calls(
    workload: &Workload,
    prepared: &Prepared,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let platform = &prepared.platform;
    // An evenly spaced sample of the dataset-ordered catalogue.
    let catalogue = &prepared.catalogue.apps;
    let apps: Vec<Application> =
        catalogue.iter().step_by((catalogue.len() / SAMPLE_APPS).max(1)).cloned().collect();
    let apps = &apps[..];
    let loaded = loaded_manager(platform, apps, workload.resident_cap / 2 + 1);

    // shape_of over the sample.
    let mut clock: CalClock<1> = CalClock::start();
    clock.stage(0, || {
        apps.iter().for_each(|app| {
            black_box(shape_of(app));
        })
    });
    values.insert("opcache.shape_us", clock.calibrated[0] / apps.len() as f64 / 1e3);

    // probe_admit (a full pipeline run plus rollback) on the loaded manager.
    let mut manager = loaded.clone();
    let mut clock: CalClock<1> = CalClock::start();
    clock.stage(0, || apps.iter().for_each(|app| drop(manager.probe_admit(app))));
    values.insert("core.probe_us", clock.calibrated[0] / apps.len() as f64 / 1e3);

    // Rollback of a real mapping's claims: bind + map inside a
    // transaction, then time the rollback alone.
    let mut scratch = loaded.platform().clone();
    let mut clock: CalClock<1> = CalClock::start();
    let mut rollbacks = 0usize;
    for app in apps {
        scratch.begin_txn();
        let mapped = bind(app, &scratch).ok().and_then(|binding| {
            map_application(app, &binding, &mut scratch, AppId(u32::MAX), &MapperConfig::default())
                .ok()
        });
        if mapped.is_some() {
            clock.time(0, || scratch.rollback_txn());
            rollbacks += 1;
        } else {
            scratch.rollback_txn();
        }
    }
    clock.close();
    values.insert("platform.rollback_us", clock.calibrated[0] / rollbacks.max(1) as f64 / 1e3);

    // Application generation, per application.
    let mut clock: CalClock<1> = CalClock::start();
    let pool = clock.stage(0, || storm::generate_pool(workload));
    values.insert("appgen.gen_us_per_app", clock.calibrated[0] / pool.len() as f64 / 1e3);

    // The SDF state-space analysis on the models validation builds, over
    // every generated application and with the *default* event budget —
    // the validation outliers the storms' bounded budget cuts short are
    // measured here, where no admission order decides whether they run.
    // Layouts come from a manager with validation off, so the analysis
    // runs once, inside the clock.
    let layouts = KairosConfig { validate: false, ..KairosConfig::default() };
    let mut manager = Kairos::new(platform.clone(), layouts);
    let validation = ValidationConfig::default();
    let config = StateSpaceConfig { max_events: validation.max_events };
    let mut clock: CalClock<1> = CalClock::start();
    let mut analysed = 0usize;
    for (i, app) in pool.iter().enumerate() {
        let Ok(report) = manager.admit(app) else { continue };
        manager.release(report.app_id);
        let model = layout_to_sdf(app, &report.layout, &validation);
        let reference = app
            .tasks()
            .find(|t| t.role() == TaskRole::Output)
            .map_or(ActorId(0), |t| ActorId(t.id().0));
        clock.time(0, || {
            let _ = black_box(throughput_with(&model, reference, &config));
        });
        analysed += 1;
        if i % WINDOW_OPS == WINDOW_OPS - 1 {
            clock.close();
        }
    }
    clock.close();
    values.insert("sdf.throughput_us", clock.calibrated[0] / analysed.max(1) as f64 / 1e3);

    // Cold pipeline versus cached replay of the same admission: on an
    // empty platform the state stamp recurs after a release, so the
    // second admission of a shape is a hit.
    let mut manager = Kairos::new(platform.clone(), manager_config(true));
    let mut clock: CalClock<2> = CalClock::start();
    let mut pairs = 0usize;
    for app in apps {
        let Ok(cold) = clock.time(0, || manager.admit(app)) else { continue };
        manager.release(cold.app_id);
        if let Ok(warm) = clock.time(1, || manager.admit(app)) {
            manager.release(warm.app_id);
        }
        pairs += 1;
    }
    clock.close();
    values.insert("opcache.miss_admit_us", clock.calibrated[0] / pairs.max(1) as f64 / 1e3);
    values.insert("opcache.hit_admit_us", clock.calibrated[1] / pairs.max(1) as f64 / 1e3);

    // Stack construction over an already-built platform.
    let mut clock: CalClock<1> = CalClock::start();
    let reps = 50;
    for _ in 0..reps {
        let copy = platform.clone();
        clock.time(0, || drop(ServiceBuilder::new(copy).config(manager_config(false)).build()));
    }
    clock.close();
    values.insert("svc.build_us", clock.calibrated[0] / reps as f64 / 1e3);

    // The cluster's wave entry points on a concrete 2-shard cluster:
    // the state-neutral probe fan-out, and batched submission (released
    // again outside the clock).
    let mut fleet = ClusterBuilder::new(platform.clone(), SHARDS)
        .config(manager_config(false))
        .build()
        .expect("two shards fit every benchmark platform");
    let mut clock: CalClock<2> = CalClock::start();
    let mut waves = 0usize;
    for wave in apps.chunks(WAVE) {
        clock.time(0, || drop(fleet.probe_admit_wave(wave)));
        let requests: Vec<Request> =
            wave.iter().map(|app| Request::admit(0, app.clone(), PriorityClass::Normal)).collect();
        let events = clock.time(1, || {
            fleet.submit_batch(requests);
            fleet.take_events()
        });
        for event in events {
            if let kairos::svc::Event::Admitted { report, .. } = event {
                fleet.submit(Request::release(0, report.app_id));
            }
        }
        fleet.take_events();
        waves += 1;
    }
    clock.close();
    values.insert("cluster.probe_wave_us", clock.calibrated[0] / waves.max(1) as f64 / 1e3);
    values.insert("cluster.batch_us", clock.calibrated[1] / waves.max(1) as f64 / 1e3);
}

/// The observer and sim guards: the whole scenario catalog once, and one
/// queued scenario with the watch layer off and on.
fn sim_guards(values: &mut BTreeMap<&'static str, f64>) {
    let mut clock: CalClock<1> = CalClock::start();
    let mut events = 0u64;
    for scenario in Scenario::catalog() {
        let report =
            clock.stage(0, || Simulator::new(scenario).expect("catalog scenarios are valid").run());
        events += report.totals.arrivals + report.totals.departures;
    }
    let catalog_s = clock.calibrated[0] / 1e9;
    values.insert("sim.catalog_s", catalog_s);
    values.insert("sim.events_per_s", events as f64 / catalog_s);

    let mut dark = Scenario::by_name("overload-backpressure").expect("catalog scenario");
    dark.watch = None;
    dark.power = None;
    let mut lit = dark.clone();
    lit.watch = Some(WatchSpec::default());
    let mut clock: CalClock<2> = CalClock::start();
    for _ in 0..3 {
        for (slot, scenario) in [(0, &dark), (1, &lit)] {
            clock.stage(slot, || {
                Simulator::new(scenario.clone()).expect("catalog scenario is valid").run()
            });
        }
    }
    values.insert("watch.lit_ratio", clock.calibrated[1] / clock.calibrated[0]);
}

pub fn run(workload: &Workload, seed: u64) -> TraceRun {
    let prepared = run::prepare(workload, seed, 1, 1);
    let mut collector = Collector::new(workload, &prepared);
    let warm = run::round(workload, &prepared, 0, None);
    collector.check(0, &warm.counts, "warm-up");

    // The workload itself, untraced and traced in alternation.
    let tracer = Tracer::new();
    let mut traced_ns = Vec::new();
    let mut traced_scales = Vec::new();
    let mut sched = SchedStat::default();
    for _ in 0..TRACE_PAIRS {
        let before = SchedStat::now();
        let dark = run::round(workload, &prepared, 0, None);
        let used = SchedStat::now().since(before);
        sched.run_ns += used.run_ns;
        sched.wait_ns += used.wait_ns;
        collector.push(0, dark);
        let lit = run::round(workload, &prepared, 0, Some(&tracer));
        collector.check(0, &lit.counts, "traced round");
        traced_ns.push(lit.timings.round_ns);
        traced_scales.push(lit.timings.round_ns / lit.timings.raw_round_ns);
    }
    let measured = collector.finish();
    let counts = &measured.counts;
    let admits = counts.attempted as f64;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert(
        "trace.overhead_ratio",
        (admits / (median(&traced_ns) / 1e9)) / measured.ops_per_s(),
    );
    values.insert("host.calib_factor", measured.calib_factor());
    values.insert("host.raw_ops_per_s", measured.raw_ops_per_s());
    values.insert("host.cpu_us_per_op", sched.run_ns / 1e3 / (admits * TRACE_PAIRS as f64));
    values.insert("host.rq_wait_ms", sched.wait_ns / 1e6);

    // Exact counters of the workload's own rounds.
    let cache = counts.cache.unwrap_or_default();
    values.insert("opcache.hits", cache.hits as f64);
    values.insert("opcache.misses", cache.misses as f64);
    values.insert("opcache.insertions", cache.insertions as f64);
    values.insert("opcache.evictions", cache.evictions as f64);
    values.insert("opcache.invalidations", cache.invalidations as f64);
    values.insert("opcache.hit_ratio", hit_ratio(cache.hits, cache.misses));
    let gateway = counts.gateway.unwrap_or_default();
    values.insert("gateway.parked", gateway.parked as f64);
    values.insert("gateway.peak_inflight", gateway.peak_inflight as f64);
    values.insert("admitd.queued", counts.queued as f64);
    let queued = workload.stack == Stack::Queued;
    let per_admitted =
        |sum: u64| if queued { sum as f64 / counts.admitted.max(1) as f64 } else { 0.0 };
    values.insert("admitd.attempts_mean", per_admitted(counts.attempts_sum));
    values.insert("admitd.wait_ticks_mean", per_admitted(counts.wait_ticks_sum));
    values.insert("admitd.timeouts", if queued { counts.reject_timeout as f64 } else { 0.0 });
    let per_call = |total: fn(&crate::drive::Timings) -> (f64, u64)| {
        let samples: Vec<f64> = measured
            .rounds()
            .map(|r| total(&r.timings))
            .filter(|&(_, calls)| calls > 0)
            .map(|(ns, calls)| ns / calls as f64 / 1e3)
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    };
    values.insert("admitd.pump_us", per_call(|t| (t.pump_ns, t.pumps)));
    values.insert("reloc.defrag_us", per_call(|t| (t.defrag_ns, t.defrags)));
    values.insert("reloc.preemptions", counts.preemptions as f64);
    values.insert("reloc.readmitted", counts.readmitted as f64);
    values.insert("reloc.moves", counts.moves as f64);
    for (name, phase) in ["reject.binding", "reject.mapping", "reject.routing", "reject.validation"]
        .into_iter()
        .zip(0..)
    {
        values.insert(name, counts.reject_phase[phase] as f64);
    }
    values.insert("reject.queue_full", counts.reject_queue_full as f64);
    values.insert("reject.timeout", counts.reject_timeout as f64);
    values.insert("reject.retries", counts.reject_retries as f64);

    // The ladder.
    let plain = plain_storm(&prepared.sequences[0]);
    let apps = &prepared.catalogue.apps;
    let ladder = Workload { wave: 1, ..*workload };
    let platform = &prepared.platform;
    let mut core_rounds: Vec<CoreReplay> =
        (0..LADDER_ROUNDS).map(|_| core_replay(&ladder, apps, &plain, platform)).collect();
    core_rounds.sort_by(|a, b| (a.admit_ns + a.release_ns).total_cmp(&(b.admit_ns + b.release_ns)));
    let core = &core_rounds[LADDER_ROUNDS / 2];
    let core_us = (core.admit_ns + core.release_ns) / core.admits / 1e3;
    let phase_total: f64 = core.phase_ns.iter().sum();
    for (name, ns) in
        ["core.binding_us", "core.mapping_us", "core.routing_us", "core.validation_us"]
            .into_iter()
            .zip(core.phase_ns)
    {
        values.insert(name, ns / core.admits / 1e3);
    }
    values.insert("core.admit_self_us", (core.admit_ns - phase_total) / core.admits / 1e3);
    values.insert("core.release_us", core.release_ns / core.releases.max(1.0) / 1e3);
    let svc_us = ladder_us(&ladder, apps, &plain, || {
        Box::new(
            ServiceBuilder::new(platform.clone())
                .config(manager_config(false))
                .build()
                .expect("default policies are valid"),
        )
    });
    let one_shard_us = ladder_us(&ladder, apps, &plain, || cluster(platform.clone(), 1, false));
    let two_shard_us =
        ladder_us(&ladder, apps, &plain, || cluster(platform.clone(), SHARDS, false));
    values.insert("svc.tax_us", svc_us - core_us);
    values.insert("cluster.tax_us", one_shard_us - svc_us);
    values.insert("cluster.shard_tax_us", two_shard_us - one_shard_us);
    // The top rung is measured directly instead of by difference: the
    // gateway's inner service records spans, and the gateway's self time
    // is what its own calls took less what the cluster's took inside them.
    let gateway_self_us: Vec<f64> = (0..LADDER_ROUNDS)
        .map(|_| {
            let spans = Tracer::new();
            let inner = Spanned::new(
                cluster(platform.clone(), SHARDS, false),
                CLUSTER_SPANS,
                spans.clone(),
            );
            let gateway = Gateway::new(Box::new(inner), GatewayConfig::default());
            let outer = Outer::Service(Box::new(gateway));
            let round = run_round(&ladder, apps, &plain, outer, Some(&spans));
            let self_ns: u64 = spans
                .self_times()
                .iter()
                .filter(|(name, _)| name.starts_with("outer."))
                .map(|(_, &(ns, _))| ns)
                .sum();
            let scale = round.timings.round_ns / round.timings.raw_round_ns;
            self_ns as f64 * scale / plain.len() as f64 / 1e3
        })
        .collect();
    values.insert("gateway.self_us", median(&gateway_self_us));

    // The 2-shard rung once more with the telemetry hub lit: its cost,
    // and the product's own count of pipeline runs per admission.
    let hub = Telemetry::new(TelemetryConfig { wall_clock: true, ..TelemetryConfig::default() });
    let lit_us = ladder_us(&ladder, apps, &plain, || {
        Box::new(
            ClusterBuilder::new(platform.clone(), SHARDS)
                .config(manager_config(false))
                .telemetry(hub.clone())
                .build()
                .expect("two shards fit every benchmark platform"),
        )
    });
    values.insert("telemetry.lit_ratio", lit_us / two_shard_us);
    let count = |name: &str| hub.counter(name).map_or(0, |c| c.get()) as f64;
    let runs = count("kairos.core.probes")
        + count("kairos.core.admit.ok")
        + count("kairos.core.admit.fail");
    values.insert("cluster.pipeline_runs_per_admit", runs / (LADDER_ROUNDS * plain.len()) as f64);

    // Direct calls.
    platform_calls(PlatformKind::Crisp, apps, &mut values);
    platform_calls(PlatformKind::Mesh16, apps, &mut values);
    workload_calls(workload, &prepared, &mut values);
    sim_guards(&mut values);

    let traced_admits = measured.counts.attempted * TRACE_PAIRS as u64;
    TraceRun { measured, values, tracer, traced_scale: median(&traced_scales), traced_admits }
}
