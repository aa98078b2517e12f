//! The benchmark's declarations: workloads, end-to-end metrics and
//! per-layer metrics. The run, the `--benchmark-json` emitter, the
//! `--compare` gate and the README tables all read these, so a name
//! cannot drift between them (a test pins the committed `BENCHMARK.json`
//! to the emitter's output).

use kairos::sim::json::Json;

use Better::{Higher, Lower};

/// How long one run's timed rounds last, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;
/// Storms a run draws from its seed; each is replayed once per pass.
pub const SEQUENCES: usize = 6;
/// Passes a run never goes below, whatever `--seconds` says: the median
/// across a sequence's replays needs three.
pub const MIN_PASSES: usize = 3;
/// Ops between two calibration-kernel samples.
pub const WINDOW_OPS: usize = 32;
/// How often the deterministic part of set-up is repeated (median kept).
pub const SETUP_REPS: usize = 3;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 2010;

/// Which platform a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// `topology::crisp()` — the paper's platform.
    Crisp,
    /// `topology::heterogeneous_mesh(16, 16)` — the scale axis.
    Mesh16,
}

/// Which service stack a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// A direct (queue-less) `KairosService`, one admit per `submit`.
    Direct,
    /// `Gateway` over a 2-shard `ClusterService`, waves through
    /// `enqueue` + `drive`; `cached` turns the operating-point cache on.
    Gateway { cached: bool },
    /// A queued `KairosService` with migrate-preemption.
    Queued,
}

/// One benchmark workload. A round's size is a fixed op count (`cycles`
/// times the draw order), never time-boxed, so a round is the same work
/// on every commit.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub platform: PlatformKind,
    pub stack: Stack,
    /// Times a sequence goes through the draw order (the catalogue, or
    /// the recurring shapes). Every application is asked for exactly this
    /// often in every sequence of every seed: per-application cost is so
    /// heavy-tailed that one expensive application asked for twice
    /// instead of once moved a round's time by a tenth.
    pub cycles: usize,
    /// Distinct applications generated per Table-I dataset before the
    /// paper's extraneous-sample filter.
    pub pool_per_dataset: usize,
    /// Draw admissions from these recurring shapes (catalogue
    /// applications, by name) instead of the whole catalogue.
    pub recurring: Option<&'static [&'static str]>,
    /// FIFO lifetime cap: the oldest resident leaves once more than this
    /// many applications are resident.
    pub resident_cap: usize,
    /// Admissions handed over per wave (1 = one `submit` per request).
    pub wave: usize,
    /// A scripted `InjectFault` every this many admits (`Repair` follows
    /// a quarter period later).
    pub fault_every: Option<usize>,
    /// A `Defrag` sweep every this many admits.
    pub defrag_every: Option<usize>,
}

/// The six recurring shapes of `cluster2-recurring-cached`: five of the
/// six datasets, three to thirteen tasks. Which six matters — the share
/// of lookups that recur against an unchanged shard state, and the share
/// of requests refused, both follow from what fits beside what — so they
/// are named, not drawn: with these the workload sits well inside its
/// two regime gates on every seed (hit ratio 0.59, reject share 0.44).
const RECURRING_SHAPES: [&str; 6] = [
    "communication-small-72",
    "communication-medium-36",
    "computation-small-6",
    "computation-small-179",
    "computation-medium-99",
    "computation-large-43",
];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "crisp-churn",
        why: "the paper's regime: all six Table-I datasets on CRISP through a direct service; validation and mapping dominate, nothing above svc runs",
        platform: PlatformKind::Crisp,
        stack: Stack::Direct,
        cycles: 2,
        pool_per_dataset: 256,
        recurring: None,
        resident_cap: 6,
        wave: 1,
        fault_every: None,
        defrag_every: None,
    },
    Workload {
        name: "mesh16-churn",
        why: "the scale axis: the same traffic on a 16x16 heterogeneous mesh; mapping search and the O(platform) paths dominate, validation shrinks",
        platform: PlatformKind::Mesh16,
        stack: Stack::Direct,
        cycles: 1,
        pool_per_dataset: 160,
        recurring: None,
        resident_cap: 40,
        wave: 1,
        fault_every: None,
        defrag_every: None,
    },
    Workload {
        name: "cluster2-storm",
        why: "the serving stack: gateway over a 2-shard cluster, cache off, waves of 8; every admission pays probe fan-out plus a second pipeline run and three ticket translations",
        platform: PlatformKind::Crisp,
        stack: Stack::Gateway { cached: false },
        cycles: 2,
        pool_per_dataset: 160,
        recurring: None,
        resident_cap: 5,
        wave: 8,
        fault_every: None,
        defrag_every: None,
    },
    Workload {
        name: "cluster2-recurring-cached",
        why: "the same stack with the operating-point cache on and six recurring shapes plus scripted faults: cache reads beside insertions, evictions and invalidation sweeps",
        platform: PlatformKind::Crisp,
        stack: Stack::Gateway { cached: true },
        cycles: 384,
        pool_per_dataset: 256,
        recurring: Some(&RECURRING_SHAPES),
        resident_cap: 3,
        wave: 8,
        fault_every: Some(256),
        defrag_every: None,
    },
    Workload {
        name: "queued-preempt",
        why: "the only path through admitd and reloc: queued service, four priority classes, migrate-preemption, time-outs, back-off and defrag sweeps",
        platform: PlatformKind::Crisp,
        stack: Stack::Queued,
        cycles: 1,
        pool_per_dataset: 256,
        recurring: None,
        resident_cap: 10,
        wave: 1,
        fault_every: None,
        defrag_every: Some(512),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric declaration; `bound` is `Some` for end-to-end metrics only.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// The end-to-end metrics. Each bound is at least three times the widest
/// quartile spread the metric showed over ten seeds on any workload (see
/// the README's noise table), except `admit_p99_us`, whose spread on the
/// two workloads with the thinnest tails is about half its bound.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.15),
    e2e("admit_p50_us", "us", Lower, 0.20),
    e2e("admit_p99_us", "us", Lower, 0.25),
    e2e("reject_share", "ratio", Lower, 0.05),
    e2e("hops_per_channel", "hops", Lower, 0.10),
    e2e("frag_mean", "ratio", Lower, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

pub const PER_LAYER: [Metric; 62] = [
    // core: the paper's Fig. 7 split, from the direct `Kairos` replay.
    layer("core.binding_us", "us", Lower),
    layer("core.mapping_us", "us", Lower),
    layer("core.routing_us", "us", Lower),
    layer("core.validation_us", "us", Lower),
    layer("core.admit_self_us", "us", Lower),
    layer("core.release_us", "us", Lower),
    layer("core.probe_us", "us", Lower),
    layer("sdf.throughput_us", "us", Lower),
    // platform, appgen and stack construction.
    layer("platform.frag_us.crisp", "us", Lower),
    layer("platform.frag_us.mesh16", "us", Lower),
    layer("platform.clone_us.crisp", "us", Lower),
    layer("platform.clone_us.mesh16", "us", Lower),
    layer("platform.rollback_us", "us", Lower),
    layer("platform.build_us.crisp", "us", Lower),
    layer("platform.build_us.mesh16", "us", Lower),
    layer("appgen.gen_us_per_app", "us", Lower),
    layer("svc.build_us", "us", Lower),
    // the wrappers' taxes on the same storm.
    layer("svc.tax_us", "us", Lower),
    layer("cluster.tax_us", "us", Lower),
    layer("cluster.shard_tax_us", "us", Lower),
    layer("cluster.probe_wave_us", "us", Lower),
    layer("cluster.batch_us", "us", Lower),
    layer("cluster.pipeline_runs_per_admit", "count", Lower),
    layer("gateway.self_us", "us", Lower),
    layer("gateway.parked", "count", Lower),
    layer("gateway.peak_inflight", "count", Lower),
    // the operating-point cache.
    layer("opcache.hits", "count", Higher),
    layer("opcache.misses", "count", Lower),
    layer("opcache.insertions", "count", Lower),
    layer("opcache.evictions", "count", Lower),
    layer("opcache.invalidations", "count", Lower),
    layer("opcache.hit_ratio", "ratio", Higher),
    layer("opcache.hit_admit_us", "us", Lower),
    layer("opcache.miss_admit_us", "us", Lower),
    layer("opcache.stamp_us.crisp", "us", Lower),
    layer("opcache.stamp_us.mesh16", "us", Lower),
    layer("opcache.shape_us", "us", Lower),
    // the admission queue and the relocation planner.
    layer("admitd.queued", "count", Lower),
    layer("admitd.attempts_mean", "count", Lower),
    layer("admitd.wait_ticks_mean", "ticks", Lower),
    layer("admitd.timeouts", "count", Lower),
    layer("admitd.pump_us", "us", Lower),
    layer("reloc.preemptions", "count", Lower),
    layer("reloc.readmitted", "count", Higher),
    layer("reloc.defrag_us", "us", Lower),
    layer("reloc.moves", "count", Lower),
    // Table I: who rejected.
    layer("reject.binding", "count", Lower),
    layer("reject.mapping", "count", Lower),
    layer("reject.routing", "count", Lower),
    layer("reject.validation", "count", Lower),
    layer("reject.queue_full", "count", Lower),
    layer("reject.timeout", "count", Lower),
    layer("reject.retries", "count", Lower),
    // observer and sim guards (every workload runs dark).
    layer("telemetry.lit_ratio", "ratio", Lower),
    layer("watch.lit_ratio", "ratio", Lower),
    layer("sim.catalog_s", "s", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    // what the calibration removed and what tracing costs.
    layer("host.calib_factor", "ratio", Lower),
    layer("host.raw_ops_per_s", "1/s", Higher),
    layer("host.cpu_us_per_op", "us", Lower),
    layer("host.rq_wait_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
];

fn metric_json(metric: &Metric) -> Json {
    let mut m = Json::object();
    m.push("name", metric.name).push("unit", metric.unit).push("better", metric.better.as_str());
    if let Some(bound) = metric.bound {
        m.push("bound", bound);
    }
    m
}

/// The `BENCHMARK.json` document, built from the tables above.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut doc = Json::object();
    doc.push("command", Json::Array(command.iter().map(|&s| Json::from(s)).collect()));
    doc.push("paths", Json::Array(vec![Json::from("benchmark")]));
    doc.push("run_seconds", RUN_SECONDS);
    doc.push(
        "workloads",
        Json::Array(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::object();
                    o.push("name", w.name).push("why", w.why);
                    o
                })
                .collect(),
        ),
    );
    doc.push("end_to_end", Json::Array(END_TO_END.iter().map(metric_json).collect()));
    doc.push("per_layer", Json::Array(PER_LAYER.iter().map(metric_json).collect()));
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn is_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    /// The limits the benchmark's consumers put on `BENCHMARK.json`.
    #[test]
    fn tables_stay_inside_the_declared_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| is_name(n)), "a name breaks the naming rule");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'), "{}", workload.name);
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_unit(metric.unit), "{}", metric.name);
        }
        for metric in &END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
