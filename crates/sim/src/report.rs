//! Aggregated simulation results.
//!
//! A [`SimReport`] is everything a scenario run leaves behind: total event
//! counts, rejections broken down by the admission pipeline phase that
//! refused them, per-workload-phase statistics, the sampled metric
//! time-series and the final platform state — plus, for scenarios with
//! [`Scenario::telemetry`](crate::Scenario::telemetry) enabled, the full
//! metric snapshot of the run's telemetry registry. Rendering to JSON is
//! deterministic — two runs of the same scenario produce byte-identical
//! reports; the telemetry section holds only name-ordered integers, so
//! it is byte-stable too.

use kairos_core::{CacheStats, OccupancySnapshot};
use kairos_gateway::GatewayCounters;
use kairos_telemetry::{MetricValue, Snapshot};

use crate::energy::EnergyReport;
use crate::json::Json;

/// Total event counts over a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Applications that arrived (offered for admission).
    pub arrivals: u64,
    /// Successful admissions of fresh arrivals (`arrivals == admissions +
    /// rejections`); re-admissions after faults are counted separately in
    /// [`Totals::readmissions`].
    pub admissions: u64,
    /// Refused admissions.
    pub rejections: u64,
    /// Applications that departed after their lifetime expired.
    pub departures: u64,
    /// Element faults injected.
    pub faults_injected: u64,
    /// Element repairs performed.
    pub repairs: u64,
    /// Applications evicted by element faults.
    pub evictions: u64,
    /// Evicted applications successfully re-admitted elsewhere.
    pub readmissions: u64,
    /// Evicted applications that could not be re-admitted.
    pub lost_to_faults: u64,
    /// Applications evicted by preemption (each re-enters the queue as a
    /// retryable request; `preemptions == preempt_readmissions +
    /// lost_to_preemption` once the run ends).
    pub preemptions: u64,
    /// Preempted applications that made it back in through the queue.
    pub preempt_readmissions: u64,
    /// Preempted applications that never made it back (timeout, retry
    /// exhaustion, full class queue, or still waiting at the horizon).
    pub lost_to_preemption: u64,
    /// Live migrations performed for blocked criticals (the migrated
    /// applications kept running throughout — no eviction).
    pub migrations: u64,
    /// Applications moved by defragmenting compaction sweeps.
    pub defrag_moves: u64,
    /// Applications moved between shards by cross-shard rebalancing
    /// sweeps (each move re-admits the application on another shard
    /// manager under a fresh id; it keeps running throughout).
    pub rebalance_moves: u64,
}

/// Statistics of one workload phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase name from the scenario.
    pub name: String,
    /// Phase start tick (inclusive).
    pub start: u64,
    /// Phase end tick (exclusive).
    pub end: u64,
    /// Arrivals during the phase.
    pub arrivals: u64,
    /// Admissions during the phase.
    pub admissions: u64,
    /// Rejections during the phase.
    pub rejections: u64,
    /// Departures during the phase.
    pub departures: u64,
    /// `rejections / arrivals`, `0` for arrival-free phases.
    pub rejection_rate: f64,
    /// Mean element utilisation over the phase's samples.
    pub mean_utilisation: f64,
    /// Mean external fragmentation over the phase's samples.
    pub mean_fragmentation: f64,
}

/// One point of the sampled metric time-series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Virtual time of the sample.
    pub at: u64,
    /// Platform occupancy metrics at that instant.
    pub occupancy: OccupancySnapshot,
    /// Admission-queue depth at that instant (`0` without a queue).
    pub queue_depth: u64,
}

/// Per-priority-class admission-queue statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassQueueStats {
    /// Class name (`critical`, `high`, `normal`, `low`).
    pub class: String,
    /// Requests that entered this class's queue.
    pub queued: u64,
    /// Requests of this class that were admitted.
    pub admitted: u64,
    /// Requests of this class that left unadmitted (any reason).
    pub dropped: u64,
    /// Sum of queue waits over this class's terminal outcomes, in ticks.
    pub total_wait: u64,
    /// Mean queue wait of this class's terminal outcomes, in ticks.
    pub mean_wait: f64,
    /// Median queue wait, bucket-interpolated from the engine's per-class
    /// wait histogram (`0` for classes with no terminal outcomes).
    pub wait_p50: u64,
    /// 95th-percentile queue wait, bucket-interpolated.
    pub wait_p95: u64,
    /// 99th-percentile queue wait, bucket-interpolated.
    pub wait_p99: u64,
}

/// Aggregated admission-queue behaviour over a whole run. All counters
/// are zero for scenarios without an admission policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueueReport {
    /// Whether the scenario ran with an admission queue at all.
    pub enabled: bool,
    /// Requests that entered the queue (refused-at-the-door requests are
    /// not queued and count only under `rejected_queue_full`).
    pub queued: u64,
    /// Requests admitted in their submission call, with zero wait.
    pub admitted_immediate: u64,
    /// Requests admitted later, by a capacity-event drain.
    pub admitted_after_wait: u64,
    /// Failed admission attempts of requests that stayed queued.
    pub retry_attempts: u64,
    /// Requests refused because their class was at capacity.
    pub rejected_queue_full: u64,
    /// Requests rejected on a permanent (structural) pipeline failure.
    pub rejected_permanent: u64,
    /// Requests dropped after waiting past the policy deadline.
    pub dropped_timeout: u64,
    /// Requests dropped after exhausting their retry budget.
    pub dropped_retries_exhausted: u64,
    /// Requests still queued when the run ended (flushed at shutdown).
    pub flushed_at_shutdown: u64,
    /// Largest total queue depth observed.
    pub max_depth: u64,
    /// Mean queue wait over all terminal outcomes of queued requests.
    pub mean_wait: f64,
    /// Largest queue wait observed among terminal outcomes.
    pub max_wait: u64,
    /// Per-priority-class breakdown, in drain order.
    pub by_class: Vec<ClassQueueStats>,
}

/// Per-priority-class end-to-end request-latency digest, computed from
/// the run's trace roots (exact nearest-rank percentiles over the sorted
/// root latencies — the population is complete, so no interpolation is
/// needed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTraceStats {
    /// Class name (`critical`, `high`, `normal`, `low`).
    pub class: String,
    /// Traced requests of this class.
    pub count: u64,
    /// Median end-to-end latency, in virtual ticks.
    pub p50: u64,
    /// 95th-percentile end-to-end latency.
    pub p95: u64,
    /// 99th-percentile end-to-end latency.
    pub p99: u64,
    /// Largest end-to-end latency observed.
    pub max: u64,
}

/// Aggregated causal-trace analysis over a whole run: how many request
/// traces and spans were recorded, the per-class latency digests, and
/// the critical-path breakdown — for each trace, which segment (queue
/// wait, losing probe, a pipeline phase, a preemption detour) dominated
/// its latency, tallied by segment name. `None` in [`SimReport::trace`]
/// unless the scenario enables
/// [`Scenario::trace`](crate::Scenario::trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Request traces recorded.
    pub traces: u64,
    /// Spans recorded across all traces.
    pub spans: u64,
    /// Per-class end-to-end latency digests, in drain order; classes
    /// with no traced requests are omitted.
    pub by_class: Vec<ClassTraceStats>,
    /// Dominant-segment tally: critical-path name → traces it dominated,
    /// in name order.
    pub critical_paths: Vec<(String, u64)>,
}

/// End-of-run serving counters from the `kairos-gateway`
/// [`Gateway`](kairos_gateway::Gateway) the scenario's service ran
/// behind. The gateway changes how requests reach the service, never
/// what the service decides, so with default knobs this section is the
/// *only* difference between a gatewayed report and its direct twin
/// (`tests/observers/mod.rs` pins exactly that). `None` in
/// [`SimReport::gateway`] unless the scenario sets
/// [`Scenario::gateway`](crate::Scenario::gateway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewayReport {
    /// The gateway's lifetime counters at the end of the run.
    pub counters: GatewayCounters,
    /// Per-shard request lanes the gateway striped traffic over.
    pub lanes: u64,
}

/// The complete result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed the run was driven by.
    pub seed: u64,
    /// Virtual length of the run.
    pub horizon: u64,
    /// Total event counts.
    pub totals: Totals,
    /// Rejections per admission pipeline phase, in pipeline order
    /// (binding, mapping, routing, validation).
    pub rejections_by_phase: Vec<(String, u64)>,
    /// Per-workload-phase statistics.
    pub phases: Vec<PhaseStats>,
    /// Admission-queue statistics (all-zero for queue-less runs).
    pub queue: QueueReport,
    /// Sampled metric time-series.
    pub samples: Vec<SamplePoint>,
    /// Platform state when the run ended.
    pub final_state: OccupancySnapshot,
    /// End-of-run snapshot of the telemetry registry — every counter,
    /// gauge and histogram the whole stack recorded, in name order.
    /// `None` unless the scenario enables
    /// [`Scenario::telemetry`](crate::Scenario::telemetry); the JSON
    /// rendering omits its `telemetry` key then, keeping legacy reports
    /// byte-identical.
    pub telemetry: Option<Snapshot>,
    /// End-of-run causal-trace analysis. `None` unless the scenario
    /// enables [`Scenario::trace`](crate::Scenario::trace); the JSON
    /// rendering omits its `trace` key then. All fields are integers
    /// derived from virtual-tick spans, so the section is byte-stable.
    pub trace: Option<TraceReport>,
    /// End-of-run operating-point cache statistics, summed over every
    /// shard manager's cache ([`CacheConfig`](kairos_core::CacheConfig)).
    /// `None` unless the scenario enables
    /// [`Scenario::cache`](crate::Scenario::cache); the JSON rendering
    /// omits its `cache` key then, keeping legacy reports
    /// byte-identical. The cache changes which work runs, never what is
    /// decided, so this section is the only difference between a cached
    /// report and its cache-off twin (`tests/observers/mod.rs` pins
    /// that). All fields are lifetime counters, so the section is
    /// byte-stable.
    pub cache: Option<CacheStats>,
    /// End-of-run gateway serving counters. `None` unless the scenario
    /// sets [`Scenario::gateway`](crate::Scenario::gateway); the JSON
    /// rendering omits its `gateway` key then, keeping legacy reports
    /// byte-identical. All fields are lifetime counters, so the section
    /// is byte-stable.
    pub gateway: Option<GatewayReport>,
    /// End-of-run energy account of the simulator's energy meter.
    /// `None` unless the scenario sets
    /// [`Scenario::power`](crate::Scenario::power) (or
    /// [`Scenario::watch`](crate::Scenario::watch)); the JSON rendering
    /// omits its `energy` key then, keeping legacy reports
    /// byte-identical. Every field is an integer milliwatt-tick or
    /// milliwatt quantity over virtual time, so the section is
    /// byte-stable.
    pub energy: Option<EnergyReport>,
}

/// A metric snapshot as an ordered JSON object: one key per metric (the
/// snapshot is already name-sorted), counters and gauges as bare
/// integers, histograms as `{count, sum, min, max, bounds, buckets}`
/// objects. Every value is an integer, so the rendering is byte-stable.
fn telemetry_json(snapshot: &Snapshot) -> Json {
    let mut doc = Json::object();
    for metric in &snapshot.metrics {
        match &metric.value {
            MetricValue::Counter(v) => doc.push(&metric.name, *v),
            MetricValue::Gauge(v) => doc.push(&metric.name, *v),
            MetricValue::Histogram(h) => {
                let mut hist = Json::object();
                hist.push("count", h.count);
                hist.push("sum", h.sum);
                hist.push("min", h.min);
                hist.push("max", h.max);
                hist.push("bounds", h.bounds.iter().map(|&b| Json::UInt(b)).collect::<Vec<_>>());
                hist.push("buckets", h.buckets.iter().map(|&b| Json::UInt(b)).collect::<Vec<_>>());
                doc.push(&metric.name, hist)
            }
        };
    }
    doc
}

/// The trace analysis as an ordered JSON object; every value is an
/// integer, so the rendering is byte-stable.
fn trace_json(report: &TraceReport) -> Json {
    let mut doc = Json::object();
    doc.push("traces", report.traces);
    doc.push("spans", report.spans);
    let by_class = report
        .by_class
        .iter()
        .map(|c| {
            let mut class = Json::object();
            class.push("class", c.class.as_str());
            class.push("count", c.count);
            class.push("p50", c.p50);
            class.push("p95", c.p95);
            class.push("p99", c.p99);
            class.push("max", c.max);
            class
        })
        .collect::<Vec<_>>();
    doc.push("by_class", by_class);
    let mut critical = Json::object();
    for (name, count) in &report.critical_paths {
        critical.push(name, *count);
    }
    doc.push("critical_paths", critical);
    doc
}

/// The energy account as an ordered JSON object; every value is an
/// integer milliwatt-tick or milliwatt quantity, so the rendering is
/// byte-stable.
fn energy_json(report: &EnergyReport) -> Json {
    let mut doc = Json::object();
    doc.push("horizon", report.horizon);
    doc.push("samples", report.samples);
    doc.push("total_mw_ticks", report.total_mw_ticks);
    doc.push("busy_mw_ticks", report.busy_mw_ticks);
    doc.push("idle_mw_ticks", report.idle_mw_ticks);
    let mut by_kind = Json::object();
    for kind in &report.by_kind {
        by_kind.push(&kind.kind, kind.mw_ticks);
    }
    doc.push("by_kind", by_kind);
    let packages = report
        .packages
        .iter()
        .map(|p| {
            let mut package = Json::object();
            package.push("name", p.name.as_str());
            package.push("mw_ticks", p.mw_ticks);
            package.push("peak_mw", p.peak_mw);
            package
        })
        .collect::<Vec<_>>();
    doc.push("packages", packages);
    let series = report
        .series
        .iter()
        .map(|p| {
            let mut point = Json::object();
            point.push("at", p.at);
            point.push("total_mw", p.total_mw);
            point.push(
                "package_mw",
                p.package_mw.iter().map(|&mw| Json::UInt(mw)).collect::<Vec<_>>(),
            );
            point
        })
        .collect::<Vec<_>>();
    doc.push("series", series);
    let top_apps = report
        .top_apps
        .iter()
        .map(|a| {
            let mut app = Json::object();
            app.push("app", a.app);
            app.push("mw_ticks", a.mw_ticks);
            app
        })
        .collect::<Vec<_>>();
    doc.push("top_apps", top_apps);
    doc
}

fn occupancy_json(o: &OccupancySnapshot) -> Json {
    let mut doc = Json::object();
    doc.push("admitted_apps", o.admitted_apps);
    doc.push("element_utilisation", o.element_utilisation);
    doc.push("resource_utilisation", o.resource_utilisation);
    doc.push("external_fragmentation", o.external_fragmentation);
    doc.push("free_islands", o.free_islands);
    doc.push("failed_elements", o.failed_elements);
    doc
}

impl SimReport {
    /// The report as an ordered JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.push("scenario", self.scenario.as_str());
        doc.push("seed", self.seed);
        doc.push("horizon", self.horizon);

        let mut totals = Json::object();
        totals.push("arrivals", self.totals.arrivals);
        totals.push("admissions", self.totals.admissions);
        totals.push("rejections", self.totals.rejections);
        totals.push("departures", self.totals.departures);
        totals.push("faults_injected", self.totals.faults_injected);
        totals.push("repairs", self.totals.repairs);
        totals.push("evictions", self.totals.evictions);
        totals.push("readmissions", self.totals.readmissions);
        totals.push("lost_to_faults", self.totals.lost_to_faults);
        totals.push("preemptions", self.totals.preemptions);
        totals.push("preempt_readmissions", self.totals.preempt_readmissions);
        totals.push("lost_to_preemption", self.totals.lost_to_preemption);
        totals.push("migrations", self.totals.migrations);
        totals.push("defrag_moves", self.totals.defrag_moves);
        totals.push("rebalance_moves", self.totals.rebalance_moves);
        doc.push("totals", totals);

        let mut rejections = Json::object();
        for (phase, count) in &self.rejections_by_phase {
            rejections.push(phase, *count);
        }
        doc.push("rejections_by_phase", rejections);

        let phases = self
            .phases
            .iter()
            .map(|p| {
                let mut phase = Json::object();
                phase.push("name", p.name.as_str());
                phase.push("start", p.start);
                phase.push("end", p.end);
                phase.push("arrivals", p.arrivals);
                phase.push("admissions", p.admissions);
                phase.push("rejections", p.rejections);
                phase.push("departures", p.departures);
                phase.push("rejection_rate", p.rejection_rate);
                phase.push("mean_utilisation", p.mean_utilisation);
                phase.push("mean_fragmentation", p.mean_fragmentation);
                phase
            })
            .collect::<Vec<_>>();
        doc.push("phases", phases);

        let mut queue = Json::object();
        queue.push("enabled", self.queue.enabled);
        queue.push("queued", self.queue.queued);
        queue.push("admitted_immediate", self.queue.admitted_immediate);
        queue.push("admitted_after_wait", self.queue.admitted_after_wait);
        queue.push("retry_attempts", self.queue.retry_attempts);
        queue.push("rejected_queue_full", self.queue.rejected_queue_full);
        queue.push("rejected_permanent", self.queue.rejected_permanent);
        queue.push("dropped_timeout", self.queue.dropped_timeout);
        queue.push("dropped_retries_exhausted", self.queue.dropped_retries_exhausted);
        queue.push("flushed_at_shutdown", self.queue.flushed_at_shutdown);
        queue.push("max_depth", self.queue.max_depth);
        queue.push("mean_wait", self.queue.mean_wait);
        queue.push("max_wait", self.queue.max_wait);
        let by_class = self
            .queue
            .by_class
            .iter()
            .map(|c| {
                let mut class = Json::object();
                class.push("class", c.class.as_str());
                class.push("queued", c.queued);
                class.push("admitted", c.admitted);
                class.push("dropped", c.dropped);
                class.push("total_wait", c.total_wait);
                class.push("mean_wait", c.mean_wait);
                class.push("wait_p50", c.wait_p50);
                class.push("wait_p95", c.wait_p95);
                class.push("wait_p99", c.wait_p99);
                class
            })
            .collect::<Vec<_>>();
        queue.push("by_class", by_class);
        doc.push("queue", queue);

        let samples = self
            .samples
            .iter()
            .map(|s| {
                let mut sample = Json::object();
                sample.push("at", s.at);
                sample.push("occupancy", occupancy_json(&s.occupancy));
                sample.push("queue_depth", s.queue_depth);
                sample
            })
            .collect::<Vec<_>>();
        doc.push("samples", samples);

        doc.push("final_state", occupancy_json(&self.final_state));
        if let Some(snapshot) = &self.telemetry {
            doc.push("telemetry", telemetry_json(snapshot));
        }
        if let Some(trace) = &self.trace {
            doc.push("trace", trace_json(trace));
        }
        if let Some(cache) = &self.cache {
            let mut section = Json::object();
            section.push("hits", cache.hits);
            section.push("misses", cache.misses);
            // Always 0 (see `CacheStats::invalidations`); kept as a key.
            section.push("invalidations", cache.invalidations);
            section.push("insertions", cache.insertions);
            section.push("evictions", cache.evictions);
            section.push("points", cache.points);
            doc.push("cache", section);
        }
        if let Some(gateway) = &self.gateway {
            let mut section = Json::object();
            let counters = &gateway.counters;
            section.push("submitted", counters.submitted);
            section.push("forwarded", counters.forwarded);
            section.push("singles", counters.singles);
            section.push("batches", counters.batches);
            section.push("coalesced", counters.coalesced);
            section.push("completions", counters.completions);
            section.push("peak_inflight", counters.peak_inflight);
            section.push("parked", counters.parked);
            section.push("lanes", gateway.lanes);
            doc.push("gateway", section);
        }
        if let Some(energy) = &self.energy {
            doc.push("energy", energy_json(energy));
        }
        doc
    }

    /// The report rendered as a JSON string, byte-for-byte deterministic
    /// for identical runs.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}
