//! # kairos-telemetry
//!
//! The unified observability layer of the Kairos workspace: an atomic
//! metrics registry and request-scoped causal traces behind one
//! cheap-clone [`Telemetry`] handle.
//!
//! The paper's evaluation measures the run-time cost of every allocation
//! phase; before this crate that signal existed only as diagnostic-only
//! `PhaseTimings`, with each subsystem hand-rolling its own tallies. Now
//! every layer — the core pipeline, the admission front-end, the
//! relocation planners, the service surface, the cluster fan-out and the
//! gateway — records through the same two planes, and the sim engine
//! embeds what they recorded in its report:
//!
//! * **Metrics** — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s in a [`Registry`], recorded with single relaxed
//!   atomics on the hot path and frozen into a name-ordered [`Snapshot`]
//!   that renders as a Prometheus text exposition
//!   ([`Snapshot::render_text`]) or embeds as byte-stable JSON in the sim
//!   report.
//! * **Request traces** — with [`TelemetryConfig::tracing`] on, a
//!   [`TraceContext`] minted per service request
//!   ([`Telemetry::trace_root`]) propagates by value through queue
//!   residency, probe fan-out, pipeline phases and preemption detours;
//!   the hub assembles the recorded [`SpanRecord`]s into deterministic
//!   virtual-time span trees, digests them with the critical-path
//!   analyzer ([`summarize`]) and exports Chrome-trace-event timelines
//!   ([`chrome_trace`], [`Telemetry::chrome_trace`]).
//!
//! ## Determinism rules
//!
//! Telemetry must never perturb what it observes:
//!
//! 1. A disabled handle ([`Telemetry::disabled`]) is a `None`; every
//!    operation behind it is one pointer test. No instrumented code path
//!    branches on a recorded value, so enabled-vs-disabled runs make
//!    identical decisions (the observer-effect property test pins the
//!    resulting reports byte-identical).
//! 2. In the default deterministic mode
//!    ([`TelemetryConfig::wall_clock`] `= false`, the analogue of the
//!    zero `PhaseClock`) every recorded duration is `0`, so duration
//!    histograms — counts, sums, min/max — are a pure function of the
//!    operation sequence.
//! 3. Snapshots iterate the registry in name order and hold only
//!    integers; rendering is byte-stable for identical runs. The product
//!    spawns no thread, so every instrument is written in the operation
//!    order of the one thread driving the stack.
//! 4. Request traces carry only virtual ticks handed in by the caller
//!    and ids come from one sequence, allocated in that same operation
//!    order. Dumps sort by `(trace, id)`, so trace exports are
//!    byte-stable too.
//!
//! See `docs/OBSERVABILITY.md` for the trace model and the metric-name
//! catalogue.
//!
//! ## Example
//!
//! ```
//! use kairos_telemetry::{Telemetry, TelemetryConfig};
//!
//! let telemetry = Telemetry::new(TelemetryConfig { tracing: true, ..TelemetryConfig::default() });
//! let admissions = telemetry.counter("kairos.example.admissions").unwrap();
//! let latency = telemetry.histogram("kairos.example.ns", &[1_000, 1_000_000]).unwrap();
//!
//! let request = telemetry.trace_root("request", 0, &[]);
//! let start = telemetry.clock();
//! admissions.inc();
//! latency.record(Telemetry::elapsed_ns(start)); // 0 when deterministic
//! telemetry.trace_child(request, "admit", 0, 2, &[]);
//! telemetry.trace_close(request, 2, &[("outcome", "admitted".into())]);
//!
//! assert!(telemetry.render_text().contains("kairos_example_admissions 1"));
//! assert_eq!(telemetry.trace_dump().len(), 2); // the root and its child
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hub;
mod metric;
mod registry;
mod trace;

pub use hub::{Telemetry, TelemetryConfig};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricSnapshot, MetricValue, Registry, Snapshot};
pub use trace::{chrome_trace, summarize, SpanRecord, TraceContext, TraceSummary, ROOT_PARENT};
