//! Request-scoped causal tracing: deterministic virtual-time span trees
//! assembled per service request, a critical-path analyzer over the
//! finished trees, and a hand-rolled Chrome-trace-event exporter.
//!
//! A [`TraceContext`] is minted once per traced request at the outermost
//! service boundary and then propagated *by value* through queue
//! residency, probe fan-out, pipeline phases and preemption detours.
//! Every layer records complete child spans against the context it was
//! handed; nothing is inferred from thread identity or wall time, so the
//! assembled trees are a pure function of the operation sequence.
//!
//! Determinism rules (the trace analogue of the metric rules in
//! `lib.rs`):
//!
//! 1. Span and trace ids come from one global sequence behind the sink's
//!    mutex, allocated in operation order: the product spawns no thread,
//!    so one caller drives the whole stack (the cluster records its
//!    per-shard probe spans itself, in shard-id order).
//! 2. All span times are virtual ticks carried in by the caller; the
//!    wall clock is never consulted.
//! 3. [`Telemetry::trace_dump`](crate::Telemetry::trace_dump) orders
//!    spans by `(trace, id)` and the exporter renders nothing else, so
//!    identical runs export byte-identical timelines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// The identity a traced request carries through the stack: its trace id
/// plus the span acting as the current parent. Copied by value into
/// requests, queue entries and pipeline calls; [`TraceContext::NONE`]
/// (also the [`Default`]) disables recording wherever it is handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace (request) this context belongs to.
    pub trace: u64,
    /// The span new children attach under.
    pub span: u64,
}

impl TraceContext {
    /// The absent context: every trace operation handed it is a no-op.
    pub const NONE: TraceContext = TraceContext { trace: u64::MAX, span: u64::MAX };

    /// Whether this is the absent context.
    pub fn is_none(&self) -> bool {
        self.trace == u64::MAX
    }

    /// Whether this context names a live trace.
    pub fn is_some(&self) -> bool {
        !self.is_none()
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::NONE
    }
}

/// Sentinel parent id of a root span.
pub const ROOT_PARENT: u64 = u64::MAX;

/// One finished span of a request trace. Times are virtual ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: u64,
    /// The span's id (globally unique, minted in recording order).
    pub id: u64,
    /// The parent span's id ([`ROOT_PARENT`] for a trace root).
    pub parent: u64,
    /// The span's name (`request`, `queue`, `probe.shard1`,
    /// `phase.mapping`, `preempt.evict`, ...).
    pub name: String,
    /// Virtual start tick.
    pub start: u64,
    /// Virtual end tick (`>= start`).
    pub end: u64,
    /// Key/value annotations, in recording order.
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// The span's duration in virtual ticks.
    pub fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The value recorded under `key`, when present (last write wins).
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

#[derive(Debug, Default)]
struct SinkState {
    next_trace: u64,
    next_span: u64,
    spans: Vec<SpanRecord>,
    /// Open (root) span id → index into `spans`.
    open: BTreeMap<u64, usize>,
}

/// The per-hub store finished spans accumulate in. One sink is shared by
/// a hub and all its clones, so a clustered stack assembles every
/// shard's spans into one set of trees.
#[derive(Debug, Default)]
pub(crate) struct TraceSink {
    state: Mutex<SinkState>,
}

impl TraceSink {
    /// Opens a new root span (a fresh trace) at tick `at`.
    pub(crate) fn open_root(&self, name: &str, at: u64, args: &[(&str, String)]) -> TraceContext {
        let mut state = self.state.lock().expect("trace sink lock");
        let trace = state.next_trace;
        state.next_trace += 1;
        let id = state.next_span;
        state.next_span += 1;
        let index = state.spans.len();
        state.spans.push(SpanRecord {
            trace,
            id,
            parent: ROOT_PARENT,
            name: name.to_owned(),
            start: at,
            end: at,
            args: args.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect(),
        });
        state.open.insert(id, index);
        TraceContext { trace, span: id }
    }

    /// Records one complete child span under `ctx`.
    pub(crate) fn record_child(
        &self,
        ctx: TraceContext,
        name: &str,
        start: u64,
        end: u64,
        args: &[(&str, String)],
    ) {
        if ctx.is_none() {
            return;
        }
        let mut state = self.state.lock().expect("trace sink lock");
        let id = state.next_span;
        state.next_span += 1;
        state.spans.push(SpanRecord {
            trace: ctx.trace,
            id,
            parent: ctx.span,
            name: name.to_owned(),
            start,
            end: end.max(start),
            args: args.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect(),
        });
    }

    /// Closes the root span of `ctx` at tick `at`, appending `args`.
    /// Closing an unknown or already-closed root is a no-op.
    pub(crate) fn close_root(&self, ctx: TraceContext, at: u64, args: &[(&str, String)]) {
        if ctx.is_none() {
            return;
        }
        let mut state = self.state.lock().expect("trace sink lock");
        let Some(index) = state.open.remove(&ctx.span) else { return };
        let span = &mut state.spans[index];
        span.end = at.max(span.start);
        span.args.extend(args.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    }

    /// Every recorded span, ordered by `(trace, id)`.
    pub(crate) fn dump(&self) -> Vec<SpanRecord> {
        let state = self.state.lock().expect("trace sink lock");
        let mut spans = state.spans.clone();
        spans.sort_by_key(|s| (s.trace, s.id));
        spans
    }
}

/// The per-trace digest [`summarize`] computes: end-to-end latency and
/// the segment that dominated it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace id.
    pub trace: u64,
    /// The root span's `class` annotation (empty when absent).
    pub class: String,
    /// The root span's `origin` annotation (empty when absent).
    pub origin: String,
    /// The root span's `outcome` annotation (empty when it never closed).
    pub outcome: String,
    /// Virtual start tick of the root.
    pub start: u64,
    /// Virtual end tick of the root.
    pub end: u64,
    /// End-to-end latency in virtual ticks: from the root's start to the
    /// later end of the root and its `gateway.park` span, so a request
    /// the gateway held back counts its wait there even when its root
    /// closed on arrival.
    pub latency: u64,
    /// The dominating segment (see [`summarize`] for the precedence).
    pub critical: String,
    /// Ticks attributed to the critical segment (gateway or queue wait;
    /// `0` for the structural segments, whose virtual duration is zero by
    /// design).
    pub critical_ticks: u64,
}

/// Folds a `(trace, id)`-ordered span set into one [`TraceSummary`] per
/// trace, in trace-id order.
///
/// The critical segment is chosen by a deterministic precedence: under
/// the virtual clock only waiting accumulates ticks — in the gateway's
/// lane (`gateway.park`, which a request spends before its root's
/// service-side spans open) or in the admission queue (`queue`) — so
/// the **gateway.park** wait dominates when it is longer than the queue
/// wait, and any nonzero **queue** wait otherwise. Failing both, the
/// latency is zero and the dominant segment is structural — a
/// **preempt** detour if one ran, a losing **probe** if the fan-out
/// rejected somewhere, else the *deciding* pipeline step (the last
/// `phase.*` span: the rejecting phase of a failure, the final phase of a
/// success — or the `commit.replay` span of an admission that committed
/// its probe's decision instead of running the phases), else plain
/// **dispatch**.
pub fn summarize(spans: &[SpanRecord]) -> Vec<TraceSummary> {
    let mut summaries = Vec::new();
    let mut index = 0;
    while index < spans.len() {
        let trace = spans[index].trace;
        let mut end = index;
        while end < spans.len() && spans[end].trace == trace {
            end += 1;
        }
        let group = &spans[index..end];
        index = end;
        let Some(root) = group.iter().find(|s| s.parent == ROOT_PARENT) else { continue };
        let named = |name: &'static str| group.iter().filter(move |s| s.name == name);
        let ticks_of = |name| named(name).map(SpanRecord::ticks).fold(0, u64::saturating_add);
        let (queue_ticks, park_ticks) = (ticks_of("queue"), ticks_of("gateway.park"));
        let finish = named("gateway.park").map(|s| s.end).fold(root.end, u64::max);
        let preempted = group.iter().any(|s| s.name.starts_with("preempt."));
        let losing_probe =
            group.iter().any(|s| s.name.starts_with("probe.") && s.arg("fit") == Some("no"));
        let deciding_phase =
            group.iter().rev().find(|s| s.name.starts_with("phase.") || s.name == "commit.replay");
        let (critical, critical_ticks) = if park_ticks > queue_ticks {
            ("gateway.park".to_owned(), park_ticks)
        } else if queue_ticks > 0 {
            ("queue".to_owned(), queue_ticks)
        } else if preempted {
            ("preempt".to_owned(), 0)
        } else if losing_probe {
            ("probe".to_owned(), 0)
        } else if let Some(phase) = deciding_phase {
            (phase.name.clone(), 0)
        } else {
            ("dispatch".to_owned(), 0)
        };
        summaries.push(TraceSummary {
            trace,
            class: root.arg("class").unwrap_or("").to_owned(),
            origin: root.arg("origin").unwrap_or("").to_owned(),
            outcome: root.arg("outcome").unwrap_or("").to_owned(),
            start: root.start,
            end: root.end,
            latency: finish.saturating_sub(root.start),
            critical,
            critical_ticks,
        });
    }
    summaries
}

/// Renders a `(trace, id)`-ordered span set in the Chrome trace event
/// format (a JSON array of complete `"ph": "X"` events), viewable in
/// Perfetto or `chrome://tracing`.
///
/// Virtual ticks map to microseconds (`ts`/`dur`), each trace renders as
/// its own thread (`tid` = trace id, `pid` = 1) so the viewer stacks
/// concurrent requests as parallel tracks, and every root event carries
/// the computed `critical_path` of its trace. The output is a pure
/// function of the span set: byte-identical runs export byte-identical
/// timelines.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let critical: BTreeMap<u64, String> =
        summarize(spans).into_iter().map(|s| (s.trace, s.critical)).collect();
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  {\"name\": ");
        write_json_str(&mut out, &span.name);
        let _ = write!(
            out,
            ", \"cat\": \"kairos\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}",
            span.start,
            span.ticks(),
            span.trace
        );
        out.push_str(", \"args\": {");
        let _ = write!(out, "\"span\": {}", span.id);
        if span.parent != ROOT_PARENT {
            let _ = write!(out, ", \"parent\": {}", span.parent);
        }
        for (key, value) in &span.args {
            out.push_str(", ");
            write_json_str(&mut out, key);
            out.push_str(": ");
            write_json_str(&mut out, value);
        }
        if span.parent == ROOT_PARENT {
            if let Some(path) = critical.get(&span.trace) {
                out.push_str(", \"critical_path\": ");
                write_json_str(&mut out, path);
            }
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

/// Minimal JSON string escaping for the exporter (names and annotation
/// values are ASCII in practice; control characters escape anyway for
/// safety).
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_with_one_trace() -> TraceSink {
        let sink = TraceSink::default();
        let ctx = sink.open_root(
            "request",
            10,
            &[("class", "critical".into()), ("origin", "request".into())],
        );
        sink.record_child(ctx, "probe.shard0", 10, 10, &[("fit", "no".into())]);
        sink.record_child(ctx, "probe.shard1", 10, 10, &[("fit", "yes".into())]);
        sink.record_child(ctx, "queue", 10, 14, &[]);
        sink.record_child(ctx, "phase.binding", 14, 14, &[("outcome", "ok".into())]);
        sink.close_root(ctx, 14, &[("outcome", "admitted".into())]);
        sink
    }

    #[test]
    fn contexts_default_to_none() {
        assert!(TraceContext::NONE.is_none());
        assert!(TraceContext::default().is_none());
        assert!(TraceContext { trace: 0, span: 0 }.is_some());
    }

    #[test]
    fn sink_assembles_a_span_tree_in_recording_order() {
        let sink = sink_with_one_trace();
        let spans = sink.dump();
        assert_eq!(spans.len(), 5);
        let root = &spans[0];
        assert_eq!((root.parent, root.start, root.end), (ROOT_PARENT, 10, 14));
        assert_eq!(root.arg("outcome"), Some("admitted"));
        assert!(spans[1..].iter().all(|s| s.parent == root.id && s.trace == root.trace));
        let names: Vec<_> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["request", "probe.shard0", "probe.shard1", "queue", "phase.binding"]
        );
    }

    #[test]
    fn none_contexts_record_nothing_and_double_close_is_safe() {
        let sink = TraceSink::default();
        sink.record_child(TraceContext::NONE, "queue", 0, 1, &[]);
        sink.close_root(TraceContext::NONE, 1, &[]);
        assert!(sink.dump().is_empty());
        let ctx = sink.open_root("request", 0, &[]);
        sink.close_root(ctx, 3, &[("outcome", "admitted".into())]);
        sink.close_root(ctx, 9, &[("outcome", "again".into())]);
        let spans = sink.dump();
        assert_eq!(spans[0].end, 3, "a second close must not reopen the root");
        assert_eq!(spans[0].arg("outcome"), Some("admitted"));
    }

    #[test]
    fn queue_wait_dominates_the_critical_path() {
        let spans = sink_with_one_trace().dump();
        let summaries = summarize(&spans);
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!((s.latency, s.critical.as_str(), s.critical_ticks), (4, "queue", 4));
        assert_eq!(
            (s.class.as_str(), s.origin.as_str(), s.outcome.as_str()),
            ("critical", "request", "admitted")
        );
    }

    #[test]
    fn structural_segments_break_zero_latency_ties_in_precedence_order() {
        let sink = TraceSink::default();
        // Losing probe beats the deciding phase...
        let a = sink.open_root("request", 5, &[]);
        sink.record_child(a, "probe.shard0", 5, 5, &[("fit", "no".into())]);
        sink.record_child(a, "phase.binding", 5, 5, &[]);
        sink.close_root(a, 5, &[]);
        // ...a preemption detour beats both...
        let b = sink.open_root("request", 6, &[]);
        sink.record_child(b, "probe.shard0", 6, 6, &[("fit", "no".into())]);
        sink.record_child(b, "preempt.evict", 6, 6, &[]);
        sink.close_root(b, 6, &[]);
        // ...the deciding phase is the *last* phase span...
        let c = sink.open_root("request", 7, &[]);
        sink.record_child(c, "phase.binding", 7, 7, &[]);
        sink.record_child(c, "phase.mapping", 7, 7, &[]);
        sink.close_root(c, 7, &[]);
        // ...a replayed probe decision stands where the phases would...
        let r = sink.open_root("request", 8, &[]);
        sink.record_child(r, "probe.shard0", 8, 8, &[("fit", "yes".into())]);
        sink.record_child(r, "commit.replay", 8, 8, &[]);
        sink.close_root(r, 8, &[]);
        // ...and a bare root falls back to dispatch.
        let d = sink.open_root("request", 9, &[]);
        sink.close_root(d, 9, &[]);
        let criticals: Vec<String> =
            summarize(&sink.dump()).into_iter().map(|s| s.critical).collect();
        assert_eq!(
            criticals,
            vec!["probe", "preempt", "phase.mapping", "commit.replay", "dispatch"]
        );
    }

    #[test]
    fn chrome_export_is_valid_shaped_and_deterministic() {
        let sink = sink_with_one_trace();
        let rendered = chrome_trace(&sink.dump());
        assert!(rendered.starts_with("[\n"));
        assert!(rendered.ends_with("\n]\n"));
        assert!(rendered.contains("\"ph\": \"X\""));
        assert!(rendered.contains("\"name\": \"probe.shard1\""));
        assert!(rendered.contains("\"critical_path\": \"queue\""));
        assert!(rendered.contains("\"dur\": 4"));
        assert_eq!(rendered, chrome_trace(&sink.dump()), "export must be deterministic");
        assert_eq!(chrome_trace(&[]), "[\n\n]\n");
    }

    #[test]
    fn exporter_escapes_awkward_strings() {
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
