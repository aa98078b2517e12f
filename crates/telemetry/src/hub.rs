//! The [`Telemetry`] handle every instrumented layer holds.

use std::sync::Arc;
use std::time::Instant;

use crate::metric::{Counter, Gauge, Histogram};
use crate::registry::{Registry, Snapshot};
use crate::trace::{SpanRecord, TraceContext, TraceSink};

/// Construction knobs for a [`Telemetry`] hub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether span durations are measured on the wall clock. `false`
    /// (the default) is the deterministic mode: every recorded duration
    /// is zero, so snapshots are a pure function of the operation
    /// sequence — the telemetry analogue of the zero `PhaseClock`.
    pub wall_clock: bool,
    /// Whether request-scoped causal tracing is on: roots are minted per
    /// service request and every layer records spans into the hub's
    /// shared trace sink. Off by default; tracing is strictly additive
    /// and never perturbs the simulation (the observer-effect tests pin
    /// this).
    pub tracing: bool,
}

#[derive(Debug)]
struct Inner {
    config: TelemetryConfig,
    registry: Registry,
    tracer: Option<TraceSink>,
}

/// The one observability handle the whole stack shares: a metrics
/// [`Registry`], the request-trace sink and the determinism
/// configuration, behind a cheap-clone `Arc`.
///
/// A disabled handle ([`Telemetry::disabled`], also the [`Default`]) is a
/// `None` and makes every operation a no-op branch, so instrumented hot
/// paths cost one pointer test when observability is off — the observer
/// effect the test-suite pins to zero.
///
/// Clones share everything: a cluster hands each shard a clone, so metric
/// totals aggregate across shards and every shard's spans land in the one
/// trace sink.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled hub labelled `main`.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                config,
                registry: Registry::new(),
                tracer: config.tracing.then(TraceSink::default),
            })),
        }
    }

    /// Whether this handle records anything at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether span durations are measured on the wall clock (`false`
    /// when disabled).
    pub fn wall_clock(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.config.wall_clock)
    }

    /// The shared registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_ref().map(|inner| &inner.registry)
    }

    /// The counter registered under `name`, when enabled.
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        self.registry().map(|r| r.counter(name))
    }

    /// The gauge registered under `name`, when enabled.
    pub fn gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        self.registry().map(|r| r.gauge(name))
    }

    /// The histogram registered under `name`, when enabled.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Option<Arc<Histogram>> {
        self.registry().map(|r| r.histogram(name, bounds))
    }

    /// Starts a duration measurement: `Some(now)` only when enabled *and*
    /// in wall-clock mode. Feed the result to [`Telemetry::elapsed_ns`].
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        if self.wall_clock() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// The nanoseconds since [`Telemetry::clock`] — `0` in deterministic
    /// mode, keeping recorded durations byte-stable.
    #[inline]
    pub fn elapsed_ns(start: Option<Instant>) -> u64 {
        start.map_or(0, |s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// A point-in-time copy of every registered metric (empty when
    /// disabled).
    pub fn snapshot(&self) -> Snapshot {
        self.registry().map(Registry::snapshot).unwrap_or_default()
    }

    /// The current metrics in the Prometheus text exposition format
    /// (empty when disabled).
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    fn tracer(&self) -> Option<&TraceSink> {
        self.inner.as_ref().and_then(|inner| inner.tracer.as_ref())
    }

    /// Whether request-scoped causal tracing is on for this hub.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.tracer.is_some())
    }

    /// Mints a new trace: opens a root span `name` at virtual tick `at`
    /// and returns the context children record under. Returns
    /// [`TraceContext::NONE`] when tracing is off, so downstream layers
    /// can propagate the result unconditionally.
    pub fn trace_root(&self, name: &str, at: u64, args: &[(&str, String)]) -> TraceContext {
        match self.tracer() {
            Some(sink) => sink.open_root(name, at, args),
            None => TraceContext::NONE,
        }
    }

    /// The trace context of an admission request of priority `class`
    /// arriving at a service at tick `at`: the context already stamped on
    /// it (`inherited` — an outer layer minted the root), else a fresh
    /// `request` root annotated with the class and `origin = request`.
    /// The annotations are formatted only when tracing is on, so an
    /// untraced submission allocates nothing here.
    pub fn request_root(
        &self,
        inherited: TraceContext,
        at: u64,
        class: &dyn std::fmt::Display,
    ) -> TraceContext {
        if inherited.is_some() {
            return inherited;
        }
        match self.tracer() {
            Some(sink) => sink.open_root(
                "request",
                at,
                &[("class", class.to_string()), ("origin", "request".to_owned())],
            ),
            None => TraceContext::NONE,
        }
    }

    /// Records one complete child span under `ctx` spanning virtual ticks
    /// `[start, end]`. A no-op when tracing is off or `ctx` is the absent
    /// context.
    pub fn trace_child(
        &self,
        ctx: TraceContext,
        name: &str,
        start: u64,
        end: u64,
        args: &[(&str, String)],
    ) {
        if let Some(sink) = self.tracer() {
            sink.record_child(ctx, name, start, end, args);
        }
    }

    /// Closes the root span of `ctx` at virtual tick `at`, appending
    /// `args` (conventionally the terminal `outcome`). A no-op when
    /// tracing is off or `ctx` is absent.
    pub fn trace_close(&self, ctx: TraceContext, at: u64, args: &[(&str, String)]) {
        if let Some(sink) = self.tracer() {
            sink.close_root(ctx, at, args);
        }
    }

    /// Every recorded span, ordered by `(trace, id)` (empty when tracing
    /// is off).
    pub fn trace_dump(&self) -> Vec<SpanRecord> {
        self.tracer().map(TraceSink::dump).unwrap_or_default()
    }

    /// The recorded traces rendered in the Chrome trace event format
    /// (an empty array when tracing is off).
    pub fn chrome_trace(&self) -> String {
        crate::trace::chrome_trace(&self.trace_dump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_do_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        assert!(!t.wall_clock());
        assert!(t.counter("x").is_none());
        assert!(t.clock().is_none());
        assert_eq!(Telemetry::elapsed_ns(None), 0);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.render_text(), "");
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::new(TelemetryConfig::default());
        let shard = t.clone();
        shard.counter("hits").unwrap().inc();
        assert_eq!(t.counter("hits").unwrap().get(), 1, "registry is shared");
        assert!(!Telemetry::disabled().clone().enabled());
    }

    #[test]
    fn deterministic_mode_records_zero_durations() {
        let t = Telemetry::new(TelemetryConfig::default());
        assert!(t.clock().is_none());
        assert_eq!(Telemetry::elapsed_ns(t.clock()), 0);
        let wall =
            Telemetry::new(TelemetryConfig { wall_clock: true, ..TelemetryConfig::default() });
        assert!(wall.clock().is_some());
    }

    #[test]
    fn tracing_is_off_by_default_and_contexts_degrade_to_none() {
        let t = Telemetry::new(TelemetryConfig::default());
        assert!(!t.tracing());
        let ctx = t.trace_root("request", 0, &[]);
        assert!(ctx.is_none());
        t.trace_child(ctx, "queue", 0, 5, &[]);
        t.trace_close(ctx, 5, &[]);
        assert!(t.trace_dump().is_empty());
        assert_eq!(t.chrome_trace(), "[\n\n]\n");
        assert!(!Telemetry::disabled().tracing());
    }

    #[test]
    fn clones_share_the_trace_sink() {
        let t = Telemetry::new(TelemetryConfig { tracing: true, ..TelemetryConfig::default() });
        assert!(t.tracing());
        let shard = t.clone();
        let ctx = t.trace_root("request", 3, &[("class", "batch".into())]);
        assert!(ctx.is_some());
        shard.trace_child(ctx, "probe.shard0", 3, 3, &[("fit", "yes".into())]);
        t.trace_close(ctx, 7, &[("outcome", "admitted".into())]);
        let spans = t.trace_dump();
        assert_eq!(spans.len(), 2, "the clone's span lands in the shared sink");
        assert_eq!(spans[1].name, "probe.shard0");
        assert_eq!(spans[0].end, 7);
    }

    #[test]
    fn request_root_honours_an_inherited_context_and_mints_one_otherwise() {
        /// Panics when formatted: the dark path must never format.
        struct NeverShown;
        impl std::fmt::Display for NeverShown {
            fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                panic!("formatted with tracing off");
            }
        }
        let dark = Telemetry::new(TelemetryConfig::default());
        assert!(dark.request_root(TraceContext::NONE, 0, &NeverShown).is_none());
        assert!(Telemetry::disabled().request_root(TraceContext::NONE, 0, &NeverShown).is_none());

        let t = Telemetry::new(TelemetryConfig { tracing: true, ..TelemetryConfig::default() });
        let minted = t.request_root(TraceContext::NONE, 4, &"batch");
        assert!(minted.is_some());
        assert_eq!(t.request_root(minted, 9, &NeverShown), minted, "inherited, not re-minted");
        let by_hand =
            t.trace_root("request", 4, &[("class", "batch".into()), ("origin", "request".into())]);
        let spans = t.trace_dump();
        assert_eq!(spans.len(), 2);
        assert_ne!(minted, by_hand);
        assert_eq!((&spans[0].name, &spans[0].args), (&spans[1].name, &spans[1].args));
    }
}
