//! The benchmark's own tracing: one span per call into each layer,
//! recorded around the public entry points from outside (the measured
//! tree carries no benchmark code). Spans live in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kairos::core::{CacheStats, ElementActivity, Kairos, OccupancySnapshot};
use kairos::sim::json::Json;
use kairos::svc::{CapacityEvent, Event, Request, ResourceService, Ticket};

/// One recorded call. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Shared by every span of one request (or one wave of requests).
    pub request: u64,
}

#[derive(Debug)]
struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

/// A cloneable handle on the span log. Only the coordinator thread
/// records, so the mutex is never contended.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<SpanLog>>);

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer(Arc::new(Mutex::new(SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        })))
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.0.lock().expect("span log: only the coordinator thread records")
    }

    /// Sets the request id stamped on the spans opened from now on.
    pub fn set_request(&self, request: u64) {
        self.log().request = request;
    }

    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let mut log = self.log();
        let now = log.origin.elapsed().as_nanos() as u64;
        let index = log.spans.len() as u32;
        let parent = log.open.last().copied();
        let request = log.request;
        log.spans.push(Span { name, start_ns: now, end_ns: now, parent, request });
        log.open.push(index);
        SpanGuard { tracer: self, index }
    }

    pub fn span_count(&self) -> usize {
        self.log().spans.len()
    }

    /// Self time per span name, in nanoseconds: a span's duration minus
    /// the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let log = self.log();
        let mut child_ns = vec![0u64; log.spans.len()];
        for span in &log.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, covered) in log.spans.iter().zip(child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(covered);
            entry.1 += 1;
        }
        by_name
    }

    /// The span file: one object per span.
    pub fn to_json(&self) -> Json {
        let log = self.log();
        Json::Array(
            log.spans
                .iter()
                .enumerate()
                .map(|(i, span)| {
                    let mut o = Json::object();
                    o.push("id", i as u64)
                        .push("name", span.name)
                        .push("start_ns", span.start_ns)
                        .push("end_ns", span.end_ns)
                        .push("parent", span.parent.map_or(Json::Null, |p| Json::UInt(p as u64)))
                        .push("request", span.request);
                    o
                })
                .collect(),
        )
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let mut log = self.tracer.log();
        let now = log.origin.elapsed().as_nanos() as u64;
        log.spans[self.index as usize].end_ns = now;
        log.open.pop();
    }
}

/// Span names of one wrapped layer, one per traced trait method.
#[derive(Debug, Clone, Copy)]
pub struct LayerNames {
    pub submit: &'static str,
    pub submit_batch: &'static str,
    pub pump: &'static str,
    pub take_events: &'static str,
}

/// The outermost layer, when it is a plain service.
pub const OUTER_SPANS: LayerNames = LayerNames {
    submit: "outer.submit",
    submit_batch: "outer.submit_batch",
    pump: "outer.pump",
    take_events: "outer.take_events",
};

/// The outermost layer, when it is the gateway (whose `enqueue` and
/// `drive` get spans of their own).
pub const GATEWAY_SPANS: LayerNames = LayerNames {
    submit: "gateway.submit",
    submit_batch: "gateway.submit_batch",
    pump: "gateway.pump",
    take_events: "gateway.take_events",
};

/// The cluster inside a gateway, through [`Spanned`].
pub const CLUSTER_SPANS: LayerNames = LayerNames {
    submit: "cluster.submit",
    submit_batch: "cluster.submit_batch",
    pump: "cluster.pump",
    take_events: "cluster.take_events",
};

/// A `ResourceService` that records a span around every call into the
/// service it wraps — how a layer boundary *inside* a stack (the gateway
/// calling the cluster) is traced without touching either crate.
#[derive(Debug)]
pub struct Spanned {
    inner: Box<dyn ResourceService + Send>,
    names: LayerNames,
    tracer: Tracer,
}

impl Spanned {
    pub fn new(inner: Box<dyn ResourceService + Send>, names: LayerNames, tracer: Tracer) -> Self {
        Spanned { inner, names, tracer }
    }
}

impl ResourceService for Spanned {
    fn submit(&mut self, request: Request) -> Ticket {
        let _span = self.tracer.enter(self.names.submit);
        self.inner.submit(request)
    }

    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let _span = self.tracer.enter(self.names.submit_batch);
        self.inner.submit_batch(requests)
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        let _span = self.tracer.enter(self.names.pump);
        self.inner.pump(event)
    }

    fn take_events(&mut self) -> Vec<Event> {
        let _span = self.tracer.enter(self.names.take_events);
        self.inner.take_events()
    }

    // Inspection endpoints forward untraced; every defaulted method is
    // forwarded too, because the defaults route through `kairos()` and
    // would report the first shard only.
    fn kairos(&self) -> &Kairos {
        self.inner.kairos()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn occupancy(&self) -> OccupancySnapshot {
        self.inner.occupancy()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn element_activity(&self) -> Vec<ElementActivity> {
        self.inner.element_activity()
    }
}
