//! The [`Watcher`] — drives every armed rule over the observed event and
//! sample streams, materialises [`Alert`] lifecycles, and renders the
//! end-of-run [`HealthReport`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use kairos_admitd::{Event, RejectCause};
use kairos_core::ElementActivity;
use kairos_telemetry::{Counter, Gauge, Level, Telemetry};
use serde::{Deserialize, Serialize};

use crate::alert::{Alert, AlertEvent, AlertKind, AlertTransition, Severity};
use crate::rules::{AnomalyState, QueueState, RejectionState, SloState, Verdict, WatchPolicy};

/// Health score of one shard, `0..=100` (100 = no findings).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard index (0 for a monolithic service).
    pub shard: usize,
    /// `100` minus alert and failed-element penalties, floored at `0`.
    pub score: u64,
}

/// The end-of-run judgment: every alert lifecycle the run produced, plus
/// per-shard health scores.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Rules the policy armed.
    pub rules: usize,
    /// Rule evaluation passes (one per sample).
    pub evaluations: u64,
    /// Alerts that fired.
    pub fired: u64,
    /// Alerts that also cleared before the horizon.
    pub cleared: u64,
    /// Every alert, in fire order; still-active ones have
    /// `cleared_at: None`.
    pub alerts: Vec<Alert>,
    /// Per-shard health scores, in shard order.
    pub shards: Vec<ShardHealth>,
}

/// Pre-resolved `kairos.watch.*` registry handles, following the
/// `kairos.gateway.*` / `kairos.reloc.*` pre-resolution pattern.
#[derive(Debug, Clone)]
pub struct WatchMetrics {
    /// `kairos.watch.alerts.fired` — alerts that started firing.
    fired: Arc<Counter>,
    /// `kairos.watch.alerts.cleared` — alerts that stopped firing.
    cleared: Arc<Counter>,
    /// `kairos.watch.active` — currently firing alerts.
    active: Arc<Gauge>,
    /// `kairos.watch.evaluations` — rule evaluation passes.
    evaluations: Arc<Counter>,
}

impl WatchMetrics {
    /// Resolves the handles, or `None` when `telemetry` is disabled.
    pub fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(WatchMetrics {
            fired: registry.counter("kairos.watch.alerts.fired"),
            cleared: registry.counter("kairos.watch.alerts.cleared"),
            active: registry.gauge("kairos.watch.active"),
            evaluations: registry.counter("kairos.watch.evaluations"),
        })
    }
}

#[derive(Debug, Default)]
struct HandleState {
    pending: Vec<AlertEvent>,
    active: BTreeMap<u64, Alert>,
}

/// Subscription handle onto a [`Watcher`]'s alert stream — the surface a
/// future adaptive controller reacts through. Cheap to clone; all clones
/// share one event queue.
#[derive(Debug, Clone, Default)]
pub struct WatchHandle {
    state: Arc<Mutex<HandleState>>,
}

impl WatchHandle {
    /// Drains every alert transition delivered since the last drain, in
    /// order.
    pub fn drain(&self) -> Vec<AlertEvent> {
        std::mem::take(&mut self.state.lock().expect("watch handle").pending)
    }

    /// The currently firing alerts, in fire order.
    pub fn active(&self) -> Vec<Alert> {
        self.state.lock().expect("watch handle").active.values().cloned().collect()
    }

    fn deliver(&self, event: AlertEvent) {
        let mut state = self.state.lock().expect("watch handle");
        match event.transition {
            AlertTransition::Fired => {
                state.active.insert(event.alert.seq, event.alert.clone());
            }
            AlertTransition::Cleared => {
                state.active.remove(&event.alert.seq);
            }
        }
        state.pending.push(event);
    }
}

/// Identity of one rule instance, used to key its active alert.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RuleId {
    Slo(usize),
    Queue,
    Rejection,
    Power(String),
    Occupancy,
}

/// Evaluates a [`WatchPolicy`] over the service's event stream and the
/// periodic activity/power/queue samples, emitting deterministic
/// [`Alert`] lifecycles.
///
/// A pure observer: it only reads the streams it is fed and never feeds
/// anything back into admission decisions, so enabling it cannot change
/// any non-health byte of a run.
#[derive(Debug)]
pub struct Watcher {
    slo: Vec<SloState>,
    queue: Option<QueueState>,
    rejection: Option<RejectionState>,
    power_rule: Option<crate::rules::AnomalyRule>,
    power: BTreeMap<String, AnomalyState>,
    occupancy: Option<AnomalyState>,
    rules: usize,
    evaluations: u64,
    alerts: Vec<Alert>,
    /// Rule instance → index into `alerts` of its active alert.
    active: BTreeMap<RuleId, usize>,
    handle: WatchHandle,
    metrics: Option<WatchMetrics>,
    telemetry: Telemetry,
    shard_count: usize,
    failed_elements: usize,
}

impl Watcher {
    /// A watcher over `policy`, registering `kairos.watch.*` instruments
    /// on `telemetry` when the hub is enabled.
    pub fn new(policy: WatchPolicy, telemetry: &Telemetry) -> Self {
        Watcher {
            rules: policy.rule_count(),
            slo: policy.slo.into_iter().map(SloState::new).collect(),
            queue: policy.queue.map(QueueState::new),
            rejection: policy.rejection.map(RejectionState::new),
            power: BTreeMap::new(),
            power_rule: policy.power_anomaly,
            occupancy: policy.occupancy_anomaly.map(AnomalyState::new),
            evaluations: 0,
            alerts: Vec::new(),
            active: BTreeMap::new(),
            handle: WatchHandle::default(),
            metrics: WatchMetrics::new(telemetry),
            telemetry: telemetry.child("watch"),
            shard_count: 1,
            failed_elements: 0,
        }
    }

    /// A subscription handle onto this watcher's alert stream.
    pub fn handle(&self) -> WatchHandle {
        self.handle.clone()
    }

    /// Feeds service events observed at virtual time `at` into the SLO
    /// and rejection-rate windows. Read-only: events pass through
    /// untouched.
    pub fn observe_events(&mut self, at: u64, events: &[Event]) {
        for event in events {
            match event {
                Event::Admitted { class, waited, .. } => {
                    for slo in self.slo.iter_mut().filter(|s| s.rule.class == *class) {
                        slo.observe(at, *waited > slo.rule.target_wait);
                    }
                    if let Some(r) = &mut self.rejection {
                        r.observe(at, false);
                    }
                }
                // A shutdown flush is the run ending, not a latency
                // failure; every other rejection consumed the class's
                // latency budget without an admission.
                Event::Rejected { cause: RejectCause::Shutdown, .. } => {}
                Event::Rejected { class, .. } => {
                    for slo in self.slo.iter_mut().filter(|s| s.rule.class == *class) {
                        slo.observe(at, true);
                    }
                    if let Some(r) = &mut self.rejection {
                        r.observe(at, true);
                    }
                }
                _ => {}
            }
        }
    }

    /// Runs one evaluation pass at virtual time `at` over the sampled
    /// queue depth, element activity and per-package power draw
    /// (`packages` and `package_mw` aligned, as produced by
    /// [`EnergyMeter`](crate::EnergyMeter)).
    pub fn on_sample(
        &mut self,
        at: u64,
        queue_depth: usize,
        activity: &[ElementActivity],
        packages: &[String],
        package_mw: &[u64],
    ) {
        self.evaluations += 1;
        if let Some(m) = &self.metrics {
            m.evaluations.inc();
        }
        self.shard_count =
            self.shard_count.max(activity.iter().map(|a| a.shard + 1).max().unwrap_or(1));
        self.failed_elements = activity.iter().filter(|a| a.failed).count();

        for i in 0..self.slo.len() {
            let verdict = self.slo[i].evaluate(at);
            let subject = format!("class:{}", self.slo[i].rule.class);
            self.transition(at, RuleId::Slo(i), AlertKind::SloBurn, subject, None, verdict);
        }
        if self.queue.is_some() {
            let verdict = self.queue.as_mut().expect("just checked").evaluate(queue_depth as u64);
            self.transition(
                at,
                RuleId::Queue,
                AlertKind::QueueDepth,
                "queue".to_string(),
                None,
                verdict,
            );
        }
        if self.rejection.is_some() {
            let verdict = self.rejection.as_mut().expect("just checked").evaluate(at);
            self.transition(
                at,
                RuleId::Rejection,
                AlertKind::RejectionRate,
                "admission".to_string(),
                None,
                verdict,
            );
        }
        if let Some(rule) = self.power_rule.clone() {
            for (name, &mw) in packages.iter().zip(package_mw) {
                let verdict = self
                    .power
                    .entry(name.clone())
                    .or_insert_with(|| AnomalyState::new(rule.clone()))
                    .observe(name, mw);
                let shard = shard_of_package(name, activity);
                self.transition(
                    at,
                    RuleId::Power(name.clone()),
                    AlertKind::PowerAnomaly,
                    name.clone(),
                    shard,
                    verdict,
                );
            }
        }
        if self.occupancy.is_some() {
            let busy = activity.iter().filter(|a| a.busy).count() as u64;
            let verdict =
                self.occupancy.as_mut().expect("just checked").observe("busy-elements", busy);
            self.transition(
                at,
                RuleId::Occupancy,
                AlertKind::OccupancyAnomaly,
                "busy-elements".to_string(),
                None,
                verdict,
            );
        }
    }

    /// Applies one rule verdict: materialises a fresh alert on `Fire`,
    /// closes the rule's active alert on `Clear`.
    fn transition(
        &mut self,
        at: u64,
        id: RuleId,
        kind: AlertKind,
        subject: String,
        shard: Option<usize>,
        verdict: Verdict,
    ) {
        match verdict {
            Verdict::Fire { signal, threshold, cause } => {
                let alert = Alert {
                    seq: self.alerts.len() as u64,
                    kind,
                    severity: Severity::from_signal(signal, threshold),
                    subject,
                    shard,
                    fired_at: at,
                    cleared_at: None,
                    signal,
                    threshold,
                    cause,
                };
                if let Some(flight) = self.telemetry.flight() {
                    flight.record(
                        Level::WARN,
                        "watch",
                        format!("alert fired: {} {} ({})", kind, alert.subject, alert.severity),
                    );
                }
                if let Some(m) = &self.metrics {
                    m.fired.inc();
                    m.active.add(1);
                }
                self.handle.deliver(AlertEvent {
                    transition: AlertTransition::Fired,
                    at,
                    alert: alert.clone(),
                });
                self.active.insert(id, self.alerts.len());
                self.alerts.push(alert);
            }
            Verdict::Clear => {
                if let Some(index) = self.active.remove(&id) {
                    self.alerts[index].cleared_at = Some(at);
                    let alert = self.alerts[index].clone();
                    if let Some(flight) = self.telemetry.flight() {
                        flight.record(
                            Level::INFO,
                            "watch",
                            format!("alert cleared: {} {}", kind, alert.subject),
                        );
                    }
                    if let Some(m) = &self.metrics {
                        m.cleared.inc();
                        m.active.add(-1);
                    }
                    self.handle.deliver(AlertEvent {
                        transition: AlertTransition::Cleared,
                        at,
                        alert,
                    });
                }
            }
            Verdict::Hold => {}
        }
    }

    /// Renders the end-of-run [`HealthReport`].
    ///
    /// Shard scores start at 100 and lose 25 per still-active alert and
    /// 10 per cleared alert scoped to the shard, half those penalties for
    /// service-global alerts, and 5 per failed element at the horizon
    /// (attributed to every shard: the activity snapshot is not retained
    /// per element here), floored at 0.
    pub fn finish(self) -> HealthReport {
        let fired = self.alerts.len() as u64;
        let cleared = self.alerts.iter().filter(|a| !a.active()).count() as u64;
        let shards = (0..self.shard_count)
            .map(|shard| {
                let mut penalty = 0u64;
                for alert in &self.alerts {
                    let weight = if alert.active() { 25 } else { 10 };
                    match alert.shard {
                        Some(s) if s == shard => penalty += weight,
                        Some(_) => {}
                        None => penalty += weight / 2,
                    }
                }
                penalty += 5 * self.failed_elements as u64;
                ShardHealth { shard, score: 100u64.saturating_sub(penalty) }
            })
            .collect();
        HealthReport {
            rules: self.rules,
            evaluations: self.evaluations,
            fired,
            cleared,
            alerts: self.alerts,
            shards,
        }
    }
}

/// The shard owning every element of `package`, when unanimous.
fn shard_of_package(package: &str, activity: &[ElementActivity]) -> Option<usize> {
    let mut shard = None;
    for a in activity {
        if crate::energy::EnergyMeter::package_of_name(&a.name) == package {
            match shard {
                None => shard = Some(a.shard),
                Some(s) if s == a.shard => {}
                Some(_) => return None,
            }
        }
    }
    shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{AnomalyRule, QueueDepthRule, WatchPolicy};
    use kairos_platform::{ElementId, ElementKind};

    fn quiet_policy() -> WatchPolicy {
        WatchPolicy {
            slo: vec![],
            queue: Some(QueueDepthRule { fire_depth: 4, clear_depth: 1 }),
            rejection: None,
            power_anomaly: None,
            occupancy_anomaly: None,
        }
    }

    fn dsp(shard: usize, name: &str, busy: bool) -> ElementActivity {
        ElementActivity {
            element: ElementId(0),
            kind: ElementKind::Dsp,
            name: name.to_string(),
            shard,
            busy,
            failed: false,
            apps: vec![],
        }
    }

    #[test]
    fn queue_alert_fires_and_clears_with_full_lifecycle() {
        let telemetry = Telemetry::disabled();
        let mut w = Watcher::new(quiet_policy(), &telemetry);
        let handle = w.handle();
        w.on_sample(10, 2, &[], &[], &[]);
        assert!(handle.drain().is_empty());
        w.on_sample(20, 6, &[], &[], &[]);
        let events = handle.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].transition, AlertTransition::Fired);
        assert_eq!(handle.active().len(), 1);
        w.on_sample(30, 0, &[], &[], &[]);
        let events = handle.drain();
        assert_eq!(events[0].transition, AlertTransition::Cleared);
        assert!(handle.active().is_empty());

        let report = w.finish();
        assert_eq!(report.fired, 1);
        assert_eq!(report.cleared, 1);
        assert_eq!(report.alerts[0].fired_at, 20);
        assert_eq!(report.alerts[0].cleared_at, Some(30));
        assert!(!report.alerts[0].cause.is_empty());
        // One cleared global alert: 100 - 10/2.
        assert_eq!(report.shards, vec![ShardHealth { shard: 0, score: 95 }]);
    }

    #[test]
    fn power_anomaly_is_scoped_to_the_packages_shard() {
        let telemetry = Telemetry::disabled();
        let policy = WatchPolicy {
            slo: vec![],
            queue: None,
            rejection: None,
            power_anomaly: Some(AnomalyRule {
                warmup: 2,
                consecutive: 1,
                ..AnomalyRule::default()
            }),
            occupancy_anomaly: None,
        };
        let mut w = Watcher::new(policy, &telemetry);
        let activity =
            [dsp(0, "pkg0/dsp0", true), dsp(1, "pkg1/dsp0", true), dsp(1, "pkg1/dsp1", false)];
        let packages = ["pkg0".to_string(), "pkg1".to_string()];
        for at in 0..8 {
            w.on_sample(at * 10, 0, &activity, &packages, &[1000, 2000]);
        }
        // pkg1 steps down hard; pkg0 stays nominal.
        w.on_sample(90, 0, &activity, &packages, &[1000, 200]);
        let report = w.finish();
        assert_eq!(report.fired, 1);
        let alert = &report.alerts[0];
        assert_eq!(alert.kind, AlertKind::PowerAnomaly);
        assert_eq!(alert.subject, "pkg1");
        assert_eq!(alert.shard, Some(1));
        // Shard 1 carries the active alert's penalty; shard 0 is clean.
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.shards[0].score, 100);
        assert_eq!(report.shards[1].score, 75);
    }

    #[test]
    fn instruments_resolve_only_on_enabled_hubs() {
        assert!(WatchMetrics::new(&Telemetry::disabled()).is_none());
        let telemetry = Telemetry::new(kairos_telemetry::TelemetryConfig::default());
        assert!(WatchMetrics::new(&telemetry).is_some());
    }
}
