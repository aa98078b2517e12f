//! The [`Watcher`] — drives every armed rule over the observed event and
//! sample streams, materialises [`Alert`] lifecycles, and renders the
//! end-of-run [`HealthReport`].

use std::collections::BTreeMap;
use std::sync::Arc;

use kairos_admitd::{Event, PriorityClass, RejectCause};
use kairos_core::ElementActivity;
use kairos_telemetry::{Counter, Gauge, Telemetry};

use crate::alert::{Alert, AlertKind, Severity};
use crate::rules::{AnomalyState, QueueState, RejectionState, SloState, Verdict, WatchSpec};

/// Health score of one shard, `0..=100` (100 = no findings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index (0 for a monolithic service).
    pub shard: usize,
    /// `100` minus alert and failed-element penalties, floored at `0`.
    pub score: u64,
}

/// The end-of-run judgment: every alert lifecycle the run produced, plus
/// per-shard health scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Rules the spec armed.
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

/// Identity of one rule instance, used to key its active alert.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RuleId {
    Slo(usize),
    Queue,
    Rejection,
    Power(String),
    Occupancy,
}

/// Evaluates the rules a [`WatchSpec`] arms over the service's event
/// stream and the periodic activity/power/queue samples, emitting
/// deterministic [`Alert`] lifecycles.
///
/// A pure observer: it only reads the streams it is fed and never feeds
/// anything back into admission decisions, so enabling it cannot change
/// any non-health byte of a run.
#[derive(Debug)]
pub struct Watcher {
    /// One SLO per priority class, in [`PriorityClass::ALL`] order.
    slo: [SloState; 4],
    queue: Option<QueueState>,
    rejection: RejectionState,
    /// One power detector per observed package; `None` when the anomaly
    /// detectors are off.
    power: Option<BTreeMap<String, AnomalyState>>,
    occupancy: Option<AnomalyState>,
    rules: usize,
    evaluations: u64,
    alerts: Vec<Alert>,
    /// Rule instance → index into `alerts` of its active alert.
    active: BTreeMap<RuleId, usize>,
    metrics: Option<WatchMetrics>,
    shard_count: usize,
    failed_elements: usize,
}

impl Watcher {
    /// A watcher over the rules `spec` arms, registering
    /// `kairos.watch.*` instruments on `telemetry` when the hub is
    /// enabled.
    pub fn new(spec: WatchSpec, telemetry: &Telemetry) -> Self {
        Watcher {
            rules: spec.rules(),
            slo: PriorityClass::ALL.map(SloState::new),
            queue: spec.queue_monitor.then(QueueState::default),
            rejection: RejectionState::default(),
            power: spec.anomaly_detectors.then(BTreeMap::new),
            occupancy: spec.anomaly_detectors.then(AnomalyState::default),
            evaluations: 0,
            alerts: Vec::new(),
            active: BTreeMap::new(),
            metrics: WatchMetrics::new(telemetry),
            shard_count: 1,
            failed_elements: 0,
        }
    }

    /// Feeds service events observed at virtual time `at` into the SLO
    /// and rejection-rate windows. Read-only: events pass through
    /// untouched.
    pub fn observe_events(&mut self, at: u64, events: &[Event]) {
        for event in events {
            match event {
                Event::Admitted { class, waited, .. } => {
                    self.slo[class.index()].admitted(at, *waited);
                    self.rejection.observe(at, false);
                }
                // A shutdown flush is the run ending, not a latency
                // failure; every other rejection consumed the class's
                // latency budget without an admission.
                Event::Rejected { cause: RejectCause::Shutdown, .. } => {}
                Event::Rejected { class, .. } => {
                    self.slo[class.index()].refused(at);
                    self.rejection.observe(at, true);
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
            let subject = format!("class:{}", self.slo[i].class);
            self.transition(at, RuleId::Slo(i), AlertKind::SloBurn, subject, None, verdict);
        }
        if let Some(queue) = &mut self.queue {
            let verdict = queue.evaluate(queue_depth as u64);
            self.transition(
                at,
                RuleId::Queue,
                AlertKind::QueueDepth,
                "queue".to_string(),
                None,
                verdict,
            );
        }
        let verdict = self.rejection.evaluate(at);
        self.transition(
            at,
            RuleId::Rejection,
            AlertKind::RejectionRate,
            "admission".to_string(),
            None,
            verdict,
        );
        if self.power.is_some() {
            for (name, &mw) in packages.iter().zip(package_mw) {
                let power = self.power.as_mut().expect("just checked");
                let verdict = power.entry(name.clone()).or_default().observe(name, mw);
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
        if let Some(occupancy) = &mut self.occupancy {
            let busy = activity.iter().filter(|a| a.busy).count() as u64;
            let verdict = occupancy.observe("busy-elements", busy);
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
                if let Some(m) = &self.metrics {
                    m.fired.inc();
                    m.active.add(1);
                }
                self.active.insert(id, self.alerts.len());
                self.alerts.push(alert);
            }
            Verdict::Clear => {
                if let Some(index) = self.active.remove(&id) {
                    self.alerts[index].cleared_at = Some(at);
                    if let Some(m) = &self.metrics {
                        m.cleared.inc();
                        m.active.add(-1);
                    }
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
    use kairos_platform::{ElementId, ElementKind};

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
        let spec = WatchSpec { queue_monitor: true, anomaly_detectors: false };
        let mut w = Watcher::new(spec, &telemetry);
        // Below the fire depth, over it, between the depths (still
        // firing), then at the clear depth.
        for (at, depth) in [(10, 31), (20, 40), (30, 20), (40, 8)] {
            w.on_sample(at, depth, &[], &[], &[]);
        }

        let report = w.finish();
        assert_eq!(report.rules, spec.rules());
        assert_eq!(report.evaluations, 4);
        assert_eq!(report.fired, 1);
        assert_eq!(report.cleared, 1);
        let alert = &report.alerts[0];
        assert_eq!((alert.kind, alert.subject.as_str()), (AlertKind::QueueDepth, "queue"));
        assert_eq!((alert.signal, alert.threshold), (40, 32));
        assert_eq!(alert.fired_at, 20);
        assert_eq!(alert.cleared_at, Some(40));
        assert_eq!(alert.cause, ["queue depth 40 >= 32"]);
        // One cleared global alert: 100 - 10/2.
        assert_eq!(report.shards, vec![ShardHealth { shard: 0, score: 95 }]);
    }

    #[test]
    fn power_anomaly_is_scoped_to_the_packages_shard() {
        let telemetry = Telemetry::disabled();
        let mut w = Watcher::new(WatchSpec::default(), &telemetry);
        let activity =
            [dsp(0, "pkg0/dsp0", true), dsp(1, "pkg1/dsp0", true), dsp(1, "pkg1/dsp1", false)];
        let packages = ["pkg0".to_string(), "pkg1".to_string()];
        for at in 0..8 {
            w.on_sample(at * 10, 0, &activity, &packages, &[1000, 2000]);
        }
        // pkg1 steps down hard for two samples; pkg0 stays nominal.
        w.on_sample(80, 0, &activity, &packages, &[1000, 200]);
        w.on_sample(90, 0, &activity, &packages, &[1000, 200]);
        let report = w.finish();
        assert_eq!(report.fired, 1);
        let alert = &report.alerts[0];
        assert_eq!(alert.kind, AlertKind::PowerAnomaly);
        assert_eq!(alert.subject, "pkg1");
        assert_eq!(alert.shard, Some(1));
        assert_eq!(alert.fired_at, 90);
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
