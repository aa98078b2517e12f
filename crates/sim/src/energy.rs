//! Energy accounting — integrating element activity against a
//! [`PowerModel`] into per-element/per-package/per-app energy totals and a
//! deterministic virtual-time power series.
//!
//! All quantities are integers: power in milliwatts, energy in
//! **milliwatt-ticks** (`mwt`, one milliwatt drawn for one virtual tick),
//! so the resulting report bytes are a pure function of the observed
//! activity sequence.

use std::collections::BTreeMap;
use std::sync::Arc;

use kairos_core::ElementActivity;
use kairos_platform::{ElementKind, PowerModel};
use kairos_telemetry::{Counter, Gauge, Telemetry};

/// Energy attributed to one element class, in milliwatt-ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindEnergy {
    /// The element-class label (`arm`, `dsp`, `fpga`, `mem`, `tst`, `io`).
    pub kind: String,
    /// Energy drawn by all elements of the class.
    pub mw_ticks: u64,
}

/// Energy attributed to one package of elements, in milliwatt-ticks.
///
/// An element's package is the prefix of its name before the first `/`
/// (`pkg2/dsp4` → `pkg2`); names without a `/` form their own package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageEnergy {
    /// Package name.
    pub name: String,
    /// Energy drawn by the package over the whole run.
    pub mw_ticks: u64,
    /// Highest instantaneous draw any sample observed, in milliwatts.
    pub peak_mw: u64,
}

/// One point of the instantaneous power series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerPoint {
    /// Virtual time of the sample.
    pub at: u64,
    /// Whole-platform draw at the sample instant, in milliwatts.
    pub total_mw: u64,
    /// Per-package draw, aligned with [`EnergyReport::packages`].
    pub package_mw: Vec<u64>,
}

/// Energy attributed to one application, in milliwatt-ticks.
///
/// A busy element's draw is split evenly (integer floor) among the
/// distinct applications resident on it at observation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppEnergy {
    /// The application's stable id.
    pub app: u64,
    /// Energy attributed to the application.
    pub mw_ticks: u64,
}

/// The end-of-run energy account: totals, per-class and per-package
/// breakdowns, the instantaneous power series, and the heaviest consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyReport {
    /// Virtual time the account covers, `[0, horizon)`.
    pub horizon: u64,
    /// Activity observations integrated.
    pub samples: u64,
    /// Whole-run energy, in milliwatt-ticks. Always
    /// `busy_mw_ticks + idle_mw_ticks`.
    pub total_mw_ticks: u64,
    /// Energy drawn by busy elements.
    pub busy_mw_ticks: u64,
    /// Energy drawn by idle (healthy, unoccupied) elements.
    pub idle_mw_ticks: u64,
    /// Per-element-class totals, in [`ElementKind::ALL`] order.
    pub by_kind: Vec<KindEnergy>,
    /// Per-package totals, in package-name order.
    pub packages: Vec<PackageEnergy>,
    /// The instantaneous power series, one point per observation.
    pub series: Vec<PowerPoint>,
    /// The heaviest per-application consumers (at most eight), sorted by
    /// descending energy then ascending id.
    pub top_apps: Vec<AppEnergy>,
}

/// Pre-resolved `kairos.energy.*` registry handles, following the
/// `kairos.gateway.*` / `kairos.reloc.*` pre-resolution pattern: resolved
/// once at construction, no-ops when the hub is disabled.
#[derive(Debug, Clone)]
struct EnergyMetrics {
    /// `kairos.energy.total.mwt` — whole-run energy counter.
    total: Arc<Counter>,
    /// `kairos.energy.busy.mwt` — busy-element energy counter.
    busy: Arc<Counter>,
    /// `kairos.energy.idle.mwt` — idle-element energy counter.
    idle: Arc<Counter>,
    /// `kairos.energy.samples` — activity observations integrated.
    samples: Arc<Counter>,
    /// `kairos.energy.power.mw` — instantaneous whole-platform draw.
    power: Arc<Gauge>,
}

impl EnergyMetrics {
    /// Resolves the handles, or `None` when `telemetry` is disabled.
    fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(EnergyMetrics {
            total: registry.counter("kairos.energy.total.mwt"),
            busy: registry.counter("kairos.energy.busy.mwt"),
            idle: registry.counter("kairos.energy.idle.mwt"),
            samples: registry.counter("kairos.energy.samples"),
            power: registry.gauge("kairos.energy.power.mw"),
        })
    }
}

/// Integrates periodic [`ElementActivity`] observations against a
/// [`PowerModel`] — left-rectangle rule over virtual time: the draw
/// observed at one sample is charged until the next.
#[derive(Debug)]
pub(crate) struct EnergyMeter {
    model: PowerModel,
    metrics: Option<EnergyMetrics>,
    last_at: Option<u64>,
    last: Vec<ElementActivity>,
    /// Sorted unique package names, fixed after the first observation.
    packages: Vec<String>,
    /// Element slot (in observation order) → package index.
    package_of: Vec<usize>,
    package_mwt: Vec<u64>,
    package_peak_mw: Vec<u64>,
    kind_mwt: [u64; ElementKind::ALL.len()],
    busy_mwt: u64,
    idle_mwt: u64,
    app_mwt: BTreeMap<u64, u64>,
    series: Vec<PowerPoint>,
    samples: u64,
}

impl EnergyMeter {
    /// Applications kept in [`EnergyReport::top_apps`].
    const TOP_APPS: usize = 8;

    /// A meter over `model`, registering `kairos.energy.*` instruments on
    /// `telemetry` when the hub is enabled.
    pub(crate) fn new(model: PowerModel, telemetry: &Telemetry) -> Self {
        EnergyMeter {
            model,
            metrics: EnergyMetrics::new(telemetry),
            last_at: None,
            last: Vec::new(),
            packages: Vec::new(),
            package_of: Vec::new(),
            package_mwt: Vec::new(),
            package_peak_mw: Vec::new(),
            kind_mwt: [0; ElementKind::ALL.len()],
            busy_mwt: 0,
            idle_mwt: 0,
            app_mwt: BTreeMap::new(),
            series: Vec::new(),
            samples: 0,
        }
    }

    /// The package of an element name: the prefix before the first `/`,
    /// or the whole name.
    fn package_of_name(name: &str) -> &str {
        name.split('/').next().unwrap_or(name)
    }

    /// Feeds one activity observation taken at virtual time `at`.
    ///
    /// The previous observation's draw is charged for the elapsed ticks,
    /// then `activity`'s instantaneous draw is recorded as a series point.
    /// Observations must be fed in non-decreasing time order.
    pub(crate) fn observe(&mut self, at: u64, activity: Vec<ElementActivity>) {
        if self.packages.is_empty() && !activity.is_empty() {
            self.index_packages(&activity);
        }
        if let Some(prev_at) = self.last_at {
            self.integrate(at.saturating_sub(prev_at));
        }
        self.record_point(at, &activity);
        self.last_at = Some(at);
        self.last = activity;
        self.samples += 1;
        if let Some(m) = &self.metrics {
            m.samples.inc();
        }
    }

    /// Charges the final observation up to `horizon` and returns the
    /// completed account.
    pub(crate) fn finish(mut self, horizon: u64) -> EnergyReport {
        if let Some(prev_at) = self.last_at {
            self.integrate(horizon.saturating_sub(prev_at));
        }
        let mut top: Vec<AppEnergy> =
            self.app_mwt.iter().map(|(&app, &mw_ticks)| AppEnergy { app, mw_ticks }).collect();
        top.sort_by(|a, b| b.mw_ticks.cmp(&a.mw_ticks).then(a.app.cmp(&b.app)));
        top.truncate(Self::TOP_APPS);
        EnergyReport {
            horizon,
            samples: self.samples,
            total_mw_ticks: self.busy_mwt + self.idle_mwt,
            busy_mw_ticks: self.busy_mwt,
            idle_mw_ticks: self.idle_mwt,
            by_kind: ElementKind::ALL
                .iter()
                .zip(self.kind_mwt)
                .map(|(kind, mw_ticks)| KindEnergy { kind: kind.label().to_string(), mw_ticks })
                .collect(),
            packages: self
                .packages
                .into_iter()
                .zip(self.package_mwt.iter().zip(&self.package_peak_mw))
                .map(|(name, (&mw_ticks, &peak_mw))| PackageEnergy { name, mw_ticks, peak_mw })
                .collect(),
            series: self.series,
            top_apps: top,
        }
    }

    fn index_packages(&mut self, activity: &[ElementActivity]) {
        let mut names: Vec<String> =
            activity.iter().map(|a| Self::package_of_name(&a.name).to_string()).collect();
        names.sort_unstable();
        names.dedup();
        self.package_of = activity
            .iter()
            .map(|a| {
                names
                    .binary_search_by(|p| p.as_str().cmp(Self::package_of_name(&a.name)))
                    .expect("every package is indexed")
            })
            .collect();
        self.package_mwt = vec![0; names.len()];
        self.package_peak_mw = vec![0; names.len()];
        self.packages = names;
    }

    /// Charges the previous observation's draw for `dt` ticks.
    fn integrate(&mut self, dt: u64) {
        if dt == 0 {
            return;
        }
        for (slot, a) in self.last.iter().enumerate() {
            let mw = self.model.draw_mw(a.kind, a.busy, a.failed);
            let energy = mw * dt;
            let kind_slot = ElementKind::ALL
                .iter()
                .position(|k| *k == a.kind)
                .expect("every ElementKind appears in ALL");
            self.kind_mwt[kind_slot] += energy;
            if let Some(&pkg) = self.package_of.get(slot) {
                self.package_mwt[pkg] += energy;
            }
            if a.busy && !a.failed {
                self.busy_mwt += energy;
                if !a.apps.is_empty() {
                    let share = energy / a.apps.len() as u64;
                    for app in &a.apps {
                        *self.app_mwt.entry(u64::from(app.0)).or_insert(0) += share;
                    }
                }
            } else {
                self.idle_mwt += energy;
            }
        }
        if let Some(m) = &self.metrics {
            let charged: u64 =
                self.last.iter().map(|a| self.model.draw_mw(a.kind, a.busy, a.failed) * dt).sum();
            let busy: u64 = self
                .last
                .iter()
                .filter(|a| a.busy && !a.failed)
                .map(|a| self.model.draw_mw(a.kind, a.busy, a.failed) * dt)
                .sum();
            m.total.add(charged);
            m.busy.add(busy);
            m.idle.add(charged - busy);
        }
    }

    /// Records the instantaneous draw of `activity` as a series point.
    fn record_point(&mut self, at: u64, activity: &[ElementActivity]) {
        let mut package_mw = vec![0u64; self.packages.len()];
        let mut total_mw = 0;
        for (slot, a) in activity.iter().enumerate() {
            let mw = self.model.draw_mw(a.kind, a.busy, a.failed);
            total_mw += mw;
            if let Some(&pkg) = self.package_of.get(slot) {
                package_mw[pkg] += mw;
            }
        }
        for (peak, &mw) in self.package_peak_mw.iter_mut().zip(&package_mw) {
            *peak = (*peak).max(mw);
        }
        if let Some(m) = &self.metrics {
            m.power.set(total_mw as i64);
        }
        self.series.push(PowerPoint { at, total_mw, package_mw });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_platform::{AppId, ElementId};

    fn activity(busy: &[bool], failed: &[bool]) -> Vec<ElementActivity> {
        busy.iter()
            .zip(failed)
            .enumerate()
            .map(|(i, (&busy, &failed))| ElementActivity {
                element: ElementId(i as u32),
                kind: ElementKind::Dsp,
                name: format!("pkg{}/dsp{i}", i / 2),
                busy,
                failed,
                apps: if busy { vec![AppId(7)] } else { vec![] },
            })
            .collect()
    }

    #[test]
    fn integrates_left_rectangle_and_splits_busy_idle() {
        let telemetry = Telemetry::disabled();
        let mut meter = EnergyMeter::new(PowerModel::table1_defaults(), &telemetry);
        let rate = PowerModel::table1_defaults().rate(ElementKind::Dsp);
        // Two elements: one busy, one idle, for 10 ticks; then both idle
        // for 10 more.
        meter.observe(0, activity(&[true, false], &[false, false]));
        meter.observe(10, activity(&[false, false], &[false, false]));
        let report = meter.finish(20);
        assert_eq!(report.busy_mw_ticks, rate.busy_mw * 10);
        assert_eq!(report.idle_mw_ticks, rate.idle_mw * 10 + rate.idle_mw * 20);
        assert_eq!(report.total_mw_ticks, report.busy_mw_ticks + report.idle_mw_ticks);
        assert_eq!(report.samples, 2);
        assert_eq!(report.horizon, 20);
        // The busy element's energy lands on app 7.
        assert_eq!(report.top_apps, vec![AppEnergy { app: 7, mw_ticks: rate.busy_mw * 10 }]);
    }

    #[test]
    fn failed_elements_draw_nothing() {
        let telemetry = Telemetry::disabled();
        let mut meter = EnergyMeter::new(PowerModel::table1_defaults(), &telemetry);
        meter.observe(0, activity(&[false, false], &[true, true]));
        let report = meter.finish(100);
        assert_eq!(report.total_mw_ticks, 0);
        assert_eq!(report.series[0].total_mw, 0);
    }

    #[test]
    fn packages_are_indexed_and_series_aligned() {
        let telemetry = Telemetry::disabled();
        let mut meter = EnergyMeter::new(PowerModel::table1_defaults(), &telemetry);
        meter.observe(0, activity(&[true, false, false, false], &[false; 4]));
        let rate = PowerModel::table1_defaults().rate(ElementKind::Dsp);
        let report = meter.finish(10);
        let names: Vec<&str> = report.packages.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["pkg0", "pkg1"]);
        assert_eq!(report.packages[0].peak_mw, rate.busy_mw + rate.idle_mw);
        assert_eq!(report.series[0].package_mw, [rate.busy_mw + rate.idle_mw, 2 * rate.idle_mw]);
    }

    #[test]
    fn instruments_resolve_only_on_enabled_hubs() {
        assert!(EnergyMetrics::new(&Telemetry::disabled()).is_none());
        let telemetry = Telemetry::new(kairos_telemetry::TelemetryConfig::default());
        assert!(EnergyMetrics::new(&telemetry).is_some());
    }
}
