//! Per-phase timing instrumentation and occupancy metrics.
//!
//! The paper's evaluation reports the run-time of every phase per allocation
//! attempt (Fig. 7, §IV-A); [`PhaseTimings`] is the measured counterpart.
//! [`OccupancySnapshot`] packages the platform-state metrics (utilisation,
//! fragmentation, free islands) that long-running drivers such as
//! `kairos-sim` sample over time.
//!
//! # Aggregation
//!
//! A [`PhaseTimings`] value covers exactly one allocation attempt.
//! Aggregation across attempts goes through the telemetry registry: when a
//! hub is attached ([`Kairos::set_telemetry`](crate::Kairos::set_telemetry))
//! every pipeline run also records each phase duration into the
//! `kairos.core.phase.{binding,mapping,routing,validation}.ns` histograms,
//! whose snapshots expose per-phase **min / mean / max** (plus count, sum
//! and the bucketed distribution) without any caller-side bookkeeping.
//! [`PhaseTimings::accumulate`] / [`PhaseTimings::mean_of`] remain for
//! registry-free in-process averaging of a batch you already hold.
//!
//! # Zero-clock determinism rule
//!
//! Those summaries are only meaningful in wall-clock mode. Under
//! [`KairosConfig::deterministic`](crate::KairosConfig::deterministic) the
//! pipeline runs on [`PhaseClock::zero`], every recorded duration is
//! exactly zero, and the phase histograms therefore degenerate to pure
//! attempt counters (count = attempts, sum = min = max = 0) — a pure
//! function of the operation sequence, which is what keeps telemetry-on
//! simulation reports byte-reproducible.

use std::fmt;
use std::time::{Duration, Instant};

use crate::error::Phase;

/// The clock behind [`PhaseTimings`]: either the wall clock or a zero
/// clock that never consults `Instant`.
///
/// Timing is diagnostic-only — no control-flow decision may ever depend
/// on it — so replay-sensitive drivers (the `kairos-sim` scenario engine,
/// any byte-determinism test) run the pipeline with
/// [`KairosConfig::deterministic`](crate::KairosConfig::deterministic)
/// set, which swaps in [`PhaseClock::zero`] and makes every recorded
/// duration exactly `Duration::ZERO`. Report determinism then holds by
/// construction instead of depending on timings being excluded from the
/// rendering by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseClock {
    enabled: bool,
}

impl PhaseClock {
    /// The wall clock: measurements are real elapsed time.
    pub fn wall() -> Self {
        PhaseClock { enabled: true }
    }

    /// The zero clock: every measurement reads `Duration::ZERO` and
    /// `Instant` is never consulted.
    pub fn zero() -> Self {
        PhaseClock { enabled: false }
    }

    /// Starts one measurement.
    pub fn start(&self) -> PhaseStart {
        PhaseStart(self.enabled.then(Instant::now))
    }
}

/// An in-flight [`PhaseClock`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStart(Option<Instant>);

impl PhaseStart {
    /// Time elapsed since [`PhaseClock::start`]; `Duration::ZERO` under
    /// the zero clock.
    pub fn elapsed(&self) -> Duration {
        self.0.map_or(Duration::ZERO, |started| started.elapsed())
    }
}

/// Wall-clock time spent in each phase of one allocation attempt.
///
/// Phases that were never reached (because an earlier phase rejected the
/// application) read as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Time in the binding phase.
    pub binding: Duration,
    /// Time in the mapping phase.
    pub mapping: Duration,
    /// Time in the routing phase.
    pub routing: Duration,
    /// Time in the validation phase.
    pub validation: Duration,
}

impl PhaseTimings {
    /// The time recorded for `phase`.
    pub fn phase(&self, phase: Phase) -> Duration {
        match phase {
            Phase::Binding => self.binding,
            Phase::Mapping => self.mapping,
            Phase::Routing => self.routing,
            Phase::Validation => self.validation,
        }
    }

    /// Records `duration` for `phase`.
    pub fn set(&mut self, phase: Phase, duration: Duration) {
        match phase {
            Phase::Binding => self.binding = duration,
            Phase::Mapping => self.mapping = duration,
            Phase::Routing => self.routing = duration,
            Phase::Validation => self.validation = duration,
        }
    }

    /// Total time over all phases.
    pub fn total(&self) -> Duration {
        self.binding + self.mapping + self.routing + self.validation
    }

    /// Component-wise sum, for averaging over many attempts.
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.binding += other.binding;
        self.mapping += other.mapping;
        self.routing += other.routing;
        self.validation += other.validation;
    }

    /// Component-wise division by a sample count.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is zero.
    pub fn mean_of(&self, samples: u32) -> PhaseTimings {
        assert!(samples > 0, "cannot average zero samples");
        PhaseTimings {
            binding: self.binding / samples,
            mapping: self.mapping / samples,
            routing: self.routing / samples,
            validation: self.validation / samples,
        }
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "binding {:.3} ms, mapping {:.3} ms, routing {:.3} ms, validation {:.3} ms",
            self.binding.as_secs_f64() * 1e3,
            self.mapping.as_secs_f64() * 1e3,
            self.routing.as_secs_f64() * 1e3,
            self.validation.as_secs_f64() * 1e3,
        )
    }
}

/// Instantaneous occupancy metrics of a managed platform.
///
/// Produced by [`Kairos::occupancy`](crate::Kairos::occupancy); all values
/// are pure functions of the platform state, so two identical admission
/// histories yield identical snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancySnapshot {
    /// Number of currently admitted applications.
    pub admitted_apps: usize,
    /// Fraction of elements hosting at least one task, in `[0, 1]`.
    pub element_utilisation: f64,
    /// Fraction of total platform resources currently claimed, in `[0, 1]`.
    pub resource_utilisation: f64,
    /// External resource fragmentation (paper §III-A), in `[0, 1]`.
    pub external_fragmentation: f64,
    /// Number of connected islands of free, healthy elements.
    pub free_islands: usize,
    /// Number of elements currently marked failed.
    pub failed_elements: usize,
}

/// The occupancy a probed admission would leave behind, as far as a
/// placement reads it ([`AdmissionProbe::after`](crate::AdmissionProbe::after)):
/// each value the one [`OccupancySnapshot`] would read with the decision
/// written, to the bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbedOccupancy {
    /// External resource fragmentation (paper §III-A), in `[0, 1]`.
    pub external_fragmentation: f64,
    /// Fraction of the non-failed elements' resources claimed, in `[0, 1]`.
    pub resource_utilisation: f64,
}

/// Instantaneous activity of one platform element, as seen by an energy
/// meter or health monitor.
///
/// Produced by [`Kairos::element_activity`](crate::Kairos::element_activity)
/// (and aggregated across shards by the service layers); a pure function of
/// the platform state, so identical admission histories yield identical
/// activity vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementActivity {
    /// Global element id (shard-local ids are translated by the cluster).
    pub element: kairos_platform::ElementId,
    /// Architectural class of the element.
    pub kind: kairos_platform::ElementKind,
    /// Human-readable name, e.g. `pkg2/dsp4` (the prefix before `/` is the
    /// element's package; names without one form their own package).
    pub name: String,
    /// `true` while at least one task resides on the element.
    pub busy: bool,
    /// `true` while the element is marked failed.
    pub failed: bool,
    /// Distinct applications with a resident task, sorted ascending.
    pub apps: Vec<kairos_platform::AppId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_per_phase() {
        let mut t = PhaseTimings::default();
        t.set(Phase::Mapping, Duration::from_millis(5));
        assert_eq!(t.phase(Phase::Mapping), Duration::from_millis(5));
        assert_eq!(t.phase(Phase::Binding), Duration::ZERO);
        assert_eq!(t.total(), Duration::from_millis(5));
    }

    #[test]
    fn accumulate_and_mean() {
        let mut acc = PhaseTimings::default();
        let sample = PhaseTimings {
            binding: Duration::from_millis(2),
            mapping: Duration::from_millis(4),
            routing: Duration::from_millis(6),
            validation: Duration::from_millis(8),
        };
        acc.accumulate(&sample);
        acc.accumulate(&sample);
        let mean = acc.mean_of(2);
        assert_eq!(mean, sample);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn mean_of_zero_panics() {
        let _ = PhaseTimings::default().mean_of(0);
    }

    #[test]
    fn display_shows_milliseconds() {
        let t = PhaseTimings { binding: Duration::from_micros(1500), ..PhaseTimings::default() };
        assert!(t.to_string().contains("1.500 ms"));
    }

    #[test]
    fn zero_clock_never_measures() {
        let start = PhaseClock::zero().start();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(start.elapsed(), Duration::ZERO);
        assert!(PhaseClock::wall().start().elapsed() < Duration::from_secs(60));
    }
}
