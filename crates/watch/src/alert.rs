//! Deterministic alert events — the judgments `kairos-watch` emits.

use std::fmt;

/// Which monitor family raised an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A per-class admission-latency SLO is burning its error budget
    /// across both burn-rate windows.
    SloBurn,
    /// The admission queue depth crossed its threshold.
    QueueDepth,
    /// The rejection rate over the trailing window crossed its threshold.
    RejectionRate,
    /// A per-package power series deviated from its EWMA baseline.
    PowerAnomaly,
    /// The busy-element-count series deviated from its EWMA baseline.
    OccupancyAnomaly,
}

impl AlertKind {
    /// Stable label used in reports and instrument names.
    pub const fn label(self) -> &'static str {
        match self {
            AlertKind::SloBurn => "slo-burn",
            AlertKind::QueueDepth => "queue-depth",
            AlertKind::RejectionRate => "rejection-rate",
            AlertKind::PowerAnomaly => "power-anomaly",
            AlertKind::OccupancyAnomaly => "occupancy-anomaly",
        }
    }
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How far past its threshold an alert's signal was when it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The signal crossed the threshold.
    Warning,
    /// The signal reached at least twice the threshold.
    Critical,
}

impl Severity {
    /// Stable label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Severity from a signal and its fire threshold: `Critical` at twice
    /// the threshold or beyond.
    pub fn from_signal(signal: u64, threshold: u64) -> Severity {
        if threshold > 0 && signal >= threshold.saturating_mul(2) {
            Severity::Critical
        } else {
            Severity::Warning
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One alert over its whole lifecycle: fired at a virtual time, optionally
/// cleared later, with a deterministic cause chain explaining the signal
/// path that tripped it.
///
/// Everything is integers and fixed strings, so alert streams — and the
/// `SimReport::health` section they land in — are byte-reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Sequence number, unique per watcher, in fire order.
    pub seq: u64,
    /// The monitor family that raised it.
    pub kind: AlertKind,
    /// What the alert is about (`class:critical`, `queue`, `pkg2`, …).
    pub subject: String,
    /// How far past the threshold the signal was at fire time.
    pub severity: Severity,
    /// The shard the subject lives on, `None` for service-global signals.
    pub shard: Option<usize>,
    /// Virtual time the alert fired.
    pub fired_at: u64,
    /// Virtual time the alert cleared; `None` while still firing.
    pub cleared_at: Option<u64>,
    /// The signal's value when it fired, in the rule's own centi units
    /// (burn-rate ×100, z-score ×100, queue depth, rejection centi-rate).
    pub signal: u64,
    /// The rule's fire threshold, in the same units as `signal`.
    pub threshold: u64,
    /// Deterministic cause chain, most direct cause first.
    pub cause: Vec<String>,
}

impl Alert {
    /// `true` while the alert has fired and not yet cleared.
    pub fn active(&self) -> bool {
        self.cleared_at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_scales_with_signal() {
        assert_eq!(Severity::from_signal(100, 100), Severity::Warning);
        assert_eq!(Severity::from_signal(199, 100), Severity::Warning);
        assert_eq!(Severity::from_signal(200, 100), Severity::Critical);
        assert_eq!(Severity::from_signal(5, 0), Severity::Warning);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AlertKind::SloBurn.to_string(), "slo-burn");
        assert_eq!(AlertKind::PowerAnomaly.label(), "power-anomaly");
        assert_eq!(Severity::Critical.to_string(), "critical");
    }

    #[test]
    fn active_tracks_clearing() {
        let mut alert = Alert {
            seq: 0,
            kind: AlertKind::QueueDepth,
            subject: "queue".to_string(),
            severity: Severity::Warning,
            shard: None,
            fired_at: 10,
            cleared_at: None,
            signal: 12,
            threshold: 8,
            cause: vec!["depth 12 >= 8".to_string()],
        };
        assert!(alert.active());
        alert.cleared_at = Some(40);
        assert!(!alert.active());
    }
}
