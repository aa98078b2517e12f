//! The watch's monitor rules and their deterministic evaluation state.
//!
//! Every threshold is a constant of this module; a [`WatchSpec`] only
//! switches the optional monitors on or off. Every rule is evaluated in
//! integer/fixed-point arithmetic over virtual time only — **centi**
//! units throughout (a rate of `1.00` is `100` centi) — so fire/clear
//! decisions, and the report bytes they produce, are a pure function of
//! the observed event/sample sequence.

use std::collections::VecDeque;

use kairos_admitd::PriorityClass;

/// SLO: admission wait (ticks) above which an admission is bad.
const SLO_TARGET_WAIT: u64 = 120;
/// SLO: allowed bad fraction, in centi (10% of admissions may wait past
/// target).
const SLO_BUDGET_CENTI: u64 = 10;
/// SLO: short burn-rate window, ticks.
const SLO_SHORT_WINDOW: u64 = 200;
/// SLO: long burn-rate window, ticks.
const SLO_LONG_WINDOW: u64 = 800;
/// SLO: burn rate (centi) at or above which both windows must sit to
/// fire — twice the budget.
const SLO_FIRE_BURN_CENTI: u64 = 200;
/// SLO: outcomes the long window must hold before the rule may fire.
const SLO_MIN_EVENTS: u64 = 5;
/// Queue monitor: depth at or above which it fires.
const QUEUE_FIRE_DEPTH: u64 = 32;
/// Queue monitor: depth at or below which a firing monitor clears.
const QUEUE_CLEAR_DEPTH: u64 = 8;
/// Rejection rate: trailing window, ticks.
const REJECTION_WINDOW: u64 = 400;
/// Rejection rate: rejected fraction (centi) at or above which it fires.
const REJECTION_FIRE_CENTI: u64 = 50;
/// Rejection rate: outcomes the window must hold before it may fire.
const REJECTION_MIN_EVENTS: u64 = 10;
/// Anomaly: EWMA weight of a new sample, in centi (0.2).
const ANOMALY_ALPHA_CENTI: u64 = 20;
/// Anomaly: z-score (centi) at or above which a sample is anomalous.
const ANOMALY_Z_FIRE_CENTI: u64 = 300;
/// Anomaly: samples consumed to seed the baseline before scoring starts.
const ANOMALY_WARMUP: u64 = 8;
/// Anomaly: consecutive anomalous (resp. nominal) samples to fire (resp.
/// clear).
const ANOMALY_CONSECUTIVE: u64 = 2;

/// Which optional monitors one [`Watcher`](crate::Watcher) arms.
///
/// One burn-rate SLO per priority class and the rejection-rate monitor
/// are always on; the two switches add the queue-depth monitor and the
/// EWMA/z-score anomaly detectors over the per-package power and
/// busy-element series. Both are on by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchSpec {
    /// Arm the queue-depth monitor.
    pub queue_monitor: bool,
    /// Arm the power and occupancy anomaly detectors.
    pub anomaly_detectors: bool,
}

impl Default for WatchSpec {
    fn default() -> Self {
        WatchSpec { queue_monitor: true, anomaly_detectors: true }
    }
}

impl WatchSpec {
    /// Number of armed rules: the per-class SLOs, the rejection-rate
    /// monitor, the queue monitor when on, and the two anomaly detectors
    /// when on (the power detector counts once; the watcher instantiates
    /// it per observed package).
    pub(crate) fn rules(&self) -> usize {
        PriorityClass::ALL.len()
            + usize::from(self.queue_monitor)
            + 1
            + 2 * usize::from(self.anomaly_detectors)
    }
}

/// What one rule evaluation decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Start firing: the signal, its threshold, and the cause chain.
    Fire { signal: u64, threshold: u64, cause: Vec<String> },
    /// Stop firing.
    Clear,
    /// No transition.
    Hold,
}

/// A per-class admission-latency SLO with multi-window burn-rate firing.
///
/// An admission is *bad* when it waited longer than [`SLO_TARGET_WAIT`]
/// (timed out and dropped requests count as bad too). The *burn rate* of
/// a window is the bad fraction divided by the error budget, in centi: a
/// burn of `100` means the class consumes its budget exactly as fast as
/// allowed. The rule fires when **both** the short and the long window
/// burn at [`SLO_FIRE_BURN_CENTI`] or faster — the standard multi-window
/// construction: the long window filters blips, the short window makes
/// the alert clear promptly once the storm passes.
#[derive(Debug)]
pub(crate) struct SloState {
    pub(crate) class: PriorityClass,
    /// Admission outcomes `(at, bad)` inside the long window.
    outcomes: VecDeque<(u64, bool)>,
    firing: bool,
}

/// Bad fraction over the SLO budget, in centi; `0` for an empty window.
fn burn_centi(bad: u64, total: u64) -> u64 {
    (bad * 10_000).checked_div(total * SLO_BUDGET_CENTI).unwrap_or(0)
}

impl SloState {
    pub(crate) fn new(class: PriorityClass) -> Self {
        SloState { class, outcomes: VecDeque::new(), firing: false }
    }

    /// Records an admission of the rule's class that waited `waited`
    /// ticks: bad when past [`SLO_TARGET_WAIT`].
    pub(crate) fn admitted(&mut self, at: u64, waited: u64) {
        self.outcomes.push_back((at, waited > SLO_TARGET_WAIT));
    }

    /// Records a refusal of the rule's class: it consumed the class's
    /// latency budget without an admission.
    pub(crate) fn refused(&mut self, at: u64) {
        self.outcomes.push_back((at, true));
    }

    /// Evaluates both windows at virtual time `now`.
    pub(crate) fn evaluate(&mut self, now: u64) -> Verdict {
        let long_from = now.saturating_sub(SLO_LONG_WINDOW);
        while self.outcomes.front().is_some_and(|&(at, _)| at < long_from) {
            self.outcomes.pop_front();
        }
        let short_from = now.saturating_sub(SLO_SHORT_WINDOW);
        let (mut long_bad, mut short_total, mut short_bad) = (0u64, 0u64, 0u64);
        let long_total = self.outcomes.len() as u64;
        for &(at, bad) in &self.outcomes {
            long_bad += u64::from(bad);
            if at >= short_from {
                short_total += 1;
                short_bad += u64::from(bad);
            }
        }
        let long_burn = burn_centi(long_bad, long_total);
        let short_burn = burn_centi(short_bad, short_total);
        let hot = long_total >= SLO_MIN_EVENTS
            && long_burn >= SLO_FIRE_BURN_CENTI
            && short_burn >= SLO_FIRE_BURN_CENTI;
        match (self.firing, hot) {
            (false, true) => {
                self.firing = true;
                let signal = long_burn.min(short_burn);
                Verdict::Fire {
                    signal,
                    threshold: SLO_FIRE_BURN_CENTI,
                    cause: vec![
                        format!(
                            "class {} burn {}c >= {}c over budget {}c",
                            self.class, signal, SLO_FIRE_BURN_CENTI, SLO_BUDGET_CENTI
                        ),
                        format!(
                            "short window {}t: {}/{} past target {}t (burn {}c)",
                            SLO_SHORT_WINDOW, short_bad, short_total, SLO_TARGET_WAIT, short_burn
                        ),
                        format!(
                            "long window {}t: {}/{} past target {}t (burn {}c)",
                            SLO_LONG_WINDOW, long_bad, long_total, SLO_TARGET_WAIT, long_burn
                        ),
                    ],
                }
            }
            (true, false) => {
                self.firing = false;
                Verdict::Clear
            }
            _ => Verdict::Hold,
        }
    }
}

/// Queue-depth threshold with clear hysteresis: fires at
/// [`QUEUE_FIRE_DEPTH`], clears at [`QUEUE_CLEAR_DEPTH`].
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    firing: bool,
}

impl QueueState {
    pub(crate) fn evaluate(&mut self, depth: u64) -> Verdict {
        if !self.firing && depth >= QUEUE_FIRE_DEPTH {
            self.firing = true;
            Verdict::Fire {
                signal: depth,
                threshold: QUEUE_FIRE_DEPTH,
                cause: vec![format!("queue depth {} >= {}", depth, QUEUE_FIRE_DEPTH)],
            }
        } else if self.firing && depth <= QUEUE_CLEAR_DEPTH {
            self.firing = false;
            Verdict::Clear
        } else {
            Verdict::Hold
        }
    }
}

/// Rejection-rate threshold over a trailing window of
/// [`REJECTION_WINDOW`] ticks of admission outcomes.
#[derive(Debug, Default)]
pub(crate) struct RejectionState {
    /// Admission outcomes `(at, rejected)` inside the window.
    outcomes: VecDeque<(u64, bool)>,
    firing: bool,
}

impl RejectionState {
    pub(crate) fn observe(&mut self, at: u64, rejected: bool) {
        self.outcomes.push_back((at, rejected));
    }

    pub(crate) fn evaluate(&mut self, now: u64) -> Verdict {
        let from = now.saturating_sub(REJECTION_WINDOW);
        while self.outcomes.front().is_some_and(|&(at, _)| at < from) {
            self.outcomes.pop_front();
        }
        let total = self.outcomes.len() as u64;
        let rejected = self.outcomes.iter().filter(|&&(_, r)| r).count() as u64;
        let rate = (rejected * 100).checked_div(total).unwrap_or(0);
        let hot = total >= REJECTION_MIN_EVENTS && rate >= REJECTION_FIRE_CENTI;
        match (self.firing, hot) {
            (false, true) => {
                self.firing = true;
                Verdict::Fire {
                    signal: rate,
                    threshold: REJECTION_FIRE_CENTI,
                    cause: vec![format!(
                        "rejection rate {rate}c >= {}c ({rejected}/{total} over {}t)",
                        REJECTION_FIRE_CENTI, REJECTION_WINDOW
                    )],
                }
            }
            (true, false) => {
                self.firing = false;
                Verdict::Clear
            }
            _ => Verdict::Hold,
        }
    }
}

/// Integer square root (floor), for fixed-point standard deviations.
pub(crate) fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

/// EWMA/z-score anomaly detector over one integer sample series.
///
/// Each sample is scored against the running EWMA baseline *before* it
/// updates it: `z = |x − mean| / stddev`, in centi. The detector fires
/// after [`ANOMALY_CONSECUTIVE`] over-threshold samples (once
/// [`ANOMALY_WARMUP`] samples have seeded the baseline) and clears after
/// as many under-threshold samples.
#[derive(Debug, Default)]
pub(crate) struct AnomalyState {
    /// EWMA of the series, in centi-units.
    mean_c: i64,
    /// EWMA of the squared deviation, in centi-units squared.
    var_c2: i64,
    seen: u64,
    hot_streak: u64,
    cool_streak: u64,
    firing: bool,
}

impl AnomalyState {
    /// Scores `value` against the baseline, then folds it in.
    pub(crate) fn observe(&mut self, series: &str, value: u64) -> Verdict {
        let x_c = (value as i64).saturating_mul(100);
        if self.seen == 0 {
            self.mean_c = x_c;
        }
        // Score before updating, so a step change is measured against the
        // pre-step baseline. The deviation floor (2% of baseline) keeps
        // near-constant series from firing on quantisation jitter.
        let scored = self.seen >= ANOMALY_WARMUP;
        let z_centi = if scored {
            let sd_c = isqrt(self.var_c2.max(0) as u64).max(self.mean_c.unsigned_abs() / 50).max(1);
            ((x_c - self.mean_c).unsigned_abs()).saturating_mul(100) / sd_c
        } else {
            0
        };
        let anomalous = scored && z_centi >= ANOMALY_Z_FIRE_CENTI;
        // Anomalous samples do not fold into the baseline — an anomaly
        // must not inflate the variance it is measured against (it would
        // mask itself before the consecutive-fire streak completes). The
        // alert therefore clears when the series *returns* to baseline,
        // not when the baseline drifts to the anomaly.
        if !anomalous {
            let diff = x_c - self.mean_c;
            let alpha = ANOMALY_ALPHA_CENTI as i64;
            self.mean_c += alpha * diff / 100;
            self.var_c2 += alpha * (diff.saturating_mul(diff) - self.var_c2) / 100;
        }
        self.seen += 1;
        if anomalous {
            self.hot_streak += 1;
            self.cool_streak = 0;
        } else {
            self.cool_streak += 1;
            self.hot_streak = 0;
        }
        if !self.firing && self.hot_streak >= ANOMALY_CONSECUTIVE {
            self.firing = true;
            Verdict::Fire {
                signal: z_centi,
                threshold: ANOMALY_Z_FIRE_CENTI,
                cause: vec![
                    format!("series {series}: z {z_centi}c >= {}c", ANOMALY_Z_FIRE_CENTI),
                    format!(
                        "value {value} vs baseline mean {}c (ewma alpha {}c)",
                        self.mean_c, ANOMALY_ALPHA_CENTI
                    ),
                ],
            }
        } else if self.firing && self.cool_streak >= ANOMALY_CONSECUTIVE {
            self.firing = false;
            Verdict::Clear
        } else {
            Verdict::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_fires_on_both_windows_and_clears_when_windows_drain() {
        let mut slo = SloState::new(PriorityClass::Normal);
        // Five admissions at the target wait: on time, nothing fires.
        for at in [10, 20, 30, 40, 50] {
            slo.admitted(at, SLO_TARGET_WAIT);
        }
        assert_eq!(slo.evaluate(60), Verdict::Hold);
        // A storm of late admissions and refusals: half the outcomes are
        // bad, five times the budget, in both windows.
        for at in [60, 70, 80] {
            slo.admitted(at, SLO_TARGET_WAIT + 1);
        }
        slo.refused(90);
        slo.refused(100);
        match slo.evaluate(100) {
            Verdict::Fire { signal, threshold, cause } => {
                assert_eq!(threshold, SLO_FIRE_BURN_CENTI);
                assert_eq!(signal, 500);
                assert_eq!(cause.len(), 3);
                assert!(cause[0].starts_with("class normal burn 500c"), "{}", cause[0]);
            }
            v => panic!("expected fire, got {v:?}"),
        }
        assert_eq!(slo.evaluate(150), Verdict::Hold);
        // Long after the storm both windows are empty: the alert clears.
        assert_eq!(slo.evaluate(100 + SLO_LONG_WINDOW + 1), Verdict::Clear);
    }

    #[test]
    fn slo_needs_minimum_events() {
        let mut slo = SloState::new(PriorityClass::High);
        for at in 1..SLO_MIN_EVENTS {
            slo.refused(at);
        }
        assert_eq!(slo.evaluate(10), Verdict::Hold);
        slo.refused(SLO_MIN_EVENTS);
        assert!(matches!(slo.evaluate(10), Verdict::Fire { .. }));
    }

    #[test]
    fn queue_depth_hysteresis() {
        let mut q = QueueState::default();
        assert_eq!(q.evaluate(QUEUE_FIRE_DEPTH - 1), Verdict::Hold);
        assert!(matches!(q.evaluate(32), Verdict::Fire { signal: 32, threshold: 32, .. }));
        // Between clear and fire: still firing.
        assert_eq!(q.evaluate(QUEUE_CLEAR_DEPTH + 1), Verdict::Hold);
        assert_eq!(q.evaluate(QUEUE_CLEAR_DEPTH), Verdict::Clear);
        assert_eq!(q.evaluate(20), Verdict::Hold);
    }

    #[test]
    fn rejection_rate_window() {
        let mut r = RejectionState::default();
        for at in 1..REJECTION_MIN_EVENTS {
            r.observe(at * 10, true);
        }
        // One outcome short of the minimum.
        assert_eq!(r.evaluate(100), Verdict::Hold);
        r.observe(95, true);
        assert!(matches!(r.evaluate(100), Verdict::Fire { signal: 100, threshold: 50, .. }));
        // The window slides past every rejection: clears.
        assert_eq!(r.evaluate(100 + REJECTION_WINDOW), Verdict::Clear);
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for n in 0u64..1000 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
    }

    #[test]
    fn anomaly_fires_on_step_change_and_clears_on_return() {
        let mut a = AnomalyState::default();
        // A steady series seeds the baseline without firing.
        for _ in 0..ANOMALY_WARMUP + 2 {
            assert_eq!(a.observe("pkg0", 1000), Verdict::Hold);
        }
        // A sustained step down: the second anomalous sample fires.
        assert_eq!(a.observe("pkg0", 400), Verdict::Hold);
        match a.observe("pkg0", 400) {
            Verdict::Fire { signal, threshold, cause } => {
                assert_eq!(threshold, ANOMALY_Z_FIRE_CENTI);
                assert!(signal >= threshold);
                assert!(cause[0].contains("pkg0"));
            }
            v => panic!("expected fire, got {v:?}"),
        }
        // Still skewed: the alert holds (the baseline is frozen against
        // anomalous samples, so the anomaly cannot mask itself).
        assert_eq!(a.observe("pkg0", 400), Verdict::Hold);
        // The series returns to baseline: the second nominal sample
        // clears.
        assert_eq!(a.observe("pkg0", 1000), Verdict::Hold);
        assert_eq!(a.observe("pkg0", 1000), Verdict::Clear);
    }

    #[test]
    fn rules_count_every_switch_combination() {
        let classes = PriorityClass::ALL.len();
        assert_eq!(
            WatchSpec::default(),
            WatchSpec { queue_monitor: true, anomaly_detectors: true }
        );
        for (queue_monitor, anomaly_detectors, rules) in [
            (false, false, classes + 1),
            (true, false, classes + 2),
            (false, true, classes + 3),
            (true, true, classes + 4),
        ] {
            let spec = WatchSpec { queue_monitor, anomaly_detectors };
            assert_eq!(spec.rules(), rules, "{spec:?}");
        }
    }
}
