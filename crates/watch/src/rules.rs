//! Declarative monitor rules and their deterministic evaluation state.
//!
//! Every rule is evaluated in integer/fixed-point arithmetic over virtual
//! time only — **centi** units throughout (a rate of `1.00` is `100`
//! centi) — so fire/clear decisions, and the report bytes they produce,
//! are a pure function of the observed event/sample sequence.

use std::collections::VecDeque;

use kairos_admitd::PriorityClass;
use serde::{Deserialize, Serialize};

/// A per-class admission-latency SLO with multi-window burn-rate firing.
///
/// An admission is *bad* when it waited longer than `target_wait` (timed
/// out and dropped requests count as bad too). The *burn rate* of a
/// window is the bad fraction divided by the error budget, in centi: a
/// burn of `100` means the class consumes its budget exactly as fast as
/// allowed. The rule fires when **both** the short and the long window
/// burn at `fire_burn_centi` or faster — the standard multi-window
/// construction: the long window filters blips, the short window makes
/// the alert clear promptly once the storm passes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloRule {
    /// The priority class the SLO covers.
    pub class: PriorityClass,
    /// Admission wait (ticks) above which an admission is bad.
    pub target_wait: u64,
    /// Allowed bad fraction, in centi (`5` = 5% of admissions may wait
    /// past target).
    pub budget_centi: u64,
    /// Short evaluation window, ticks.
    pub short_window: u64,
    /// Long evaluation window, ticks.
    pub long_window: u64,
    /// Burn rate (centi) at or above which both windows must sit to fire.
    pub fire_burn_centi: u64,
    /// Outcomes the long window must hold before the rule may fire.
    pub min_events: u64,
}

impl SloRule {
    /// A reasonable SLO for `class`: at most 10% of admissions may wait
    /// past 120 ticks, alerting at twice that burn over 200/800-tick
    /// windows.
    pub fn default_for(class: PriorityClass) -> Self {
        SloRule {
            class,
            target_wait: 120,
            budget_centi: 10,
            short_window: 200,
            long_window: 800,
            fire_burn_centi: 200,
            min_events: 5,
        }
    }
}

/// Queue-depth threshold with clear hysteresis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueDepthRule {
    /// Depth at or above which the rule fires.
    pub fire_depth: u64,
    /// Depth at or below which a firing rule clears.
    pub clear_depth: u64,
}

impl Default for QueueDepthRule {
    fn default() -> Self {
        QueueDepthRule { fire_depth: 32, clear_depth: 8 }
    }
}

/// Rejection-rate threshold over a trailing window of admission outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectionRateRule {
    /// Trailing window, ticks.
    pub window: u64,
    /// Rejected fraction (centi) at or above which the rule fires.
    pub fire_centi: u64,
    /// Outcomes the window must hold before the rule may fire.
    pub min_events: u64,
}

impl Default for RejectionRateRule {
    fn default() -> Self {
        RejectionRateRule { window: 400, fire_centi: 50, min_events: 10 }
    }
}

/// EWMA/z-score anomaly detector over an integer sample series.
///
/// Each sample is scored against the running EWMA baseline *before* it
/// updates it: `z = |x − mean| / stddev`, in centi. The detector fires
/// after `consecutive` over-threshold samples (once `warmup` samples have
/// seeded the baseline) and clears after `consecutive` under-threshold
/// samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyRule {
    /// EWMA weight of a new sample, in centi (`20` = 0.2).
    pub alpha_centi: u64,
    /// z-score (centi) at or above which a sample is anomalous.
    pub z_fire_centi: u64,
    /// Samples consumed to seed the baseline before scoring starts.
    pub warmup: u64,
    /// Consecutive anomalous (resp. nominal) samples to fire (resp.
    /// clear).
    pub consecutive: u64,
}

impl Default for AnomalyRule {
    fn default() -> Self {
        AnomalyRule { alpha_centi: 20, z_fire_centi: 300, warmup: 8, consecutive: 2 }
    }
}

/// The declarative rule set one [`Watcher`](crate::Watcher) evaluates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchPolicy {
    /// Per-class admission-latency SLOs.
    pub slo: Vec<SloRule>,
    /// Queue-depth threshold, `None` disables.
    pub queue: Option<QueueDepthRule>,
    /// Rejection-rate threshold, `None` disables.
    pub rejection: Option<RejectionRateRule>,
    /// Anomaly detection over each per-package power series, `None`
    /// disables.
    pub power_anomaly: Option<AnomalyRule>,
    /// Anomaly detection over the busy-element-count series, `None`
    /// disables.
    pub occupancy_anomaly: Option<AnomalyRule>,
}

impl Default for WatchPolicy {
    /// Every monitor armed with its defaults: one SLO per priority class,
    /// queue/rejection thresholds, and both anomaly detectors.
    fn default() -> Self {
        WatchPolicy {
            slo: PriorityClass::ALL.iter().map(|&c| SloRule::default_for(c)).collect(),
            queue: Some(QueueDepthRule::default()),
            rejection: Some(RejectionRateRule::default()),
            power_anomaly: Some(AnomalyRule::default()),
            occupancy_anomaly: Some(AnomalyRule::default()),
        }
    }
}

impl WatchPolicy {
    /// Number of armed rules (anomaly detectors count once; the watcher
    /// instantiates one per observed series).
    pub fn rule_count(&self) -> usize {
        self.slo.len()
            + usize::from(self.queue.is_some())
            + usize::from(self.rejection.is_some())
            + usize::from(self.power_anomaly.is_some())
            + usize::from(self.occupancy_anomaly.is_some())
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

/// Trailing-window burn-rate evaluator behind one [`SloRule`].
#[derive(Debug)]
pub(crate) struct SloState {
    pub(crate) rule: SloRule,
    /// Admission outcomes `(at, bad)` inside the long window.
    outcomes: VecDeque<(u64, bool)>,
    firing: bool,
}

/// Bad fraction over budget, in centi; `0` for an empty window.
fn burn_centi(bad: u64, total: u64, budget_centi: u64) -> u64 {
    if total == 0 || budget_centi == 0 {
        return 0;
    }
    bad * 10_000 / (total * budget_centi)
}

impl SloState {
    pub(crate) fn new(rule: SloRule) -> Self {
        SloState { outcomes: VecDeque::new(), firing: false, rule }
    }

    /// Records one admission outcome of the rule's class.
    pub(crate) fn observe(&mut self, at: u64, bad: bool) {
        self.outcomes.push_back((at, bad));
    }

    /// Evaluates both windows at virtual time `now`.
    pub(crate) fn evaluate(&mut self, now: u64) -> Verdict {
        let long_from = now.saturating_sub(self.rule.long_window);
        while self.outcomes.front().is_some_and(|&(at, _)| at < long_from) {
            self.outcomes.pop_front();
        }
        let short_from = now.saturating_sub(self.rule.short_window);
        let (mut long_bad, mut short_total, mut short_bad) = (0u64, 0u64, 0u64);
        let long_total = self.outcomes.len() as u64;
        for &(at, bad) in &self.outcomes {
            long_bad += u64::from(bad);
            if at >= short_from {
                short_total += 1;
                short_bad += u64::from(bad);
            }
        }
        let long_burn = burn_centi(long_bad, long_total, self.rule.budget_centi);
        let short_burn = burn_centi(short_bad, short_total, self.rule.budget_centi);
        let hot = long_total >= self.rule.min_events
            && long_burn >= self.rule.fire_burn_centi
            && short_burn >= self.rule.fire_burn_centi;
        match (self.firing, hot) {
            (false, true) => {
                self.firing = true;
                let signal = long_burn.min(short_burn);
                Verdict::Fire {
                    signal,
                    threshold: self.rule.fire_burn_centi,
                    cause: vec![
                        format!(
                            "class {} burn {}c >= {}c over budget {}c",
                            self.rule.class,
                            signal,
                            self.rule.fire_burn_centi,
                            self.rule.budget_centi
                        ),
                        format!(
                            "short window {}t: {}/{} past target {}t (burn {}c)",
                            self.rule.short_window,
                            short_bad,
                            short_total,
                            self.rule.target_wait,
                            short_burn
                        ),
                        format!(
                            "long window {}t: {}/{} past target {}t (burn {}c)",
                            self.rule.long_window,
                            long_bad,
                            long_total,
                            self.rule.target_wait,
                            long_burn
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

/// Hysteresis evaluator behind one [`QueueDepthRule`].
#[derive(Debug)]
pub(crate) struct QueueState {
    pub(crate) rule: QueueDepthRule,
    firing: bool,
}

impl QueueState {
    pub(crate) fn new(rule: QueueDepthRule) -> Self {
        QueueState { rule, firing: false }
    }

    pub(crate) fn evaluate(&mut self, depth: u64) -> Verdict {
        if !self.firing && depth >= self.rule.fire_depth {
            self.firing = true;
            Verdict::Fire {
                signal: depth,
                threshold: self.rule.fire_depth,
                cause: vec![format!("queue depth {} >= {}", depth, self.rule.fire_depth)],
            }
        } else if self.firing && depth <= self.rule.clear_depth {
            self.firing = false;
            Verdict::Clear
        } else {
            Verdict::Hold
        }
    }
}

/// Trailing-window evaluator behind one [`RejectionRateRule`].
#[derive(Debug)]
pub(crate) struct RejectionState {
    pub(crate) rule: RejectionRateRule,
    /// Admission outcomes `(at, rejected)` inside the window.
    outcomes: VecDeque<(u64, bool)>,
    firing: bool,
}

impl RejectionState {
    pub(crate) fn new(rule: RejectionRateRule) -> Self {
        RejectionState { outcomes: VecDeque::new(), firing: false, rule }
    }

    pub(crate) fn observe(&mut self, at: u64, rejected: bool) {
        self.outcomes.push_back((at, rejected));
    }

    pub(crate) fn evaluate(&mut self, now: u64) -> Verdict {
        let from = now.saturating_sub(self.rule.window);
        while self.outcomes.front().is_some_and(|&(at, _)| at < from) {
            self.outcomes.pop_front();
        }
        let total = self.outcomes.len() as u64;
        let rejected = self.outcomes.iter().filter(|&&(_, r)| r).count() as u64;
        let rate = (rejected * 100).checked_div(total).unwrap_or(0);
        let hot = total >= self.rule.min_events && rate >= self.rule.fire_centi;
        match (self.firing, hot) {
            (false, true) => {
                self.firing = true;
                Verdict::Fire {
                    signal: rate,
                    threshold: self.rule.fire_centi,
                    cause: vec![format!(
                        "rejection rate {rate}c >= {}c ({rejected}/{total} over {}t)",
                        self.rule.fire_centi, self.rule.window
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

/// EWMA/z-score evaluator behind one [`AnomalyRule`], over one series.
#[derive(Debug)]
pub(crate) struct AnomalyState {
    pub(crate) rule: AnomalyRule,
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
    pub(crate) fn new(rule: AnomalyRule) -> Self {
        AnomalyState {
            rule,
            mean_c: 0,
            var_c2: 0,
            seen: 0,
            hot_streak: 0,
            cool_streak: 0,
            firing: false,
        }
    }

    /// Scores `value` against the baseline, then folds it in.
    pub(crate) fn observe(&mut self, series: &str, value: u64) -> Verdict {
        let x_c = (value as i64).saturating_mul(100);
        if self.seen == 0 {
            self.mean_c = x_c;
        }
        // Score before updating, so a step change is measured against the
        // pre-step baseline. The deviation floor (2% of baseline) keeps
        // near-constant series from firing on quantisation jitter.
        let scored = self.seen >= self.rule.warmup;
        let z_centi = if scored {
            let sd_c = isqrt(self.var_c2.max(0) as u64).max(self.mean_c.unsigned_abs() / 50).max(1);
            ((x_c - self.mean_c).unsigned_abs()).saturating_mul(100) / sd_c
        } else {
            0
        };
        let anomalous = scored && z_centi >= self.rule.z_fire_centi;
        // Anomalous samples do not fold into the baseline — an anomaly
        // must not inflate the variance it is measured against (it would
        // mask itself before the consecutive-fire streak completes). The
        // alert therefore clears when the series *returns* to baseline,
        // not when the baseline drifts to the anomaly.
        if !anomalous {
            let diff = x_c - self.mean_c;
            let alpha = self.rule.alpha_centi as i64;
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
        if !self.firing && self.hot_streak >= self.rule.consecutive {
            self.firing = true;
            Verdict::Fire {
                signal: z_centi,
                threshold: self.rule.z_fire_centi,
                cause: vec![
                    format!("series {series}: z {z_centi}c >= {}c", self.rule.z_fire_centi),
                    format!(
                        "value {value} vs baseline mean {}c (ewma alpha {}c)",
                        self.mean_c, self.rule.alpha_centi
                    ),
                ],
            }
        } else if self.firing && self.cool_streak >= self.rule.consecutive {
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
        let mut slo = SloState::new(SloRule {
            class: PriorityClass::Normal,
            target_wait: 50,
            budget_centi: 10,
            short_window: 100,
            long_window: 400,
            fire_burn_centi: 200,
            min_events: 4,
        });
        // Four good admissions: nothing fires.
        for at in [10, 20, 30, 40] {
            slo.observe(at, false);
        }
        assert_eq!(slo.evaluate(50), Verdict::Hold);
        // A storm of bad admissions: burn way past 2x budget in both
        // windows.
        for at in [60, 70, 80, 90] {
            slo.observe(at, true);
        }
        match slo.evaluate(100) {
            Verdict::Fire { signal, threshold, cause } => {
                assert!(signal >= threshold);
                assert_eq!(threshold, 200);
                assert!(!cause.is_empty());
            }
            v => panic!("expected fire, got {v:?}"),
        }
        assert_eq!(slo.evaluate(150), Verdict::Hold);
        // Long after the storm both windows are empty: the alert clears.
        assert_eq!(slo.evaluate(600), Verdict::Clear);
    }

    #[test]
    fn slo_needs_minimum_events() {
        let mut slo =
            SloState::new(SloRule { min_events: 10, ..SloRule::default_for(PriorityClass::High) });
        slo.observe(5, true);
        slo.observe(6, true);
        assert_eq!(slo.evaluate(10), Verdict::Hold);
    }

    #[test]
    fn queue_depth_hysteresis() {
        let mut q = QueueState::new(QueueDepthRule { fire_depth: 10, clear_depth: 2 });
        assert_eq!(q.evaluate(9), Verdict::Hold);
        assert!(matches!(q.evaluate(10), Verdict::Fire { signal: 10, threshold: 10, .. }));
        // Between clear and fire: still firing.
        assert_eq!(q.evaluate(5), Verdict::Hold);
        assert_eq!(q.evaluate(2), Verdict::Clear);
        assert_eq!(q.evaluate(5), Verdict::Hold);
    }

    #[test]
    fn rejection_rate_window() {
        let mut r =
            RejectionState::new(RejectionRateRule { window: 100, fire_centi: 50, min_events: 4 });
        for at in [10, 20, 30] {
            r.observe(at, true);
        }
        // Only three outcomes: below min_events.
        assert_eq!(r.evaluate(40), Verdict::Hold);
        r.observe(35, true);
        assert!(matches!(r.evaluate(40), Verdict::Fire { signal: 100, threshold: 50, .. }));
        // The window slides past every rejection: clears.
        assert_eq!(r.evaluate(200), Verdict::Clear);
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
        let rule = AnomalyRule { alpha_centi: 20, z_fire_centi: 300, warmup: 4, consecutive: 2 };
        let mut a = AnomalyState::new(rule);
        // A steady series seeds the baseline without firing.
        for _ in 0..10 {
            assert_eq!(a.observe("pkg0", 1000), Verdict::Hold);
        }
        // A sustained step down: the second anomalous sample fires.
        assert_eq!(a.observe("pkg0", 400), Verdict::Hold);
        match a.observe("pkg0", 400) {
            Verdict::Fire { signal, threshold, cause } => {
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
    fn default_policy_arms_every_monitor() {
        let policy = WatchPolicy::default();
        assert_eq!(policy.slo.len(), PriorityClass::ALL.len());
        assert_eq!(policy.rule_count(), PriorityClass::ALL.len() + 4);
    }
}
