//! Admission-control policy knobs.

use serde::{Deserialize, Serialize};

use std::fmt;

/// How the front-end reacts when a
/// [`PriorityClass::Critical`](crate::PriorityClass::Critical) request is
/// blocked by the occupancy of running lower-priority applications (or
/// refused at the door of a full critical queue).
///
/// Victims are always of a *strictly lower* priority class than the
/// blocked request, chosen by
/// [`Kairos::select_victims`](kairos_core::Kairos::select_victims) as a
/// minimal set whose removal provably unblocks the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PreemptionPolicy {
    /// Never preempt: blocked criticals wait like everyone else (the
    /// pre-relocation behaviour).
    #[default]
    Disabled,
    /// Evict the victim set. Victims re-enter the admission queue as
    /// retryable requests — preempted, not dropped — carrying their
    /// accumulated queue wait.
    Evict,
    /// Live-migrate victims off the blocked request's target region
    /// (make-before-break, keeping them running with their identity
    /// intact); victims that cannot be migrated — no room for both
    /// footprints — fall back to eviction-and-requeue.
    Migrate,
}

impl fmt::Display for PreemptionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreemptionPolicy::Disabled => f.write_str("disabled"),
            PreemptionPolicy::Evict => f.write_str("evict"),
            PreemptionPolicy::Migrate => f.write_str("migrate"),
        }
    }
}

/// The order preemption candidates are offered to the manager's victim
/// planner in — the front-end's eviction-cost policy. Candidates are
/// always grouped lowest priority class first; the order decides ties
/// within a class. Injectable at service construction through
/// [`AdmitPolicy::victim_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum VictimOrder {
    /// Fewest tasks first: prefer the cheapest reconfiguration, evicting
    /// or migrating as little work as possible per victim.
    #[default]
    SmallestFirst,
    /// Most tasks first: prefer the victim that frees the most room, so
    /// large blocked requests need fewer victims overall.
    LargestFirst,
}

impl fmt::Display for VictimOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VictimOrder::SmallestFirst => f.write_str("smallest-first"),
            VictimOrder::LargestFirst => f.write_str("largest-first"),
        }
    }
}

/// Tunable policy of an [`Admitd`](crate::Admitd) front-end.
///
/// Everything is deterministic: capacities bound memory, `max_attempts`
/// bounds retries, and the backoff is measured in *capacity events*
/// (releases/repairs) rather than wall-clock ticks — a parked request is
/// reconsidered when something actually freed up, never on a blind timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmitPolicy {
    /// Maximum queued requests per priority class (drain order:
    /// critical, high, normal, low). A full class refuses new submissions
    /// — explicit backpressure instead of unbounded growth. `0` disables
    /// the class.
    pub class_capacity: [usize; 4],
    /// Ticks a request may wait in the queue before it is dropped as
    /// timed out; `None` waits forever (bounded only by capacity).
    pub max_wait: Option<u64>,
    /// Admission attempts (the initial one included) before a request is
    /// dropped as exhausted. At least 1.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in capacity events; attempt
    /// `n` backs off `backoff_base << (n - 1)` events. At least 1.
    pub backoff_base: u64,
    /// Upper bound on the per-attempt backoff, in capacity events.
    pub backoff_cap: u64,
    /// Whether (and how) blocked critical requests may preempt running
    /// lower-priority applications.
    pub preemption: PreemptionPolicy,
    /// Most applications one relocation may evict or migrate; bounds the
    /// collateral damage of admitting a single critical request. Must be
    /// at least 1 while preemption is enabled.
    pub max_victims: usize,
    /// Tie-break order preemption candidates are offered to the planner
    /// in (within a priority class).
    pub victim_order: VictimOrder,
}

impl Default for AdmitPolicy {
    fn default() -> Self {
        AdmitPolicy {
            class_capacity: [8, 16, 32, 32],
            max_wait: Some(500),
            max_attempts: 6,
            backoff_base: 1,
            backoff_cap: 8,
            preemption: PreemptionPolicy::Disabled,
            max_victims: 4,
            victim_order: VictimOrder::SmallestFirst,
        }
    }
}

impl AdmitPolicy {
    /// Structural sanity checks.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        if self.backoff_base == 0 {
            return Err("backoff_base must be at least 1".into());
        }
        if self.backoff_cap < self.backoff_base {
            return Err("backoff_cap must be >= backoff_base".into());
        }
        if self.max_wait == Some(0) {
            return Err("max_wait of 0 would time every request out instantly".into());
        }
        if self.preemption != PreemptionPolicy::Disabled && self.max_victims == 0 {
            return Err("preemption with max_victims of 0 can never relocate anything".into());
        }
        Ok(())
    }

    /// Total queue capacity over all classes (the memory bound).
    pub fn total_capacity(&self) -> usize {
        self.class_capacity.iter().sum()
    }

    /// Capacity events to skip after failed attempt `attempt` (1-based):
    /// `min(backoff_base << (attempt - 1), backoff_cap)`, saturating.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shifted = self.backoff_base.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX);
        shifted.min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        AdmitPolicy::default().validate().unwrap();
        assert_eq!(AdmitPolicy::default().total_capacity(), 88);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = AdmitPolicy { backoff_base: 1, backoff_cap: 8, ..AdmitPolicy::default() };
        assert_eq!(policy.backoff(1), 1);
        assert_eq!(policy.backoff(2), 2);
        assert_eq!(policy.backoff(3), 4);
        assert_eq!(policy.backoff(4), 8);
        assert_eq!(policy.backoff(5), 8, "capped");
        assert_eq!(policy.backoff(200), 8, "huge attempts saturate instead of overflowing");
    }

    #[test]
    fn validate_rejects_broken_policies() {
        let p = AdmitPolicy { max_attempts: 0, ..AdmitPolicy::default() };
        assert!(p.validate().is_err());
        let p = AdmitPolicy { backoff_base: 0, ..AdmitPolicy::default() };
        assert!(p.validate().is_err());
        let p = AdmitPolicy { backoff_cap: 0, ..AdmitPolicy::default() };
        assert!(p.validate().is_err());
        let p = AdmitPolicy { max_wait: Some(0), ..AdmitPolicy::default() };
        assert!(p.validate().is_err());
        let p = AdmitPolicy {
            preemption: PreemptionPolicy::Evict,
            max_victims: 0,
            ..AdmitPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = AdmitPolicy { max_victims: 0, ..AdmitPolicy::default() };
        assert!(p.validate().is_ok(), "max_victims is irrelevant while preemption is disabled");
    }

    #[test]
    fn preemption_policy_names_are_stable() {
        assert_eq!(PreemptionPolicy::default(), PreemptionPolicy::Disabled);
        assert_eq!(PreemptionPolicy::Disabled.to_string(), "disabled");
        assert_eq!(PreemptionPolicy::Evict.to_string(), "evict");
        assert_eq!(PreemptionPolicy::Migrate.to_string(), "migrate");
    }

    #[test]
    fn victim_order_names_are_stable() {
        assert_eq!(VictimOrder::default(), VictimOrder::SmallestFirst);
        assert_eq!(VictimOrder::SmallestFirst.to_string(), "smallest-first");
        assert_eq!(VictimOrder::LargestFirst.to_string(), "largest-first");
    }
}
