//! Pluggable shard-placement policies.
//!
//! When an admission arrives at a [`ClusterService`](crate::ClusterService),
//! every shard is probed with a state-neutral what-if admission and the
//! probe results, in shard-id order, are handed to a [`PlacementPolicy`]
//! to pick the winning shard. The policy is a trait object injected at
//! construction
//! ([`ClusterBuilder::placement`](crate::ClusterBuilder::placement)), so
//! deployments can bring their own scoring; the three built-ins cover the
//! classic spectrum: [`FirstFit`] (cheapest), [`BestFitFragmentation`]
//! (keeps every shard's free space contiguous) and [`LeastLoaded`]
//! (spreads load).

use serde::{Deserialize, Serialize};

/// What one shard's what-if probe reported back, in shard-id order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardProbe {
    /// The probed shard.
    pub shard: usize,
    /// The fit the shard would reach — `None` when its pipeline rejected
    /// the application (it does not fit there right now).
    pub fit: Option<ShardFit>,
}

/// The state one shard *would* reach if it admitted the probed
/// application (nothing is committed by a probe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFit {
    /// External resource fragmentation of the shard with the trial claims
    /// in place (paper §III-A, computed over the shard's own links).
    pub fragmentation: f64,
    /// Fraction of the shard's resources that would be claimed.
    pub resource_utilisation: f64,
    /// Free-island count of the shard with the trial claims in place.
    pub free_islands: usize,
}

/// A shard's current load, for routing requests no shard can admit right
/// now (they must still queue — or be rejected — *somewhere*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoad {
    /// The shard.
    pub shard: usize,
    /// Fraction of the shard's resources currently claimed.
    pub resource_utilisation: f64,
    /// Requests waiting in the shard's admission queue (`0` for
    /// queue-less shards).
    pub queue_depth: usize,
}

/// Picks the shard an admission is routed to.
///
/// Implementations must be deterministic pure functions of their inputs:
/// cluster output is a pure function of the request stream, and every
/// policy must preserve that. `Send + Sync` is required because policies
/// ride along when a cluster's owner moves it to another thread.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// The policy's name (used in reports and diagnostics).
    fn name(&self) -> &'static str;

    /// The winning shard among `probes` (always passed in shard-id
    /// order), or `None` when no shard can admit the application now.
    fn choose(&self, probes: &[ShardProbe]) -> Option<usize>;

    /// Where to route a request no shard can admit right now. On a
    /// queued cluster the request waits in this shard's queue; on a
    /// direct cluster this shard's pipeline rejects it. The default
    /// picks the shallowest queue, then the least-loaded shard, then the
    /// lowest id.
    fn fallback(&self, loads: &[ShardLoad]) -> usize {
        loads
            .iter()
            .min_by(|a, b| {
                a.queue_depth
                    .cmp(&b.queue_depth)
                    .then(a.resource_utilisation.total_cmp(&b.resource_utilisation))
                    .then(a.shard.cmp(&b.shard))
            })
            .map_or(0, |l| l.shard)
    }
}

/// Routes every admission to the lowest-id shard that can take it — the
/// cheapest policy, and the one that concentrates load (useful as the
/// imbalance-generating baseline for rebalance experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn choose(&self, probes: &[ShardProbe]) -> Option<usize> {
        probes.iter().find(|p| p.fit.is_some()).map(|p| p.shard)
    }
}

/// Routes every admission to the shard whose post-admission external
/// fragmentation (§III-A) would be lowest — the placement that keeps
/// every shard's free space contiguous for future arrivals. Ties break
/// toward the lowest shard id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestFitFragmentation;

impl PlacementPolicy for BestFitFragmentation {
    fn name(&self) -> &'static str {
        "best-fit-fragmentation"
    }

    fn choose(&self, probes: &[ShardProbe]) -> Option<usize> {
        probes
            .iter()
            .filter_map(|p| p.fit.map(|f| (p.shard, f)))
            .min_by(|a, b| a.1.fragmentation.total_cmp(&b.1.fragmentation).then(a.0.cmp(&b.0)))
            .map(|(shard, _)| shard)
    }
}

/// Routes every admission to the fitting shard whose post-admission
/// resource utilisation would be lowest — the spreading policy. Ties
/// break toward the lowest shard id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn choose(&self, probes: &[ShardProbe]) -> Option<usize> {
        probes
            .iter()
            .filter_map(|p| p.fit.map(|f| (p.shard, f)))
            .min_by(|a, b| {
                a.1.resource_utilisation.total_cmp(&b.1.resource_utilisation).then(a.0.cmp(&b.0))
            })
            .map(|(shard, _)| shard)
    }
}

/// Declarative name of a built-in [`PlacementPolicy`], for scenario
/// descriptions and other serialised configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicyKind {
    /// [`FirstFit`].
    FirstFit,
    /// [`BestFitFragmentation`].
    BestFitFragmentation,
    /// [`LeastLoaded`].
    LeastLoaded,
}

impl PlacementPolicyKind {
    /// Instantiates the named policy.
    pub fn build(self) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementPolicyKind::FirstFit => Box::new(FirstFit),
            PlacementPolicyKind::BestFitFragmentation => Box::new(BestFitFragmentation),
            PlacementPolicyKind::LeastLoaded => Box::new(LeastLoaded),
        }
    }

    /// The policy's name, matching [`PlacementPolicy::name`].
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicyKind::FirstFit => "first-fit",
            PlacementPolicyKind::BestFitFragmentation => "best-fit-fragmentation",
            PlacementPolicyKind::LeastLoaded => "least-loaded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(fragmentation: f64, resource_utilisation: f64) -> Option<ShardFit> {
        Some(ShardFit { fragmentation, resource_utilisation, free_islands: 1 })
    }

    fn probes() -> Vec<ShardProbe> {
        vec![
            ShardProbe { shard: 0, fit: fit(0.6, 0.9) },
            ShardProbe { shard: 1, fit: None },
            ShardProbe { shard: 2, fit: fit(0.2, 0.5) },
            ShardProbe { shard: 3, fit: fit(0.2, 0.3) },
        ]
    }

    #[test]
    fn built_in_policies_rank_as_documented() {
        assert_eq!(FirstFit.choose(&probes()), Some(0));
        // Equal fragmentation on shards 2 and 3: the tie breaks low.
        assert_eq!(BestFitFragmentation.choose(&probes()), Some(2));
        assert_eq!(LeastLoaded.choose(&probes()), Some(3));
        let nobody: Vec<ShardProbe> = (0..3).map(|shard| ShardProbe { shard, fit: None }).collect();
        assert_eq!(FirstFit.choose(&nobody), None);
        assert_eq!(BestFitFragmentation.choose(&nobody), None);
        assert_eq!(LeastLoaded.choose(&nobody), None);
    }

    #[test]
    fn default_fallback_prefers_shallow_queues_then_low_load() {
        let loads = vec![
            ShardLoad { shard: 0, resource_utilisation: 0.1, queue_depth: 3 },
            ShardLoad { shard: 1, resource_utilisation: 0.8, queue_depth: 1 },
            ShardLoad { shard: 2, resource_utilisation: 0.4, queue_depth: 1 },
        ];
        assert_eq!(FirstFit.fallback(&loads), 2, "depth ties break on utilisation");
        let even: Vec<ShardLoad> = (0..3)
            .map(|shard| ShardLoad { shard, resource_utilisation: 0.5, queue_depth: 0 })
            .collect();
        assert_eq!(FirstFit.fallback(&even), 0, "full ties break on shard id");
    }

    #[test]
    fn kinds_build_their_policies() {
        for kind in [
            PlacementPolicyKind::FirstFit,
            PlacementPolicyKind::BestFitFragmentation,
            PlacementPolicyKind::LeastLoaded,
        ] {
            assert_eq!(kind.build().name(), kind.name());
        }
    }
}
