//! Pluggable shard-placement policies.
//!
//! When an admission arrives at a [`ClusterService`](crate::ClusterService),
//! shards are probed in shard-id order with a state-neutral what-if
//! admission — each probe is one full pipeline run — until the
//! [`PlacementPolicy`] says the row probed so far settles its choice
//! ([`PlacementPolicy::settled`]) or no shard is left, and the policy
//! picks the winning shard from that row. The policy is a trait object
//! injected at construction
//! ([`ClusterBuilder::placement`](crate::ClusterBuilder::placement)), so
//! deployments can bring their own scoring; the three built-ins cover the
//! classic spectrum: [`FirstFit`] (cheapest: it stops at the first shard
//! that fits), [`BestFitFragmentation`] (keeps every shard's free space
//! contiguous) and [`LeastLoaded`] (spreads load) — the last two compare
//! every shard, so they probe every shard.

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
/// application (nothing is committed by a probe): the shard manager's
/// [`ProbedOccupancy`](kairos_core::ProbedOccupancy), what the built-in
/// policies compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFit {
    /// External resource fragmentation of the shard with the trial claims
    /// in place (paper §III-A, computed over the shard's own links).
    pub fragmentation: f64,
    /// Fraction of the shard's resources that would be claimed.
    pub resource_utilisation: f64,
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
    /// `probes` covers shards `0..probes.len()`: every shard, unless
    /// [`Self::settled`] cut the row short.
    fn choose(&self, probes: &[ShardProbe]) -> Option<usize>;

    /// Whether the shards probed so far already decide the placement, so
    /// the cluster may skip the remaining shards' pipeline runs. `probed`
    /// is a shard-id-ordered prefix of the full probe row. The default —
    /// never — is right for any policy that compares shards.
    ///
    /// **The law** a policy signs by overriding this: if `settled(p)`,
    /// then `choose(r) == choose(p)` for every row `r` that extends `p`
    /// with further shards' probes, whatever those probes report. The
    /// cluster relies on it to route from the partial row exactly as it
    /// would have from the full one.
    fn settled(&self, _probed: &[ShardProbe]) -> bool {
        false
    }

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
/// cheapest policy (no shard past the first fit is probed), and the one
/// that concentrates load (useful as the imbalance-generating baseline
/// for rebalance experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn choose(&self, probes: &[ShardProbe]) -> Option<usize> {
        probes.iter().find(|p| p.fit.is_some()).map(|p| p.shard)
    }

    fn settled(&self, probed: &[ShardProbe]) -> bool {
        probed.last().is_some_and(|p| p.fit.is_some())
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

/// A built-in [`PlacementPolicy`] chosen by value, for scenario
/// descriptions; [`PlacementPolicyKind::build`] instantiates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fit(fragmentation: f64, resource_utilisation: f64) -> Option<ShardFit> {
        Some(ShardFit { fragmentation, resource_utilisation })
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
        // First-fit is settled by a prefix ending in a fit, and by
        // nothing shorter; nobody fitting settles nothing.
        assert!(!FirstFit.settled(&[]));
        assert!(FirstFit.settled(&probes()[..1]));
        assert!((0..=3).all(|cut| !FirstFit.settled(&nobody[..cut])));
    }

    proptest! {
        /// The [`PlacementPolicy::settled`] law on the built-ins: a
        /// settled prefix chooses what every extension of it chooses, and
        /// the two comparing policies never settle on a proper prefix.
        #[test]
        fn a_settled_prefix_chooses_what_every_extension_chooses(
            fits in proptest::collection::vec((any::<bool>(), 0u8..4, 0u8..4), 1..7),
        ) {
            let row: Vec<ShardProbe> = fits
                .iter()
                .enumerate()
                .map(|(shard, &(fits, frag, load))| ShardProbe {
                    shard,
                    fit: if fits { fit(f64::from(frag) / 4.0, f64::from(load) / 4.0) } else { None },
                })
                .collect();
            let policies: [&dyn PlacementPolicy; 3] = [&FirstFit, &BestFitFragmentation, &LeastLoaded];
            for policy in policies {
                for cut in (0..=row.len()).filter(|&cut| policy.settled(&row[..cut])) {
                    for end in cut..=row.len() {
                        prop_assert_eq!(
                            policy.choose(&row[..end]),
                            policy.choose(&row[..cut]),
                            "{} settled on {} of {:?}", policy.name(), cut, &row[..end]
                        );
                    }
                }
            }
            for cut in 0..row.len() {
                prop_assert!(!BestFitFragmentation.settled(&row[..cut]));
                prop_assert!(!LeastLoaded.settled(&row[..cut]));
            }
        }
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
        for (kind, name) in [
            (PlacementPolicyKind::FirstFit, "first-fit"),
            (PlacementPolicyKind::BestFitFragmentation, "best-fit-fragmentation"),
            (PlacementPolicyKind::LeastLoaded, "least-loaded"),
        ] {
            assert_eq!(kind.build().name(), name);
        }
    }
}
