//! Shard placement.
//!
//! When an admission arrives at a [`ClusterService`](crate::ClusterService),
//! shards are probed in shard-id order with a state-neutral what-if
//! admission — each probe is one full pipeline run — until the
//! [`Placement`] says the row probed so far settles its choice
//! ([`Placement::settled`]) or no shard is left, and the policy picks the
//! winning shard from that row. The policy is chosen at construction
//! ([`ClusterBuilder::placement`](crate::ClusterBuilder::placement)) from
//! the two the catalogue runs: [`Placement::FirstFit`] (cheapest: it stops
//! at the first shard that fits) and [`Placement::LeastLoaded`] (spreads
//! load, so it compares — and probes — every shard).

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

/// The shard-placement policy: which shard an admission is routed to.
///
/// Both policies are deterministic pure functions of their inputs, so
/// cluster output stays a pure function of the request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Routes every admission to the lowest-id shard that can take it —
    /// the cheapest policy (no shard past the first fit is probed), and
    /// the one that concentrates load (useful as the imbalance-generating
    /// baseline for rebalance experiments).
    FirstFit,
    /// Routes every admission to the fitting shard whose post-admission
    /// resource utilisation would be lowest — the spreading policy. Ties
    /// break toward the lowest shard id.
    LeastLoaded,
}

impl Placement {
    /// The policy's name (used in reports and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            Placement::FirstFit => "first-fit",
            Placement::LeastLoaded => "least-loaded",
        }
    }

    /// The winning shard among `probes` (always passed in shard-id
    /// order), or `None` when no shard can admit the application now.
    /// `probes` covers shards `0..probes.len()`: every shard, unless
    /// [`Self::settled`] cut the row short.
    pub fn choose(self, probes: &[ShardProbe]) -> Option<usize> {
        let mut fits = probes.iter().filter_map(|p| p.fit.map(|f| (p.shard, f)));
        match self {
            Placement::FirstFit => fits.next(),
            Placement::LeastLoaded => fits.min_by(|a, b| {
                a.1.resource_utilisation.total_cmp(&b.1.resource_utilisation).then(a.0.cmp(&b.0))
            }),
        }
        .map(|(shard, _)| shard)
    }

    /// Whether the shards probed so far already decide the placement, so
    /// the cluster may skip the remaining shards' pipeline runs. `probed`
    /// is a shard-id-ordered prefix of the full probe row. Only
    /// [`Placement::FirstFit`] settles early — on a prefix ending in a
    /// fit; [`Placement::LeastLoaded`] compares every shard.
    ///
    /// **The law:** if `settled(p)`, then `choose(r) == choose(p)` for
    /// every row `r` that extends `p` with further shards' probes,
    /// whatever those probes report. The cluster relies on it to route
    /// from the partial row exactly as it would have from the full one.
    pub fn settled(self, probed: &[ShardProbe]) -> bool {
        self == Placement::FirstFit && probed.last().is_some_and(|p| p.fit.is_some())
    }

    /// Where to route a request no shard can admit right now. On a
    /// queued cluster the request waits in this shard's queue; on a
    /// direct cluster this shard's pipeline rejects it. Both policies
    /// pick the shallowest queue, then the least-loaded shard, then the
    /// lowest id.
    pub fn fallback(self, loads: &[ShardLoad]) -> usize {
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
        assert_eq!(Placement::FirstFit.choose(&probes()), Some(0));
        assert_eq!(Placement::LeastLoaded.choose(&probes()), Some(3));
        let nobody: Vec<ShardProbe> = (0..3).map(|shard| ShardProbe { shard, fit: None }).collect();
        assert_eq!(Placement::FirstFit.choose(&nobody), None);
        assert_eq!(Placement::LeastLoaded.choose(&nobody), None);
        // First-fit is settled by a prefix ending in a fit, and by
        // nothing shorter; nobody fitting settles nothing.
        assert!(!Placement::FirstFit.settled(&[]));
        assert!(Placement::FirstFit.settled(&probes()[..1]));
        assert!((0..=3).all(|cut| !Placement::FirstFit.settled(&nobody[..cut])));
        assert_eq!(Placement::FirstFit.name(), "first-fit");
        assert_eq!(Placement::LeastLoaded.name(), "least-loaded");
    }

    proptest! {
        /// The [`Placement::settled`] law on both policies: a settled
        /// prefix chooses what every extension of it chooses, and the
        /// comparing policy never settles on a proper prefix.
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
            for policy in [Placement::FirstFit, Placement::LeastLoaded] {
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
                prop_assert!(!Placement::LeastLoaded.settled(&row[..cut]));
            }
        }
    }

    #[test]
    fn fallback_prefers_shallow_queues_then_low_load() {
        let loads = vec![
            ShardLoad { shard: 0, resource_utilisation: 0.1, queue_depth: 3 },
            ShardLoad { shard: 1, resource_utilisation: 0.8, queue_depth: 1 },
            ShardLoad { shard: 2, resource_utilisation: 0.4, queue_depth: 1 },
        ];
        assert_eq!(Placement::FirstFit.fallback(&loads), 2, "depth ties break on utilisation");
        let even: Vec<ShardLoad> = (0..3)
            .map(|shard| ShardLoad { shard, resource_utilisation: 0.5, queue_depth: 0 })
            .collect();
        assert_eq!(Placement::LeastLoaded.fallback(&even), 0, "full ties break on shard id");
    }
}
