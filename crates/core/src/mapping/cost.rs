//! The mapping cost function (paper §III-D).
//!
//! Two objectives, mixed by weight parameters:
//!
//! * **communication distance** — for every already-mapped communication
//!   peer of the task, the hop distance from the candidate element to the
//!   peer's element (looked up in the sparse distance matrix built during
//!   the element search; a failed lookup charges a high penalty), weighted
//!   by the channel's bandwidth. Not-yet-mapped peers are "inherently
//!   unknown, and therefore left out of the equation".
//! * **external resource fragmentation** — a candidate element "receives
//!   decreasing bonuses for neighbor elements that retain communication
//!   peers of t, tasks from the same application A, or tasks from other
//!   applications", plus a bonus for low connectivity (chip-border
//!   elements), steering allocations toward already-used regions.

use kairos_app::{Application, TaskId};
use kairos_platform::{AppId, ElementId, Platform, SparseDistanceMatrix};

/// Neighbor bonus for retaining a communication peer of the task.
pub const BONUS_PEER: f64 = 3.0;
/// Neighbor bonus for retaining another task of the same application.
pub const BONUS_SAME_APP: f64 = 2.0;
/// Neighbor bonus for retaining a task of any other application.
pub const BONUS_OTHER_APP: f64 = 1.0;
/// Scale of the low-connectivity (border) bonus.
pub const BONUS_BORDER: f64 = 1.0;
/// Bandwidth normaliser for the communication term.
pub const BANDWIDTH_UNIT: f64 = 100.0;
/// Default penalty charged when a distance lookup fails.
pub const DEFAULT_MISS_PENALTY: f64 = 64.0;

/// Weight parameters mixing the two mapping objectives.
///
/// "The ratio between these two objectives is given by weight parameters,
/// which can steer the resource manager towards minimal internal or external
/// contention." Fig. 10 of the paper sweeps exactly these two scalars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the communication-distance objective.
    pub communication: f64,
    /// Weight of the fragmentation-reduction objective.
    pub fragmentation: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostPolicy::Both.weights()
    }
}

/// The four cost-function configurations evaluated in Figs. 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostPolicy {
    /// Cost function disabled: layouts follow the first-fit order of the
    /// element search alone.
    None,
    /// Communication minimisation only.
    Communication,
    /// Fragmentation reduction only.
    Fragmentation,
    /// Both objectives, at the default ratio.
    Both,
}

impl CostPolicy {
    /// All four policies, in the order the paper's figures list them.
    pub const ALL: [CostPolicy; 4] =
        [CostPolicy::None, CostPolicy::Communication, CostPolicy::Fragmentation, CostPolicy::Both];

    /// The weight pair realising this policy.
    pub fn weights(self) -> CostWeights {
        match self {
            CostPolicy::None => CostWeights { communication: 0.0, fragmentation: 0.0 },
            CostPolicy::Communication => CostWeights { communication: 1.0, fragmentation: 0.0 },
            CostPolicy::Fragmentation => CostWeights { communication: 0.0, fragmentation: 1.0 },
            CostPolicy::Both => CostWeights { communication: 1.0, fragmentation: 40.0 },
        }
    }

    /// Display label used by the experiment harness.
    pub const fn label(self) -> &'static str {
        match self {
            CostPolicy::None => "None",
            CostPolicy::Communication => "Communication",
            CostPolicy::Fragmentation => "Fragmentation",
            CostPolicy::Both => "Both",
        }
    }
}

impl std::fmt::Display for CostPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the cost function needs to evaluate a `(task, element)` pair.
#[derive(Debug)]
pub struct CostContext<'a> {
    /// The application being mapped.
    pub app: &'a Application,
    /// The platform with its current occupancy (committed claims only).
    pub platform: &'a Platform,
    /// Identity of the application being mapped (distinguishes "same app"
    /// from "other app" in fragmentation bonuses).
    pub app_id: AppId,
    /// Partial placement: the committed element of each already-mapped task.
    pub placement: &'a [Option<ElementId>],
    /// Distances discovered by the element search so far.
    pub distances: &'a SparseDistanceMatrix,
    /// Objective weights.
    pub weights: CostWeights,
    /// Penalty for failed distance lookups.
    pub miss_penalty: f64,
}

impl CostContext<'_> {
    /// The paper's `MappingCost(A, t, e)`.
    ///
    /// Lower is better; the fragmentation bonus enters negatively. With both
    /// weights zero the function is constantly zero, which makes `SolveGAP`
    /// keep the first feasible assignment it sees (pure first-fit).
    pub fn mapping_cost(&self, t: TaskId, e: ElementId) -> f64 {
        let comm = if self.weights.communication != 0.0 {
            self.weights.communication * self.communication_term(t, e)
        } else {
            0.0
        };
        let frag = if self.weights.fragmentation != 0.0 {
            self.weights.fragmentation * self.fragmentation_bonus(t, e)
        } else {
            0.0
        };
        comm - frag
    }

    /// Total bandwidth-weighted distance from `e` to the elements of the
    /// already-mapped communication peers of `t`.
    pub fn communication_term(&self, t: TaskId, e: ElementId) -> f64 {
        let mut total = 0.0;
        for &(peer, channel) in self.app.consumers(t).iter().chain(self.app.producers(t)) {
            let Some(peer_element) = self.placement[peer.index()] else {
                continue; // unmapped peers are left out of the equation
            };
            let hops =
                self.distances.get_symmetric(peer_element, e).map_or(self.miss_penalty, f64::from);
            let bandwidth = self.app.channel(channel).bandwidth() as f64 / BANDWIDTH_UNIT;
            total += hops * bandwidth;
        }
        total
    }

    /// The fragmentation bonus of placing `t` on `e` (higher is better).
    ///
    /// The only reader of occupant identity on the admission path: it asks
    /// of each neighbour whether it is idle, holds a task of *this*
    /// application, or holds anyone else's. `Platform::state_stamp` relies
    /// on that — it digests the used flag and leaves identity out, which is
    /// sound because `self.app_id` is never resident before its placement
    /// starts. Reading more of an [`Occupant`](kairos_platform::Occupant)
    /// here means putting it in the stamp.
    pub fn fragmentation_bonus(&self, t: TaskId, e: ElementId) -> f64 {
        let is_peer = |task: u32| {
            self.app.consumers(t).iter().chain(self.app.producers(t)).any(|&(p, _)| p.0 == task)
        };
        let mut bonus = 0.0;
        for &n in self.platform.neighbors(e) {
            let residents = self.platform.residents(n);
            if residents.is_empty() {
                continue;
            }
            let retains_peer = residents.iter().any(|o| o.app == self.app_id && is_peer(o.task));
            let same_app = residents.iter().any(|o| o.app == self.app_id);
            bonus += if retains_peer {
                BONUS_PEER
            } else if same_app {
                BONUS_SAME_APP
            } else {
                BONUS_OTHER_APP
            };
        }
        // Low-connectivity elements (chip borders) are more favorable: using
        // them now avoids isolating them later.
        let max_degree = self.platform.max_degree().max(1);
        let degree = self.platform.degree(e);
        bonus += BONUS_BORDER * (max_degree - degree) as f64 / max_degree as f64;
        bonus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, Occupant, ResourceVector};

    fn pipeline(n: usize) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(500, 16, 0, 0), 100, 1);
        let mut b = ApplicationBuilder::new("pipe");
        let ids: Vec<_> =
            (0..n).map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp])).collect();
        for w in ids.windows(2) {
            b.add_channel(w[0], w[1], 200, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn policies_have_expected_weights() {
        assert_eq!(
            CostPolicy::None.weights(),
            CostWeights { communication: 0.0, fragmentation: 0.0 }
        );
        assert!(CostPolicy::Communication.weights().communication > 0.0);
        assert_eq!(CostPolicy::Communication.weights().fragmentation, 0.0);
        assert_eq!(CostPolicy::Fragmentation.weights().communication, 0.0);
        assert!(CostPolicy::Both.weights().fragmentation > 0.0);
        assert_eq!(CostPolicy::ALL.len(), 4);
        assert_eq!(CostPolicy::Both.to_string(), "Both");
    }

    #[test]
    fn communication_term_uses_recorded_distances() {
        let app = pipeline(2);
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let mut distances = SparseDistanceMatrix::new();
        distances.record(e[0], e[2], 2);
        let placement = vec![Some(e[0]), None];
        let ctx = CostContext {
            app: &app,
            platform: &platform,
            app_id: AppId(0),
            placement: &placement,
            distances: &distances,
            weights: CostPolicy::Communication.weights(),
            miss_penalty: DEFAULT_MISS_PENALTY,
        };
        // t1's peer t0 sits on e0; distance e0 -> e2 recorded as 2 hops,
        // channel bandwidth 200 -> 2 * 200/100 = 4.
        let cost = ctx.mapping_cost(TaskId(1), e[2]);
        assert!((cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn missing_distance_charges_penalty() {
        let app = pipeline(2);
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let distances = SparseDistanceMatrix::new();
        let placement = vec![Some(e[0]), None];
        let ctx = CostContext {
            app: &app,
            platform: &platform,
            app_id: AppId(0),
            placement: &placement,
            distances: &distances,
            weights: CostPolicy::Communication.weights(),
            miss_penalty: 99.0,
        };
        let cost = ctx.mapping_cost(TaskId(1), e[1]);
        assert!((cost - 99.0 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn unmapped_peers_do_not_contribute() {
        let app = pipeline(3);
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let distances = SparseDistanceMatrix::new();
        let placement = vec![None, None, None];
        let ctx = CostContext {
            app: &app,
            platform: &platform,
            app_id: AppId(0),
            placement: &placement,
            distances: &distances,
            weights: CostPolicy::Communication.weights(),
            miss_penalty: 99.0,
        };
        assert_eq!(ctx.mapping_cost(TaskId(1), e[0]), 0.0);
    }

    #[test]
    fn fragmentation_bonus_prefers_neighbors_of_peers() {
        let app = pipeline(2);
        let mut platform = topology::dsp_line(4);
        let e: Vec<_> = platform.element_ids().collect();
        // t0 of app 0 lives on e1.
        platform
            .claim(e[1], Occupant { app: AppId(0), task: 0, claimed: ResourceVector::ZERO })
            .unwrap();
        let distances = SparseDistanceMatrix::new();
        let placement = vec![Some(e[1]), None];
        let ctx = CostContext {
            app: &app,
            platform: &platform,
            app_id: AppId(0),
            placement: &placement,
            distances: &distances,
            weights: CostPolicy::Fragmentation.weights(),
            miss_penalty: DEFAULT_MISS_PENALTY,
        };
        // e0 and e2 neighbor the peer-holding e1 -> peer bonus; e3 does not.
        let near = ctx.fragmentation_bonus(TaskId(1), e[2]);
        let far = ctx.fragmentation_bonus(TaskId(1), e[3]);
        assert!(near > far);
        // Costs are negated bonuses under the Fragmentation policy.
        assert!(ctx.mapping_cost(TaskId(1), e[2]) < ctx.mapping_cost(TaskId(1), e[3]));
    }

    #[test]
    fn bonus_hierarchy_peer_over_same_app_over_other_app() {
        let app = pipeline(2);
        let mut platform = topology::star(3);
        let els: Vec<_> = platform.element_ids().collect();
        let hub = els[0];
        let leaves = &els[1..];
        let ctx_placement: Vec<Option<ElementId>> = vec![None, None];
        let distances = SparseDistanceMatrix::new();

        // leaf0 holds the peer (app 0 / task 0), leaf1 a same-app non-peer,
        // leaf2 a foreign app task.
        platform
            .claim(leaves[0], Occupant { app: AppId(0), task: 0, claimed: ResourceVector::ZERO })
            .unwrap();
        fn ctx<'a>(
            app: &'a Application,
            platform: &'a Platform,
            placement: &'a [Option<ElementId>],
            distances: &'a SparseDistanceMatrix,
        ) -> CostContext<'a> {
            CostContext {
                app,
                platform,
                app_id: AppId(0),
                placement,
                distances,
                weights: CostPolicy::Fragmentation.weights(),
                miss_penalty: DEFAULT_MISS_PENALTY,
            }
        }
        let with_peer =
            ctx(&app, &platform, &ctx_placement, &distances).fragmentation_bonus(TaskId(1), hub);
        platform.release(leaves[0], AppId(0), 0);
        platform
            .claim(leaves[0], Occupant { app: AppId(0), task: 9, claimed: ResourceVector::ZERO })
            .unwrap();
        let with_same_app =
            ctx(&app, &platform, &ctx_placement, &distances).fragmentation_bonus(TaskId(1), hub);
        platform.release(leaves[0], AppId(0), 9);
        platform
            .claim(leaves[0], Occupant { app: AppId(7), task: 0, claimed: ResourceVector::ZERO })
            .unwrap();
        let with_other_app =
            ctx(&app, &platform, &ctx_placement, &distances).fragmentation_bonus(TaskId(1), hub);
        platform.release(leaves[0], AppId(7), 0);
        let with_nothing =
            ctx(&app, &platform, &ctx_placement, &distances).fragmentation_bonus(TaskId(1), hub);

        assert!(with_peer > with_same_app);
        assert!(with_same_app > with_other_app);
        assert!(with_other_app > with_nothing);
    }

    #[test]
    fn border_elements_get_connectivity_bonus() {
        let app = pipeline(1);
        let platform = topology::dsp_mesh(3, 3);
        let e: Vec<_> = platform.element_ids().collect();
        let distances = SparseDistanceMatrix::new();
        let placement = vec![None];
        let ctx = CostContext {
            app: &app,
            platform: &platform,
            app_id: AppId(0),
            placement: &placement,
            distances: &distances,
            weights: CostPolicy::Fragmentation.weights(),
            miss_penalty: DEFAULT_MISS_PENALTY,
        };
        // e[0] is a corner (degree 2), e[4] the center (degree 4).
        let corner = ctx.fragmentation_bonus(TaskId(0), e[0]);
        let center = ctx.fragmentation_bonus(TaskId(0), e[4]);
        assert!(corner > center);
    }

    #[test]
    fn none_policy_costs_are_all_zero() {
        let app = pipeline(2);
        let platform = topology::dsp_line(2);
        let e: Vec<_> = platform.element_ids().collect();
        let distances = SparseDistanceMatrix::new();
        let placement = vec![Some(e[0]), None];
        let ctx = CostContext {
            app: &app,
            platform: &platform,
            app_id: AppId(0),
            placement: &placement,
            distances: &distances,
            weights: CostPolicy::None.weights(),
            miss_penalty: DEFAULT_MISS_PENALTY,
        };
        assert_eq!(ctx.mapping_cost(TaskId(1), e[1]), 0.0);
    }
}
