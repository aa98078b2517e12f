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
//!
//! Both terms read the request through [`CostTables`] — each task's mapped
//! peers and each element's count of the request's own tasks, tabled when
//! the placement changes — so one evaluation costs the task's peer list
//! and the element's neighbour row, whatever the platform's size or load.
//! Before the request has placed anything, and for a task without mapped
//! peers — the start of an unpinned application — the neighbour row is not
//! walked either: every used neighbour then earns the same bonus, and the
//! platform keeps their count ([`Platform::used_neighbours`]), so one
//! evaluation is O(1).

use kairos_app::{Application, TaskId};
use kairos_platform::{ElementId, Platform, SparseDistanceMatrix};

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
/// Hops charged when a distance lookup fails.
pub const DISTANCE_MISS_PENALTY: f64 = 64.0;

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

/// What the cost function knows of the request being placed, tabled when
/// the placement changes instead of re-derived per `(task, element)`
/// evaluation: each tabled task's mapped communication peers, and how many
/// of the request's own tasks each element holds.
///
/// Both are read off the partial placement, never off the platform's
/// resident lists, so the cost function reads no occupant identity: the
/// platform tells it only whether an element is used. That is exact
/// because the request claims nothing until its placement is decided —
/// everything resident is someone else's.
#[derive(Debug, Clone, Default)]
pub struct CostTables {
    /// The mapped peers of the tabled tasks, one entry per channel to a
    /// mapped peer: `(peer's element, bandwidth / BANDWIDTH_UNIT)`, each
    /// task's consumers before its producers.
    peers: Vec<(ElementId, f64)>,
    /// Per task id: the task's run `start..end` of `peers` (meaningful for
    /// tabled tasks only).
    peer_runs: Vec<(u32, u32)>,
    /// Per element id: the request's placed tasks on it.
    own: Vec<u32>,
    /// The element of each placed task, in placing order: where `own` is
    /// not zero, and whether the request has placed anything.
    placed: Vec<ElementId>,
}

impl CostTables {
    /// The tables of every task of `app` under the partial `placement`
    /// (indexed by task id) on a platform of `element_count` elements.
    pub fn new(app: &Application, placement: &[Option<ElementId>], element_count: usize) -> Self {
        let mut tables = CostTables::default();
        tables.reset(app.task_count(), element_count);
        placement.iter().flatten().for_each(|&e| tables.place(e));
        tables.table_peers(app, placement, app.task_ids());
        tables
    }

    /// Empties the tables for a request of `tasks` tasks on `elements`
    /// elements: nothing placed, no task tabled.
    pub(crate) fn reset(&mut self, tasks: usize, elements: usize) {
        self.peers.clear();
        self.peer_runs.clear();
        self.peer_runs.resize(tasks, (0, 0));
        // Only where something was placed is a count left.
        for &e in &self.placed {
            self.own[e.index()] = 0;
        }
        self.placed.clear();
        self.own.resize(elements, 0);
    }

    /// Counts one more of the request's tasks placed on `e`.
    pub(crate) fn place(&mut self, e: ElementId) {
        self.own[e.index()] += 1;
        self.placed.push(e);
    }

    /// Tables the mapped peers of `tasks` under `placement`, replacing
    /// whatever was tabled before.
    pub(crate) fn table_peers(
        &mut self,
        app: &Application,
        placement: &[Option<ElementId>],
        tasks: impl IntoIterator<Item = TaskId>,
    ) {
        self.peers.clear();
        for t in tasks {
            let start = self.peers.len() as u32;
            for &(peer, channel) in app.consumers(t).iter().chain(app.producers(t)) {
                // Unmapped peers are left out of the equation.
                if let Some(e) = placement[peer.index()] {
                    let bandwidth = app.channel(channel).bandwidth() as f64 / BANDWIDTH_UNIT;
                    self.peers.push((e, bandwidth));
                }
            }
            self.peer_runs[t.index()] = (start, self.peers.len() as u32);
        }
    }

    /// The mapped peers of tabled task `t`: `(element, bandwidth /
    /// BANDWIDTH_UNIT)` per channel, consumers first.
    pub(crate) fn peers(&self, t: TaskId) -> &[(ElementId, f64)] {
        let (start, end) = self.peer_runs[t.index()];
        &self.peers[start as usize..end as usize]
    }

    /// How many of the request's tasks are placed on `e`.
    #[inline]
    pub(crate) fn own_tasks_on(&self, e: ElementId) -> u32 {
        self.own[e.index()]
    }
}

/// Everything the cost function needs to evaluate a `(task, element)` pair.
#[derive(Debug)]
pub struct CostContext<'a> {
    /// The platform: its structure, and which elements are used.
    pub platform: &'a Platform,
    /// The request's mapped peers and own placed tasks.
    pub tables: &'a CostTables,
    /// Distances discovered by the element search so far.
    pub distances: &'a SparseDistanceMatrix,
    /// Objective weights.
    pub weights: CostWeights,
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
        for &(peer_element, bandwidth) in self.tables.peers(t) {
            let hops = self
                .distances
                .get_symmetric(peer_element, e)
                .map_or(DISTANCE_MISS_PENALTY, f64::from);
            total += hops * bandwidth;
        }
        total
    }

    /// The fragmentation bonus of placing `t` on `e` (higher is better).
    ///
    /// A neighbour is used when the platform says so or it holds one of
    /// the request's own placed tasks (the request decides before it
    /// claims anything). Of each used neighbour it asks whether it holds a
    /// mapped peer of `t`, another of the request's own tasks, or only
    /// other applications' — the first two from the tables, so the
    /// platform is asked nothing but `is_used`. `Platform::state_stamp`
    /// relies on that: it digests the used flag and leaves resident
    /// identity out. Reading an [`Occupant`](kairos_platform::Occupant)
    /// here means putting what is read in the stamp.
    ///
    /// Before the request has placed anything, a task without mapped peers
    /// sees no peer and no own task anywhere: each used neighbour earns
    /// `BONUS_OTHER_APP`, and the sum is the platform's kept
    /// [`Platform::used_neighbours`] count times that bonus — the same
    /// `f64`, bit for bit, as the walk of the neighbour row, which debug
    /// builds assert.
    pub fn fragmentation_bonus(&self, t: TaskId, e: ElementId) -> f64 {
        let peers = self.tables.peers(t);
        let mut bonus = if self.tables.placed.is_empty() && peers.is_empty() {
            let kept = f64::from(self.platform.used_neighbours(e)) * BONUS_OTHER_APP;
            debug_assert_eq!(kept.to_bits(), self.neighbour_bonus(peers, e).to_bits());
            kept
        } else {
            self.neighbour_bonus(peers, e)
        };
        // Low-connectivity elements (chip borders) are more favorable: using
        // them now avoids isolating them later.
        let max_degree = self.platform.max_degree().max(1);
        let degree = self.platform.degree(e);
        bonus += BONUS_BORDER * (max_degree - degree) as f64 / max_degree as f64;
        bonus
    }

    /// The neighbour part of [`Self::fragmentation_bonus`] by a walk of
    /// `e`'s neighbour row, for a task whose mapped peers are `peers`.
    fn neighbour_bonus(&self, peers: &[(ElementId, f64)], e: ElementId) -> f64 {
        let mut bonus = 0.0;
        for &n in self.platform.neighbors(e) {
            if !self.platform.is_used(n) && self.tables.own_tasks_on(n) == 0 {
                continue;
            }
            bonus += if peers.iter().any(|&(p, _)| p == n) {
                BONUS_PEER
            } else if self.tables.own_tasks_on(n) > 0 {
                BONUS_SAME_APP
            } else {
                BONUS_OTHER_APP
            };
        }
        bonus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, AppId, ElementKind, Occupant, ResourceVector};

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

    /// A context over `tables` under `policy`.
    fn ctx<'a>(
        platform: &'a Platform,
        tables: &'a CostTables,
        distances: &'a SparseDistanceMatrix,
        policy: CostPolicy,
    ) -> CostContext<'a> {
        CostContext { platform, tables, distances, weights: policy.weights() }
    }

    #[test]
    fn tables_list_mapped_peers_consumers_first_and_count_own_tasks() {
        // t1 consumes from t0 (bandwidth 200) and produces for t2 (50).
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(1, 0, 0, 0), 100, 1);
        let mut b = ApplicationBuilder::new("v");
        let t: Vec<_> =
            (0..4).map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp])).collect();
        b.add_channel(t[0], t[1], 200, 1);
        b.add_channel(t[1], t[2], 50, 1);
        b.add_channel(t[3], t[2], 10, 1);
        let app = b.build().unwrap();
        let (e0, e1) = (ElementId(0), ElementId(1));
        let tables = CostTables::new(&app, &[Some(e0), None, Some(e1), Some(e1)], 3);
        assert_eq!(tables.peers(t[1]), [(e1, 0.5), (e0, 2.0)], "consumers, then producers");
        assert_eq!(tables.peers(t[2]), [(e1, 0.1)], "t1 is unmapped, t3 is not");
        assert_eq!(tables.peers(t[3]), [(e1, 0.1)]);
        assert_eq!(
            [0, 1, 2].map(|e| tables.own_tasks_on(ElementId(e))),
            [1, 2, 0],
            "own tasks per element"
        );
    }

    #[test]
    fn communication_term_uses_recorded_distances() {
        let app = pipeline(2);
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let mut distances = SparseDistanceMatrix::new();
        distances.record(e[0], e[2], 2);
        let tables = CostTables::new(&app, &[Some(e[0]), None], 3);
        // t1's peer t0 sits on e0; distance e0 -> e2 recorded as 2 hops,
        // channel bandwidth 200 -> 2 * 200/100 = 4.
        let cost = ctx(&platform, &tables, &distances, CostPolicy::Communication)
            .mapping_cost(TaskId(1), e[2]);
        assert!((cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn missing_distance_charges_penalty() {
        let app = pipeline(2);
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let distances = SparseDistanceMatrix::new();
        let tables = CostTables::new(&app, &[Some(e[0]), None], 3);
        let cost = ctx(&platform, &tables, &distances, CostPolicy::Communication)
            .mapping_cost(TaskId(1), e[1]);
        assert_eq!(DISTANCE_MISS_PENALTY, 64.0);
        assert!((cost - DISTANCE_MISS_PENALTY * 2.0).abs() < 1e-9);
    }

    #[test]
    fn unmapped_peers_do_not_contribute() {
        let app = pipeline(3);
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let distances = SparseDistanceMatrix::new();
        let tables = CostTables::new(&app, &[None, None, None], 3);
        let ctx = ctx(&platform, &tables, &distances, CostPolicy::Communication);
        assert_eq!(ctx.mapping_cost(TaskId(1), e[0]), 0.0);
    }

    #[test]
    fn fragmentation_bonus_prefers_neighbors_of_peers() {
        let app = pipeline(2);
        let mut platform = topology::dsp_line(4);
        let e: Vec<_> = platform.element_ids().collect();
        // t0 lives on e1.
        platform
            .claim(e[1], Occupant { app: AppId(0), task: 0, claimed: ResourceVector::ZERO })
            .unwrap();
        let distances = SparseDistanceMatrix::new();
        let tables = CostTables::new(&app, &[Some(e[1]), None], 4);
        let ctx = ctx(&platform, &tables, &distances, CostPolicy::Fragmentation);
        // e0 and e2 neighbor the peer-holding e1 -> peer bonus; e3 does not.
        let near = ctx.fragmentation_bonus(TaskId(1), e[2]);
        let far = ctx.fragmentation_bonus(TaskId(1), e[3]);
        assert!(near > far);
        // Costs are negated bonuses under the Fragmentation policy.
        assert!(ctx.mapping_cost(TaskId(1), e[2]) < ctx.mapping_cost(TaskId(1), e[3]));
    }

    #[test]
    fn bonus_hierarchy_peer_over_same_app_over_other_app() {
        // t1's peers are t0 and t2; t3 is the same application's non-peer.
        // One leaf of a star holds, in turn, the peer, the non-peer, another
        // application's task and nothing; t1 is priced on the hub. Whose
        // task it is comes from the placement alone — the occupant's id is
        // the same every time.
        let app = pipeline(4);
        let mut platform = topology::star(3);
        let els: Vec<_> = platform.element_ids().collect();
        let (hub, leaf) = (els[0], els[1]);
        let distances = SparseDistanceMatrix::new();
        let mut bonus = |resident: Option<usize>, used: bool| {
            let mut placement = vec![None; 4];
            if let Some(task) = resident {
                placement[task] = Some(leaf);
            }
            let occupant = Occupant { app: AppId(5), task: 0, claimed: ResourceVector::ZERO };
            if used {
                platform.claim(leaf, occupant).unwrap();
            }
            let tables = CostTables::new(&app, &placement, els.len());
            let bonus = ctx(&platform, &tables, &distances, CostPolicy::Fragmentation)
                .fragmentation_bonus(TaskId(1), hub);
            if used {
                platform.release(leaf, AppId(5), 0).unwrap();
            }
            bonus
        };
        let with_peer = bonus(Some(0), true);
        let with_same_app = bonus(Some(3), true);
        let with_other_app = bonus(None, true);
        let with_nothing = bonus(None, false);

        assert_eq!(with_peer - with_same_app, BONUS_PEER - BONUS_SAME_APP);
        assert_eq!(with_same_app - with_other_app, BONUS_SAME_APP - BONUS_OTHER_APP);
        assert_eq!(with_other_app - with_nothing, BONUS_OTHER_APP);
        assert!(with_peer > with_same_app && with_same_app > with_other_app);
    }

    #[test]
    fn border_elements_get_connectivity_bonus() {
        let app = pipeline(1);
        let platform = topology::dsp_mesh(3, 3);
        let e: Vec<_> = platform.element_ids().collect();
        let distances = SparseDistanceMatrix::new();
        let tables = CostTables::new(&app, &[None], 9);
        let ctx = ctx(&platform, &tables, &distances, CostPolicy::Fragmentation);
        // e[0] is a corner (degree 2), e[4] the center (degree 4): the
        // border term is (4 - degree) / 4 on an idle mesh.
        assert_eq!(ctx.fragmentation_bonus(TaskId(0), e[0]), BONUS_BORDER * 0.5);
        assert_eq!(ctx.fragmentation_bonus(TaskId(0), e[4]), 0.0);
    }

    #[test]
    fn none_policy_costs_are_all_zero() {
        let app = pipeline(2);
        let mut platform = topology::dsp_line(2);
        let e: Vec<_> = platform.element_ids().collect();
        platform
            .claim(e[0], Occupant { app: AppId(0), task: 0, claimed: ResourceVector::ZERO })
            .unwrap();
        let distances = SparseDistanceMatrix::new();
        let tables = CostTables::new(&app, &[Some(e[0]), None], 2);
        let ctx = ctx(&platform, &tables, &distances, CostPolicy::None);
        assert_eq!(ctx.mapping_cost(TaskId(1), e[1]), 0.0);
    }
}
