//! Phase 2 — mapping: the incremental task-placement heuristic that is the
//! paper's main contribution (`MapApplication`, Fig. 5).
//!
//! The algorithm divides the mapping problem along the task graph's
//! topology:
//!
//! 1. Seed a partial mapping `M0` from tasks with exactly one available
//!    element (pinned I/O); if none exist, start from a minimum-degree task
//!    placed on the cheapest element (which, through the fragmentation
//!    objective, prefers isolation-prone border elements).
//! 2. Group the remaining tasks into undirected neighborhoods `Ti` of
//!    increasing distance `i` from the seeds.
//! 3. Per neighborhood, search the platform by directed BFS from the
//!    elements of mapped peers (`E+`/`E-`), one ring at a time, with one
//!    extra ring beyond the first sufficient candidate set.
//! 4. Solve each neighborhood's placement as a Generalized Assignment
//!    Problem, growing the candidate set until the ring is fully mapped or
//!    the platform is exhausted (which fails the attempt).

mod cost;
mod gap;
mod knapsack;
mod search;

pub use cost::{CostContext, CostPolicy, CostTables, CostWeights, DISTANCE_MISS_PENALTY};
pub use gap::GapState;
pub use knapsack::{KnapsackItem, KnapsackSolver};
pub use search::ElementSearch;

use kairos_app::{Application, TaskId, TaskRings};
use kairos_platform::{
    AppId, ElementId, ElementKind, Platform, ResourceVector, SparseDistanceMatrix,
};

use crate::cache::{replay_point, Seat};
use crate::error::MappingError;
use crate::layout::{Binding, Placement};

/// Alternative starting elements retried when an unpinned application
/// dead-ends from its first start.
pub const START_RETRIES: u32 = 3;

/// Tuning knobs of the mapping phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapperConfig {
    /// Objective weights of the cost function.
    pub weights: CostWeights,
    /// Knapsack strategy used inside `SolveGAP`.
    pub knapsack: KnapsackSolver,
    /// Extra BFS rings searched beyond the first sufficient candidate set
    /// (the paper performs "a single additional search step").
    pub extra_search_rings: u32,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            weights: CostWeights::default(),
            knapsack: KnapsackSolver::default(),
            extra_search_rings: 1,
        }
    }
}

impl MapperConfig {
    /// A configuration using the given cost policy and defaults elsewhere.
    pub fn with_policy(policy: CostPolicy) -> Self {
        MapperConfig { weights: policy.weights(), ..MapperConfig::default() }
    }
}

/// Outcome of a successful mapping, with search statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingReport {
    /// The computed task placement.
    pub placement: Placement,
    /// Number of task-graph neighborhoods processed (excluding the seeds).
    pub rings: usize,
    /// Number of platform elements discovered by the searches.
    pub elements_discovered: usize,
    /// Number of `SolveGAP` invocations.
    pub gap_invocations: usize,
}

/// Runs the mapping phase: places every task of `app` on an element of
/// `platform` and claims the placement there.
///
/// On success the claims for all tasks are on the platform (tagged with
/// `app_id`); on failure the platform is untouched — the placement is
/// decided first and claimed only once complete.
///
/// # Errors
///
/// See [`MappingError`]. In particular the platform-search exhaustion of
/// Fig. 5 line 12 surfaces as [`MappingError::SearchExhausted`].
///
/// # Examples
///
/// ```
/// use kairos_core::{bind, map_application, MapperConfig};
/// use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
/// use kairos_platform::{topology, AppId, ElementKind, ResourceVector};
///
/// let mut platform = topology::crisp();
/// let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(800, 32, 0, 0), 100, 3);
/// let mut b = ApplicationBuilder::new("pair");
/// let t0 = b.add_task("a", TaskRole::Internal, vec![imp]);
/// let t1 = b.add_task("b", TaskRole::Internal, vec![imp]);
/// b.add_channel(t0, t1, 100, 1);
/// let app = b.build()?;
/// let binding = bind(&app, &platform)?;
/// let report = map_application(&app, &binding, &mut platform, AppId(0), &MapperConfig::default())?;
/// assert_eq!(report.placement.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn map_application(
    app: &Application,
    binding: &Binding,
    platform: &mut Platform,
    app_id: AppId,
    config: &MapperConfig,
) -> Result<MappingReport, MappingError> {
    let mut scratch = MappingScratch::default();
    let report = map_application_in(app, binding, platform, config, &mut scratch)?;
    replay_point(platform, app_id, scratch.seats(), &[], []);
    Ok(report)
}

/// A task's bound implementation as the mapper reads it: the element kind
/// it targets and the resources it claims.
type Bound = (ElementKind, ResourceVector);

/// Every element with `av(e, t)` for a task bound to `(kind, demand)` on the
/// platform as it stands, in no fixed order: the kind's free-rank entries
/// from the first total that could cover the demand (an element that fits
/// has at least the demand's total free), skipping entries of elements
/// mutated since the last refresh, and those elements read directly. For
/// the scans made before anything is placed.
fn available_elements(
    platform: &Platform,
    (kind, demand): Bound,
) -> impl Iterator<Item = ElementId> + '_ {
    let rank = platform.free_rank(kind);
    let from = rank.partition_point(|&(total, _)| total < demand.total());
    let ranked = rank[from..].iter().map(|&(_, e)| e).filter(|&e| !platform.is_free_rank_dirty(e));
    let dirty = platform.free_rank_dirty().iter().copied();
    ranked
        .chain(dirty.filter(move |&e| platform.element(e).kind() == kind))
        .filter(move |&e| platform.is_available(e, &demand))
}

/// The request's partial placement in every form the mapper reads it: by
/// task, as the cost function's tables, as a per-element debit of the
/// request's own demand against the platform's free vectors, and as the
/// seats taken, in the order they were taken.
#[derive(Debug, Default)]
struct OwnPlacement {
    /// The element of each placed task, by task id.
    placement: Vec<Option<ElementId>>,
    /// What the cost function reads of the request: the mapped peers of
    /// the tasks being priced, and the placement's own-task counts — so
    /// an element is used if the platform says so or it holds an own task.
    tables: CostTables,
    /// The request's placed demand per element — zero on every element
    /// `seats` does not list: what `e` has free for the request is
    /// `platform.free(e)` less this.
    debit: Vec<ResourceVector>,
    /// The placement's claims in placing order: what the writer replays.
    seats: Vec<Seat>,
}

impl OwnPlacement {
    /// Forgets every placed task, for a request of `tasks` tasks on a
    /// platform of `elements` elements.
    fn reset(&mut self, tasks: usize, elements: usize) {
        self.placement.clear();
        self.placement.resize(tasks, None);
        self.tables.reset(tasks, elements);
        // Only what the seats list was debited.
        for &(e, ..) in &self.seats {
            self.debit[e.index()] = ResourceVector::ZERO;
        }
        self.debit.resize(elements, ResourceVector::ZERO);
        self.seats.clear();
    }

    /// Places task `t`, demanding `demand`, on `e`.
    fn place(&mut self, t: TaskId, demand: ResourceVector, e: ElementId) {
        self.placement[t.index()] = Some(e);
        self.tables.place(e);
        let debit = &mut self.debit[e.index()];
        *debit = debit.saturating_add(&demand);
        self.seats.push((e, t.0, demand));
    }

    /// What `e` has free for the request — its room: the platform's free
    /// vector less the request's own demand placed there.
    ///
    /// A task bound to `(kind, demand)` is available on `e` when `e` is of
    /// that kind, alive, and its room fits the demand. The room never
    /// under-runs: the request only ever places within an element's room.
    /// One corner differs from testing the free vector against the demand
    /// plus the debit: where a free component is `u64::MAX` and that sum
    /// would overflow, the room refuses what the saturated sum admitted.
    /// `SolveGAP` could not have placed such a task there either (its
    /// knapsack capacity was the room), but the sufficiency test no longer
    /// counts the element as a host for it. No platform in the tree has a
    /// `u64::MAX` capacity.
    fn room(&self, platform: &Platform, e: ElementId) -> ResourceVector {
        let free = platform.free(e);
        let debit = &self.debit[e.index()];
        debug_assert!(free.fits(debit), "{e} holds more of the request than it has free");
        free.saturating_sub(debit)
    }
}

/// Working memory of one [`map_application`] call. Every set the element
/// search and `SolveGAP` grow lives here and is restarted — not reallocated
/// — for each ring and each start attempt, and a manager keeps the whole of
/// it between calls, so the only thing a call takes from the heap is the
/// [`Placement`] it returns.
#[derive(Debug, Default)]
pub(crate) struct MappingScratch {
    distances: SparseDistanceMatrix,
    search: ElementSearch,
    gap: GapState,
    /// Each task's bound `(kind, demand)`, by task id: what availability,
    /// `SolveGAP`'s demands and the seats read, looked up once per call.
    bound: Vec<Bound>,
    /// The partial placement.
    own: OwnPlacement,
    /// The cheapest starts of an unpinned application, cheapest first.
    starts: Vec<(ElementId, f64)>,
    /// The tasks `placement` holds when a ring decomposition starts, and
    /// the decomposition from them when the application keeps none.
    seeds: Vec<TaskId>,
    rings: TaskRings,
    /// Elements discovered since the last `SolveGAP` invocation.
    fresh: Vec<ElementId>,
    /// Per entry of `fresh`: the element's kind and room, read once for the
    /// sufficiency test and `SolveGAP` both.
    rooms: Vec<(ElementKind, ResourceVector)>,
    /// The still-unmapped tasks of the ring being placed.
    tasks: Vec<TaskId>,
    /// Per entry of `tasks`: some discovered element is available to it.
    hosted: Vec<bool>,
    /// `E+` / `E-` of the ring being placed.
    forward_origins: Vec<ElementId>,
    backward_origins: Vec<ElementId>,
}

impl MappingScratch {
    /// The seats of the last placement decided here, in placing order.
    pub(crate) fn seats(&self) -> &[Seat] {
        &self.own.seats
    }
}

/// [`map_application`]'s decision in a manager's working memory: the
/// placement, with its seats left in `scratch`, and nothing written.
pub(crate) fn map_application_in(
    app: &Application,
    binding: &Binding,
    platform: &Platform,
    config: &MapperConfig,
    scratch: &mut MappingScratch,
) -> Result<MappingReport, MappingError> {
    scratch.distances.reset(platform.element_count());
    scratch.bound.clear();
    scratch.bound.extend(app.task_ids().map(|t| {
        let imp = binding.implementation(app, t);
        (imp.target(), imp.requires())
    }));
    scratch.own.reset(app.task_count(), platform.element_count());

    // --- M0: pinned tasks (exactly one available element). -----------------
    // Only "none, one or more" matters, so each scan stops at the second
    // available element. Nothing is placed before every task was scanned:
    // a placement would change what the later scans see.
    for t in app.task_ids() {
        let mut candidates = available_elements(platform, scratch.bound[t.index()]);
        match (candidates.next(), candidates.next()) {
            (None, _) => return Err(MappingError::NoStartingPoint { task: t }),
            (Some(only), None) => scratch.own.placement[t.index()] = Some(only),
            _ => {}
        }
    }

    if scratch.own.placement.iter().any(Option::is_some) {
        for t in app.task_ids() {
            if let Some(e) = scratch.own.placement[t.index()] {
                let demand = scratch.bound[t.index()].1;
                if !scratch.own.room(platform, e).fits(&demand) {
                    return Err(MappingError::PinnedTaskInfeasible { task: t, element: e });
                }
                scratch.own.place(t, demand, e);
            }
        }
        return map_rings(app, platform, config, scratch);
    }

    // --- M0 fallback: minimum-degree task on the cheapest element. ---------
    // Rank every available start by the cost function; when the mapping
    // dead-ends from a start (e.g. its free region is too small), retry the
    // whole process from the next-best start — "multiple iterations are
    // required to improve the solution". Only `START_RETRIES + 1` starts
    // are ever tried, so only that many are kept: cheapest first, equal
    // costs in id order — the head of a sort of all of them by
    // `(cost, id)`, which the insertion spells out because the candidates
    // arrive in free-rank order, not id order. The request has placed
    // nothing yet and `t0` has no mapped peer, so a start's cost is
    // `−w_f · (used neighbours + border bonus)`: the cost function reads
    // the platform's kept used-neighbour count and the element's degree,
    // O(1) per start, not its neighbour row.
    let t0 = *app.min_degree_tasks().first().expect("applications are validated non-empty");
    let attempts = START_RETRIES as usize + 1;
    scratch.starts.clear();
    scratch.own.tables.table_peers(app, &scratch.own.placement, [t0]);
    {
        let ctx = CostContext {
            platform,
            tables: &scratch.own.tables,
            distances: &scratch.distances,
            weights: config.weights,
        };
        let starts = &mut scratch.starts;
        for e in available_elements(platform, scratch.bound[t0.index()]) {
            let cost = ctx.mapping_cost(t0, e);
            let rank =
                starts.partition_point(|&(id, ranked)| ranked < cost || (ranked == cost && id < e));
            if rank < attempts {
                starts.insert(rank, (e, cost));
                starts.truncate(attempts);
            }
        }
    }
    if scratch.starts.is_empty() {
        return Err(MappingError::NoStartingPoint { task: t0 });
    }

    let mut last_err = None;
    for attempt in 0..scratch.starts.len() {
        let (e0, _) = scratch.starts[attempt];
        scratch.own.reset(app.task_count(), platform.element_count());
        scratch.own.place(t0, scratch.bound[t0.index()].1, e0);
        match map_rings(app, platform, config, scratch) {
            Ok(report) => return Ok(report),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one attempt was made"))
}

/// Places every task the partial placement leaves open, ring by ring from
/// the seeds it holds, fixing each ring as it is solved.
fn map_rings(
    app: &Application,
    platform: &Platform,
    config: &MapperConfig,
    scratch: &mut MappingScratch,
) -> Result<MappingReport, MappingError> {
    let MappingScratch {
        distances,
        search,
        gap,
        bound,
        own,
        starts: _,
        seeds,
        rings,
        fresh,
        rooms,
        tasks,
        hosted,
        forward_origins,
        backward_origins,
    } = scratch;
    distances.clear();

    // --- Neighborhood decomposition from the seeds. -------------------------
    // The application keeps the rings most calls start from.
    seeds.clear();
    seeds.extend(app.task_ids().filter(|t| own.placement[t.index()].is_some()));
    let rings = app.rings_from(seeds, rings);

    let mut stats_rings = 0usize;
    let mut stats_gap = 0usize;
    let mut stats_elements = 0usize;

    for (i, ring) in rings.iter().enumerate().skip(1) {
        tasks.clear();
        tasks.extend(ring.iter().copied().filter(|t| own.placement[t.index()].is_none()));
        if tasks.is_empty() {
            continue;
        }
        stats_rings += 1;

        // E+ / E-: elements of mapped peers with channels into/out of Ti.
        forward_origins.clear();
        backward_origins.clear();
        for &t2 in tasks.iter() {
            for &(t1, _) in app.producers(t2) {
                if let Some(e1) = own.placement[t1.index()] {
                    forward_origins.push(e1); // data flows t1 -> t2
                }
            }
            for &(t1, _) in app.consumers(t2) {
                if let Some(e1) = own.placement[t1.index()] {
                    backward_origins.push(e1); // data flows t2 -> t1
                }
            }
        }
        if forward_origins.is_empty() && backward_origins.is_empty() {
            // Disconnected component: restart from every mapped element.
            forward_origins.extend(own.placement.iter().flatten());
            backward_origins.extend_from_slice(forward_origins);
        }

        search.restart_on(platform.element_count(), forward_origins, backward_origins);
        gap.restart(tasks);
        own.tables.table_peers(app, &own.placement, tasks.iter().copied());
        fresh.clear();
        rooms.clear();
        hosted.clear();
        hosted.resize(tasks.len(), false);
        let mut sufficient = false;
        let mut extra_remaining = config.extra_search_rings;

        loop {
            let ring_start = fresh.len();
            expand(search, platform, distances, own, fresh, rooms);

            // Grow until the candidate set looks sufficient (every task has
            // a compatible discovered element, and there are at least as
            // many candidates as tasks). Nothing is placed inside this
            // loop, so availability is fixed, the test is monotone in the
            // discovered set, and only the new ring has to be looked at.
            if !sufficient {
                for (&t, has_host) in tasks.iter().zip(hosted.iter_mut()) {
                    let (kind, demand) = bound[t.index()];
                    *has_host = *has_host
                        || rooms[ring_start..]
                            .iter()
                            .any(|&(k, room)| k == kind && room.fits(&demand));
                }
                sufficient = search.discovered().len() >= tasks.len() && hosted.iter().all(|&h| h);
            }
            if !sufficient && !search.is_exhausted() {
                continue;
            }
            // One extra ring beyond the first sufficient set (§III-B).
            while sufficient && extra_remaining > 0 && !search.is_exhausted() {
                extra_remaining -= 1;
                expand(search, platform, distances, own, fresh, rooms);
            }

            let solved = {
                let ctx = CostContext {
                    platform,
                    tables: &own.tables,
                    distances,
                    weights: config.weights,
                };
                stats_gap += 1;
                gap.solve(
                    fresh,
                    rooms,
                    config.knapsack,
                    |t| bound[t.index()],
                    |t, e| ctx.mapping_cost(t, e),
                )
            };
            fresh.clear();
            rooms.clear();
            if solved {
                break;
            }
            if search.is_exhausted() {
                return Err(MappingError::SearchExhausted { ring: i, unmapped: gap.unassigned() });
            }
        }
        stats_elements += search.discovered().len();

        // Fix the ring's placement.
        for (t, e) in gap.assignments() {
            own.place(t, bound[t.index()].1, e);
        }
    }

    let final_placement: Vec<ElementId> =
        own.placement.iter().map(|p| p.expect("all rings placed")).collect();
    Ok(MappingReport {
        placement: Placement::new(final_placement),
        rings: stats_rings,
        elements_discovered: stats_elements,
        gap_invocations: stats_gap,
    })
}

/// Advances `search` by one ring into `fresh`, and reads each new element's
/// kind and room into `rooms`. Fresh elements are never failed: the search
/// neither reports nor traverses a failed element.
fn expand(
    search: &mut ElementSearch,
    platform: &Platform,
    distances: &mut SparseDistanceMatrix,
    own: &OwnPlacement,
    fresh: &mut Vec<ElementId>,
    rooms: &mut Vec<(ElementKind, ResourceVector)>,
) {
    search.expand(platform, distances, fresh);
    let new = &fresh[rooms.len()..];
    rooms.extend(new.iter().map(|&e| (platform.element(e).kind(), own.room(platform, e))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, Occupant};

    fn dsp(cpu: u64) -> Implementation {
        Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 16, 0, 0), 100, 1)
    }

    fn fpga() -> Implementation {
        Implementation::new(ElementKind::Fpga, ResourceVector::new(100, 32, 500, 1), 100, 1)
    }

    fn arm() -> Implementation {
        Implementation::new(ElementKind::Arm, ResourceVector::new(200, 64, 0, 1), 100, 1)
    }

    /// src(fpga) -> w0..w{n-1}(dsp chain) -> sink(arm)
    fn pinned_pipeline(n: usize, cpu: u64) -> kairos_app::Application {
        let mut b = ApplicationBuilder::new("pipe");
        let src = b.add_task("src", TaskRole::Input, vec![fpga()]);
        let mut prev = src;
        for i in 0..n {
            let w = b.add_task(format!("w{i}"), TaskRole::Internal, vec![dsp(cpu)]);
            b.add_channel(prev, w, 100, 1);
            prev = w;
        }
        let sink = b.add_task("sink", TaskRole::Output, vec![arm()]);
        b.add_channel(prev, sink, 100, 1);
        b.build().unwrap()
    }

    #[test]
    fn maps_pinned_pipeline_on_crisp() {
        let mut platform = topology::crisp();
        let app = pinned_pipeline(4, 800);
        let binding = bind(&app, &platform).unwrap();
        let report =
            map_application(&app, &binding, &mut platform, AppId(0), &MapperConfig::default())
                .unwrap();
        // Pinned tasks sit on their singletons.
        let fpga_el = platform.elements_of_kind(ElementKind::Fpga).next().unwrap().id();
        let arm_el = platform.elements_of_kind(ElementKind::Arm).next().unwrap().id();
        assert_eq!(report.placement.element(TaskId(0)), fpga_el);
        assert_eq!(report.placement.element(TaskId(5)), arm_el);
        // All tasks claimed on the platform.
        for (t, e) in report.placement.iter() {
            assert!(platform.residents(e).iter().any(|o| o.task == t.0));
        }
        assert!(report.rings >= 1);
        assert!(report.elements_discovered > 0);
    }

    #[test]
    fn placement_is_local_for_chains() {
        // On a line platform, a 3-task chain should sit on adjacent elements
        // under the Communication policy.
        let mut platform = topology::dsp_line(8);
        let mut b = ApplicationBuilder::new("chain");
        let t0 = b.add_task("a", TaskRole::Internal, vec![dsp(800)]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![dsp(800)]);
        let t2 = b.add_task("c", TaskRole::Internal, vec![dsp(800)]);
        b.add_channel(t0, t1, 100, 1);
        b.add_channel(t1, t2, 100, 1);
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        let config = MapperConfig::with_policy(CostPolicy::Communication);
        let report = map_application(&app, &binding, &mut platform, AppId(0), &config).unwrap();
        let hops = |a: TaskId, b: TaskId| {
            kairos_platform::hop_distance(
                &platform,
                report.placement.element(a),
                report.placement.element(b),
            )
            .unwrap()
        };
        assert!(hops(t0, t1) <= 2, "chain neighbors stay close");
        assert!(hops(t1, t2) <= 2);
    }

    #[test]
    fn fails_when_platform_too_small() {
        let mut platform = topology::dsp_mesh(2, 2);
        // 5 whole-DSP tasks cannot fit 4 DSPs; binding would refuse, so test
        // mapping directly with a hand-made binding of a 4-task app onto a
        // platform where one DSP is pre-claimed.
        let pre = platform.element_ids().next().unwrap();
        platform
            .claim(
                pre,
                Occupant { app: AppId(9), task: 0, claimed: ResourceVector::new(1000, 0, 0, 0) },
            )
            .unwrap();
        let mut b = ApplicationBuilder::new("big");
        let mut prev = None;
        for i in 0..4 {
            let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![dsp(1000)]);
            if let Some(p) = prev {
                b.add_channel(p, t, 10, 1);
            }
            prev = Some(t);
        }
        let app = b.build().unwrap();
        let binding = Binding::new(vec![kairos_app::ImplId(0); 4]);
        let before = platform.checkpoint();
        let err =
            map_application(&app, &binding, &mut platform, AppId(0), &MapperConfig::default())
                .unwrap_err();
        assert!(matches!(
            err,
            MappingError::SearchExhausted { .. } | MappingError::NoStartingPoint { .. }
        ));
        // Rollback must be complete.
        assert_eq!(platform.checkpoint(), before);
    }

    #[test]
    fn no_starting_point_when_kind_absent() {
        let mut platform = topology::dsp_mesh(2, 2);
        let mut b = ApplicationBuilder::new("armless");
        b.add_task("t", TaskRole::Internal, vec![arm()]);
        let app = b.build().unwrap();
        let binding = Binding::new(vec![kairos_app::ImplId(0)]);
        assert!(matches!(
            map_application(&app, &binding, &mut platform, AppId(0), &MapperConfig::default())
                .unwrap_err(),
            MappingError::NoStartingPoint { .. }
        ));
    }

    #[test]
    fn unpinned_app_starts_from_min_degree_task() {
        let mut platform = topology::dsp_mesh(3, 3);
        // star task graph: center has degree 3, leaves degree 1.
        let mut b = ApplicationBuilder::new("star");
        let center = b.add_task("center", TaskRole::Internal, vec![dsp(300)]);
        for i in 0..3 {
            let leaf = b.add_task(format!("leaf{i}"), TaskRole::Internal, vec![dsp(300)]);
            b.add_channel(center, leaf, 50, 1);
        }
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        let report = map_application(
            &app,
            &binding,
            &mut platform,
            AppId(0),
            &MapperConfig::with_policy(CostPolicy::Both),
        )
        .unwrap();
        assert_eq!(report.placement.len(), 4);
        assert_eq!(START_RETRIES, 3);
        // Everything must be claimed exactly once.
        let claimed: usize = platform.element_ids().map(|e| platform.residents(e).len()).sum();
        assert_eq!(claimed, 4);
    }

    #[test]
    fn tasks_share_elements_when_resources_allow() {
        // Two small tasks and a single-DSP platform: both must land on it.
        let mut platform = topology::dsp_line(1);
        let mut b = ApplicationBuilder::new("share");
        let t0 = b.add_task("a", TaskRole::Internal, vec![dsp(300)]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![dsp(300)]);
        b.add_channel(t0, t1, 10, 1);
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        let report =
            map_application(&app, &binding, &mut platform, AppId(0), &MapperConfig::default())
                .unwrap();
        assert_eq!(report.placement.element(t0), report.placement.element(t1));
    }

    #[test]
    fn mapping_avoids_failed_elements() {
        let mut platform = topology::dsp_line(4);
        let e: Vec<_> = platform.element_ids().collect();
        platform.fail_element(e[1]);
        let mut b = ApplicationBuilder::new("pair");
        let t0 = b.add_task("a", TaskRole::Internal, vec![dsp(900)]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![dsp(900)]);
        b.add_channel(t0, t1, 10, 1);
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        let report =
            map_application(&app, &binding, &mut platform, AppId(0), &MapperConfig::default())
                .unwrap();
        for (_, el) in report.placement.iter() {
            assert_ne!(el, e[1]);
        }
    }

    /// The fallback's starts are the head of a brute-force ranking: every
    /// available element of `t0`'s kind, in id order, priced by
    /// `mapping_cost` (whose kept-count path debug builds check against
    /// the neighbour walk), stably sorted, cheapest first — on a loaded
    /// mesh, under every policy, with the free rank's marks pending and
    /// refreshed.
    #[test]
    fn the_fallback_starts_are_the_brute_force_ranking() {
        let mut platform = topology::heterogeneous_mesh(8, 8);
        let ids: Vec<_> = platform.element_ids().collect();
        for (i, &e) in ids.iter().enumerate() {
            let cpu = [0, 300, 0, 1000, 700, 0, 0, 200, 1000, 0, 500][i % 11];
            if cpu > 0 && platform.element(e).kind() == ElementKind::Dsp {
                let claimed = ResourceVector::new(cpu, 8, 0, 0);
                platform.claim(e, Occupant { app: AppId(9), task: i as u32, claimed }).unwrap();
            }
        }
        platform.fail_element(ids[18]);
        // An unpinned star: every task fits many DSPs.
        let mut b = ApplicationBuilder::new("star");
        let center = b.add_task("center", TaskRole::Internal, vec![dsp(400)]);
        for i in 0..3 {
            let leaf = b.add_task(format!("leaf{i}"), TaskRole::Internal, vec![dsp(300)]);
            b.add_channel(center, leaf, 50, 1);
        }
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        let t0 = app.min_degree_tasks()[0];
        let bound = (ElementKind::Dsp, binding.implementation(&app, t0).requires());
        let tables = CostTables::new(&app, &vec![None; app.task_count()], ids.len());
        let distances = SparseDistanceMatrix::new();
        let pending = platform.free_rank_dirty().len();
        assert!(pending > 0, "the claims left marks for the scans to read directly");
        let mut refreshed = platform.clone();
        refreshed.refresh_free_rank();
        for (platform, marks) in [(&platform, "pending"), (&refreshed, "refreshed")] {
            for policy in CostPolicy::ALL {
                let config = MapperConfig::with_policy(policy);
                let mut scratch = MappingScratch::default();
                let _ = map_application_in(&app, &binding, platform, &config, &mut scratch);

                let ctx = CostContext {
                    platform,
                    tables: &tables,
                    distances: &distances,
                    weights: config.weights,
                };
                let mut ranked: Vec<(ElementId, f64)> = ids
                    .iter()
                    .filter(|&&e| platform.element(e).kind() == bound.0)
                    .filter(|&&e| platform.is_available(e, &bound.1))
                    .map(|&e| (e, ctx.mapping_cost(t0, e)))
                    .collect();
                assert!(
                    ranked.len() > START_RETRIES as usize + 1,
                    "{policy}, marks {marks}: many starts"
                );
                ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                ranked.truncate(START_RETRIES as usize + 1);
                assert_eq!(scratch.starts, ranked, "{policy}, marks {marks}");
            }
        }
    }

    #[test]
    fn disconnected_app_still_maps() {
        let mut platform = topology::dsp_mesh(2, 2);
        let mut b = ApplicationBuilder::new("disc");
        b.add_task("a", TaskRole::Internal, vec![dsp(400)]);
        b.add_task("b", TaskRole::Internal, vec![dsp(400)]);
        // no channels at all
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        let report =
            map_application(&app, &binding, &mut platform, AppId(0), &MapperConfig::default())
                .unwrap();
        assert_eq!(report.placement.len(), 2);
    }
}
