//! Baseline mappers for quality comparison.
//!
//! The paper's future work proposes comparing the heuristic against an ILP
//! formulation. This module provides the comparison substrate, outside the
//! product: the `ablation_exact` bench and the heuristic-quality tests are
//! its only users.
//!
//! * [`map_first_fit`] — topology-blind first-fit placement (the behaviour
//!   the incremental heuristic degrades to when its cost function is
//!   disabled *and* the element search visits elements in id order);
//! * [`map_exact`] — exhaustive branch-and-bound placement minimising the
//!   total bandwidth-weighted hop count, feasible for small instances only;
//! * [`placement_comm_cost`] — the objective both are scored with.

use kairos_app::{Application, TaskId};
use kairos_core::{Binding, MappingError, Placement};
use kairos_platform::{
    bfs_distances, AppId, ElementId, Occupant, Platform, ResourceVector, SearchDirection,
};

/// Total bandwidth-weighted hop count of a placement: for every channel,
/// `hops(src_element, dst_element) * bandwidth`. Unreachable pairs are
/// charged `unreachable_penalty` hops.
pub fn placement_comm_cost(
    app: &Application,
    placement: &Placement,
    platform: &Platform,
    unreachable_penalty: u32,
) -> u64 {
    let mut total = 0u64;
    for channel in app.channels() {
        let src = placement.element(channel.src());
        let dst = placement.element(channel.dst());
        if src == dst {
            continue;
        }
        let hops = bfs_distances(platform, src, SearchDirection::Forward)[dst.index()]
            .unwrap_or(unreachable_penalty);
        total += hops as u64 * channel.bandwidth();
    }
    total
}

/// Places each task on the first element (by id) that is kind-compatible
/// and has enough free resources, claiming as it goes. Rolls back on failure.
///
/// # Errors
///
/// [`MappingError::NoStartingPoint`] naming the first unplaceable task.
pub fn map_first_fit(
    app: &Application,
    binding: &Binding,
    platform: &mut Platform,
    app_id: AppId,
) -> Result<Placement, MappingError> {
    let checkpoint = platform.checkpoint();
    let mut elements = Vec::with_capacity(app.task_count());
    for t in app.task_ids() {
        let imp = binding.implementation(app, t);
        let slot = platform.element_ids().find(|&e| {
            platform.element(e).kind() == imp.target() && platform.is_available(e, &imp.requires())
        });
        match slot {
            Some(e) => {
                platform
                    .claim(e, Occupant { app: app_id, task: t.0, claimed: imp.requires() })
                    .expect("availability checked above");
                elements.push(e);
            }
            None => {
                platform.restore(checkpoint);
                return Err(MappingError::NoStartingPoint { task: t });
            }
        }
    }
    Ok(Placement::new(elements))
}

/// Resource bookkeeping for the exact search.
struct ExactSearch<'a> {
    app: &'a Application,
    binding: &'a Binding,
    platform: &'a Platform,
    /// Current free-resource overlay per element.
    free: Vec<ResourceVector>,
    /// All-pairs hop distances (dense; small platforms only).
    dist: Vec<Vec<Option<u32>>>,
    assignment: Vec<Option<ElementId>>,
    best_cost: u64,
    best: Option<Vec<ElementId>>,
    nodes: u64,
    node_budget: u64,
}

impl ExactSearch<'_> {
    fn partial_cost(&self, upto: usize) -> u64 {
        let mut total = 0u64;
        for channel in self.app.channels() {
            let (s, d) = (channel.src().index(), channel.dst().index());
            if s >= upto || d >= upto {
                continue;
            }
            let (es, ed) = (
                self.assignment[s].expect("assigned below upto"),
                self.assignment[d].expect("assigned below upto"),
            );
            if es == ed {
                continue;
            }
            let hops = self.dist[es.index()][ed.index()].unwrap_or(1000);
            total += hops as u64 * channel.bandwidth();
        }
        total
    }

    fn dfs(&mut self, depth: usize) {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            return;
        }
        let cost_so_far = self.partial_cost(depth);
        if cost_so_far >= self.best_cost {
            return; // adding tasks never reduces the cost
        }
        if depth == self.app.task_count() {
            self.best_cost = cost_so_far;
            self.best = Some(self.assignment.iter().map(|a| a.expect("complete")).collect());
            return;
        }
        let t = TaskId(depth as u32);
        let imp = self.binding.implementation(self.app, t);
        for e in self.platform.element_ids() {
            if self.platform.element(e).kind() != imp.target()
                || self.platform.is_failed(e)
                || !self.free[e.index()].fits(&imp.requires())
            {
                continue;
            }
            self.free[e.index()] =
                self.free[e.index()].checked_sub(&imp.requires()).expect("fits checked");
            self.assignment[depth] = Some(e);
            self.dfs(depth + 1);
            self.assignment[depth] = None;
            self.free[e.index()] = self.free[e.index()].saturating_add(&imp.requires());
        }
    }
}

/// Exhaustively searches for the placement minimising
/// [`placement_comm_cost`], within a node budget. Returns `None` when no
/// feasible placement exists (or the budget ran out before finding one).
///
/// Unlike [`map_first_fit`] this performs no claims; it is an analysis
/// oracle, not an allocation path.
///
/// # Panics
///
/// Panics if `app` has more than 16 tasks — the search is exponential and
/// meant for heuristic-quality studies on small instances.
pub fn map_exact(
    app: &Application,
    binding: &Binding,
    platform: &Platform,
    node_budget: u64,
) -> Option<(Placement, u64)> {
    assert!(app.task_count() <= 16, "exact mapper is for small instances (<= 16 tasks)");
    let dist: Vec<Vec<Option<u32>>> = platform
        .element_ids()
        .map(|e| bfs_distances(platform, e, SearchDirection::Forward))
        .collect();
    let mut search = ExactSearch {
        app,
        binding,
        platform,
        free: platform.element_ids().map(|e| platform.free(e)).collect(),
        dist,
        assignment: vec![None; app.task_count()],
        best_cost: u64::MAX,
        best: None,
        nodes: 0,
        node_budget,
    };
    search.dfs(0);
    search.best.map(|els| (Placement::new(els), search.best_cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_core::{bind, map_application, CostPolicy, MapperConfig};
    use kairos_platform::{topology, ElementKind};

    fn dsp(cpu: u64) -> Implementation {
        Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 10, 1)
    }

    fn chain(n: usize, cpu: u64, bw: u64) -> Application {
        let mut b = ApplicationBuilder::new("chain");
        let mut prev = None;
        for i in 0..n {
            let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![dsp(cpu)]);
            if let Some(p) = prev {
                b.add_channel(p, t, bw, 1);
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn first_fit_places_and_claims() {
        let mut platform = topology::dsp_line(4);
        let app = chain(3, 400, 10);
        let binding = bind(&app, &platform).unwrap();
        let placement = map_first_fit(&app, &binding, &mut platform, AppId(0)).unwrap();
        assert_eq!(placement.len(), 3);
        let total_claims: usize = platform.element_ids().map(|e| platform.residents(e).len()).sum();
        assert_eq!(total_claims, 3);
    }

    #[test]
    fn first_fit_rolls_back_on_failure() {
        let mut platform = topology::dsp_line(2);
        let app = chain(3, 900, 10);
        let binding = Binding::new(vec![kairos_app::ImplId(0); 3]);
        let before = platform.checkpoint();
        assert!(map_first_fit(&app, &binding, &mut platform, AppId(0)).is_err());
        assert_eq!(platform.checkpoint(), before);
    }

    #[test]
    fn exact_finds_zero_cost_colocated_placement() {
        // Two tiny tasks fit one element: optimal cost is 0.
        let platform = topology::dsp_line(3);
        let app = chain(2, 300, 100);
        let binding = bind(&app, &platform).unwrap();
        let (placement, cost) = map_exact(&app, &binding, &platform, 1_000_000).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(placement.element(TaskId(0)), placement.element(TaskId(1)));
    }

    #[test]
    fn exact_is_a_lower_bound_for_the_heuristic() {
        let platform = topology::dsp_mesh(3, 3);
        let app = chain(4, 700, 100);
        let binding = bind(&app, &platform).unwrap();
        let (_, optimal) = map_exact(&app, &binding, &platform, 5_000_000).unwrap();
        let mut work = platform.clone();
        let report = map_application(
            &app,
            &binding,
            &mut work,
            AppId(0),
            &MapperConfig::with_policy(CostPolicy::Communication),
        )
        .unwrap();
        let heuristic = placement_comm_cost(&app, &report.placement, &platform, 1000);
        assert!(heuristic >= optimal, "exact must lower-bound the heuristic");
        // And the heuristic should not be catastrophically worse here.
        assert!(heuristic <= optimal + 4 * 100, "chain on a mesh stays local");
    }

    #[test]
    fn exact_detects_infeasibility() {
        let platform = topology::dsp_line(1);
        let app = chain(2, 900, 10);
        let binding = Binding::new(vec![kairos_app::ImplId(0); 2]);
        assert!(map_exact(&app, &binding, &platform, 1_000_000).is_none());
    }

    #[test]
    #[should_panic(expected = "small instances")]
    fn exact_rejects_large_apps() {
        let platform = topology::dsp_line(2);
        let app = chain(17, 1, 1);
        let binding = Binding::new(vec![kairos_app::ImplId(0); 17]);
        let _ = map_exact(&app, &binding, &platform, 1);
    }

    #[test]
    fn comm_cost_counts_bandwidth_weighted_hops() {
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let app = chain(2, 100, 50);
        let placement = Placement::new(vec![e[0], e[2]]);
        assert_eq!(placement_comm_cost(&app, &placement, &platform, 99), 2 * 50);
        let colocated = Placement::new(vec![e[1], e[1]]);
        assert_eq!(placement_comm_cost(&app, &colocated, &platform, 99), 0);
    }
}
