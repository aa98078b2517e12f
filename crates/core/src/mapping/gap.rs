//! The Generalized Assignment Problem solver (`SolveGAP` of the paper).
//!
//! Implements the `(1+α)`-approximation of Cohen, Katzir & Raz ("An efficient
//! approximation for the generalized assignment problem", IPL 2006, cited as
//! [15]): iterate over the bins (elements); for each bin run a knapsack over
//! the items (tasks) where an item's profit is the *cost reduction*
//! `c1(t) − c2(t)` over its currently best assignment; winners move to the
//! new bin. Items never become unassigned once assigned, and each element is
//! examined once per invocation, so the state can be kept and resumed when
//! `MapApplication` grows the candidate element set (paper Fig. 4).

use kairos_app::TaskId;
use kairos_platform::{ElementId, ResourceVector};

use crate::mapping::knapsack::{KnapsackItem, KnapsackScratch, KnapsackSolver};

/// Cost of an unassigned task (the paper initialises `c1` "to very large
/// values"). Large enough that any feasible first assignment dominates any
/// reassignment gain, yet small enough that `c1 - c2` still resolves cost
/// differences in `f64` (ulp at 1e9 is ~1.2e-7).
const UNASSIGNED_COST: f64 = 1e9;

/// Incremental GAP state over one ring's task set `Ti`.
///
/// Reused across [`GapState::solve`] invocations as the candidate element
/// set grows, preserving best-known costs and assignments exactly as the
/// paper describes. Per-task state is indexed by the task's position in the
/// ring, the capacity overlay by element id; [`GapState::restart`] hands the
/// same allocations to the next ring.
#[derive(Debug, Clone, Default)]
pub struct GapState {
    tasks: Vec<TaskId>,
    /// Best known mapping cost (`c1`) of `tasks[i]`.
    best_cost: Vec<f64>,
    /// Current assignment of `tasks[i]`.
    assignment: Vec<Option<ElementId>>,
    /// Remaining free resources per candidate element, indexed by element
    /// id (overlay over the platform ledger; grown and populated lazily on
    /// first sight of an element).
    free: Vec<Option<ResourceVector>>,
    /// The elements holding an overlay entry, so that `restart` clears
    /// those instead of the whole table.
    seen: Vec<ElementId>,
    /// The knapsack instance of the element under consideration:
    /// `(task position, c2)` per candidate, and the matching items.
    candidates: Vec<(usize, f64)>,
    items: Vec<KnapsackItem>,
    knapsack: KnapsackScratch,
}

impl GapState {
    /// Creates a fresh state for the tasks of one ring.
    pub fn new(tasks: Vec<TaskId>) -> Self {
        let mut state = GapState::default();
        state.restart(&tasks);
        state
    }

    /// Forgets everything and starts over with the tasks of another ring.
    pub fn restart(&mut self, tasks: &[TaskId]) {
        self.tasks.clear();
        self.tasks.extend_from_slice(tasks);
        self.best_cost.clear();
        self.best_cost.resize(tasks.len(), UNASSIGNED_COST);
        self.assignment.clear();
        self.assignment.resize(tasks.len(), None);
        for e in self.seen.drain(..) {
            self.free[e.index()] = None;
        }
    }

    /// The tasks this state manages.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Current assignment of `task`, if any.
    pub fn assignment(&self, task: TaskId) -> Option<ElementId> {
        let pos = self.tasks.iter().position(|&t| t == task)?;
        self.assignment[pos]
    }

    /// `true` when every task has an assignment.
    pub fn all_assigned(&self) -> bool {
        self.assignment.iter().all(Option::is_some)
    }

    /// Tasks still lacking an assignment.
    pub fn unassigned(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .zip(&self.assignment)
            .filter(|(_, a)| a.is_none())
            .map(|(&t, _)| t)
            .collect()
    }

    /// Final `(task, element)` pairs, in task order.
    pub fn assignments(&self) -> impl Iterator<Item = (TaskId, ElementId)> + '_ {
        self.tasks.iter().zip(&self.assignment).filter_map(|(&t, a)| a.map(|e| (t, e)))
    }

    /// Remaining overlay capacity of `element`, if it was ever considered.
    pub fn free_of(&self, element: ElementId) -> Option<ResourceVector> {
        self.free.get(element.index()).copied().flatten()
    }

    /// Processes `new_elements` (bins discovered since the last call).
    ///
    /// For each element `e`, the `availability` predicate gates which tasks
    /// may run on `e` at all (kind compatibility), `demand` yields a task's
    /// resource requirement, and `cost` evaluates the paper's mapping cost
    /// `c2` of placing a task on `e`. Returns `true` when all tasks are
    /// assigned afterwards.
    pub fn solve(
        &mut self,
        new_elements: &[ElementId],
        solver: KnapsackSolver,
        mut initial_free: impl FnMut(ElementId) -> ResourceVector,
        mut availability: impl FnMut(TaskId, ElementId) -> bool,
        mut demand: impl FnMut(TaskId) -> ResourceVector,
        mut cost: impl FnMut(TaskId, ElementId) -> f64,
    ) -> bool {
        for &e in new_elements {
            if self.free.len() <= e.index() {
                self.free.resize(e.index() + 1, None);
            }
            let capacity = *self.free[e.index()].get_or_insert_with(|| {
                self.seen.push(e);
                initial_free(e)
            });

            // Build the knapsack instance: candidate tasks with positive
            // cost reduction over their current best assignment.
            self.candidates.clear();
            self.items.clear();
            for (pos, &t) in self.tasks.iter().enumerate() {
                if self.assignment[pos] == Some(e) || !availability(t, e) {
                    continue;
                }
                let c2 = cost(t, e);
                let reduction = self.best_cost[pos] - c2;
                if reduction > 0.0 {
                    self.candidates.push((pos, c2));
                    self.items.push(KnapsackItem { value: reduction, weight: demand(t) });
                }
            }
            if self.candidates.is_empty() {
                continue;
            }
            let chosen = solver.solve_with(&self.items, capacity, &mut self.knapsack);

            // Move the winners onto e.
            for &idx in chosen {
                let (pos, c2) = self.candidates[idx];
                let weight = self.items[idx].weight;
                if let Some(old) = self.assignment[pos].replace(e) {
                    let back = self.free[old.index()]
                        .as_mut()
                        .expect("previous assignment must have an overlay entry");
                    *back = back.saturating_add(&weight);
                }
                let slot = self.free[e.index()].as_mut().expect("entry created above");
                *slot = slot.checked_sub(&weight).expect("knapsack respects remaining capacity");
                self.best_cost[pos] = c2;
            }
        }
        self.all_assigned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(cpu: u64) -> ResourceVector {
        ResourceVector::new(cpu, 0, 0, 0)
    }

    fn solve_simple(
        state: &mut GapState,
        elements: &[ElementId],
        capacity: u64,
        demands: &[u64],
        cost_fn: impl Fn(TaskId, ElementId) -> f64,
    ) -> bool {
        state.solve(
            elements,
            KnapsackSolver::default(),
            |_| rv(capacity),
            |_, _| true,
            |t| rv(demands[t.index()]),
            cost_fn,
        )
    }

    #[test]
    fn assigns_everything_when_capacity_allows() {
        let tasks = vec![TaskId(0), TaskId(1), TaskId(2)];
        let mut state = GapState::new(tasks);
        let done =
            solve_simple(&mut state, &[ElementId(0), ElementId(1)], 100, &[60, 60, 30], |_, _| 1.0);
        assert!(done);
        assert!(state.all_assigned());
        // Capacity must be respected: the two 60s cannot share one element.
        let e0 = state.assignment(TaskId(0)).unwrap();
        let e1 = state.assignment(TaskId(1)).unwrap();
        assert_ne!(e0, e1);
    }

    #[test]
    fn respects_cost_preferences() {
        let mut state = GapState::new(vec![TaskId(0)]);
        // Element 0 costs 10, element 1 costs 2: after seeing both, the task
        // must sit on element 1.
        let done = solve_simple(&mut state, &[ElementId(0), ElementId(1)], 100, &[10], |_, e| {
            if e == ElementId(0) {
                10.0
            } else {
                2.0
            }
        });
        assert!(done);
        assert_eq!(state.assignment(TaskId(0)), Some(ElementId(1)));
        // And the overlay reflects the move: element 0 has its capacity back.
        assert_eq!(state.free_of(ElementId(0)), Some(rv(100)));
        assert_eq!(state.free_of(ElementId(1)), Some(rv(90)));
    }

    #[test]
    fn never_moves_to_a_worse_element() {
        let mut state = GapState::new(vec![TaskId(0)]);
        assert!(solve_simple(&mut state, &[ElementId(0)], 100, &[10], |_, _| 1.0));
        // A later, more expensive element must not steal the task.
        solve_simple(&mut state, &[ElementId(1)], 100, &[10], |_, e| {
            if e == ElementId(1) {
                50.0
            } else {
                1.0
            }
        });
        assert_eq!(state.assignment(TaskId(0)), Some(ElementId(0)));
    }

    #[test]
    fn incremental_growth_reuses_state() {
        // One element too small for both tasks; growth adds a second.
        let mut state = GapState::new(vec![TaskId(0), TaskId(1)]);
        let done = solve_simple(&mut state, &[ElementId(0)], 50, &[40, 40], |_, _| 1.0);
        assert!(!done);
        assert_eq!(state.unassigned().len(), 1);
        let done = solve_simple(&mut state, &[ElementId(1)], 50, &[40, 40], |_, _| 1.0);
        assert!(done, "second invocation must finish the ring");
        assert!(state.unassigned().is_empty());
    }

    #[test]
    fn availability_gates_kinds() {
        let mut state = GapState::new(vec![TaskId(0)]);
        let done = state.solve(
            &[ElementId(0)],
            KnapsackSolver::default(),
            |_| rv(100),
            |_, _| false, // nothing is compatible
            |_| rv(1),
            |_, _| 1.0,
        );
        assert!(!done);
        assert_eq!(state.assignments().count(), 0);
    }

    #[test]
    fn remapping_frees_the_old_element_for_others() {
        // t0 lands on e0; e1 is cheaper for t0, so t0 moves; t1 (too big for
        // e1's leftover) then fits on e0.
        let mut state = GapState::new(vec![TaskId(0), TaskId(1)]);
        let cost = |t: TaskId, e: ElementId| match (t.0, e.0) {
            (0, 0) => 10.0,
            (0, 1) => 1.0,
            (1, 0) => 5.0,
            (1, 1) => 100.0,
            _ => unreachable!(),
        };
        let done = solve_simple(&mut state, &[ElementId(0), ElementId(1)], 100, &[80, 80], cost);
        assert!(done);
        assert_eq!(state.assignment(TaskId(0)), Some(ElementId(1)));
        assert_eq!(state.assignment(TaskId(1)), Some(ElementId(0)));
    }

    #[test]
    fn state_accessors() {
        let state = GapState::new(vec![TaskId(3), TaskId(4)]);
        assert_eq!(state.tasks(), &[TaskId(3), TaskId(4)]);
        assert!(!state.all_assigned());
        assert_eq!(state.unassigned(), vec![TaskId(3), TaskId(4)]);
        assert_eq!(state.free_of(ElementId(0)), None);
    }

    #[test]
    fn a_restarted_state_forgets_the_previous_ring() {
        let mut state = GapState::new(vec![TaskId(0), TaskId(1)]);
        assert!(solve_simple(&mut state, &[ElementId(0), ElementId(2)], 100, &[60, 60], |_, _| {
            1.0
        }));
        assert_eq!(state.free_of(ElementId(2)), Some(rv(40)));

        state.restart(&[TaskId(5)]);
        assert_eq!(state.tasks(), &[TaskId(5)]);
        assert_eq!(state.unassigned(), vec![TaskId(5)]);
        assert_eq!(state.free_of(ElementId(0)), None, "the overlay starts empty again");
        assert_eq!(state.free_of(ElementId(2)), None);
        let demands = [0, 0, 0, 0, 0, 70];
        assert!(solve_simple(&mut state, &[ElementId(2)], 100, &demands, |_, _| 1.0));
        assert_eq!(state.assignment(TaskId(5)), Some(ElementId(2)));
        assert_eq!(state.free_of(ElementId(2)), Some(rv(30)));
    }
}
