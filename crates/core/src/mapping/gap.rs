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
//!
//! The caller reads each element once — its kind and its room, the
//! resources left for the request — and a task's availability on it is a
//! kind comparison and a `fits` against that room. The capacity overlay is
//! lazy: an element gets an entry, starting at its room, only when some
//! task is a candidate for it.

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
    /// id (overlay over the element's room; grown and populated lazily,
    /// when an element first has a candidate task).
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

    /// Remaining overlay capacity of `element`, if some task was ever a
    /// candidate for it.
    pub fn free_of(&self, element: ElementId) -> Option<ResourceVector> {
        self.free.get(element.index()).copied().flatten()
    }

    /// Processes `new_elements` (bins discovered since the last call).
    ///
    /// `rooms[i]` is what `new_elements[i]` offers, read once per element:
    /// its kind and its room — the resources it has left for the request.
    /// `task` yields a task's `(kind, demand)`; a task is available on an
    /// element when the kinds match and the room fits the demand. `cost`
    /// evaluates the paper's mapping cost `c2` of placing a task on an
    /// element. An element gets a capacity-overlay entry, starting at its
    /// room, only when some task is a candidate for it. Returns `true` when
    /// all tasks are assigned afterwards.
    pub fn solve<K: PartialEq>(
        &mut self,
        new_elements: &[ElementId],
        rooms: &[(K, ResourceVector)],
        solver: KnapsackSolver,
        mut task: impl FnMut(TaskId) -> (K, ResourceVector),
        mut cost: impl FnMut(TaskId, ElementId) -> f64,
    ) -> bool {
        debug_assert_eq!(new_elements.len(), rooms.len(), "one room per element");
        for (&e, (kind, room)) in new_elements.iter().zip(rooms) {
            // Build the knapsack instance: candidate tasks with positive
            // cost reduction over their current best assignment.
            self.candidates.clear();
            self.items.clear();
            for (pos, &t) in self.tasks.iter().enumerate() {
                let (k, demand) = task(t);
                if k != *kind || !room.fits(&demand) || self.assignment[pos] == Some(e) {
                    continue;
                }
                let c2 = cost(t, e);
                let reduction = self.best_cost[pos] - c2;
                if reduction > 0.0 {
                    self.candidates.push((pos, c2));
                    self.items.push(KnapsackItem { value: reduction, weight: demand });
                }
            }
            if self.candidates.is_empty() {
                continue;
            }
            if self.free.len() <= e.index() {
                self.free.resize(e.index() + 1, None);
            }
            let capacity = *self.free[e.index()].get_or_insert_with(|| {
                self.seen.push(e);
                *room
            });
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
impl GapState {
    /// The reference `SolveGAP`: availability asked per `(task, element)`
    /// pair through a closure, and an overlay entry made for every element
    /// on first sight — the formulation [`GapState::solve`] replaced.
    fn solve_reference(
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
            for &idx in chosen {
                let (pos, c2) = self.candidates[idx];
                let weight = self.items[idx].weight;
                if let Some(old) = self.assignment[pos].replace(e) {
                    let back = self.free[old.index()].as_mut().expect("overlay entry");
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
    use proptest::prelude::*;

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
        let rooms = vec![((), rv(capacity)); elements.len()];
        state.solve(
            elements,
            &rooms,
            KnapsackSolver::default(),
            |t| ((), rv(demands[t.index()])),
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
            &[('a', rv(100))],
            KnapsackSolver::default(),
            |_| ('b', rv(1)), // nothing is compatible
            |_, _| 1.0,
        );
        assert!(!done);
        assert_eq!(state.assignments().count(), 0);
        assert_eq!(state.free_of(ElementId(0)), None, "no candidate, no overlay entry");
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

    /// One random ring: `(kind, demand)` per task; `(kind, free, debit)`
    /// per element, the debit within the free vector; a cost per pair from
    /// four values, so ties are common; and the cut points splitting the
    /// elements into successive `solve` calls.
    type Ring =
        (Vec<(u8, ResourceVector)>, Vec<(u8, ResourceVector, ResourceVector)>, Vec<u8>, Vec<usize>);

    fn ring() -> impl Strategy<Value = Ring> {
        let tasks = proptest::collection::vec((0u8..3, 1u64..60, 0u64..40), 1..7)
            .prop_map(|tasks| tasks.into_iter().map(|(k, a, b)| (k, vector(a, b))).collect());
        let elements =
            proptest::collection::vec((0u8..3, 0u64..120, 0u64..80, 0u64..120, 0u64..80), 1..10)
                .prop_map(|elements| {
                    // A debit never exceeds what the element has free.
                    let debit = |d: u64, free: u64| d % (free + 1);
                    elements
                        .into_iter()
                        .map(|(k, a, b, da, db)| {
                            (k, vector(a, b), vector(debit(da, a), debit(db, b)))
                        })
                        .collect()
                });
        let costs = proptest::collection::vec(0u8..4, 60);
        let cuts = proptest::collection::vec(0usize..10, 0..3);
        (tasks, elements, costs, cuts)
    }

    fn vector(compute: u64, memory: u64) -> ResourceVector {
        ResourceVector::new(compute, memory, 0, 0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `solve` over once-read rooms decides what the reference decides
        /// with its per-pair availability and eager overlay: the same
        /// outcome of every call, the same assignments and unassigned
        /// tasks, and the same overlay on every assigned element — under
        /// both knapsack strategies, with shared kinds, tied costs and
        /// non-zero debits, over one to three successive calls.
        #[test]
        fn solve_over_rooms_decides_what_the_reference_decides(ring in ring()) {
            let (tasks, elements, costs, cuts) = ring;
            let ids: Vec<TaskId> = (0..tasks.len() as u32).map(|t| TaskId(t + 3)).collect();
            let pos = |t: TaskId| t.index() - 3;
            let kind = |e: ElementId| elements[e.index()].0;
            let room = |e: ElementId| {
                let (_, free, debit) = elements[e.index()];
                free.saturating_sub(&debit)
            };
            let cost = |t: TaskId, e: ElementId| f64::from(costs[pos(t) * 10 + e.index()]) * 0.5 - 1.0;
            let all: Vec<ElementId> = (0..elements.len() as u32).map(ElementId).collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (all.len() + 1)).collect();
            bounds.push(0);
            bounds.push(all.len());
            bounds.sort_unstable();
            for solver in [KnapsackSolver::default(), KnapsackSolver::Greedy] {
                let mut new = GapState::new(ids.clone());
                let mut reference = GapState::new(ids.clone());
                for span in bounds.windows(2) {
                    let chunk = &all[span[0]..span[1]];
                    let rooms: Vec<_> = chunk.iter().map(|&e| (kind(e), room(e))).collect();
                    let done = new.solve(
                        chunk,
                        &rooms,
                        solver,
                        |t| tasks[pos(t)],
                        cost,
                    );
                    let done_reference = reference.solve_reference(
                        chunk,
                        solver,
                        room,
                        |t, e| {
                            let (_, free, debit) = elements[e.index()];
                            let (k, demand) = tasks[pos(t)];
                            kind(e) == k && free.fits(&demand.saturating_add(&debit))
                        },
                        |t| tasks[pos(t)].1,
                        cost,
                    );
                    prop_assert_eq!(done, done_reference, "{:?}", solver);
                }
                prop_assert_eq!(
                    new.assignments().collect::<Vec<_>>(),
                    reference.assignments().collect::<Vec<_>>(),
                    "{:?}", solver
                );
                prop_assert_eq!(new.unassigned(), reference.unassigned());
                for (_, e) in reference.assignments() {
                    prop_assert_eq!(new.free_of(e), reference.free_of(e), "{:?} on {}", solver, e);
                }
            }
        }
    }
}
