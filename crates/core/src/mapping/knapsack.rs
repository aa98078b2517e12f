//! Multi-dimensional 0/1 knapsack — the subroutine of the GAP solver.
//!
//! The GAP approximation of Cohen, Katzir & Raz guarantees a `(1+α)` ratio
//! where α is the approximation ratio of the knapsack subroutine, and its
//! running time is dominated by it. Two solvers are provided:
//!
//! * [`KnapsackSolver::Exact`] — branch-and-bound, optimal (α = 1) for the
//!   small per-ring task sets the mapping heuristic produces;
//! * [`KnapsackSolver::Greedy`] — value/size-ratio greedy, `O(n log n)`
//!   (α ≤ 2 for the scalar relaxation), matching the paper's "our knapsack
//!   implementation has a time complexity O(T²)" overall GAP bound.

use kairos_platform::ResourceVector;

/// One selectable item: a task's resource demand and the cost reduction
/// (profit) of placing it on the element under consideration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// Profit of selecting this item; must be positive to be worth selecting.
    pub value: f64,
    /// Multi-dimensional weight (the task's resource demand).
    pub weight: ResourceVector,
}

/// Strategy for solving the per-element knapsack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnapsackSolver {
    /// Branch-and-bound, exact up to `max_exact_items` items; silently falls
    /// back to greedy beyond that.
    Exact {
        /// Largest item count solved exactly.
        max_exact_items: usize,
    },
    /// Value/size-ratio greedy.
    Greedy,
}

impl Default for KnapsackSolver {
    fn default() -> Self {
        KnapsackSolver::Exact { max_exact_items: 24 }
    }
}

/// The working vectors of one knapsack solve. `SolveGAP` solves one
/// instance per candidate element, so [`GapState`](super::GapState) keeps
/// one of these and hands it to every [`KnapsackSolver::solve_with`] call.
#[derive(Debug, Clone, Default)]
pub(crate) struct KnapsackScratch {
    /// Positive-value item indices by descending value/size ratio.
    order: Vec<usize>,
    /// Suffix sums of value over `order` (the optimistic bound).
    suffix: Vec<f64>,
    /// The branch being explored.
    current: Vec<usize>,
    /// The best set found; the result of the solve.
    best: Vec<usize>,
}

impl KnapsackSolver {
    /// Selects a subset of `items` maximising total value subject to the
    /// component-wise `capacity`, returning the chosen indices in ascending
    /// order. Items with non-positive value are never selected.
    pub fn solve(&self, items: &[KnapsackItem], capacity: ResourceVector) -> Vec<usize> {
        self.solve_with(items, capacity, &mut KnapsackScratch::default()).to_vec()
    }

    /// [`Self::solve`] into caller-owned working memory; the returned slice
    /// borrows it.
    pub(crate) fn solve_with<'s>(
        &self,
        items: &[KnapsackItem],
        capacity: ResourceVector,
        scratch: &'s mut KnapsackScratch,
    ) -> &'s [usize] {
        // Order by ratio: greedy takes in this order, and it tightens the
        // exact search's optimistic bound quickly.
        scratch.order.clear();
        scratch.order.extend((0..items.len()).filter(|&i| items[i].value > 0.0));
        scratch.order.sort_by(|&a, &b| {
            ratio(&items[b]).partial_cmp(&ratio(&items[a])).unwrap_or(std::cmp::Ordering::Equal)
        });
        scratch.best.clear();
        match *self {
            KnapsackSolver::Exact { max_exact_items } if items.len() <= max_exact_items => {
                solve_exact(items, capacity, scratch)
            }
            _ => solve_greedy(items, capacity, scratch),
        }
        scratch.best.sort_unstable();
        &scratch.best
    }
}

/// Ratio used for ordering: value per unit of scalarised weight.
fn ratio(item: &KnapsackItem) -> f64 {
    item.value / (item.weight.total() as f64 + 1.0)
}

fn solve_greedy(items: &[KnapsackItem], capacity: ResourceVector, scratch: &mut KnapsackScratch) {
    let mut free = capacity;
    for &i in &scratch.order {
        if let Some(rest) = free.checked_sub(&items[i].weight) {
            free = rest;
            scratch.best.push(i);
        }
    }
}

fn solve_exact(items: &[KnapsackItem], capacity: ResourceVector, scratch: &mut KnapsackScratch) {
    let KnapsackScratch { order, suffix, current, best } = scratch;
    suffix.clear();
    suffix.resize(order.len() + 1, 0.0);
    for k in (0..order.len()).rev() {
        suffix[k] = suffix[k + 1] + items[order[k]].value;
    }
    current.clear();

    struct Search<'a> {
        items: &'a [KnapsackItem],
        order: &'a [usize],
        suffix: &'a [f64],
        best_value: f64,
        best_set: &'a mut Vec<usize>,
        current: &'a mut Vec<usize>,
    }

    impl Search<'_> {
        fn dfs(&mut self, k: usize, free: ResourceVector, value: f64) {
            if value > self.best_value {
                self.best_value = value;
                self.best_set.clear();
                self.best_set.extend_from_slice(self.current);
            }
            if k == self.order.len() || value + self.suffix[k] <= self.best_value {
                return;
            }
            let idx = self.order[k];
            // Branch 1: take item k if it fits.
            if let Some(rest) = free.checked_sub(&self.items[idx].weight) {
                self.current.push(idx);
                self.dfs(k + 1, rest, value + self.items[idx].value);
                self.current.pop();
            }
            // Branch 2: skip item k.
            self.dfs(k + 1, free, value);
        }
    }

    Search { items, order, suffix, best_value: 0.0, best_set: best, current }.dfs(0, capacity, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(value: f64, cpu: u64) -> KnapsackItem {
        KnapsackItem { value, weight: ResourceVector::new(cpu, 0, 0, 0) }
    }

    fn total_value(items: &[KnapsackItem], chosen: &[usize]) -> f64 {
        chosen.iter().map(|&i| items[i].value).sum()
    }

    #[test]
    fn exact_finds_optimum_where_greedy_fails() {
        // Classic greedy trap: ratio prefers the small item, optimum is the
        // two larger ones.
        let items = vec![item(10.0, 5), item(9.0, 4), item(9.0, 4)];
        let cap = ResourceVector::new(8, 0, 0, 0);
        let exact = KnapsackSolver::Exact { max_exact_items: 24 }.solve(&items, cap);
        assert_eq!(exact, vec![1, 2]);
        assert_eq!(total_value(&items, &exact), 18.0);
        let greedy = KnapsackSolver::Greedy.solve(&items, cap);
        assert!(total_value(&items, &greedy) <= 18.0);
    }

    #[test]
    fn empty_and_all_negative_select_nothing() {
        let cap = ResourceVector::splat(100);
        assert!(KnapsackSolver::default().solve(&[], cap).is_empty());
        let items = vec![item(-1.0, 1), item(0.0, 1)];
        assert!(KnapsackSolver::default().solve(&items, cap).is_empty());
        assert!(KnapsackSolver::Greedy.solve(&items, cap).is_empty());
    }

    #[test]
    fn capacity_is_respected_in_all_dimensions() {
        let items = vec![
            KnapsackItem { value: 5.0, weight: ResourceVector::new(10, 0, 0, 0) },
            KnapsackItem { value: 5.0, weight: ResourceVector::new(0, 10, 0, 0) },
            KnapsackItem { value: 5.0, weight: ResourceVector::new(10, 10, 0, 0) },
        ];
        let cap = ResourceVector::new(10, 10, 0, 0);
        for solver in [KnapsackSolver::default(), KnapsackSolver::Greedy] {
            let chosen = solver.solve(&items, cap);
            let used: ResourceVector = chosen.iter().map(|&i| items[i].weight).sum();
            assert!(cap.fits(&used), "{solver:?} exceeded capacity");
            assert_eq!(total_value(&items, &chosen), 10.0, "{solver:?} suboptimal");
        }
    }

    #[test]
    fn exact_falls_back_to_greedy_beyond_limit() {
        let items: Vec<_> = (0..30).map(|i| item(1.0 + i as f64, 1)).collect();
        let cap = ResourceVector::new(5, 0, 0, 0);
        let solver = KnapsackSolver::Exact { max_exact_items: 8 };
        let chosen = solver.solve(&items, cap);
        assert_eq!(chosen.len(), 5);
        // Greedy picks the five highest-value unit items, which is optimal here.
        assert_eq!(chosen, vec![25, 26, 27, 28, 29]);
    }

    #[test]
    fn zero_weight_items_are_free() {
        let items = vec![item(1.0, 0), item(2.0, 0), item(3.0, 5)];
        let cap = ResourceVector::new(4, 0, 0, 0);
        let chosen = KnapsackSolver::default().solve(&items, cap);
        assert_eq!(chosen, vec![0, 1], "both free items, heavy one does not fit");
    }

    #[test]
    fn exact_dominates_greedy_on_random_instances() {
        // Deterministic pseudo-random instances (LCG) — exact must always be
        // at least as good as greedy.
        let mut state = 0x1234_5678_u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..50 {
            let n = 3 + (rand() % 10) as usize;
            let items: Vec<KnapsackItem> = (0..n)
                .map(|_| KnapsackItem {
                    value: (rand() % 100) as f64,
                    weight: ResourceVector::new((rand() % 50) as u64, (rand() % 20) as u64, 0, 0),
                })
                .collect();
            let cap = ResourceVector::new(60, 25, 0, 0);
            let exact = KnapsackSolver::default().solve(&items, cap);
            let greedy = KnapsackSolver::Greedy.solve(&items, cap);
            assert!(
                total_value(&items, &exact) >= total_value(&items, &greedy) - 1e-9,
                "exact must dominate greedy"
            );
            let used: ResourceVector = exact.iter().map(|&i| items[i].weight).sum();
            assert!(cap.fits(&used));
        }
    }
}
