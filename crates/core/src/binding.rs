//! Phase 1 — binding: implementation selection.
//!
//! Follows the approach of Hölzenspies et al. (cited as [9]): for each task
//! an implementation is selected "that is able to execute the task with low
//! cost and sufficient performance", with tasks processed in order of
//! *regret* — the difference between the cheapest and second-cheapest
//! assignment, after Martello & Toth's knapsack heuristics [10]. The phase
//! only asserts that the required resources are available *somewhere* in the
//! platform; *where* is the mapping phase's problem.
//!
//! Feasibility is tracked against a virtual view of the platform's free
//! resources: as tasks are bound, their demands are debited from a best-fit
//! element of the pool, so an application whose aggregate demand exceeds the
//! remaining platform capacity is rejected here — exactly the failure mode
//! that dominates the computation-oriented datasets of Table I.
//!
//! Each implementation is asked about once per pass, cheapest (by energy)
//! first: the regret pass stops at the first two that fit the undebited
//! pool, and the commit pass at the first whose debit succeeds. The order
//! needs only the implementations' static energies, not the pool, so the
//! application computes it once ([`Application::implementations_by_energy`]).

use std::cmp::Reverse;

use kairos_app::{Application, ImplId, Implementation, Task, TaskId};
use kairos_platform::{ElementId, ElementKind, Platform, ResourceVector};

use crate::error::BindingError;
use crate::layout::Binding;

/// Working memory of one [`bind`] call, each buffer emptied before it is
/// filled: what a manager's workspace keeps so that binding takes from the
/// heap only the [`Binding`] it returns.
#[derive(Debug, Default)]
pub(crate) struct BindingScratch {
    /// The [`Pool`]'s overlay.
    debited: Vec<(ElementId, ResourceVector)>,
    /// Tasks with their regret, highest regret first once sorted.
    order: Vec<(TaskId, u64)>,
    /// The implementation chosen per task, by task id.
    choices: Vec<ImplId>,
}

/// Virtual free-resource pool: the platform's free vectors under a small
/// overlay of the debits made as bindings are decided. Nothing
/// platform-sized is copied or walked: a query reads the platform's
/// free-capacity rank of the kind it asks about from the first total that
/// could cover the demand, plus the overlay and whatever elements were
/// mutated since the rank was last refreshed.
#[derive(Debug)]
struct Pool<'a> {
    platform: &'a Platform,
    /// Elements debited so far with what they have left, ascending by
    /// element id; at most one entry per bound task.
    debited: &'a mut Vec<(ElementId, ResourceVector)>,
}

/// A best-fit candidate: `(free total, id, what it would have left)`.
type Fit = (u64, ElementId, ResourceVector);

/// Keeps in `best` the lesser by `(free total, id)` of itself and `e` at
/// `free`, when `free` covers `demand`; `true` when it does.
fn offer(
    best: &mut Option<Fit>,
    e: ElementId,
    free: ResourceVector,
    demand: &ResourceVector,
) -> bool {
    let Some(left) = free.checked_sub(demand) else { return false };
    if best.is_none_or(|(total, id, _)| (free.total(), e) < (total, id)) {
        *best = Some((free.total(), e, left));
    }
    true
}

impl<'a> Pool<'a> {
    /// The undebited pool of `platform`, its overlay kept in `debited`.
    fn of(platform: &'a Platform, debited: &'a mut Vec<(ElementId, ResourceVector)>) -> Self {
        debited.clear();
        Pool { platform, debited }
    }

    fn is_debited(&self, e: ElementId) -> bool {
        self.debited.binary_search_by_key(&e, |&(d, _)| d).is_ok()
    }

    /// `true` when some element of `kind` still covers `demand`.
    fn feasible(&self, kind: ElementKind, demand: &ResourceVector) -> bool {
        self.best_fit(kind, demand).is_some()
    }

    /// The alive element of `kind` that fits `demand` with the least
    /// leftover capacity (best fit; the lowest id among equals), with what
    /// it would have left.
    ///
    /// A fitting element is left with `free.total() - demand.total()`, so
    /// the best fit is the least `(free total, id)` among fitting elements,
    /// drawn from three disjoint sources: the debited elements at what they
    /// have left, the elements mutated since the rank's last refresh at
    /// their current free vectors, and the rank itself, whose first fitting
    /// entry from the first total that covers `demand.total()` is the best
    /// of the rest.
    fn best_fit(
        &self,
        kind: ElementKind,
        demand: &ResourceVector,
    ) -> Option<(ElementId, ResourceVector)> {
        let platform = self.platform;
        let mut best = None;
        for &(e, left) in self.debited.iter() {
            if platform.element(e).kind() == kind {
                offer(&mut best, e, left, demand);
            }
        }
        for &e in platform.free_rank_dirty() {
            if platform.element(e).kind() == kind && !platform.is_failed(e) && !self.is_debited(e) {
                offer(&mut best, e, platform.free(e), demand);
            }
        }
        let rank = platform.free_rank(kind);
        let from = rank.partition_point(|&(total, _)| total < demand.total());
        for &(total, e) in &rank[from..] {
            if best.is_some_and(|(least, id, _)| (least, id) < (total, e)) {
                break;
            }
            let skip =
                platform.is_failed(e) || platform.is_free_rank_dirty(e) || self.is_debited(e);
            if !skip && offer(&mut best, e, platform.free(e), demand) {
                break;
            }
        }
        best.map(|(_, e, left)| (e, left))
    }

    /// The free vector, debits included, of the alive element of `kind`
    /// with the greatest free total (the lowest id among equals).
    fn largest_free(&self, kind: ElementKind) -> Option<ResourceVector> {
        let platform = self.platform;
        let free = |e: ElementId| match self.debited.binary_search_by_key(&e, |&(d, _)| d) {
            Ok(at) => self.debited[at].1,
            Err(_) => platform.free(e),
        };
        let alive = platform.ids_of_kind(kind).iter().filter(|&&e| !platform.is_failed(e));
        alive.map(|&e| free(e)).min_by_key(|free| Reverse(free.total()))
    }

    /// Debits `demand` from the best-fit element of `kind`.
    fn commit(&mut self, kind: ElementKind, demand: &ResourceVector) -> bool {
        let Some((e, left)) = self.best_fit(kind, demand) else { return false };
        match self.debited.binary_search_by_key(&e, |&(d, _)| d) {
            Ok(at) => self.debited[at].1 = left,
            Err(at) => self.debited.insert(at, (e, left)),
        }
        true
    }
}

/// `true` when no implementation of the task fits *any* element's raw
/// capacity — ignoring current claims and failure marks — so the task can
/// never be bound on this platform no matter how empty or healthy it gets.
/// Conservative by design: a `false` answer only means "not provably
/// hopeless".
fn structurally_infeasible(task_impls: &[Implementation], platform: &Platform) -> bool {
    task_impls.iter().all(|imp| {
        !platform.elements_of_kind(imp.target()).any(|e| e.capacity().fits(&imp.requires()))
    })
}

/// The refusal of `task`, which no implementation fits `pool`: what its
/// cheapest implementation (energy order) asks of which kind, against
/// the most that is free on an element of that kind.
fn refusal(app: &Application, task: &Task, pool: &Pool<'_>) -> BindingError {
    let implementations = task.implementations();
    let cheapest = &implementations[app.implementations_by_energy(task.id())[0].index()];
    BindingError::NoFeasibleImplementation {
        task: task.id(),
        structural: structurally_infeasible(implementations, pool.platform),
        kind: cheapest.target(),
        requested: cheapest.requires(),
        largest_free: pool.largest_free(cheapest.target()),
    }
}

/// Runs the binding phase of an allocation attempt.
///
/// Selects one implementation per task, cheapest (by energy) first, in
/// descending-regret task order, debiting a virtual best-fit resource pool
/// so that the *set* of selections stays platform-feasible.
///
/// # Errors
///
/// [`BindingError::NoFeasibleImplementation`] when some task has no
/// implementation whose demand still fits the pool.
///
/// # Examples
///
/// ```
/// use kairos_core::bind;
/// use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
/// use kairos_platform::{topology, ElementKind, ResourceVector};
///
/// let platform = topology::crisp();
/// let mut b = ApplicationBuilder::new("one");
/// let dsp = Implementation::new(ElementKind::Dsp, ResourceVector::new(900, 32, 0, 0), 100, 3);
/// b.add_task("worker", TaskRole::Internal, vec![dsp]);
/// let app = b.build()?;
/// let binding = bind(&app, &platform)?;
/// assert_eq!(binding.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bind(app: &Application, platform: &Platform) -> Result<Binding, BindingError> {
    bind_in(app, platform, &mut BindingScratch::default())
}

/// [`bind`] in a manager's working memory.
pub(crate) fn bind_in(
    app: &Application,
    platform: &Platform,
    scratch: &mut BindingScratch,
) -> Result<Binding, BindingError> {
    let BindingScratch { debited, order, choices } = scratch;
    let mut pool = Pool::of(platform, debited);

    // Regret pass: the two cheapest implementations per task that fit the
    // *initial* pool.
    order.clear();
    for task in app.tasks() {
        let implementations = task.implementations();
        let mut fitting = app
            .implementations_by_energy(task.id())
            .iter()
            .map(|i| &implementations[i.index()])
            .filter(|imp| pool.feasible(imp.target(), &imp.requires()));
        let regret = match (fitting.next(), fitting.next()) {
            (None, _) => return Err(refusal(app, task, &pool)),
            (Some(_), None) => u64::MAX,
            (Some(first), Some(second)) => second.energy() - first.energy(),
        };
        order.push((task.id(), regret));
    }
    // Highest regret first: tasks whose second choice is much worse must
    // pick early, while the pool still has room.
    order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // Every task is in `order`, so every slot is written before it is read.
    choices.clear();
    choices.resize(app.task_count(), ImplId(0));
    for &(task_id, _) in order.iter() {
        let task = app.task(task_id);
        let implementations = task.implementations();
        // Against the *current* pool: earlier bindings may have consumed
        // what this task hoped for. A debit that fails leaves the pool as
        // it was, so the first that succeeds is the cheapest that fits.
        let bound = app.implementations_by_energy(task_id).iter().find(|i| {
            let imp = &implementations[i.index()];
            pool.commit(imp.target(), &imp.requires())
        });
        match bound {
            Some(&i) => choices[task_id.index()] = i,
            None => return Err(refusal(app, task, &pool)),
        }
    }

    Ok(Binding::new(choices.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, TaskRole};
    use kairos_platform::{topology, AppId, Occupant};
    use proptest::prelude::*;

    fn dsp_impl(cpu: u64, energy: u64) -> Implementation {
        Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 16, 0, 0), 100, energy)
    }

    fn arm_impl(cpu: u64, energy: u64) -> Implementation {
        Implementation::new(ElementKind::Arm, ResourceVector::new(cpu, 64, 0, 0), 100, energy)
    }

    /// The pool's definition: a dense copy of every free vector, debited
    /// in place, scanned whole.
    fn dense_best_fit(
        platform: &Platform,
        free: &[ResourceVector],
        kind: ElementKind,
        demand: &ResourceVector,
    ) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (i, element) in platform.elements().enumerate() {
            if platform.is_failed(element.id()) || element.kind() != kind || !free[i].fits(demand) {
                continue;
            }
            let leftover = free[i].saturating_sub(demand).total();
            if best.is_none_or(|(_, least)| leftover < least) {
                best = Some((i, leftover));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The binder the phase is checked against: both passes first collect
    /// every implementation that fits the pool, cheapest first, then walk
    /// that list.
    fn reference_bind(app: &Application, platform: &Platform) -> Result<Binding, BindingError> {
        let mut debited = Vec::new();
        let mut pool = Pool::of(platform, &mut debited);
        let fitting = |task: &Task, pool: &Pool<'_>| {
            let mut out: Vec<(u64, ImplId)> = (task.implementations().iter().enumerate())
                .filter(|(_, imp)| pool.feasible(imp.target(), &imp.requires()))
                .map(|(i, imp)| (imp.energy(), ImplId(i as u16)))
                .collect();
            out.sort();
            out
        };
        let mut order = Vec::new();
        for task in app.tasks() {
            let regret = match fitting(task, &pool).as_slice() {
                [] => return Err(refusal(app, task, &pool)),
                [_] => u64::MAX,
                [(first, _), (second, _), ..] => second - first,
            };
            order.push((task.id(), regret));
        }
        order.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut choices = vec![ImplId(0); app.task_count()];
        for (task_id, _) in order {
            let task = app.task(task_id);
            let bound = fitting(task, &pool).into_iter().find(|&(_, i)| {
                let imp = &task.implementations()[i.index()];
                pool.commit(imp.target(), &imp.requires())
            });
            match bound {
                Some((_, i)) => choices[task_id.index()] = i,
                None => return Err(refusal(app, task, &pool)),
            }
        }
        Ok(Binding::new(choices))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Asking each implementation once binds exactly as filtering the
        /// pool first does — the same `Binding`, or the same refusal down to
        /// `largest_free` and `structural` — for random applications (one to
        /// four implementations per task, kinds shared, energies often
        /// equal) on random loads of a heterogeneous mesh with failed
        /// elements and free-rank marks pending.
        #[test]
        fn asking_each_implementation_once_binds_as_filtering_first(
            width in 2usize..7,
            height in 2usize..7,
            load in proptest::collection::vec((0usize..64, 0u64..11), 0..48),
            failed in proptest::collection::vec(0usize..64, 0..5),
            pending in proptest::collection::vec((0usize..64, 0u64..11, any::<bool>()), 0..12),
            tasks in proptest::collection::vec(
                proptest::collection::vec((0usize..5, 0u64..110, 0u64..4), 1..5),
                1..9,
            ),
        ) {
            let mut platform = topology::heterogeneous_mesh(width, height);
            let n = platform.element_count();
            for (task, &(e, tenths)) in load.iter().enumerate() {
                let e = ElementId((e % n) as u32);
                let claimed = platform.free(e).scaled(tenths, 10);
                let _ = platform.claim(e, Occupant { app: AppId(0), task: task as u32, claimed });
            }
            failed.iter().for_each(|&e| platform.fail_element(ElementId((e % n) as u32)));
            platform.refresh_free_rank();
            for (task, &(e, tenths, release)) in pending.iter().enumerate() {
                let e = ElementId((e % n) as u32);
                if release {
                    let _ = platform.release_app(AppId(0), [e]);
                } else {
                    let claimed = platform.free(e).scaled(tenths, 10);
                    let _ = platform.claim(e, Occupant { app: AppId(1), task: task as u32, claimed });
                }
            }

            const KINDS: [ElementKind; 5] = [
                ElementKind::Dsp,
                ElementKind::Dsp,
                ElementKind::Memory,
                ElementKind::Arm,
                ElementKind::Fpga,
            ];
            let mut b = ApplicationBuilder::new("random");
            for (i, impls) in tasks.iter().enumerate() {
                let impls = impls.iter().map(|&(kind, percent, energy)| {
                    let kind = KINDS[kind];
                    let requires = topology::default_capacity(kind).scaled(percent, 100);
                    Implementation::new(kind, requires, 100, energy)
                });
                b.add_task(format!("t{i}"), TaskRole::Internal, impls.collect());
            }
            let app = b.build().unwrap();
            let expected = reference_bind(&app, &platform);
            let mut scratch = BindingScratch::default();
            for _ in 0..2 {
                // Twice on one scratch: nothing read is left from the last call.
                prop_assert_eq!(bind_in(&app, &platform, &mut scratch), expected.clone());
            }
        }
    }

    #[test]
    fn overlay_pool_decides_what_a_dense_copy_decides() {
        // A loaded heterogeneous platform with dead elements; equal claims
        // on equal elements leave ties for the lowest-id rule to break.
        let mut unrefreshed = topology::heterogeneous_mesh(6, 6);
        let ids: Vec<_> = unrefreshed.element_ids().collect();
        for (i, &e) in ids.iter().enumerate() {
            let claimed = unrefreshed.free(e).scaled((i as u64 * 7) % 10, 10);
            unrefreshed.claim(e, Occupant { app: AppId(0), task: i as u32, claimed }).unwrap();
            if i % 11 == 3 {
                unrefreshed.fail_element(e);
            }
        }
        assert_eq!(unrefreshed.free_rank_dirty().len(), ids.len());
        let mut refreshed = unrefreshed.clone();
        refreshed.refresh_free_rank();
        assert!(refreshed.free_rank_dirty().is_empty());

        // The refreshed platform under pending mutations — what the frozen
        // benchmark's `bind` sees on a platform it mutates in a loop: claims
        // and releases that move elements both ways past stale rank
        // entries, a repair, and a release and a claim each taken back.
        let mut pending = refreshed.clone();
        let grow = ResourceVector::new(40, 2, 0, 0);
        for (i, &e) in ids.iter().enumerate().filter(|(i, _)| i % 3 == 1) {
            if i % 2 == 0 {
                pending.release(e, AppId(0), i as u32).unwrap();
            } else {
                let _ = pending.claim(e, Occupant { app: AppId(1), task: i as u32, claimed: grow });
            }
        }
        pending.repair_element(ids[3]);
        pending.release(ids[5], AppId(0), 5).unwrap();
        pending.claim(ids[6], Occupant { app: AppId(2), task: 0, claimed: grow }).unwrap();
        let settled = pending.checkpoint();
        let held = pending.release(ids[8], AppId(0), 8).unwrap();
        pending.claim(ids[8], Occupant { app: AppId(0), task: 8, claimed: held }).unwrap();
        pending.claim(ids[9], Occupant { app: AppId(2), task: 1, claimed: grow }).unwrap();
        pending.release(ids[9], AppId(2), 1).unwrap();
        assert_eq!(pending.checkpoint(), settled);
        assert!(pending.free_rank_dirty().len() > ids.len() / 3);

        for platform in [&unrefreshed, &refreshed, &pending] {
            decides_what_a_dense_copy_decides(platform);
        }
    }

    /// A long run of debits on `platform` that interleaves kinds and
    /// returns to elements already debited, each query checked against the
    /// dense walk.
    fn decides_what_a_dense_copy_decides(platform: &Platform) {
        let ids: Vec<_> = platform.element_ids().collect();
        let mut debited = vec![(ElementId(0), ResourceVector::ZERO)];
        let mut pool = Pool::of(platform, &mut debited);
        assert!(pool.debited.is_empty(), "a pool starts undebited, whatever the buffer held");
        let mut dense: Vec<ResourceVector> = ids.iter().map(|&e| platform.free(e)).collect();
        let mut committed = 0;
        for step in 0..400u64 {
            let kind = [
                ElementKind::Dsp,
                ElementKind::Memory,
                ElementKind::Dsp,
                ElementKind::Fpga,
                ElementKind::Arm,
                ElementKind::TestUnit, // none on this platform
            ][step as usize % 6];
            let demand = ResourceVector::new(step * 37 % 150, step * 13 % 8, 0, 0);
            let expected = dense_best_fit(platform, &dense, kind, &demand);
            assert_eq!(pool.best_fit(kind, &demand).map(|(e, _)| e.index()), expected);
            assert_eq!(pool.feasible(kind, &demand), expected.is_some());
            assert_eq!(pool.commit(kind, &demand), expected.is_some());
            if let Some(i) = expected {
                dense[i] = dense[i].checked_sub(&demand).unwrap();
                committed += 1;
            }
        }
        assert!(committed > 100 && committed < 300, "{committed} debits: both outcomes exercised");
        assert!(pool.debited.len() < committed, "debits returned to debited elements");
    }

    #[test]
    fn picks_cheapest_feasible_implementation() {
        let platform = topology::crisp();
        let mut b = ApplicationBuilder::new("x");
        // Cheaper on ARM than DSP.
        b.add_task("t", TaskRole::Internal, vec![dsp_impl(500, 9), arm_impl(500, 2)]);
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        assert_eq!(binding.choice(TaskId(0)), ImplId(1));
        assert_eq!(binding.implementation(&app, TaskId(0)).target(), ElementKind::Arm);
    }

    #[test]
    fn infeasible_kind_is_rejected() {
        let platform = topology::dsp_mesh(2, 2); // DSPs only
        let mut b = ApplicationBuilder::new("x");
        b.add_task("t", TaskRole::Internal, vec![arm_impl(100, 1)]);
        let app = b.build().unwrap();
        assert!(matches!(
            bind(&app, &platform).unwrap_err(),
            BindingError::NoFeasibleImplementation {
                task: TaskId(0),
                structural: true,
                kind: ElementKind::Arm,
                largest_free: None,
                ..
            }
        ));
    }

    #[test]
    fn oversized_demand_is_rejected_as_structural() {
        let platform = topology::dsp_mesh(2, 2);
        let mut b = ApplicationBuilder::new("x");
        b.add_task("t", TaskRole::Internal, vec![dsp_impl(100_000, 1)]);
        let app = b.build().unwrap();
        let first = platform.element_ids().next().unwrap();
        assert_eq!(
            bind(&app, &platform).unwrap_err(),
            BindingError::NoFeasibleImplementation {
                task: TaskId(0),
                structural: true,
                kind: ElementKind::Dsp,
                requested: ResourceVector::new(100_000, 16, 0, 0),
                largest_free: Some(platform.element(first).capacity()),
            }
        );
    }

    #[test]
    fn a_demand_whose_total_overflows_is_refused_as_structural() {
        // The total of this demand does not fit `u64`; the rank search
        // must see it as larger than any element, not wrap to a small one.
        let platform = topology::crisp();
        let mut b = ApplicationBuilder::new("x");
        let huge = ResourceVector::new(u64::MAX, 1, 0, 0);
        let imp = Implementation::new(ElementKind::Dsp, huge, 1, 1);
        b.add_task("t", TaskRole::Internal, vec![imp]);
        let app = b.build().unwrap();
        assert!(matches!(
            bind(&app, &platform).unwrap_err(),
            BindingError::NoFeasibleImplementation { structural: true, requested, .. }
                if requested == huge
        ));
    }

    #[test]
    fn load_dependent_failures_are_not_structural() {
        // The task fits an idle DSP, but both DSPs are mostly claimed, the
        // second one less so.
        let mut platform = topology::dsp_mesh(1, 2);
        let ids: Vec<_> = platform.element_ids().collect();
        for (&e, cpu) in ids.iter().zip([900, 600]) {
            let claimed = ResourceVector::new(cpu, 0, 0, 0);
            platform.claim(e, Occupant { app: AppId(0), task: 0, claimed }).unwrap();
        }
        let mut b = ApplicationBuilder::new("x");
        // The cheaper implementation is the one the refusal describes.
        b.add_task("t", TaskRole::Internal, vec![dsp_impl(600, 2), dsp_impl(500, 1)]);
        let app = b.build().unwrap();
        assert_eq!(
            bind(&app, &platform).unwrap_err(),
            BindingError::NoFeasibleImplementation {
                task: TaskId(0),
                structural: false,
                kind: ElementKind::Dsp,
                requested: ResourceVector::new(500, 16, 0, 0),
                largest_free: Some(platform.free(ids[1])),
            }
        );
        // Debits count: the first of two tasks takes the roomier DSP, and
        // the second is refused against what the first left there.
        let mut b = ApplicationBuilder::new("y");
        b.add_task("a", TaskRole::Internal, vec![dsp_impl(250, 1)]);
        b.add_task("b", TaskRole::Internal, vec![dsp_impl(250, 1)]);
        let app = b.build().unwrap();
        let left = platform.free(ids[1]).checked_sub(&ResourceVector::new(250, 16, 0, 0));
        assert!(matches!(
            bind(&app, &platform).unwrap_err(),
            BindingError::NoFeasibleImplementation { task: TaskId(1), largest_free, .. }
                if largest_free == left
        ));
    }

    #[test]
    fn aggregate_demand_exhausts_pool() {
        // 4 DSPs; 5 tasks each needing a whole DSP must fail at binding.
        let platform = topology::dsp_mesh(2, 2);
        let mut b = ApplicationBuilder::new("x");
        for i in 0..5 {
            b.add_task(format!("t{i}"), TaskRole::Internal, vec![dsp_impl(1000, 1)]);
        }
        let app = b.build().unwrap();
        assert!(matches!(
            bind(&app, &platform).unwrap_err(),
            BindingError::NoFeasibleImplementation { .. }
        ));
        // 4 such tasks are fine.
        let mut b = ApplicationBuilder::new("y");
        for i in 0..4 {
            b.add_task(format!("t{i}"), TaskRole::Internal, vec![dsp_impl(1000, 1)]);
        }
        let app = b.build().unwrap();
        assert!(bind(&app, &platform).is_ok());
    }

    #[test]
    fn falls_back_to_pricier_implementation_under_pressure() {
        // 1 ARM (cheap target) + DSPs. Two tasks prefer ARM, only one fits.
        let platform = topology::star(3); // 1 arm hub + 3 dsp leaves
        let mut b = ApplicationBuilder::new("x");
        b.add_task("a", TaskRole::Internal, vec![arm_impl(600, 1), dsp_impl(600, 50)]);
        b.add_task("b", TaskRole::Internal, vec![arm_impl(600, 1), dsp_impl(600, 50)]);
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        let targets: Vec<_> =
            app.task_ids().map(|t| binding.implementation(&app, t).target()).collect();
        assert!(targets.contains(&ElementKind::Arm));
        assert!(targets.contains(&ElementKind::Dsp), "second task must fall back");
    }

    #[test]
    fn binding_respects_existing_claims() {
        let mut platform = topology::dsp_mesh(1, 2);
        // Occupy most of both DSPs.
        for e in platform.element_ids().collect::<Vec<_>>() {
            platform
                .claim(
                    e,
                    Occupant { app: AppId(0), task: 0, claimed: ResourceVector::new(800, 0, 0, 0) },
                )
                .unwrap();
        }
        let mut b = ApplicationBuilder::new("x");
        b.add_task("t", TaskRole::Internal, vec![dsp_impl(500, 1)]);
        let app = b.build().unwrap();
        assert!(bind(&app, &platform).is_err());
        let mut b = ApplicationBuilder::new("y");
        b.add_task("t", TaskRole::Internal, vec![dsp_impl(150, 1)]);
        let app = b.build().unwrap();
        assert!(bind(&app, &platform).is_ok());
    }

    #[test]
    fn binding_skips_failed_elements() {
        let mut platform = topology::dsp_mesh(1, 2);
        let ids: Vec<_> = platform.element_ids().collect();
        platform.fail_element(ids[0]);
        platform.fail_element(ids[1]);
        let mut b = ApplicationBuilder::new("x");
        b.add_task("t", TaskRole::Internal, vec![dsp_impl(100, 1)]);
        let app = b.build().unwrap();
        assert!(bind(&app, &platform).is_err());
    }

    #[test]
    fn high_regret_tasks_bind_first() {
        // Star: 1 ARM + 2 DSPs. Task "fussy" saves 100 energy on ARM;
        // task "easy" saves 1. Both fit either; only one ARM slot.
        let platform = topology::star(2);
        let mut b = ApplicationBuilder::new("x");
        let easy =
            b.add_task("easy", TaskRole::Internal, vec![arm_impl(600, 10), dsp_impl(600, 11)]);
        let fussy =
            b.add_task("fussy", TaskRole::Internal, vec![arm_impl(600, 10), dsp_impl(600, 110)]);
        let app = b.build().unwrap();
        let binding = bind(&app, &platform).unwrap();
        assert_eq!(binding.implementation(&app, fussy).target(), ElementKind::Arm);
        assert_eq!(binding.implementation(&app, easy).target(), ElementKind::Dsp);
    }
}
