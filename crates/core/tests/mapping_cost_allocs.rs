//! The mapping cost function is evaluated once per `(task, element)` pair
//! the search considers, so it must not allocate: every structural query it
//! makes of the platform (`neighbors`, `degree`, `max_degree`) is a table
//! read, and everything it knows of the request (mapped peers, own-task
//! counts) is a `CostTables` read. Before PR 16 each evaluation re-derived
//! the platform's maximum degree — one sorted, deduplicated `Vec` per
//! element — and this test counted more than |E| allocations per call.
//!
//! The same counting allocator holds a whole warm admission to a budget:
//! see [`a_warm_admission_allocates_only_what_outlives_it`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use kairos_app::TaskId;
use kairos_appgen::{generate_dataset, DatasetSpec};
use kairos_core::{
    bind, map_application, CostContext, CostPolicy, CostTables, Kairos, KairosConfig, MapperConfig,
};
use kairos_platform::{
    bfs_distances, topology, AppId, ElementId, SearchDirection, SparseDistanceMatrix,
};

thread_local! {
    /// Allocations made by the current thread (tests run on parallel
    /// threads; a process-wide count would see the harness too).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded to `System` unchanged; the only addition
// is a thread-local counter bump, which does not allocate (const-initialised,
// no destructor) and is skipped once the thread's locals are gone.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn mapping_cost_does_not_allocate() {
    // A loaded 16x16 mesh: residents of other applications around, so the
    // fragmentation bonus walks used neighbours.
    let mut platform = topology::heterogeneous_mesh(16, 16);
    let config = MapperConfig::with_policy(CostPolicy::Both);
    let mut resident = 0;
    for (i, app) in
        DatasetSpec::all().into_iter().flat_map(|spec| generate_dataset(spec, 8, 16)).enumerate()
    {
        let Ok(binding) = bind(&app, &platform) else { continue };
        if map_application(&app, &binding, &mut platform, AppId(i as u32), &config).is_ok() {
            resident += 1;
        }
    }
    assert!(resident >= 8, "the mesh is meant to be loaded, {resident} applications fit");

    // The application under evaluation: mapped for real, so its tasks sit
    // where a mapper would put them, then every task but the last is
    // presented as already placed (peer and same-application bonuses).
    let app_id = AppId(999);
    let (app, placement) = generate_dataset(DatasetSpec::all()[1], 16, 7)
        .into_iter()
        .find_map(|app| {
            let binding = bind(&app, &platform).ok()?;
            let report = map_application(&app, &binding, &mut platform, app_id, &config).ok()?;
            Some((app, report.placement))
        })
        .expect("one medium application still fits");
    let open = TaskId(app.task_count() as u32 - 1);
    let partial: Vec<Option<ElementId>> =
        placement.iter().map(|(t, e)| (t != open).then_some(e)).collect();
    let mut distances = SparseDistanceMatrix::new();
    distances.reset(platform.element_count());
    for origin in partial.iter().flatten() {
        let mut row = distances.recorder(*origin);
        for (e, hops) in bfs_distances(&platform, *origin, SearchDirection::Forward)
            .into_iter()
            .enumerate()
            .filter_map(|(e, hops)| Some((e, hops?)))
            .filter(|&(_, hops)| hops <= 3)
        {
            row.record(ElementId(e as u32), hops);
        }
    }

    let tables = CostTables::new(&app, &partial, platform.element_count());
    let ctx = CostContext {
        platform: &platform,
        tables: &tables,
        distances: &distances,
        weights: config.weights,
    };
    let elements = platform.element_count() as u32;
    let tasks = app.task_count() as u32;

    let before = allocations();
    let mut total = 0.0;
    for i in 0..1000u32 {
        total += ctx.mapping_cost(TaskId(i % tasks), ElementId(i * 7 % elements));
    }
    let allocated = allocations() - before;
    black_box(total);

    assert!(total.is_finite() && total != 0.0, "both cost terms were evaluated");
    assert_eq!(allocated, 0, "mapping_cost allocated {allocated} times over 1000 evaluations");
}

/// Mean allocations of one `Kairos::admit`, admitted and refused apart, on
/// a warm manager: CRISP under a FIFO churn of all six Table-I datasets.
/// Only what outlives the call may come from the heap, because the
/// pipeline's working memory lives in the manager's workspace and an
/// application clones by reference count. An admitted request pays for its
/// layout once (a binding, a placement, the route list and one link list
/// per non-local channel, 10.4 on this churn) plus the `Arc` it is built
/// into, 11.4 in all: the report and the registry share that one
/// allocation (each held a copy of its own up to `576c634`, 20.8 in all),
/// the registry keeps no bandwidth list beside the application that holds
/// one, and the platform's resident lists grow only under admissions,
/// never under refusals that claim nothing. A refused one pays for the binding and placement it got to
/// before the refusal (1.93 on this churn) and for the boxed
/// `AllocationError` it returns, which a front-end moves into its event as
/// it is: 2.93, and 2.96 in all, because routing fills a destination's
/// static hop row on its first use (`Platform::hops_to`: the row and its
/// search queue), and the measured refusals route to two destinations the
/// warm-up never did. At `292cf97`, where
/// every phase rebuilt its working sets per call, this churn read 171.07
/// and 158.67 (most refusals here come from routing, after a full mapping
/// run). The counts are exact: a change that moves them is a change to what
/// an admission allocates, and says so here.
#[test]
fn a_warm_admission_allocates_only_what_outlives_it() {
    let apps: Vec<_> =
        DatasetSpec::all().into_iter().flat_map(|spec| generate_dataset(spec, 12, 22)).collect();
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut resident = std::collections::VecDeque::new();
    // (requests, allocations) of admitted and of refused admissions.
    let (mut admitted, mut refused) = ((0u64, 0u64), (0u64, 0u64));
    for pass in 0..2 {
        let warm_up = pass == 0;
        for i in 0..apps.len() * 5 {
            let app = &apps[(i * 7 + pass) % apps.len()];
            let before = allocations();
            let result = kairos.admit(app);
            let allocated = allocations() - before;
            let tally = if result.is_ok() { &mut admitted } else { &mut refused };
            if !warm_up {
                tally.0 += 1;
                tally.1 += allocated;
            }
            match result {
                Ok(report) => resident.push_back(report.app_id),
                // A refusal frees the two oldest residents, as does a
                // platform that has filled up.
                Err(_) => {
                    for id in resident.drain(..resident.len().min(2)) {
                        assert!(kairos.release(id));
                    }
                }
            }
            if resident.len() > 6 {
                assert!(kairos.release(resident.pop_front().unwrap()));
            }
        }
    }
    assert!(admitted.0 >= 100 && refused.0 >= 50, "{admitted:?} admitted, {refused:?} refused");
    let per_admitted = admitted.1 as f64 / admitted.0 as f64;
    let per_refused = refused.1 as f64 / refused.0 as f64;
    assert!(per_admitted <= 11.5, "{per_admitted:.2} allocations per admitted request");
    assert!(per_refused <= 3.0, "{per_refused:.2} allocations per refused request");
}
