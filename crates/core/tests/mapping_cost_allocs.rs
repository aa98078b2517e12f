//! The mapping cost function is evaluated once per `(task, element)` pair
//! the search considers, so it must not allocate: every structural query it
//! makes of the platform (`neighbors`, `degree`, `max_degree`) is a table
//! read. Before PR 16 each evaluation re-derived the platform's maximum
//! degree — one sorted, deduplicated `Vec` per element — and this test
//! counted more than |E| allocations per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use kairos_app::TaskId;
use kairos_appgen::{generate_dataset, DatasetSpec};
use kairos_core::{
    bind, map_application, CostContext, CostPolicy, MapperConfig, DEFAULT_MISS_PENALTY,
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
    // fragmentation bonus walks occupied neighbours.
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

    // The application under evaluation: mapped for real, so its own tasks
    // are resident too (peer and same-application bonuses), then every task
    // but the last is presented as already placed.
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
    for origin in partial.iter().flatten() {
        for (e, hops) in bfs_distances(&platform, *origin, SearchDirection::Forward)
            .into_iter()
            .enumerate()
            .filter_map(|(e, hops)| Some((e, hops?)))
            .filter(|&(_, hops)| hops <= 3)
        {
            distances.record(*origin, ElementId(e as u32), hops);
        }
    }

    let ctx = CostContext {
        app: &app,
        platform: &platform,
        app_id,
        placement: &partial,
        distances: &distances,
        weights: config.weights,
        miss_penalty: DEFAULT_MISS_PENALTY,
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
