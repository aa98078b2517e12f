//! Property-based tests of the resource-manager core: knapsack safety and
//! dominance, GAP capacity respect, whole-pipeline invariants on random
//! workloads, the decision store (the invisibility of its last-probe
//! tier, the probe-to-admission hand-off deciding what a cold manager
//! decides under both store configurations; the soundness of keying its
//! keyed tier on what an admission reads of the platform instead of on
//! who resides there; the manager audited after every step), and the
//! emptiness — as far as any decision can tell — of a manager's working
//! memory.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use kairos_app::{
    Application, ApplicationBuilder, ChannelId, Constraint, Implementation, TaskId, TaskRole,
};
use kairos_appgen::{generate_dataset, DatasetSpec};
use kairos_core::{
    bind, map_application, AdmissionFailure, AdmissionReport, AllocationError, BindingError,
    CacheConfig, CostPolicy, ExecutionLayout, GapState, Kairos, KairosConfig, KnapsackItem,
    KnapsackSolver, MapperConfig, MappingError, ProbedOccupancy, RoutingError, ValidationConfig,
    ValidationError, ValidationReport,
};
use kairos_platform::{
    topology, AppId, ElementId, ElementKind, LinkId, Occupant, Platform, ResourceVector,
};
use kairos_telemetry::{Telemetry, TelemetryConfig};

fn items() -> impl Strategy<Value = Vec<KnapsackItem>> {
    proptest::collection::vec(
        (0.0f64..100.0, 0u64..60, 0u64..30).prop_map(|(value, cpu, mem)| KnapsackItem {
            value,
            weight: ResourceVector::new(cpu, mem, 0, 0),
        }),
        0..14,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both knapsack solvers respect capacity in every dimension and only
    /// pick positive-value items; exact dominates greedy.
    #[test]
    fn knapsack_safety_and_dominance(items in items(), cap_cpu in 0u64..150, cap_mem in 0u64..80) {
        let capacity = ResourceVector::new(cap_cpu, cap_mem, 0, 0);
        let exact = KnapsackSolver::Exact { max_exact_items: 24 }.solve(&items, capacity);
        let greedy = KnapsackSolver::Greedy.solve(&items, capacity);
        for chosen in [&exact, &greedy] {
            let used: ResourceVector = chosen.iter().map(|&i| items[i].weight).sum();
            prop_assert!(capacity.fits(&used), "capacity violated");
            prop_assert!(chosen.iter().all(|&i| items[i].value > 0.0));
            // indices are unique and sorted
            let mut sorted = (*chosen).clone();
            sorted.dedup();
            prop_assert_eq!(&sorted, chosen);
        }
        let value = |chosen: &[usize]| chosen.iter().map(|&i| items[i].value).sum::<f64>();
        prop_assert!(value(&exact) >= value(&greedy) - 1e-9, "exact must dominate greedy");
    }

    /// GAP never violates element capacities and never leaves a task
    /// assigned to a bin it does not fit.
    #[test]
    fn gap_respects_capacities(
        demands in proptest::collection::vec(1u64..50, 1..10),
        capacities in proptest::collection::vec(10u64..120, 1..6),
        costs in proptest::collection::vec(0.0f64..50.0, 60),
    ) {
        let tasks: Vec<TaskId> = (0..demands.len() as u32).map(TaskId).collect();
        let elements: Vec<ElementId> = (0..capacities.len() as u32).map(ElementId).collect();
        let mut state = GapState::new(tasks.clone());
        let rooms: Vec<_> =
            capacities.iter().map(|&cpu| ((), ResourceVector::new(cpu, 0, 0, 0))).collect();
        state.solve(
            &elements,
            &rooms,
            KnapsackSolver::default(),
            |t| ((), ResourceVector::new(demands[t.index()], 0, 0, 0)),
            |t, e| costs[(t.index() * capacities.len() + e.index()) % costs.len()],
        );
        // Per-element load never exceeds capacity.
        for &e in &elements {
            let load: u64 = tasks
                .iter()
                .filter(|&&t| state.assignment(t) == Some(e))
                .map(|&t| demands[t.index()])
                .sum();
            prop_assert!(load <= capacities[e.index()], "bin over capacity");
            if let Some(free) = state.free_of(e) {
                prop_assert_eq!(
                    free,
                    ResourceVector::new(capacities[e.index()] - load, 0, 0, 0)
                );
            }
        }
    }
}

prop_compose! {
    /// A random unpinned DSP chain application.
    fn chain_app()(
        demands in proptest::collection::vec(100u64..700, 2..7),
        bandwidth in 10u64..300,
    ) -> kairos_app::Application {
        let mut b = ApplicationBuilder::new("prop-chain");
        let mut prev = None;
        for (i, &cpu) in demands.iter().enumerate() {
            let imp = Implementation::new(
                ElementKind::Dsp,
                ResourceVector::new(cpu, 8, 0, 0),
                100,
                1,
            );
            let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]);
            if let Some(p) = prev {
                b.add_channel(p, t, bandwidth, 1);
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mapping either succeeds with a fully-claimed placement or fails with
    /// an untouched platform — never anything in between.
    #[test]
    fn mapping_is_transactional(app in chain_app(), policy_idx in 0usize..4) {
        let mut platform = topology::dsp_mesh(3, 3);
        let before = platform.checkpoint();
        let Ok(binding) = bind(&app, &platform) else { return Ok(()); };
        let config = MapperConfig::with_policy(CostPolicy::ALL[policy_idx]);
        match map_application(&app, &binding, &mut platform, AppId(0), &config) {
            Ok(report) => {
                prop_assert_eq!(report.placement.len(), app.task_count());
                let claims: usize =
                    platform.element_ids().map(|e| platform.residents(e).len()).sum();
                prop_assert_eq!(claims, app.task_count());
                for (t, e) in report.placement.iter() {
                    let demand = binding.implementation(&app, t).requires();
                    prop_assert_eq!(platform.element(e).kind(), ElementKind::Dsp);
                    // The element accepted the claim, so capacity was enough.
                    prop_assert!(platform.element(e).capacity().fits(&demand));
                }
            }
            Err(_) => {
                prop_assert_eq!(platform.checkpoint(), before, "failed mapping must roll back");
            }
        }
    }

    /// Full admission/release cycles never leak or corrupt platform state.
    #[test]
    fn admission_release_cycles_are_clean(apps_seed in proptest::collection::vec(any::<u16>(), 1..6)) {
        let mut kairos = Kairos::new(topology::dsp_mesh(4, 4), KairosConfig::default());
        let initial_free = kairos.platform().total_free();
        let mut resident = Vec::new();
        for (i, seed) in apps_seed.iter().enumerate() {
            let cpu = 200 + (*seed as u64 % 500);
            let imp = Implementation::new(
                ElementKind::Dsp,
                ResourceVector::new(cpu, 8, 0, 0),
                50,
                1,
            );
            let mut b = ApplicationBuilder::new(format!("p{i}"));
            let t0 = b.add_task("a", TaskRole::Internal, vec![imp]);
            let t1 = b.add_task("b", TaskRole::Internal, vec![imp]);
            b.add_channel(t0, t1, 50 + (*seed as u64 % 200), 1);
            let app = b.build().unwrap();
            if let Ok(report) = kairos.admit(&app) {
                resident.push(report.app_id);
            }
        }
        for id in resident {
            prop_assert!(kairos.release(id));
        }
        prop_assert!(kairos.platform().is_idle());
        prop_assert_eq!(kairos.platform().total_free(), initial_free);
    }
}

/// A manager on the zero clock (so whole admission results compare
/// equal) with a lit hub (so `kairos.core.admit.replayed` counts).
fn lit_manager(platform: Platform, cache: Option<CacheConfig>) -> Kairos {
    let config = KairosConfig {
        deterministic: true,
        validation: ValidationConfig { max_events: 10_000, ..ValidationConfig::default() },
        cache,
        ..KairosConfig::default()
    };
    let mut kairos = Kairos::new(platform, config);
    kairos.set_telemetry(Telemetry::new(TelemetryConfig::default()));
    kairos
}

/// Audits `kairos`: its admission registry against the platform, and the
/// platform's own ledger on a clone, so the manager's stamp and free-rank
/// dirty sets stay as its operations left them.
fn audited(kairos: &Kairos) {
    assert_eq!(kairos.audit(), Ok(()));
}

fn replayed(kairos: &Kairos) -> u64 {
    kairos.telemetry().counter("kairos.core.admit.replayed").expect("the hub is lit").get()
}

/// `per_dataset` applications of each Table-I dataset, interleaved.
fn storm_apps(seed: u64, per_dataset: usize) -> Vec<Application> {
    let sets: Vec<Vec<Application>> = DatasetSpec::all()
        .into_iter()
        .enumerate()
        .map(|(d, spec)| generate_dataset(spec, per_dataset, seed.wrapping_add(d as u64)))
        .collect();
    (0..per_dataset).flat_map(|i| sets.iter().map(move |set| set[i].clone())).collect()
}

/// The differential behind both hand-off properties. `a` runs `probe`,
/// then `between`, then `admit(app)`; a reference cloned from `a` before
/// the probe runs only `between` and `admit(app)` — it never sees a
/// probe, so it always decides cold. Both must return the same result
/// (layout, id, validation report, or the same refusal) and reach the
/// same platform bytes and occupancy. Returns whether `app` was admitted
/// and how many of `a`'s admissions committed a hand-off.
fn hand_off_differential(
    a: &mut Kairos,
    probe: impl FnOnce(&mut Kairos),
    between: impl Fn(&mut Kairos),
    app: &Application,
) -> (bool, u64) {
    let mut reference = a.clone();
    reference.set_telemetry(Telemetry::disabled());
    let before = replayed(a);
    probe(a);
    between(a);
    between(&mut reference);
    let result = a.admit(app);
    assert_eq!(result, reference.admit(app), "{}: a different decision", app.name());
    assert_eq!(a.platform().checkpoint(), reference.platform().checkpoint(), "{}", app.name());
    assert_eq!(a.occupancy(), reference.occupancy(), "{}", app.name());
    audited(a);
    (result.is_ok(), replayed(a) - before)
}

fn probe_of(app: &Application) -> impl Fn(&mut Kairos) + '_ {
    move |kairos| drop(kairos.probe_admit(app))
}

/// One step of a hand-off scenario.
type Step<'a> = &'a dyn Fn(&mut Kairos);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A probe followed by the admission of the same application commits
    /// the probed decision — admission or refusal — and nothing in the
    /// result or on the platform tells it from a cold run.
    #[test]
    fn the_probe_hand_off_is_invisible(seed in any::<u64>()) {
        for platform in [topology::crisp(), topology::heterogeneous_mesh(6, 6)] {
            let mut a = lit_manager(platform, None);
            let (mut admitted, mut refused) = (0, 0);
            for (i, app) in storm_apps(seed, 8).iter().enumerate() {
                let (ok, commits) = hand_off_differential(&mut a, probe_of(app), |_| {}, app);
                prop_assert_eq!(commits, 1, "every probe→admit pair commits the hand-off");
                if ok { admitted += 1 } else { refused += 1 }
                // Churn: every third step the oldest resident leaves.
                if i % 3 == 2 {
                    if let Some(&oldest) = a.admitted_ids().first() {
                        a.release(oldest);
                    }
                }
            }
            prop_assert!(admitted > 0 && refused > 0, "{admitted} admitted, {refused} refused");
        }
    }

    /// Anything between the probe and the admission that could change
    /// the decision leaves the hand-off unused: the admission equals the
    /// cold run and `admit.replayed` does not move.
    #[test]
    fn a_stale_hand_off_is_never_committed(seed in any::<u64>()) {
        let mut base = lit_manager(topology::crisp(), None);
        let apps = storm_apps(seed, 3);
        let (fill, candidates) = apps.split_at(10);
        for app in fill {
            let _ = base.admit(app);
        }
        let x = *base.admitted_ids().first().expect("an idle CRISP admits something");
        let seat = base.layout(x).unwrap().placement.iter().next().unwrap().1;
        for app in candidates {
            // A probe of an equal shape would legitimately hand off.
            let other = fill.iter().find(|other| other.shape_hash() != app.shape_hash());
            let other = other.expect("ten applications of six datasets are not all one shape");
            let nothing: Step = &|_| {};
            let probe: Step = &probe_of(app);
            // (what runs, the probe, what follows it on both sides)
            let stale: [(&str, Step, Step); 5] = [
                ("probe of another application", &probe_of(other), nothing),
                ("probe / release", probe, &|k| assert!(k.release(x))),
                ("probe / fail_element", probe, &|k| drop(k.fail_element(seat))),
                ("probe / checkpoint+restore", probe, &|k| k.restore(k.checkpoint())),
                ("probe_admit_without", &|k| drop(k.probe_admit_without(app, &[x])), nothing),
            ];
            for (what, probe, between) in stale {
                let (_, commits) = hand_off_differential(&mut base.clone(), probe, between, app);
                prop_assert_eq!(commits, 0, "{} / admit", what);
            }
            // Consumed once: the admission right after the probe commits
            // it, the one after that runs cold.
            let mut a = base.clone();
            let (_, first) = hand_off_differential(&mut a, probe, nothing, app);
            let (_, second) = hand_off_differential(&mut a, nothing, nothing, app);
            prop_assert_eq!((first, second), (1, 0), "probe / admit / admit");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A probe reads the occupancy its decision would leave without
    /// writing it. Over storm states on CRISP and a 6x6 heterogeneous
    /// mesh, some elements failed on the way, every fitting `probe_admit`
    /// reports as `after` exactly the fragmentation and resource
    /// utilisation of the `occupancy()` of a clone that admits the same
    /// application — both floats bit-identical — and leaves the probed
    /// manager's platform bytes and state epoch as they were.
    #[test]
    fn a_probe_reads_the_occupancy_its_admission_writes(seed in any::<u64>()) {
        let mut fitting = 0;
        for platform in [topology::crisp(), topology::heterogeneous_mesh(6, 6)] {
            let config = KairosConfig { deterministic: true, ..KairosConfig::default() };
            let mut kairos = Kairos::new(platform, config);
            let elements = kairos.platform().element_count() as u64;
            for (i, app) in storm_apps(seed, 6).iter().enumerate() {
                if i % 7 == 3 {
                    let e = ElementId((seed.wrapping_add(i as u64) % elements) as u32);
                    drop(kairos.fail_element(e));
                }
                let (bytes, epoch) =
                    (kairos.platform().checkpoint(), kairos.platform().state_epoch());
                let probed = kairos.probe_admit(app);
                prop_assert_eq!(kairos.platform().checkpoint(), bytes, "{}", app.name());
                prop_assert_eq!(kairos.platform().state_epoch(), epoch, "{}", app.name());
                if let Ok(probe) = probed {
                    let mut written = kairos.clone();
                    prop_assert!(written.admit(app).is_ok(), "{}", app.name());
                    let occupancy = written.occupancy();
                    let expected = ProbedOccupancy {
                        external_fragmentation: occupancy.external_fragmentation,
                        resource_utilisation: occupancy.resource_utilisation,
                    };
                    prop_assert_eq!(probe.after, expected, "{}", app.name());
                    fitting += 1;
                }
                let _ = kairos.admit(app);
                audited(&kairos);
                // Churn: every third step the oldest resident leaves.
                if i % 3 == 2 {
                    if let Some(&oldest) = kairos.admitted_ids().first() {
                        kairos.release(oldest);
                    }
                }
            }
        }
        prop_assert!(fitting > 0);
    }
}

/// The store's accounting rule: a probe's decision — admission or
/// refusal — reaches the admission that follows through the last-probe
/// tier's hand-off under both configurations, and counts as the one cache
/// hit its keyed lookup would have been when there is a keyed tier, and
/// as one `admit.replayed` when there is not; never both.
#[test]
fn a_probe_reaches_its_admission_through_exactly_one_tier() {
    for app in &storm_apps(0x7137, 2) {
        for cache in [Some(CacheConfig::default()), None] {
            let mut kairos = lit_manager(topology::crisp(), cache);
            drop(kairos.probe_admit(app));
            drop(kairos.admit(app));
            let hits = kairos.cache_stats().map(|stats| stats.hits);
            let expected = if cache.is_some() { (Some(1), 0) } else { (None, 1) };
            assert_eq!((hits, replayed(&kairos)), expected, "{}", app.name());
        }
    }
}

/// Admits `app` on `kairos` and, cold, on an uncached manager built over
/// a clone of the platform as it stood before, numbering from the id the
/// admission took ([`TENANT_BASE`] after a refusal): both must decide the
/// same (layout and validation report, or the same refusal) and leave the
/// same platform bytes.
fn admits_as_cold(kairos: &mut Kairos, app: &Application) {
    let before = kairos.platform().clone();
    let admitted = kairos.admit(app);
    let app_id_base = admitted.as_ref().map_or(TENANT_BASE, |report| report.app_id.0);
    let config = KairosConfig { cache: None, app_id_base, ..*kairos.config() };
    let mut cold = Kairos::new(before, config);
    let decided = decision_of(admitted);
    assert_eq!(decided, decision_of(cold.admit(app)), "{}: a different decision", app.name());
    assert_eq!(kairos.platform().checkpoint(), cold.platform().checkpoint(), "{}", app.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The probe hand-off decides what a cold manager decides, under both
    /// store configurations. Keyed and unkeyed managers on CRISP and on a
    /// 6x6 heterogeneous mesh live through random histories of probes,
    /// admissions, probe-then-admits, releases and element faults over
    /// three recurring applications, so a probe is often followed by its
    /// own admission, with or without a mutation in between. Every
    /// admission is compared with a cold one on a clone
    /// ([`admits_as_cold`]), and the manager is audited after every step.
    #[test]
    fn the_hand_off_decides_what_a_cold_manager_decides(
        seed in any::<u64>(),
        history in proptest::collection::vec((0u8..5, any::<u8>()), 8..40),
    ) {
        let apps = &storm_apps(seed, 1)[..3];
        for platform in [topology::crisp(), topology::heterogeneous_mesh(6, 6)] {
            for cache in [Some(CacheConfig::default()), None] {
                let mut kairos = lit_manager(platform.clone(), cache);
                for &(op, pick) in &history {
                    let app = &apps[usize::from(pick) % apps.len()];
                    match op {
                        0 => drop(kairos.probe_admit(app)),
                        1 => admits_as_cold(&mut kairos, app),
                        2 => {
                            drop(kairos.probe_admit(app));
                            admits_as_cold(&mut kairos, app);
                        }
                        3 => {
                            let ids = kairos.admitted_ids();
                            if !ids.is_empty() {
                                kairos.release(ids[usize::from(pick) % ids.len()]);
                            }
                        }
                        _ => {
                            let elements = kairos.platform().element_count();
                            drop(kairos.fail_element(ElementId(u32::from(pick) % elements as u32)));
                        }
                    }
                    audited(&kairos);
                }
            }
        }
    }
}

/// What a pipeline run decided, without the id it ran under or how long
/// it took: the layout and validation report, or the refusal.
fn decision_of(
    result: Result<AdmissionReport, AdmissionFailure>,
) -> Result<(Arc<ExecutionLayout>, Option<ValidationReport>), AllocationError> {
    result.map(|r| (r.layout, r.validation)).map_err(|f| *f.error)
}

/// First id of the stand-in tenants of [`retenanted`]: far above anything
/// a manager counting up from zero assigns in these tests.
const TENANT_BASE: u32 = 1 << 20;

/// An idle copy of `kairos`'s platform brought to the same *admission
/// view* by another route: every element's residents re-seated under ids
/// no manager ever assigned, in reverse order, and — per element, by
/// `modes` — left one for one, split in two occupants whose claims sum to
/// the original, or merged into a single occupant holding the element's
/// whole claim. Link reservations are re-made application by application
/// in descending id order; failure marks are copied.
fn retenanted(kairos: &Kairos, idle: Platform, modes: &[u8]) -> Platform {
    let from = kairos.platform();
    let mut to = idle;
    let mut next = TENANT_BASE;
    let mut seat = |to: &mut Platform, e: ElementId, claimed: ResourceVector| {
        to.claim(e, Occupant { app: AppId(next), task: next % 3, claimed }).unwrap();
        next += 1;
    };
    for e in from.element_ids() {
        let residents = from.residents(e);
        match modes[e.index() % modes.len()] % 3 {
            0 => residents.iter().rev().for_each(|o| seat(&mut to, e, o.claimed)),
            1 => {
                for o in residents.iter().rev() {
                    let half = o.claimed.scaled(1, 2);
                    seat(&mut to, e, o.claimed.checked_sub(&half).unwrap());
                    seat(&mut to, e, half);
                }
            }
            _ if residents.is_empty() => {}
            _ => seat(&mut to, e, residents.iter().map(|o| o.claimed).sum()),
        }
        if from.is_failed(e) {
            to.fail_element(e);
        }
    }
    for id in kairos.admitted_ids().into_iter().rev() {
        let app = kairos.application(id).unwrap();
        for route in &kairos.layout(id).unwrap().routes {
            let bandwidth = app.channel(route.channel()).bandwidth();
            route.links().iter().for_each(|&l| to.claim_link(l, bandwidth).unwrap());
        }
    }
    to
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The soundness argument of the cache key, executable. A cached
    /// manager lives through a random admit / release / fault history;
    /// a second platform is brought to the same admission view by a
    /// route that shares nothing else with it — other tenants, other
    /// resident order, one resident where there were two and two where
    /// there was one. Then, for every candidate application: the two
    /// states stamp equal; cold managers on each decide the same (layout
    /// and validation report, or refusal); and the decision the first
    /// manager cached on *its* state replays on the *other* state to a
    /// platform whose every byte (`checkpoint()`s compare `==`) is what the
    /// cold pipeline leaves there.
    #[test]
    fn equal_stamps_mean_equal_decisions_and_replays_land_on_the_cold_state(
        seed in any::<u64>(),
        history in proptest::collection::vec((0u8..8, any::<u8>()), 4..40),
        modes in proptest::collection::vec(0u8..3, 1..9),
    ) {
        let cold = KairosConfig { deterministic: true, ..KairosConfig::default() };
        let warm = KairosConfig { cache: Some(CacheConfig::default()), ..cold };
        let pool = storm_apps(seed, 4);
        let mut first = Kairos::new(topology::crisp(), warm);
        for &(op, pick) in &history {
            let pick = pick as usize;
            match op {
                0..=4 => drop(first.admit(&pool[pick % pool.len()])),
                5 | 6 => {
                    let ids = first.admitted_ids();
                    if !ids.is_empty() {
                        first.release(ids[pick % ids.len()]);
                    }
                }
                _ => {
                    let e = ElementId((pick % first.platform().element_count()) as u32);
                    if first.platform().is_failed(e) {
                        first.repair_element(e);
                    } else {
                        first.fail_element(e);
                    }
                }
            }
            audited(&first);
        }

        let other = retenanted(&first, topology::crisp(), &modes);
        prop_assert_eq!(other.state_stamp_from_scratch(), first.platform().state_stamp_from_scratch());
        prop_assert_eq!(
            other.checkpoint() == first.platform().checkpoint(),
            first.platform().is_idle(),
            "the two routes share an admission view and, unless idle, nothing else"
        );
        let second = Kairos::new(other, cold);

        for app in pool.iter().step_by(3) {
            // A cold manager on a copy of the first state, counting ids
            // from where no resident of that copy has one.
            let fresh_ids = KairosConfig { app_id_base: 2 * TENANT_BASE, ..cold };
            let here = decision_of(Kairos::new(first.platform().clone(), fresh_ids).admit(app));
            let mut reference = second.clone();
            let there = decision_of(reference.admit(app));
            prop_assert_eq!(&here, &there, "{}: equal stamps, different decisions", app.name());

            // `first` decides on its own state (a probe: nothing moves)
            // and is then rewound onto the other one. A manager
            // checkpoint carries no cache, so the decision comes along.
            let mut carrier = first.clone();
            drop(carrier.probe_admit(app));
            let before = carrier.cache_stats().unwrap();
            carrier.restore(second.checkpoint());
            let replayed = decision_of(carrier.admit(app));
            let after = carrier.cache_stats().unwrap();
            prop_assert_eq!(
                (after.hits, after.misses),
                (before.hits + 1, before.misses),
                "{}: the other route's state must hit", app.name()
            );
            prop_assert_eq!(&replayed, &there);
            prop_assert_eq!(
                carrier.platform().checkpoint(),
                reference.platform().checkpoint(),
                "{}: the replay and the cold run left different bytes", app.name()
            );
            prop_assert_eq!(carrier.occupancy(), reference.occupancy());
            // The other route's tenants were seated by hand, not admitted,
            // so only the platform's own ledger can be held to account.
            prop_assert_eq!(carrier.platform().clone().audit(), Ok(()));
        }
    }
}

/// Four applications built to be turned away by one phase each on an
/// otherwise welcoming CRISP, in phase order: a task no element can hold; ten
/// whole-DSP tasks, which bind wherever ten DSPs are free but map only
/// where ten are *connected* (never behind [`package_walls`]); two tasks
/// that cannot share an element joined by a channel no link can carry; and
/// a pair held to a one-cycle period.
fn hostile_apps() -> [Application; 4] {
    let dsp = |cpu| Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 40, 1);
    let chain = |name: &str, tasks: usize, cpu: u64, bandwidth: u64, period: Option<u64>| {
        let mut b = ApplicationBuilder::new(name);
        let ids: Vec<TaskId> = (0..tasks)
            .map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![dsp(cpu)]))
            .collect();
        for pair in ids.windows(2) {
            b.add_channel(pair[0], pair[1], bandwidth, 1);
        }
        if let Some(max_period_cycles) = period {
            b.add_constraint(Constraint::Throughput { max_period_cycles });
        }
        b.build().unwrap()
    };
    [
        chain("unbindable", 1, 1_000_000, 0, None),
        chain("unmappable-behind-walls", 10, 900, 10, None),
        chain("unroutable", 2, 600, 1_000_000, None),
        chain("too-slow", 2, 300, 10, Some(1)),
    ]
}

/// The DSPs every bridge between two CRISP packages starts from: with all
/// eight failed, no package reaches another and the largest island holds
/// nine DSPs.
fn package_walls(platform: &Platform) -> Vec<ElementId> {
    let walls: Vec<ElementId> = platform
        .elements()
        .filter(|e| {
            let name = e.name();
            !name.starts_with("pkg4/") && (name.ends_with("/dsp2") || name.ends_with("/dsp8"))
        })
        .map(|e| e.id())
        .collect();
    assert_eq!(walls.len(), 8);
    walls
}

/// Each hostile application is refused for its own cause, and the refusal
/// says short of what: on an idle CRISP behind [`package_walls`], the
/// unbindable task asks a DSP for more than the roomiest one has (a whole
/// idle DSP), the walled chain runs out of connected DSPs, the unroutable
/// channel's first blocked link has less bandwidth free than it needs, and
/// the pair held to one cycle misses it. A lit manager counts each cause
/// once.
#[test]
fn every_hostile_refusal_names_its_cause_and_detail() {
    let mut kairos = lit_manager(topology::crisp(), None);
    package_walls(kairos.platform()).iter().for_each(|&e| drop(kairos.fail_element(e)));
    let expected: [(&str, AllocationError); 4] = [
        (
            "binding.structural",
            BindingError::NoFeasibleImplementation {
                task: TaskId(0),
                structural: true,
                kind: ElementKind::Dsp,
                requested: ResourceVector::new(1_000_000, 8, 0, 0),
                largest_free: Some(ResourceVector::new(1000, 64, 0, 0)),
            }
            .into(),
        ),
        (
            "mapping.search_exhausted",
            MappingError::SearchExhausted { ring: 7, unmapped: vec![TaskId(7)] }.into(),
        ),
        (
            "routing.no_route",
            RoutingError::NoRoute {
                channel: ChannelId(0),
                src: ElementId(1),
                dst: ElementId(2),
                blocked: Some((LinkId(0), 6, 1000)),
            }
            .into(),
        ),
        (
            "validation.constraint",
            ValidationError::ConstraintViolated {
                constraint_index: 0,
                allowed_period: 1,
                achieved_period: 40.0,
            }
            .into(),
        ),
    ];
    for (app, (cause, refusal)) in hostile_apps().iter().zip(expected) {
        let failure = kairos.admit(app).expect_err(app.name());
        assert_eq!(
            (failure.error.cause_name(), &*failure.error),
            (cause, &refusal),
            "{}",
            app.name()
        );
        let counted = format!("kairos.core.reject.{cause}");
        assert_eq!(kairos.telemetry().counter(&counted).map(|c| c.get()), Some(1), "{counted}");
    }
    let channel_bandwidth = hostile_apps()[2].channel(ChannelId(0)).bandwidth();
    assert!(1000 < channel_bandwidth, "the blocked link is short of the channel's bandwidth");
    assert_eq!(kairos.telemetry().counter("kairos.core.admit.fail").map(|c| c.get()), Some(4));
}

/// Refusals per phase over every case of the property below, and the
/// number of cases run: the last case checks that the op vocabulary did
/// reach all four phases.
static HYGIENE_REFUSALS: [AtomicU32; 4] = [const { AtomicU32::new(0) }; 4];
static HYGIENE_CASES: AtomicU32 = AtomicU32::new(0);

proptest! {
    /// A manager's working memory carries capacity, never a decision.
    /// Whatever a warm manager has been through — admissions that each of
    /// the four phases refused, releases, faults and repairs, migrations,
    /// probes with and without victims, weight changes, rewinds, with the
    /// cache on or off — its next admission is the one a manager that has
    /// never run a pipeline makes from the same checkpoint: same result,
    /// same layout, same state afterwards.
    #[test]
    fn a_workspace_carries_no_decision_across_calls(
        seed in 0u64..1 << 20,
        cached in any::<bool>(),
        history in proptest::collection::vec((0u8..20, any::<u8>()), 0..40),
        last in any::<u8>(),
    ) {
        let config = KairosConfig {
            deterministic: true,
            cache: cached.then(CacheConfig::default),
            ..KairosConfig::default()
        };
        let mut pool = storm_apps(seed, 2);
        pool.extend(hostile_apps());
        let mut warm = Kairos::new(topology::crisp(), config);
        let walls = package_walls(warm.platform());
        let mut saved = warm.checkpoint();
        let note = |result: Result<AdmissionReport, AdmissionFailure>| {
            if let Err(failure) = result {
                HYGIENE_REFUSALS[failure.phase() as usize].fetch_add(1, Ordering::Relaxed);
            }
        };
        for &(op, pick) in &history {
            let pick = pick as usize;
            let app = &pool[pick % pool.len()];
            let resident = {
                let ids = warm.admitted_ids();
                (!ids.is_empty()).then(|| ids[pick % ids.len()])
            };
            let element = ElementId((pick % warm.platform().element_count()) as u32);
            match (op, resident) {
                (0..=7, _) => note(warm.admit(app)),
                (8 | 9, Some(id)) => assert!(warm.release(id)),
                (10, _) if warm.platform().is_failed(element) => assert!(warm.repair_element(element)),
                (10, _) => drop(warm.fail_element(element)),
                (11, _) if warm.platform().is_failed(walls[0]) => {
                    walls.iter().for_each(|&e| {
                        warm.repair_element(e);
                    });
                }
                (11 | 12, _) => walls.iter().for_each(|&e| drop(warm.fail_element(e))),
                (13, Some(id)) => drop(warm.migrate(id, &[element])),
                (14, _) => drop(warm.probe_admit(app)),
                (15, Some(id)) => drop(warm.probe_admit_without(app, &[id])),
                (17, _) => saved = warm.checkpoint(),
                (18, _) => warm.restore(saved.clone()),
                _ => {}
            }
            audited(&warm);
        }

        let image = warm.checkpoint();
        let mut fresh = Kairos::new(topology::crisp(), *warm.config());
        fresh.restore(image.clone());
        prop_assert_eq!(fresh.checkpoint(), image);
        let app = &pool[last as usize % pool.len()];
        let decided = warm.admit(app);
        prop_assert_eq!(&decided, &fresh.admit(app), "{} after {:?}", app.name(), history);
        prop_assert_eq!(warm.checkpoint(), fresh.checkpoint(), "{} after {:?}", app.name(), history);
        note(decided);

        if HYGIENE_CASES.fetch_add(1, Ordering::Relaxed) + 1 == ProptestConfig::default().cases {
            let refusals = HYGIENE_REFUSALS.each_ref().map(|n| n.load(Ordering::Relaxed));
            prop_assert!(refusals.iter().all(|&n| n > 0), "refusals per phase: {refusals:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A refusal writes nothing. The phases decide over the platform
    /// without claiming, and only an admitted decision is written, so an
    /// `admit` or `probe_admit` that is refused — cold, from the cache or
    /// from the probe hand-off — leaves the mutation epoch where it was
    /// and marks no element for the free rank: the list is empty when the
    /// cold pipeline refreshed it, and untouched when the store answered.
    /// On CRISP the hostile applications come behind [`package_walls`], so
    /// each phase refuses something.
    #[test]
    fn a_refusal_writes_nothing(seed in any::<u64>()) {
        let mut refusals = [0u32; 4];
        let storm = storm_apps(seed, 6);
        let hostile = hostile_apps();
        let pool: Vec<&Application> = storm.iter().chain(&hostile).collect();
        for (platform, walled) in [(topology::crisp(), true), (topology::heterogeneous_mesh(6, 6), false)] {
            for cached in [false, true] {
                let config = KairosConfig {
                    deterministic: true,
                    cache: cached.then(CacheConfig::default),
                    ..KairosConfig::default()
                };
                let mut kairos = Kairos::new(platform.clone(), config);
                for (i, app) in pool.iter().enumerate() {
                    if walled && i == storm.len() {
                        package_walls(&platform).iter().for_each(|&e| drop(kairos.fail_element(e)));
                    }
                    for probe in [true, false] {
                        let epoch = kairos.platform().state_epoch();
                        let dirty = kairos.platform().free_rank_dirty().to_vec();
                        let refused = if probe {
                            kairos.probe_admit(app).err()
                        } else {
                            kairos.admit(app).err()
                        };
                        audited(&kairos);
                        let Some(failure) = refused else { continue };
                        refusals[failure.phase() as usize] += 1;
                        let what = format!("{} ({:?}, probe {probe}, cache {cached})", app.name(), failure.phase());
                        prop_assert_eq!(kairos.platform().state_epoch(), epoch, "{}", what);
                        let after = kairos.platform().free_rank_dirty();
                        prop_assert!(after.is_empty() || after == dirty, "{}", what);
                    }
                    // Churn: every third step the oldest resident leaves.
                    if i % 3 == 2 {
                        if let Some(&oldest) = kairos.admitted_ids().first() {
                            kairos.release(oldest);
                        }
                    }
                }
            }
        }
        prop_assert!(refusals[1..].iter().all(|&n| n > 0), "refusals per phase: {refusals:?}");
    }
}
