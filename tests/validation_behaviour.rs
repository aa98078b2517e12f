//! Validation-phase integration tests: the SDF model of an execution layout
//! responds correctly to placement quality, buffer depth and constraints —
//! and the period `validate` *computes* (a maximum cycle ratio) is the one
//! the paper's state-space exploration *finds*.
//!
//! The oracle is `kairos::sdf::throughput_with` on `layout_to_sdf`'s graph.
//! The equivalence rests on that graph being homogeneous (every channel
//! `produce == consume`); a model builder that ever emits a true multirate
//! channel breaks it, and these tests are the tripwire.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use kairos::app::{Application, ApplicationBuilder, Constraint, ImplId, Implementation, TaskRole};
use kairos::appgen::{generate_dataset, DatasetSpec};
use kairos::core::{
    bind, layout_to_sdf, map_application, route_channels, validate, Binding, CostPolicy,
    ExecutionLayout, Kairos, KairosConfig, MapperConfig, Placement, Route, RouteAlgorithm,
    ValidationConfig, ValidationError, ValidationReport,
};
use kairos::platform::{topology, AppId, ElementId, ElementKind, LinkId, Platform, ResourceVector};
use kairos::sdf::{
    max_cycle_ratio, throughput_with, ActorId, SdfGraph, StateSpaceConfig, StateSpaceError,
    ThroughputReport,
};

fn pipeline_app(stages: usize, cycles: u64) -> kairos::app::Application {
    let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(600, 16, 0, 0), cycles, 1);
    let mut b = ApplicationBuilder::new("vpipe");
    let mut prev = None;
    for i in 0..stages {
        let role = if i == 0 {
            TaskRole::Input
        } else if i == stages - 1 {
            TaskRole::Output
        } else {
            TaskRole::Internal
        };
        let t = b.add_task(format!("s{i}"), role, vec![imp]);
        if let Some(p) = prev {
            b.add_channel(p, t, 100, 1);
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

fn layout_on_line(app: &kairos::app::Application) -> (ExecutionLayout, kairos::platform::Platform) {
    let mut platform = topology::dsp_line(app.task_count() + 2);
    let binding = bind(app, &platform).unwrap();
    let report = map_application(
        app,
        &binding,
        &mut platform,
        AppId(0),
        &MapperConfig::with_policy(CostPolicy::Communication),
    )
    .unwrap();
    let routes =
        route_channels(app, &report.placement, &mut platform, RouteAlgorithm::Bfs).unwrap();
    (ExecutionLayout { binding, placement: report.placement, routes }, platform)
}

#[test]
fn period_tracks_the_slowest_stage() {
    for bottleneck in [50u64, 200, 800] {
        let mut b = ApplicationBuilder::new("bn");
        let fast = Implementation::new(ElementKind::Dsp, ResourceVector::new(400, 8, 0, 0), 20, 1);
        let slow =
            Implementation::new(ElementKind::Dsp, ResourceVector::new(400, 8, 0, 0), bottleneck, 1);
        let t0 = b.add_task("a", TaskRole::Input, vec![fast]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![slow]);
        let t2 = b.add_task("c", TaskRole::Output, vec![fast]);
        b.add_channel(t0, t1, 50, 1);
        b.add_channel(t1, t2, 50, 1);
        let app = b.build().unwrap();
        let (layout, _) = layout_on_line(&app);
        let report = validate(&app, &layout, &ValidationConfig::default()).unwrap();
        assert!(
            report.iteration_period >= bottleneck as f64,
            "period {} below bottleneck {bottleneck}",
            report.iteration_period
        );
        assert!(
            report.iteration_period <= (bottleneck + 60) as f64,
            "period {} far above bottleneck {bottleneck} (pipelining broken?)",
            report.iteration_period
        );
    }
}

#[test]
fn hop_latency_config_scales_transport_cost() {
    let app = pipeline_app(4, 10);
    let (layout, _) = layout_on_line(&app);
    let slow_noc = ValidationConfig { hop_latency_cycles: 500, ..ValidationConfig::default() };
    let fast_noc = ValidationConfig { hop_latency_cycles: 1, ..ValidationConfig::default() };
    let slow = validate(&app, &layout, &slow_noc).unwrap();
    let fast = validate(&app, &layout, &fast_noc).unwrap();
    if layout.total_hops() > 0 {
        assert!(slow.iteration_period > fast.iteration_period);
    }
}

#[test]
fn constraints_gate_admission_end_to_end() {
    // Identical apps, one feasible and one infeasible constraint.
    let feasible = {
        let mut b = ApplicationBuilder::new("ok");
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(500, 8, 0, 0), 100, 1);
        let t0 = b.add_task("a", TaskRole::Input, vec![imp]);
        let t1 = b.add_task("b", TaskRole::Output, vec![imp]);
        b.add_channel(t0, t1, 100, 1);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 100_000 });
        b.build().unwrap()
    };
    let infeasible = {
        let mut b = ApplicationBuilder::new("tight");
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(500, 8, 0, 0), 100, 1);
        let t0 = b.add_task("a", TaskRole::Input, vec![imp]);
        let t1 = b.add_task("b", TaskRole::Output, vec![imp]);
        b.add_channel(t0, t1, 100, 1);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 10 });
        b.build().unwrap()
    };
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    assert!(kairos.admit(&feasible).is_ok());
    let failure = kairos.admit(&infeasible).unwrap_err();
    assert_eq!(failure.phase(), kairos::core::Phase::Validation);
}

#[test]
fn validation_handles_the_largest_generated_apps() {
    // Large dataset apps must never diverge or deadlock in the analysis.
    let apps = generate_dataset(DatasetSpec::all()[5], 15, 0xAA); // computation large
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut validated = 0;
    for app in &apps {
        if let Ok(report) = kairos.admit(app) {
            let v = report.validation.expect("validation enabled");
            assert!(v.iteration_period.is_finite() && v.iteration_period > 0.0);
            validated += 1;
        }
        kairos.release_all();
    }
    assert!(validated > 0);
}

/// The reference actor `validate` measures: the first output task, else
/// task 0.
fn reference_of(app: &Application) -> ActorId {
    ActorId(app.tasks().find(|t| t.role() == TaskRole::Output).map_or(0, |t| t.id().0))
}

/// Same ratio, and the same bits in the two floats every report prints.
fn assert_same_period(ours: &ValidationReport, oracle: &ThroughputReport, what: &str) {
    assert_eq!(
        u128::from(ours.period_cycles) * u128::from(oracle.period_firings),
        u128::from(oracle.period_time) * u128::from(ours.period_iterations),
        "{what}: {ours:?} vs {oracle:?}"
    );
    assert_eq!(ours.throughput.to_bits(), oracle.throughput.to_bits(), "{what}: throughput");
    assert_eq!(
        ours.iteration_period.to_bits(),
        oracle.iteration_period.to_bits(),
        "{what}: iteration_period"
    );
}

/// A random application with the layout facts validation reads: cycle
/// counts, channels (endpoints, rate, hops), buffer depth, reference.
#[derive(Debug, Clone)]
struct RandomCase {
    cycles: Vec<u64>,
    /// `(src, dst, tokens per firing, hops)`.
    channels: Vec<(usize, usize, u32, usize)>,
    buffer_depth: u32,
    output: Option<usize>,
}

/// Co-prime and large next to the small counts, so periods are fractions
/// with big numerators and the oracle's transients get long.
const LARGE_CYCLES: [u64; 4] = [997, 1009, 10_007, 65_521];

fn random_case() -> impl Strategy<Value = RandomCase> {
    // One count in six is large.
    let cycles = (0usize..6 * LARGE_CYCLES.len(), 1u64..60)
        .prop_map(|(i, small)| LARGE_CYCLES.get(i).copied().unwrap_or(small));
    // `(a, b, rate, hops, backward)`: endpoints are folded onto the tasks
    // below; half the channels are local, the rest take 1-12 hops;
    // `backward` turns one channel in twenty against the task order, which
    // is what closes cycles.
    let hops = (0usize..24).prop_map(|h| h.saturating_sub(11));
    let channel = move || (0usize..840, 0usize..840, 1u32..=3, hops.clone(), 0u32..20);
    (
        proptest::collection::vec(cycles, 1..=8),
        // Task `i > 0` hangs off an earlier task — fifteen times in sixteen,
        // so some applications fall apart into components...
        proptest::collection::vec((channel(), 0u32..16), 7),
        // ...and extra channels fork, join, reconverge and run in parallel.
        proptest::collection::vec(channel(), 0..=6),
        1u32..=4,
        0usize..12,
    )
        .prop_map(|(cycles, tree, extra, buffer_depth, output)| {
            let n = cycles.len();
            let oriented = |lo: usize, hi: usize, rate, hops, backward| {
                if backward == 0 {
                    (hi, lo, rate, hops)
                } else {
                    (lo, hi, rate, hops)
                }
            };
            let tree = tree.into_iter().zip(1..n).filter(|&((_, attach), _)| attach != 0).map(
                |(((a, _, rate, hops, backward), _), task)| {
                    oriented(a % task, task, rate, hops, backward)
                },
            );
            let extra = extra
                .into_iter()
                .map(|(a, b, rate, hops, backward)| {
                    oriented((a % n).min(b % n), (a % n).max(b % n), rate, hops, backward)
                })
                .filter(|&(src, dst, ..)| src != dst);
            let channels = tree.chain(extra).collect();
            RandomCase { cycles, channels, buffer_depth, output: (output < n).then_some(output) }
        })
}

impl RandomCase {
    fn build(&self) -> (Application, ExecutionLayout, ValidationConfig) {
        let mut b = ApplicationBuilder::new("random");
        let tasks: Vec<_> = self
            .cycles
            .iter()
            .enumerate()
            .map(|(i, &cycles)| {
                let role =
                    if self.output == Some(i) { TaskRole::Output } else { TaskRole::Internal };
                let imp =
                    Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), cycles, 1);
                b.add_task(format!("t{i}"), role, vec![imp])
            })
            .collect();
        for &(src, dst, rate, _) in &self.channels {
            b.add_channel(tasks[src], tasks[dst], 10, rate);
        }
        let app = b.build().unwrap();
        let layout = ExecutionLayout {
            binding: Binding::new(vec![ImplId(0); tasks.len()]),
            placement: Placement::new((0..tasks.len() as u32).map(ElementId).collect()),
            routes: app
                .channels()
                .zip(&self.channels)
                .map(|(c, &(_, _, _, hops))| {
                    Route::new(c.id(), (0..hops as u32).map(LinkId).collect())
                })
                .collect(),
        };
        let config =
            ValidationConfig { buffer_depth: self.buffer_depth, ..ValidationConfig::default() };
        (app, layout, config)
    }

    /// Whether every task is joined to every other by channels.
    fn is_connected(&self) -> bool {
        let mut group: Vec<usize> = (0..self.cycles.len()).collect();
        for _ in 0..group.len() {
            for &(src, dst, _, _) in &self.channels {
                let low = group[src].min(group[dst]);
                (group[src], group[dst]) = (low, low);
            }
        }
        group.iter().all(|&g| g == 0)
    }
}

/// `validate` against the oracle on random applications: fork/join,
/// parallel channels, cycles, disconnected graphs, rates 1-3, buffers 1-4,
/// 0-12 hops, small and large co-prime cycle counts, with and without an
/// output task. Cases where the oracle itself runs out of 300 000 events
/// are discarded — the solver has an answer there, the oracle has none.
#[test]
fn computed_period_is_the_explored_period_on_random_applications() {
    let strategy = random_case();
    let mut rng = TestRng::for_test("computed_period_is_the_explored_period");
    let (mut periods, mut refusals, mut discarded, mut fractional) = (0, 0, 0, 0);
    for case_index in 0..600 {
        let case = strategy.generate(&mut rng);
        let (app, layout, config) = case.build();
        let ours = validate(&app, &layout, &config);
        let what = format!("case {case_index} {case:?}");
        let explored = throughput_with(
            &layout_to_sdf(&app, &layout, &config),
            reference_of(&app),
            &StateSpaceConfig { max_events: 300_000 },
        );
        match (ours, explored) {
            (_, Err(StateSpaceError::Diverged { .. })) => discarded += 1,
            (Ok(ours), Ok(oracle)) => {
                assert_same_period(&ours, &oracle, &what);
                periods += 1;
                fractional += usize::from(ours.period_iterations > 1);
            }
            (Err(ValidationError::Analysis(error)), Err(oracle)) => {
                // On a disconnected application the oracle tells "everything
                // stopped" (`Deadlock`) from "the reference's component
                // stopped while another keeps running" (`ReferenceStarved`);
                // the solver only ever looks at the reference's component
                // and calls both a deadlock.
                if case.is_connected() {
                    assert_eq!(error, oracle, "{what}");
                } else {
                    assert_eq!(error, StateSpaceError::Deadlock, "{what}");
                    assert!(
                        matches!(
                            oracle,
                            StateSpaceError::Deadlock | StateSpaceError::ReferenceStarved
                        ),
                        "{what}: {oracle}"
                    );
                }
                refusals += 1;
            }
            (ours, oracle) => panic!("{what}: solver {ours:?} but oracle {oracle:?}"),
        }
    }
    // The generator must keep reaching every verdict, or the test is vacuous.
    let seen = format!(
        "{periods} periods ({fractional} fractional), {refusals} refusals, {discarded} discarded"
    );
    assert!(periods >= 450 && fractional >= 8 && refusals >= 20 && discarded <= 12, "{seen}");
}

/// SplitMix64, as `benchmark/src/storm.rs` seeds its catalogue.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's catalogue on `platform` — `per_dataset` applications from
/// each Table-I dataset under its fixed catalogue seed — laid out one at a
/// time on the empty platform with validation off.
fn catalogue_layouts(
    platform: &Platform,
    per_dataset: usize,
) -> Vec<(Application, ExecutionLayout)> {
    const CATALOGUE_SEED: u64 = 0x0DA7E2010;
    let config = KairosConfig { validate: false, ..KairosConfig::default() };
    let mut manager = Kairos::new(platform.clone(), config);
    let mut layouts = Vec::new();
    for (i, spec) in DatasetSpec::all().into_iter().enumerate() {
        for app in generate_dataset(spec, per_dataset, splitmix(CATALOGUE_SEED + i as u64)) {
            if let Ok(report) = manager.admit(&app) {
                manager.release(report.app_id);
                layouts.push((app, report.layout));
            }
        }
    }
    layouts
}

/// The solver's input, read back off the graph `layout_to_sdf` returns.
fn flat_model(graph: &SdfGraph) -> (Vec<u64>, Vec<(u32, u32, u32)>) {
    let exec = graph.actors().map(|a| a.exec_time()).collect();
    let edges = graph
        .channels()
        .map(|c| {
            assert_eq!(c.produce(), c.consume(), "the layout model must stay homogeneous");
            assert_eq!(c.initial_tokens() % c.produce(), 0);
            (c.src().0, c.dst().0, c.initial_tokens() / c.produce())
        })
        .collect();
    (exec, edges)
}

/// What a catalogue sweep saw of the solver's cost.
#[derive(Debug, Default)]
struct SolverCost {
    layouts: usize,
    rounds_total: u64,
    rounds_max: u32,
    /// Slowest `validate` call (each layout's best of three, so a
    /// descheduled thread does not pass for a slow analysis).
    worst: Duration,
}

/// Checks solver == oracle (200 000 events, the product's former default
/// budget) on every layout and folds the solver's cost into `cost`.
fn pin_catalogue(layouts: &[(Application, ExecutionLayout)], cost: &mut SolverCost) {
    let config = ValidationConfig::default();
    for (app, layout) in layouts {
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                let report = validate(app, layout, &config);
                (start.elapsed(), report)
            })
            .min_by_key(|(elapsed, _)| *elapsed)
            .expect("three runs");
        let ours = best.1.unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let model = layout_to_sdf(app, layout, &config);
        let reference = reference_of(app);
        let explored =
            throughput_with(&model, reference, &StateSpaceConfig { max_events: 200_000 })
                .unwrap_or_else(|e| panic!("{}: oracle: {e}", app.name()));
        assert_same_period(&ours, &explored, app.name());

        let (exec, edges) = flat_model(&model);
        let ratio = max_cycle_ratio(&exec, &edges, reference.index()).unwrap();
        assert_eq!((ratio.cycles, ratio.iterations), (ours.period_cycles, ours.period_iterations));
        cost.layouts += 1;
        cost.rounds_total += u64::from(ratio.rounds);
        cost.rounds_max = cost.rounds_max.max(ratio.rounds);
        cost.worst = cost.worst.max(best.0);
    }
}

#[test]
fn computed_period_is_the_explored_period_on_a_catalogue_slice() {
    let layouts = catalogue_layouts(&topology::crisp(), 64);
    assert!(layouts.len() >= 200, "only {} of 384 applications fit an empty CRISP", layouts.len());
    pin_catalogue(&layouts, &mut SolverCost::default());
}

/// The full pin: every layout of the three catalogues the benchmark's five
/// workloads draw from. CI runs it in release:
/// `cargo test --release --test validation_behaviour -- --ignored`.
#[test]
#[ignore = "2 521 layouts through the state-space oracle; run in release"]
fn computed_period_is_the_explored_period_on_the_full_catalogues() {
    let mut cost = SolverCost::default();
    for (platform, per_dataset) in [
        (topology::crisp(), 256),
        (topology::crisp(), 160),
        (topology::heterogeneous_mesh(16, 16), 160),
    ] {
        pin_catalogue(&catalogue_layouts(&platform, per_dataset), &mut cost);
    }
    println!(
        "{} layouts, 0 mismatches; solver rounds mean {:.1} max {}; worst validate {:?}",
        cost.layouts,
        cost.rounds_total as f64 / cost.layouts as f64,
        cost.rounds_max,
        cost.worst
    );
    assert_eq!(cost.layouts, 2521, "the catalogues moved; re-pin the count");
    assert!(cost.worst < Duration::from_millis(1), "{cost:?} (195 ms before the solver)");
}
