//! Mapping-quality integration tests: the incremental heuristic against the
//! exact oracle and the first-fit baseline (the comparison the paper lists
//! as future work).

use kairos::appgen::{AppGenerator, GeneratorConfig};
use kairos::core::{bind, map_application, CostPolicy, MapperConfig};
use kairos::platform::{topology, AppId};
use kairos_bench::baseline::{map_exact, map_first_fit, placement_comm_cost};

fn small_app_generator(seed: u64) -> AppGenerator {
    AppGenerator::new(
        GeneratorConfig {
            input_tasks: 1..=1,
            internal_tasks: 2..=4,
            output_tasks: 1..=1,
            io_pin_probability: 0.0,
            resource_percent: 40..=80,
            ..GeneratorConfig::default()
        },
        seed,
    )
}

#[test]
fn heuristic_is_never_below_the_exact_optimum() {
    let platform = topology::dsp_mesh(4, 4);
    let mapper = MapperConfig::with_policy(CostPolicy::Communication);
    let mut generator = small_app_generator(0x0b71);
    let mut compared = 0;
    for i in 0..15 {
        let app = generator.generate(format!("q{i}"));
        let Ok(binding) = bind(&app, &platform) else { continue };
        let Some((_, optimal)) = map_exact(&app, &binding, &platform, 5_000_000) else {
            continue;
        };
        let mut work = platform.clone();
        let Ok(report) = map_application(&app, &binding, &mut work, AppId(0), &mapper) else {
            continue;
        };
        let heuristic = placement_comm_cost(&app, &report.placement, &platform, 1000);
        assert!(heuristic >= optimal, "exact is an optimum: {heuristic} < {optimal}");
        compared += 1;
    }
    assert!(compared >= 5, "too few comparable instances ({compared})");
}

#[test]
fn heuristic_beats_first_fit_on_average() {
    let platform = topology::dsp_mesh(5, 5);
    let mapper = MapperConfig::with_policy(CostPolicy::Communication);
    let mut generator = small_app_generator(0x0b72);
    let mut heuristic_total = 0u64;
    let mut first_fit_total = 0u64;
    let mut samples = 0;
    for i in 0..25 {
        let app = generator.generate(format!("ff{i}"));
        let Ok(binding) = bind(&app, &platform) else { continue };
        let mut w1 = platform.clone();
        let Ok(report) = map_application(&app, &binding, &mut w1, AppId(0), &mapper) else {
            continue;
        };
        let mut w2 = platform.clone();
        let Ok(ff) = map_first_fit(&app, &binding, &mut w2, AppId(0)) else { continue };
        heuristic_total += placement_comm_cost(&app, &report.placement, &platform, 1000);
        first_fit_total += placement_comm_cost(&app, &ff, &platform, 1000);
        samples += 1;
    }
    assert!(samples >= 10, "too few samples");
    assert!(
        heuristic_total <= first_fit_total,
        "heuristic ({heuristic_total}) must not lose to first-fit ({first_fit_total}) in aggregate"
    );
}

#[test]
fn knapsack_choice_does_not_change_feasibility_on_small_rings() {
    use kairos::core::KnapsackSolver;
    let platform = topology::dsp_mesh(4, 4);
    let mut generator = small_app_generator(0x0b73);
    for i in 0..10 {
        let app = generator.generate(format!("ks{i}"));
        let Ok(binding) = bind(&app, &platform) else { continue };
        let exact_cfg = MapperConfig {
            knapsack: KnapsackSolver::Exact { max_exact_items: 24 },
            ..MapperConfig::with_policy(CostPolicy::Both)
        };
        let greedy_cfg = MapperConfig { knapsack: KnapsackSolver::Greedy, ..exact_cfg };
        let mut w1 = platform.clone();
        let mut w2 = platform.clone();
        let a = map_application(&app, &binding, &mut w1, AppId(0), &exact_cfg).is_ok();
        let b = map_application(&app, &binding, &mut w2, AppId(0), &greedy_cfg).is_ok();
        assert_eq!(a, b, "solver choice flipped feasibility for {}", app.name());
    }
}
