//! Ablation A2 — exact branch-and-bound versus greedy knapsack inside
//! `SolveGAP`.
//!
//! The GAP approximation's quality bound is `(1+α)` with α the knapsack
//! ratio, and its running time is dominated by the knapsack subroutine
//! (paper §III-C). This ablation measures what the cheaper greedy solver
//! costs in admissions and layout quality.

use std::time::Instant;

use kairos_appgen::DatasetSpec;
use kairos_bench::{
    filtered_dataset, print_table, run_sequence, shuffled_orders, BenchScale, FailureHistogram,
    EXPERIMENT_SEED,
};
use kairos_core::{KairosConfig, KnapsackSolver, MapperConfig};
use kairos_platform::topology;

fn evaluate(solver: KnapsackSolver, scale: BenchScale) -> (usize, f64, f64) {
    let platform = topology::crisp();
    let mapper = MapperConfig { knapsack: solver, ..MapperConfig::default() };
    let config = KairosConfig { mapper, ..KairosConfig::default() };
    let mut histogram = FailureHistogram::default();
    let mut hops_sum = 0.0;
    let mut hops_n = 0usize;
    let start = Instant::now();
    for spec in DatasetSpec::all() {
        let (apps, _) = filtered_dataset(spec, scale, &platform, &config);
        if apps.is_empty() {
            continue;
        }
        let orders = shuffled_orders(apps.len(), scale.sequences, EXPERIMENT_SEED ^ 0xab2b);
        for order in &orders {
            for outcome in run_sequence(&platform, &config, &apps, order) {
                histogram.record(&outcome);
                if let Ok(stats) = &outcome.result {
                    hops_sum += stats.avg_hops;
                    hops_n += 1;
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mean_hops = if hops_n == 0 { 0.0 } else { hops_sum / hops_n as f64 };
    (histogram.successes, mean_hops, elapsed)
}

fn main() {
    let scale = BenchScale::from_env();
    let (exact_ok, exact_hops, exact_time) =
        evaluate(KnapsackSolver::Exact { max_exact_items: 24 }, scale);
    let (greedy_ok, greedy_hops, greedy_time) = evaluate(KnapsackSolver::Greedy, scale);

    print_table(
        "Ablation: knapsack solver inside SolveGAP (all datasets)",
        &["solver", "admissions", "mean hops/channel", "total wall time (s)"],
        &[
            vec![
                "Exact (branch & bound)".into(),
                exact_ok.to_string(),
                format!("{exact_hops:.3}"),
                format!("{exact_time:.2}"),
            ],
            vec![
                "Greedy (ratio)".into(),
                greedy_ok.to_string(),
                format!("{greedy_hops:.3}"),
                format!("{greedy_time:.2}"),
            ],
        ],
    );
    println!("\nexpected: near-identical admissions (per-ring task sets are small),");
    println!("greedy slightly faster; exact never worse in layout quality.");
}
