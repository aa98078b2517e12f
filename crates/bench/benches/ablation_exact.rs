//! Ablation A3 — heuristic mapping quality versus the exact optimum.
//!
//! The paper's future work proposes comparing against an ILP formulation.
//! This ablation uses the exhaustive branch-and-bound mapper
//! ([`kairos_bench::baseline::map_exact`]) as the optimum oracle on small
//! instances and reports the heuristic's communication-cost ratio.

use kairos_appgen::{AppGenerator, GeneratorConfig};
use kairos_bench::baseline::{map_exact, placement_comm_cost};
use kairos_bench::print_table;
use kairos_core::{bind, map_application, CostPolicy, MapperConfig};
use kairos_platform::{topology, AppId};

fn main() {
    let mut generator = AppGenerator::new(
        GeneratorConfig {
            input_tasks: 1..=1,
            internal_tasks: 2..=4,
            output_tasks: 1..=1,
            io_pin_probability: 0.0, // unpinned: the interesting (hard) case
            resource_percent: 40..=90,
            ..GeneratorConfig::default()
        },
        0xeac7,
    );

    let platform = topology::dsp_mesh(4, 4);
    let mapper = MapperConfig::with_policy(CostPolicy::Communication);

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut heuristic_failures = 0usize;
    for i in 0..30 {
        let app = generator.generate(format!("probe{i}"));
        let Ok(binding) = bind(&app, &platform) else { continue };
        let Some((_, optimal)) = map_exact(&app, &binding, &platform, 20_000_000) else {
            continue;
        };
        let mut work = platform.clone();
        match map_application(&app, &binding, &mut work, AppId(0), &mapper) {
            Ok(report) => {
                let heuristic = placement_comm_cost(&app, &report.placement, &platform, 1000);
                // Ratio against max(1) to avoid dividing by a zero optimum.
                let ratio = (heuristic.max(1)) as f64 / (optimal.max(1)) as f64;
                ratios.push(ratio);
                rows.push(vec![
                    app.name().to_string(),
                    app.task_count().to_string(),
                    optimal.to_string(),
                    heuristic.to_string(),
                    format!("{ratio:.2}"),
                ]);
            }
            Err(_) => heuristic_failures += 1,
        }
    }

    print_table(
        "Ablation: heuristic vs exact mapping (bandwidth-weighted hop cost)",
        &["app", "tasks", "optimal", "heuristic", "ratio"],
        &rows,
    );
    if !ratios.is_empty() {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let worst = ratios.iter().cloned().fold(0.0f64, f64::max);
        println!("\nmean ratio {mean:.2}, worst ratio {worst:.2}, heuristic failures {heuristic_failures}");
        println!("(1.00 = optimal; the incremental heuristic trades quality for run-time)");
    }
}
