//! The paper's §IV-A case study: allocating the 53-task beamforming
//! application that needs all 45 DSPs of the CRISP platform, and exploring
//! how the cost-function weights decide admission (Fig. 10).
//!
//! ```sh
//! cargo run --release --example beamforming
//! ```

use kairos::appgen::beamforming::beamforming_app;
use kairos::core::{CostWeights, Kairos, KairosConfig, MapperConfig, Phase};
use kairos::platform::topology;

fn main() {
    let app = beamforming_app();
    println!("case study: {app}");

    // Admission with balanced weights (the paper: "only specific ratio
    // between the fragmentation and communication objective results in
    // admission").
    let mut kairos = Kairos::new(
        topology::crisp(),
        KairosConfig {
            mapper: MapperConfig {
                weights: CostWeights { communication: 5.0, fragmentation: 10.0 },
                extra_search_rings: 5,
                ..MapperConfig::default()
            },
            ..KairosConfig::default()
        },
    );
    match kairos.admit(&app) {
        Ok(report) => {
            println!("\nadmitted with balanced weights:");
            // Wall-clock, so on stderr; stdout is pinned by `tests/contract.rs`.
            eprintln!("  per-phase: {}", report.timings);
            println!("  layout: {}", report.layout);
            println!(
                "  paper reference on 200 MHz ARM926: binding 70.4 ms, mapping 21.7 ms, \
                 routing 7.4 ms, validation 20.6 ms"
            );
            if let Some(v) = &report.validation {
                println!("  steady-state period: {:.0} cycles", v.iteration_period);
            }
            // Count how many DSPs ended up in use (all 45, per the paper).
            let dsp_elements = report
                .layout
                .placement
                .iter()
                .filter(|&(_, e)| {
                    kairos.platform().element(e).kind() == kairos::platform::ElementKind::Dsp
                })
                .map(|(_, e)| e)
                .collect::<std::collections::HashSet<_>>();
            println!("  DSPs occupied: {} of 45", dsp_elements.len());
        }
        Err(failure) => {
            println!("rejected in the {} phase: {failure}", failure.phase());
        }
    }

    // Weight exploration: a coarse slice of Fig. 10.
    println!("\nweight exploration (y = admitted, . = rejected):");
    println!("  frag\\comm   0    1    5   10   25");
    for fw in [0.0, 10.0, 100.0, 500.0, 1000.0] {
        let mut row = format!("  {fw:9} ");
        for cw in [0.0, 1.0, 5.0, 10.0, 25.0] {
            let config = KairosConfig {
                mapper: MapperConfig {
                    weights: CostWeights { communication: cw, fragmentation: fw },
                    extra_search_rings: 5,
                    ..MapperConfig::default()
                },
                validate: false,
                ..KairosConfig::default()
            };
            let mut probe = Kairos::new(topology::crisp(), config);
            let mark = match probe.admit(&app) {
                Ok(_) => "   y ",
                Err(f) if f.phase() == Phase::Routing => "   . ",
                Err(_) => "   . ",
            };
            row.push_str(mark);
        }
        println!("{row}");
    }
    println!("\nno cost function (0,0) and fragmentation-only (comm=0) never admit;");
    println!("the mapping objectives must be combined to place 53 tasks on 45 DSPs.");
}
