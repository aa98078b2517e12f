//! §IV-A case study — per-phase allocation times for the 53-task
//! beamforming application on the CRISP platform.
//!
//! Paper reference (200 MHz ARM926EJ-S, 16 MB SDRAM): binding 70.4 ms,
//! mapping 21.7 ms, routing 7.4 ms, validation 20.6 ms — binding is the
//! bottleneck and "the mapping algorithm scales quite well". Absolute times
//! on a modern host are far smaller; the comparison target is the *ordering*
//! and the mapping phase's modest share.

use kairos_appgen::beamforming_app;
use kairos_bench::print_table;
use kairos_core::{CostPolicy, Kairos, KairosConfig};
use kairos_platform::topology;

fn main() {
    let app = beamforming_app();
    let samples = 20;

    let mut totals = kairos_core::PhaseTimings::default();
    let mut last = None;
    for _ in 0..samples {
        let config = KairosConfig {
            extra_search_rings: 5, // widened search: the 45-of-45-DSP fill needs freedom
            ..KairosConfig::with_policy(CostPolicy::Both)
        };
        let mut kairos = Kairos::new(topology::crisp(), config);
        let report = kairos
            .admit(&app)
            .expect("beamformer admits with the Both policy on an empty platform");
        totals.accumulate(&report.timings);
        last = Some(report);
    }
    let mean = totals.mean_of(samples);
    let report = last.expect("at least one sample");

    let ms = |d: std::time::Duration| format!("{:.4}", d.as_secs_f64() * 1e3);
    print_table(
        "Case study: beamforming (53 tasks, all 45 DSPs) on CRISP",
        &["phase", "measured mean (ms)", "paper @200MHz ARM (ms)"],
        &[
            vec!["binding".into(), ms(mean.binding), "70.4".into()],
            vec!["mapping".into(), ms(mean.mapping), "21.7".into()],
            vec!["routing".into(), ms(mean.routing), "7.4".into()],
            vec!["validation".into(), ms(mean.validation), "20.6".into()],
        ],
    );
    println!("\nlayout: {}", report.layout);
    if let Some(validation) = &report.validation {
        println!(
            "steady-state period: {:.1} cycles = {} / {} ({} SDF actors)",
            validation.iteration_period,
            validation.period_cycles,
            validation.period_iterations,
            validation.actors
        );
    }
    println!(
        "distinct elements used: {} of 62 (45 DSPs must all be occupied)",
        report.layout.elements_used()
    );
}
