//! Fig. 10 — admission of the beamforming application under varying mapping
//! weights: communication weight 0..=25 (step 1) × fragmentation weight
//! 0..=1000 (step 10), each point one admission attempt on an empty CRISP
//! platform.
//!
//! Paper shape: "only specific ratio between the fragmentation and
//! communication objective results in admission of the application. [...]
//! Disabling either one of the objectives never gives a successful result."
//!
//! The quick scale samples every 5th communication and every 50th
//! fragmentation weight; `KAIROS_PAPER_SCALE=1` samples the full paper grid.

use kairos_appgen::beamforming_app;
use kairos_core::{CostWeights, Kairos, KairosConfig, MapperConfig};
use kairos_platform::topology;

fn main() {
    let paper_scale = std::env::var("KAIROS_PAPER_SCALE").map(|v| v == "1").unwrap_or(false);
    let (comm_step, frag_step) = if paper_scale { (1u32, 10u32) } else { (5, 50) };

    let app = beamforming_app();
    let platform = topology::crisp();
    // Validation cannot reject (no constraints attached); skip it for sweep
    // speed, exactly as the admission decision is unaffected. The candidate
    // search is widened (paper SIII-B: "the local search can be extended to
    // gather even more elements") so the weights have enough placement
    // freedom to matter on this 45-of-45-DSP instance.
    let base = KairosConfig {
        validate: false,
        mapper: MapperConfig { extra_search_rings: 5, ..MapperConfig::default() },
        ..KairosConfig::default()
    };

    let comm_weights: Vec<u32> = (0..=25).step_by(comm_step as usize).collect();
    let frag_weights: Vec<u32> = (0..=1000).step_by(frag_step as usize).collect();

    let mut admitted_points: Vec<(u32, u32)> = Vec::new();
    let mut comm_zero_admits = 0usize;
    let mut frag_zero_admits = 0usize;

    println!("\n== Fig. 10: beamformer admission over the weight grid ==");
    println!(
        "(rows: fragmentation weight, top-down; cols: communication weight; '#' = admitted)\n"
    );
    let header: String = comm_weights.iter().map(|w| if w % 5 == 0 { '|' } else { '.' }).collect();
    println!("      {header}");
    for &fw in frag_weights.iter().rev() {
        let mut line = String::new();
        for &cw in &comm_weights {
            let weights = CostWeights { communication: cw as f64, fragmentation: fw as f64 };
            let config = KairosConfig { mapper: MapperConfig { weights, ..base.mapper }, ..base };
            let mut kairos = Kairos::new(platform.clone(), config);
            let ok = kairos.admit(&app).is_ok();
            line.push(if ok { '#' } else { '.' });
            if ok {
                admitted_points.push((cw, fw));
                if cw == 0 {
                    comm_zero_admits += 1;
                }
                if fw == 0 {
                    frag_zero_admits += 1;
                }
            }
        }
        println!("{fw:5} {line}");
    }

    let total = comm_weights.len() * frag_weights.len();
    println!("\nadmitted {} of {} grid points", admitted_points.len(), total);
    println!("admissions with communication weight 0: {comm_zero_admits}");
    println!("admissions with fragmentation weight 0: {frag_zero_admits}");
    println!("paper shape: admission only for specific weight ratios; disabling either");
    println!("objective (a zero weight) never admits the application.");
}
