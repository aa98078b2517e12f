//! Smoke test: the 53-task beamformer admits onto CRISP with balanced
//! weights (paper §IV-A).

use kairos::appgen::beamforming::beamforming_app;
use kairos::core::{CostPolicy, Kairos, KairosConfig, MapperConfig};
use kairos::platform::topology;

#[test]
fn beamformer_admits_with_both_objectives() {
    let app = beamforming_app();
    let mapper =
        MapperConfig { extra_search_rings: 5, ..MapperConfig::with_policy(CostPolicy::Both) };
    let config = KairosConfig { mapper, ..KairosConfig::default() };
    let mut kairos = Kairos::new(topology::crisp(), config);
    match kairos.admit(&app) {
        Ok(report) => {
            println!("admitted: {}", report.layout);
            println!("timings: {}", report.timings);
            assert_eq!(report.layout.placement.len(), 53);
        }
        Err(failure) => {
            panic!("beamformer rejected in {} phase: {}", failure.phase(), failure);
        }
    }
}
