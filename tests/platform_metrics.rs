//! Integration tests of the platform-level metrics the experiments consume:
//! fragmentation, free islands, utilisation and the occupancy strip.

use kairos::appgen::{generate_dataset, DatasetSpec};
use kairos::core::{CostPolicy, Kairos, KairosConfig};
use kairos::platform::{
    element_utilisation, external_fragmentation, free_island_count, render_strip, topology,
};

#[test]
fn fragmentation_rises_then_vanishes_on_release() {
    let apps = generate_dataset(DatasetSpec::all()[0], 10, 0x1234);
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut peak = 0.0f64;
    for app in &apps {
        let _ = kairos.admit(app);
        peak = peak.max(kairos.fragmentation());
    }
    assert!(peak > 0.05, "saturating admissions must fragment the platform");
    kairos.release_all();
    assert_eq!(kairos.fragmentation(), 0.0);
    assert_eq!(element_utilisation(kairos.platform()), 0.0);
    assert_eq!(free_island_count(kairos.platform()), 1, "idle CRISP is one free island");
}

#[test]
fn fragmentation_policy_reduces_free_islands() {
    // The fragmentation objective exists to keep free elements contiguous;
    // after the same admission load it should not leave more free islands
    // than the contiguity-blind None policy does on average.
    let apps = generate_dataset(DatasetSpec::all()[1], 12, 0x777);
    let islands = |policy: CostPolicy| {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::with_policy(policy));
        for app in &apps {
            let _ = kairos.admit(app);
        }
        free_island_count(kairos.platform())
    };
    let frag_islands = islands(CostPolicy::Fragmentation);
    let none_islands = islands(CostPolicy::None);
    assert!(
        frag_islands <= none_islands + 1,
        "fragmentation policy produced more islands ({frag_islands}) than None ({none_islands})"
    );
}

#[test]
fn renderers_reflect_manager_state() {
    let apps = generate_dataset(DatasetSpec::all()[0], 4, 0x42);
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let idle_strip = render_strip(kairos.platform());
    assert!(idle_strip.chars().all(|c| c == '.'));
    let mut admitted = 0;
    for app in &apps {
        if kairos.admit(app).is_ok() {
            admitted += 1;
        }
    }
    assert!(admitted > 0);
    let busy_strip = render_strip(kairos.platform());
    assert!(busy_strip.chars().any(|c| c != '.'), "strip must show occupancy");
    assert_eq!(busy_strip.len(), 62);
}

#[test]
fn utilisation_and_fragmentation_are_consistent() {
    let apps = generate_dataset(DatasetSpec::all()[3], 10, 0x99);
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    for app in &apps {
        let _ = kairos.admit(app);
    }
    let util = element_utilisation(kairos.platform());
    let frag = external_fragmentation(kairos.platform());
    assert!((0.0..=1.0).contains(&util));
    assert!((0.0..=1.0).contains(&frag));
    if util == 0.0 || util == 1.0 {
        assert_eq!(frag, 0.0, "uniform occupancy has no mixed adjacent pairs");
    }
}
