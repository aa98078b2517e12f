//! Fault-tolerance integration: element failures evict exactly the affected
//! applications, re-admission avoids dead elements, and repair restores the
//! full platform.

use kairos::appgen::{AppGenerator, GeneratorConfig};
use kairos::core::{Kairos, KairosConfig};
use kairos::platform::{topology, ElementKind};

fn manager_with_apps(n: usize, seed: u64) -> (Kairos, Vec<kairos::app::Application>) {
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut generator = AppGenerator::new(
        GeneratorConfig { internal_tasks: 2..=5, ..GeneratorConfig::default() },
        seed,
    );
    let mut admitted = Vec::new();
    for i in 0..n {
        let app = generator.generate(format!("fault-app{i}"));
        if kairos.admit(&app).is_ok() {
            admitted.push(app);
        }
    }
    (kairos, admitted)
}

#[test]
fn failure_evicts_only_affected_apps() {
    let (mut kairos, _apps) = manager_with_apps(6, 0xBEEF);
    let before = kairos.admitted_count();
    assert!(before >= 2, "need several resident apps");

    // Pick an element hosting at least one task.
    let victim = kairos
        .platform()
        .element_ids()
        .find(|&e| kairos.platform().is_used(e))
        .expect("some element is used");
    let victims_expected: usize = {
        let mut ids: Vec<_> = kairos.platform().residents(victim).iter().map(|o| o.app).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    let evicted = kairos.fail_element(victim);
    assert_eq!(evicted.len(), victims_expected);
    assert_eq!(kairos.admitted_count(), before - evicted.len());
    // The failed element holds nothing anymore.
    assert!(kairos.platform().residents(victim).is_empty());
}

#[test]
fn readmission_avoids_failed_elements() {
    let (mut kairos, apps) = manager_with_apps(4, 0xFEED);
    // Fail three DSPs.
    let dsps: Vec<_> =
        kairos.platform().elements_of_kind(ElementKind::Dsp).take(3).map(|e| e.id()).collect();
    for &d in &dsps {
        kairos.fail_element(d);
    }
    // Re-admit everything still possible; placements must avoid the dead DSPs.
    for app in &apps {
        if let Ok(report) = kairos.admit(app) {
            for (_, e) in report.layout.placement.iter() {
                assert!(!dsps.contains(&e), "placed a task on a failed element");
            }
        }
    }
}

#[test]
fn repair_restores_admission_capacity() {
    let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
    let mut generator = AppGenerator::new(
        GeneratorConfig {
            internal_tasks: 2..=2,
            io_pin_probability: 0.0,
            resource_percent: 60..=70,
            ..GeneratorConfig::default()
        },
        1,
    );
    let app = generator.generate("probe");
    // Fail every element: nothing can be admitted.
    let all: Vec<_> = kairos.platform().element_ids().collect();
    for &e in &all {
        kairos.fail_element(e);
    }
    assert!(kairos.admit(&app).is_err());
    // Repair: admission works again.
    for &e in &all {
        kairos.repair_element(e);
    }
    assert!(kairos.platform().failed_elements().is_empty());
    assert!(kairos.admit(&app).is_ok());
}

#[test]
fn cascading_failures_degrade_gracefully() {
    let (mut kairos, apps) = manager_with_apps(5, 0xCAFE);
    let dsps: Vec<_> =
        kairos.platform().elements_of_kind(ElementKind::Dsp).map(|e| e.id()).collect();
    let mut still_admittable = apps.len();
    for chunk in dsps.chunks(9) {
        for &d in chunk {
            kairos.fail_element(d);
        }
        // Count how many of the original apps would still be admitted onto
        // the degraded platform from scratch: the manager's copy, emptied.
        let mut probe = kairos.clone();
        probe.release_all();
        assert!(probe.platform().is_idle());
        let now = apps.iter().filter(|a| probe.admit(a).is_ok()).count();
        assert!(now <= apps.len());
        still_admittable = now;
    }
    // With all 45 DSPs dead, DSP-hungry apps are gone.
    assert!(still_admittable < apps.len());
}
