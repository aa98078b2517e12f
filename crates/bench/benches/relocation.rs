//! Migration versus evict-and-readmit for admitting a blocked critical.
//!
//! A fragmented CRISP platform blocks a critical request; the relocation
//! planner picks a minimal victim set, and the two strategies differ in
//! what happens to the victims:
//!
//! * **evict-and-readmit** — every victim is fully evicted (service
//!   interruption), the critical admits, then the victims are offered
//!   for re-admission on whatever room remains;
//! * **migrate** — victims are live-migrated off the critical's target
//!   region (make-before-break, no interruption) and only evicted when
//!   both footprints cannot be held at once.
//!
//! The table reports, per occupancy level: the end-to-end latency of
//! admitting the blocked critical (planning + relocation + admission),
//! the number of full evictions each strategy needed, how many victims
//! kept running, and the external fragmentation left behind.

use std::time::Instant;

use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_bench::print_table;
use kairos_core::{Kairos, KairosConfig};
use kairos_platform::{external_fragmentation, topology, AppId, ElementKind, ResourceVector};

/// A `tasks`-task DSP chain, each task demanding `cpu` CPU units.
fn chain(name: &str, tasks: usize, cpu: u64) -> Application {
    let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 4, 0, 0), 50, 1);
    let mut b = ApplicationBuilder::new(name);
    let mut prev = None;
    for i in 0..tasks {
        let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]);
        if let Some(p) = prev {
            b.add_channel(p, t, 20, 1);
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

/// Occupies CRISP with `residents` small apps, then releases every third
/// one — scattered holes, none big enough for the critical's tasks.
fn fragmented_platform(residents: usize) -> (Kairos, Vec<AppId>) {
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut ids = Vec::new();
    for i in 0..residents {
        let cpu = if i % 2 == 0 { 650 } else { 450 };
        match kairos.admit(&chain(&format!("res-{i}"), 1, cpu)) {
            Ok(report) => ids.push(report.app_id),
            Err(_) => break,
        }
    }
    let mut survivors = Vec::new();
    for (i, id) in ids.into_iter().enumerate() {
        if i % 3 == 0 {
            kairos.release(id);
        } else {
            survivors.push(id);
        }
    }
    (kairos, survivors)
}

struct Outcome {
    admitted: bool,
    micros: f64,
    evictions: usize,
    kept_running: usize,
    fragmentation: f64,
}

/// Evict-and-readmit: victims are released outright, the critical
/// admits, then each victim is offered for re-admission.
fn run_evict(residents: usize, critical: &Application) -> Outcome {
    let (mut kairos, survivors) = fragmented_platform(residents);
    let start = Instant::now();
    let plan = kairos.select_victims(critical, &survivors, 8);
    let mut evictions = 0;
    let mut kept = 0;
    let mut admitted = false;
    if let Some(plan) = plan {
        let mut victims_apps = Vec::new();
        for &victim in &plan.victims {
            victims_apps.push(kairos.application(victim).unwrap().clone());
            kairos.release(victim);
            evictions += 1;
        }
        admitted = kairos.admit(critical).is_ok();
        for app in &victims_apps {
            if kairos.admit(app).is_ok() {
                kept += 1;
            }
        }
    }
    Outcome {
        admitted,
        micros: start.elapsed().as_secs_f64() * 1e6,
        evictions,
        kept_running: kept,
        fragmentation: external_fragmentation(kairos.platform()),
    }
}

/// Migration: victims are moved off the critical's probed target region,
/// falling back to eviction only when both footprints cannot coexist.
fn run_migrate(residents: usize, critical: &Application) -> Outcome {
    let (mut kairos, survivors) = fragmented_platform(residents);
    let start = Instant::now();
    let plan = kairos.select_victims(critical, &survivors, 8);
    let mut evictions = 0;
    let mut kept = 0;
    let mut admitted = false;
    if let Some(plan) = plan {
        let targets = plan.target_elements();
        for &victim in &plan.victims {
            if kairos.migrate(victim, &targets).is_ok() {
                kept += 1;
            } else {
                kairos.release(victim);
                evictions += 1;
            }
        }
        admitted = kairos.admit(critical).is_ok();
    }
    Outcome {
        admitted,
        micros: start.elapsed().as_secs_f64() * 1e6,
        evictions,
        kept_running: kept,
        fragmentation: external_fragmentation(kairos.platform()),
    }
}

fn main() {
    let critical = chain("critical", 4, 800);
    let mut rows = Vec::new();
    for residents in [24usize, 36, 48] {
        for (label, outcome) in [
            ("evict+readmit", run_evict(residents, &critical)),
            ("migrate", run_migrate(residents, &critical)),
        ] {
            rows.push(vec![
                format!("{residents} residents"),
                label.to_owned(),
                if outcome.admitted { "yes".into() } else { "no".into() },
                format!("{:.1}", outcome.micros),
                outcome.evictions.to_string(),
                outcome.kept_running.to_string(),
                format!("{:.3}", outcome.fragmentation),
            ]);
        }
    }
    print_table(
        "Admitting a blocked critical: migration vs. evict-and-readmit (CRISP)",
        &[
            "occupancy",
            "strategy",
            "critical admitted",
            "latency (us)",
            "full evictions",
            "victims kept running",
            "frag after",
        ],
        &rows,
    );
    println!(
        "\nBoth strategies use the same minimal victim plan; they differ in\n\
         what the victims suffer. Migration holds both footprints at once\n\
         (make-before-break) so victims keep running through the move, at\n\
         the cost of needing slack elsewhere; evict-and-readmit always\n\
         frees the region but interrupts every victim and may fail to\n\
         re-admit them."
    );
}
