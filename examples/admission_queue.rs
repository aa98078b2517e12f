//! Drives the `kairos-admitd` priority admission front-end by hand:
//! saturates the CRISP platform with low-priority work, queues a mix of
//! priorities against the full platform, then releases capacity and
//! watches the queue drain highest-priority-first with bounded retry.
//!
//! ```text
//! cargo run --release --example admission_queue
//! ```
//!
//! Everything is deterministic — rerunning prints the identical trace.

use kairos::admitd::{
    AdmitPolicy, Admitd, CapacityEvent, Event, PriorityClass, Request, ResourceService,
};
use kairos::appgen::{AppGenerator, DatasetSpec};
use kairos::core::{Kairos, KairosConfig};
use kairos::platform::topology;

fn describe(events: &[Event]) {
    for event in events {
        match event {
            Event::Queued { ticket, class, depth } => {
                println!("  ~ {ticket} [{class}] queued (depth {depth})");
            }
            Event::Admitted { ticket, class, report, waited, attempts, .. } => {
                println!(
                    "  + {ticket} [{class}] admitted as {} after {waited} ticks, {attempts} attempt(s)",
                    report.app_id
                );
            }
            Event::AttemptFailed { ticket, class, attempt, phase, .. } => {
                println!("  ! {ticket} [{class}] attempt {attempt} failed in {phase}, backing off");
            }
            Event::Rejected { ticket, class, cause, waited, .. } => {
                println!("  - {ticket} [{class}] rejected after {waited} ticks: {cause:?}");
            }
            Event::Preempted { victim, class, requeued_as, by } => {
                println!("  < {victim} [{class}] preempted for {by}, requeued as {requeued_as}");
            }
            Event::Migrated { ticket, app, moved_tasks } => {
                println!("  > {app} migrated ({moved_tasks} tasks moved) for {ticket}");
            }
            // Command results (`Released`, …) are not queue transitions;
            // `examples/service.rs` shows them.
            _ => {}
        }
    }
}

fn main() -> Result<(), String> {
    let policy = AdmitPolicy {
        class_capacity: [4, 4, 8, 8],
        max_wait: Some(400),
        max_attempts: 6,
        backoff_base: 1,
        backoff_cap: 4,
        ..AdmitPolicy::default()
    };
    println!("policy: {policy:?}\n");
    let mut admitd =
        Admitd::new(Kairos::new(topology::crisp(), KairosConfig::default()), Some(policy))?;

    // Phase 1: low-priority batch work until the platform refuses more.
    println!("== filling the platform with low-priority batch work ==");
    let spec = DatasetSpec::all()[3]; // Computation Medium
    let mut generator = AppGenerator::new(spec.generator_config(), 0xFEED);
    let mut residents = Vec::new();
    let mut clock = 0u64;
    loop {
        clock += 5;
        let app = generator.generate(format!("batch-{clock}"));
        admitd.submit(Request::admit(clock, app, PriorityClass::Low));
        let events = admitd.take_events();
        let admitted = events.iter().any(|e| matches!(e, Event::Admitted { .. }));
        describe(&events);
        for e in &events {
            if let Event::Admitted { report, .. } = e {
                residents.push(report.app_id);
            }
        }
        if !admitted {
            break; // first waiter is parked: the platform is full
        }
    }
    println!(
        "platform full: {} residents, utilisation {:.2}, queue depth {}\n",
        admitd.kairos().admitted_count(),
        admitd.occupancy().element_utilisation,
        admitd.queue_depth()
    );

    // Phase 2: a burst of mixed-priority requests against the full platform.
    println!("== mixed-priority burst against the full platform ==");
    for (i, class) in [
        PriorityClass::Normal,
        PriorityClass::Critical,
        PriorityClass::Normal,
        PriorityClass::High,
        PriorityClass::Critical,
    ]
    .into_iter()
    .enumerate()
    {
        clock += 5;
        let app = generator.generate(format!("burst-{i}"));
        admitd.submit(Request::admit(clock, app, class));
        describe(&admitd.take_events());
    }
    println!("queue depths by class (critical/high/normal/low): {:?}\n", admitd.queue().depths());

    // Phase 3: departures free capacity; each one drains the queue in
    // priority order, so criticals are admitted first even though they
    // arrived last.
    println!("== releasing residents: capacity events drain by priority ==");
    for id in residents.into_iter().take(6) {
        clock += 10;
        println!("t={clock}: release {id}");
        admitd.submit(Request::release(clock, id));
        describe(&admitd.take_events());
        if admitd.queue().is_empty() {
            break;
        }
    }

    // Anything still queued at the end of the day times out or is flushed.
    clock += 500;
    println!("\n== end of run (t={clock}) ==");
    describe(&admitd.pump(CapacityEvent::Tick { now: clock }));
    describe(&admitd.pump(CapacityEvent::Shutdown { now: clock }));
    println!(
        "final: {} admitted, queue empty: {}",
        admitd.kairos().admitted_count(),
        admitd.queue().is_empty()
    );
    Ok(())
}
