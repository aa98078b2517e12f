//! Drives the `kairos-admitd` resource service through a small session:
//! a batched arrival wave, a preempting critical, a fault, and releases —
//! all through typed commands, observed on the single event stream.
//!
//! ```text
//! cargo run --release --example service
//! ```
//!
//! Output is deterministic (the service runs on the zero phase clock and
//! a fixed workload seed) — run it twice and diff.

use kairos::admitd::{
    AdmitPolicy, CapacityEvent, Command, Event, PreemptionPolicy, PriorityClass, Request,
    ResourceService, ServiceBuilder,
};
use kairos::appgen::{WorkloadMix, WorkloadSampler};
use kairos::platform::topology;

fn show(events: &[Event]) {
    for event in events {
        match event {
            Event::Queued { ticket, class, depth } => {
                println!("  {ticket} queued as {class} (depth {depth})");
            }
            Event::Admitted { ticket, class, report, waited, .. } => {
                println!(
                    "  {ticket} admitted as {} ({class}, waited {waited}, {} tasks)",
                    report.app_id,
                    report.layout.placement.len()
                );
            }
            Event::AttemptFailed { ticket, attempt, phase, .. } => {
                println!("  {ticket} attempt {attempt} refused by {phase}, backing off");
            }
            Event::Rejected { ticket, cause, .. } => {
                println!("  {ticket} rejected: {cause:?}");
            }
            Event::Preempted { victim, requeued_as, by, .. } => {
                println!("  {victim} preempted for {by}, requeued as {requeued_as}");
            }
            Event::Migrated { ticket, app, moved_tasks } => {
                println!("  {app} live-migrated for {ticket} ({moved_tasks} tasks moved)");
            }
            Event::MigrationFailed { ticket, app, .. } => {
                println!("  {app} could not be migrated for {ticket}");
            }
            Event::Released { ticket, app, found } => {
                println!("  {ticket} released {app} (found: {found})");
            }
            Event::ElementFailed { ticket, element, evicted } => {
                println!("  {ticket} failed element {element}, evicting {evicted:?}");
            }
            Event::ElementRepaired { ticket, element } => {
                println!("  {ticket} repaired element {element}");
            }
            Event::Defragged { ticket, moves } => {
                println!("  {ticket} defrag sweep moved {moves} app(s)");
            }
            Event::Rebalanced { ticket, moves } => {
                println!("  {ticket} rebalance sweep moved {} app(s) across shards", moves.len());
            }
        }
    }
}

fn main() {
    // One typed service over the manager: policies are injected at
    // construction, behaviour is deterministic thereafter.
    let mut service = ServiceBuilder::new(topology::crisp())
        .deterministic(true)
        .admission(AdmitPolicy { preemption: PreemptionPolicy::Migrate, ..AdmitPolicy::default() })
        .build()
        .expect("default policies are valid");
    let mut sampler = WorkloadSampler::new("service-demo", WorkloadMix::all_datasets(), 42);

    println!("-- a synchronized arrival wave, admitted as one batch --");
    let wave: Vec<Request> =
        (0..8).map(|_| Request::admit(0, sampler.next_app(), PriorityClass::Low)).collect();
    service.submit_batch(wave);
    show(&service.take_events());

    println!("-- a critical arrival may relocate lower-priority work --");
    service.submit(Request::admit(10, sampler.next_app(), PriorityClass::Critical));
    show(&service.take_events());

    println!("-- a fault evicts; the survivors keep running --");
    let element = kairos::platform::ElementId(28);
    service.submit(Request::new(20, Command::InjectFault { element }));
    show(&service.take_events());
    service.submit(Request::new(25, Command::Repair { element }));
    show(&service.take_events());

    println!("-- a defrag sweep compacts the remains --");
    service.submit(Request::new(30, Command::Defrag { max_moves: 4 }));
    show(&service.take_events());

    println!("-- shutdown: every request reaches a terminal outcome --");
    // Releases are capacity events, so the drain may admit waiters while
    // we tear down — keep releasing until the platform is empty.
    while let Some(id) = service.kairos().admitted_ids().first().copied() {
        service.submit(Request::release(40, id));
        show(&service.take_events());
    }
    show(&service.pump(CapacityEvent::Shutdown { now: 50 }));
    println!(
        "final: {} admitted, platform idle: {}",
        service.kairos().admitted_count(),
        service.kairos().platform().is_idle()
    );
}
