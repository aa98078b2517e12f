//! Guided tour of the `kairos-cluster` sharded deployment: partition a
//! platform into region shards, admit an arrival wave through what-if
//! probes of the shards (first-fit stops at the first shard that fits),
//! then force a cross-shard rebalance.
//!
//! ```text
//! cargo run --release --example cluster
//! ```
//!
//! Output is deterministic (zero phase clock, fixed workload seed, probe
//! results merged in shard-id order) — run it twice and diff.

use kairos::admitd::{Command, Event, PriorityClass, Request, ResourceService};
use kairos::appgen::{WorkloadMix, WorkloadSampler};
use kairos::cluster::{ClusterBuilder, ClusterService, Placement};
use kairos::platform::topology;

fn shard_population(cluster: &ClusterService) -> String {
    (0..cluster.shard_count())
        .map(|s| format!("shard{s}: {} apps", cluster.shard(s).kairos().admitted_count()))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    // 1. Partition: three contiguous, capacity-balanced region shards
    // over the CRISP platform, each owned by its own Kairos manager.
    // First-fit placement deliberately concentrates load on the lowest
    // shards, so the rebalance sweep below has work to do.
    let mut cluster = ClusterBuilder::new(topology::crisp(), 3)
        .deterministic(true)
        .placement(Placement::FirstFit)
        .build()
        .expect("three shards fit CRISP");
    println!("-- partition: {} shards over 62 elements --", cluster.shard_count());
    for s in 0..cluster.shard_count() {
        let p = cluster.shard(s).kairos().platform();
        println!(
            "   shard{s}: {} elements, {} links ({})",
            p.element_count(),
            p.link_count(),
            p.name()
        );
    }
    println!(
        "   {} directed links cross shard boundaries and are surrendered",
        cluster.regions().cross_region_links(&topology::crisp())
    );

    // 2. Admission wave: every arrival fans out as what-if probes across
    // all shards; the policy picks the winner from the results, in
    // shard-id order.
    println!("-- a wave of 9 arrivals, placed by probe fan-out ({}) --", cluster.policy_name());
    let mut sampler = WorkloadSampler::new("cluster-demo", WorkloadMix::all_datasets(), 42);
    for i in 0..9 {
        let app = sampler.next_app();
        cluster.submit(Request::admit(i, app, PriorityClass::Normal));
        for event in cluster.take_events() {
            match event {
                Event::Admitted { ticket, report, .. } => println!(
                    "   {ticket} admitted as {} on shard{}",
                    report.app_id,
                    cluster.shard_of_app(report.app_id)
                ),
                Event::Rejected { ticket, cause, .. } => {
                    println!("   {ticket} rejected: {cause:?}");
                }
                other => println!("   {other:?}"),
            }
        }
    }
    println!("   population: {}", shard_population(&cluster));

    // 3. Skew the cluster: a maintenance window empties every shard but
    // shard 0, leaving all the load piled on one region.
    println!("-- shards 1..n drain; the load is now skewed --");
    for s in 1..cluster.shard_count() {
        for id in cluster.shard(s).kairos().admitted_ids() {
            cluster.submit(Request::release(15, id));
        }
    }
    cluster.take_events();
    println!("   population: {}", shard_population(&cluster));

    // 4. Cross-shard rebalance: move work from the most- to the
    // least-loaded shard by two-phase evict-and-readmit. The moved
    // applications keep running — under fresh ids minted by their new
    // shard.
    println!("-- a rebalance sweep spreads the pile-up back out --");
    cluster.submit(Request::new(20, Command::Rebalance { max_moves: 4 }));
    for event in cluster.take_events() {
        if let Event::Rebalanced { moves, .. } = event {
            for (from, to) in &moves {
                println!(
                    "   {from} (shard{}) moved across the boundary, now {to} (shard{})",
                    cluster.shard_of_app(*from),
                    cluster.shard_of_app(*to)
                );
            }
            if moves.is_empty() {
                println!("   already balanced: no moves");
            }
        }
    }
    println!("   population: {}", shard_population(&cluster));
    let loads = cluster.loads();
    for load in &loads {
        println!(
            "   shard{}: {:.1}% of resources claimed",
            load.shard,
            load.resource_utilisation * 100.0
        );
    }

    // 5. Teardown: releases route home by app id; every shard drains to
    // idle, proving the ledgers balanced across all the moves.
    println!("-- teardown --");
    for s in 0..cluster.shard_count() {
        for id in cluster.shard(s).kairos().admitted_ids() {
            cluster.submit(Request::release(30, id));
        }
    }
    cluster.take_events();
    let all_idle =
        (0..cluster.shard_count()).all(|s| cluster.shard(s).kairos().platform().is_idle());
    println!("final: {} admitted, every shard idle: {all_idle}", cluster.occupancy().admitted_apps);
}
