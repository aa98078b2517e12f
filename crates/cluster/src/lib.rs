//! # kairos-cluster
//!
//! Sharded platform regions with what-if admission probes behind the
//! [`ResourceService`](kairos_admitd::ResourceService) surface — the first
//! step from one resource manager to a fleet of them.
//!
//! The paper manages one flat spatial resource pool; every deployment of
//! such a manager at scale partitions the fabric into regions managed
//! semi-independently so run-time decisions stay local and fast. This
//! crate does exactly that on top of the existing stack:
//!
//! * **Partitioning** — [`kairos_platform::RegionMap`] splits the
//!   platform into N disjoint *contiguous* element groups balanced by
//!   resource capacity; each region becomes a standalone platform owned
//!   by its own [`Admitd`](kairos_admitd::Admitd) service (queued when an
//!   admission policy is set — identical knobs to the monolithic
//!   [`ServiceBuilder`](kairos_admitd::ServiceBuilder)).
//! * **Admission probes** — every admission is placed by state-neutral
//!   what-if probes of the shards (each writes nothing and is one full
//!   pipeline run), one shard
//!   after another **in shard-id order** — a single admission and a
//!   batched wave alike — until the placement policy's choice is
//!   [settled](PlacementPolicy::settled): up to one probe per shard,
//!   one when the first shard fits under [`FirstFit`]. The cluster, like
//!   everything below it, runs on its caller's thread and spawns none:
//!   its output is a pure function of its inputs.
//! * **Pluggable placement** — a [`PlacementPolicy`] trait object picks
//!   the winning shard from the probed row: [`FirstFit`],
//!   [`BestFitFragmentation`] (lowest post-admission §III-A
//!   fragmentation) or [`LeastLoaded`], with a fallback route for
//!   requests no shard can admit right now.
//! * **One service surface** — [`ClusterService`] implements
//!   [`ResourceService`](kairos_admitd::ResourceService), so every existing
//!   driver — the `kairos-sim` scenario engine included — runs unchanged
//!   over a fleet of managers. Tickets ride down to the shards by value
//!   (the cluster stamps each forwarded request, so nothing is
//!   translated on the way back), app ids are globally unique by
//!   construction ([`APP_ID_STRIDE`] namespaces), and only element ids
//!   translate between the shard-local and global spaces; a one-shard
//!   cluster reproduces the monolithic service byte for byte.
//! * **Cross-shard rebalancing** —
//!   [`Command::Rebalance`](kairos_admitd::Command::Rebalance) pairs the
//!   most- with the least-loaded shard and moves running applications
//!   across the boundary by two-phase evict-and-readmit (claim the new
//!   home, then free the old; rollback on any failure), while
//!   [`Command::Defrag`](kairos_admitd::Command::Defrag) keeps using
//!   each shard manager's live migration *within* its shard.
//!
//! ## Example
//!
//! ```
//! use kairos_cluster::{ClusterBuilder, BestFitFragmentation};
//! use kairos_admitd::{PriorityClass, Request, ResourceService};
//! use kairos_appgen::{AppGenerator, GeneratorConfig};
//! use kairos_platform::topology;
//!
//! let mut cluster = ClusterBuilder::new(topology::crisp(), 4)
//!     .deterministic(true)
//!     .placement(Box::new(BestFitFragmentation))
//!     .build()?;
//! let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
//! for i in 0..8 {
//!     cluster.submit(Request::admit(i, generator.generate(format!("app-{i}")), PriorityClass::Normal));
//! }
//! let admitted = cluster.take_events().len();
//! assert!(admitted > 0);
//! assert_eq!(cluster.occupancy().admitted_apps, cluster.shard_count_admitted());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cluster;
mod policy;

pub use cluster::{ClusterBuilder, ClusterService, APP_ID_STRIDE, SCORE_E6_BOUNDS};
pub use policy::{
    BestFitFragmentation, FirstFit, LeastLoaded, PlacementPolicy, PlacementPolicyKind, ShardFit,
    ShardLoad, ShardProbe,
};

impl ClusterService {
    /// Sum of admitted applications over all shards (convenience for the
    /// crate example; equals `occupancy().admitted_apps`).
    pub fn shard_count_admitted(&self) -> usize {
        use kairos_admitd::ResourceService as _;
        (0..self.shard_count()).map(|s| self.shard(s).kairos().admitted_count()).sum()
    }
}

// Compile-time thread-safety pins. Nothing here spawns a thread, but the
// cluster's owner may sit on any: drivers box it as `dyn ResourceService +
// Send` (the gateway's wrapped service, the benchmark's stacks). If any
// layer (platform, manager, service, injected policy objects) silently
// stopped being `Send`/`Sync`, they would stop compiling — fail the build
// here instead.
const fn _assert_send<T: Send>() {}
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<kairos_platform::Platform>();
const _: () = _assert_send_sync::<kairos_core::Kairos>();
const _: () = _assert_send_sync::<kairos_app::Application>();
const _: () = _assert_send::<ClusterService>();
const _: () = _assert_send_sync::<Box<dyn PlacementPolicy>>();
const _: () = _assert_send_sync::<PlacementPolicyKind>();
