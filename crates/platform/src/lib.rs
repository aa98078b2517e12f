//! # kairos-platform
//!
//! Heterogeneous MPSoC platform model for the Kairos run-time spatial
//! resource manager — a faithful software substrate for the platform side of
//! *ter Braak et al., "Run-time Spatial Resource Management for Real-Time
//! Applications on Heterogeneous MPSoCs" (DATE 2010)*.
//!
//! A platform `P = <E, L>` consists of processing [`Element`]s connected by
//! directed NoC [`Link`]s with virtual-channel reservation. Elements provide
//! vector-valued resources ([`ResourceVector`]); the crate keeps a run-time
//! ledger of claims (tasks residing on elements, channels occupying links),
//! supports O(|E|+|L|) checkpoint/restore and in-place state copies for
//! what-if decisions, fault injection for dependability experiments, and the *external resource
//! fragmentation* metric of §III-A.
//!
//! Beside the ledger a platform keeps its occupancy totals
//! ([`Platform::totals`]: live free and capacity totals, used and failed
//! element counts, adjacent pairs with exactly one used end). Unlike the
//! three history fields — the mutation epoch, the stamp ledger and the
//! free rank — they are state: a function of the ledger, part of
//! equality, kept in step by every mutator, recounted by
//! [`Platform::audit`] through the walks ([`external_fragmentation`] and
//! its siblings) that define them.
//!
//! The CRISP General Stream Processor used in the paper's evaluation (ARM +
//! FPGA + 5 packages of 9 DSPs, 2 memories and a test unit — Fig. 6) is
//! available as [`topology::crisp`].
//!
//! For sharded deployments, [`RegionMap`] partitions a platform into
//! disjoint contiguous regions balanced by resource capacity and extracts
//! each region as a standalone platform (the substrate of the
//! `kairos-cluster` shard managers).
//!
//! ## Example
//!
//! ```
//! use kairos_platform::{topology, AppId, Occupant, ResourceVector, external_fragmentation};
//!
//! let mut platform = topology::crisp();
//! let dsp = platform.elements_of_kind(kairos_platform::ElementKind::Dsp).next().unwrap().id();
//!
//! // Claim most of a DSP for task 0 of application 0:
//! let claim = ResourceVector::new(700, 32, 0, 0);
//! platform.claim(dsp, Occupant { app: AppId(0), task: 0, claimed: claim })?;
//! assert!(external_fragmentation(&platform) > 0.0);
//!
//! // Roll it back:
//! platform.release(dsp, AppId(0), 0);
//! assert!(platform.is_idle());
//! # Ok::<(), kairos_platform::ClaimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod digest;
mod distance;
mod element;
mod frag;
mod link;
mod platform;
mod power;
mod region;
mod render;
mod resource;
pub mod topology;

pub use builder::PlatformBuilder;
pub use digest::Digest;
pub use distance::{
    bfs_distances, hop_distance, RowRecorder, SearchDirection, SparseDistanceMatrix,
};
pub use element::{Element, ElementId, ElementKind};
pub use frag::{
    adjacent_pair_counts, element_utilisation, external_fragmentation, free_island_count,
};
pub use link::{Link, LinkId};
pub use platform::{
    AppId, AuditError, ClaimError, OccupancyTotals, Occupant, Platform, PlatformCheckpoint,
};
pub use power::{PowerModel, PowerRate};
pub use region::RegionMap;
pub use render::render_strip;
pub use resource::{ResourceKind, ResourceVector, RESOURCE_KIND_COUNT};

/// Compile-time thread-safety pin (nothing in the product spawns a
/// thread, but a service stack's owner may move it to any: drivers box
/// `dyn ResourceService + Send`; a field change that silently dropped
/// `Send`/`Sync` would break them).
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Platform>();
const _: () = _assert_send_sync::<RegionMap>();
const _: () = _assert_send_sync::<PlatformCheckpoint>();
