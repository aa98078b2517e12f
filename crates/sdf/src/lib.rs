//! # kairos-sdf
//!
//! Synchronous dataflow (SDF) graphs and throughput analysis — the substrate
//! behind the *validation* phase of the Kairos run-time resource manager
//! (*ter Braak et al., DATE 2010*, §II): the influence of platform and
//! application is modelled as an SDF graph, whose steady-state throughput
//! the paper finds by self-timed state-space exploration (Ghamarian et al.,
//! ACSD 2006) and compares against the application's constraints.
//!
//! * [`SdfGraph`] / [`SdfGraphBuilder`] — multirate SDF graphs with initial
//!   tokens and per-actor execution times;
//! * [`repetition_vector`] / [`check_deadlock_free`] — static consistency and
//!   liveness analysis;
//! * [`throughput`] — self-timed state-space throughput analysis with
//!   transient/periodic phase separation: the general (multirate) method;
//! * [`max_cycle_ratio`] — the same period computed exactly, without
//!   exploration, for *homogeneous* graphs (every channel produces what it
//!   consumes). The manager's layout models are all of that kind, so this is
//!   what its validation phase runs; [`throughput_with`] is its test oracle.
//!
//! ## Example
//!
//! ```
//! use kairos_sdf::{SdfGraphBuilder, repetition_vector, throughput};
//!
//! let mut b = SdfGraphBuilder::new("downsampler");
//! let src = b.add_actor("src", 2);
//! let dec = b.add_actor("decimate", 3);
//! b.add_channel(src, dec, 1, 4, 0); // 4:1 decimation
//! let g = b.build()?.with_bounded_buffers(8);
//! assert_eq!(repetition_vector(&g)?, vec![4, 1]);
//! let report = throughput(&g, src)?;
//! assert!(report.throughput > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod graph;
mod latency;
mod mcr;
mod statespace;

pub use analysis::{check_deadlock_free, is_consistent, repetition_vector, SdfAnalysisError};
pub use graph::{
    Actor, ActorId, SdfChannel, SdfChannelId, SdfGraph, SdfGraphBuilder, SdfGraphError,
};
pub use latency::{measure_latency, LatencyConfig, LatencyReport};
pub use mcr::{max_cycle_ratio, max_cycle_ratio_in, CycleRatio, CycleRatioScratch};
pub use statespace::{
    throughput, throughput_with, StateSpaceConfig, StateSpaceError, ThroughputReport,
};
