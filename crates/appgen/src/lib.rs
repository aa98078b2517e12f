//! # kairos-appgen
//!
//! Synthetic workload generation for the Kairos resource manager — the
//! counterpart of the paper's "in-house developed application generator,
//! which is similar to TGFF" (§IV), plus the six Table-I datasets and a
//! reconstruction of the 53-task beamforming case study of §IV-A.
//!
//! Everything is deterministic in its seed, so every experiment in this
//! repository is exactly reproducible. The crate owns its stream,
//! [`Xoshiro256`] (xoshiro256\*\* seeded by SplitMix64), and that stream is
//! reproduction data: changing it re-draws Table I's datasets and moves
//! the behavioural contract (`tests/contract.txt`) and the benchmark's
//! event digests.
//!
//! ## Example
//!
//! ```
//! use kairos_appgen::{generate_dataset, DatasetSpec};
//!
//! let spec = DatasetSpec::all()[0]; // Communication Small
//! let apps = generate_dataset(spec, 100, 0xC0FFEE);
//! assert_eq!(apps.len(), 100);
//! assert!(apps.iter().all(|a| a.task_count() <= 5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
pub mod beamforming;
mod config;
mod datasets;
mod generator;
mod rng;

pub use arrivals::{ArrivalDistribution, MixEntry, WorkloadMix, WorkloadSampler};
pub use beamforming::beamforming_app;
pub use config::GeneratorConfig;
pub use datasets::{generate_dataset, DatasetSpec, Orientation, SizeClass};
pub use generator::AppGenerator;
pub use rng::Xoshiro256;
