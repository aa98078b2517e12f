//! # kairos-app
//!
//! Application model for the Kairos run-time spatial resource manager
//! (*ter Braak et al., DATE 2010*).
//!
//! An [`Application`] `A = <T, C>` is an annotated task graph produced by the
//! design-time partitioning phase: [`Task`]s with one or more alternative
//! [`Implementation`]s (different IP blocks, QoS levels or target element
//! kinds), directed streaming [`Channel`]s with bandwidth demands, and
//! [`Constraint`]s the validation phase checks after allocation.
//!
//! The [`binfmt`] module implements the paper's binary container format that
//! lets an operating system treat MPSoC applications as loadable executables.
//!
//! ## Example
//!
//! ```
//! use kairos_app::{ApplicationBuilder, TaskRole, Implementation, Constraint};
//! use kairos_platform::{ElementKind, ResourceVector};
//!
//! let dsp_fir = Implementation::new(ElementKind::Dsp, ResourceVector::new(600, 32, 0, 0), 400, 7);
//! let mut b = ApplicationBuilder::new("radio");
//! let src = b.add_task("adc", TaskRole::Input, vec![dsp_fir]);
//! let fir = b.add_task("fir", TaskRole::Internal, vec![dsp_fir]);
//! let snk = b.add_task("dac", TaskRole::Output, vec![dsp_fir]);
//! b.add_channel(src, fir, 120, 1);
//! b.add_channel(fir, snk, 120, 1);
//! b.add_constraint(Constraint::Throughput { max_period_cycles: 2_000 });
//! let app = b.build()?;
//! assert!(app.is_connected());
//! # Ok::<(), kairos_app::ApplicationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod application;
pub mod binfmt;
mod channel;
mod constraints;
mod implementation;
mod task;

pub use application::{Application, ApplicationBuilder, ApplicationError, TaskRings};
pub use channel::{Channel, ChannelId};
pub use constraints::Constraint;
pub use implementation::{ImplId, Implementation};
pub use task::{Task, TaskId, TaskRole};
