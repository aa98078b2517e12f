//! # kairos-svc
//!
//! The unified resource-service API: **one typed command/event surface**
//! over the whole Kairos run-time.
//!
//! The paper's manager is a single run-time entity applications talk to
//! through one request interface. After growing the reproduction into
//! separate subsystems — the `kairos-core` pipeline, the `kairos-admitd`
//! priority front-end, the `kairos-reloc` relocation planner — callers
//! had to stitch three disjoint APIs together (the `kairos-sim` engine
//! re-implemented exactly that glue). This crate restores the paper's
//! shape at production scale:
//!
//! * **Operations as data** — every request is a [`Command`]
//!   (`Admit`, `Release`, `Migrate`, `Defrag`, `InjectFault`, `Repair`)
//!   wrapped in a time-stamped [`Request`]; drivers build traffic instead
//!   of calling subsystem methods.
//! * **One event stream** — everything observable is a tagged [`Event`]
//!   carrying a stable service [`Ticket`] (and, once admitted, the
//!   application's stable `AppId`). The vocabulary is defined once, in
//!   `kairos-admitd` beside the ticket: what the front-end decides
//!   passes through this crate as the very value it built, and the
//!   service adds only the results of its own commands.
//! * **Batches are first-class** —
//!   [`ResourceService::submit_batch`] admits a whole arrival wave as
//!   one operation: class-sorted, stamped with the wave's earliest
//!   arrival time, with one drain pass instead of N independent
//!   submissions (the property tests pin outcome equivalence). A wave is
//!   not a transaction: each admission is written as it is decided.
//! * **One admission path** — every command runs through one
//!   [`Admitd`] front-end. Built without an admission policy, its door
//!   admits or refuses on the spot (the paper's manager) and nothing
//!   queues; with one, requests queue, retry and may preempt.
//! * **Policies injected at construction** — [`ServiceBuilder`] takes
//!   the mapping cost policy, the admission policy, the preemption
//!   policy and the victim ordering; the service's behaviour is fixed at
//!   build time and deterministic thereafter.
//!
//! The low-level layer stays public: [`Kairos`] and [`Admitd`] are
//! re-exported below for callers that need subsystem access,
//! [`KairosService::admitd`] exposes the front-end and
//! [`ResourceService::kairos`] the managed manager for inspection.
//!
//! ## Example
//!
//! ```
//! use kairos_svc::{Command, Event, Request, ResourceService, ServiceBuilder};
//! use kairos_admitd::PriorityClass;
//! use kairos_appgen::{AppGenerator, GeneratorConfig};
//! use kairos_platform::topology;
//!
//! let mut service = ServiceBuilder::new(topology::crisp()).deterministic(true).build()?;
//! let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
//!
//! // A synchronized arrival wave, admitted as one batch.
//! let wave: Vec<Request> = (0..4)
//!     .map(|i| Request::admit(0, generator.generate(format!("app-{i}")), PriorityClass::Normal))
//!     .collect();
//! let tickets = service.submit_batch(wave);
//! let events = service.take_events();
//! assert_eq!(tickets.len(), 4);
//! assert!(events.iter().any(|e| matches!(e, Event::Admitted { .. })));
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;
mod command;
mod service;

pub use builder::ServiceBuilder;
pub use command::{CapacityEvent, Command, Request};
pub use service::{KairosService, ResourceService};

// The low-level layer, re-exported so service users have one import for
// subsystem access.
pub use kairos_admitd::{AdmitPolicy, Admitd, PreemptionPolicy, PriorityClass, VictimOrder};
// The event stream's vocabulary and the workspace's single ticket type
// are defined once, beside the admission queue; these are re-exports,
// not copies.
pub use kairos_admitd::{Event, RejectCause, Ticket};
pub use kairos_core::{Kairos, KairosConfig};

/// Compile-time thread-safety pin: nothing in the product spawns a
/// thread, but drivers box services as `dyn ResourceService + Send` (the
/// gateway's wrapped service among them), so the whole service stack must
/// stay `Send` (and `Sync`, so it can be shared behind a reference). A
/// field change that silently dropped either would break them — fail the
/// build here instead.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<KairosService>();
const _: () = _assert_send_sync::<Event>();
