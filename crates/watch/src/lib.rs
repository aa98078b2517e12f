//! # kairos-watch
//!
//! Energy/power accounting, SLO burn-rate monitors and deterministic
//! health alerting for the Kairos run-time — the *observation half* of a
//! SARA-style self-aware control loop: this crate turns raw service
//! signals into judgments and writes them into the run's report. No
//! controller acts on them yet, so the crate offers no subscription
//! surface; one returns with the controller.
//!
//! Three layers:
//!
//! * **Energy** — [`EnergyMeter`] integrates periodic
//!   [`ElementActivity`](kairos_core::ElementActivity) observations
//!   against a [`PowerModel`](kairos_platform::PowerModel) (per-class
//!   busy/idle milliwatt rates, Table-I-derived defaults) into
//!   per-class/per-package/per-app energy totals and a virtual-time power
//!   series, rendered as an [`EnergyReport`].
//! * **Monitors** — a fixed rule set: per-class admission-latency SLOs
//!   with multi-window burn-rate firing, a rejection-rate threshold, and,
//!   behind the two switches of [`WatchSpec`], a queue-depth threshold
//!   and EWMA/z-score anomaly detectors over the power and occupancy
//!   series. Every threshold is a constant (`docs/OBSERVABILITY.md`
//!   lists them). The [`Watcher`] evaluates the rules over the service
//!   event stream and emits deterministic [`Alert`] lifecycles
//!   (fire/clear, severity, cause chain) into a [`HealthReport`] with
//!   per-shard health scores.
//! * **Introspection** — [`StatusSnapshot`] renders a `kairos-top`-style
//!   dump of shards, lanes, cache, energy and active alerts (the scenario
//!   runner's `--status` flag).
//!
//! Everything is integer/fixed-point arithmetic over virtual time: two
//! identical runs produce byte-identical energy and health reports, and a
//! watched run differs from an unwatched one in nothing but those
//! sections — the watcher is a pure judge, never a participant (the same
//! observer-effect rule the telemetry hub obeys, pinned by
//! `tests/observers/mod.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod energy;
mod rules;
mod status;
mod watcher;

pub use alert::{Alert, AlertKind, Severity};
pub use energy::{
    AppEnergy, EnergyMeter, EnergyMetrics, EnergyReport, KindEnergy, PackageEnergy, PowerPoint,
};
pub use rules::WatchSpec;
pub use status::{StatusSnapshot, StatusTotals};
pub use watcher::{HealthReport, ShardHealth, WatchMetrics, Watcher};

/// Compile-time thread-safety pin: an owner may move a watched stack to
/// the thread of its choice.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Watcher>();
const _: () = _assert_send_sync::<EnergyMeter>();
