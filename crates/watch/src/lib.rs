//! # kairos-watch
//!
//! Energy/power accounting, SLO burn-rate monitors and deterministic
//! health alerting for the Kairos run-time — the *observation half* of a
//! SARA-style self-aware control loop: this crate turns raw service
//! signals into judgments; a future controller subscribes to them through
//! [`WatchHandle`] and closes the loop.
//!
//! Three layers:
//!
//! * **Energy** — [`EnergyMeter`] integrates periodic
//!   [`ElementActivity`](kairos_core::ElementActivity) observations
//!   against a [`PowerModel`](kairos_platform::PowerModel) (per-class
//!   busy/idle milliwatt rates, Table-I-derived defaults) into
//!   per-class/per-package/per-app energy totals and a virtual-time power
//!   series, rendered as an [`EnergyReport`].
//! * **Monitors** — a declarative [`WatchPolicy`] arms per-class
//!   admission-latency SLOs with multi-window burn-rate firing
//!   ([`SloRule`]), queue-depth and rejection-rate thresholds, and
//!   EWMA/z-score anomaly detectors over the power and occupancy series
//!   ([`AnomalyRule`]). The [`Watcher`] evaluates them over the service
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

pub use alert::{Alert, AlertEvent, AlertKind, AlertTransition, Severity};
pub use energy::{
    AppEnergy, EnergyMeter, EnergyMetrics, EnergyReport, KindEnergy, PackageEnergy, PowerPoint,
};
pub use rules::{AnomalyRule, QueueDepthRule, RejectionRateRule, SloRule, WatchPolicy};
pub use status::{StatusSnapshot, StatusTotals};
pub use watcher::{HealthReport, ShardHealth, WatchHandle, WatchMetrics, Watcher};

/// Compile-time thread-safety pin: handles cross thread boundaries when a
/// controller subscribes from outside the simulation thread.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<WatchHandle>();
const _: () = _assert_send_sync::<Watcher>();
const _: () = _assert_send_sync::<EnergyMeter>();
