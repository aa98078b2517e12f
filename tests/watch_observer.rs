//! The observer-effect pin for `kairos-watch`: arming the watch layer
//! must never perturb the simulation. The watch is a row of the
//! observer-effect harness (`tests/observers/mod.rs`): outside its
//! `energy` and `health` sections a watched run is byte-identical to an
//! unwatched one, with an identical final platform state, across
//! generated queued, clustered, preempting, cached and gatewayed regimes
//! and across the whole catalog, and watched runs reproduce byte for
//! byte. The acceptance checks below pin the two watch catalog
//! scenarios — `slo-burn-storm` must fire *and* clear a burn-rate alert
//! with a non-empty cause chain, `power-cap-skew` must produce a
//! per-package power series with a detected anomaly window on `pkg2` —
//! that the status snapshot renders deterministically, and that the
//! `kairos.energy.*` / `kairos.watch.*` instruments agree with the report
//! sections when the telemetry hub is lit.

mod observers;

use kairos::sim::{Scenario, Simulator};
use kairos::watch::AlertKind;
use observers::{counter, gauge};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observer effect: the watched run's report is byte-identical once
    /// its extra `energy` and `health` sections are removed, and both
    /// runs leave the platform in exactly the same state.
    #[test]
    fn watch_never_perturbs_the_simulation(regime in observers::regimes()) {
        observers::assert_transparent_in("watch", regime);
    }

    /// Watched runs are themselves deterministic: two runs of the same
    /// watched scenario agree byte-for-byte, energy and health included.
    #[test]
    fn watched_runs_are_byte_reproducible(regime in observers::regimes()) {
        observers::assert_reproducible_in("watch", regime);
    }
}

/// With watching forced on, every catalog scenario — including the two
/// already-watched ones — stays byte-reproducible, an unwatched one
/// changes nothing outside its `energy` and `health` sections, and the
/// energy account balances: busy + idle
/// equals total, and the per-kind and per-package breakdowns both sum to
/// the same total.
#[test]
fn whole_catalog_is_byte_reproducible_with_watch_forced_on() {
    observers::assert_transparent_across_the_catalog("watch");
    observers::assert_catalogued_with_it_reproduce("watch");
}

/// Acceptance: `slo-burn-storm`'s surge burns the admission-latency
/// budget and the recovery pays it back — the report must carry at least
/// one burn-rate alert that both fired and cleared, with a non-empty
/// cause chain, and every alert lifecycle must be internally consistent.
#[test]
fn slo_burn_storm_fires_and_clears_burn_rate_alerts() {
    let scenario = Scenario::by_name("slo-burn-storm").unwrap();
    let report = Simulator::new(scenario).unwrap().run();
    let health = report.health.as_ref().expect("health section");

    assert!(health.fired > 0, "the surge must fire alerts");
    assert_eq!(health.fired, health.alerts.len() as u64);
    let completed: u64 = health.alerts.iter().filter(|a| a.cleared_at.is_some()).count() as u64;
    assert_eq!(health.cleared, completed);

    let burn = health
        .alerts
        .iter()
        .find(|a| a.kind == AlertKind::SloBurn && a.cleared_at.is_some())
        .expect("at least one slo-burn alert must fire and clear");
    assert!(!burn.cause.is_empty(), "fired alerts carry a cause chain");
    assert!(burn.subject.starts_with("class:"), "slo alerts are per-class");
    assert!(burn.signal >= burn.threshold, "the signal was past the threshold at fire time");
    for alert in &health.alerts {
        if let Some(cleared_at) = alert.cleared_at {
            assert!(cleared_at > alert.fired_at, "clear strictly follows fire");
        }
        assert!(!alert.cause.is_empty());
    }
    assert!(!health.shards.is_empty(), "per-shard scores are always present");
    assert!(health.shards.iter().all(|s| s.score <= 100));
}

/// Acceptance: `power-cap-skew`'s mid-run DSP blackout collapses package
/// 2's draw — the report must carry a per-package power series and a
/// power-anomaly alert on `pkg2` (shard-attributed). The outage evicts
/// the resident apps for good, so the package never returns to its
/// pre-fault draw and the alert legitimately rides to the horizon.
#[test]
fn power_cap_skew_detects_the_package_anomaly() {
    let scenario = Scenario::by_name("power-cap-skew").unwrap();
    let report = Simulator::new(scenario).unwrap().run();

    let energy = report.energy.as_ref().expect("energy section");
    assert!(energy.packages.iter().any(|p| p.name == "pkg2"), "per-package totals include pkg2");
    assert!(!energy.series.is_empty(), "the power series must be recorded");
    assert!(
        energy.series.iter().all(|point| point.package_mw.len() == energy.packages.len()),
        "every series point carries one draw per package"
    );
    let pkg2 = energy.packages.iter().position(|p| p.name == "pkg2").unwrap();
    let peak = energy.series.iter().map(|p| p.package_mw[pkg2]).max().unwrap();
    let trough = energy.series.iter().map(|p| p.package_mw[pkg2]).min().unwrap();
    assert!(trough < peak / 2, "the blackout must visibly collapse pkg2's draw");
    // The overridden rates still balance the account.
    let total = energy.total_mw_ticks;
    assert_eq!(total, energy.busy_mw_ticks + energy.idle_mw_ticks);
    assert_eq!(energy.by_kind.iter().map(|k| k.mw_ticks).sum::<u64>(), total);
    assert_eq!(energy.packages.iter().map(|p| p.mw_ticks).sum::<u64>(), total);

    let health = report.health.as_ref().expect("health section");
    let anomaly = health
        .alerts
        .iter()
        .find(|a| a.kind == AlertKind::PowerAnomaly && a.subject == "pkg2")
        .expect("the power anomaly detector must trip on pkg2");
    assert!(anomaly.shard.is_some(), "package anomalies carry shard attribution");
    assert!(!anomaly.cause.is_empty());
    assert_eq!(health.shards.len(), 3, "one health score per cluster shard");
}

/// The status snapshot is a pure rendering of the report: deterministic
/// across runs, and it surfaces the scenario name, energy account and
/// active alerts a `kairos-top` user expects to see.
#[test]
fn status_snapshot_renders_deterministically() {
    let scenario = Scenario::by_name("power-cap-skew").unwrap();
    let mut first_sim = Simulator::new(scenario.clone()).unwrap();
    let first = first_sim.run().status(first_sim.service().shard_count()).render();
    let mut second_sim = Simulator::new(scenario).unwrap();
    let second = second_sim.run().status(second_sim.service().shard_count()).render();
    assert_eq!(first, second, "the status snapshot must be byte-deterministic");
    assert!(first.contains("power-cap-skew"));
    assert!(first.contains("pkg2"));
    assert!(first.contains("power-anomaly"));
}

/// The watch instruments ride the telemetry hub: a lit run of
/// `power-cap-skew` exposes `kairos.energy.*` and `kairos.watch.*`, their
/// values agree with the report's `energy` and `health` sections, and
/// the text exposition carries the sanitised names.
#[test]
fn watch_instruments_agree_with_the_report_sections() {
    let mut scenario = Scenario::by_name("power-cap-skew").unwrap();
    scenario.telemetry = true;
    let mut simulator = Simulator::new(scenario).unwrap();
    let report = simulator.run();
    let snapshot = report.telemetry.as_ref().expect("telemetry section");
    let energy = report.energy.as_ref().expect("energy section");
    let health = report.health.as_ref().expect("health section");

    assert_eq!(counter(snapshot, "kairos.energy.total.mwt"), energy.total_mw_ticks);
    assert_eq!(counter(snapshot, "kairos.energy.busy.mwt"), energy.busy_mw_ticks);
    assert_eq!(counter(snapshot, "kairos.energy.idle.mwt"), energy.idle_mw_ticks);
    assert_eq!(counter(snapshot, "kairos.energy.samples"), energy.samples);
    assert_eq!(counter(snapshot, "kairos.watch.alerts.fired"), health.fired);
    assert_eq!(counter(snapshot, "kairos.watch.alerts.cleared"), health.cleared);
    assert_eq!(counter(snapshot, "kairos.watch.evaluations"), health.evaluations);

    let last_draw = energy.series.last().expect("non-empty series").total_mw;
    assert_eq!(gauge(snapshot, "kairos.energy.power.mw"), last_draw as i64);
    assert_eq!(gauge(snapshot, "kairos.watch.active"), (health.fired - health.cleared) as i64);

    let text = simulator.telemetry().render_text();
    for name in ["kairos_energy_total_mwt", "kairos_watch_alerts_fired", "kairos_energy_power_mw"] {
        assert!(text.contains(name), "text exposition must expose {name}");
    }
    let json = report.to_json_string();
    for name in ["\"kairos.energy.total.mwt\"", "\"kairos.watch.alerts.fired\""] {
        assert!(json.contains(name), "report JSON must expose {name}");
    }
}
