//! The observer-effect pin for the simulator's energy meter: metering
//! must never perturb the simulation. The meter is the `watch` row of the
//! observer-effect harness (`tests/observers/mod.rs`): outside its
//! `energy` section a metered run is byte-identical to an unmetered one,
//! with an identical final platform state, across generated queued,
//! clustered, preempting, cached and gatewayed regimes and across the
//! whole catalog, and metered runs reproduce byte for byte. The
//! acceptance checks below pin `power-cap-skew`'s per-package power
//! series, whose `pkg2` draw collapses in the blackout. The report's
//! `energy` section is the meter's one account: it registers no
//! instrument.

mod observers;

use kairos::sim::{Scenario, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observer effect: the metered run's report is byte-identical once
    /// its extra `energy` section is removed, and both runs leave the
    /// platform in exactly the same state.
    #[test]
    fn watch_never_perturbs_the_simulation(regime in observers::regimes()) {
        observers::assert_transparent_in("watch", regime);
    }

    /// Metered runs are themselves deterministic: two runs of the same
    /// metered scenario agree byte-for-byte, energy included.
    #[test]
    fn watched_runs_are_byte_reproducible(regime in observers::regimes()) {
        observers::assert_reproducible_in("watch", regime);
    }
}

/// With metering forced on, every catalog scenario — including the two
/// already-metered ones — stays byte-reproducible, an unmetered one
/// changes nothing outside its `energy` section, and the energy account
/// balances: busy + idle
/// equals total, and the per-kind and per-package breakdowns both sum to
/// the same total.
#[test]
fn whole_catalog_is_byte_reproducible_with_watch_forced_on() {
    observers::assert_transparent_across_the_catalog("watch");
    observers::assert_catalogued_with_it_reproduce("watch");
}

/// Acceptance: `power-cap-skew`'s mid-run DSP blackout collapses package
/// 2's draw — the report must carry a per-package power series in which
/// `pkg2`'s trough is under half its peak, and the overridden rates must
/// still balance the account.
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
}
