//! Per-element-class power model — busy/idle draw rates in milliwatts.
//!
//! The §III-A cost model scores mappings, but energy over *time* needs a
//! rate model: every [`ElementKind`] draws a busy rate while at least one
//! task resides on an element of that kind, and an idle rate otherwise.
//! Failed elements draw nothing (they are powered off by the dependability
//! manager). Rates are plain integer milliwatts so every downstream
//! integration stays exact and byte-reproducible.
//!
//! [`PowerModel::table1_defaults`] derives per-class defaults from the
//! relative weight of the Table-I element classes of the paper's CRISP
//! evaluation platform; scenarios may override any class.

use crate::element::ElementKind;

/// Busy/idle power draw of one element class, in integer milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerRate {
    /// Draw while at least one task resides on the element.
    pub busy_mw: u64,
    /// Draw while the element is idle (no residents, not failed).
    pub idle_mw: u64,
}

impl PowerRate {
    /// A rate pair; callers should keep `idle_mw <= busy_mw`.
    pub const fn new(busy_mw: u64, idle_mw: u64) -> Self {
        PowerRate { busy_mw, idle_mw }
    }
}

/// Per-[`ElementKind`] busy/idle power rates.
///
/// Indexed by the position of the kind in [`ElementKind::ALL`]; failed
/// elements always draw zero regardless of class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerModel {
    rates: [PowerRate; ElementKind::ALL.len()],
}

impl PowerModel {
    /// Default rates derived from the Table-I element classes: the FPGA
    /// fabric dominates, DSP cores sit mid-range above the ARM host's
    /// always-on baseline, and memories/test units/IO draw little.
    pub const fn table1_defaults() -> Self {
        PowerModel {
            rates: [
                PowerRate::new(450, 120),  // Arm
                PowerRate::new(300, 90),   // Dsp
                PowerRate::new(1200, 350), // Fpga
                PowerRate::new(150, 40),   // Memory
                PowerRate::new(80, 20),    // TestUnit
                PowerRate::new(100, 30),   // Io
            ],
        }
    }

    /// The rate pair for `kind`.
    #[inline]
    pub fn rate(&self, kind: ElementKind) -> PowerRate {
        self.rates[Self::slot(kind)]
    }

    /// Overrides the rate pair for `kind`.
    pub fn set_rate(&mut self, kind: ElementKind, rate: PowerRate) {
        self.rates[Self::slot(kind)] = rate;
    }

    /// Instantaneous draw of one element of `kind`: zero when failed,
    /// otherwise the busy or idle rate.
    #[inline]
    pub fn draw_mw(&self, kind: ElementKind, busy: bool, failed: bool) -> u64 {
        if failed {
            return 0;
        }
        let rate = self.rate(kind);
        if busy {
            rate.busy_mw
        } else {
            rate.idle_mw
        }
    }

    /// `true` when every class keeps `idle_mw <= busy_mw`.
    pub fn is_consistent(&self) -> bool {
        self.rates.iter().all(|r| r.idle_mw <= r.busy_mw)
    }

    fn slot(kind: ElementKind) -> usize {
        ElementKind::ALL.iter().position(|k| *k == kind).expect("every ElementKind appears in ALL")
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::table1_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent_and_ordered() {
        let model = PowerModel::table1_defaults();
        assert!(model.is_consistent());
        // FPGA dominates every other class; idle is always cheaper than busy.
        for kind in ElementKind::ALL {
            let rate = model.rate(kind);
            assert!(rate.idle_mw <= rate.busy_mw);
            assert!(rate.busy_mw <= model.rate(ElementKind::Fpga).busy_mw);
        }
    }

    #[test]
    fn draw_respects_busy_and_failure() {
        let model = PowerModel::default();
        let dsp = model.rate(ElementKind::Dsp);
        assert_eq!(model.draw_mw(ElementKind::Dsp, true, false), dsp.busy_mw);
        assert_eq!(model.draw_mw(ElementKind::Dsp, false, false), dsp.idle_mw);
        assert_eq!(model.draw_mw(ElementKind::Dsp, true, true), 0);
        assert_eq!(model.draw_mw(ElementKind::Dsp, false, true), 0);
    }

    #[test]
    fn overrides_apply_per_kind() {
        let mut model = PowerModel::table1_defaults();
        model.set_rate(ElementKind::Memory, PowerRate::new(500, 10));
        assert_eq!(model.rate(ElementKind::Memory), PowerRate::new(500, 10));
        assert_eq!(
            model.rate(ElementKind::Dsp),
            PowerModel::table1_defaults().rate(ElementKind::Dsp)
        );
        assert!(model.is_consistent());
    }
}
