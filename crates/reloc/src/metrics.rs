//! Pre-resolved `kairos.reloc.*` instruments.

use std::sync::Arc;

use kairos_telemetry::{Counter, Telemetry};

/// The relocation layer's instruments, resolved once at construction —
/// the same pattern every other layer uses, so planner calls on the hot
/// path never touch the registry's name map.
///
/// Hold one wherever relocation is driven repeatedly (the admission
/// front-end resolves one when it is built, the sim's defrag event
/// reuses the front-end's); the free [`select_victims`](crate::select_victims)
/// / [`compact`](crate::compact) wrappers resolve a fresh set per call
/// for standalone use.
#[derive(Debug, Clone)]
pub struct RelocMetrics {
    /// `kairos.reloc.plans.requested`.
    pub plans_requested: Arc<Counter>,
    /// `kairos.reloc.plans.none`.
    pub plans_none: Arc<Counter>,
    /// `kairos.reloc.plans.found`.
    pub plans_found: Arc<Counter>,
    /// `kairos.reloc.plan.victims`.
    pub plan_victims: Arc<Counter>,
    /// `kairos.reloc.compact.sweeps`.
    pub compact_sweeps: Arc<Counter>,
    /// `kairos.reloc.compact.moves`.
    pub compact_moves: Arc<Counter>,
}

impl RelocMetrics {
    /// Resolves every instrument against `telemetry`'s registry; `None`
    /// when the handle is disabled.
    pub fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(RelocMetrics {
            plans_requested: registry.counter("kairos.reloc.plans.requested"),
            plans_none: registry.counter("kairos.reloc.plans.none"),
            plans_found: registry.counter("kairos.reloc.plans.found"),
            plan_victims: registry.counter("kairos.reloc.plan.victims"),
            compact_sweeps: registry.counter("kairos.reloc.compact.sweeps"),
            compact_moves: registry.counter("kairos.reloc.compact.moves"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_telemetry::TelemetryConfig;

    #[test]
    fn resolves_only_on_enabled_handles() {
        assert!(RelocMetrics::new(&Telemetry::disabled()).is_none());
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let metrics = RelocMetrics::new(&telemetry).expect("enabled handle resolves");
        metrics.plans_requested.inc();
        assert_eq!(telemetry.counter("kairos.reloc.plans.requested").unwrap().get(), 1);
    }
}
