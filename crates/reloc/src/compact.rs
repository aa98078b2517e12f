//! Defragmenting compaction: migrate applications to merge free islands.

use kairos_core::Kairos;
use kairos_platform::{external_fragmentation, AppId};
use kairos_telemetry::Level;

use crate::metrics::RelocMetrics;

/// One accepted move of a compaction sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactMove {
    /// The migrated application.
    pub app_id: AppId,
    /// Tasks whose hosting element changed.
    pub moved_tasks: usize,
    /// External fragmentation after this move committed.
    pub fragmentation_after: f64,
}

/// Result of one [`compact`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactReport {
    /// External fragmentation before the sweep.
    pub fragmentation_before: f64,
    /// External fragmentation after the sweep.
    pub fragmentation_after: f64,
    /// The accepted moves, in the order they were applied.
    pub moves: Vec<CompactMove>,
}

impl CompactReport {
    /// Number of applications the sweep actually moved.
    pub fn move_count(&self) -> usize {
        self.moves.len()
    }
}

/// Sweeps the admitted applications in ascending-id order, live-migrating
/// each one and keeping only moves that *strictly reduce* external
/// resource fragmentation (paper §III-A) — the defragmentation pass that
/// merges scattered free crumbs back into contiguous regions future
/// applications can use.
///
/// Each candidate move runs through [`Kairos::migrate_if`]: the
/// acceptance check compares fragmentation after the completed move
/// against the value before it, and a declined or infeasible move writes
/// nothing, so a sweep can only ever improve the metric. At most
/// `max_moves` applications are moved per sweep (bounding the
/// reconfiguration work a single sweep may impose on running
/// applications); `0` makes the sweep a no-op probe of current
/// fragmentation.
///
/// Resolves a fresh [`RelocMetrics`] per call; repeated drivers should
/// resolve once and call [`compact_with`].
pub fn compact(kairos: &mut Kairos, max_moves: usize) -> CompactReport {
    let metrics = RelocMetrics::new(kairos.telemetry());
    compact_with(kairos, max_moves, metrics.as_ref())
}

/// [`compact`] against pre-resolved instruments (`None` records nothing).
pub fn compact_with(
    kairos: &mut Kairos,
    max_moves: usize,
    metrics: Option<&RelocMetrics>,
) -> CompactReport {
    let telemetry = kairos.telemetry().clone();
    let _span = telemetry.span("kairos_reloc", "compact");
    if let Some(m) = metrics {
        m.compact_sweeps.inc();
    }
    let fragmentation_before = external_fragmentation(kairos.platform());
    let mut moves = Vec::new();
    for id in kairos.admitted_ids() {
        if moves.len() >= max_moves {
            break;
        }
        let current = external_fragmentation(kairos.platform());
        if let Ok(report) =
            kairos.migrate_if(id, &[], |_, _, platform| external_fragmentation(platform) < current)
        {
            moves.push(CompactMove {
                app_id: id,
                moved_tasks: report.moved_tasks,
                fragmentation_after: external_fragmentation(kairos.platform()),
            });
        }
    }
    if let Some(m) = metrics {
        m.compact_moves.add(moves.len() as u64);
        telemetry.event(
            Level::INFO,
            "kairos_reloc",
            format!("compaction sweep moved {} application(s)", moves.len()),
        );
    }
    CompactReport {
        fragmentation_before,
        fragmentation_after: external_fragmentation(kairos.platform()),
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
    use kairos_core::KairosConfig;
    use kairos_platform::{topology, ElementKind, ResourceVector};

    fn single(name: &str, cpu: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 50, 1);
        let mut b = ApplicationBuilder::new(name);
        b.add_task("t", TaskRole::Internal, vec![imp]);
        b.build().unwrap()
    }

    /// Fills a DSP line alternately and releases every other application,
    /// leaving a maximally fragmented checkerboard.
    fn checkerboard() -> (Kairos, f64) {
        let mut kairos = Kairos::new(topology::dsp_line(8), KairosConfig::default());
        let ids: Vec<_> =
            (0..8).map(|i| kairos.admit(&single(&format!("a{i}"), 900)).unwrap().app_id).collect();
        for id in ids.iter().skip(1).step_by(2) {
            kairos.release(*id);
        }
        let frag = external_fragmentation(kairos.platform());
        assert!(frag > 0.9, "checkerboard must be heavily fragmented, got {frag}");
        (kairos, frag)
    }

    #[test]
    fn compact_reduces_checkerboard_fragmentation() {
        let (mut kairos, before) = checkerboard();
        let report = compact(&mut kairos, 8);
        assert_eq!(report.fragmentation_before, before);
        assert!(
            report.fragmentation_after < before,
            "sweep must improve fragmentation: {report:?}"
        );
        assert!(!report.moves.is_empty());
        // Monotone improvement move by move.
        let mut last = before;
        for mv in &report.moves {
            assert!(mv.fragmentation_after < last, "each accepted move strictly improves");
            assert!(mv.moved_tasks > 0, "accepted moves actually move something");
            last = mv.fragmentation_after;
        }
        // Accounting balance: everything still releases cleanly.
        for id in kairos.admitted_ids() {
            assert!(kairos.release(id));
        }
        assert!(kairos.platform().is_idle());
    }

    #[test]
    fn compact_respects_the_move_budget() {
        let (mut kairos, _) = checkerboard();
        let report = compact(&mut kairos, 1);
        assert!(report.move_count() <= 1);
        let report = compact(&mut kairos, 0);
        assert_eq!(report.move_count(), 0);
        assert_eq!(report.fragmentation_before, report.fragmentation_after);
    }

    #[test]
    fn compact_on_an_idle_platform_is_a_noop() {
        let mut kairos = Kairos::new(topology::dsp_line(4), KairosConfig::default());
        let report = compact(&mut kairos, 4);
        assert_eq!(report.move_count(), 0);
        assert_eq!(report.fragmentation_before, 0.0);
        assert_eq!(report.fragmentation_after, 0.0);
    }

    #[test]
    fn compact_is_deterministic() {
        let (mut a, _) = checkerboard();
        let (mut b, _) = checkerboard();
        assert_eq!(compact(&mut a, 8), compact(&mut b, 8));
    }
}
