//! Relocation: [`Kairos::select_victims`] plans a minimal preemption for a
//! blocked request, [`Kairos::compact`] sweeps live migrations that merge
//! free islands.
//!
//! The paper's manager only admits or rejects — once a mapping is claimed
//! it is frozen until the application leaves, so high-criticality arrivals
//! starve behind fragmented low-priority occupancy. Both planners decide on
//! the manager's what-if copy of the platform (through
//! [`Kairos::probe_admit_without`] and [`Kairos::migrate_if`]) before
//! anything is written, so no plan or sweep ever leaves an application
//! half-moved, and identical inputs produce identical plans. The
//! `kairos-admitd` front-end drives both: victim plans from its preemption
//! hook, sweeps from its `Defrag` command.
//!
//! The counters are the manager's `kairos.reloc.*` instruments.

use std::sync::Arc;

use kairos_app::Application;
use kairos_platform::{AppId, ElementId};

use super::{fragmentation_of, Kairos};
use crate::layout::ExecutionLayout;

/// A validated preemption plan: evicting `victims` (all of them) lets the
/// blocked request through.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimPlan {
    /// The applications to evict, in the candidate order they were chosen.
    pub victims: Vec<AppId>,
    /// The layout the request would be admitted under once the victims
    /// are gone — preemption-by-migration planners use its placement as
    /// the region victims must vacate. The probe's decision itself, shared
    /// with the decision store when it keeps the decision; never copied.
    pub layout: Arc<ExecutionLayout>,
}

impl VictimPlan {
    /// The elements of the planned layout's placement, deduplicated —
    /// the region a migrating victim must avoid.
    pub fn target_elements(&self) -> Vec<ElementId> {
        let mut els: Vec<_> = self.layout.placement.iter().map(|(_, e)| e).collect();
        els.sort_unstable();
        els.dedup();
        els
    }
}

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

/// Result of one [`Kairos::compact`] sweep.
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

impl Kairos {
    /// Selects a victim set among `candidates` whose eviction unblocks
    /// `request`, or `None` when no prefix of at most `max_victims`
    /// candidates suffices.
    ///
    /// `candidates` is an *ordered* preference list (cheapest victim first
    /// — the caller encodes its eviction-cost policy in the order, e.g.
    /// lowest-priority-first then smallest-first). The planner grows the
    /// set greedily along that order until a state-neutral admission probe
    /// ([`Kairos::probe_admit_without`]) succeeds, then prunes it to
    /// *minimality with respect to single-victim removal*: for every victim
    /// `v` in the returned set, the probe without `set \ {v}` still fails,
    /// so no victim is evicted gratuitously.
    ///
    /// The platform is left exactly as found — every probe's releases run
    /// on the manager's what-if copy, and its trial admission claims
    /// nothing. A candidate listed twice is released once.
    ///
    /// ```
    /// use kairos_core::{Kairos, KairosConfig};
    /// use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
    /// use kairos_platform::{topology, ElementKind, ResourceVector};
    ///
    /// let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
    /// let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(900, 16, 0, 0), 50, 1);
    /// let mut b = ApplicationBuilder::new("resident");
    /// b.add_task("t", TaskRole::Internal, vec![imp]);
    /// let resident = b.build()?;
    /// let mut ids = Vec::new();
    /// for _ in 0..4 {
    ///     ids.push(kairos.admit(&resident)?.app_id); // fill all four DSPs
    /// }
    ///
    /// // A blocked request: nothing fits until someone is preempted.
    /// let plan = kairos.select_victims(&resident, &ids, 4).expect("one eviction suffices");
    /// assert_eq!(plan.victims.len(), 1, "minimal victim set");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn select_victims(
        &mut self,
        request: &Application,
        candidates: &[AppId],
        max_victims: usize,
    ) -> Option<VictimPlan> {
        if let Some(m) = &self.metrics {
            m.reloc_plans_requested.inc();
        }
        if candidates.is_empty() || max_victims == 0 {
            return None;
        }

        // Grow greedily along the preference order. The successful probe's
        // layout is kept — it is the plan's layout unless pruning shrinks
        // the set further.
        let mut set: Vec<AppId> = Vec::new();
        let mut layout = None;
        for &candidate in candidates.iter().take(max_victims) {
            set.push(candidate);
            if let Ok(l) = self.probe_admit_without(request, &set) {
                layout = Some(l);
                break;
            }
        }
        let Some(mut layout) = layout else {
            if let Some(m) = &self.metrics {
                m.reloc_plans_none.inc();
            }
            return None;
        };

        // Prune to minimality w.r.t. single-victim removal. Later victims
        // are reconsidered first: the last one added was load-bearing by
        // construction, but earlier, cheaper picks may have become
        // redundant. While nothing has been pruned, dropping the last
        // victim leaves the growth prefix that was just refused, so that
        // trial is not probed again.
        let mut i = 0;
        let mut pruned = false;
        while i < set.len() && set.len() > 1 {
            if !pruned && i == set.len() - 1 {
                break;
            }
            let mut trial = set.clone();
            trial.remove(i);
            if let Ok(l) = self.probe_admit_without(request, &trial) {
                set = trial;
                layout = l;
                pruned = true;
            } else {
                i += 1;
            }
        }

        if let Some(m) = &self.metrics {
            m.reloc_plans_found.inc();
            m.reloc_plan_victims.add(set.len() as u64);
        }
        Some(VictimPlan { victims: set, layout })
    }

    /// Sweeps the admitted applications in ascending-id order,
    /// live-migrating each one and keeping only moves that *strictly
    /// reduce* external resource fragmentation (paper §III-A) — the
    /// defragmentation pass that merges scattered free crumbs back into
    /// contiguous regions future applications can use.
    ///
    /// Each candidate move runs through [`Kairos::migrate_if`]: the
    /// acceptance check compares fragmentation after the completed move
    /// against the value before it, and a declined or infeasible move
    /// writes nothing, so a sweep can only ever improve the metric. At
    /// most `max_moves` applications are moved per sweep (bounding the
    /// reconfiguration work a single sweep may impose on running
    /// applications); `0` makes the sweep a no-op probe of current
    /// fragmentation.
    pub fn compact(&mut self, max_moves: usize) -> CompactReport {
        if let Some(m) = &self.metrics {
            m.reloc_compact_sweeps.inc();
        }
        let fragmentation_before = self.fragmentation();
        let mut moves = Vec::new();
        for id in self.admitted_ids() {
            if moves.len() >= max_moves {
                break;
            }
            let current = self.fragmentation();
            if let Ok(report) =
                self.migrate_if(id, &[], |_, _, platform| fragmentation_of(platform) < current)
            {
                moves.push(CompactMove {
                    app_id: id,
                    moved_tasks: report.moved_tasks,
                    fragmentation_after: self.fragmentation(),
                });
            }
        }
        if let Some(m) = &self.metrics {
            m.reloc_compact_moves.add(moves.len() as u64);
        }
        CompactReport { fragmentation_before, fragmentation_after: self.fragmentation(), moves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KairosConfig;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{external_fragmentation, topology, ElementKind, ResourceVector};
    use kairos_telemetry::{Telemetry, TelemetryConfig};

    fn task_app(name: &str, cpu: u64, tasks: usize) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 50, 1);
        let mut b = ApplicationBuilder::new(name);
        let mut prev = None;
        for i in 0..tasks {
            let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]);
            if let Some(p) = prev {
                b.add_channel(p, t, 10, 1);
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    fn filled_mesh() -> (Kairos, Vec<AppId>) {
        let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let resident = task_app("resident", 900, 1);
        let ids: Vec<AppId> = (0..4).map(|_| kairos.admit(&resident).unwrap().app_id).collect();
        (kairos, ids)
    }

    /// Fills a DSP line alternately and releases every other application,
    /// leaving a maximally fragmented checkerboard.
    fn checkerboard() -> (Kairos, f64) {
        let mut kairos = Kairos::new(topology::dsp_line(8), KairosConfig::default());
        let ids: Vec<_> = (0..8)
            .map(|i| kairos.admit(&task_app(&format!("a{i}"), 900, 1)).unwrap().app_id)
            .collect();
        for id in ids.iter().skip(1).step_by(2) {
            kairos.release(*id);
        }
        let frag = external_fragmentation(kairos.platform());
        assert!(frag > 0.9, "checkerboard must be heavily fragmented, got {frag}");
        (kairos, frag)
    }

    #[test]
    fn single_victim_suffices_for_single_task_request() {
        let (mut kairos, ids) = filled_mesh();
        let before = kairos.platform().checkpoint();
        let request = task_app("req", 900, 1);
        let plan = kairos.select_victims(&request, &ids, 4).unwrap();
        assert_eq!(plan.victims.len(), 1);
        assert_eq!(plan.victims[0], ids[0], "preference order is respected");
        assert_eq!(plan.layout.placement.len(), 1);
        assert_eq!(plan.target_elements().len(), 1);
        assert_eq!(kairos.platform().checkpoint(), before, "planning is state-neutral");
    }

    #[test]
    fn larger_requests_need_more_victims_and_stay_minimal() {
        let (mut kairos, ids) = filled_mesh();
        let request = task_app("req", 900, 3);
        let plan = kairos.select_victims(&request, &ids, 4).unwrap();
        assert_eq!(plan.victims.len(), 3);
        // Minimality: dropping any single victim re-blocks the request.
        for i in 0..plan.victims.len() {
            let mut trial = plan.victims.clone();
            trial.remove(i);
            assert!(
                kairos.probe_admit_without(&request, &trial).is_err(),
                "victim {i} is load-bearing"
            );
        }
    }

    #[test]
    fn hopeless_requests_get_no_plan() {
        let (mut kairos, ids) = filled_mesh();
        // Five whole-DSP tasks can never fit a 2x2 mesh.
        let request = task_app("req", 900, 5);
        assert!(kairos.select_victims(&request, &ids, 4).is_none());
        // A max_victims cap below the need also yields no plan.
        let request = task_app("req", 900, 3);
        assert!(kairos.select_victims(&request, &ids, 2).is_none());
        assert!(kairos.select_victims(&request, &[], 4).is_none());
        assert!(kairos.select_victims(&request, &ids, 0).is_none());
    }

    #[test]
    fn redundant_early_picks_are_pruned() {
        // Mesh holds two small residents and one large one; a large
        // request is blocked. Candidate order lists the small residents
        // first (cheapest), but only evicting the large one helps — the
        // greedy set {small, small, large} must prune to {large}.
        let mut kairos = Kairos::new(topology::dsp_mesh(2, 2), KairosConfig::default());
        let small = task_app("small", 200, 1);
        let large = task_app("large", 800, 4);
        let s1 = kairos.admit(&small).unwrap().app_id;
        let s2 = kairos.admit(&small).unwrap().app_id;
        let l = kairos.admit(&large).unwrap().app_id;
        let request = task_app("req", 700, 4);
        let plan = kairos.select_victims(&request, &[s1, s2, l], 3).unwrap();
        assert_eq!(plan.victims, vec![l], "redundant small victims are pruned");
    }

    #[test]
    fn compact_reduces_checkerboard_fragmentation() {
        let (mut kairos, before) = checkerboard();
        let report = kairos.compact(8);
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
        let report = kairos.compact(1);
        assert!(report.move_count() <= 1);
        let report = kairos.compact(0);
        assert_eq!(report.move_count(), 0);
        assert_eq!(report.fragmentation_before, report.fragmentation_after);
    }

    #[test]
    fn compact_on_an_idle_platform_is_a_noop() {
        let mut kairos = Kairos::new(topology::dsp_line(4), KairosConfig::default());
        let report = kairos.compact(4);
        assert_eq!(report.move_count(), 0);
        assert_eq!(report.fragmentation_before, 0.0);
        assert_eq!(report.fragmentation_after, 0.0);
    }

    #[test]
    fn compact_is_deterministic() {
        let (mut a, _) = checkerboard();
        let (mut b, _) = checkerboard();
        assert_eq!(a.compact(8), b.compact(8));
    }

    const RELOC_COUNTERS: [&str; 6] = [
        "kairos.reloc.plans.requested",
        "kairos.reloc.plans.none",
        "kairos.reloc.plans.found",
        "kairos.reloc.plan.victims",
        "kairos.reloc.compact.sweeps",
        "kairos.reloc.compact.moves",
    ];

    #[test]
    fn a_lit_manager_registers_and_bumps_the_reloc_counters() {
        let (mut kairos, ids) = filled_mesh();
        let telemetry = Telemetry::new(TelemetryConfig::default());
        kairos.set_telemetry(telemetry.clone());
        let read = |name: &str| telemetry.counter(name).map(|c| c.get());
        for name in RELOC_COUNTERS {
            assert_eq!(read(name), Some(0), "{name} is registered on set_telemetry");
        }

        let request = task_app("req", 900, 3);
        assert_eq!(kairos.select_victims(&request, &ids, 4).unwrap().victims.len(), 3);
        assert!(kairos.select_victims(&task_app("huge", 900, 5), &ids, 4).is_none());
        assert_eq!(read("kairos.reloc.plans.requested"), Some(2));
        assert_eq!(read("kairos.reloc.plans.found"), Some(1));
        assert_eq!(read("kairos.reloc.plans.none"), Some(1));
        assert_eq!(read("kairos.reloc.plan.victims"), Some(3));

        kairos.release(ids[1]);
        kairos.release(ids[2]);
        let moves = kairos.compact(4).move_count() as u64;
        kairos.compact(0);
        assert_eq!(read("kairos.reloc.compact.sweeps"), Some(2));
        assert_eq!(read("kairos.reloc.compact.moves"), Some(moves));
    }

    #[test]
    fn a_dark_manager_registers_nothing() {
        let (mut kairos, ids) = filled_mesh();
        kairos.set_telemetry(Telemetry::new(TelemetryConfig::default()));
        kairos.set_telemetry(Telemetry::disabled());
        assert!(kairos.metrics.is_none(), "a dark hub resolves no instruments");
        assert!(kairos.select_victims(&task_app("req", 900, 1), &ids, 4).is_some());
        kairos.compact(4);
        for name in RELOC_COUNTERS {
            assert!(kairos.telemetry().counter(name).is_none(), "{name}");
        }
    }
}
