//! Preemption victim selection.

use kairos_app::Application;
use kairos_core::{ExecutionLayout, Kairos};
use kairos_platform::AppId;
use kairos_telemetry::Level;

use crate::metrics::RelocMetrics;

/// A validated preemption plan: evicting `victims` (all of them) lets the
/// blocked request through.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimPlan {
    /// The applications to evict, in the candidate order they were chosen.
    pub victims: Vec<AppId>,
    /// The layout the request would be admitted under once the victims
    /// are gone — preemption-by-migration planners use its placement as
    /// the region victims must vacate.
    pub layout: ExecutionLayout,
}

impl VictimPlan {
    /// The elements of the planned layout's placement, deduplicated —
    /// the region a migrating victim must avoid.
    pub fn target_elements(&self) -> Vec<kairos_platform::ElementId> {
        let mut els: Vec<_> = self.layout.placement.iter().map(|(_, e)| e).collect();
        els.sort_unstable();
        els.dedup();
        els
    }
}

/// Selects a victim set among `candidates` whose eviction unblocks
/// `request`, or `None` when no prefix of at most `max_victims` candidates
/// suffices.
///
/// `candidates` is an *ordered* preference list (cheapest victim first —
/// the caller encodes its eviction-cost policy in the order, e.g.
/// lowest-priority-first then smallest-first). The planner grows the set
/// greedily along that order until a state-neutral admission probe
/// ([`Kairos::probe_admit_without`]) succeeds, then prunes it to
/// *minimality with respect to single-victim removal*: for every victim
/// `v` in the returned set, the probe without `set \ {v}` still fails, so
/// no victim is evicted gratuitously.
///
/// The platform is left exactly as found — every probe's releases run on
/// the manager's what-if copy, and its trial admission claims nothing. A
/// candidate listed twice is released once. Identical inputs produce
/// identical plans.
///
/// Resolves a fresh [`RelocMetrics`] per call; repeated drivers should
/// resolve once and call [`select_victims_with`].
pub fn select_victims(
    kairos: &mut Kairos,
    request: &Application,
    candidates: &[AppId],
    max_victims: usize,
) -> Option<VictimPlan> {
    let metrics = RelocMetrics::new(kairos.telemetry());
    select_victims_with(kairos, request, candidates, max_victims, metrics.as_ref())
}

/// [`select_victims`] against pre-resolved instruments (`None` records
/// nothing).
pub fn select_victims_with(
    kairos: &mut Kairos,
    request: &Application,
    candidates: &[AppId],
    max_victims: usize,
    metrics: Option<&RelocMetrics>,
) -> Option<VictimPlan> {
    let telemetry = kairos.telemetry().clone();
    let _span = telemetry.span("kairos_reloc", "select_victims");
    if let Some(m) = metrics {
        m.plans_requested.inc();
    }
    if candidates.is_empty() || max_victims == 0 {
        return None;
    }

    // Grow greedily along the preference order. The successful probe's
    // layout is kept — it is the plan's layout unless pruning shrinks the
    // set further.
    let mut set: Vec<AppId> = Vec::new();
    let mut layout = None;
    for &candidate in candidates.iter().take(max_victims) {
        set.push(candidate);
        if let Ok(l) = kairos.probe_admit_without(request, &set) {
            layout = Some(l);
            break;
        }
    }
    let Some(mut layout) = layout else {
        if let Some(m) = metrics {
            m.plans_none.inc();
            telemetry.event(
                Level::DEBUG,
                "kairos_reloc",
                format!("no victim set of at most {max_victims} unblocks {}", request.name()),
            );
        }
        return None;
    };

    // Prune to minimality w.r.t. single-victim removal. Later victims are
    // reconsidered first: the last one added was load-bearing by
    // construction, but earlier, cheaper picks may have become redundant.
    let mut i = 0;
    while i < set.len() && set.len() > 1 {
        let mut trial = set.clone();
        trial.remove(i);
        if let Ok(l) = kairos.probe_admit_without(request, &trial) {
            set = trial;
            layout = l;
        } else {
            i += 1;
        }
    }

    if let Some(m) = metrics {
        m.plans_found.inc();
        m.plan_victims.add(set.len() as u64);
        telemetry.event(
            Level::INFO,
            "kairos_reloc",
            format!("plan for {}: {} victim(s)", request.name(), set.len()),
        );
    }
    Some(VictimPlan { victims: set, layout })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_core::KairosConfig;
    use kairos_platform::{topology, ElementKind, ResourceVector};

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

    #[test]
    fn single_victim_suffices_for_single_task_request() {
        let (mut kairos, ids) = filled_mesh();
        let before = kairos.platform().checkpoint();
        let request = task_app("req", 900, 1);
        let plan = select_victims(&mut kairos, &request, &ids, 4).unwrap();
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
        let plan = select_victims(&mut kairos, &request, &ids, 4).unwrap();
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
        assert!(select_victims(&mut kairos, &request, &ids, 4).is_none());
        // A max_victims cap below the need also yields no plan.
        let request = task_app("req", 900, 3);
        assert!(select_victims(&mut kairos, &request, &ids, 2).is_none());
        assert!(select_victims(&mut kairos, &request, &[], 4).is_none());
        assert!(select_victims(&mut kairos, &request, &ids, 0).is_none());
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
        let plan = select_victims(&mut kairos, &request, &[s1, s2, l], 3).unwrap();
        assert_eq!(plan.victims, vec![l], "redundant small victims are pruned");
    }
}
