//! Phase 4 — validation: throughput analysis of the execution layout.
//!
//! "For validation of the performance constraints of applications, we model
//! the influence of the platform and the application specification as an SDF
//! graph. We express latency constraints in the application as throughput
//! constraints [12]. With a state-space exploration of the SDF graph [5],
//! [13], we calculate the throughput of the corresponding application" (§II).
//!
//! The layout-to-SDF translation models:
//! * every task as an actor whose execution time is the bound
//!   implementation's cycle count;
//! * every routed channel as a *transport actor* whose execution time grows
//!   with the route's hop count (NoC store-and-forward latency);
//! * bounded channel buffers as back-edge tokens.
//!
//! That model is never multirate: every channel produces what it consumes,
//! holds either nothing or a whole number of firings' worth of tokens, and
//! is mirrored by a back-edge. It is a homogeneous graph, strongly connected
//! per connected component, so its self-timed period *is* its maximum cycle
//! ratio and [`validate`] computes it exactly
//! ([`kairos_sdf::max_cycle_ratio`]) instead of exploring the state space —
//! the paper's result by another method, with a cost bounded by the model's
//! size rather than by the length of its transient. The state-space analysis
//! ([`kairos_sdf::throughput_with`]) remains the oracle the tests compare
//! against. See `docs/ARCHITECTURE.md`, "The validation phase".

use kairos_app::{Application, ChannelId, TaskRole};
use kairos_sdf::{max_cycle_ratio_in, ActorId, CycleRatioScratch, SdfGraph, SdfGraphBuilder};

use crate::error::ValidationError;
use crate::layout::ExecutionLayout;

/// Tuning knobs of the validation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationConfig {
    /// NoC latency per hop, in cycles, charged by transport actors.
    pub hop_latency_cycles: u64,
    /// Fixed per-channel transport overhead (serialisation), in cycles.
    pub transport_overhead_cycles: u64,
    /// Buffer tokens per channel direction (back-edge initial tokens),
    /// multiplied by the channel's tokens-per-firing.
    pub buffer_depth: u32,
    /// Inert: the throughput analysis is computed, not explored, so it has
    /// no event budget and never reads this. The frozen benchmark is its
    /// only user — `benchmark/src/drive.rs` sets it and
    /// `benchmark/src/layers.rs` hands it to the state-space oracle — and
    /// it goes when that benchmark is next changed (ROADMAP item 2(b)).
    #[doc(hidden)]
    pub max_events: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            hop_latency_cycles: 8,
            transport_overhead_cycles: 4,
            buffer_depth: 2,
            max_events: 200_000,
        }
    }
}

/// Outcome of a successful validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Steady-state cycles per graph iteration (`1.0 / throughput`).
    pub iteration_period: f64,
    /// Steady-state iterations per cycle
    /// (`period_iterations / period_cycles`).
    pub throughput: f64,
    /// The exact period, in lowest terms: `period_iterations` graph
    /// iterations complete every `period_cycles` cycles. Constraints are
    /// checked against this ratio, not against the rounded floats.
    pub period_cycles: u64,
    /// See [`period_cycles`](Self::period_cycles).
    pub period_iterations: u64,
    /// Number of SDF actors in the analysed model (tasks + transports).
    pub actors: usize,
}

/// The performance model of a layout, flat: what [`validate`] hands the
/// cycle-ratio solver and what [`layout_to_sdf`] names and renders as an
/// [`SdfGraph`], so the two cannot drift.
#[derive(Debug, Default)]
struct LayoutModel {
    /// Execution time per actor. Task `t` is actor `t`; one transport actor
    /// per non-local route follows, in channel order.
    exec: Vec<u64>,
    /// The channel each transport actor carries, in actor order.
    transports: Vec<ChannelId>,
    /// `(src, dst, tokens)` with tokens counted in firings: the edge moves
    /// `rate` tokens per firing at both ends and holds `tokens * rate`.
    edges: Vec<(u32, u32, u32)>,
    /// The `rate` of each edge.
    rates: Vec<u32>,
}

/// Working memory of one [`validate`] call — the layout's model and the
/// solver's vectors, each rebuilt from nothing by the call that uses it.
#[derive(Debug, Default)]
pub(crate) struct ValidationScratch {
    model: LayoutModel,
    solver: CycleRatioScratch,
}

impl LayoutModel {
    /// Replaces whatever model this was with the one of `layout`.
    fn rebuild(&mut self, app: &Application, layout: &ExecutionLayout, config: &ValidationConfig) {
        self.exec.clear();
        self.transports.clear();
        self.edges.clear();
        self.rates.clear();
        // One actor per task; execution times come from the binding.
        self.exec.extend(
            app.task_ids().map(|t| layout.binding.implementation(app, t).exec_cycles().max(1)),
        );
        let buffer = config.buffer_depth.max(1);
        for channel in app.channels() {
            let route = &layout.routes[channel.id().index()];
            let rate = channel.tokens_per_firing().max(1);
            let (src, dst) = (channel.src().0, channel.dst().0);
            if route.is_local() {
                self.link(src, dst, rate, buffer);
            } else {
                // Saturates on a hostile configuration; the solver's checked
                // sums then refuse the model.
                let latency = config
                    .transport_overhead_cycles
                    .saturating_add(config.hop_latency_cycles.saturating_mul(route.hops() as u64));
                let transport = self.exec.len() as u32;
                self.exec.push(latency.max(1));
                self.transports.push(channel.id());
                self.link(src, transport, rate, buffer);
                self.link(transport, dst, rate, buffer);
            }
        }
    }

    /// A data edge and the back-edge that bounds its buffer to `buffer`
    /// firings.
    fn link(&mut self, src: u32, dst: u32, rate: u32, buffer: u32) {
        self.edges.push((src, dst, 0));
        self.edges.push((dst, src, buffer));
        self.rates.extend([rate, rate]);
    }

    /// The model as a named multirate graph, for the state-space oracle
    /// and inspection.
    fn to_graph(&self, app: &Application) -> SdfGraph {
        let mut b = SdfGraphBuilder::new(format!("{}::model", app.name()));
        let (tasks, transports) = self.exec.split_at(app.task_count());
        for (task, &cycles) in app.tasks().zip(tasks) {
            b.add_actor(task.name().to_owned(), cycles);
        }
        for (channel, &latency) in self.transports.iter().zip(transports) {
            b.add_actor(format!("transport-{channel}"), latency);
        }
        for (&(src, dst, tokens), &rate) in self.edges.iter().zip(&self.rates) {
            b.add_channel(ActorId(src), ActorId(dst), rate, rate, tokens * rate);
        }
        b.build().expect("layout model is structurally valid by construction")
    }
}

/// Builds the SDF performance model of `app` under `layout`.
///
/// Exposed separately so benchmarks and tests can inspect the model the
/// validation phase analyses, and run the state-space oracle on it.
pub fn layout_to_sdf(
    app: &Application,
    layout: &ExecutionLayout,
    config: &ValidationConfig,
) -> SdfGraph {
    let mut model = LayoutModel::default();
    model.rebuild(app, layout, config);
    model.to_graph(app)
}

/// Runs the validation phase: computes the layout's steady-state period and
/// checks every constraint of the application against it, exactly.
///
/// # Errors
///
/// [`ValidationError::Analysis`] when the model has no period — the
/// application's task graph has a cycle (its model deadlocks), or its cycle
/// counts overflow the analysis; both are properties of the application, not
/// of the layout. [`ValidationError::ConstraintViolated`] when the achieved
/// period exceeds a constraint's allowance.
pub fn validate(
    app: &Application,
    layout: &ExecutionLayout,
    config: &ValidationConfig,
) -> Result<ValidationReport, ValidationError> {
    validate_in(app, layout, config, &mut ValidationScratch::default())
}

/// [`validate`] in a manager's working memory.
pub(crate) fn validate_in(
    app: &Application,
    layout: &ExecutionLayout,
    config: &ValidationConfig,
    scratch: &mut ValidationScratch,
) -> Result<ValidationReport, ValidationError> {
    let ValidationScratch { model, solver } = scratch;
    model.rebuild(app, layout, config);
    let sink = app.tasks().find(|t| t.role() == TaskRole::Output).map(|t| t.id());

    // Reference actor: the first output task, or task 0 for sink-less graphs.
    let reference = sink.map_or(0, |t| t.index());
    let period = max_cycle_ratio_in(&model.exec, &model.edges, reference, solver)
        .map_err(ValidationError::Analysis)?;
    let throughput = period.iterations as f64 / period.cycles as f64;
    let iteration_period = 1.0 / throughput;

    for (index, constraint) in app.constraints().iter().enumerate() {
        let allowed = constraint.as_max_period_cycles();
        if u128::from(period.cycles) > u128::from(allowed) * u128::from(period.iterations) {
            return Err(ValidationError::ConstraintViolated {
                constraint_index: index,
                allowed_period: allowed,
                achieved_period: iteration_period,
            });
        }
    }

    Ok(ValidationReport {
        iteration_period,
        throughput,
        period_cycles: period.cycles,
        period_iterations: period.iterations,
        actors: model.exec.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Binding, Placement, Route};
    use kairos_app::{ApplicationBuilder, Constraint, ImplId, Implementation, TaskRole};
    use kairos_platform::{ElementId, ElementKind, LinkId, ResourceVector};
    use kairos_sdf::{SdfAnalysisError, StateSpaceError};

    fn imp(cycles: u64) -> Implementation {
        Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), cycles, 1)
    }

    fn pipeline_app(cycles: &[u64]) -> Application {
        let mut b = ApplicationBuilder::new("pipe");
        let ids: Vec<_> = cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let role = if i == 0 {
                    TaskRole::Input
                } else if i == cycles.len() - 1 {
                    TaskRole::Output
                } else {
                    TaskRole::Internal
                };
                b.add_task(format!("t{i}"), role, vec![imp(c)])
            })
            .collect();
        for w in ids.windows(2) {
            b.add_channel(w[0], w[1], 100, 1);
        }
        b.build().unwrap()
    }

    fn layout_for(app: &Application, hops: &[usize]) -> ExecutionLayout {
        ExecutionLayout {
            binding: Binding::new(vec![ImplId(0); app.task_count()]),
            placement: Placement::new((0..app.task_count() as u32).map(ElementId).collect()),
            routes: app
                .channels()
                .map(|c| {
                    Route::new(
                        c.id(),
                        (0..hops[c.id().index()]).map(|i| LinkId(i as u32)).collect(),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn bottleneck_task_sets_period() {
        let app = pipeline_app(&[10, 50, 10]);
        let layout = layout_for(&app, &[0, 0]);
        let report = validate(&app, &layout, &ValidationConfig::default()).unwrap();
        // The 50-cycle task dominates; transports are local (zero cost).
        assert!((report.iteration_period - 50.0).abs() < 1e-9);
        assert_eq!(report.actors, 3);
    }

    #[test]
    fn longer_routes_slow_the_pipeline() {
        let app = pipeline_app(&[10, 10]);
        let config = ValidationConfig {
            hop_latency_cycles: 20,
            transport_overhead_cycles: 0,
            ..ValidationConfig::default()
        };
        let near = validate(&app, &layout_for(&app, &[1]), &config).unwrap();
        let far = validate(&app, &layout_for(&app, &[5]), &config).unwrap();
        assert!(far.iteration_period > near.iteration_period);
        assert_eq!(near.actors, 3, "two tasks plus one transport");
    }

    #[test]
    fn constraint_violation_is_reported() {
        let mut b = ApplicationBuilder::new("tight");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp(100)]);
        let t1 = b.add_task("b", TaskRole::Output, vec![imp(100)]);
        b.add_channel(t0, t1, 100, 1);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 50 });
        let app = b.build().unwrap();
        let layout = layout_for(&app, &[0]);
        let err = validate(&app, &layout, &ValidationConfig::default()).unwrap_err();
        match err {
            ValidationError::ConstraintViolated { allowed_period, achieved_period, .. } => {
                assert_eq!(allowed_period, 50);
                assert!(achieved_period >= 100.0);
            }
            other => panic!("expected constraint violation, got {other}"),
        }
    }

    #[test]
    fn satisfied_constraint_passes() {
        let mut b = ApplicationBuilder::new("ok");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp(10)]);
        let t1 = b.add_task("b", TaskRole::Output, vec![imp(10)]);
        b.add_channel(t0, t1, 100, 1);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 1000 });
        b.add_constraint(Constraint::Latency { max_latency_cycles: 4000, pipeline_depth: 2 });
        let app = b.build().unwrap();
        let layout = layout_for(&app, &[0]);
        assert!(validate(&app, &layout, &ValidationConfig::default()).is_ok());
    }

    #[test]
    fn deeper_buffers_never_hurt_throughput() {
        let app = pipeline_app(&[10, 30, 10]);
        let shallow = ValidationConfig { buffer_depth: 1, ..ValidationConfig::default() };
        let deep = ValidationConfig { buffer_depth: 4, ..ValidationConfig::default() };
        let layout = layout_for(&app, &[2, 2]);
        let p_shallow = validate(&app, &layout, &shallow).unwrap().iteration_period;
        let p_deep = validate(&app, &layout, &deep).unwrap().iteration_period;
        assert!(p_deep <= p_shallow + 1e-9);
    }

    #[test]
    fn zero_cycle_implementations_are_clamped() {
        let app = pipeline_app(&[0, 0]);
        let layout = layout_for(&app, &[0]);
        // Must not hit the zero-time-cycle error: exec times clamp to 1.
        let report = validate(&app, &layout, &ValidationConfig::default()).unwrap();
        assert!(report.iteration_period >= 1.0);
    }

    #[test]
    fn exact_fit_constraints_are_met() {
        // A bottleneck of `c` cycles against "period <= c": `1.0 / (1.0 / c)`
        // rounds above `c` for 140 of these (49, 98, 103, 107, 196, ...).
        for c in 1..=2000u64 {
            let mut b = ApplicationBuilder::new("fit");
            let t0 = b.add_task("a", TaskRole::Input, vec![imp(1)]);
            let t1 = b.add_task("b", TaskRole::Output, vec![imp(c)]);
            b.add_channel(t0, t1, 100, 1);
            b.add_constraint(Constraint::Throughput { max_period_cycles: c });
            let app = b.build().unwrap();
            let report = validate(&app, &layout_for(&app, &[0]), &ValidationConfig::default())
                .unwrap_or_else(|e| panic!("a {c}-cycle period must fit {c}: {e}"));
            assert_eq!((report.period_cycles, report.period_iterations), (c, 1));
        }
    }

    #[test]
    fn one_cycle_over_is_still_refused() {
        let mut b = ApplicationBuilder::new("over");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp(1)]);
        let t1 = b.add_task("b", TaskRole::Output, vec![imp(50)]);
        b.add_channel(t0, t1, 100, 1);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 49 });
        let app = b.build().unwrap();
        let err = validate(&app, &layout_for(&app, &[0]), &ValidationConfig::default());
        assert!(matches!(err, Err(ValidationError::ConstraintViolated { allowed_period: 49, .. })));
    }

    #[test]
    fn hostile_cycle_counts_are_an_analysis_error() {
        // `now + exec_time` used to wrap in release and panic in debug.
        let app = pipeline_app(&[u64::MAX / 2; 3]);
        let err = validate(&app, &layout_for(&app, &[0, 1]), &ValidationConfig::default());
        match err {
            Err(ValidationError::Analysis(error)) => {
                assert_eq!(error, StateSpaceError::Analysis(SdfAnalysisError::Overflow));
            }
            other => panic!("expected an analysis error, got {other:?}"),
        }
        let hostile = ValidationConfig { hop_latency_cycles: u64::MAX, ..Default::default() };
        let app = pipeline_app(&[10, 10]);
        assert!(matches!(
            validate(&app, &layout_for(&app, &[3]), &hostile),
            Err(ValidationError::Analysis(_))
        ));
    }

    #[test]
    fn cyclic_applications_deadlock_permanently() {
        let mut b = ApplicationBuilder::new("loop");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp(10)]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp(10)]);
        let t2 = b.add_task("c", TaskRole::Output, vec![imp(10)]);
        b.add_channel(t0, t1, 100, 1);
        b.add_channel(t1, t2, 100, 1);
        b.add_channel(t2, t1, 100, 1);
        let app = b.build().unwrap();
        // Whatever the layout: the feedback channel holds no initial token.
        for hops in [[0, 0, 0], [1, 4, 2], [9, 0, 7]] {
            let err =
                validate(&app, &layout_for(&app, &hops), &ValidationConfig::default()).unwrap_err();
            assert_eq!(err, ValidationError::Analysis(StateSpaceError::Deadlock));
            assert_eq!(
                err.to_string(),
                "throughput analysis failed: self-timed execution deadlocked"
            );
            let failure = crate::error::AllocationError::from(err);
            assert!(failure.is_permanent());
        }
    }

    #[test]
    fn max_events_changes_no_validation() {
        let app = pipeline_app(&[7, 31, 13, 5]);
        let layout = layout_for(&app, &[2, 0, 5]);
        let default = validate(&app, &layout, &ValidationConfig::default()).unwrap();
        let starved = ValidationConfig { max_events: 1, ..ValidationConfig::default() };
        assert_eq!(validate(&app, &layout, &starved).unwrap(), default);
    }

    #[test]
    fn the_graph_is_the_flat_model() {
        let mut b = ApplicationBuilder::new("rates");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp(5)]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp(0)]);
        let t2 = b.add_task("c", TaskRole::Output, vec![imp(9)]);
        b.add_channel(t0, t1, 100, 3);
        b.add_channel(t0, t2, 100, 1);
        b.add_channel(t1, t2, 100, 2);
        let app = b.build().unwrap();
        let layout = layout_for(&app, &[2, 0, 6]);
        let config = ValidationConfig { buffer_depth: 3, ..ValidationConfig::default() };
        let mut model = LayoutModel::default();
        model.rebuild(&app, &layout, &config);
        let graph = layout_to_sdf(&app, &layout, &config);

        assert_eq!(model.exec, [5, 1, 9, 4 + 8 * 2, 4 + 8 * 6]);
        let exec: Vec<u64> = graph.actors().map(|a| a.exec_time()).collect();
        assert_eq!(exec, model.exec);
        let names: Vec<&str> = graph.actors().map(|a| a.name()).collect();
        assert_eq!(names, ["a", "b", "c", "transport-c0", "transport-c2"]);

        assert_eq!(graph.channel_count(), model.edges.len());
        for (c, (&(src, dst, tokens), &rate)) in
            graph.channels().zip(model.edges.iter().zip(&model.rates))
        {
            assert_eq!((c.src().0, c.dst().0), (src, dst));
            // Homogeneous up to the rate: what the solver's equivalence to
            // the state-space analysis rests on.
            assert_eq!((c.produce(), c.consume()), (rate, rate));
            assert_eq!(c.initial_tokens(), tokens * rate);
            assert!(tokens == 0 || tokens == 3);
        }
    }

    #[test]
    fn model_inventory_matches_layout() {
        let app = pipeline_app(&[5, 5, 5]);
        let layout = layout_for(&app, &[0, 3]);
        let model = layout_to_sdf(&app, &layout, &ValidationConfig::default());
        // 3 task actors + 1 transport (the 3-hop channel only).
        assert_eq!(model.actor_count(), 4);
        // Local channel: 2 edges; remote: 4 edges.
        assert_eq!(model.channel_count(), 6);
    }
}
