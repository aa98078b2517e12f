//! Error types for the four allocation phases.

use std::fmt;

use kairos_app::{ChannelId, TaskId};
use kairos_platform::{ElementId, ElementKind, LinkId, ResourceVector};
use kairos_sdf::StateSpaceError;

/// The four run-time phases of spatial resource allocation (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Implementation selection.
    Binding,
    /// Spatial task placement (the paper's contribution).
    Mapping,
    /// Channel route establishment.
    Routing,
    /// Throughput/latency validation.
    Validation,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 4] = [Phase::Binding, Phase::Mapping, Phase::Routing, Phase::Validation];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Binding => f.write_str("binding"),
            Phase::Mapping => f.write_str("mapping"),
            Phase::Routing => f.write_str("routing"),
            Phase::Validation => f.write_str("validation"),
        }
    }
}

/// Binding-phase failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindingError {
    /// No implementation of the task has a feasible element anywhere in the
    /// platform (considering already-reserved budget for other tasks).
    NoFeasibleImplementation {
        /// The task that could not be bound.
        task: TaskId,
        /// `true` when no implementation of the task fits any element's
        /// *raw capacity* either — the application can never be admitted
        /// on this platform, no matter how empty it gets.
        structural: bool,
        /// The kind of element the task's cheapest implementation (by
        /// energy, then implementation id: binding's candidate order)
        /// targets.
        kind: ElementKind,
        /// What that implementation requires.
        requested: ResourceVector,
        /// The free vector, the request's own debits included, of the
        /// alive element of `kind` with the greatest free total (the lowest
        /// id among equals); `None` when no element of `kind` is alive.
        largest_free: Option<ResourceVector>,
    },
}

impl fmt::Display for BindingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let BindingError::NoFeasibleImplementation {
            task,
            structural,
            kind,
            requested,
            largest_free,
        } = self;
        let what = if *structural { "structurally infeasible" } else { "no feasible" };
        write!(f, "{what} implementation for task {task}: {kind} needs {requested}, ")?;
        match largest_free {
            Some(free) => write!(f, "largest free {free}"),
            None => f.write_str("none alive"),
        }
    }
}

impl std::error::Error for BindingError {}

/// Mapping-phase failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A pinned task (singleton candidate set) could not claim its element.
    PinnedTaskInfeasible {
        /// The pinned task.
        task: TaskId,
        /// Its only candidate element.
        element: ElementId,
    },
    /// No starting point exists: some task has no available element at all.
    NoStartingPoint {
        /// The unplaceable task.
        task: TaskId,
    },
    /// The platform search ran out of elements before mapping a ring
    /// (the `fail` of the paper's Fig. 5, line 12).
    SearchExhausted {
        /// Index of the task-graph ring that could not be mapped.
        ring: usize,
        /// Tasks left unmapped in that ring.
        unmapped: Vec<TaskId>,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::PinnedTaskInfeasible { task, element } => {
                write!(f, "pinned task {task} does not fit on its only element {element}")
            }
            MappingError::NoStartingPoint { task } => {
                write!(f, "no element available for task {task}")
            }
            MappingError::SearchExhausted { ring, unmapped } => write!(
                f,
                "platform search exhausted at ring {ring} with {} tasks unmapped",
                unmapped.len()
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// Routing-phase failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// No path with a free virtual channel and sufficient bandwidth exists.
    NoRoute {
        /// The channel that could not be routed.
        channel: ChannelId,
        /// Source element of the route.
        src: ElementId,
        /// Destination element of the route.
        dst: ElementId,
        /// The first link, in search order, the path search turned down
        /// for capacity, with the virtual channels and bandwidth it had
        /// left for the request; `None` when no link was short of either.
        blocked: Option<(LinkId, u16, u64)>,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RoutingError::NoRoute { channel, src, dst, blocked } = self;
        write!(f, "no route for channel {channel} from {src} to {dst}")?;
        if let Some((link, vcs, bandwidth)) = blocked {
            write!(f, ", first blocked at {link} ({vcs} vcs, bandwidth {bandwidth} free)")?;
        }
        Ok(())
    }
}

impl std::error::Error for RoutingError {}

/// Validation-phase failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A performance constraint is violated by the computed layout.
    ConstraintViolated {
        /// Index of the violated constraint in the application.
        constraint_index: usize,
        /// Maximum period the constraint allows, in cycles.
        allowed_period: u64,
        /// Steady-state period achieved by the layout, in cycles.
        achieved_period: f64,
    },
    /// The model has no period: the application's task graph has a cycle
    /// (the model deadlocks) or its cycle counts overflow the analysis.
    /// Inherent to the application, whatever the layout.
    Analysis(StateSpaceError),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::ConstraintViolated {
                constraint_index,
                allowed_period,
                achieved_period,
            } => write!(
                f,
                "constraint {constraint_index} violated: period {achieved_period:.1} > {allowed_period}"
            ),
            ValidationError::Analysis(e) => write!(f, "throughput analysis failed: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Every refusal cause, in the order [`AllocationError::cause_index`]
/// numbers them.
pub(crate) const CAUSES: [&str; 8] = [
    "binding.no_implementation",
    "binding.structural",
    "mapping.pinned",
    "mapping.no_start",
    "mapping.search_exhausted",
    "routing.no_route",
    "validation.constraint",
    "validation.analysis",
];

/// A failed allocation attempt, tagged with the phase that rejected it.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocationError {
    /// Rejected during implementation selection.
    Binding(BindingError),
    /// Rejected during spatial placement.
    Mapping(MappingError),
    /// Rejected during route establishment.
    Routing(RoutingError),
    /// Rejected during performance validation.
    Validation(ValidationError),
}

impl AllocationError {
    /// The phase that rejected the application.
    pub fn phase(&self) -> Phase {
        match self {
            AllocationError::Binding(_) => Phase::Binding,
            AllocationError::Mapping(_) => Phase::Mapping,
            AllocationError::Routing(_) => Phase::Routing,
            AllocationError::Validation(_) => Phase::Validation,
        }
    }

    /// The refusal's cause: the rejecting phase and, within it, the
    /// variant — one of `binding.no_implementation`, `binding.structural`,
    /// `mapping.pinned`, `mapping.no_start`, `mapping.search_exhausted`,
    /// `routing.no_route`, `validation.constraint` and
    /// `validation.analysis`. A lit manager counts each refusal on
    /// `kairos.core.reject.` followed by its cause.
    pub fn cause_name(&self) -> &'static str {
        CAUSES[self.cause_index()]
    }

    /// The position of the refusal's cause in [`CAUSES`].
    pub(crate) fn cause_index(&self) -> usize {
        match self {
            AllocationError::Binding(BindingError::NoFeasibleImplementation {
                structural, ..
            }) => usize::from(*structural),
            AllocationError::Mapping(MappingError::PinnedTaskInfeasible { .. }) => 2,
            AllocationError::Mapping(MappingError::NoStartingPoint { .. }) => 3,
            AllocationError::Mapping(MappingError::SearchExhausted { .. }) => 4,
            AllocationError::Routing(RoutingError::NoRoute { .. }) => 5,
            AllocationError::Validation(ValidationError::ConstraintViolated { .. }) => 6,
            AllocationError::Validation(ValidationError::Analysis(_)) => 7,
        }
    }

    /// Whether the request can never be admitted on this platform, so
    /// retrying it is pointless. Conservative: only a task that exceeds
    /// every element's raw capacity, or a [`ValidationError::Analysis`] —
    /// the model of a cyclic task graph deadlocks, and overflowing cycle
    /// counts overflow, under any layout. Everything load-dependent may
    /// clear up once capacity is released or repaired; retry front-ends
    /// bound such retries by policy.
    pub fn is_permanent(&self) -> bool {
        matches!(
            self,
            AllocationError::Binding(BindingError::NoFeasibleImplementation {
                structural: true,
                ..
            }) | AllocationError::Validation(ValidationError::Analysis(_))
        )
    }
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::Binding(e) => write!(f, "binding failed: {e}"),
            AllocationError::Mapping(e) => write!(f, "mapping failed: {e}"),
            AllocationError::Routing(e) => write!(f, "routing failed: {e}"),
            AllocationError::Validation(e) => write!(f, "validation failed: {e}"),
        }
    }
}

impl std::error::Error for AllocationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AllocationError::Binding(e) => Some(e),
            AllocationError::Mapping(e) => Some(e),
            AllocationError::Routing(e) => Some(e),
            AllocationError::Validation(e) => Some(e),
        }
    }
}

impl From<BindingError> for AllocationError {
    fn from(e: BindingError) -> Self {
        AllocationError::Binding(e)
    }
}

impl From<MappingError> for AllocationError {
    fn from(e: MappingError) -> Self {
        AllocationError::Mapping(e)
    }
}

impl From<RoutingError> for AllocationError {
    fn from(e: RoutingError) -> Self {
        AllocationError::Routing(e)
    }
}

impl From<ValidationError> for AllocationError {
    fn from(e: ValidationError) -> Self {
        AllocationError::Validation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One refusal of each cause, in [`CAUSES`] order.
    fn refusals() -> [AllocationError; 8] {
        let (task, element, kind) = (TaskId(3), ElementId(0), ElementKind::Dsp);
        let (requested, free) =
            (ResourceVector::new(900, 8, 0, 0), ResourceVector::new(400, 64, 0, 0));
        let unbound = |structural| BindingError::NoFeasibleImplementation {
            task,
            structural,
            kind,
            requested,
            largest_free: Some(free),
        };
        let (channel, dst, blocked) = (ChannelId(0), ElementId(1), Some((LinkId(7), 2, 150)));
        let (constraint_index, allowed_period, achieved_period) = (0, 10, 20.0);
        [
            unbound(false).into(),
            unbound(true).into(),
            MappingError::PinnedTaskInfeasible { task, element }.into(),
            MappingError::NoStartingPoint { task }.into(),
            MappingError::SearchExhausted { ring: 2, unmapped: vec![task] }.into(),
            RoutingError::NoRoute { channel, src: element, dst, blocked }.into(),
            ValidationError::ConstraintViolated {
                constraint_index,
                allowed_period,
                achieved_period,
            }
            .into(),
            ValidationError::Analysis(StateSpaceError::Deadlock).into(),
        ]
    }

    #[test]
    fn phases_are_ordered() {
        assert!(Phase::Binding < Phase::Mapping);
        assert!(Phase::Mapping < Phase::Routing);
        assert!(Phase::Routing < Phase::Validation);
        assert_eq!(Phase::ALL.len(), 4);
    }

    #[test]
    fn every_refusal_names_its_phase_cause_and_permanence() {
        for (i, e) in refusals().iter().enumerate() {
            let phase = e.phase().to_string();
            assert_eq!(e.cause_index(), i, "{e}");
            assert_eq!(e.cause_name().split_once('.').map(|(p, _)| p), Some(&*phase), "{e}");
            assert!(e.to_string().starts_with(&format!("{phase} failed: ")), "{e}");
            let hopeless = matches!(e.cause_name(), "binding.structural" | "validation.analysis");
            assert_eq!(e.is_permanent(), hopeless, "{e}");
        }
    }

    #[test]
    fn errors_have_sources_and_messages() {
        use std::error::Error;
        let [unbound, _, _, _, _, unrouted, too_slow, _] = refusals();
        assert!(too_slow.source().is_some());
        assert!(too_slow.to_string().contains("violated"));
        assert_eq!(Phase::Mapping.to_string(), "mapping");
        assert_eq!(
            unbound.to_string(),
            "binding failed: no feasible implementation for task t3: \
             dsp needs [cpu:900 mem:8 area:0 io:0], largest free [cpu:400 mem:64 area:0 io:0]"
        );
        assert_eq!(
            unrouted.to_string(),
            "routing failed: no route for channel c0 from e0 to e1, \
             first blocked at l7 (2 vcs, bandwidth 150 free)"
        );
    }
}
