//! Error types for the four allocation phases.

use std::fmt;

use kairos_app::{ChannelId, TaskId};
use kairos_platform::ElementId;
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

/// Whether a failed admission could succeed later without changing the
/// request, used by admission front-ends (`kairos-admitd`) to decide
/// between queue-and-retry and immediate permanent rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureDurability {
    /// The rejection reflects *current* occupancy — freed or repaired
    /// capacity may let the identical request through. Worth retrying.
    Transient,
    /// The request can never be admitted on this platform, regardless of
    /// load (e.g. a task too large for every element's raw capacity).
    /// Retrying is pointless.
    Permanent,
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
    },
}

impl fmt::Display for BindingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingError::NoFeasibleImplementation { task, structural } => {
                let kind = if *structural { "structurally infeasible" } else { "no feasible" };
                write!(f, "{kind} implementation for task {task}")
            }
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
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::NoRoute { channel, src, dst } => {
                write!(f, "no route for channel {channel} from {src} to {dst}")
            }
        }
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

    /// Whether the failure could clear up once capacity is released or
    /// repaired ([`FailureDurability::Transient`]) or can never succeed on
    /// this platform ([`FailureDurability::Permanent`]).
    ///
    /// The classification is conservative: `Permanent` is only reported
    /// when the request is provably hopeless: a task that exceeds every
    /// element's raw capacity, or a [`ValidationError::Analysis`]. The
    /// throughput analysis is a computation without a budget, so it fails
    /// only when the application's task graph has a cycle (its model
    /// deadlocks under any layout) or its cycle counts overflow the
    /// arithmetic — neither depends on where the tasks landed or on how
    /// many hops their channels took. Everything load-dependent — mapping and
    /// routing contention, pool exhaustion under occupancy, constraint
    /// violations that a less contended layout might avoid — is
    /// `Transient`; retry front-ends bound such retries by policy.
    pub fn durability(&self) -> FailureDurability {
        match self {
            AllocationError::Binding(BindingError::NoFeasibleImplementation {
                structural: true,
                ..
            }) => FailureDurability::Permanent,
            AllocationError::Validation(ValidationError::Analysis(_)) => {
                FailureDurability::Permanent
            }
            _ => FailureDurability::Transient,
        }
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

    #[test]
    fn phases_are_ordered() {
        assert!(Phase::Binding < Phase::Mapping);
        assert!(Phase::Mapping < Phase::Routing);
        assert!(Phase::Routing < Phase::Validation);
        assert_eq!(Phase::ALL.len(), 4);
    }

    #[test]
    fn allocation_error_reports_phase() {
        let e: AllocationError =
            BindingError::NoFeasibleImplementation { task: TaskId(3), structural: false }.into();
        assert_eq!(e.phase(), Phase::Binding);
        assert!(e.to_string().contains("binding"));
        let e: AllocationError = MappingError::SearchExhausted { ring: 2, unmapped: vec![] }.into();
        assert_eq!(e.phase(), Phase::Mapping);
        let e: AllocationError =
            RoutingError::NoRoute { channel: ChannelId(0), src: ElementId(0), dst: ElementId(1) }
                .into();
        assert_eq!(e.phase(), Phase::Routing);
        let e: AllocationError = ValidationError::Analysis(StateSpaceError::Deadlock).into();
        assert_eq!(e.phase(), Phase::Validation);
    }

    #[test]
    fn errors_have_sources_and_messages() {
        use std::error::Error;
        let e: AllocationError = ValidationError::ConstraintViolated {
            constraint_index: 0,
            allowed_period: 10,
            achieved_period: 20.0,
        }
        .into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("violated"));
        assert_eq!(Phase::Mapping.to_string(), "mapping");
    }

    #[test]
    fn durability_separates_retryable_from_hopeless() {
        let transient: [AllocationError; 4] = [
            BindingError::NoFeasibleImplementation { task: TaskId(0), structural: false }.into(),
            MappingError::SearchExhausted { ring: 1, unmapped: vec![TaskId(0)] }.into(),
            RoutingError::NoRoute { channel: ChannelId(0), src: ElementId(0), dst: ElementId(1) }
                .into(),
            ValidationError::ConstraintViolated {
                constraint_index: 0,
                allowed_period: 10,
                achieved_period: 20.0,
            }
            .into(),
        ];
        for e in &transient {
            assert_eq!(e.durability(), FailureDurability::Transient, "{e}");
        }
        let permanent: [AllocationError; 2] = [
            BindingError::NoFeasibleImplementation { task: TaskId(0), structural: true }.into(),
            ValidationError::Analysis(StateSpaceError::Deadlock).into(),
        ];
        for e in &permanent {
            assert_eq!(e.durability(), FailureDurability::Permanent, "{e}");
        }
    }
}
