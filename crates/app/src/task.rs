//! Tasks — the nodes `T` of an application graph `A = <T, C>`.

use std::fmt;

use crate::implementation::Implementation;

/// Identifier of a task within one [`Application`](crate::Application).
///
/// Ids are dense indices assigned by the
/// [`ApplicationBuilder`](crate::ApplicationBuilder) in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The dense index of this task.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Structural role of a task in the stream graph.
///
/// The TGFF-like generator of the paper parameterises applications by their
/// number of input, internal and output tasks; I/O tasks are also the ones
/// whose locations tend to be fixed by the binding phase (they need specific
/// interfaces), seeding the initial partial mapping `M0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskRole {
    /// Consumes data from outside the platform (sources).
    Input,
    /// Pure stream processing.
    Internal,
    /// Produces data for outside the platform (sinks).
    Output,
}

impl fmt::Display for TaskRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskRole::Input => f.write_str("input"),
            TaskRole::Internal => f.write_str("internal"),
            TaskRole::Output => f.write_str("output"),
        }
    }
}

/// One task of an application, with its alternative implementations.
///
/// Every task carries at least one [`Implementation`]; the binding phase
/// selects exactly one of them per allocation attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    id: TaskId,
    name: String,
    role: TaskRole,
    implementations: Vec<Implementation>,
}

impl Task {
    pub(crate) fn new(
        id: TaskId,
        name: String,
        role: TaskRole,
        implementations: Vec<Implementation>,
    ) -> Self {
        Task { id, name, role, implementations }
    }

    /// This task's identifier.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Human-readable name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's structural role.
    #[inline]
    pub fn role(&self) -> TaskRole {
        self.role
    }

    /// The alternative implementations provided for this task.
    #[inline]
    pub fn implementations(&self) -> &[Implementation] {
        &self.implementations
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} '{}' ({}, {} impls)",
            self.id,
            self.name,
            self.role,
            self.implementations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_platform::{ElementKind, ResourceVector};

    #[test]
    fn task_accessors() {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), 100, 10);
        let t = Task::new(TaskId(2), "fir".into(), TaskRole::Internal, vec![imp]);
        assert_eq!(t.id(), TaskId(2));
        assert_eq!(t.name(), "fir");
        assert_eq!(t.role(), TaskRole::Internal);
        assert_eq!(t.implementations().len(), 1);
        assert_eq!(t.id().index(), 2);
    }

    #[test]
    fn display_is_informative() {
        let imp = Implementation::new(ElementKind::Arm, ResourceVector::ZERO, 1, 1);
        let t = Task::new(TaskId(0), "src".into(), TaskRole::Input, vec![imp]);
        let s = t.to_string();
        assert!(s.contains("src") && s.contains("input") && s.contains("t0"));
        assert_eq!(TaskId(5).to_string(), "t5");
    }
}
