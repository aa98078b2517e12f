//! Task implementations.
//!
//! The paper's design flow allows several implementations per task, "provided
//! by different IP manufacturers, using multiple QoS levels, or targeting
//! different memory types and I/O interfaces". An implementation fixes the
//! element kind it runs on, the resource vector it needs, its execution time
//! and its cost (energy), from which the binding phase picks.

use std::fmt;

use kairos_platform::{ElementKind, ResourceVector};

/// Index of an implementation within one task's alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImplId(pub u16);

impl ImplId {
    /// The dense index of this implementation.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ImplId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// One concrete way of executing a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Implementation {
    target: ElementKind,
    requires: ResourceVector,
    exec_cycles: u64,
    energy: u64,
}

impl Implementation {
    /// Creates an implementation.
    ///
    /// * `target` — the element kind this binary/bitstream runs on;
    /// * `requires` — the resource vector claimed while resident;
    /// * `exec_cycles` — worst-case execution time per firing, in abstract
    ///   cycles (feeds the SDF validation model);
    /// * `energy` — cost per firing, the binding phase's objective.
    pub fn new(
        target: ElementKind,
        requires: ResourceVector,
        exec_cycles: u64,
        energy: u64,
    ) -> Self {
        Implementation { target, requires, exec_cycles, energy }
    }

    /// Element kind this implementation targets.
    #[inline]
    pub fn target(&self) -> ElementKind {
        self.target
    }

    /// Resource vector required on the hosting element.
    #[inline]
    pub fn requires(&self) -> ResourceVector {
        self.requires
    }

    /// Worst-case execution time per firing, in abstract cycles.
    #[inline]
    pub fn exec_cycles(&self) -> u64 {
        self.exec_cycles
    }

    /// Energy cost per firing, the binding objective.
    #[inline]
    pub fn energy(&self) -> u64 {
        self.energy
    }
}

impl fmt::Display for Implementation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "on {} needs {} ({} cyc, {} nJ)",
            self.target, self.requires, self.exec_cycles, self.energy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let imp =
            Implementation::new(ElementKind::Dsp, ResourceVector::new(700, 32, 0, 0), 500, 42);
        assert_eq!(imp.target(), ElementKind::Dsp);
        assert_eq!(imp.requires(), ResourceVector::new(700, 32, 0, 0));
        assert_eq!(imp.exec_cycles(), 500);
        assert_eq!(imp.energy(), 42);
    }

    #[test]
    fn display_mentions_target() {
        let imp = Implementation::new(ElementKind::Fpga, ResourceVector::ZERO, 1, 1);
        assert!(imp.to_string().contains("fpga"));
        assert_eq!(ImplId(3).to_string(), "i3");
        assert_eq!(ImplId(3).index(), 3);
    }
}
