//! Processing elements — the nodes `E` of the platform graph `P = <E, L>`.

use std::fmt;

use crate::resource::ResourceVector;

/// Identifier of a processing element within one [`Platform`](crate::Platform).
///
/// Ids are dense indices assigned by the [`PlatformBuilder`](crate::PlatformBuilder)
/// in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElementId(pub u32);

impl ElementId {
    /// The dense index of this element.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The architectural class of a processing element.
///
/// Task implementations target exactly one kind; the binding phase only
/// considers elements of the matching kind. The set mirrors the CRISP
/// platform of the paper (Fig. 6): an ARM host, an FPGA, packages of DSPs,
/// on-chip memories and hardware test units, plus explicit I/O interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ElementKind {
    /// General-purpose host processor (ARM926 in CRISP).
    Arm,
    /// Xentium-like streaming DSP core.
    Dsp,
    /// Reconfigurable fabric.
    Fpga,
    /// On-chip memory tile.
    Memory,
    /// Dependability/hardware test unit.
    TestUnit,
    /// Dedicated I/O interface (ADC/DAC, network port).
    Io,
}

impl ElementKind {
    /// All element kinds, in declaration order (`ALL[k] as usize == k`).
    pub const ALL: [ElementKind; 6] = [
        ElementKind::Arm,
        ElementKind::Dsp,
        ElementKind::Fpga,
        ElementKind::Memory,
        ElementKind::TestUnit,
        ElementKind::Io,
    ];

    /// Short label used in names and `Display` output.
    pub const fn label(self) -> &'static str {
        match self {
            ElementKind::Arm => "arm",
            ElementKind::Dsp => "dsp",
            ElementKind::Fpga => "fpga",
            ElementKind::Memory => "mem",
            ElementKind::TestUnit => "tst",
            ElementKind::Io => "io",
        }
    }
}

impl fmt::Display for ElementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of one processing element.
///
/// The *dynamic* state (free resources, residing tasks, failure status) lives
/// in the [`Platform`](crate::Platform) so that elements stay cheap immutable
/// records and platform state can be checkpointed wholesale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    id: ElementId,
    kind: ElementKind,
    name: String,
    capacity: ResourceVector,
}

impl Element {
    pub(crate) fn new(
        id: ElementId,
        kind: ElementKind,
        name: String,
        capacity: ResourceVector,
    ) -> Self {
        Element { id, kind, name, capacity }
    }

    /// This element's identifier.
    #[inline]
    pub fn id(&self) -> ElementId {
        self.id
    }

    /// The architectural class of the element.
    #[inline]
    pub fn kind(&self) -> ElementKind {
        self.kind
    }

    /// Human-readable name (e.g. `pkg2/dsp4`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total resources provided when the element is idle.
    #[inline]
    pub fn capacity(&self) -> ResourceVector {
        self.capacity
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.name, self.kind, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_accessors() {
        let e = Element::new(
            ElementId(3),
            ElementKind::Dsp,
            "pkg0/dsp3".to_string(),
            ResourceVector::new(1000, 64, 0, 0),
        );
        assert_eq!(e.id(), ElementId(3));
        assert_eq!(e.id().index(), 3);
        assert_eq!(e.kind(), ElementKind::Dsp);
        assert_eq!(e.name(), "pkg0/dsp3");
        assert_eq!(e.capacity().get(crate::ResourceKind::Compute), 1000);
    }

    #[test]
    fn kinds_index_their_own_position_in_all() {
        // `Platform` keys its per-kind table on `kind as usize`.
        for (k, kind) in ElementKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, k);
        }
    }

    #[test]
    fn display_contains_name_and_kind() {
        let e = Element::new(
            ElementId(0),
            ElementKind::Fpga,
            "fpga0".to_string(),
            ResourceVector::ZERO,
        );
        let s = e.to_string();
        assert!(s.contains("fpga0") && s.contains("fpga"));
        assert_eq!(ElementId(7).to_string(), "e7");
    }

    #[test]
    fn kinds_have_unique_labels() {
        let mut labels: Vec<_> = ElementKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ElementKind::ALL.len());
    }
}
