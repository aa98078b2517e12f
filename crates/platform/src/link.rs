//! Directed NoC links — the edges `L ⊆ E × E` of the platform graph.
//!
//! Following Kavaldjiev et al. (cited as [11] in the paper), links time-share
//! their physical bandwidth through a fixed number of *virtual channels*. A
//! routed application channel reserves one virtual channel and a bandwidth
//! share on every link of its route.

use std::fmt;

use crate::element::ElementId;

/// Identifier of a directed link within one [`Platform`](crate::Platform).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The dense index of this link.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Static description of a directed communication link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    id: LinkId,
    src: ElementId,
    dst: ElementId,
    bandwidth: u64,
    virtual_channels: u16,
}

impl Link {
    pub(crate) fn new(
        id: LinkId,
        src: ElementId,
        dst: ElementId,
        bandwidth: u64,
        virtual_channels: u16,
    ) -> Self {
        Link { id, src, dst, bandwidth, virtual_channels }
    }

    /// This link's identifier.
    #[inline]
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Source element.
    #[inline]
    pub fn src(&self) -> ElementId {
        self.src
    }

    /// Destination element.
    #[inline]
    pub fn dst(&self) -> ElementId {
        self.dst
    }

    /// Total physical bandwidth, in abstract units per time-slot.
    #[inline]
    pub fn bandwidth(&self) -> u64 {
        self.bandwidth
    }

    /// Number of virtual channels that may time-share this link.
    #[inline]
    pub fn virtual_channels(&self) -> u16 {
        self.virtual_channels
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} (bw {}, vc {})",
            self.id, self.src, self.dst, self.bandwidth, self.virtual_channels
        )
    }
}

/// Mutable occupancy of a link: remaining bandwidth and free virtual channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkState {
    pub free_bandwidth: u64,
    pub free_virtual_channels: u16,
}

impl LinkState {
    pub(crate) fn idle(link: &Link) -> Self {
        LinkState {
            free_bandwidth: link.bandwidth(),
            free_virtual_channels: link.virtual_channels(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_accessors() {
        let l = Link::new(LinkId(2), ElementId(0), ElementId(1), 1000, 4);
        assert_eq!(l.id(), LinkId(2));
        assert_eq!(l.src(), ElementId(0));
        assert_eq!(l.dst(), ElementId(1));
        assert_eq!(l.bandwidth(), 1000);
        assert_eq!(l.virtual_channels(), 4);
        assert_eq!(l.id().index(), 2);
    }

    #[test]
    fn idle_state_matches_capacity() {
        let l = Link::new(LinkId(0), ElementId(0), ElementId(1), 500, 2);
        let s = LinkState::idle(&l);
        assert_eq!(s.free_bandwidth, 500);
        assert_eq!(s.free_virtual_channels, 2);
    }

    #[test]
    fn display_mentions_endpoints() {
        let l = Link::new(LinkId(9), ElementId(3), ElementId(4), 100, 1);
        let s = l.to_string();
        assert!(s.contains("e3") && s.contains("e4") && s.contains("l9"));
    }
}
