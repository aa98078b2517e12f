//! Directed breadth-first element search (paper §III-B).
//!
//! "In every iteration, we start searching in the topological neighborhood
//! of the elements that were allocated in the previous iteration. [...] In
//! the BFS, we try to match the communication infrastructure of the platform
//! to the structure of the task graph, by taking the direction of
//! communication channels between tasks into account. In this search, we
//! keep track of the distance between a newly discovered element and the
//! origins of the BFS, to estimate the cost of the communication routes."
//!
//! [`ElementSearch`] advances one BFS ring per [`ElementSearch::expand`]
//! call: forward along links from elements holding *producers* for the ring
//! (`E+`), backward along links from elements holding *consumers* (`E-`).
//! Distances from each origin are recorded into a
//! [`SparseDistanceMatrix`], through one [`RowRecorder`] per frontier entry:
//! the origin's row is resolved once, not once per link expanded from it.
//! Lookups that the search never reached stay absent and are charged the
//! miss penalty by the cost function.
//!
//! [`RowRecorder`]: kairos_platform::RowRecorder

use kairos_platform::{ElementId, Platform, SparseDistanceMatrix};

use crate::workspace::Marks;

/// Incremental multi-source directed BFS over the platform.
///
/// The working sets are dense, indexed by `ElementId`: one generation stamp
/// per element for each visited set plus the list of discovered elements. A
/// search value is reusable — [`ElementSearch::restart`] re-seeds it without
/// giving up its allocations, and forgets the visited sets in O(1).
#[derive(Debug, Clone, Default)]
pub struct ElementSearch {
    /// Current forward frontier: `(element, origin)` pairs.
    forward: Vec<(ElementId, ElementId)>,
    /// Current backward frontier: `(element, origin)` pairs.
    backward: Vec<(ElementId, ElementId)>,
    /// The frontier under construction inside `expand`, swapped with
    /// `forward`/`backward` so no ring allocates a new one.
    next: Vec<(ElementId, ElementId)>,
    /// Size of the platform searched: what the three sets below cover.
    element_count: usize,
    visited_forward: Marks,
    visited_backward: Marks,
    is_discovered: Marks,
    /// Everything ever reported by `expand`, in the order reported.
    discovered: Vec<ElementId>,
    /// Hops from the frontier origins.
    depth: u32,
}

impl ElementSearch {
    /// Creates a search over a platform of `element_count` elements,
    /// starting *at* the given origin sets.
    ///
    /// `forward_origins` are the elements `E+` of already-mapped producers:
    /// the search follows links in their direction of data flow. Conversely
    /// `backward_origins` (`E-`) are followed against link direction.
    /// The origins themselves form ring 0 and are reported by the first
    /// [`ElementSearch::expand`] call — an element already hosting a mapped
    /// task may still have capacity for more.
    pub fn new(
        element_count: usize,
        forward_origins: &[ElementId],
        backward_origins: &[ElementId],
    ) -> Self {
        let mut search = ElementSearch::default();
        search.restart_on(element_count, forward_origins, backward_origins);
        search
    }

    /// [`ElementSearch::restart`] on a platform of `element_count` elements,
    /// which need not be the one searched before.
    pub(crate) fn restart_on(
        &mut self,
        element_count: usize,
        forward_origins: &[ElementId],
        backward_origins: &[ElementId],
    ) {
        self.element_count = element_count;
        self.restart(forward_origins, backward_origins);
    }

    /// Forgets everything and starts over at the given origin sets (see
    /// [`ElementSearch::new`]), on the same platform.
    pub fn restart(&mut self, forward_origins: &[ElementId], backward_origins: &[ElementId]) {
        self.forward.clear();
        self.backward.clear();
        self.visited_forward.reset(self.element_count);
        self.visited_backward.reset(self.element_count);
        self.is_discovered.reset(self.element_count);
        self.discovered.clear();
        self.depth = 0;
        for &o in forward_origins {
            if self.visited_forward.insert(o.index()) {
                self.forward.push((o, o));
            }
        }
        for &o in backward_origins {
            if self.visited_backward.insert(o.index()) {
                self.backward.push((o, o));
            }
        }
    }

    /// Number of BFS rings expanded so far.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// `true` when both frontiers are exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.forward.is_empty() && self.backward.is_empty()
    }

    /// All elements discovered so far, in discovery order (ring by ring,
    /// ascending within a ring).
    pub fn discovered(&self) -> &[ElementId] {
        &self.discovered
    }

    /// Advances the search by one ring and appends the newly discovered
    /// elements to `fresh`, ascending (ring 0 = the origins themselves).
    /// Failed elements are neither reported nor traversed. Distances from
    /// each origin are recorded into `distances`.
    ///
    /// Appends nothing once the search is exhausted.
    pub fn expand(
        &mut self,
        platform: &Platform,
        distances: &mut SparseDistanceMatrix,
        fresh: &mut Vec<ElementId>,
    ) {
        let ring_start = self.discovered.len();

        if self.depth == 0 {
            // Ring 0: report the origins.
            for &(e, origin) in self.forward.iter().chain(self.backward.iter()) {
                distances.recorder(origin).record(e, 0);
                if !platform.is_failed(e) && self.is_discovered.insert(e.index()) {
                    self.discovered.push(e);
                }
            }
        } else {
            self.next.clear();
            for &(e, origin) in &self.forward {
                let mut row = distances.recorder(origin);
                for &(n, _) in platform.successors(e) {
                    if platform.is_failed(n) {
                        continue;
                    }
                    row.record(n, self.depth);
                    if self.visited_forward.insert(n.index()) {
                        self.next.push((n, origin));
                        if self.is_discovered.insert(n.index()) {
                            self.discovered.push(n);
                        }
                    }
                }
            }
            std::mem::swap(&mut self.forward, &mut self.next);
            self.next.clear();
            for &(e, origin) in &self.backward {
                let mut row = distances.recorder(origin);
                for &(n, _) in platform.predecessors(e) {
                    if platform.is_failed(n) {
                        continue;
                    }
                    row.record(n, self.depth);
                    if self.visited_backward.insert(n.index()) {
                        self.next.push((n, origin));
                        if self.is_discovered.insert(n.index()) {
                            self.discovered.push(n);
                        }
                    }
                }
            }
            std::mem::swap(&mut self.backward, &mut self.next);
        }
        self.depth += 1;
        self.discovered[ring_start..].sort_unstable();
        fresh.extend_from_slice(&self.discovered[ring_start..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_platform::topology;

    /// A distance matrix sized for `platform`, as a mapping call sizes it.
    fn matrix(platform: &Platform) -> SparseDistanceMatrix {
        let mut m = SparseDistanceMatrix::new();
        m.reset(platform.element_count());
        m
    }

    /// One `expand` into a fresh buffer: the ring it discovered.
    fn ring(
        search: &mut ElementSearch,
        platform: &Platform,
        dist: &mut SparseDistanceMatrix,
    ) -> Vec<ElementId> {
        let mut fresh = Vec::new();
        search.expand(platform, dist, &mut fresh);
        fresh
    }

    #[test]
    fn rings_expand_in_hop_order() {
        let platform = topology::dsp_line(5);
        let e: Vec<_> = platform.element_ids().collect();
        let mut dist = matrix(&platform);
        let mut search = ElementSearch::new(platform.element_count(), &[e[0]], &[]);
        assert_eq!(ring(&mut search, &platform, &mut dist), vec![e[0]]);
        assert_eq!(ring(&mut search, &platform, &mut dist), vec![e[1]]);
        assert_eq!(ring(&mut search, &platform, &mut dist), vec![e[2]]);
        assert_eq!(search.depth(), 3);
        assert_eq!(dist.get(e[0], e[2]), Some(2));
        assert_eq!(dist.get(e[0], e[4]), None, "not yet reached");
    }

    #[test]
    fn search_exhausts_on_small_platform() {
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let mut dist = matrix(&platform);
        let mut search = ElementSearch::new(platform.element_count(), &[e[1]], &[]);
        let mut all = Vec::new();
        loop {
            let found = ring(&mut search, &platform, &mut dist);
            if found.is_empty() {
                break;
            }
            all.extend(found);
        }
        assert!(search.is_exhausted());
        assert_eq!(all.len(), 3);
        assert_eq!(search.discovered().len(), 3);
    }

    #[test]
    fn forward_and_backward_respect_direction() {
        use kairos_platform::{ElementKind, PlatformBuilder, ResourceVector};
        // a -> b -> c (directed only)
        let mut b = PlatformBuilder::new("dir");
        let ea = b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        let eb = b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        let ec = b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        b.connect_directed(ea, eb, 10, 1);
        b.connect_directed(eb, ec, 10, 1);
        let platform = b.build();

        let mut dist = matrix(&platform);
        let mut fwd = ElementSearch::new(platform.element_count(), &[ea], &[]);
        ring(&mut fwd, &platform, &mut dist);
        assert_eq!(ring(&mut fwd, &platform, &mut dist), vec![eb]);

        let mut bwd = ElementSearch::new(platform.element_count(), &[], &[ec]);
        ring(&mut bwd, &platform, &mut dist);
        assert_eq!(ring(&mut bwd, &platform, &mut dist), vec![eb]);
        // Forward from c finds nothing.
        let mut dead = ElementSearch::new(platform.element_count(), &[ec], &[]);
        ring(&mut dead, &platform, &mut dist);
        assert!(ring(&mut dead, &platform, &mut dist).is_empty());
        assert!(dead.is_exhausted());
    }

    #[test]
    fn multi_origin_search_records_per_origin_distances() {
        let platform = topology::dsp_line(5);
        let e: Vec<_> = platform.element_ids().collect();
        let mut dist = matrix(&platform);
        let mut search = ElementSearch::new(platform.element_count(), &[e[0], e[4]], &[]);
        ring(&mut search, &platform, &mut dist); // origins
        ring(&mut search, &platform, &mut dist); // ring 1
        assert_eq!(dist.get(e[0], e[1]), Some(1));
        assert_eq!(dist.get(e[4], e[3]), Some(1));
        // e2 not yet discovered from either side.
        assert_eq!(dist.get(e[0], e[2]), None);
        let ring2 = ring(&mut search, &platform, &mut dist);
        assert_eq!(ring2, vec![e[2]]);
        // Discovered once (shared visited set), but distance recorded from
        // whichever origin reached it.
        assert!(dist.get(e[0], e[2]).is_some() || dist.get(e[4], e[2]).is_some());
    }

    #[test]
    fn failed_elements_are_opaque() {
        let mut platform = topology::dsp_line(4);
        let e: Vec<_> = platform.element_ids().collect();
        platform.fail_element(e[1]);
        let mut dist = matrix(&platform);
        let mut search = ElementSearch::new(platform.element_count(), &[e[0]], &[]);
        assert_eq!(ring(&mut search, &platform, &mut dist), vec![e[0]]);
        assert!(ring(&mut search, &platform, &mut dist).is_empty(), "wall of failure");
    }

    #[test]
    fn duplicate_origins_are_deduplicated() {
        let platform = topology::dsp_line(3);
        let e: Vec<_> = platform.element_ids().collect();
        let mut dist = matrix(&platform);
        let mut search = ElementSearch::new(platform.element_count(), &[e[0], e[0]], &[e[0]]);
        assert_eq!(ring(&mut search, &platform, &mut dist), vec![e[0]]);
    }

    #[test]
    fn a_restarted_search_forgets_the_previous_one() {
        let platform = topology::dsp_line(4);
        let e: Vec<_> = platform.element_ids().collect();
        let mut dist = matrix(&platform);
        let mut search = ElementSearch::new(platform.element_count(), &[e[0]], &[e[3]]);
        while !search.is_exhausted() {
            ring(&mut search, &platform, &mut dist);
        }
        assert_eq!(search.discovered().len(), 4);

        search.restart(&[e[3]], &[]);
        assert_eq!(search.depth(), 0);
        assert!(search.discovered().is_empty());
        assert_eq!(ring(&mut search, &platform, &mut dist), vec![e[3]]);
        assert_eq!(ring(&mut search, &platform, &mut dist), vec![e[2]]);
        assert_eq!(search.discovered(), [e[3], e[2]]);
    }
}
