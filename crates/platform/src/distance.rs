//! Hop-distance queries over the platform graph.
//!
//! The mapping phase of the paper builds a *sparse distance matrix* while it
//! searches the platform for candidate elements; cost evaluation then looks
//! distances up in that matrix and charges a penalty when a lookup fails
//! (§III-D). [`SparseDistanceMatrix`] is that structure; the search writes
//! it through a [`RowRecorder`], which resolves an origin's row once for
//! all the links expanded from one frontier entry. The free functions
//! provide full single-source BFS for metrics and the baseline mappers.

use std::collections::VecDeque;

use crate::element::ElementId;
use crate::platform::Platform;

/// Direction in which links are traversed during a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchDirection {
    /// Follow links from source to destination (data flows *to* the frontier).
    Forward,
    /// Follow links against their direction (data flows *from* the frontier).
    Backward,
    /// Ignore link direction.
    Undirected,
}

/// Single-source BFS hop distances; `None` for unreachable or failed elements.
///
/// Failed elements are opaque: they are neither visited nor traversed.
pub fn bfs_distances(
    platform: &Platform,
    source: ElementId,
    direction: SearchDirection,
) -> Vec<Option<u32>> {
    let mut dist = vec![None; platform.element_count()];
    if platform.is_failed(source) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(e) = queue.pop_front() {
        let next = dist[e.index()].expect("queued elements have distances") + 1;
        let mut visit = |n: ElementId| {
            if !platform.is_failed(n) && dist[n.index()].is_none() {
                dist[n.index()] = Some(next);
                queue.push_back(n);
            }
        };
        match direction {
            SearchDirection::Forward => platform.successors(e).iter().for_each(|&(n, _)| visit(n)),
            SearchDirection::Backward => {
                platform.predecessors(e).iter().for_each(|&(n, _)| visit(n))
            }
            SearchDirection::Undirected => platform.neighbors(e).iter().for_each(|&n| visit(n)),
        }
    }
    dist
}

/// Hop distance from `src` to `dst` (directed), `None` when unreachable.
pub fn hop_distance(platform: &Platform, src: ElementId, dst: ElementId) -> Option<u32> {
    bfs_distances(platform, src, SearchDirection::Forward)[dst.index()]
}

/// Sparse pairwise hop distances discovered during element search.
///
/// Keys are `(origin, discovered)` pairs. The matrix only ever contains
/// distances the search actually encountered; [`SparseDistanceMatrix::get`]
/// returns `None` for everything else, which the mapping cost function
/// converts into a penalty (the paper's "relative high penalty" on lookup
/// failure).
///
/// Sparse in *origins*, dense per origin: the search records from a handful
/// of origins (the elements of already-mapped peers) towards many
/// discovered elements, so each origin owns one row indexed by the
/// discovered element's id. A matrix is sized for one platform by
/// [`SparseDistanceMatrix::reset`] before each search; recording goes
/// through a [`RowRecorder`] holding the origin's row (one array write),
/// and a lookup is two array reads. Resetting keeps every row's allocation
/// for the next search.
///
/// # Examples
///
/// ```
/// use kairos_platform::{SparseDistanceMatrix, ElementId};
///
/// let mut m = SparseDistanceMatrix::new();
/// m.reset(4);
/// m.recorder(ElementId(0)).record(ElementId(3), 2);
/// assert_eq!(m.get(ElementId(0), ElementId(3)), Some(2));
/// assert_eq!(m.get(ElementId(3), ElementId(0)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseDistanceMatrix {
    /// `row_of[origin]` is the origin's index into `rows`, or [`NO_ROW`]:
    /// one entry per element of the platform [`Self::reset`] sized it for.
    row_of: Vec<u32>,
    /// One row per origin, indexed by discovered element id, as long as
    /// `row_of` from its origin's first recording on; [`UNKNOWN`] marks
    /// pairs never recorded. Only the first
    /// `origins.len()` rows are live, the rest are spare allocations kept
    /// by [`Self::clear`].
    rows: Vec<Vec<u32>>,
    /// The origins owning `rows[..origins.len()]`, in first-recorded order.
    origins: Vec<ElementId>,
}

/// `row_of` entry of an element that never was an origin.
const NO_ROW: u32 = u32::MAX;
/// Row cell of a pair never recorded. Real hop counts are bounded by the
/// element count, itself a `u32`.
const UNKNOWN: u32 = u32::MAX;

impl SparseDistanceMatrix {
    /// Creates an empty matrix for no platform: [`Self::reset`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer into `origin`'s row: the row is resolved (and created and
    /// sized, on first use) here, once, and each [`RowRecorder::record`]
    /// then writes one cell — what a search expanding many links from one
    /// origin calls once per frontier entry.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not an element of the platform the matrix was
    /// last [`reset`](Self::reset) for.
    pub fn recorder(&mut self, origin: ElementId) -> RowRecorder<'_> {
        if self.row_of[origin.index()] == NO_ROW {
            self.row_of[origin.index()] = self.origins.len() as u32;
            self.origins.push(origin);
            if self.rows.len() < self.origins.len() {
                self.rows.push(Vec::new());
            }
        }
        let width = self.row_of.len();
        let row = &mut self.rows[self.row_of[origin.index()] as usize];
        if row.len() < width {
            row.resize(width, UNKNOWN);
        }
        RowRecorder { row }
    }

    /// Looks up the recorded distance from `origin` to `discovered`.
    pub fn get(&self, origin: ElementId, discovered: ElementId) -> Option<u32> {
        if origin == discovered {
            return Some(0);
        }
        let row = *self.row_of.get(origin.index())?;
        if row == NO_ROW {
            return None;
        }
        self.rows[row as usize].get(discovered.index()).copied().filter(|&hops| hops != UNKNOWN)
    }

    /// Distance in either direction, preferring `origin -> discovered`.
    ///
    /// The platform's bidirectional NoC channels make hop counts symmetric in
    /// practice, so a reverse entry is an acceptable estimate when the
    /// forward one was never discovered.
    pub fn get_symmetric(&self, a: ElementId, b: ElementId) -> Option<u32> {
        self.get(a, b).or_else(|| self.get(b, a))
    }

    /// [`Self::clear`], then sizes the matrix for a platform of
    /// `element_count` elements: what a long-lived matrix calls before
    /// each use, so it serves whatever platform it is handed.
    pub fn reset(&mut self, element_count: usize) {
        self.clear();
        self.row_of.resize(element_count, NO_ROW);
    }

    /// Removes all recorded pairs, keeping the allocations.
    pub fn clear(&mut self) {
        for (row, origin) in self.rows.iter_mut().zip(self.origins.drain(..)) {
            row.clear();
            self.row_of[origin.index()] = NO_ROW;
        }
    }
}

/// One origin's row of a [`SparseDistanceMatrix`], open for writing: see
/// [`SparseDistanceMatrix::recorder`].
#[derive(Debug)]
pub struct RowRecorder<'a> {
    row: &'a mut Vec<u32>,
}

impl RowRecorder<'_> {
    /// Records the distance from the row's origin to `discovered`, keeping
    /// the minimum when a pair is recorded twice. `hops` must be below
    /// `u32::MAX`, which no hop count on a `u32`-indexed platform reaches.
    ///
    /// # Panics
    ///
    /// Panics if `discovered` is not an element of the matrix's platform.
    #[inline]
    pub fn record(&mut self, discovered: ElementId, hops: u32) {
        debug_assert_ne!(hops, UNKNOWN, "hop counts are bounded by the element count");
        let cell = &mut self.row[discovered.index()];
        *cell = (*cell).min(hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlatformBuilder;
    use crate::element::ElementKind;
    use crate::resource::ResourceVector;

    fn line(n: usize) -> (Platform, Vec<ElementId>) {
        let mut b = PlatformBuilder::new("line");
        let ids: Vec<_> =
            (0..n).map(|_| b.add_element(ElementKind::Dsp, ResourceVector::splat(1))).collect();
        for w in ids.windows(2) {
            b.connect(w[0], w[1], 100, 2);
        }
        (b.build(), ids)
    }

    #[test]
    fn bfs_on_line_counts_hops() {
        let (p, ids) = line(4);
        let d = bfs_distances(&p, ids[0], SearchDirection::Forward);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(hop_distance(&p, ids[3], ids[0]), Some(3));
    }

    #[test]
    fn bfs_respects_direction() {
        let mut b = PlatformBuilder::new("dir");
        let a = b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        let c = b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        b.connect_directed(a, c, 10, 1);
        let p = b.build();
        assert_eq!(hop_distance(&p, a, c), Some(1));
        assert_eq!(hop_distance(&p, c, a), None);
        let back = bfs_distances(&p, c, SearchDirection::Backward);
        assert_eq!(back[a.index()], Some(1));
        let und = bfs_distances(&p, c, SearchDirection::Undirected);
        assert_eq!(und[a.index()], Some(1));
    }

    #[test]
    fn bfs_skips_failed_elements() {
        let (mut p, ids) = line(4);
        p.fail_element(ids[1]);
        let d = bfs_distances(&p, ids[0], SearchDirection::Forward);
        assert_eq!(d[ids[1].index()], None);
        assert_eq!(d[ids[2].index()], None, "failure cuts the line");
        p.fail_element(ids[0]);
        let d = bfs_distances(&p, ids[0], SearchDirection::Forward);
        assert!(d.iter().all(Option::is_none));
    }

    #[test]
    fn sparse_matrix_keeps_minimum() {
        let mut m = SparseDistanceMatrix::new();
        m.reset(2);
        let mut row = m.recorder(ElementId(0));
        for hops in [5, 3, 9] {
            row.record(ElementId(1), hops);
        }
        assert_eq!(m.get(ElementId(0), ElementId(1)), Some(3));
        assert_eq!(m.get(ElementId(1), ElementId(0)), None);
    }

    /// A pair written several times keeps its minimum, and a second
    /// recorder on the same origin writes the same row.
    #[test]
    fn recorders_keep_each_pairs_minimum() {
        let mut m = SparseDistanceMatrix::new();
        m.reset(6);
        let writes = [(1, 3, 4), (1, 3, 2), (2, 0, 1), (1, 5, 3), (4, 1, 2), (1, 3, 7)];
        for &(o, d, hops) in &writes {
            m.recorder(ElementId(o)).record(ElementId(d), hops);
        }
        assert_eq!(m.get(ElementId(1), ElementId(3)), Some(2));
        assert_eq!(m.get(ElementId(3), ElementId(1)), None);
        assert_eq!(m.get_symmetric(ElementId(3), ElementId(1)), Some(2));
        assert_eq!(m.get(ElementId(0), ElementId(2)), None);
        assert_eq!(m.get_symmetric(ElementId(0), ElementId(2)), Some(1));
    }

    #[test]
    fn a_reset_matrix_serves_the_next_platform() {
        let mut m = SparseDistanceMatrix::new();
        m.reset(4);
        m.recorder(ElementId(1)).record(ElementId(3), 2);
        m.recorder(ElementId(3)).record(ElementId(1), 5);
        assert_eq!(m.get(ElementId(1), ElementId(3)), Some(2));
        assert_eq!(m.get(ElementId(3), ElementId(1)), Some(5));
        m.clear();
        assert_eq!(m.get(ElementId(1), ElementId(3)), None);
        assert_eq!(m.get(ElementId(3), ElementId(1)), None);
        m.recorder(ElementId(3)).record(ElementId(1), 5);
        assert_eq!(m.get_symmetric(ElementId(1), ElementId(3)), Some(5));
        // Reset for a smaller platform: nothing of the larger one shows.
        m.reset(2);
        assert_eq!(m.get(ElementId(3), ElementId(1)), None);
        assert_eq!(m.get(ElementId(1), ElementId(0)), None);
        m.recorder(ElementId(1)).record(ElementId(0), 1);
        assert_eq!(m.get(ElementId(1), ElementId(0)), Some(1));
        assert_eq!(m.get(ElementId(1), ElementId(3)), None, "no stale tail in a reused row");
    }

    #[test]
    #[should_panic]
    fn an_origin_beyond_the_platform_is_refused() {
        let mut m = SparseDistanceMatrix::new();
        m.reset(2);
        m.recorder(ElementId(2));
    }

    #[test]
    fn sparse_matrix_self_distance_is_zero() {
        let m = SparseDistanceMatrix::new();
        assert_eq!(m.get(ElementId(7), ElementId(7)), Some(0));
        assert_eq!(m.get(ElementId(7), ElementId(6)), None);
    }

    #[test]
    fn symmetric_lookup_falls_back() {
        let mut m = SparseDistanceMatrix::new();
        m.reset(7);
        m.recorder(ElementId(2)).record(ElementId(5), 4);
        assert_eq!(m.get_symmetric(ElementId(5), ElementId(2)), Some(4));
        assert_eq!(m.get_symmetric(ElementId(5), ElementId(6)), None);
        m.clear();
        assert_eq!(m.get_symmetric(ElementId(5), ElementId(2)), None);
    }
}
