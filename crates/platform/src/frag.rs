//! External resource fragmentation, as defined in §III-A of the paper:
//!
//! > We define external resource fragmentation as the percentage of pairs of
//! > adjacent elements of which only one element is used, over all pairs of
//! > adjacent elements in the platform.
//!
//! Low fragmentation means used elements form contiguous regions, leaving
//! contiguous free regions for future applications.
//!
//! These are the walks that *define* the occupancy metrics, O(|E| + pairs)
//! each. A platform keeps the counts behind the ratios current under its
//! mutators ([`Platform::totals`]); the walks are what those totals are
//! audited and tested against. Only the island count has no kept total.

use crate::element::ElementId;
use crate::platform::Platform;

/// The unordered adjacent element pairs of the platform, without
/// materialising them: each `{a, b}` with a link in either direction is
/// yielded once, as `(a, b)` with `a < b`, in ascending order.
fn pairs(platform: &Platform) -> impl Iterator<Item = (ElementId, ElementId)> + '_ {
    platform.element_ids().flat_map(move |e| {
        platform.neighbors(e).iter().filter(move |&&n| e < n).map(move |&n| (e, n))
    })
}

/// `(mixed, total)`: how many of the platform's unordered adjacent element
/// pairs have exactly one used element, and how many pairs there are — the
/// numerator and denominator of [`external_fragmentation`], for callers
/// that aggregate the ratio over several platforms.
pub fn adjacent_pair_counts(platform: &Platform) -> (usize, usize) {
    let (mut mixed, mut total) = (0usize, 0usize);
    for (a, b) in pairs(platform) {
        total += 1;
        mixed += usize::from(platform.is_used(a) != platform.is_used(b));
    }
    (mixed, total)
}

/// External resource fragmentation in `[0, 1]`.
///
/// Returns 0.0 for platforms without any adjacent pair (no links).
///
/// # Examples
///
/// ```
/// use kairos_platform::{topology, external_fragmentation};
///
/// let platform = topology::dsp_line(3);
/// assert_eq!(external_fragmentation(&platform), 0.0); // nothing used
/// ```
pub fn external_fragmentation(platform: &Platform) -> f64 {
    let (mixed, total) = adjacent_pair_counts(platform);
    if total == 0 {
        return 0.0;
    }
    mixed as f64 / total as f64
}

/// Fraction of elements with at least one resident task, in `[0, 1]`.
pub fn element_utilisation(platform: &Platform) -> f64 {
    if platform.element_count() == 0 {
        return 0.0;
    }
    let used = platform.element_ids().filter(|&e| platform.is_used(e)).count();
    used as f64 / platform.element_count() as f64
}

/// Number of connected "islands" of free (unused, non-failed) elements.
///
/// A platform fragmenting into many small free islands is the failure mode
/// the fragmentation objective of the mapping cost function tries to avoid.
pub fn free_island_count(platform: &Platform) -> usize {
    let free = |e: ElementId| !platform.is_used(e) && !platform.is_failed(e);
    let mut visited = vec![false; platform.element_count()];
    let mut islands = 0;
    for start in platform.element_ids() {
        if visited[start.index()] || !free(start) {
            continue;
        }
        islands += 1;
        let mut stack = vec![start];
        visited[start.index()] = true;
        while let Some(e) = stack.pop() {
            for &nb in platform.neighbors(e) {
                if !visited[nb.index()] && free(nb) {
                    visited[nb.index()] = true;
                    stack.push(nb);
                }
            }
        }
    }
    islands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlatformBuilder;
    use crate::element::ElementKind;
    use crate::platform::{AppId, Occupant};
    use crate::resource::ResourceVector;

    fn line(n: usize) -> (Platform, Vec<ElementId>) {
        let mut b = PlatformBuilder::new("line");
        let ids: Vec<_> =
            (0..n).map(|_| b.add_element(ElementKind::Dsp, ResourceVector::splat(10))).collect();
        for w in ids.windows(2) {
            b.connect(w[0], w[1], 100, 2);
        }
        (b.build(), ids)
    }

    fn use_element(p: &mut Platform, e: ElementId, task: u32) {
        p.claim(e, Occupant { app: AppId(0), task, claimed: ResourceVector::splat(1) }).unwrap();
    }

    #[test]
    fn empty_platform_has_zero_fragmentation() {
        let (p, _) = line(5);
        assert_eq!(external_fragmentation(&p), 0.0);
        assert_eq!(element_utilisation(&p), 0.0);
        assert_eq!(free_island_count(&p), 1);
    }

    #[test]
    fn adjacent_pairs_are_unique_and_undirected() {
        let (p, _) = line(4);
        let pairs: Vec<_> = pairs(&p).collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(adjacent_pair_counts(&p), (0, 3));
        for (a, b) in &pairs {
            assert!(a < b);
        }
    }

    #[test]
    fn fully_used_platform_has_zero_fragmentation() {
        let (mut p, ids) = line(4);
        for (t, &e) in ids.iter().enumerate() {
            use_element(&mut p, e, t as u32);
        }
        assert_eq!(external_fragmentation(&p), 0.0);
        assert_eq!(element_utilisation(&p), 1.0);
        assert_eq!(free_island_count(&p), 0);
    }

    #[test]
    fn alternating_usage_maximises_fragmentation() {
        // line of 4: used(0), free(1), used(2), free(3) -> all 3 pairs mixed.
        let (mut p, ids) = line(4);
        use_element(&mut p, ids[0], 0);
        use_element(&mut p, ids[2], 1);
        assert_eq!(external_fragmentation(&p), 1.0);
        assert_eq!(free_island_count(&p), 2);
    }

    #[test]
    fn contiguous_usage_minimises_fragmentation() {
        // line of 4: used(0), used(1), free(2), free(3) -> 1 of 3 pairs mixed.
        let (mut p, ids) = line(4);
        use_element(&mut p, ids[0], 0);
        use_element(&mut p, ids[1], 1);
        assert!((external_fragmentation(&p) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(free_island_count(&p), 1);
    }

    #[test]
    fn failed_elements_do_not_count_as_free_islands() {
        let (mut p, ids) = line(3);
        p.fail_element(ids[1]);
        assert_eq!(free_island_count(&p), 2);
    }

    #[test]
    fn no_links_means_no_pairs() {
        let mut b = PlatformBuilder::new("isolated");
        b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        let p = b.build();
        assert_eq!(adjacent_pair_counts(&p), (0, 0));
        assert_eq!(external_fragmentation(&p), 0.0);
    }
}
