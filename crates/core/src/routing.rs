//! Phase 3 — routing: establishing communication links.
//!
//! For pairs of communicating tasks, a path of NoC links is reserved between
//! their elements, claiming one virtual channel and the channel's bandwidth
//! on every hop (Kavaldjiev et al., cited as [11]). The paper uses
//! breadth-first search "because it has no noticeable performance
//! differences in terms of successful routes and energy consumption,
//! compared to Dijkstra's algorithm"; both are implemented here so the
//! ablation benchmark can test that claim.
//!
//! Before its breadth-first search, each channel's search walks depth first
//! from the source over links that bring it exactly one hop closer to the
//! destination on the bare topology ([`Platform::hops_to`]), in the order
//! of each element's successor row, backing out of dead ends. A search that
//! tests for the goal at discovery returns the least shortest available
//! path in that order; so does the walk whenever some available path is as
//! short as the topology's, which is most of the time, and then it costs
//! O(hops) rather than a ball around the source. (The rows record up to
//! 16 hops; a farther destination skips the walk.) When it fails, the
//! breadth-first search runs as it always did and answers for the channel,
//! so no route and no refusal depends on the walk.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kairos_app::Application;
use kairos_platform::{AppId, ElementId, LinkId, Platform};

use crate::cache::replay_point;
use crate::error::RoutingError;
use crate::layout::{Placement, Route};
use crate::workspace::Marks;

/// Path-search strategy for the routing phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteAlgorithm {
    /// Breadth-first search: fewest hops, first found.
    #[default]
    Bfs,
    /// Dijkstra with load-aware link weights (`1 + utilisation`): trades
    /// slightly longer routes for spreading load over less-used links.
    Dijkstra,
}

impl std::fmt::Display for RouteAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteAlgorithm::Bfs => f.write_str("bfs"),
            RouteAlgorithm::Dijkstra => f.write_str("dijkstra"),
        }
    }
}

/// Routes every channel of `app` over `platform`, reserving one virtual
/// channel plus the channel's bandwidth on each link of each route.
///
/// Channels are routed in descending-bandwidth order (fattest first), the
/// standard heuristic for sequential virtual-channel reservation. Channels
/// whose endpoints share an element need no links at all.
///
/// On success the link claims are on the platform; on failure the platform
/// is untouched — every route is found first and claimed only once all are.
///
/// # Errors
///
/// [`RoutingError::NoRoute`] when some channel has no path with a free
/// virtual channel and sufficient bandwidth on every hop.
pub fn route_channels(
    app: &Application,
    placement: &Placement,
    platform: &mut Platform,
    algorithm: RouteAlgorithm,
) -> Result<Vec<Route>, RoutingError> {
    let routes =
        route_channels_in(app, placement, platform, algorithm, &mut RoutingScratch::default())?;
    let bandwidths = app.channels().map(|c| c.bandwidth());
    // Routes alone claim no seat, so no id is read.
    replay_point(platform, AppId(0), &[], &routes, bandwidths);
    Ok(routes)
}

/// Working memory of one [`route_channels`] call: the path searches' tables,
/// re-stamped per channel instead of reallocated, and the routes found so
/// far, kept flat so that only a complete set is turned into [`Route`]s.
#[derive(Debug, Default)]
pub(crate) struct RoutingScratch {
    /// Every link of every route found so far, and per channel id the
    /// `start..end` of its route in there.
    links: Vec<LinkId>,
    spans: Vec<(u32, u32)>,
    /// The elements a search has reached (the walk's dead ends, while it
    /// walks), and for each of them the element and link it was reached
    /// over. A search reads `prev` only at elements it reached itself, so
    /// the table is never cleared.
    visited: Marks,
    prev: Vec<(ElementId, LinkId)>,
    /// The BFS frontier: a queue that is only ever appended to.
    queue: Vec<ElementId>,
    /// The walk's way back: per element left behind on the current path,
    /// the element and the slot of its successor row to resume from.
    trail: Vec<(ElementId, u32)>,
    /// Dijkstra's tentative distances and frontier.
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per link, the virtual channels and bandwidth the request's routes
    /// found so far take — zero on every link `links` does not list: what
    /// the searches see of a link is the platform's free state less this.
    taken: Vec<(u16, u64)>,
}

/// [`route_channels`]' decision in a manager's working memory: a route per
/// channel, found against the platform less the request's own earlier
/// routes, and nothing written.
pub(crate) fn route_channels_in(
    app: &Application,
    placement: &Placement,
    platform: &Platform,
    algorithm: RouteAlgorithm,
    scratch: &mut RoutingScratch,
) -> Result<Vec<Route>, RoutingError> {
    // Only the links of the last call's routes were taken.
    for &l in &scratch.links {
        scratch.taken[l.index()] = (0, 0);
    }
    scratch.taken.resize(platform.link_count(), (0, 0));
    scratch.links.clear();
    scratch.spans.clear();
    scratch.spans.resize(app.channel_count(), (0, 0));
    scratch.prev.resize(platform.element_count(), (ElementId(0), LinkId(0)));

    for &c in app.route_order() {
        let channel = app.channel(c);
        let src = placement.element(channel.src());
        let dst = placement.element(channel.dst());
        if src == dst {
            continue;
        }
        let start = scratch.links.len();
        let found = match algorithm {
            RouteAlgorithm::Bfs => bfs_path(platform, src, dst, channel.bandwidth(), scratch),
            RouteAlgorithm::Dijkstra => {
                dijkstra_path(platform, src, dst, channel.bandwidth(), scratch)
            }
        };
        if let Err(blocked) = found {
            let blocked = blocked.map(|l| {
                let (vcs, bandwidth) = link_left(platform, &scratch.taken, l);
                (l, vcs, bandwidth)
            });
            return Err(RoutingError::NoRoute { channel: channel.id(), src, dst, blocked });
        }
        for &l in &scratch.links[start..] {
            let (vcs, bandwidth) = &mut scratch.taken[l.index()];
            *vcs += 1;
            *bandwidth += channel.bandwidth();
        }
        scratch.spans[channel.id().index()] = (start as u32, scratch.links.len() as u32);
    }
    let routes = app.channels().zip(&scratch.spans).map(|(channel, &(start, end))| {
        Route::new(channel.id(), scratch.links[start as usize..end as usize].to_vec())
    });
    Ok(routes.collect())
}

/// `(free virtual channels, free bandwidth)` of `l` left to the request:
/// the platform's free state less what its earlier routes take.
fn link_left(platform: &Platform, taken: &[(u16, u64)], l: LinkId) -> (u16, u64) {
    let (vcs, bandwidth) = taken[l.index()];
    (platform.link_free_virtual_channels(l) - vcs, platform.link_free_bandwidth(l) - bandwidth)
}

/// Whether `l` can still carry a channel of `bandwidth` for the request.
fn link_available(platform: &Platform, taken: &[(u16, u64)], l: LinkId, bandwidth: u64) -> bool {
    let (vcs, free) = link_left(platform, taken, l);
    vcs > 0 && free >= bandwidth
}

/// Appends to `scratch.links` the fewest-hops path from `src` to `dst` over
/// links that can still carry `bandwidth`; without one, the first link it
/// turned down for capacity, if any. Failed elements are not traversed
/// (but `src` and `dst` themselves are permitted, so that draining routes
/// stay discoverable).
///
/// The search pays for the route, not for the mesh, in three ways, and
/// answers exactly what a breadth-first search that tests for the goal
/// when it pops an element and exhausts everything reachable on a miss
/// answers:
///
/// - **The walk first.** Unless `dst` is enclosed (below), [`descend`]
///   tries the path the search would find, in O(hops) when the request
///   can still use a path as short as the topology's; the search runs only
///   when it cannot.
/// - **Goal test at discovery.** `prev[dst]` is written once, when `dst`
///   is first discovered — the visited marks keep it from being
///   overwritten — so the path rebuilt then is the one a pop-time test
///   would rebuild, and the elements queued before `dst` are not expanded.
/// - **Enclosed destinations stop at the first refusal.** `dst` is
///   reachable only over one of its in-links, and only from `src` or an
///   element that is not failed. When no in-link is left that qualifies —
///   every one is full for the request, or starts at a failed element
///   other than `src` — the search cannot succeed, and all a miss reports
///   is the first link turned down. So it stops there.
fn bfs_path(
    platform: &Platform,
    src: ElementId,
    dst: ElementId,
    bandwidth: u64,
    scratch: &mut RoutingScratch,
) -> Result<(), Option<LinkId>> {
    let enclosed = platform.predecessors(dst).iter().all(|&(from, link)| {
        (platform.is_failed(from) && from != src)
            || !link_available(platform, &scratch.taken, link, bandwidth)
    });
    if !enclosed && descend(platform, src, dst, bandwidth, scratch) {
        return Ok(());
    }
    let RoutingScratch { links, visited, prev, queue, taken, .. } = scratch;
    let mut blocked = None;
    visited.reset(platform.element_count());
    visited.insert(src.index());
    queue.clear();
    queue.push(src);
    let mut head = 0;
    while let Some(&e) = queue.get(head) {
        head += 1;
        for &(next, link) in platform.successors(e) {
            if visited.contains(next.index()) || (platform.is_failed(next) && next != dst) {
                continue;
            }
            if !link_available(platform, taken, link, bandwidth) {
                if enclosed {
                    return Err(Some(link));
                }
                blocked = blocked.or(Some(link));
                continue;
            }
            visited.insert(next.index());
            prev[next.index()] = (e, link);
            if next == dst {
                reconstruct(prev, src, dst, links);
                return Ok(());
            }
            queue.push(next);
        }
    }
    Err(blocked)
}

/// Appends to `scratch.links` the path [`bfs_path`]'s search would find
/// when that path is as short as the bare topology allows (and `dst` lies
/// within the radius of [`Platform::hops_to`]'s rows), and returns whether
/// it was; appends nothing when it returns `false`.
///
/// The walk goes depth first from `src`, trying each element's successor
/// row in order, and takes only a link the request can still use whose far
/// end is not failed (unless it is `dst`) and lies exactly one static hop
/// closer to `dst` ([`Platform::hops_to`]). An element with no such link
/// left is a dead end: it is marked once, and the walk backs out of it.
/// Every path the walk can take is a shortest available path, and it tries
/// them in the order of their successor-row slots, so the first one it
/// completes is the least of them in that order — which is the path a
/// search that tests for the goal at discovery rebuilds, since such a
/// search reaches each element first over the least shortest path to it.
/// It fails exactly when no available path is that short, and then costs
/// at most one visit per element and one look per link.
fn descend(
    platform: &Platform,
    src: ElementId,
    dst: ElementId,
    bandwidth: u64,
    scratch: &mut RoutingScratch,
) -> bool {
    let RoutingScratch { links, visited: dead, trail, taken, .. } = scratch;
    let hops = platform.hops_to(dst);
    if hops[src.index()] == u8::MAX {
        return false;
    }
    dead.reset(platform.element_count());
    trail.clear();
    let (mut at, mut slot) = (src, 0);
    loop {
        let row = platform.successors(at);
        let closer = hops[at.index()] - 1;
        let step = row[slot..].iter().position(|&(next, link)| {
            hops[next.index()] == closer
                && !dead.contains(next.index())
                && (!platform.is_failed(next) || next == dst)
                && link_available(platform, taken, link, bandwidth)
        });
        if let Some(i) = step {
            let (next, link) = row[slot + i];
            links.push(link);
            if next == dst {
                return true;
            }
            trail.push((at, (slot + i + 1) as u32));
            (at, slot) = (next, 0);
        } else {
            dead.insert(at.index());
            let Some((back, resume)) = trail.pop() else { return false };
            links.pop();
            (at, slot) = (back, resume as usize);
        }
    }
}

/// Load-aware shortest path, appended to `scratch.links` like
/// [`bfs_path`]'s: link weight `1 + used_fraction`, scaled to integer
/// milli-weights for a deterministic priority queue.
fn dijkstra_path(
    platform: &Platform,
    src: ElementId,
    dst: ElementId,
    bandwidth: u64,
    scratch: &mut RoutingScratch,
) -> Result<(), Option<LinkId>> {
    let RoutingScratch { links, prev, dist, heap, taken, .. } = scratch;
    let mut blocked = None;
    dist.clear();
    dist.resize(platform.element_count(), u64::MAX);
    heap.clear();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src.0)));
    while let Some(Reverse((d, e_raw))) = heap.pop() {
        let e = ElementId(e_raw);
        if d > dist[e.index()] {
            continue;
        }
        if e == dst {
            reconstruct(prev, src, dst, links);
            return Ok(());
        }
        for &(next, link) in platform.successors(e) {
            if platform.is_failed(next) && next != dst {
                continue;
            }
            if !link_available(platform, taken, link, bandwidth) {
                blocked = blocked.or(Some(link));
                continue;
            }
            let capacity = platform.link(link).bandwidth().max(1);
            let used = capacity - link_left(platform, taken, link).1;
            let weight = 1000 + 1000 * used / capacity;
            let nd = d.saturating_add(weight);
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                prev[next.index()] = (e, link);
                heap.push(Reverse((nd, next.0)));
            }
        }
    }
    Err(blocked)
}

/// Appends the links of the path the search left in `prev`, in traversal
/// order.
fn reconstruct(
    prev: &[(ElementId, LinkId)],
    src: ElementId,
    dst: ElementId,
    links: &mut Vec<LinkId>,
) {
    let start = links.len();
    let mut cursor = dst;
    while cursor != src {
        let (parent, link) = prev[cursor.index()];
        links.push(link);
        cursor = parent;
    }
    links[start..].reverse();
}

/// Releases the link claims of previously established routes.
///
/// Local (zero-hop) routes hold no link resources. `bandwidths` must give
/// the bandwidth of each route's channel, in the order of `routes`.
///
/// # Panics
///
/// Panics if a release exceeds a link's capacity, indicating the routes were
/// not established on this platform.
pub fn release_routes(
    platform: &mut Platform,
    routes: &[Route],
    bandwidths: impl IntoIterator<Item = u64>,
) {
    for (route, bw) in routes.iter().zip(bandwidths) {
        for &l in route.links() {
            platform.release_link(l, bw);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, ChannelId, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, ResourceVector};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The reference the routing phase is checked against: per channel,
    /// fattest first, a breadth-first search that tests for the goal when
    /// it pops an element and, on a miss, exhausts everything reachable
    /// from `src`.
    fn reference_routes(
        app: &Application,
        placement: &Placement,
        platform: &Platform,
    ) -> Result<Vec<Route>, RoutingError> {
        let n = platform.element_count();
        let mut taken = vec![(0u16, 0u64); platform.link_count()];
        let left = |taken: &[(u16, u64)], l: LinkId| {
            let (vcs, bandwidth) = taken[l.index()];
            (
                platform.link_free_virtual_channels(l) - vcs,
                platform.link_free_bandwidth(l) - bandwidth,
            )
        };
        let mut order: Vec<ChannelId> = app.channels().map(|c| c.id()).collect();
        order.sort_by_key(|&c| (Reverse(app.channel(c).bandwidth()), c));
        let mut routes = vec![Vec::new(); app.channel_count()];
        for c in order {
            let channel = app.channel(c);
            let (src, dst) = (placement.element(channel.src()), placement.element(channel.dst()));
            if src == dst {
                continue;
            }
            let mut prev = vec![None; n];
            let mut seen = vec![false; n];
            seen[src.index()] = true;
            let mut queue = VecDeque::from([src]);
            let mut blocked = None;
            let mut found = false;
            while let Some(e) = queue.pop_front() {
                if e == dst {
                    found = true;
                    break;
                }
                for &(next, link) in platform.successors(e) {
                    if seen[next.index()] || (platform.is_failed(next) && next != dst) {
                        continue;
                    }
                    let (vcs, free) = left(&taken, link);
                    if vcs == 0 || free < channel.bandwidth() {
                        blocked = blocked.or(Some(link));
                        continue;
                    }
                    seen[next.index()] = true;
                    prev[next.index()] = Some((e, link));
                    queue.push_back(next);
                }
            }
            if !found {
                let blocked = blocked.map(|l| {
                    let (vcs, free) = left(&taken, l);
                    (l, vcs, free)
                });
                return Err(RoutingError::NoRoute { channel: c, src, dst, blocked });
            }
            let mut path = Vec::new();
            let mut cursor = dst;
            while let Some((parent, link)) = prev[cursor.index()] {
                path.push(link);
                cursor = parent;
            }
            path.reverse();
            for &l in &path {
                taken[l.index()].0 += 1;
                taken[l.index()].1 += channel.bandwidth();
            }
            routes[c.index()] = path;
        }
        let routes = routes.into_iter().enumerate();
        Ok(routes.map(|(c, links)| Route::new(ChannelId(c as u32), links)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The early-stopping search routes exactly as the reference does —
        /// the same routes, or the same `NoRoute` with the same first
        /// blocked link — on random loads (link capacity reserved, elements
        /// failed) of a 6x6 heterogeneous mesh, of CRISP and of two tiled
        /// CRISP boards, for random channel sets between tasks placed
        /// anywhere, failed elements included.
        #[test]
        fn the_early_stopping_search_routes_as_the_exhaustive_one(
            reserved in proptest::collection::vec((0u32..1000, 100u64..1000), 0..160),
            failed in proptest::collection::vec(0u32..1000, 0..6),
            placement in proptest::collection::vec(0u32..1000, 2..7),
            channels in proptest::collection::vec((0usize..7, 0usize..7, 1u64..700), 1..9),
        ) {
            let imp = Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), 1, 1);
            let mut b = ApplicationBuilder::new("random");
            let tasks: Vec<_> = (0..placement.len())
                .map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]))
                .collect();
            for &(x, y, bandwidth) in &channels {
                let (x, y) = (x % tasks.len(), y % tasks.len());
                if x != y {
                    b.add_channel(tasks[x], tasks[y], bandwidth, 1);
                }
            }
            let Ok(app) = b.build() else { return Ok(()) };
            let platforms =
                [topology::heterogeneous_mesh(6, 6), topology::crisp(), topology::crisp_tiles(2)];
            let mut scratch = RoutingScratch::default();
            for mut platform in platforms {
                let (n, links) = (platform.element_count() as u32, platform.link_count() as u32);
                for &(l, bandwidth) in &reserved {
                    let _ = platform.claim_link(LinkId(l % links), bandwidth);
                }
                failed.iter().for_each(|&e| platform.fail_element(ElementId(e % n)));
                let placement =
                    Placement::new(placement.iter().map(|&e| ElementId(e % n)).collect());
                for _ in 0..2 {
                    // Twice on one scratch, which also served the last
                    // platform: nothing read is left from the last call.
                    let found = route_channels_in(
                        &app,
                        &placement,
                        &platform,
                        RouteAlgorithm::Bfs,
                        &mut scratch,
                    );
                    prop_assert_eq!(found, reference_routes(&app, &placement, &platform));
                }
            }
        }
    }

    /// Whether the walk alone routes one channel of `bandwidth` from `src`
    /// to `dst` on `platform`, with no earlier route of the request.
    fn walks(platform: &Platform, src: ElementId, dst: ElementId, bandwidth: u64) -> bool {
        let mut scratch = RoutingScratch::default();
        scratch.taken.resize(platform.link_count(), (0, 0));
        let walked = descend(platform, src, dst, bandwidth, &mut scratch);
        assert_eq!(walked, !scratch.links.is_empty(), "a failed walk appends nothing");
        walked
    }

    /// The reference comparison above covers each way out of the search:
    /// a route the walk finds straight away, one it finds after backing out
    /// of a dead end, one the search finds after the walk fails because
    /// every available path is longer than the topology's, a miss on an
    /// enclosed destination (stopped at its first refusal), a miss the
    /// search had to exhaust, and a failed source next to its destination.
    #[test]
    fn each_way_out_of_the_search_agrees_with_the_reference() {
        let mut platform = topology::dsp_mesh(3, 3);
        let e: Vec<_> = platform.element_ids().collect();
        let app = two_task_app(500);
        let check = |platform: &Platform, dst: ElementId| {
            let placement = Placement::new(vec![e[0], dst]);
            let mut scratch = RoutingScratch::default();
            let found =
                route_channels_in(&app, &placement, platform, RouteAlgorithm::Bfs, &mut scratch);
            assert_eq!(found, reference_routes(&app, &placement, platform));
            found
        };
        assert!(walks(&platform, e[0], e[8], 500));
        assert_eq!(check(&platform, e[8]).unwrap()[0].hops(), 4);

        // A dead end: e0's row tries e1 first, and both of e1's links
        // towards e8 are full for the request, so the walk backs out of e1
        // and goes on through e3, still in 4 hops.
        let mut dead_end = platform.clone();
        for next in [e[2], e[4]] {
            dead_end.claim_link(dead_end.link_between(e[1], next).unwrap(), 600).unwrap();
        }
        assert!(walks(&dead_end, e[0], e[8], 500));
        let routes = check(&dead_end, e[8]).unwrap();
        assert_eq!(routes[0].hops(), 4);
        assert_eq!(routes[0].links()[0], dead_end.link_between(e[0], e[3]).unwrap());

        // Longer than the topology's: both of e4's in-links on a 2-hop path
        // from e0 are full, so the walk fails and the search finds a 4-hop
        // path round them.
        let mut detour = platform.clone();
        for from in [e[1], e[3]] {
            detour.claim_link(detour.link_between(from, e[4]).unwrap(), 600).unwrap();
        }
        assert!(!walks(&detour, e[0], e[4], 500));
        assert_eq!(check(&detour, e[4]).unwrap()[0].hops(), 4);
        // Enclose e8: both its in-links full for the request.
        for (_, l) in platform.predecessors(e[8]).to_vec() {
            platform.claim_link(l, 600).unwrap();
        }
        let enclosed = check(&platform, e[8]).unwrap_err();
        assert!(matches!(enclosed, RoutingError::NoRoute { blocked: Some(_), .. }));
        // Cut e4 off by failing its neighbours: nothing is refused for
        // capacity on the way, and the miss names no link.
        for n in [e[1], e[3], e[5], e[7]] {
            platform.fail_element(n);
        }
        let exhausted = check(&platform, e[4]).unwrap_err();
        assert!(matches!(exhausted, RoutingError::NoRoute { blocked: None, .. }));

        // A failed `src` still sends: on the line e0 - e1 - e2, e2's one
        // in-link starts at the failed e1, which is not enclosing when e1
        // is the source — even though the search meets a full link first.
        let mut line = topology::dsp_line(3);
        let e: Vec<_> = line.element_ids().collect();
        line.fail_element(e[1]);
        line.claim_link(line.link_between(e[1], e[0]).unwrap(), 600).unwrap();
        let placement = Placement::new(vec![e[1], e[2]]);
        assert!(walks(&line, e[1], e[2], 500), "the walk leaves a failed source too");
        let mut scratch = RoutingScratch::default();
        let found = route_channels_in(&app, &placement, &line, RouteAlgorithm::Bfs, &mut scratch);
        assert_eq!(found, reference_routes(&app, &placement, &line));
        assert_eq!(found.unwrap()[0].hops(), 1);
    }

    fn two_task_app(bw: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), 1, 1);
        let mut b = ApplicationBuilder::new("two");
        let t0 = b.add_task("a", TaskRole::Internal, vec![imp]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp]);
        b.add_channel(t0, t1, bw, 1);
        b.build().unwrap()
    }

    #[test]
    fn routes_shortest_path_on_line() {
        let mut platform = topology::dsp_line(4);
        let e: Vec<_> = platform.element_ids().collect();
        let app = two_task_app(100);
        let placement = Placement::new(vec![e[0], e[3]]);
        let routes = route_channels(&app, &placement, &mut platform, RouteAlgorithm::Bfs).unwrap();
        assert_eq!(routes[0].hops(), 3);
        // Links actually claimed.
        for &l in routes[0].links() {
            assert_eq!(
                platform.link_free_virtual_channels(l),
                kairos_platform::topology::DEFAULT_VIRTUAL_CHANNELS - 1
            );
            assert_eq!(platform.link_free_bandwidth(l), 900);
        }
        // Releasing restores everything.
        release_routes(&mut platform, &routes, [100]);
        assert!(platform.is_idle());
    }

    #[test]
    fn local_channels_use_no_links() {
        let mut platform = topology::dsp_line(2);
        let e: Vec<_> = platform.element_ids().collect();
        let app = two_task_app(100);
        let placement = Placement::new(vec![e[0], e[0]]);
        let routes = route_channels(&app, &placement, &mut platform, RouteAlgorithm::Bfs).unwrap();
        assert!(routes[0].is_local());
        assert!(platform.is_idle());
    }

    #[test]
    fn saturated_links_block_routes_and_roll_back() {
        let mut platform = topology::dsp_line(2);
        let e: Vec<_> = platform.element_ids().collect();
        // Saturate the only forward link's virtual channels.
        let l = platform.link_between(e[0], e[1]).unwrap();
        for _ in 0..kairos_platform::topology::DEFAULT_VIRTUAL_CHANNELS {
            platform.claim_link(l, 10).unwrap();
        }
        let before = platform.checkpoint();
        let app = two_task_app(100);
        let placement = Placement::new(vec![e[0], e[1]]);
        let err = route_channels(&app, &placement, &mut platform, RouteAlgorithm::Bfs).unwrap_err();
        let blocked = Some((l, 0, platform.link_free_bandwidth(l)));
        assert!(matches!(err, RoutingError::NoRoute { blocked: b, .. } if b == blocked));
        assert_eq!(platform.checkpoint(), before, "failed routing must roll back");
    }

    #[test]
    fn bandwidth_shortage_blocks_route() {
        let mut platform = topology::dsp_line(2);
        let e: Vec<_> = platform.element_ids().collect();
        let app = two_task_app(1500); // link capacity is 1000
        let placement = Placement::new(vec![e[0], e[1]]);
        let l = platform.link_between(e[0], e[1]).unwrap();
        let vcs = kairos_platform::topology::DEFAULT_VIRTUAL_CHANNELS;
        for algorithm in [RouteAlgorithm::Bfs, RouteAlgorithm::Dijkstra] {
            let err = route_channels(&app, &placement, &mut platform, algorithm).unwrap_err();
            let blocked = Some((l, vcs, 1000));
            assert!(matches!(err, RoutingError::NoRoute { blocked: b, .. } if b == blocked));
        }
    }

    #[test]
    fn multiple_channels_share_links_via_virtual_channels() {
        let mut platform = topology::dsp_line(2);
        let e: Vec<_> = platform.element_ids().collect();
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), 1, 1);
        let mut b = ApplicationBuilder::new("multi");
        let t0 = b.add_task("a", TaskRole::Internal, vec![imp]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp]);
        b.add_channel(t0, t1, 300, 1);
        b.add_channel(t0, t1, 300, 1);
        b.add_channel(t0, t1, 300, 1);
        let app = b.build().unwrap();
        let placement = Placement::new(vec![e[0], e[1]]);
        let routes = route_channels(&app, &placement, &mut platform, RouteAlgorithm::Bfs).unwrap();
        assert_eq!(routes.len(), 3);
        let l = platform.link_between(e[0], e[1]).unwrap();
        assert_eq!(
            platform.link_free_virtual_channels(l),
            kairos_platform::topology::DEFAULT_VIRTUAL_CHANNELS - 3
        );
        assert_eq!(platform.link_free_bandwidth(l), 100);
    }

    #[test]
    fn dijkstra_spreads_load_on_ring() {
        // Ring of 4: two equal-length paths between opposite corners once
        // traffic loads one side.
        let mut platform = topology::dsp_ring(4);
        let e: Vec<_> = platform.element_ids().collect();
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), 1, 1);
        let mut b = ApplicationBuilder::new("ring");
        let t0 = b.add_task("a", TaskRole::Internal, vec![imp]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp]);
        b.add_channel(t0, t1, 400, 1);
        b.add_channel(t0, t1, 400, 1);
        let app = b.build().unwrap();
        let placement = Placement::new(vec![e[0], e[2]]);
        let routes =
            route_channels(&app, &placement, &mut platform, RouteAlgorithm::Dijkstra).unwrap();
        // Both routes exist and have 2 hops each (opposite corner).
        assert_eq!(routes[0].hops(), 2);
        assert_eq!(routes[1].hops(), 2);
        // Load-aware weights must send them down different sides.
        assert_ne!(routes[0].links()[0], routes[1].links()[0]);
    }

    #[test]
    fn routes_avoid_failed_elements() {
        let mut platform = topology::dsp_ring(4);
        let e: Vec<_> = platform.element_ids().collect();
        platform.fail_element(e[1]);
        let app = two_task_app(100);
        let placement = Placement::new(vec![e[0], e[2]]);
        let routes = route_channels(&app, &placement, &mut platform, RouteAlgorithm::Bfs).unwrap();
        // Must go the long way round through e3.
        assert_eq!(routes[0].hops(), 2);
        for &l in routes[0].links() {
            assert_ne!(platform.link(l).src(), e[1]);
            assert_ne!(platform.link(l).dst(), e[1]);
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(RouteAlgorithm::Bfs.to_string(), "bfs");
        assert_eq!(RouteAlgorithm::Dijkstra.to_string(), "dijkstra");
        assert_eq!(RouteAlgorithm::default(), RouteAlgorithm::Bfs);
    }
}
