//! Phase 3 — routing: establishing communication links.
//!
//! For pairs of communicating tasks, a path of NoC links is reserved between
//! their elements, claiming one virtual channel and the channel's bandwidth
//! on every hop (Kavaldjiev et al., cited as [11]). The paper uses
//! breadth-first search "because it has no noticeable performance
//! differences in terms of successful routes and energy consumption,
//! compared to Dijkstra's algorithm"; both are implemented here so the
//! ablation benchmark can test that claim.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kairos_app::{Application, ChannelId};
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
    /// The channels in routing order.
    order: Vec<ChannelId>,
    /// Every link of every route found so far, and per channel id the
    /// `start..end` of its route in there.
    links: Vec<LinkId>,
    spans: Vec<(u32, u32)>,
    /// The elements a search has reached, and for each of them the element
    /// and link it was reached over. A search reads `prev` only at elements
    /// it reached itself, so the table is never cleared.
    visited: Marks,
    prev: Vec<(ElementId, LinkId)>,
    /// The BFS frontier: a queue that is only ever appended to.
    queue: Vec<ElementId>,
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
    scratch.order.clear();
    scratch.order.extend(app.channels().map(|c| c.id()));
    // Ids break ties, so the order is total and needs no stable sort.
    scratch.order.sort_unstable_by_key(|&c| (Reverse(app.channel(c).bandwidth()), c));
    scratch.spans.clear();
    scratch.spans.resize(app.channel_count(), (0, 0));
    scratch.prev.resize(platform.element_count(), (ElementId(0), LinkId(0)));

    for at in 0..scratch.order.len() {
        let channel = app.channel(scratch.order[at]);
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
fn bfs_path(
    platform: &Platform,
    src: ElementId,
    dst: ElementId,
    bandwidth: u64,
    scratch: &mut RoutingScratch,
) -> Result<(), Option<LinkId>> {
    let RoutingScratch { links, visited, prev, queue, taken, .. } = scratch;
    let mut blocked = None;
    visited.reset(platform.element_count());
    visited.insert(src.index());
    queue.clear();
    queue.push(src);
    let mut head = 0;
    while let Some(&e) = queue.get(head) {
        head += 1;
        if e == dst {
            reconstruct(prev, src, dst, links);
            return Ok(());
        }
        for &(next, link) in platform.successors(e) {
            if visited.contains(next.index()) || (platform.is_failed(next) && next != dst) {
                continue;
            }
            if !link_available(platform, taken, link, bandwidth) {
                blocked = blocked.or(Some(link));
                continue;
            }
            visited.insert(next.index());
            prev[next.index()] = (e, link);
            queue.push(next);
        }
    }
    Err(blocked)
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
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, ResourceVector};

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
