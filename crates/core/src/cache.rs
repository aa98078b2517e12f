//! The manager's decision store — every pipeline decision a
//! [`Kairos`](crate::Kairos) remembers, in one field — and [`replay_point`], the one writer every
//! admission ends in: cold run, keyed hit and probe hand-off alike, behind
//! [`point_fits`], the check that leaves it nothing to undo (run on a
//! keyed hit, debug-asserted on a decision made or settled against the
//! very state it is written to). The phases decide over `&Platform` and
//! write nothing, so a refusal from any source touches nothing.
//!
//! [`CachedDecision`] is the complete outcome of one `run_phases` call —
//! a [`CachedPoint`] (layout, and the *seats*: the placement's claims in
//! the order the mapper made them), or the exact refusal. A decision is a
//! function of the application's shape and of what the pipeline *reads*
//! of the platform — free vectors, failure marks, which elements are used,
//! link occupancy — and of no `AppId`: the phases tell the request's own
//! tasks from everyone else's by the placement they are building
//! (`CostTables`, the debit overlay). So replaying one is sound from any
//! state that agrees on those reads, and lands on the platform a cold run
//! from that state would have produced. The store changes *which work
//! runs*, never *what is decided*.
//!
//! [`DecisionStore`] has two tiers, and alone decides which one serves.
//! Each decision is held once, behind one `Arc`: a keyed hit, a probe's
//! answer and the hand-off to the admission after it all share it, and
//! its layout is the one allocation the admission's report, the
//! registry and a migration's report hold too; no layout is copied.
//!
//! * the **keyed tier**, present iff `KairosConfig::cache` is set, keys
//!   decisions by `(shape, state stamp)` — the stamp digests exactly that
//!   admission view, not who the residents are — so a decision can come
//!   back any number of admissions later, and under other tenants, as long
//!   as the same resources are free in the same places. Neither half is
//!   computed per lookup: the shape is `Application::shape_hash`, hashed
//!   when the application was built, and the stamp is
//!   `Platform::state_stamp`, a sum of per-record digests the platform
//!   maintains, re-digesting at a lookup only the records mutated since
//!   the previous one (only `Platform::restore` voids all of them). Every
//!   lookup asserts it equal to the from-scratch
//!   `Platform::state_stamp_from_scratch` in debug builds. The key is the
//!   tier's one guard: faults, repairs, migrations and rebalances change
//!   the stamp, so they need no hook here, and a decision whose state
//!   recurs (an outage repaired, a platform idle again) is served again.
//!   [`point_fits`] re-checks every hit against the platform as it
//!   stands, so even a stamp collision cannot seat work on a failed
//!   element. It holds [`KEYED_CAPACITY`] decisions and evicts the oldest
//!   first;
//! * the **last-probe tier**, present with or without a keyed tier, keeps
//!   the decision the last `probe_admit` settled beside the platform's
//!   `state_epoch` — a probe writes nothing, and every later mutation
//!   bumps the epoch, so an equal epoch proves the same state without
//!   digesting anything. It serves the one admission that follows the
//!   probe, with no stamp, no lookup and no second fit check. Under a
//!   keyed tier that hand-off counts as the hit the lookup it replaces
//!   would have counted (the probe's decision is stored there too).
//!
//! Neither key covers the cost weights; they are fixed when the manager
//! is built (`KairosConfig::mapper`), so nothing ever clears the store.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use kairos_platform::{AppId, ElementId, Occupant, Platform, ResourceVector};

use crate::error::AllocationError;
use crate::layout::{ExecutionLayout, Route};
use crate::validation::ValidationReport;

/// Switches on the keyed tier of a manager's decision store: set
/// [`KairosConfig::cache`](crate::KairosConfig::cache) to
/// `Some(CacheConfig::default())`. It has no knobs; the tier holds 1024
/// decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct CacheConfig {}

/// How many decisions the keyed tier holds; a fresh insertion beyond it
/// evicts the oldest (FIFO).
pub(crate) const KEYED_CAPACITY: usize = 1024;

/// Lifetime counters of a manager's keyed tier, surfaced through
/// `ResourceService::cache_stats` and the sim report's `cache` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a decision for the exact (shape, state) key.
    pub hits: u64,
    /// Lookups that found nothing and fell back to the cold pipeline.
    pub misses: u64,
    /// Always 0: the `(shape, stamp)` key covers every input a decision
    /// reads but the cost weights, which are fixed at construction, so
    /// nothing drops a stored decision but capacity eviction. Kept for
    /// the field's readers and the report's `cache.invalidations` key.
    pub invalidations: u64,
    /// Decisions stored after cold pipeline runs.
    pub insertions: u64,
    /// Decisions dropped by FIFO capacity eviction.
    pub evictions: u64,
    /// Decisions currently stored.
    pub points: u64,
}

impl CacheStats {
    /// Field-wise sum, for aggregating per-shard stores into one view.
    pub fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            points: self.points + other.points,
        }
    }
}

/// One claim of a decided placement: `(element, task, claimed)`.
pub(crate) type Seat = (ElementId, u32, ResourceVector);

/// One remembered pipeline decision: a replayable admission, shared, or
/// the exact phase-tagged refusal the pipeline produced. Refusals are
/// remembered too — re-asking a saturated platform the same question is
/// the common case in arrival storms, and the answer is a pure function
/// of the key.
pub(crate) type CachedDecision = Result<Arc<CachedPoint>, AllocationError>;

/// A replayable operating point.
#[derive(Debug)]
pub(crate) struct CachedPoint {
    /// The layout the pipeline computed, shared with the probes that
    /// answered with it and the admissions it served.
    pub layout: Arc<ExecutionLayout>,
    /// The placement's claims in placing order, without an app id: each
    /// replay seats them under its own.
    pub seats: Vec<Seat>,
    /// The validation report of the cold run, when validation ran.
    pub validation: Option<ValidationReport>,
}

impl CachedPoint {
    /// The record of a cold decision whose placement took `seats`: the
    /// layout is shared and the report moves in; the seats are copied.
    pub(crate) fn shared(
        layout: Arc<ExecutionLayout>,
        validation: Option<ValidationReport>,
        seats: &[Seat],
    ) -> Arc<Self> {
        Arc::new(CachedPoint { layout, seats: seats.to_vec(), validation })
    }
}

/// A keyed-tier key: `(Application::shape_hash, Platform::state_stamp)`.
type Key = (u128, u128);

/// What [`DecisionStore::recall`] found for a request.
pub(crate) enum Recall {
    /// There is no keyed tier: decide cold, remember nothing.
    Cold,
    /// The keyed tier held this decision for the request's key.
    Hit(CachedDecision),
    /// The keyed tier held none: decide cold and hand the record to
    /// [`DecisionStore::remember`] under this key.
    Miss(Key),
}

/// Every decision a manager remembers (see the module documentation).
#[derive(Debug, Clone)]
pub(crate) struct DecisionStore {
    /// The keyed tier, present iff `KairosConfig::cache` is set.
    keyed: Option<Keyed>,
    /// The last-probe tier: `(shape, state epoch the probe settled at,
    /// decision)` of the last `probe_admit`, until the next admission
    /// takes it.
    last_probe: Option<(u128, u64, CachedDecision)>,
}

impl DecisionStore {
    pub(crate) fn new(config: Option<CacheConfig>) -> Self {
        let keyed = config.map(|_| Keyed::with_capacity(KEYED_CAPACITY));
        DecisionStore { keyed, last_probe: None }
    }

    /// What the keyed tier holds for `shape` on `platform` as it stands,
    /// counting the hit or miss.
    pub(crate) fn recall(&mut self, shape: u128, platform: &mut Platform) -> Recall {
        let Some(keyed) = &mut self.keyed else { return Recall::Cold };
        let stamp = platform.state_stamp();
        debug_assert_eq!(
            stamp,
            platform.state_stamp_from_scratch(),
            "a platform mutation went unmarked in the stamp ledger"
        );
        match keyed.lookup((shape, stamp)) {
            Some(decision) => Recall::Hit(decision),
            None => Recall::Miss((shape, stamp)),
        }
    }

    /// Stores the cold decision a [`Recall::Miss`] asked for.
    pub(crate) fn remember(&mut self, key: Key, decision: CachedDecision) {
        if let Some(keyed) = &mut self.keyed {
            keyed.insert(key, decision);
        }
    }

    /// The decision the probe right before settled for `shape`, if nothing
    /// has mutated the platform since (`epoch` is its current
    /// `state_epoch`), and whether it stands in for a keyed-tier lookup —
    /// counted here as the hit that lookup would have been. Taken whatever
    /// it holds, so a probe's decision serves one admission.
    pub(crate) fn take_probed(
        &mut self,
        shape: u128,
        epoch: u64,
    ) -> Option<(CachedDecision, bool)> {
        let (s, e, decision) = self.last_probe.take()?;
        if (s, e) != (shape, epoch) {
            return None;
        }
        let keyed = self.keyed.as_mut().map(|keyed| keyed.counts.hits += 1).is_some();
        Some((decision, keyed))
    }

    /// Keeps what a `probe_admit` of `shape` settled, with the
    /// `state_epoch` it settled at, for the admission that follows.
    pub(crate) fn keep_probed(&mut self, shape: u128, epoch: u64, settled: CachedDecision) {
        self.last_probe = Some((shape, epoch, settled));
    }

    /// The `state_epoch` the kept probe decision was read at, if any.
    pub(crate) fn probed_epoch(&self) -> Option<u64> {
        self.last_probe.as_ref().map(|&(_, epoch, _)| epoch)
    }

    /// The keyed tier's lifetime counters, `None` without one.
    pub(crate) fn stats(&self) -> Option<CacheStats> {
        self.keyed.as_ref().map(Keyed::stats)
    }
}

/// The keyed tier: a deterministic map from `(shape, stamp)` to a
/// decision, with FIFO capacity eviction.
/// Iteration and eviction order are deterministic: entries live in a
/// `BTreeMap` and leave in insertion order once `capacity` is reached.
#[derive(Debug, Clone)]
struct Keyed {
    capacity: usize,
    entries: BTreeMap<Key, CachedDecision>,
    /// Insertion order of exactly the keys of `entries`, oldest first.
    order: VecDeque<Key>,
    /// Lifetime counters; `points` is read off `entries` instead.
    counts: CacheStats,
}

impl Keyed {
    fn with_capacity(capacity: usize) -> Self {
        let (entries, order, counts) = (BTreeMap::new(), VecDeque::new(), CacheStats::default());
        Keyed { capacity, entries, order, counts }
    }

    /// The decision stored under `key`, counting the hit or miss.
    /// A hit is an `Arc` clone (or the refusal's).
    fn lookup(&mut self, key: Key) -> Option<CachedDecision> {
        let found = self.entries.get(&key);
        match found {
            Some(_) => self.counts.hits += 1,
            None => self.counts.misses += 1,
        }
        found.map(|decision| decision.as_ref().map(Arc::clone).map_err(Clone::clone))
    }

    /// Stores `decision` under `key`, evicting the oldest entry when the
    /// tier is full; overwrites silently on a key collision.
    fn insert(&mut self, key: Key, decision: CachedDecision) {
        self.counts.insertions += 1;
        if self.entries.insert(key, decision).is_some() {
            return;
        }
        self.order.push_back(key);
        if self.entries.len() > self.capacity {
            let oldest = self.order.pop_front().expect("the order queue lists every entry");
            self.entries.remove(&oldest);
            self.counts.evictions += 1;
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats { points: self.entries.len() as u64, ..self.counts }
    }
}

/// The working memory of [`point_fits`]: per element the summed claims of
/// a point's seats, per link its uses and summed bandwidth, dense over the
/// platform. Each call clears exactly the entries it is about to sum,
/// through the point's own seats and links, so nothing is read across
/// calls.
#[derive(Debug, Default)]
pub(crate) struct FitScratch {
    seated: Vec<ResourceVector>,
    routed: Vec<(u32, u64)>,
}

/// Whether a point fits `platform` as it stands: its `seats`, and one
/// virtual channel of each route's bandwidth (`bandwidths`, aligned with
/// `routes`) on its links. Per element, it is not failed and its seats'
/// summed claims are within its free vector; per link, its uses are within
/// its free virtual channels and their summed bandwidth within its free
/// bandwidth — exactly when every claim [`replay_point`] makes, in its
/// order, succeeds. Reads only.
pub(crate) fn point_fits(
    platform: &Platform,
    seats: &[Seat],
    routes: &[Route],
    bandwidths: impl IntoIterator<Item = u64>,
    scratch: &mut FitScratch,
) -> bool {
    let FitScratch { seated, routed } = scratch;
    if seated.len() < platform.element_count() {
        seated.resize(platform.element_count(), ResourceVector::ZERO);
    }
    if routed.len() < platform.link_count() {
        routed.resize(platform.link_count(), (0, 0));
    }
    seats.iter().for_each(|&(element, _, _)| seated[element.index()] = ResourceVector::ZERO);
    for &(element, _, claimed) in seats {
        seated[element.index()] = seated[element.index()].saturating_add(&claimed);
    }
    let links = || routes.iter().flat_map(Route::links);
    links().for_each(|link| routed[link.index()] = (0, 0));
    for (route, bandwidth) in routes.iter().zip(bandwidths) {
        for link in route.links() {
            let (uses, sum) = &mut routed[link.index()];
            *uses += 1;
            *sum = sum.saturating_add(bandwidth);
        }
    }
    seats.iter().all(|&(element, _, _)| platform.is_available(element, &seated[element.index()]))
        && links().all(|&link| {
            let (uses, bandwidth) = routed[link.index()];
            uses <= u32::from(platform.link_free_virtual_channels(link))
                && bandwidth <= platform.link_free_bandwidth(link)
        })
}

/// The one writer: claims `seats` under `app` in order — so each element
/// seats the occupants behind its earlier residents as a cold run would —
/// then one virtual channel of each route's bandwidth (`bandwidths`,
/// aligned with `routes`) on its links. The point must [`point_fits`] the
/// platform: a carried decision is checked first, and a cold one was
/// decided against this very state. `app` must be on no element yet: an
/// `(app, task)` pair names one occupant (debug-asserted).
pub(crate) fn replay_point(
    platform: &mut Platform,
    app: AppId,
    seats: &[Seat],
    routes: &[Route],
    bandwidths: impl IntoIterator<Item = u64>,
) {
    debug_assert!(
        seats.is_empty()
            || platform.element_ids().flat_map(|e| platform.residents(e)).all(|o| o.app != app),
        "{app} is already resident: an admission's claims need an id no occupant carries"
    );
    for &(element, task, claimed) in seats {
        platform
            .claim(element, Occupant { app, task, claimed })
            .expect("the point fits: its element is live and its seats sum within the free vector");
    }
    for (route, bandwidth) in routes.iter().zip(bandwidths) {
        for &link in route.links() {
            platform.claim_link(link, bandwidth).expect(
                "the point fits: the link's uses and bandwidth are within what it has free",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind_in;
    use crate::layout::{Binding, Placement};
    use crate::mapping::{map_application_in, MapperConfig};
    use crate::routing::{route_channels_in, RouteAlgorithm};
    use crate::workspace::Workspace;
    use kairos_app::{Application, ApplicationBuilder, ChannelId, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, LinkId};
    use proptest::prelude::*;

    /// A stored admission placing one task on each of `elements`.
    fn point(elements: &[u32]) -> CachedDecision {
        let layout = ExecutionLayout {
            binding: Binding::new(Vec::new()),
            placement: Placement::new(elements.iter().map(|&e| ElementId(e)).collect()),
            routes: Vec::new(),
        };
        Ok(CachedPoint::shared(Arc::new(layout), None, &[]))
    }

    /// The elements a stored decision places work on.
    fn elements(decision: Option<CachedDecision>) -> Option<Vec<ElementId>> {
        match decision? {
            Ok(p) => Some(p.layout.placement.iter().map(|(_, e)| e).collect()),
            Err(_) => Some(Vec::new()),
        }
    }

    const SHAPE: u128 = 7;

    #[test]
    fn stamp_tracks_state_not_epoch() {
        let mut p = topology::crisp();
        let idle = p.state_stamp_from_scratch();
        let e = p.element_ids().next().unwrap();
        p.claim(e, Occupant { app: AppId(0), task: 0, claimed: ResourceVector::ZERO }).unwrap();
        let occupied = p.state_stamp_from_scratch();
        assert_ne!(idle, occupied, "a zero-vector occupant still makes the element used");
        p.release(e, AppId(0), 0).unwrap();
        assert_eq!(p.state_stamp_from_scratch(), idle, "identical state stamps identically");
        p.fail_element(e);
        assert_ne!(p.state_stamp_from_scratch(), idle, "failure marks are part of the stamp");
    }

    #[test]
    fn lookup_hit_miss_and_fifo_eviction() {
        let mut keyed = Keyed::with_capacity(2);
        assert!(keyed.lookup((SHAPE, 0)).is_none());
        keyed.insert((SHAPE, 0), point(&[0]));
        keyed.insert((SHAPE, 1), point(&[1]));
        assert_eq!(elements(keyed.lookup((SHAPE, 0))), Some(vec![ElementId(0)]));
        keyed.insert((SHAPE, 2), point(&[2]));
        assert_eq!(keyed.stats().points, 2, "one in, the oldest out");
        assert!(keyed.lookup((SHAPE, 0)).is_none(), "oldest entry evicted first");
        let stats = keyed.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!((stats.insertions, stats.evictions, stats.points), (3, 1, 2));
    }

    /// A chain of `tasks` DSP tasks of `cpu` each over `bandwidth` channels.
    fn chain(tasks: usize, cpu: u64, bandwidth: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 30, 1);
        let mut b = ApplicationBuilder::new(format!("chain{tasks}"));
        let ids: Vec<_> = (0..tasks)
            .map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]))
            .collect();
        for pair in ids.windows(2) {
            b.add_channel(pair[0], pair[1], bandwidth, 1);
        }
        b.build().unwrap()
    }

    /// The check refuses a point on `platform`, where one of its claims
    /// was made to fail, and leaves bytes, stamp and epoch as they were.
    fn crashes_cleanly(
        platform: &mut Platform,
        seats: &[Seat],
        routes: &[Route],
        bandwidths: &[u64],
        scratch: &mut FitScratch,
    ) {
        let (bytes, stamp, epoch) =
            (platform.checkpoint(), platform.state_stamp(), platform.state_epoch());
        assert!(!point_fits(platform, seats, routes, bandwidths.iter().copied(), scratch));
        assert_eq!(platform.checkpoint(), bytes, "the check reads only");
        assert_eq!((platform.state_stamp(), platform.state_epoch()), (stamp, epoch));
    }

    /// Every crash point of the one writer. For each seat k and each link
    /// claim k of real CRISP decisions — taken on a platform the earlier
    /// decisions already load — exactly that claim is made to fail on a
    /// clone: its element failed, or, when an earlier seat shares the
    /// element, its free capacity used up to one unit short of the claim;
    /// its link's virtual channels used up to those the earlier claims on
    /// it need. The check must refuse the point there, before anything is
    /// written; on the platform itself it accepts, and the write lands.
    /// One warm scratch serves every check.
    #[test]
    fn every_crash_point_of_the_writer_leaves_the_platform_as_it_was() {
        let mut platform = topology::crisp();
        let mut workspace = Workspace::default();
        let mut scratch = FitScratch::default();
        let apps = [chain(6, 300, 90), chain(4, 700, 150), chain(8, 250, 60), chain(3, 500, 200)];
        let (mut failed, mut starved, mut links) = (0, 0, 0);
        for (i, app) in apps.iter().enumerate() {
            let binding = bind_in(app, &platform, &mut workspace.binding).unwrap();
            let mapper = MapperConfig::default();
            let mapping =
                map_application_in(app, &binding, &platform, &mapper, &mut workspace.mapping);
            let placement = mapping.unwrap().placement;
            let routing = &mut workspace.routing;
            let routes =
                route_channels_in(app, &placement, &platform, RouteAlgorithm::Bfs, routing);
            let routes = routes.unwrap();
            let seats = workspace.mapping.seats().to_vec();
            let bandwidths: Vec<u64> = app.channels().map(|c| c.bandwidth()).collect();
            let id = AppId(i as u32);

            for (k, &(element, _, claimed)) in seats.iter().enumerate() {
                let mut clone = platform.clone();
                let earlier: Vec<ResourceVector> =
                    seats[..k].iter().filter(|s| s.0 == element).map(|s| s.2).collect();
                if earlier.is_empty() {
                    clone.fail_element(element);
                    failed += 1;
                } else {
                    let (kind, _) = claimed.iter().find(|&(_, n)| n > 0).unwrap();
                    let room = earlier.iter().fold(claimed, |sum, c| sum.saturating_add(c));
                    let left = clone.free(element).checked_sub(&room).unwrap();
                    let blocker = left.saturating_add(&ResourceVector::with(kind, 1));
                    clone
                        .claim(element, Occupant { app: AppId(999), task: 0, claimed: blocker })
                        .unwrap();
                    starved += 1;
                }
                crashes_cleanly(&mut clone, &seats, &routes, &bandwidths, &mut scratch);
            }

            let claims: Vec<LinkId> =
                routes.iter().flat_map(|r| r.links().iter().copied()).collect();
            for (k, &link) in claims.iter().enumerate() {
                let mut clone = platform.clone();
                let earlier = claims[..k].iter().filter(|&&l| l == link).count() as u16;
                while clone.link_free_virtual_channels(link) > earlier {
                    clone.claim_link(link, 0).unwrap();
                }
                crashes_cleanly(&mut clone, &seats, &routes, &bandwidths, &mut scratch);
                links += 1;
            }

            let bandwidths = bandwidths.iter().copied();
            assert!(point_fits(&platform, &seats, &routes, bandwidths.clone(), &mut scratch));
            replay_point(&mut platform, id, &seats, &routes, bandwidths);
            assert_eq!(platform.audit(), Ok(()));
        }
        assert!(failed > 0 && starved > 0 && links > 0, "{failed} / {starved} / {links}");
    }

    proptest! {
        /// The check is the writer's claims, made in order on a clone, all
        /// succeeding: on random loads of a 3x3 DSP mesh (some elements
        /// failed, some link capacity reserved), for random seats and
        /// routes that share elements and links.
        #[test]
        fn the_check_agrees_with_the_claims(
            load in proptest::collection::vec((0u32..9, 0u64..700, 0u64..40), 0..12),
            failed in proptest::collection::vec(0u32..9, 0..3),
            reserved in proptest::collection::vec((0u32..24, 0u64..600), 0..20),
            seats in proptest::collection::vec((0u32..9, 0u64..600, 0u64..40), 0..6),
            routes in proptest::collection::vec(
                (proptest::collection::vec(0u32..24, 0..4), 0u64..400),
                0..5,
            ),
        ) {
            let mut platform = topology::dsp_mesh(3, 3);
            for (task, &(e, cpu, mem)) in load.iter().enumerate() {
                let claimed = ResourceVector::new(cpu, mem, 0, 0);
                let seat = Occupant { app: AppId(1), task: task as u32, claimed };
                let _ = platform.claim(ElementId(e), seat);
            }
            failed.iter().for_each(|&e| platform.fail_element(ElementId(e)));
            for &(l, bandwidth) in &reserved {
                let _ = platform.claim_link(LinkId(l), bandwidth);
            }
            let seats: Vec<Seat> = seats
                .iter()
                .enumerate()
                .map(|(t, &(e, cpu, mem))| (ElementId(e), t as u32, ResourceVector::new(cpu, mem, 0, 0)))
                .collect();
            let bandwidths: Vec<u64> = routes.iter().map(|&(_, bandwidth)| bandwidth).collect();
            let routes: Vec<Route> = routes
                .iter()
                .enumerate()
                .map(|(c, (links, _))| {
                    Route::new(ChannelId(c as u32), links.iter().map(|&l| LinkId(l)).collect())
                })
                .collect();

            let mut clone = platform.clone();
            let claimed = seats.iter().all(|&(element, task, claimed)| {
                clone.claim(element, Occupant { app: AppId(0), task, claimed }).is_ok()
            }) && routes.iter().zip(&bandwidths).all(|(route, &bandwidth)| {
                route.links().iter().all(|&link| clone.claim_link(link, bandwidth).is_ok())
            });
            let bandwidths = bandwidths.iter().copied();
            let fits = point_fits(&platform, &seats, &routes, bandwidths, &mut FitScratch::default());
            prop_assert_eq!(fits, claimed);
        }
    }
}
