//! # kairos-opcache
//!
//! A design-time *operating-point* mapping cache for the Kairos resource
//! manager, after the hybrid design-time/run-time mapping methodology:
//! once the full binding/mapping/routing pipeline has computed an
//! execution layout for an application *shape* on a given platform
//! occupancy, that operating point is remembered, and the next admission
//! of an identical shape against an occupancy that *offers the same
//! resources* replays the stored point in O(claims) instead of re-running
//! the whole pipeline — whoever holds the rest of the platform by then.
//!
//! Two keys make this sound:
//!
//! * [`ShapeKey`] — a structural hash of the [`Application`] *excluding
//!   its name* (the pipeline never reads the name), so identical
//!   workload-sampled applications share cache entries. An application
//!   is immutable once built and hashes itself there
//!   ([`Application::shape_hash`]); [`shape_of`] is a field read.
//! * [`StateStamp`] — a digest of the platform's *admission view*: what
//!   an admission reads of the mutable state, and nothing else. Per
//!   element that is the free vector, whether the element is used at all,
//!   and the failure mark; per link the free bandwidth and free virtual
//!   channels. It is **not** a digest of who the residents are. The
//!   pipeline places an application under a fresh id, so it can tell a
//!   used neighbour from an idle one but never one tenant from another
//!   (the one reader of occupant identity, the mapping cost's
//!   fragmentation bonus, asks only "is this a task of the application I
//!   am placing?", and for every pre-existing resident the answer is no).
//!   A deterministic pipeline is therefore a function of
//!   `(shape, admission view)`: equal stamps certify the same answer to
//!   every admission question, and replaying a stored point lands on
//!   exactly the platform the cold run would have produced *from the
//!   state the replay starts on*. A warm cache changes which work runs,
//!   never what is decided — and an occupancy that comes back after its
//!   tenants were replaced by identical later instances hits.
//!
//! The stamp is a *maintained commutative digest*: the wrapping `u128`
//! sum of one digest per element record and one per link record, each
//! carrying its record's index so equal contents in two places never
//! cancel. The platform keeps the per-record digests and marks a record
//! dirty whenever a mutator — claim, release, transfer, link claim or
//! release, failure-mark flip — or the rollback of one rewrites it;
//! [`StateStamp::maintained`] re-digests only the marked records, so a
//! lookup costs O(records mutated since the previous lookup), not
//! `O(|E| + |L|)`. A probe's claim-and-rollback dirties a handful of
//! records and leaves the stamp exactly where it was. Only
//! `Platform::restore` marks everything at once: a checkpoint carries
//! state, not digests. [`stamp_of`] is the from-scratch definition of the
//! same sum, which the manager asserts equal on every lookup in debug
//! builds.
//!
//! Entries are additionally invalidated eagerly on fault/repair/migration
//! events via [`MappingCache::invalidate_element`] — the stamp alone
//! already keeps stale points from being *used* (a platform that offers
//! different resources stamps differently), so eager invalidation is what
//! keeps dead elements from pinning cache capacity and what the
//! `kairos.opcache.invalidations` counter observes.
//!
//! The cache is generic over the stored point type `P` (the manager
//! stores its own decision record, including refusals) through the
//! [`OperatingPoint`] trait, which only asks whether a point uses a
//! given element. Iteration and eviction order are deterministic:
//! entries live in a `BTreeMap` keyed by `(shape, stamp)` and evict in
//! FIFO insertion order once [`CacheConfig::max_points`] is reached.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::{BTreeMap, VecDeque};

use kairos_app::Application;
use kairos_platform::{ElementId, Platform};

/// Structural signature of an [`Application`]: everything the admission
/// pipeline reads — tasks, roles, implementations, channels, constraints
/// — *except* the application's name, which it never reads. Two
/// workload-sampled instances of the same shape therefore share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeKey(u128);

/// The [`ShapeKey`] of `app`: the hash the application computed when it
/// was built.
pub fn shape_of(app: &Application) -> ShapeKey {
    ShapeKey(app.shape_hash())
}

/// Digest of the platform's admission view — per element the free
/// vector, the used flag and the failure mark, per link the free
/// bandwidth and virtual channels; resident identity and order are not
/// in it — [`Platform::state_stamp`]. Equal stamps certify the same
/// answer to every admission question, and that a replay lands on the
/// state the cold run would have produced, up to a collision of the
/// 128-bit sum; they do not certify equal platforms. The manager still
/// checks every claim of a replayed point and falls back to the cold
/// pipeline when one fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateStamp(u128);

impl StateStamp {
    /// The stamp the platform maintains, brought up to date: costs the
    /// records mutated since the platform was last stamped.
    pub fn maintained(platform: &mut Platform) -> StateStamp {
        StateStamp(platform.state_stamp())
    }
}

/// The [`StateStamp`] of `platform` from scratch — every record digested
/// and summed, `O(|E| + |L|)`. The definition [`StateStamp::maintained`]
/// must always equal; lookups use that one.
pub fn stamp_of(platform: &Platform) -> StateStamp {
    StateStamp(platform.state_stamp_from_scratch())
}

/// Configuration of a [`MappingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached operating points; the oldest entry is
    /// evicted (FIFO) when a fresh insertion would exceed this. Zero
    /// disables caching entirely while keeping the code path live.
    pub max_points: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_points: 1024 }
    }
}

/// Counters describing a [`MappingCache`]'s lifetime behaviour, surfaced
/// through `ResourceService::cache_stats` and the sim report's `cache`
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a point for the exact (shape, state) key.
    pub hits: u64,
    /// Lookups that found nothing and fell back to the cold pipeline.
    pub misses: u64,
    /// Entries removed by element-level invalidation (faults, repairs,
    /// migrations, rebalances) or by [`MappingCache::clear`].
    pub invalidations: u64,
    /// Entries stored after cold pipeline runs.
    pub insertions: u64,
    /// Entries dropped by FIFO capacity eviction.
    pub evictions: u64,
    /// Operating points currently resident.
    pub points: u64,
}

impl CacheStats {
    /// Field-wise sum, for aggregating per-shard caches into one view.
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

/// What the cache needs to know about a stored point: which platform
/// elements its layout touches, so fault-driven invalidation can drop
/// exactly the affected entries.
pub trait OperatingPoint {
    /// `true` when the point's layout places work on `element`.
    fn uses_element(&self, element: ElementId) -> bool;
}

/// The operating-point cache: a deterministic map from
/// `(ShapeKey, StateStamp)` to a stored point, with FIFO capacity
/// eviction and element-level invalidation.
#[derive(Debug, Clone)]
pub struct MappingCache<P> {
    config: CacheConfig,
    entries: BTreeMap<(ShapeKey, StateStamp), P>,
    /// Insertion order of exactly the keys of `entries`, oldest first,
    /// for deterministic FIFO eviction.
    order: VecDeque<(ShapeKey, StateStamp)>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    insertions: u64,
    evictions: u64,
}

impl<P: OperatingPoint + Clone> MappingCache<P> {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        MappingCache {
            config,
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of resident points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no points are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the point stored for `(shape, stamp)`, counting the hit
    /// or miss.
    pub fn lookup(&mut self, shape: ShapeKey, stamp: StateStamp) -> Option<P> {
        match self.entries.get(&(shape, stamp)) {
            Some(point) => {
                self.hits += 1;
                Some(point.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `point` under `(shape, stamp)`, evicting the oldest entry
    /// first when the cache is full. Overwrites silently on key
    /// collision. A `max_points` of zero stores nothing.
    pub fn insert(&mut self, shape: ShapeKey, stamp: StateStamp, point: P) {
        if self.config.max_points == 0 {
            return;
        }
        let key = (shape, stamp);
        if self.entries.insert(key, point).is_none() {
            self.order.push_back(key);
            if self.entries.len() > self.config.max_points {
                let oldest = self.order.pop_front().expect("the order queue lists every entry");
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.insertions += 1;
    }

    /// Removes every point whose layout uses `element`, returning how
    /// many were dropped (also added to the `invalidations` counter).
    pub fn invalidate_element(&mut self, element: ElementId) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, point| !point.uses_element(element));
        let dropped = (before - self.entries.len()) as u64;
        if dropped > 0 {
            // A key left behind would be pushed a second time when it is
            // inserted again, and the eviction that reaches the stale
            // position would drop that newest entry instead of the oldest.
            let entries = &self.entries;
            self.order.retain(|key| entries.contains_key(key));
        }
        self.invalidations += dropped;
        dropped
    }

    /// [`Self::invalidate_element`] over a set, counting each entry once
    /// even when it uses several of the elements.
    pub fn invalidate_elements(&mut self, elements: &[ElementId]) -> u64 {
        let mut dropped = 0;
        for &e in elements {
            dropped += self.invalidate_element(e);
        }
        dropped
    }

    /// Removes every resident point, returning how many were dropped
    /// (also added to the `invalidations` counter). For a change no key
    /// covers — the manager's cost weights are in neither the shape nor
    /// the stamp. The lifetime counters survive: only the stored
    /// decisions are void.
    pub fn clear(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.order.clear();
        self.invalidations += dropped;
        dropped
    }

    /// A snapshot of the cache's lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            insertions: self.insertions,
            evictions: self.evictions,
            points: self.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, Occupant, ResourceVector};

    #[derive(Debug, Clone, PartialEq)]
    struct Point(Vec<ElementId>);

    impl OperatingPoint for Point {
        fn uses_element(&self, element: ElementId) -> bool {
            self.0.contains(&element)
        }
    }

    fn app(name: &str, cpu: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 10, 2);
        let mut b = ApplicationBuilder::new(name);
        let a = b.add_task("in0", TaskRole::Input, vec![imp]);
        let c = b.add_task("out0", TaskRole::Output, vec![imp]);
        b.add_channel(a, c, 100, 1);
        b.build().unwrap()
    }

    #[test]
    fn shape_ignores_the_name_and_sees_everything_else() {
        assert_eq!(shape_of(&app("web-0", 500)), shape_of(&app("web-1", 500)));
        assert_ne!(shape_of(&app("web-0", 500)), shape_of(&app("web-0", 501)));
    }

    #[test]
    fn stamp_tracks_state_not_epoch() {
        let mut p = topology::crisp();
        let idle = stamp_of(&p);
        let e = p.element_ids().next().unwrap();
        p.claim(
            e,
            Occupant { app: kairos_platform::AppId(0), task: 0, claimed: ResourceVector::ZERO },
        )
        .unwrap();
        let occupied = stamp_of(&p);
        assert_ne!(idle, occupied, "a zero-vector occupant still makes the element used");
        p.release(e, kairos_platform::AppId(0), 0).unwrap();
        assert_eq!(stamp_of(&p), idle, "identical state stamps identically");
        p.fail_element(e);
        assert_ne!(stamp_of(&p), idle, "failure marks are part of the stamp");
    }

    #[test]
    fn stamp_sees_what_is_free_not_who_holds_the_rest() {
        let seat = |app: u32, task: u32, cpu: u64| Occupant {
            app: kairos_platform::AppId(app),
            task,
            claimed: ResourceVector::new(cpu, 4, 0, 0),
        };
        let e = topology::crisp().element_ids().next().unwrap();
        let stamp_with = |seats: &[Occupant]| {
            let mut p = topology::crisp();
            seats.iter().for_each(|&s| p.claim(e, s).unwrap());
            stamp_of(&p)
        };
        let one = stamp_with(&[seat(1, 0, 100)]);
        assert_eq!(one, stamp_with(&[seat(7, 3, 100)]), "another tenant, the same hole");
        assert_ne!(one, stamp_with(&[seat(1, 0, 101)]), "one unit less free is another state");
        // Two residents whose claims sum to one resident's: the same free
        // vector, the same used flag — and different platforms.
        let split = [
            Occupant { claimed: ResourceVector::new(60, 3, 0, 0), ..seat(2, 0, 0) },
            Occupant { claimed: ResourceVector::new(40, 1, 0, 0), ..seat(3, 0, 0) },
        ];
        assert_eq!(one, stamp_with(&split));
        assert_eq!(stamp_with(&split), stamp_with(&[split[1], split[0]]), "in either order");
    }

    #[test]
    fn maintained_stamp_follows_the_state_across_rollback_and_restore() {
        let mut p = topology::crisp();
        let e = p.element_ids().next().unwrap();
        let seat =
            Occupant { app: kairos_platform::AppId(1), task: 0, claimed: ResourceVector::ZERO };
        let s0 = StateStamp::maintained(&mut p);
        assert_eq!(s0, stamp_of(&p), "the maintained stamp is the from-scratch sum");
        assert_eq!(StateStamp::maintained(&mut p), s0, "unchanged state, unchanged stamp");

        // A probe: the claim and its rollback both mark the record, and
        // the stamp comes back to where it was although the epoch moved.
        let epoch = p.state_epoch();
        p.begin_txn();
        p.claim(e, seat).unwrap();
        assert_ne!(StateStamp::maintained(&mut p), s0);
        p.rollback_txn();
        assert!(p.state_epoch() > epoch);
        assert_eq!(StateStamp::maintained(&mut p), s0, "the state is back, so is the stamp");

        let cp = p.checkpoint();
        p.claim(e, seat).unwrap();
        let s1 = StateStamp::maintained(&mut p);
        assert_ne!(s0, s1);

        // restore() rewrites every record without touching any mutator:
        // it must void the ledger wholesale, otherwise this stamp would
        // still answer `s1` for a platform equal to the checkpoint.
        p.restore(cp);
        assert_eq!(StateStamp::maintained(&mut p), s0, "restore voids the maintained digests");
        assert_eq!(stamp_of(&p), s0);
    }

    #[test]
    fn lookup_hit_miss_and_fifo_eviction() {
        let mut cache: MappingCache<Point> = MappingCache::new(CacheConfig { max_points: 2 });
        let shape = shape_of(&app("a", 100));
        let stamps: Vec<StateStamp> = (0..3).map(|i| StateStamp(i as u128)).collect();
        assert!(cache.lookup(shape, stamps[0]).is_none());
        cache.insert(shape, stamps[0], Point(vec![ElementId(0)]));
        cache.insert(shape, stamps[1], Point(vec![ElementId(1)]));
        assert_eq!(cache.lookup(shape, stamps[0]), Some(Point(vec![ElementId(0)])));
        cache.insert(shape, stamps[2], Point(vec![ElementId(2)]));
        assert!(cache.lookup(shape, stamps[0]).is_none(), "oldest entry evicted first");
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!((stats.insertions, stats.evictions, stats.points), (3, 1, 2));
    }

    #[test]
    fn invalidation_drops_exactly_the_overlapping_points() {
        let mut cache: MappingCache<Point> = MappingCache::new(CacheConfig::default());
        let shape = shape_of(&app("a", 100));
        cache.insert(shape, StateStamp(0), Point(vec![ElementId(0), ElementId(1)]));
        cache.insert(shape, StateStamp(1), Point(vec![ElementId(2)]));
        assert_eq!(cache.invalidate_element(ElementId(1)), 1);
        assert_eq!(cache.invalidate_element(ElementId(1)), 0, "already gone");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidate_elements(&[ElementId(2), ElementId(3)]), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 2);
        cache.insert(shape, StateStamp(2), Point(vec![ElementId(4)]));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn eviction_stays_fifo_after_invalidate_and_reinsert() {
        let mut cache: MappingCache<Point> = MappingCache::new(CacheConfig { max_points: 3 });
        let shape = shape_of(&app("a", 100));
        let key = |i: u128| StateStamp(i);
        cache.insert(shape, key(0), Point(vec![ElementId(0)]));
        cache.insert(shape, key(1), Point(vec![ElementId(1)]));
        assert_eq!(cache.invalidate_element(ElementId(0)), 1);
        cache.insert(shape, key(2), Point(vec![ElementId(2)]));
        // Key 0 comes back as the *newest* entry. A copy of it left at the
        // front of the queue would make the next eviction drop it instead
        // of key 1, the oldest.
        cache.insert(shape, key(0), Point(vec![ElementId(0)]));
        cache.insert(shape, key(3), Point(vec![ElementId(3)]));
        assert!(cache.lookup(shape, key(1)).is_none(), "the oldest entry is the one evicted");
        assert!(cache.lookup(shape, key(0)).is_some(), "the re-inserted entry is the newest");
        assert_eq!((cache.len(), cache.stats().evictions), (3, 1));
    }

    #[test]
    fn invalidation_churn_keeps_the_queue_as_long_as_the_map() {
        // Invalidation keeps this cache well below capacity, so nothing is
        // ever evicted; the queue must not remember the dropped keys.
        let mut cache: MappingCache<Point> = MappingCache::new(CacheConfig { max_points: 64 });
        let shape = shape_of(&app("a", 100));
        for round in 0..50u128 {
            for i in 0..4 {
                cache.insert(shape, StateStamp(round * 4 + i), Point(vec![ElementId(i as u32)]));
            }
            cache.invalidate_elements(&[ElementId(0), ElementId(1), ElementId(2)]);
            assert_eq!(cache.order.len(), cache.entries.len());
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn clear_drops_every_point_and_keeps_the_lifetime_counters() {
        let mut cache: MappingCache<Point> = MappingCache::new(CacheConfig { max_points: 2 });
        let shape = shape_of(&app("a", 100));
        cache.insert(shape, StateStamp(0), Point(vec![ElementId(0)]));
        cache.insert(shape, StateStamp(1), Point(vec![]));
        assert!(cache.lookup(shape, StateStamp(0)).is_some());
        assert_eq!(cache.clear(), 2);
        assert_eq!(cache.clear(), 0, "already empty");
        assert!(cache.lookup(shape, StateStamp(0)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 2));
        assert_eq!((stats.invalidations, stats.evictions, stats.points), (2, 0, 0));
        // The eviction queue was emptied with the entries: refilling to
        // capacity evicts nothing.
        cache.insert(shape, StateStamp(2), Point(vec![]));
        cache.insert(shape, StateStamp(3), Point(vec![]));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 0));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache: MappingCache<Point> = MappingCache::new(CacheConfig { max_points: 0 });
        let shape = shape_of(&app("a", 100));
        cache.insert(shape, StateStamp(0), Point(vec![]));
        assert!(cache.is_empty());
        assert!(cache.lookup(shape, StateStamp(0)).is_none());
    }
}
