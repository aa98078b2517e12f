//! # kairos-opcache
//!
//! A design-time *operating-point* mapping cache for the Kairos resource
//! manager, after the hybrid design-time/run-time mapping methodology:
//! once the full binding/mapping/routing pipeline has computed an
//! execution layout for an application *shape* on a given platform
//! occupancy, that operating point is remembered, and the next admission
//! of an identical shape against byte-identical occupancy replays the
//! stored point in O(claims) instead of re-running the whole pipeline.
//!
//! Two keys make this sound:
//!
//! * [`ShapeKey`] — a structural hash of the [`Application`] *excluding
//!   its name* (the pipeline never reads the name), so identical
//!   workload-sampled applications share cache entries;
//! * [`StateStamp`] — a hash of the complete mutable platform state
//!   (free vectors, resident order, link occupancy, failure marks). A
//!   cache hit therefore certifies that the platform is byte-identical
//!   to the state the point was computed on, and since the pipeline is
//!   deterministic, replaying the point reproduces *exactly* the
//!   decision the cold pipeline would have made. A warm cache changes
//!   which work runs, never what is decided.
//!
//! Stamping the full state per lookup would be `O(|E| + |L|)`, so the
//! cache memoizes the stamp against [`Platform::state_epoch`], the
//! monotone mutation counter every ledger mutation bumps. Entries are
//! additionally invalidated eagerly on fault/repair/migration events via
//! [`MappingCache::invalidate_element`] — the stamp alone already keeps
//! stale points from being *used* (a mutated platform stamps
//! differently), so eager invalidation is what keeps dead elements from
//! pinning memory and what the `kairos.opcache.invalidations` counter
//! observes.
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
use kairos_platform::{ElementId, LinkId, Platform};

/// 128-bit FNV-1a, the workspace's dependency-free structural hash.
#[derive(Debug, Clone, Copy)]
struct Fnv(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u128;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    #[inline]
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }
}

/// Structural signature of an [`Application`]: everything the admission
/// pipeline reads — tasks, roles, implementations, channels, constraints
/// — *except* the application's name, which it never reads. Two
/// workload-sampled instances of the same shape therefore share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeKey(u128);

/// Computes the [`ShapeKey`] of `app`.
pub fn shape_of(app: &Application) -> ShapeKey {
    let mut h = Fnv::new();
    h.u64(app.task_count() as u64);
    for t in app.tasks() {
        h.str(t.name());
        h.u64(t.role() as u64);
        h.u64(t.implementations().len() as u64);
        for imp in t.implementations() {
            h.str(imp.target().label());
            for &r in imp.requires().as_array() {
                h.u64(r);
            }
            h.u64(imp.exec_cycles());
            h.u64(imp.energy());
        }
    }
    h.u64(app.channel_count() as u64);
    for c in app.channels() {
        h.u64(c.src().0 as u64);
        h.u64(c.dst().0 as u64);
        h.u64(c.bandwidth());
        h.u64(c.tokens_per_firing() as u64);
    }
    h.u64(app.constraints().len() as u64);
    for k in app.constraints() {
        match *k {
            kairos_app::Constraint::Throughput { max_period_cycles } => {
                h.u64(0);
                h.u64(max_period_cycles);
            }
            kairos_app::Constraint::Latency { max_latency_cycles, pipeline_depth } => {
                h.u64(1);
                h.u64(max_latency_cycles);
                h.u64(pipeline_depth as u64);
            }
        }
    }
    ShapeKey(h.0)
}

/// Hash of the complete mutable platform state: per-element free vectors,
/// residents *in order*, per-link occupancy and failure marks. Equal
/// stamps certify byte-identical platform state (up to hash collision on
/// a 128-bit FNV, which the equivalence suite treats as impossible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateStamp(u128);

/// Computes the [`StateStamp`] of `platform`, hashing `O(|E| + |L|)`
/// state. Prefer [`MappingCache::stamp`], which memoizes this against
/// [`Platform::state_epoch`].
pub fn stamp_of(platform: &Platform) -> StateStamp {
    let mut h = Fnv::new();
    for e in platform.element_ids() {
        for &r in platform.free(e).as_array() {
            h.u64(r);
        }
        let residents = platform.residents(e);
        h.u64(residents.len() as u64);
        for occ in residents {
            h.u64(occ.app.0 as u64);
            h.u64(occ.task as u64);
            for &r in occ.claimed.as_array() {
                h.u64(r);
            }
        }
        h.byte(platform.is_failed(e) as u8);
    }
    for i in 0..platform.link_count() as u32 {
        let l = LinkId(i);
        h.u64(platform.link_free_bandwidth(l));
        h.u64(platform.link_free_virtual_channels(l) as u64);
    }
    StateStamp(h.0)
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
/// eviction, element-level invalidation and an epoch-memoized state
/// stamp.
#[derive(Debug, Clone)]
pub struct MappingCache<P> {
    config: CacheConfig,
    entries: BTreeMap<(ShapeKey, StateStamp), P>,
    /// Insertion order of live keys, for deterministic FIFO eviction.
    /// Invalidated keys linger here and are skipped at eviction time.
    order: VecDeque<(ShapeKey, StateStamp)>,
    /// Memoized `(state_epoch, stamp)` of the last stamped platform.
    memo: Option<(u64, StateStamp)>,
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
            memo: None,
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

    /// The current [`StateStamp`] of `platform`, memoized against
    /// [`Platform::state_epoch`] so repeated lookups between mutations
    /// cost O(1) instead of `O(|E| + |L|)`.
    pub fn stamp(&mut self, platform: &Platform) -> StateStamp {
        let epoch = platform.state_epoch();
        if let Some((at, stamp)) = self.memo {
            if at == epoch {
                return stamp;
            }
        }
        let stamp = stamp_of(platform);
        self.memo = Some((epoch, stamp));
        stamp
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
            while self.entries.len() > self.config.max_points {
                // Skip order entries already removed by invalidation.
                let old = self.order.pop_front().expect("entries outnumber the order queue");
                if self.entries.remove(&old).is_some() {
                    self.evictions += 1;
                }
            }
        }
        self.insertions += 1;
    }

    /// Removes every point whose layout uses `element`, returning how
    /// many were dropped (also added to the `invalidations` counter).
    pub fn invalidate_element(&mut self, element: ElementId) -> u64 {
        let stale: Vec<(ShapeKey, StateStamp)> =
            self.entries.iter().filter(|(_, p)| p.uses_element(element)).map(|(&k, _)| k).collect();
        let dropped = stale.len() as u64;
        for key in stale {
            self.entries.remove(&key);
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
    /// the stamp. The lifetime counters and the stamp memo survive:
    /// only the stored decisions are void, not the platform state.
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
        assert_ne!(idle, occupied, "a zero-vector occupant still changes resident order");
        p.release(e, kairos_platform::AppId(0), 0).unwrap();
        assert_eq!(stamp_of(&p), idle, "identical state bytes stamp identically");
        p.fail_element(e);
        assert_ne!(stamp_of(&p), idle, "failure marks are part of the stamp");
    }

    #[test]
    fn memoized_stamp_follows_the_epoch_across_restore() {
        let mut cache: MappingCache<Point> = MappingCache::new(CacheConfig::default());
        let mut p = topology::crisp();
        let e = p.element_ids().next().unwrap();
        let s0 = cache.stamp(&p);
        assert_eq!(cache.stamp(&p), s0, "memo answers unchanged state");

        let cp = p.checkpoint();
        p.claim(
            e,
            Occupant { app: kairos_platform::AppId(1), task: 0, claimed: ResourceVector::ZERO },
        )
        .unwrap();
        let s1 = cache.stamp(&p);
        assert_ne!(s0, s1);

        // The regression this PR fixes: restore() must advance the epoch,
        // otherwise this memoized stamp would still answer `s1` for a
        // platform that is byte-identical to the checkpoint.
        p.restore(cp);
        assert_eq!(cache.stamp(&p), s0, "restore invalidates the stamp memo");
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
        // Eviction after invalidation skips the stale order entries.
        cache.insert(shape, StateStamp(2), Point(vec![ElementId(4)]));
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
