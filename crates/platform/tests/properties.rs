//! Property-based tests of the platform substrate: resource-vector algebra,
//! ledger conservation, checkpoint/rollback, distance symmetry, the
//! precomputed structure tables, and — through `Platform::audit` — the
//! maintained state stamp, the kept free-capacity rank and the kept
//! occupancy totals.

use proptest::prelude::*;

use kairos_platform::{
    adjacent_pair_counts, bfs_distances, element_utilisation, external_fragmentation, topology,
    AppId, ElementId, ElementKind, LinkId, OccupancyTotals, Occupant, Platform, PlatformBuilder,
    PlatformCheckpoint, RegionMap, ResourceVector, SearchDirection,
};

fn vector() -> impl Strategy<Value = ResourceVector> {
    (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000)
        .prop_map(|(a, b, c, d)| ResourceVector::new(a, b, c, d))
}

/// The definition the platform's structure tables cache: the distinct
/// endpoints of `e`'s in- and out-links, ascending.
fn neighbors_from_links(p: &Platform, e: ElementId) -> Vec<ElementId> {
    let mut out: Vec<ElementId> = p
        .links()
        .filter_map(|l| match (l.src() == e, l.dst() == e) {
            (true, _) => Some(l.dst()),
            (_, true) => Some(l.src()),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn assert_structure_matches_its_definition(p: &Platform) {
    let mut max_degree = 0;
    for e in p.element_ids() {
        let expected = neighbors_from_links(p, e);
        assert_eq!(p.neighbors(e), expected.as_slice());
        assert_eq!(p.degree(e), expected.len());
        max_degree = max_degree.max(expected.len());
    }
    assert_eq!(p.max_degree(), max_degree);
    for kind in ElementKind::ALL {
        let expected: Vec<ElementId> =
            p.elements().filter(|e| e.kind() == kind).map(|e| e.id()).collect();
        assert_eq!(p.ids_of_kind(kind), expected.as_slice());
        assert!(p.elements_of_kind(kind).map(|e| e.id()).eq(expected));
    }
}

proptest! {
    #[test]
    fn add_is_commutative_and_monotone(a in vector(), b in vector()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert!((a + b).fits(&a));
        prop_assert!((a + b).fits(&b));
    }

    #[test]
    fn add_then_sub_roundtrips(a in vector(), b in vector()) {
        prop_assert_eq!((a + b).checked_sub(&b), Some(a));
    }

    #[test]
    fn fits_is_a_partial_order(a in vector(), b in vector(), c in vector()) {
        // reflexive
        prop_assert!(a.fits(&a));
        // transitive
        if a.fits(&b) && b.fits(&c) {
            prop_assert!(a.fits(&c));
        }
        // antisymmetric
        if a.fits(&b) && b.fits(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn checked_sub_agrees_with_fits(a in vector(), b in vector()) {
        prop_assert_eq!(a.checked_sub(&b).is_some(), a.fits(&b));
    }

    #[test]
    fn scaled_is_monotone_in_numerator(v in vector(), num in 0u64..100) {
        let smaller = v.scaled(num, 100);
        let larger = v.scaled(num + 1, 100);
        prop_assert!(larger.fits(&smaller));
        prop_assert!(v.fits(&smaller));
    }

    #[test]
    fn utilisation_is_bounded(v in vector(), cap in vector()) {
        // `v` clamped to `cap`, component by component.
        let within = cap.saturating_sub(&cap.saturating_sub(&v));
        let u = within.utilisation_of(&cap);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim/release sequences conserve resources exactly.
    #[test]
    fn ledger_conservation(ops in proptest::collection::vec((0u32..16, 0u64..800), 1..40)) {
        let mut platform = topology::dsp_mesh(4, 4);
        let initial = platform.total_free();
        let mut live: Vec<(kairos_platform::ElementId, u32)> = Vec::new();
        for (i, (elem_raw, amount)) in ops.iter().enumerate() {
            let e = kairos_platform::ElementId(*elem_raw);
            let claim = ResourceVector::new(*amount, 0, 0, 0);
            let occupant = Occupant { app: AppId(0), task: i as u32, claimed: claim };
            if platform.claim(e, occupant).is_ok() {
                live.push((e, i as u32));
            }
        }
        // Free + sum(claimed) == capacity at all times.
        let claimed: ResourceVector = platform
            .element_ids()
            .flat_map(|e| platform.residents(e).to_vec())
            .map(|o| o.claimed)
            .sum();
        prop_assert_eq!(platform.total_free() + claimed, initial);
        // Releasing everything restores the initial state.
        for (e, task) in live {
            prop_assert!(platform.release(e, AppId(0), task).is_some());
        }
        prop_assert!(platform.is_idle());
    }

    /// Checkpoint/restore is an exact inverse of arbitrary mutations.
    #[test]
    fn checkpoint_restore_is_exact(
        claims in proptest::collection::vec((0u32..16, 1u64..500), 0..20),
        fails in proptest::collection::vec(0u32..16, 0..5),
    ) {
        let mut platform = topology::dsp_mesh(4, 4);
        // Pre-populate some state so the checkpoint is non-trivial.
        platform
            .claim(
                kairos_platform::ElementId(3),
                Occupant { app: AppId(9), task: 0, claimed: ResourceVector::new(100, 0, 0, 0) },
            )
            .unwrap();
        let checkpoint = platform.checkpoint();
        let reference = platform.clone();
        for (i, (e, amount)) in claims.iter().enumerate() {
            let _ = platform.claim(
                kairos_platform::ElementId(*e),
                Occupant { app: AppId(1), task: i as u32, claimed: ResourceVector::new(*amount, 0, 0, 0) },
            );
        }
        for e in &fails {
            platform.fail_element(kairos_platform::ElementId(*e));
        }
        platform.restore(checkpoint);
        prop_assert_eq!(platform, reference);
    }

    /// Hop distances are symmetric on bidirectionally-connected topologies.
    #[test]
    fn distances_symmetric_on_bidirectional_platforms(w in 2usize..5, h in 2usize..5) {
        let platform = topology::dsp_mesh(w, h);
        for a in platform.element_ids() {
            let from_a = bfs_distances(&platform, a, SearchDirection::Forward);
            for b in platform.element_ids() {
                let from_b = bfs_distances(&platform, b, SearchDirection::Forward);
                prop_assert_eq!(from_a[b.index()], from_b[a.index()]);
            }
        }
    }

    /// Fragmentation is always within [0, 1] and zero on idle platforms.
    #[test]
    fn fragmentation_bounds(claims in proptest::collection::vec(0u32..36, 0..20)) {
        let mut platform = topology::dsp_mesh(6, 6);
        prop_assert_eq!(external_fragmentation(&platform), 0.0);
        for (i, e) in claims.iter().enumerate() {
            let _ = platform.claim(
                kairos_platform::ElementId(*e),
                Occupant { app: AppId(0), task: i as u32, claimed: ResourceVector::new(1, 0, 0, 0) },
            );
        }
        let f = external_fragmentation(&platform);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// Builder-constructed platforms always have consistent adjacency.
    #[test]
    fn adjacency_is_consistent(edges in proptest::collection::vec((0u32..10, 0u32..10), 0..30)) {
        let mut b = PlatformBuilder::new("prop");
        for _ in 0..10 {
            b.add_element(ElementKind::Dsp, ResourceVector::splat(10));
        }
        for (x, y) in edges {
            if x != y {
                b.connect_directed(
                    kairos_platform::ElementId(x),
                    kairos_platform::ElementId(y),
                    100,
                    2,
                );
            }
        }
        let p = b.build();
        let mut successor_pairs = 0;
        let mut predecessor_pairs = 0;
        for e in p.element_ids() {
            successor_pairs += p.successors(e).len();
            predecessor_pairs += p.predecessors(e).len();
            for &(n, l) in p.successors(e) {
                prop_assert_eq!(p.link(l).src(), e);
                prop_assert_eq!(p.link(l).dst(), n);
            }
        }
        prop_assert_eq!(successor_pairs, p.link_count());
        prop_assert_eq!(predecessor_pairs, p.link_count());
    }

    /// `neighbors` / `degree` / `max_degree` / `ids_of_kind` are read from
    /// tables built at construction; the tables equal the from-scratch computation on any
    /// link list — one-way links, both-way links, duplicates, isolated
    /// elements — and on every sub-platform a region map extracts from it,
    /// and no state mutation, clone or restore moves them.
    #[test]
    fn structure_cache_is_the_definition(
        elements in 1usize..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14, any::<bool>()), 0..40),
        shards in 1usize..4,
    ) {
        let mut b = PlatformBuilder::new("prop");
        for i in 0..elements {
            b.add_element(ElementKind::ALL[i * 5 % 6], ResourceVector::splat(10));
        }
        for (x, y, both_ways) in edges {
            let (x, y) = (ElementId(x % elements as u32), ElementId(y % elements as u32));
            if x == y {
                continue;
            }
            if both_ways {
                b.connect(x, y, 100, 2);
            } else {
                b.connect_directed(x, y, 100, 2);
            }
        }
        let mut p = b.build();
        assert_structure_matches_its_definition(&p);

        let map = RegionMap::new(&p, shards.min(elements)).unwrap();
        for r in 0..map.region_count() {
            assert_structure_matches_its_definition(&map.extract(&p, r));
        }

        let idle = p.checkpoint();
        let first = ElementId(0);
        p.claim(first, Occupant { app: AppId(1), task: 0, claimed: ResourceVector::splat(3) })
            .unwrap();
        p.fail_element(first);
        assert_structure_matches_its_definition(&p);
        assert_structure_matches_its_definition(&p.clone());
        p.restore(idle);
        assert_structure_matches_its_definition(&p);
    }
}

/// The platform the stamp properties run on: a 3x3 DSP mesh — 9 elements
/// and 24 directed links of identical capacities, so records differ by
/// nothing but their index and what the operations did to them.
fn stamp_platform() -> Platform {
    topology::dsp_mesh(3, 3)
}

/// One generated operation: `(kind, element or link, app, amount)`.
type Op = (u8, u32, u32, u64);

/// A platform under a generated operation sequence, with what must be
/// remembered beside it to keep the operations valid.
struct Driven {
    platform: Platform,
    /// What the operations hold on the platform now.
    held: Held,
    /// Open `begin_txn` checkpoints, innermost last: the exact state and
    /// what was held when each was pushed.
    open: Vec<(PlatformCheckpoint, Held)>,
    /// The last checkpoint taken, with what was held then.
    saved: Option<(PlatformCheckpoint, Held)>,
}

/// What the generated operations remember of their own claims.
#[derive(Debug, Clone, Default)]
struct Held {
    /// Outstanding link claims, so releases stay balanced.
    links: Vec<(LinkId, u64)>,
    /// Per application id, the elements it claimed on since its last
    /// `release_app`, in claiming order and with repeats: the ids that
    /// release passes, as a resource manager passes its layout's.
    seats: [Vec<ElementId>; 4],
}

impl Driven {
    fn new() -> Self {
        Driven::on(stamp_platform())
    }

    fn on(platform: Platform) -> Self {
        Driven { platform, held: Held::default(), open: Vec::new(), saved: None }
    }

    fn apply(&mut self, step: usize, (op, a, b, amount): Op) {
        let p = &mut self.platform;
        let e = ElementId(a % p.element_count() as u32);
        let l = LinkId(a % p.link_count() as u32);
        let app = AppId(b % 4);
        let held = &mut self.held;
        match op {
            0 | 1 => {
                // Task indices are unique per step: an `(app, task)` pair
                // names one occupant.
                let claimed = ResourceVector::new(amount, amount % 7, 0, 0);
                if p.claim(e, Occupant { app, task: step as u32, claimed }).is_ok() {
                    held.seats[app.0 as usize].push(e);
                }
            }
            2 => {
                if let Some(o) = p.residents(e).get(b as usize % 3).copied() {
                    p.release(e, o.app, o.task).unwrap();
                }
            }
            3 | 4 => {
                // The list may name an element twice, or one a single
                // release already emptied of `app`.
                let seats = std::mem::take(&mut held.seats[app.0 as usize]);
                let holds = |p: &Platform| {
                    p.element_ids().flat_map(|e| p.residents(e)).filter(|o| o.app == app).count()
                };
                let before = holds(p);
                assert_eq!(p.release_app(app, seats), before, "{app} released where it claimed");
                assert_eq!(holds(p), 0, "{app} still holds a seat");
            }
            5 | 6 => {
                if p.claim_link(l, amount).is_ok() {
                    held.links.push((l, amount));
                }
            }
            7 => {
                if !held.links.is_empty() {
                    let (l, bandwidth) = held.links.swap_remove(b as usize % held.links.len());
                    p.release_link(l, bandwidth);
                }
            }
            8 => p.fail_element(e),
            9 => p.repair_element(e),
            10 => {
                self.open.push((p.checkpoint(), held.clone()));
                p.begin_txn();
            }
            11 => {
                if let Some((state_at_begin, held_at_begin)) = self.open.pop() {
                    // Whatever happened since, the checkpoint `begin_txn`
                    // pushed comes back — every byte, resident order
                    // included, which the stamp would not see.
                    p.rollback_txn();
                    *held = held_at_begin;
                    assert_eq!(p.checkpoint(), state_at_begin);
                }
            }
            12 => self.saved = Some((p.checkpoint(), held.clone())),
            _ => {
                if let Some((checkpoint, held_then)) = &self.saved {
                    p.restore(checkpoint.clone());
                    *held = held_then.clone();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The platform audits clean — the maintained stamp equal to the
    /// from-scratch sum among the rest — after every step of any sequence
    /// of claims, releases, link claims and releases, faults, repairs,
    /// nested checkpoint-stack rollbacks and restores: on a platform audited
    /// after every step, and on a twin audited only now and then, whose
    /// dirty set therefore spans several mutations, rollbacks and restores
    /// at a time. The twins compare equal throughout (the ledger is no part
    /// of equality), and a third platform brought to the same state by a
    /// single restore stamps the same: the stamp is a function of the
    /// state, not of its history. A what-if copy, brought to the lazy
    /// twin's state in place after every step, carries its dirty sets
    /// along: its audit passes and it stamps and ranks as the twin does.
    #[test]
    fn state_stamp_is_the_from_scratch_sum_after_every_step(
        ops in proptest::collection::vec((0u8..14, 0u32..64, 0u32..64, 0u64..700), 1..80),
        stamp_lazy in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let mut eager = Driven::new();
        let mut lazy = Driven::new();
        let mut copy = stamp_platform();
        for (step, &op) in ops.iter().enumerate() {
            eager.apply(step, op);
            lazy.apply(step, op);
            prop_assert_eq!(eager.platform.audit(), Ok(()), "step {}: {:?}", step, op);
            copy.copy_state_from(&lazy.platform);
            prop_assert_eq!(copy.checkpoint(), lazy.platform.checkpoint());
            prop_assert_eq!(copy.state_epoch(), lazy.platform.state_epoch());
            prop_assert_eq!(copy.free_rank_dirty(), lazy.platform.free_rank_dirty());
            prop_assert_eq!(copy.audit(), Ok(()), "copy after step {}: {:?}", step, op);
            if stamp_lazy[step] {
                prop_assert_eq!(lazy.platform.audit(), Ok(()), "step {}: {:?}", step, op);
            }
            prop_assert_eq!(&eager.platform, &lazy.platform);
        }
        prop_assert_eq!(lazy.platform.clone().audit(), Ok(()), "a clone carries the ledger");
        prop_assert_eq!(lazy.platform.audit(), Ok(()));
        let expected = eager.platform.state_stamp_from_scratch();
        prop_assert_eq!(lazy.platform.state_stamp(), expected);

        let mut restored = stamp_platform();
        restored.restore(eager.platform.checkpoint());
        prop_assert_eq!(restored.state_stamp(), expected);
    }

    /// The record index is part of its digest: the same claim on another
    /// element, or the same reservation on another link, leaves the
    /// multiset of record *contents* as it was and must still move the sum.
    #[test]
    fn equal_contents_on_different_records_never_cancel(
        elements in (0u32..9, 0u32..9),
        links in (0u32..24, 0u32..24),
        amount in 0u64..500,
    ) {
        let seat = Occupant { app: AppId(1), task: 0, claimed: ResourceVector::new(amount, 0, 0, 0) };
        let seated_on = |e: u32| {
            let mut p = stamp_platform();
            p.claim(ElementId(e), seat).unwrap();
            p.state_stamp()
        };
        let reserved_on = |l: u32| {
            let mut p = stamp_platform();
            p.claim_link(LinkId(l), amount).unwrap();
            p.state_stamp()
        };
        prop_assert_eq!(seated_on(elements.0) == seated_on(elements.1), elements.0 == elements.1);
        prop_assert_eq!(reserved_on(links.0) == reserved_on(links.1), links.0 == links.1);
        // Nor does an element record ever stand in for a link record.
        prop_assert!(seated_on(elements.0) != reserved_on(links.0));
    }

    /// The kept free rank through the same storm, on a heterogeneous mesh
    /// (five DSPs, two memories, an FPGA and an ARM, so kinds rank apart):
    /// between refreshes every entry that is out of date belongs to an
    /// element listed dirty — the invariant binding's best fit stands on —
    /// and the audit, which refreshes, finds each kind's segment the
    /// from-scratch sort of `(free total, id)`. One platform is audited
    /// after every step, a twin only now and then, so its dirty set spans
    /// several mutations, rollbacks and restores at a time; both refresh
    /// to the definition, and the twins compare equal throughout (the rank
    /// is history, not state, and no part of equality).
    #[test]
    fn free_rank_is_the_from_scratch_sort_after_every_refresh(
        ops in proptest::collection::vec((0u8..14, 0u32..64, 0u32..64, 0u64..700), 1..80),
        refresh_lazy in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let mut eager = Driven::on(topology::heterogeneous_mesh(3, 3));
        let mut lazy = Driven::on(topology::heterogeneous_mesh(3, 3));
        for (step, &op) in ops.iter().enumerate() {
            eager.apply(step, op);
            lazy.apply(step, op);
            assert_stale_entries_are_dirty(&eager.platform);
            prop_assert_eq!(eager.platform.audit(), Ok(()), "step {}: {:?}", step, op);
            assert_stale_entries_are_dirty(&lazy.platform);
            if refresh_lazy[step] {
                prop_assert_eq!(lazy.platform.audit(), Ok(()), "step {}: {:?}", step, op);
            }
            prop_assert_eq!(&eager.platform, &lazy.platform);
        }
        prop_assert_eq!(lazy.platform.clone().audit(), Ok(()));
        prop_assert_eq!(lazy.platform.audit(), Ok(()));

        // A restore ranks from scratch: nothing is left dirty, and nothing
        // is stale.
        let mut restored = topology::heterogeneous_mesh(3, 3);
        restored.restore(eager.platform.checkpoint());
        prop_assert!(restored.free_rank_dirty().is_empty());
        prop_assert_eq!(restored.audit(), Ok(()));
    }
}

/// The occupancy totals by the `frag.rs` walks and the platform's own
/// vector sums, spelled out here rather than through
/// `Platform::totals_from_scratch`.
fn walked_totals(p: &Platform) -> OccupancyTotals {
    let (mixed_pairs, pairs) = adjacent_pair_counts(p);
    assert_eq!(pairs, p.pair_count());
    let used = p.element_ids().filter(|&e| p.is_used(e)).count();
    assert_eq!(element_utilisation(p), used as f64 / p.element_count() as f64);
    OccupancyTotals {
        free: p.total_free().total(),
        capacity: p.total_capacity().total(),
        used,
        failed: p.failed_elements().len(),
        mixed_pairs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kept occupancy totals and used-neighbour counts equal the walks
    /// after every step of any sequence of claims, releases, application
    /// releases, faults and repairs — on a 3x3 heterogeneous mesh most
    /// generated faults and repairs are redundant, and those must change
    /// nothing, not even the epoch — checkpoint-stack rollbacks and
    /// restores; and a what-if copy brought to the state in place carries
    /// them along.
    #[test]
    fn occupancy_totals_are_the_walks_after_every_step(
        ops in proptest::collection::vec((0u8..14, 0u32..64, 0u32..64, 0u64..700), 1..80),
    ) {
        let mut driven = Driven::on(topology::heterogeneous_mesh(3, 3));
        let mut copy = topology::heterogeneous_mesh(3, 3);
        for (step, &op) in ops.iter().enumerate() {
            let e = ElementId(op.1 % driven.platform.element_count() as u32);
            let flips = match op.0 {
                8 => !driven.platform.is_failed(e),
                9 => driven.platform.is_failed(e),
                _ => true,
            };
            let (epoch, before) = (driven.platform.state_epoch(), driven.platform.clone());
            driven.apply(step, op);
            let p = &driven.platform;
            if !flips {
                prop_assert_eq!(p.state_epoch(), epoch, "step {}: {:?}", step, op);
                prop_assert_eq!(p, &before, "step {}: {:?}", step, op);
                prop_assert_eq!(p.free_rank_dirty(), before.free_rank_dirty());
            }
            prop_assert_eq!(p.totals(), walked_totals(p), "step {}: {:?}", step, op);
            let frag = p.totals().mixed_pairs as f64 / p.pair_count() as f64;
            prop_assert_eq!(frag.to_bits(), external_fragmentation(p).to_bits());
            for x in p.element_ids() {
                let walked = p.neighbors(x).iter().filter(|&&n| p.is_used(n)).count() as u32;
                prop_assert_eq!(p.used_neighbours(x), walked, "{} after step {}: {:?}", x, step, op);
            }
            copy.copy_state_from(p);
            prop_assert_eq!(copy.totals(), p.totals(), "copy after step {}: {:?}", step, op);
            prop_assert!(
                p.element_ids().all(|x| copy.used_neighbours(x) == p.used_neighbours(x)),
                "copy after step {}: {:?}", step, op
            );
            prop_assert_eq!(copy.checkpoint(), p.checkpoint());
        }
        prop_assert_eq!(driven.platform.audit(), Ok(()));
    }
}

/// The stamp digests what is free, used and failed where — not who holds
/// it, nor in what order.
#[test]
fn stamp_sees_what_is_free_not_who_holds_the_rest() {
    let seat = |app: u32, task: u32, cpu: u64| Occupant {
        app: AppId(app),
        task,
        claimed: ResourceVector::new(cpu, 4, 0, 0),
    };
    let e = topology::crisp().element_ids().next().unwrap();
    let stamp_with = |seats: &[Occupant]| {
        let mut p = topology::crisp();
        seats.iter().for_each(|&s| p.claim(e, s).unwrap());
        p.state_stamp_from_scratch()
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

/// The maintained stamp through a claim and its release and through a
/// restore, which must void the per-record digests wholesale.
#[test]
fn maintained_stamp_follows_the_state_across_release_and_restore() {
    let mut p = topology::crisp();
    let e = p.element_ids().next().unwrap();
    let seat = Occupant { app: AppId(1), task: 0, claimed: ResourceVector::ZERO };
    let s0 = p.state_stamp();
    assert_eq!(s0, p.state_stamp_from_scratch(), "the maintained stamp is the from-scratch sum");
    assert_eq!(p.state_stamp(), s0, "unchanged state, unchanged stamp");

    // The claim and its release both mark the record, and the stamp
    // comes back to where it was although the epoch moved.
    let epoch = p.state_epoch();
    p.claim(e, seat).unwrap();
    assert_ne!(p.state_stamp(), s0);
    p.release(e, AppId(1), 0).unwrap();
    assert!(p.state_epoch() > epoch);
    assert_eq!(p.state_stamp(), s0, "the state is back, so is the stamp");

    let cp = p.checkpoint();
    p.claim(e, seat).unwrap();
    let s1 = p.state_stamp();
    assert_ne!(s0, s1);

    // restore() rewrites every record without touching any mutator:
    // it must void the ledger wholesale, otherwise this stamp would
    // still answer `s1` for a platform equal to the checkpoint.
    p.restore(cp);
    assert_eq!(p.state_stamp(), s0, "restore voids the maintained digests");
    assert_eq!(p.state_stamp_from_scratch(), s0);
}

/// A rank with pending mutations: each segment is still a strictly
/// ascending permutation of the kind's ids, every entry of an element not
/// listed dirty carries its current total, and the dirty list and flags
/// agree, each element listed once.
fn assert_stale_entries_are_dirty(p: &Platform) {
    for kind in ElementKind::ALL {
        let rank = p.free_rank(kind);
        assert!(rank.windows(2).all(|w| w[0] < w[1]), "{kind:?} ascending");
        let mut ids: Vec<_> = rank.iter().map(|&(_, e)| e).collect();
        ids.sort_unstable();
        assert_eq!(ids, p.ids_of_kind(kind));
        for &(total, e) in rank {
            assert!(p.is_free_rank_dirty(e) || total == p.free(e).total(), "{e} is stale");
        }
    }
    let mut dirty = p.free_rank_dirty().to_vec();
    assert!(dirty.iter().all(|&e| p.is_free_rank_dirty(e)));
    dirty.sort_unstable();
    dirty.dedup();
    assert_eq!(dirty.len(), p.free_rank_dirty().len(), "listed once");
    assert_eq!(dirty.len(), p.element_ids().filter(|&e| p.is_free_rank_dirty(e)).count());
}
