//! Property-based tests of the platform substrate: resource-vector algebra,
//! ledger conservation, checkpoint/rollback, distance symmetry and the
//! precomputed structure tables.

use proptest::prelude::*;

use kairos_platform::{
    bfs_distances, external_fragmentation, topology, AppId, ElementId, ElementKind, Occupant,
    Platform, PlatformBuilder, RegionMap, ResourceVector, SearchDirection,
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
    fn component_min_max_bound(a in vector(), b in vector()) {
        let lo = a.component_min(&b);
        let hi = a.component_max(&b);
        prop_assert!(a.fits(&lo) && b.fits(&lo));
        prop_assert!(hi.fits(&a) && hi.fits(&b));
        prop_assert_eq!(lo + hi, a + b);
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
        let u = v.component_min(&cap).utilisation_of(&cap);
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
