//! Conformance of the CRISP platform model against everything the paper
//! states about it (Fig. 6, §IV, §IV-A).

use kairos::platform::{bfs_distances, topology, ElementKind, SearchDirection};

#[test]
fn element_inventory_matches_figure_6() {
    let p = topology::crisp();
    // "an ARM processor (right), an FPGA (left), and 5 packages of 9 DSPs,
    // 2 memories and 1 hardware test unit"
    assert_eq!(p.elements_of_kind(ElementKind::Arm).count(), 1);
    assert_eq!(p.elements_of_kind(ElementKind::Fpga).count(), 1);
    assert_eq!(p.elements_of_kind(ElementKind::Dsp).count(), 45);
    assert_eq!(p.elements_of_kind(ElementKind::Memory).count(), 10);
    assert_eq!(p.elements_of_kind(ElementKind::TestUnit).count(), 5);
    assert_eq!(p.element_count(), 62);
}

#[test]
fn fpga_and_arm_sit_at_opposite_ends() {
    let p = topology::crisp();
    let fpga = p.elements_of_kind(ElementKind::Fpga).next().unwrap().id();
    let arm = p.elements_of_kind(ElementKind::Arm).next().unwrap().id();
    let dist = bfs_distances(&p, fpga, SearchDirection::Forward);
    // The ARM is the farthest element from the FPGA (both are chain ends).
    let arm_distance = dist[arm.index()].expect("connected");
    let max_distance = dist.iter().flatten().copied().max().unwrap();
    assert_eq!(arm_distance, max_distance, "ARM must be at the far end from the FPGA");
    assert!(arm_distance >= 10, "five packages lie between the endpoints");
}

#[test]
fn every_element_is_reachable_from_every_element() {
    let p = topology::crisp();
    for e in p.element_ids() {
        let dist = bfs_distances(&p, e, SearchDirection::Forward);
        assert!(dist.iter().all(Option::is_some), "unreachable element from {e}");
    }
}

#[test]
fn crisp_is_less_connected_than_a_mesh_of_equal_size() {
    // "Compared to a fully meshed platform, the CRISP architecture is less
    // connected."
    let crisp = topology::crisp();
    let mesh = topology::dsp_mesh(8, 8);
    let density = |p: &kairos::platform::Platform| p.link_count() as f64 / p.element_count() as f64;
    assert!(density(&crisp) < density(&mesh));
}

#[test]
fn bridges_are_narrower_than_onchip_links() {
    let p = topology::crisp();
    let bandwidths: std::collections::HashSet<u64> = p.links().map(|l| l.bandwidth()).collect();
    assert!(bandwidths.len() >= 2, "bridges and on-chip links must differ");
    let max = bandwidths.iter().max().unwrap();
    let min = bandwidths.iter().min().unwrap();
    assert!(min < max);
    // The FPGA's attachments are bridges (the narrow kind).
    let fpga = p.elements_of_kind(ElementKind::Fpga).next().unwrap().id();
    for &(_, link) in p.successors(fpga) {
        assert_eq!(p.link(link).bandwidth(), *min);
    }
}

#[test]
fn dsp_capacity_hosts_one_heavy_or_several_light_tasks() {
    // The Table I orientation bands rely on this: a 70-100% task owns a DSP,
    // 10-70% tasks can share.
    let cap = topology::default_capacity(ElementKind::Dsp);
    let heavy = cap.scaled(70, 100);
    let light = cap.scaled(30, 100);
    assert!(
        !cap.checked_sub(&heavy).map(|rest| rest.fits(&heavy)).unwrap_or(false),
        "two heavy tasks must not share a DSP"
    );
    let after_two_light = cap.checked_sub(&light).and_then(|r| r.checked_sub(&light));
    assert!(after_two_light.is_some(), "two light tasks must share a DSP");
}

#[test]
fn scaled_crisp_variants_are_consistent() {
    // Scaled CRISP is whole boards: each keeps its five packages, its FPGA
    // and its ARM host, and the bridges join them into one component.
    for n in 1..=6 {
        let p = topology::crisp_tiles(n);
        assert_eq!(p.element_count(), 62 * n, "{n} boards");
        assert_eq!(p.elements_of_kind(ElementKind::Dsp).count(), 45 * n, "{n} boards");
        assert_eq!(p.elements_of_kind(ElementKind::Fpga).count(), n, "{n} boards");
        assert_eq!(p.elements_of_kind(ElementKind::Arm).count(), n, "{n} boards");
        for board in 0..n {
            let on_board = |kind| {
                p.elements_of_kind(kind)
                    .filter(|e| e.name().starts_with(&format!("tile{board}/")))
                    .count()
            };
            assert_eq!(on_board(ElementKind::Fpga), 1, "board {board} of {n}");
            assert_eq!(on_board(ElementKind::Arm), 1, "board {board} of {n}");
        }
        let first = p.element_ids().next().unwrap();
        let dist = bfs_distances(&p, first, SearchDirection::Forward);
        assert!(dist.iter().all(Option::is_some), "{n} boards are one connected component");
    }
}
