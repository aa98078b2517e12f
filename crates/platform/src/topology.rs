//! Ready-made platform topologies, including the CRISP General Stream
//! Processor evaluated in the paper (Fig. 6).

use crate::builder::PlatformBuilder;
use crate::element::{ElementId, ElementKind};
use crate::platform::Platform;
use crate::resource::ResourceVector;

/// Default link bandwidth, in abstract units per time-slot.
pub const DEFAULT_LINK_BANDWIDTH: u64 = 1000;
/// Default number of virtual channels per link, after Kavaldjiev et al.
pub const DEFAULT_VIRTUAL_CHANNELS: u16 = 6;

/// Reference capacity vector for each element kind.
///
/// The workload generator expresses task demands as a *fraction* of the
/// target kind's reference capacity (the paper's "tasks use between 70% and
/// 100% of the element's resources").
pub fn default_capacity(kind: ElementKind) -> ResourceVector {
    match kind {
        ElementKind::Arm => ResourceVector::new(800, 1024, 0, 4),
        ElementKind::Dsp => ResourceVector::new(1000, 64, 0, 0),
        ElementKind::Fpga => ResourceVector::new(400, 256, 10_000, 8),
        ElementKind::Memory => ResourceVector::new(0, 4096, 0, 0),
        ElementKind::TestUnit => ResourceVector::new(200, 32, 0, 1),
        ElementKind::Io => ResourceVector::new(0, 16, 0, 4),
    }
}

/// DSP packages ("reconfigurable fabric devices") on a CRISP board.
const CRISP_PACKAGES: usize = 5;
/// Bandwidth of chip-to-chip bridge links (package-package, FPGA and ARM
/// attachments, board-board) — narrower than on-chip links, as off-chip
/// I/O is.
const BRIDGE_BANDWIDTH: u64 = 800;
/// Virtual channels per bridge link.
const BRIDGE_VIRTUAL_CHANNELS: u16 = 4;

/// The CRISP platform of the paper: an FPGA (left), five packages of
/// 9 DSPs + 2 memories + 1 hardware test unit, and an ARM host (right).
///
/// Element counts match §IV-A: 45 DSPs over 5 packages, 62 elements total.
/// Each package is a 3-wide, 4-row mesh (DSP rows on top, memory/test row at
/// the bottom); adjacent packages are bridged by two links, making the
/// platform noticeably *less connected than a full mesh*, as the paper notes
/// when discussing fragmentation.
///
/// # Examples
///
/// ```
/// use kairos_platform::{topology, ElementKind};
///
/// let p = topology::crisp();
/// assert_eq!(p.element_count(), 62);
/// assert_eq!(p.elements_of_kind(ElementKind::Dsp).count(), 45);
/// ```
pub fn crisp() -> Platform {
    let mut b = PlatformBuilder::new(format!("crisp-{CRISP_PACKAGES}pkg"));
    add_crisp_board(&mut b, "");
    b.build()
}

/// `n` CRISP boards ([`crisp`]'s 62 elements each: an FPGA, five packages,
/// an ARM host) tiled row by row on a grid `⌈√n⌉` boards wide: a
/// platform that grows by whole boards. Every board keeps its own FPGA and
/// ARM, so an application's I/O can find a host on its own board at any
/// size, where a `heterogeneous_mesh` holds one of each for the whole chip
/// and stretches requests pinned to them across it. Neighbouring boards are bridged like CRISP's packages, by
/// chip-to-chip links that keep off the FPGA and ARM: the middle DSP of
/// a board's last package's east column to the middle DSP of the west
/// column of the first package east of it, and each package's
/// bottom-middle memory to the top-middle DSP of the same package on the
/// board south of it. Board `i`'s element names carry the prefix
/// `tile{i}/`.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// use kairos_platform::{topology, ElementKind};
///
/// let p = topology::crisp_tiles(4);
/// assert_eq!(p.element_count(), 4 * 62);
/// assert_eq!(p.elements_of_kind(ElementKind::Fpga).count(), 4);
/// ```
pub fn crisp_tiles(n: usize) -> Platform {
    assert!(n > 0, "a tiled platform needs at least one board");
    let width = (1..=n).find(|w| w * w >= n).expect("n itself is wide enough");
    let mut b = PlatformBuilder::new(format!("crisp-tiles-{n}"));
    let boards: Vec<Vec<Vec<ElementId>>> =
        (0..n).map(|i| add_crisp_board(&mut b, &format!("tile{i}/"))).collect();
    let (bbw, bvc) = (BRIDGE_BANDWIDTH, BRIDGE_VIRTUAL_CHANNELS);
    for (i, packages) in boards.iter().enumerate() {
        if (i + 1) % width != 0 && i + 1 < n {
            let east = packages.last().expect("a board has packages")[5];
            b.connect(east, boards[i + 1][0][3], bbw, bvc);
        }
        if let Some(south) = boards.get(i + width) {
            for (above, below) in packages.iter().zip(south) {
                b.connect(above[10], below[1], bbw, bvc);
            }
        }
    }
    b.build()
}

/// Adds one CRISP board — elements, intra-package meshes, bridges — to
/// `b`, its element names prefixed by `prefix`, and returns each
/// package's 3x4 grid, row-major, DSP rows first.
fn add_crisp_board(b: &mut PlatformBuilder, prefix: &str) -> Vec<Vec<ElementId>> {
    let (bw, vc) = (DEFAULT_LINK_BANDWIDTH, DEFAULT_VIRTUAL_CHANNELS);
    let fpga = b.add_named_element(
        ElementKind::Fpga,
        format!("{prefix}fpga0"),
        default_capacity(ElementKind::Fpga),
    );

    // Per package: 3 columns x 4 rows; rows 0..2 are DSPs, row 3 is mem,mem,tst.
    const COLS: usize = 3;
    const ROWS: usize = 4;
    let mut packages: Vec<Vec<ElementId>> = Vec::new();
    for p in 0..CRISP_PACKAGES {
        let mut grid = Vec::with_capacity(COLS * ROWS);
        for row in 0..ROWS {
            for col in 0..COLS {
                let idx = row * COLS + col;
                let id = if row < 3 {
                    b.add_named_element(
                        ElementKind::Dsp,
                        format!("{prefix}pkg{p}/dsp{idx}"),
                        default_capacity(ElementKind::Dsp),
                    )
                } else if col < 2 {
                    b.add_named_element(
                        ElementKind::Memory,
                        format!("{prefix}pkg{p}/mem{col}"),
                        default_capacity(ElementKind::Memory),
                    )
                } else {
                    b.add_named_element(
                        ElementKind::TestUnit,
                        format!("{prefix}pkg{p}/tst0"),
                        default_capacity(ElementKind::TestUnit),
                    )
                };
                grid.push(id);
            }
        }
        // Intra-package mesh.
        for row in 0..ROWS {
            for col in 0..COLS {
                let here = grid[row * COLS + col];
                if col + 1 < COLS {
                    b.connect(here, grid[row * COLS + col + 1], bw, vc);
                }
                if row + 1 < ROWS {
                    b.connect(here, grid[(row + 1) * COLS + col], bw, vc);
                }
            }
        }
        packages.push(grid);
    }

    // Inter-package bridges: east column (col 2) of package p to west column
    // (col 0) of package p+1, on DSP rows 0 and 2 only. Bridges are
    // chip-to-chip and narrower than the on-chip mesh.
    let (bbw, bvc) = (BRIDGE_BANDWIDTH, BRIDGE_VIRTUAL_CHANNELS);
    for p in 0..CRISP_PACKAGES - 1 {
        for row in [0usize, 2] {
            let east = packages[p][row * COLS + (COLS - 1)];
            let west = packages[p + 1][row * COLS];
            b.connect(east, west, bbw, bvc);
        }
    }

    // FPGA bridges into package 0's west column.
    for row in [0usize, 2] {
        b.connect(fpga, packages[0][row * COLS], bbw, bvc);
    }

    // ARM host bridges into the last package's east column.
    let arm = b.add_named_element(
        ElementKind::Arm,
        format!("{prefix}arm0"),
        default_capacity(ElementKind::Arm),
    );
    let last = CRISP_PACKAGES - 1;
    for row in [0usize, 2] {
        b.connect(packages[last][row * COLS + (COLS - 1)], arm, bbw, bvc);
    }

    packages
}

/// A `width x height` mesh of DSP elements with default capacities.
///
/// # Panics
///
/// Panics when `width * height == 0`.
pub fn dsp_mesh(width: usize, height: usize) -> Platform {
    assert!(width * height > 0, "mesh must contain at least one element");
    let mut b = PlatformBuilder::new(format!("mesh-{width}x{height}"));
    let mut ids = Vec::with_capacity(width * height);
    for _ in 0..width * height {
        ids.push(b.add_element(ElementKind::Dsp, default_capacity(ElementKind::Dsp)));
    }
    for row in 0..height {
        for col in 0..width {
            let here = ids[row * width + col];
            if col + 1 < width {
                b.connect(
                    here,
                    ids[row * width + col + 1],
                    DEFAULT_LINK_BANDWIDTH,
                    DEFAULT_VIRTUAL_CHANNELS,
                );
            }
            if row + 1 < height {
                b.connect(
                    here,
                    ids[(row + 1) * width + col],
                    DEFAULT_LINK_BANDWIDTH,
                    DEFAULT_VIRTUAL_CHANNELS,
                );
            }
        }
    }
    b.build()
}

/// A line (open chain) of `n` DSP elements.
///
/// # Panics
///
/// Panics when `n == 0`.
pub fn dsp_line(n: usize) -> Platform {
    assert!(n > 0, "line must contain at least one element");
    let mut b = PlatformBuilder::new(format!("line-{n}"));
    let ids: Vec<_> = (0..n)
        .map(|_| b.add_element(ElementKind::Dsp, default_capacity(ElementKind::Dsp)))
        .collect();
    for w in ids.windows(2) {
        b.connect(w[0], w[1], DEFAULT_LINK_BANDWIDTH, DEFAULT_VIRTUAL_CHANNELS);
    }
    b.build()
}

/// A ring (closed chain) of `n` DSP elements.
///
/// # Panics
///
/// Panics when `n < 3`.
pub fn dsp_ring(n: usize) -> Platform {
    assert!(n >= 3, "ring needs at least three elements");
    let mut b = PlatformBuilder::new(format!("ring-{n}"));
    let ids: Vec<_> = (0..n)
        .map(|_| b.add_element(ElementKind::Dsp, default_capacity(ElementKind::Dsp)))
        .collect();
    for i in 0..n {
        b.connect(ids[i], ids[(i + 1) % n], DEFAULT_LINK_BANDWIDTH, DEFAULT_VIRTUAL_CHANNELS);
    }
    b.build()
}

/// A star: one ARM hub connected to `n` DSP leaves.
///
/// # Panics
///
/// Panics when `n == 0`.
pub fn star(n: usize) -> Platform {
    assert!(n > 0, "star needs at least one leaf");
    let mut b = PlatformBuilder::new(format!("star-{n}"));
    let hub = b.add_element(ElementKind::Arm, default_capacity(ElementKind::Arm));
    for _ in 0..n {
        let leaf = b.add_element(ElementKind::Dsp, default_capacity(ElementKind::Dsp));
        b.connect(hub, leaf, DEFAULT_LINK_BANDWIDTH, DEFAULT_VIRTUAL_CHANNELS);
    }
    b.build()
}

/// A small heterogeneous mesh for tests: DSPs with a memory tile every
/// fourth position, an FPGA in the first cell and an ARM in the last.
///
/// # Panics
///
/// Panics when `width * height < 4`.
pub fn heterogeneous_mesh(width: usize, height: usize) -> Platform {
    assert!(width * height >= 4, "heterogeneous mesh needs at least four cells");
    let mut b = PlatformBuilder::new(format!("hetmesh-{width}x{height}"));
    let total = width * height;
    let mut ids = Vec::with_capacity(total);
    for i in 0..total {
        let kind = if i == 0 {
            ElementKind::Fpga
        } else if i == total - 1 {
            ElementKind::Arm
        } else if i % 4 == 3 {
            ElementKind::Memory
        } else {
            ElementKind::Dsp
        };
        ids.push(b.add_element(kind, default_capacity(kind)));
    }
    for row in 0..height {
        for col in 0..width {
            let here = ids[row * width + col];
            if col + 1 < width {
                b.connect(
                    here,
                    ids[row * width + col + 1],
                    DEFAULT_LINK_BANDWIDTH,
                    DEFAULT_VIRTUAL_CHANNELS,
                );
            }
            if row + 1 < height {
                b.connect(
                    here,
                    ids[(row + 1) * width + col],
                    DEFAULT_LINK_BANDWIDTH,
                    DEFAULT_VIRTUAL_CHANNELS,
                );
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{bfs_distances, SearchDirection};

    #[test]
    fn crisp_matches_paper_inventory() {
        let p = crisp();
        assert_eq!(p.element_count(), 62); // fpga + 5*12 + arm
        assert_eq!(p.elements_of_kind(ElementKind::Dsp).count(), 45);
        assert_eq!(p.elements_of_kind(ElementKind::Memory).count(), 10);
        assert_eq!(p.elements_of_kind(ElementKind::TestUnit).count(), 5);
        assert_eq!(p.elements_of_kind(ElementKind::Arm).count(), 1);
        assert_eq!(p.elements_of_kind(ElementKind::Fpga).count(), 1);
    }

    #[test]
    fn crisp_is_connected() {
        let p = crisp();
        let fpga = p.elements_of_kind(ElementKind::Fpga).next().unwrap().id();
        let d = bfs_distances(&p, fpga, SearchDirection::Forward);
        assert!(d.iter().all(Option::is_some), "every element reachable from the FPGA");
    }

    #[test]
    fn crisp_is_less_connected_than_a_mesh() {
        // The same element count in a full mesh would have far more links.
        let p = crisp();
        let mesh = dsp_mesh(8, 8); // 64 elements, comparable size
        let crisp_avg = p.link_count() as f64 / p.element_count() as f64;
        let mesh_avg = mesh.link_count() as f64 / mesh.element_count() as f64;
        assert!(crisp_avg < mesh_avg);
    }

    #[test]
    fn crisp_tiles_repeat_the_board_and_bridge_neighbours() {
        let one = crisp_tiles(1);
        let (base, links) = (crisp(), crisp().link_count());
        assert_eq!(one.element_count(), base.element_count());
        assert_eq!(one.link_count(), links);
        // Kinds, capacities and links are CRISP's; only names are prefixed.
        assert!(one.elements().zip(base.elements()).all(|(a, b)| a.kind() == b.kind()
            && a.capacity() == b.capacity()
            && a.name() == format!("tile0/{}", b.name())));
        assert!(one
            .links()
            .zip(base.links())
            .all(|(a, b)| a.src() == b.src() && a.dst() == b.dst()));
        for n in [2, 4, 5, 16] {
            let p = crisp_tiles(n);
            assert_eq!(p.element_count(), 62 * n);
            assert_eq!(p.elements_of_kind(ElementKind::Fpga).count(), n);
            assert_eq!(p.elements_of_kind(ElementKind::Arm).count(), n);
            let width = (1..=n).find(|w| w * w >= n).unwrap();
            let east = (0..n).filter(|i| (i + 1) % width != 0 && i + 1 < n).count();
            let south = n.saturating_sub(width);
            assert_eq!(p.link_count(), n * links + 2 * (east + 5 * south), "{n} boards");
            let first = p.element_ids().next().unwrap();
            let d = bfs_distances(&p, first, SearchDirection::Forward);
            assert!(d.iter().all(Option::is_some), "{n} boards are connected");
        }
    }

    #[test]
    fn mesh_dimensions_and_degrees() {
        let p = dsp_mesh(3, 3);
        assert_eq!(p.element_count(), 9);
        // corner degree 2, edge degree 3, center degree 4
        let degrees: Vec<_> = p.element_ids().map(|e| p.degree(e)).collect();
        assert_eq!(degrees.iter().filter(|&&d| d == 2).count(), 4);
        assert_eq!(degrees.iter().filter(|&&d| d == 3).count(), 4);
        assert_eq!(degrees.iter().filter(|&&d| d == 4).count(), 1);
        assert_eq!(p.max_degree(), 4);
    }

    #[test]
    fn ring_and_line_shapes() {
        let ring = dsp_ring(5);
        assert!(ring.element_ids().all(|e| ring.degree(e) == 2));
        let line = dsp_line(5);
        assert_eq!(line.element_ids().filter(|&e| line.degree(e) == 1).count(), 2);
    }

    #[test]
    fn star_shape() {
        let p = star(6);
        assert_eq!(p.element_count(), 7);
        assert_eq!(p.max_degree(), 6);
    }

    #[test]
    fn heterogeneous_mesh_contains_all_roles() {
        let p = heterogeneous_mesh(4, 4);
        assert_eq!(p.elements_of_kind(ElementKind::Fpga).count(), 1);
        assert_eq!(p.elements_of_kind(ElementKind::Arm).count(), 1);
        assert!(p.elements_of_kind(ElementKind::Memory).count() >= 2);
        assert!(p.elements_of_kind(ElementKind::Dsp).count() >= 8);
    }

    #[test]
    fn default_capacities_are_kind_consistent() {
        use crate::resource::ResourceKind;
        assert!(default_capacity(ElementKind::Dsp).get(ResourceKind::Compute) > 0);
        assert_eq!(default_capacity(ElementKind::Memory).get(ResourceKind::Compute), 0);
        assert!(default_capacity(ElementKind::Fpga).get(ResourceKind::Area) > 0);
        assert!(default_capacity(ElementKind::Arm).get(ResourceKind::Io) > 0);
    }
}
