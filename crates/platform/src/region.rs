//! Region views: partitioning a platform into disjoint, contiguous
//! element groups.
//!
//! Sharded deployments of the resource manager split the fabric into
//! regions that are managed semi-independently, the way hybrid
//! design-time/run-time methodologies pre-partition a platform so
//! run-time decisions stay local and fast. A [`RegionMap`] is such a
//! partition: every element belongs to exactly one region, regions are
//! grown contiguously along the platform's links, and region capacities
//! are balanced so no shard manager inherits a disproportionate share of
//! the fabric.
//!
//! [`RegionMap::extract`] materialises one region as a standalone
//! [`Platform`] (elements keep their kinds, names and capacities;
//! intra-region links keep their bandwidth and virtual channels; links
//! crossing a region boundary are dropped), and the id-translation
//! accessors ([`RegionMap::to_local`], [`RegionMap::to_global`],
//! [`RegionMap::region_of`]) convert between the global id space and a
//! region's local one.

use crate::builder::PlatformBuilder;
use crate::element::ElementId;
use crate::platform::Platform;

/// A partition of a platform's elements into disjoint contiguous regions.
///
/// Built by [`RegionMap::new`], which grows each region along the
/// platform's links, balancing the summed resource capacity of the
/// regions. A single-region map is the identity partition: element order
/// and ids are preserved exactly, so a shard extracted from it behaves
/// byte-identically to the original platform.
///
/// # Examples
///
/// ```
/// use kairos_platform::{topology, RegionMap};
///
/// let platform = topology::crisp();
/// let map = RegionMap::new(&platform, 4).unwrap();
/// assert_eq!(map.region_count(), 4);
/// let total: usize = (0..4).map(|r| map.elements(r).len()).sum();
/// assert_eq!(total, platform.element_count());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    /// Global element ids per region, each sorted ascending.
    regions: Vec<Vec<ElementId>>,
    /// `(region, local index)` per global element id.
    home: Vec<(u32, u32)>,
}

impl RegionMap {
    /// Partitions `platform` into `regions` disjoint contiguous element
    /// groups balanced by summed resource capacity.
    ///
    /// The partitioner is deterministic: each region is seeded at the
    /// smallest unassigned element id and grown by repeatedly annexing
    /// the unassigned neighbor with the most links into the region so
    /// far (ties broken by id), until the region's capacity reaches its
    /// proportional share of what remains. Elements unreachable from any
    /// seed (a disconnected platform) are swept into the last region.
    ///
    /// # Errors
    ///
    /// When `regions` is zero or exceeds the element count.
    pub fn new(platform: &Platform, regions: usize) -> Result<RegionMap, String> {
        let n = platform.element_count();
        if regions == 0 {
            return Err("a region map needs at least one region".into());
        }
        if regions > n {
            return Err(format!("cannot split {n} elements into {regions} regions"));
        }
        let weight = |e: ElementId| -> u64 {
            platform.element(e).capacity().as_array().iter().sum::<u64>().max(1)
        };
        let mut unassigned: Vec<bool> = vec![true; n];
        let mut left = n;
        let mut remaining_weight: u64 = platform.element_ids().map(weight).sum();
        let mut out: Vec<Vec<ElementId>> = Vec::with_capacity(regions);

        for r in 0..regions {
            let reserve = regions - r - 1; // later regions need one element each
            let target = remaining_weight / (regions - r) as u64;
            let seed = platform
                .element_ids()
                .find(|e| unassigned[e.index()])
                .expect("regions <= elements guarantees a seed");
            unassigned[seed.index()] = false;
            left -= 1;
            let mut members = vec![seed];
            let mut grown = weight(seed);
            let mut in_region = vec![false; n];
            in_region[seed.index()] = true;

            while grown < target && left > reserve {
                // The frontier: unassigned neighbors of the region, scored
                // by how many links they already share with it.
                let mut best: Option<(usize, ElementId)> = None;
                for &m in &members {
                    for &nb in platform.neighbors(m) {
                        if !unassigned[nb.index()] || in_region[nb.index()] {
                            continue;
                        }
                        let ties =
                            platform.neighbors(nb).iter().filter(|x| in_region[x.index()]).count();
                        let better = match best {
                            None => true,
                            Some((bt, be)) => ties > bt || (ties == bt && nb < be),
                        };
                        if better {
                            best = Some((ties, nb));
                        }
                    }
                }
                let Some((_, next)) = best else { break }; // frontier exhausted
                unassigned[next.index()] = false;
                in_region[next.index()] = true;
                left -= 1;
                grown += weight(next);
                members.push(next);
            }
            remaining_weight = remaining_weight.saturating_sub(grown);
            out.push(members);
        }

        // A region's growth can wall off part of the graph before later
        // seeds reach it. Leftovers join an adjacent region (which keeps
        // every region contiguous); only elements disconnected from all
        // regions fall to the last one.
        let mut region_of = vec![usize::MAX; n];
        for (r, members) in out.iter().enumerate() {
            for &e in members {
                region_of[e.index()] = r;
            }
        }
        while left > 0 {
            let mut absorbed = false;
            for e in platform.element_ids() {
                if !unassigned[e.index()] {
                    continue;
                }
                let Some(&nb) =
                    platform.neighbors(e).iter().find(|nb| region_of[nb.index()] != usize::MAX)
                else {
                    continue;
                };
                let r = region_of[nb.index()];
                region_of[e.index()] = r;
                out[r].push(e);
                unassigned[e.index()] = false;
                left -= 1;
                absorbed = true;
            }
            if !absorbed {
                // What remains is disconnected from every region.
                for e in platform.element_ids() {
                    if unassigned[e.index()] {
                        out.last_mut().expect("at least one region").push(e);
                    }
                }
                break;
            }
        }
        for members in &mut out {
            members.sort_unstable();
        }

        let mut home = vec![(0u32, 0u32); n];
        for (r, members) in out.iter().enumerate() {
            for (local, e) in members.iter().enumerate() {
                home[e.index()] = (r as u32, local as u32);
            }
        }
        Ok(RegionMap { regions: out, home })
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Global element ids of `region`, ascending.
    ///
    /// # Panics
    ///
    /// Panics when `region` is out of range.
    pub fn elements(&self, region: usize) -> &[ElementId] {
        &self.regions[region]
    }

    /// The region owning global element `e`.
    ///
    /// # Panics
    ///
    /// Panics when `e` does not belong to the partitioned platform.
    pub fn region_of(&self, e: ElementId) -> usize {
        self.home[e.index()].0 as usize
    }

    /// The local id of global element `e` inside its region's extracted
    /// platform.
    ///
    /// # Panics
    ///
    /// Panics when `e` does not belong to the partitioned platform.
    pub fn to_local(&self, e: ElementId) -> ElementId {
        ElementId(self.home[e.index()].1)
    }

    /// The region owning global element `e` and `e`'s local id there, or
    /// `None` when `e` does not belong to the partitioned platform.
    pub fn locate(&self, e: ElementId) -> Option<(usize, ElementId)> {
        self.home.get(e.index()).map(|&(region, local)| (region as usize, ElementId(local)))
    }

    /// The global id of `local` inside `region`.
    ///
    /// # Panics
    ///
    /// Panics when `region` or `local` is out of range.
    pub fn to_global(&self, region: usize, local: ElementId) -> ElementId {
        self.regions[region][local.index()]
    }

    /// Directed links of `platform` whose endpoints live in different
    /// regions — the connectivity a sharded deployment gives up.
    pub fn cross_region_links(&self, platform: &Platform) -> usize {
        platform.links().filter(|l| self.region_of(l.src()) != self.region_of(l.dst())).count()
    }

    /// Materialises `region` as a standalone platform: its elements (in
    /// local id order, keeping kind, name and capacity) plus every link
    /// of the original platform with both endpoints inside the region
    /// (in original link order, keeping bandwidth and virtual channels).
    ///
    /// # Panics
    ///
    /// Panics when `region` is out of range or `platform` is not the
    /// platform this map partitioned.
    pub fn extract(&self, platform: &Platform, region: usize) -> Platform {
        let members = &self.regions[region];
        let mut b = PlatformBuilder::new(format!("{}/shard{region}", platform.name()));
        for &e in members {
            let element = platform.element(e);
            b.add_named_element(element.kind(), element.name().to_owned(), element.capacity());
        }
        for link in platform.links() {
            let (src, dst) = (link.src(), link.dst());
            if self.region_of(src) == region && self.region_of(dst) == region {
                b.connect_directed(
                    self.to_local(src),
                    self.to_local(dst),
                    link.bandwidth(),
                    link.virtual_channels(),
                );
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementKind;
    use crate::resource::ResourceVector;
    use crate::topology;

    /// Every element of `map`'s region `r` reaches every other member
    /// without leaving the region.
    fn region_is_contiguous(platform: &Platform, map: &RegionMap, r: usize) -> bool {
        let members = map.elements(r);
        let mut seen = vec![false; platform.element_count()];
        let mut stack = vec![members[0]];
        seen[members[0].index()] = true;
        let mut reached = 1;
        while let Some(e) = stack.pop() {
            for &nb in platform.neighbors(e) {
                if map.region_of(nb) == r && !seen[nb.index()] {
                    seen[nb.index()] = true;
                    reached += 1;
                    stack.push(nb);
                }
            }
        }
        reached == members.len()
    }

    #[test]
    fn single_region_is_the_identity_partition() {
        let p = topology::crisp();
        let map = RegionMap::new(&p, 1).unwrap();
        assert_eq!(map.region_count(), 1);
        let members = map.elements(0);
        assert_eq!(members.len(), p.element_count());
        for e in p.element_ids() {
            assert_eq!(map.region_of(e), 0);
            assert_eq!(map.to_local(e), e, "identity partition preserves ids");
            assert_eq!(map.to_global(0, e), e);
        }
        assert_eq!(map.cross_region_links(&p), 0);
        let sub = map.extract(&p, 0);
        assert_eq!(sub.element_count(), p.element_count());
        assert_eq!(sub.link_count(), p.link_count());
        for e in p.element_ids() {
            assert_eq!(sub.element(e).kind(), p.element(e).kind());
            assert_eq!(sub.element(e).name(), p.element(e).name());
            assert_eq!(sub.element(e).capacity(), p.element(e).capacity());
        }
    }

    #[test]
    fn partition_is_disjoint_total_and_contiguous() {
        for shards in [2usize, 3, 4, 5] {
            let p = topology::crisp();
            let map = RegionMap::new(&p, shards).unwrap();
            let mut owned = vec![0u32; p.element_count()];
            for r in 0..shards {
                assert!(!map.elements(r).is_empty(), "region {r} of {shards} is empty");
                for &e in map.elements(r) {
                    owned[e.index()] += 1;
                }
                assert!(region_is_contiguous(&p, &map, r), "region {r} of {shards} is split");
            }
            assert!(owned.iter().all(|&c| c == 1), "every element in exactly one region");
        }
    }

    #[test]
    fn partition_balances_capacity() {
        let p = topology::dsp_mesh(6, 6);
        let map = RegionMap::new(&p, 4).unwrap();
        let weights: Vec<u64> = (0..4)
            .map(|r| {
                map.elements(r)
                    .iter()
                    .map(|&e| p.element(e).capacity().as_array().iter().sum::<u64>())
                    .sum()
            })
            .collect();
        let (min, max) = (weights.iter().min().unwrap(), weights.iter().max().unwrap());
        // A homogeneous mesh splits 4 ways within one element's weight of
        // perfect balance.
        let unit: u64 = p.element(ElementId(0)).capacity().as_array().iter().sum();
        assert!(max - min <= unit, "imbalance {} exceeds one element ({unit})", max - min);
    }

    #[test]
    fn extract_translates_links_and_ids() {
        let p = topology::dsp_mesh(4, 2);
        let map = RegionMap::new(&p, 2).unwrap();
        for r in 0..2 {
            let sub = map.extract(&p, r);
            assert_eq!(sub.element_count(), map.elements(r).len());
            // Every intra-region adjacency survives with its capacity.
            for &e in map.elements(r) {
                for &nb in p.neighbors(e) {
                    if map.region_of(nb) != r {
                        continue;
                    }
                    let l = p.link_between(e, nb).unwrap();
                    let local =
                        sub.link_between(map.to_local(e), map.to_local(nb)).expect("link kept");
                    assert_eq!(sub.link(local).bandwidth(), p.link(l).bandwidth());
                    assert_eq!(sub.link(local).virtual_channels(), p.link(l).virtual_channels());
                }
            }
        }
        let total_links: usize = (0..2).map(|r| map.extract(&p, r).link_count()).sum();
        assert_eq!(total_links + map.cross_region_links(&p), p.link_count());
    }

    #[test]
    fn round_trip_of_local_and_global_ids() {
        let p = topology::heterogeneous_mesh(4, 4);
        let map = RegionMap::new(&p, 3).unwrap();
        for e in p.element_ids() {
            let r = map.region_of(e);
            assert_eq!(map.to_global(r, map.to_local(e)), e);
        }
    }

    #[test]
    fn degenerate_region_counts_are_refused() {
        let p = topology::dsp_line(3);
        assert!(RegionMap::new(&p, 0).is_err());
        assert!(RegionMap::new(&p, 4).is_err());
        // One region per element is the finest legal partition.
        let map = RegionMap::new(&p, 3).unwrap();
        assert!((0..3).all(|r| map.elements(r).len() == 1));
    }

    #[test]
    fn disconnected_elements_fall_to_the_last_region() {
        let mut b = PlatformBuilder::new("islands");
        let a = b.add_element(ElementKind::Dsp, ResourceVector::splat(10));
        let c = b.add_element(ElementKind::Dsp, ResourceVector::splat(10));
        b.connect(a, c, 100, 2);
        let lone = b.add_element(ElementKind::Dsp, ResourceVector::splat(10));
        let p = b.build();
        let map = RegionMap::new(&p, 2).unwrap();
        let total: usize = (0..2).map(|r| map.elements(r).len()).sum();
        assert_eq!(total, 3);
        assert_eq!(map.region_of(lone), 1, "unreachable elements land in the last region");
    }
}
