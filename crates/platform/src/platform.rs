//! The platform graph `P = <E, L>` with its mutable resource ledger.
//!
//! A [`Platform`] separates immutable *structure* (elements, links, adjacency)
//! from mutable *state* (free resources, residing tasks, link occupancy,
//! failed elements). Every structural query — directed and undirected
//! adjacency, degree, maximum degree, the elements of a kind — is answered
//! from tables built once at
//! construction, so the mapping phase's cost function can ask them per
//! `(task, element)` evaluation without allocating or re-scanning the
//! platform. The state can be checkpointed and restored in O(|E|+|L|), or
//! copied onto a structurally equal platform in place
//! ([`Platform::copy_state_from`]): a what-if copy kept beside a live
//! platform, so that a decision about a hypothetical state is made there
//! and the live platform is written only by what actually happens.
//!
//! Beside the ledger the platform keeps five occupancy totals
//! ([`Platform::totals`]): the free and capacity totals of the live
//! elements, the used and failed element counts, and the adjacent pairs
//! with exactly one used end. Per element it keeps one count more, its
//! used neighbours ([`Platform::used_neighbours`]), which is what the
//! mapper's fragmentation bonus reads of an element before a request has
//! placed anything. All of them are state — a function of the ledger,
//! so they take part in equality — and every mutator keeps them in step
//! in O(1), or O(degree) when an element's used flag flips, so the
//! occupancy ratios cost a read, not a walk of the platform. The walks in
//! `frag.rs` and the neighbour rows stay their definition
//! ([`Platform::totals_from_scratch`],
//! [`Platform::used_neighbours_from_scratch`]).
//!
//! Beside the state sit three *history* fields that never take part in
//! equality: the mutation epoch ([`Platform::state_epoch`]), the stamp
//! ledger behind [`Platform::state_stamp`], a 128-bit digest of what an
//! admission reads of the mutable state that costs only the records
//! mutated since it was last asked for, and the rank ledger behind
//! [`Platform::free_rank`], each kind's elements ordered by free capacity
//! and re-ranked only where mutated since its last refresh.
//!
//! One structural table is built lazily instead of at construction: per
//! destination, the static hop count from every element
//! ([`Platform::hops_to`]), filled on the first read of that destination
//! and shared by every clone.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::digest::Digest;
use crate::element::{Element, ElementId, ElementKind};
use crate::frag::adjacent_pair_counts;
use crate::link::{Link, LinkId, LinkState};
use crate::resource::ResourceVector;

/// Identifier of an admitted application instance.
///
/// Assigned by the resource manager at admission; the platform records it
/// with every claim so that an application's occupants can be released or
/// listed. The admission pipeline itself never reads it back
/// (see [`Platform::state_stamp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// A task residing on an element: which application it belongs to and the
/// task's index within that application's task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Occupant {
    /// Owning application instance.
    pub app: AppId,
    /// Task index within the owning application.
    pub task: u32,
    /// Resources this occupant claimed, needed for release.
    pub claimed: ResourceVector,
}

/// Errors raised by resource claims on the platform ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimError {
    /// The element does not provide enough free resources.
    InsufficientResources {
        /// Element on which the claim was attempted.
        element: ElementId,
        /// The requested vector.
        requested: ResourceVector,
        /// The free vector at the time of the claim.
        free: ResourceVector,
    },
    /// The element is marked as failed (fault injection / wear-out).
    ElementFailed(ElementId),
    /// The link has no free virtual channel or not enough bandwidth.
    LinkSaturated {
        /// Link on which the claim was attempted.
        link: LinkId,
        /// Requested bandwidth.
        requested: u64,
    },
}

impl fmt::Display for ClaimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimError::InsufficientResources { element, requested, free } => {
                write!(f, "element {element} cannot provide {requested}; only {free} free")
            }
            ClaimError::ElementFailed(e) => write!(f, "element {e} is failed"),
            ClaimError::LinkSaturated { link, requested } => {
                write!(f, "link {link} cannot carry {requested} more bandwidth")
            }
        }
    }
}

impl std::error::Error for ClaimError {}

/// The first record [`Platform::audit`] found disagreeing with its
/// definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The element's free vector plus what its residents claimed is not
    /// its capacity.
    ElementFree {
        /// The element.
        element: ElementId,
        /// Its free vector.
        free: ResourceVector,
        /// The sum of its residents' claims.
        claimed: ResourceVector,
    },
    /// The link has more bandwidth or virtual channels free than it has.
    LinkFree {
        /// The link.
        link: LinkId,
        /// Its free bandwidth.
        free_bandwidth: u64,
        /// Its free virtual channels.
        free_virtual_channels: u16,
    },
    /// The maintained stamp's digest of this element's record is stale.
    ElementStamp(ElementId),
    /// The maintained stamp's digest of this link's record is stale.
    LinkStamp(LinkId),
    /// Every kept digest is current, yet the maintained stamp is not
    /// their sum.
    StampSum {
        /// [`Platform::state_stamp`].
        maintained: u128,
        /// [`Platform::state_stamp_from_scratch`].
        from_scratch: u128,
    },
    /// After a refresh, a kind's free rank departs from the sort of its
    /// elements by `(free total, id)`.
    Rank {
        /// The kind.
        kind: ElementKind,
        /// The first position that differs.
        position: usize,
        /// The rank's entry there.
        found: (u64, ElementId),
        /// The sort's entry there.
        expected: (u64, ElementId),
    },
    /// A kept occupancy total ([`Platform::totals`]) is not its recount
    /// ([`Platform::totals_from_scratch`]).
    Total {
        /// The total's field name in [`OccupancyTotals`].
        name: &'static str,
        /// The kept value.
        kept: u64,
        /// The recounted value.
        recounted: u64,
    },
    /// An element's kept used-neighbour count
    /// ([`Platform::used_neighbours`]) is not its recount
    /// ([`Platform::used_neighbours_from_scratch`]).
    UsedNeighbours {
        /// The element.
        element: ElementId,
        /// The kept count.
        kept: u32,
        /// The recounted count.
        recounted: u32,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::ElementFree { element, free, claimed } => {
                write!(
                    f,
                    "element {element}: {free} free and {claimed} claimed are not its capacity"
                )
            }
            AuditError::LinkFree { link, free_bandwidth, free_virtual_channels } => write!(
                f,
                "link {link}: {free_bandwidth} bandwidth and {free_virtual_channels} virtual \
                 channels free exceed its capacity"
            ),
            AuditError::ElementStamp(e) => write!(f, "element {e}: stale stamp digest"),
            AuditError::LinkStamp(l) => write!(f, "link {l}: stale stamp digest"),
            AuditError::StampSum { maintained, from_scratch } => write!(
                f,
                "maintained stamp {maintained:#x} is not the from-scratch sum {from_scratch:#x}"
            ),
            AuditError::Rank { kind, position, found, expected } => write!(
                f,
                "{kind} free rank holds {found:?} at {position} where the sort holds {expected:?}"
            ),
            AuditError::Total { name, kept, recounted } => {
                write!(f, "occupancy total {name} is kept as {kept} but recounts to {recounted}")
            }
            AuditError::UsedNeighbours { element, kept, recounted } => {
                write!(f, "element {element}: {kept} used neighbours kept, {recounted} recounted")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// The occupancy totals a [`Platform`] keeps beside its ledger
/// ([`Platform::totals`]), each equal to a walk of the platform
/// ([`Platform::totals_from_scratch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancyTotals {
    /// The free vectors' [`ResourceVector::total`]s summed over the
    /// non-failed elements.
    pub free: u64,
    /// The capacities' totals summed over the non-failed elements.
    pub capacity: u64,
    /// Elements with at least one resident, failed ones included.
    pub used: usize,
    /// Elements marked failed.
    pub failed: usize,
    /// Unordered adjacent element pairs with exactly one used end: the
    /// numerator of [`external_fragmentation`](crate::external_fragmentation).
    pub mixed_pairs: usize,
}

impl OccupancyTotals {
    /// Fraction of the non-failed elements' resources claimed, 0 when
    /// nothing is alive.
    pub fn resource_utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            1.0 - self.free as f64 / self.capacity as f64
        }
    }

    /// The totals by field name, in declaration order.
    fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("free", self.free),
            ("capacity", self.capacity),
            ("used", self.used as u64),
            ("failed", self.failed as u64),
            ("mixed_pairs", self.mixed_pairs as u64),
        ]
    }
}

/// Snapshot of the mutable platform state, produced by
/// [`Platform::checkpoint`] and consumed by [`Platform::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformCheckpoint {
    state: PlatformState,
}

#[derive(Debug, Clone, PartialEq)]
struct PlatformState {
    free: Vec<ResourceVector>,
    residents: Vec<Vec<Occupant>>,
    links: Vec<LinkState>,
    failed: Vec<bool>,
}

/// Domain tags of the two record kinds of [`Platform::state_stamp`].
const ELEMENT_RECORD: u64 = 0;
const LINK_RECORD: u64 = 1;

impl PlatformState {
    /// Digest of element `idx`'s record as an admission sees it: its index,
    /// free vector, whether anything resides on it, and failure mark. The
    /// index is part of the digest, so equal contents on two elements never
    /// cancel in the stamp's sum.
    ///
    /// *Who* resides there is deliberately absent: the admission pipeline
    /// reads no occupant identity at all. Of an element's residents the
    /// mapper's cost function asks only whether there are any (the used
    /// flag above); it tells its own tasks from everyone else's by the
    /// placement it is building — a per-element count of the request's
    /// placed tasks and each task's placed peers — not by occupant ids.
    /// That split is exact because the phases decide before anything is
    /// claimed: a request's own tasks are never resident while it is
    /// decided, so everything resident belongs to someone else. A reader
    /// of `Occupant` fields on the admission path must put what it reads
    /// here.
    fn element_digest(&self, idx: usize) -> u128 {
        let mut d = Digest::new(ELEMENT_RECORD);
        d.word(idx as u64);
        self.free[idx].as_array().iter().for_each(|&r| d.word(r));
        d.word(u64::from(!self.residents[idx].is_empty()));
        d.word(u64::from(self.failed[idx]));
        d.finish()
    }

    /// Digest of link `idx`'s record: its index, free bandwidth and free
    /// virtual channels.
    fn link_digest(&self, idx: usize) -> u128 {
        let link = &self.links[idx];
        let mut d = Digest::new(LINK_RECORD);
        d.word(idx as u64);
        d.word(link.free_bandwidth);
        d.word(u64::from(link.free_virtual_channels));
        d.finish()
    }

    /// Digest of record `record` in ledger numbering: elements first, then
    /// links at `element count + link index`.
    fn record_digest(&self, record: usize) -> u128 {
        match record.checked_sub(self.free.len()) {
            None => self.element_digest(record),
            Some(link) => self.link_digest(link),
        }
    }

    fn record_count(&self) -> usize {
        self.free.len() + self.links.len()
    }
}

/// The bookkeeping behind [`Platform::state_stamp`]: one digest per record
/// as of the last stamp, their sum, and which records were mutated since.
///
/// Like [`MutationEpoch`] it describes history, not state, and opts out of
/// equality: two platforms with identical ledgers of *resources* compare
/// equal whether or not either was ever stamped.
#[derive(Debug, Clone)]
struct StampLedger {
    /// Per-record digests as of the last refresh, in
    /// [`PlatformState::record_digest`] numbering. Meaningless while
    /// `stale`.
    digests: Vec<u128>,
    /// Wrapping sum of `digests`.
    sum: u128,
    /// Records mutated since the last refresh, each listed once.
    dirty: Vec<u32>,
    /// Membership flags of `dirty`, one per record.
    is_dirty: Vec<bool>,
    /// Every digest is out of date: the platform was never stamped, or was
    /// restored since. Mutations then mark nothing — a platform nobody
    /// stamps (a manager without a cache) pays this one branch per
    /// mutation and never allocates the tables.
    stale: bool,
}

impl PartialEq for StampLedger {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl StampLedger {
    fn new() -> Self {
        StampLedger {
            digests: Vec::new(),
            sum: 0,
            dirty: Vec::new(),
            is_dirty: Vec::new(),
            stale: true,
        }
    }

    #[inline]
    fn mark(&mut self, record: usize) {
        if !self.stale && !self.is_dirty[record] {
            self.is_dirty[record] = true;
            self.dirty.push(record as u32);
        }
    }

    /// Brings the digests of the dirty records (all of them when `stale`)
    /// up to date with `state` and returns the sum.
    fn refresh(&mut self, state: &PlatformState) -> u128 {
        if self.stale {
            self.digests.clear();
            self.digests.extend((0..state.record_count()).map(|r| state.record_digest(r)));
            self.sum = self.digests.iter().fold(0, |sum, &d| sum.wrapping_add(d));
            self.dirty.clear();
            self.is_dirty.clear();
            self.is_dirty.resize(self.digests.len(), false);
            self.stale = false;
        }
        for record in self.dirty.drain(..) {
            let record = record as usize;
            let fresh = state.record_digest(record);
            self.sum = self.sum.wrapping_add(fresh).wrapping_sub(self.digests[record]);
            self.digests[record] = fresh;
            self.is_dirty[record] = false;
        }
        self.sum
    }
}

/// The bookkeeping behind [`Platform::free_rank`]: each kind's elements
/// ordered by `(free total, id)` as of the last refresh, one segment per
/// kind laid over the platform's `kind_ids` / `kind_offsets`, and which
/// elements were mutated since.
///
/// Like [`StampLedger`] it describes history, not state, and opts out of
/// equality: how recently a platform's rank was refreshed says nothing
/// about its resources.
#[derive(Debug, Clone, Default)]
struct RankLedger {
    /// `(ranked total, id)` per element, ascending within each kind's
    /// segment `entries[kind_offsets[k] .. kind_offsets[k + 1]]`.
    entries: Vec<(u64, ElementId)>,
    /// The total each element is ranked under, by element id: where to
    /// find its entry when it moves.
    ranked: Vec<u64>,
    /// Elements mutated since the last refresh, each listed once. Never
    /// longer than the element count, so a warm list never reallocates.
    dirty: Vec<ElementId>,
    /// Membership flags of `dirty`, one per element.
    is_dirty: Vec<bool>,
}

impl PartialEq for RankLedger {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl RankLedger {
    #[inline]
    fn mark(&mut self, e: ElementId) {
        if !self.is_dirty[e.index()] {
            self.is_dirty[e.index()] = true;
            self.dirty.push(e);
        }
    }

    /// Ranks every element of `state` from scratch, forgetting the dirty
    /// set.
    fn rebuild(&mut self, state: &PlatformState, kind_ids: &[ElementId], kind_offsets: &[u32]) {
        let n = state.free.len();
        self.ranked.clear();
        self.ranked.extend(state.free.iter().map(ResourceVector::total));
        self.entries.clear();
        self.entries.extend(kind_ids.iter().map(|&e| (self.ranked[e.index()], e)));
        for k in kind_offsets.windows(2) {
            self.entries[k[0] as usize..k[1] as usize].sort_unstable();
        }
        self.dirty.clear();
        self.dirty.reserve(n);
        self.is_dirty.clear();
        self.is_dirty.resize(n, false);
    }

    /// Moves each dirty element's entry to where its current total ranks
    /// it within its kind's segment, in O(log segment + distance moved).
    fn refresh(&mut self, state: &PlatformState, elements: &[Element], kind_offsets: &[u32]) {
        for e in self.dirty.drain(..) {
            self.is_dirty[e.index()] = false;
            let total = state.free[e.index()].total();
            let was = std::mem::replace(&mut self.ranked[e.index()], total);
            if was == total {
                continue;
            }
            let k = elements[e.index()].kind() as usize;
            let segment = &mut self.entries[kind_offsets[k] as usize..kind_offsets[k + 1] as usize];
            let from = segment.binary_search(&(was, e)).expect("every element is ranked");
            let to = segment.partition_point(|&entry| entry < (total, e));
            if to > from {
                // `to` counted the old entry itself.
                segment[from..to].rotate_left(1);
                segment[to - 1] = (total, e);
            } else {
                segment[to..=from].rotate_right(1);
                segment[to] = (total, e);
            }
        }
    }
}

/// A heterogeneous MPSoC platform: elements, directed links and the
/// run-time resource ledger.
///
/// Construct one through [`PlatformBuilder`](crate::PlatformBuilder) or a
/// topology helper such as [`topology::crisp`](crate::topology::crisp).
///
/// # Examples
///
/// ```
/// use kairos_platform::{PlatformBuilder, ElementKind, ResourceVector};
///
/// let mut b = PlatformBuilder::new("demo");
/// let a = b.add_element(ElementKind::Dsp, ResourceVector::new(100, 8, 0, 0));
/// let c = b.add_element(ElementKind::Dsp, ResourceVector::new(100, 8, 0, 0));
/// b.connect(a, c, 1000, 4);
/// let platform = b.build();
/// assert_eq!(platform.element_count(), 2);
/// assert_eq!(platform.link_count(), 2); // connect() adds both directions
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    elements: Vec<Element>,
    links: Vec<Link>,
    /// Directed adjacency in compressed rows, in link-id order within a
    /// row: `e`'s outgoing `(neighbor, link)` pairs are
    /// `out_links[out_offsets[e] .. out_offsets[e + 1]]`, its incoming ones
    /// `in_links[in_offsets[e] .. in_offsets[e + 1]]`. Flat like the table
    /// below, so routing's search reads one contiguous row per hop and a
    /// clone copies four vectors, not one per element and direction.
    out_offsets: Vec<u32>,
    out_links: Vec<(ElementId, LinkId)>,
    in_offsets: Vec<u32>,
    in_links: Vec<(ElementId, LinkId)>,
    /// Undirected adjacency in compressed rows: the distinct endpoints of
    /// `e`'s in- and out-links, ascending, are
    /// `neighbor_ids[neighbor_offsets[e] .. neighbor_offsets[e + 1]]`.
    /// Two flat vectors rather than one `Vec` per element, so a platform
    /// clone copies them in two allocations.
    neighbor_offsets: Vec<u32>,
    neighbor_ids: Vec<ElementId>,
    /// The largest row length of the table above.
    max_degree: usize,
    /// Per destination, the static hop counts to it; see
    /// [`Platform::hops_to`].
    hop_rows: HopRows,
    /// Element ids grouped by kind, ascending within a kind: the elements
    /// of kind `k` are `kind_ids[kind_offsets[k] .. kind_offsets[k + 1]]`
    /// with `k` the kind's position in [`ElementKind::ALL`].
    kind_offsets: [u32; ElementKind::ALL.len() + 1],
    kind_ids: Vec<ElementId>,
    /// Unordered adjacent element pairs: the denominator of
    /// [`external_fragmentation`](crate::external_fragmentation). Fixed at
    /// construction.
    pair_count: usize,
    state: PlatformState,
    /// The kept occupancy totals; see [`Platform::totals`].
    totals: OccupancyTotals,
    /// Per element, its used neighbours; see [`Platform::used_neighbours`].
    used_neighbours: Vec<u32>,
    /// The checkpoints [`Self::begin_txn`] pushed that no
    /// [`Self::rollback_txn`] has restored yet, innermost last.
    txn_checkpoints: Vec<PlatformCheckpoint>,
    /// Monotone mutation epoch: bumped by every mutation of the ledger
    /// state, checkpoint restores included. The epoch over-approximates
    /// change — a bump does not guarantee the state differs, but an
    /// unchanged epoch guarantees it is byte-identical, which is what the
    /// resource manager's probe hand-off keys on.
    epoch: MutationEpoch,
    /// The maintained state stamp; see [`Platform::state_stamp`].
    stamp: StampLedger,
    /// The kept free-capacity rank; see [`Platform::free_rank`].
    rank: RankLedger,
}

/// The [`Platform::state_epoch`] counter. A newtype so it can opt out of
/// equality: the epoch describes *history*, not state — two platforms
/// with identical ledgers are interchangeable no matter how many
/// mutations produced them, and the checkpoint/restore-exactness and
/// probe-state-neutrality pins compare whole platforms on exactly that
/// basis.
#[derive(Debug, Clone, Copy, Default)]
struct MutationEpoch(u64);

impl PartialEq for MutationEpoch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The farthest hop count a [`Platform::hops_to`] row records. A row
/// costs a reverse search over the elements within this radius of its
/// destination, so on a large platform it stays a neighbourhood, not the
/// platform (about 390 of the 3 968 elements of 64 tiled CRISP boards, 217
/// of a 16×16 mesh's 256), while routes that long are rare: the benchmark
/// platforms average 2–5 hops a channel. Rows of 8 hops lost routing's
/// gain on the 16×16 mesh's slowest admissions, which its long routes set.
const HOP_ROW_RADIUS: u8 = 16;

/// The rows behind [`Platform::hops_to`], one per destination, each
/// filled on its first read. Topology only, so a row never changes once
/// filled: clones share the rows behind one `Arc`, and a row filled
/// through any of them serves all. Like the epoch the rows opt out of
/// equality, and `Debug` leaves their contents out: they restate the link
/// table, and which of them happen to be filled is history.
#[derive(Clone)]
struct HopRows(Arc<[OnceLock<Box<[u8]>>]>);

impl HopRows {
    fn new(n: usize) -> Self {
        HopRows((0..n).map(|_| OnceLock::new()).collect())
    }
}

impl PartialEq for HopRows {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for HopRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HopRows(..)")
    }
}

/// One direction of the link table in compressed rows: per element `e`,
/// `(far end, link)` of the links whose `ends(link).0` is `e`, in link-id
/// order, at `rows[offsets[e] .. offsets[e + 1]]`.
fn link_rows(
    n: usize,
    links: &[Link],
    ends: impl Fn(&Link) -> (ElementId, ElementId),
) -> (Vec<u32>, Vec<(ElementId, LinkId)>) {
    // Counting sort, stable in link order; the counts sit one slot late so
    // that placing the links leaves `offsets[e]` at the start of `e`'s row.
    let mut offsets = vec![0u32; n + 2];
    for link in links {
        offsets[ends(link).0.index() + 2] += 1;
    }
    for e in 2..n + 2 {
        offsets[e] += offsets[e - 1];
    }
    let mut rows = vec![(ElementId(0), LinkId(0)); links.len()];
    for link in links {
        let (near, far) = ends(link);
        let slot = &mut offsets[near.index() + 1];
        rows[*slot as usize] = (far, link.id());
        *slot += 1;
    }
    offsets.pop();
    (offsets, rows)
}

impl Platform {
    pub(crate) fn from_parts(name: String, elements: Vec<Element>, links: Vec<Link>) -> Self {
        let n = elements.len();
        let (out_offsets, out_links) = link_rows(n, &links, |l| (l.src(), l.dst()));
        let (in_offsets, in_links) = link_rows(n, &links, |l| (l.dst(), l.src()));
        let row_of = |offsets: &[u32], e: usize| offsets[e] as usize..offsets[e + 1] as usize;
        let mut neighbor_offsets = Vec::with_capacity(n + 1);
        let mut neighbor_ids = Vec::new();
        let mut row: Vec<ElementId> = Vec::new();
        neighbor_offsets.push(0);
        for e in 0..n {
            row.clear();
            let out = &out_links[row_of(&out_offsets, e)];
            let into = &in_links[row_of(&in_offsets, e)];
            row.extend(out.iter().chain(into).map(|&(nb, _)| nb));
            row.sort_unstable();
            row.dedup();
            neighbor_ids.extend_from_slice(&row);
            neighbor_offsets.push(neighbor_ids.len() as u32);
        }
        let max_degree =
            neighbor_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0);
        // Counting sort of the ids by kind (stable, so ascending per kind).
        let mut kind_offsets = [0u32; ElementKind::ALL.len() + 1];
        for element in &elements {
            kind_offsets[element.kind() as usize + 1] += 1;
        }
        for k in 0..ElementKind::ALL.len() {
            kind_offsets[k + 1] += kind_offsets[k];
        }
        let mut next_slot = kind_offsets;
        let mut kind_ids = vec![ElementId(0); n];
        for element in &elements {
            let slot = &mut next_slot[element.kind() as usize];
            kind_ids[*slot as usize] = element.id();
            *slot += 1;
        }
        let state = PlatformState {
            free: elements.iter().map(|e| e.capacity()).collect(),
            residents: vec![Vec::new(); n],
            links: links.iter().map(LinkState::idle).collect(),
            failed: vec![false; n],
        };
        let mut rank = RankLedger::default();
        rank.rebuild(&state, &kind_ids, &kind_offsets);
        let mut platform = Platform {
            name,
            elements,
            links,
            out_offsets,
            out_links,
            in_offsets,
            in_links,
            neighbor_offsets,
            neighbor_ids,
            max_degree,
            hop_rows: HopRows::new(n),
            kind_offsets,
            kind_ids,
            pair_count: 0,
            state,
            totals: OccupancyTotals::default(),
            used_neighbours: vec![0; n],
            txn_checkpoints: Vec::new(),
            epoch: MutationEpoch::default(),
            stamp: StampLedger::new(),
            rank,
        };
        platform.pair_count = adjacent_pair_counts(&platform).1;
        platform.totals = platform.totals_from_scratch();
        platform
    }

    /// The current mutation epoch (see the field documentation): strictly
    /// monotone over the platform's lifetime, bumped by every state
    /// mutation — claims, releases, link claims and releases, failure-mark
    /// flips *and* [`Self::restore`].
    pub fn state_epoch(&self) -> u64 {
        self.epoch.0
    }

    /// The stamp of the platform's *admission view*: the wrapping `u128`
    /// sum of one digest per element record (index, free vector, whether
    /// the element is used, failure mark) and one per link record (index,
    /// free bandwidth, free virtual channels) — everything an admission
    /// reads of the mutable state, and nothing else. Resident identity
    /// (which application, which task, what each one claimed, in what
    /// order) is not part of it: the pipeline places a fresh id, so it can
    /// tell a used element from an idle one but not one tenant from
    /// another. Equal stamps therefore certify the same answer to every
    /// admission question, up to a collision of the 128-bit sum — not
    /// equal platforms: two occupancies reached by different applications
    /// in a different order stamp equal when they leave the same resources
    /// free in the same places. Byte equality is `==` on
    /// [`Self::checkpoint`]s.
    ///
    /// The sum is *maintained*: every mutator marks the record it touched,
    /// and this call re-digests only the marked records — O(records
    /// mutated since the last stamp), not O(|E|+|L|). A claim released
    /// again before the next stamp costs two marks of one record and leaves
    /// the stamp where it was. The first stamp, and
    /// the first after a [`Self::restore`] (a checkpoint carries state,
    /// not digests), digests every record.
    /// [`Self::state_stamp_from_scratch`] is the definition this must
    /// always equal.
    pub fn state_stamp(&mut self) -> u128 {
        self.stamp.refresh(&self.state)
    }

    /// [`Self::state_stamp`] computed from nothing but the current state:
    /// every record digested and summed, O(|E|+|L|). The reference the
    /// maintained stamp is tested against.
    pub fn state_stamp_from_scratch(&self) -> u128 {
        (0..self.state.record_count())
            .fold(0, |sum, record| sum.wrapping_add(self.state.record_digest(record)))
    }

    /// Notes a mutation of element `e`'s record: bumps the epoch and marks
    /// the record for the next stamp and the element for the next rank
    /// refresh. Every element mutator calls it.
    #[inline]
    fn touch_element(&mut self, e: ElementId) {
        self.epoch.0 += 1;
        self.stamp.mark(e.index());
        self.rank.mark(e);
    }

    /// [`Self::touch_element`] for link `l`'s record.
    #[inline]
    fn touch_link(&mut self, l: LinkId) {
        self.epoch.0 += 1;
        self.stamp.mark(self.elements.len() + l.index());
    }

    /// Writes `e`'s free vector, keeping the live free total in step.
    #[inline]
    fn set_free(&mut self, e: ElementId, free: ResourceVector) {
        let was = std::mem::replace(&mut self.state.free[e.index()], free);
        if !self.is_failed(e) {
            self.totals.free = self.totals.free + free.total() - was.total();
        }
    }

    /// Keeps the used count, the mixed-pair count and the neighbours'
    /// used-neighbour counts in step after `e`'s used flag flipped.
    fn note_used_flip(&mut self, e: ElementId) {
        let change = self.mixed_pair_change(e, |n| self.is_used(n));
        let used = self.is_used(e);
        let row = self.neighbor_offsets[e.index()] as usize
            ..self.neighbor_offsets[e.index() + 1] as usize;
        for &n in &self.neighbor_ids[row] {
            let count = &mut self.used_neighbours[n.index()];
            *count = if used { *count + 1 } else { *count - 1 };
        }
        let t = &mut self.totals;
        t.mixed_pairs = t.mixed_pairs.wrapping_add_signed(change);
        if used {
            t.used += 1;
        } else {
            t.used -= 1;
        }
    }

    /// The occupancy totals kept beside the ledger: state, in equality,
    /// kept in step by every mutator, copied by [`Self::copy_state_from`]
    /// and recounted by [`Self::restore`]. O(1).
    pub fn totals(&self) -> OccupancyTotals {
        self.totals
    }

    /// [`Self::totals`] counted from nothing but the current state, by the
    /// walks of `frag.rs`: O(|E| + pairs). The reference the kept totals
    /// are audited and tested against.
    pub fn totals_from_scratch(&self) -> OccupancyTotals {
        OccupancyTotals {
            free: self.total_free().total(),
            capacity: self.total_capacity().total(),
            used: self.element_ids().filter(|&e| self.is_used(e)).count(),
            failed: self.element_ids().filter(|&e| self.is_failed(e)).count(),
            mixed_pairs: adjacent_pair_counts(self).0,
        }
    }

    /// How many of `e`'s neighbours are used, failed ones included: kept
    /// in step by the mutators like [`Self::totals`], copied by
    /// [`Self::copy_state_from`] and recounted by [`Self::restore`]. O(1).
    #[inline]
    pub fn used_neighbours(&self, e: ElementId) -> u32 {
        self.used_neighbours[e.index()]
    }

    /// [`Self::used_neighbours`] counted off `e`'s neighbour row:
    /// O(degree). The reference the kept counts are audited against.
    pub fn used_neighbours_from_scratch(&self, e: ElementId) -> u32 {
        self.neighbors(e).iter().filter(|&&n| self.is_used(n)).count() as u32
    }

    /// The number of unordered adjacent element pairs: the denominator of
    /// [`external_fragmentation`](crate::external_fragmentation), fixed at
    /// construction.
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// How the number of adjacent pairs with exactly one used end changes
    /// when `e`'s used flag flips, with every element — `e` included — read
    /// through `is_used` as it stands *after* the flip: each of `e`'s pairs
    /// turns mixed or unmixed (there are no self-links). O(degree). The
    /// mutators keep [`OccupancyTotals::mixed_pairs`] with it; a what-if
    /// adds it up over the elements a decision would newly use, one flip at
    /// a time.
    pub fn mixed_pair_change(&self, e: ElementId, is_used: impl Fn(ElementId) -> bool) -> isize {
        let used = is_used(e);
        let row = self.neighbors(e);
        let unmixed = row.iter().filter(|&&n| is_used(n) == used).count();
        row.len() as isize - 2 * unmixed as isize
    }

    /// The elements of `kind`, failed ones included, as `(free total, id)`
    /// pairs in ascending order — as of the last
    /// [`Self::refresh_free_rank`]. An element listed by
    /// [`Self::free_rank_dirty`] was mutated since, so its entry may be
    /// stale; every other entry's total is its current
    /// `free(e).total()`. A best-fit search reads the segment from the
    /// first total that could cover a demand and consults the dirty
    /// elements directly, which keeps it exact on a platform with pending
    /// mutations.
    pub fn free_rank(&self, kind: ElementKind) -> &[(u64, ElementId)] {
        let k = kind as usize;
        &self.rank.entries[self.kind_offsets[k] as usize..self.kind_offsets[k + 1] as usize]
    }

    /// Elements mutated since the last [`Self::refresh_free_rank`] (or
    /// [`Self::restore`]), each listed once, in the order first touched.
    pub fn free_rank_dirty(&self) -> &[ElementId] {
        &self.rank.dirty
    }

    /// Whether `e` is listed by [`Self::free_rank_dirty`].
    pub fn is_free_rank_dirty(&self, e: ElementId) -> bool {
        self.rank.is_dirty[e.index()]
    }

    /// Re-ranks the elements mutated since the last refresh: each moves to
    /// where its current free total ranks it within its kind, in
    /// O(log |kind| + distance moved), and the dirty set empties. Lazy by
    /// design — the mutators only mark, so a claim released again before
    /// anyone reads the rank costs two marks and no move.
    pub fn refresh_free_rank(&mut self) {
        self.rank.refresh(&self.state, &self.elements, &self.kind_offsets);
    }

    /// The platform's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processing elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The element with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this platform.
    #[inline]
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.index()]
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this platform.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over all elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter()
    }

    /// Iterates over all element ids.
    pub fn element_ids(&self) -> impl Iterator<Item = ElementId> {
        (0..self.elements.len() as u32).map(ElementId)
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Elements of a given kind, in ascending id order.
    pub fn elements_of_kind(&self, kind: ElementKind) -> impl Iterator<Item = &Element> {
        self.ids_of_kind(kind).iter().map(|e| &self.elements[e.index()])
    }

    /// Ids of the elements of a given kind, ascending. A borrowed slice of
    /// a table built at construction, so a search for "an element that can
    /// host this task" visits that kind only, not the whole platform.
    pub fn ids_of_kind(&self, kind: ElementKind) -> &[ElementId] {
        let k = kind as usize;
        &self.kind_ids[self.kind_offsets[k] as usize..self.kind_offsets[k + 1] as usize]
    }

    /// Outgoing `(neighbor, link)` pairs of `e`, in link-id order.
    #[inline]
    pub fn successors(&self, e: ElementId) -> &[(ElementId, LinkId)] {
        let i = e.index();
        &self.out_links[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// Incoming `(neighbor, link)` pairs of `e`, in link-id order.
    #[inline]
    pub fn predecessors(&self, e: ElementId) -> &[(ElementId, LinkId)] {
        let i = e.index();
        &self.in_links[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// All distinct neighbors of `e`, ignoring link direction, in ascending
    /// id order. A borrowed row of the adjacency table built at
    /// construction: no allocation, no sorting.
    #[inline]
    pub fn neighbors(&self, e: ElementId) -> &[ElementId] {
        let row = self.neighbor_offsets[e.index()] as usize
            ..self.neighbor_offsets[e.index() + 1] as usize;
        &self.neighbor_ids[row]
    }

    /// The undirected degree of `e` (number of distinct neighbors).
    pub fn degree(&self, e: ElementId) -> usize {
        self.neighbors(e).len()
    }

    /// The maximum undirected degree over all elements, 0 for an empty
    /// platform. Fixed at construction.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Per element, the fewest links a path from it to `dst` takes on the
    /// bare topology — no load, no failure marks — when that is at most 16;
    /// `u8::MAX` stands for farther, or for no path at all. The row is
    /// filled on its first read by one breadth-first search over
    /// [`predecessors`](Self::predecessors) from `dst` that stops at that
    /// radius, and then shared by every clone of this platform; nothing the
    /// platform's state does changes it.
    pub fn hops_to(&self, dst: ElementId) -> &[u8] {
        self.hop_rows.0[dst.index()].get_or_init(|| {
            let mut row = vec![u8::MAX; self.elements.len()].into_boxed_slice();
            row[dst.index()] = 0;
            // Sized once, so a fill allocates twice: the row and this.
            let mut queue = Vec::with_capacity(self.elements.len());
            queue.push(dst);
            let mut head = 0;
            // Elements leave the queue nearest first, so once one sits at
            // the radius every element still unset is farther away.
            while let Some(&e) = queue.get(head) {
                head += 1;
                let next = row[e.index()] + 1;
                if next > HOP_ROW_RADIUS {
                    break;
                }
                for &(from, _) in self.predecessors(e) {
                    if row[from.index()] == u8::MAX {
                        row[from.index()] = next;
                        queue.push(from);
                    }
                }
            }
            row
        })
    }

    /// The link from `src` to `dst`, if one exists.
    pub fn link_between(&self, src: ElementId, dst: ElementId) -> Option<LinkId> {
        self.successors(src).iter().find(|&&(n, _)| n == dst).map(|&(_, l)| l)
    }

    // ---- dynamic state: elements ------------------------------------------------
    // (The phases read the small accessors per element and per search edge.)

    /// Free resources currently available on `e`.
    #[inline]
    pub fn free(&self, e: ElementId) -> ResourceVector {
        self.state.free[e.index()]
    }

    /// `true` when at least one task resides on `e`.
    #[inline]
    pub fn is_used(&self, e: ElementId) -> bool {
        !self.state.residents[e.index()].is_empty()
    }

    /// `true` when `e` has been marked failed.
    #[inline]
    pub fn is_failed(&self, e: ElementId) -> bool {
        self.state.failed[e.index()]
    }

    /// Tasks currently residing on `e`.
    pub fn residents(&self, e: ElementId) -> &[Occupant] {
        &self.state.residents[e.index()]
    }

    /// Availability test `av(e, t)` on the quantity axis: the element is
    /// alive and provides at least `demand` free resources.
    #[inline]
    pub fn is_available(&self, e: ElementId, demand: &ResourceVector) -> bool {
        !self.is_failed(e) && self.free(e).fits(demand)
    }

    /// Claims `occupant.claimed` resources on `e` and records the occupant.
    ///
    /// # Errors
    ///
    /// [`ClaimError::ElementFailed`] when `e` is failed,
    /// [`ClaimError::InsufficientResources`] when the free vector does not
    /// cover the claim.
    pub fn claim(&mut self, e: ElementId, occupant: Occupant) -> Result<(), ClaimError> {
        if self.is_failed(e) {
            return Err(ClaimError::ElementFailed(e));
        }
        let free = self.state.free[e.index()];
        match free.checked_sub(&occupant.claimed) {
            Some(rest) => {
                let was_used = self.is_used(e);
                self.set_free(e, rest);
                self.state.residents[e.index()].push(occupant);
                if !was_used {
                    self.note_used_flip(e);
                }
                self.touch_element(e);
                Ok(())
            }
            None => Err(ClaimError::InsufficientResources {
                element: e,
                requested: occupant.claimed,
                free,
            }),
        }
    }

    /// Releases the occupant `(app, task)` from `e`, returning its claim.
    ///
    /// Returns `None` (and changes nothing) when the occupant is not present.
    pub fn release(&mut self, e: ElementId, app: AppId, task: u32) -> Option<ResourceVector> {
        let pos =
            self.state.residents[e.index()].iter().position(|o| o.app == app && o.task == task)?;
        let occupant = self.state.residents[e.index()].swap_remove(pos);
        self.set_free(e, self.free(e).saturating_add(&occupant.claimed));
        if !self.is_used(e) {
            self.note_used_flip(e);
        }
        self.touch_element(e);
        Some(occupant.claimed)
    }

    /// Releases every occupant of application `app` on `elements`, visited
    /// in the order given, and returns how many were released. The caller
    /// names the elements the application holds — a resource manager knows
    /// them from its layout, in ascending id order — so a release costs the
    /// application's footprint, not a walk of the platform. An element
    /// listed twice is released once; one where `app` holds nothing is not
    /// touched. Link claims are *not* touched either; the resource manager
    /// releases routes explicitly.
    pub fn release_app(
        &mut self,
        app: AppId,
        elements: impl IntoIterator<Item = ElementId>,
    ) -> usize {
        let mut count = 0;
        for e in elements {
            let was_used = self.is_used(e);
            let mut i = 0;
            while i < self.state.residents[e.index()].len() {
                if self.state.residents[e.index()][i].app == app {
                    let occ = self.state.residents[e.index()].swap_remove(i);
                    self.set_free(e, self.free(e).saturating_add(&occ.claimed));
                    self.touch_element(e);
                    count += 1;
                } else {
                    i += 1;
                }
            }
            if was_used && !self.is_used(e) {
                self.note_used_flip(e);
            }
        }
        count
    }

    // ---- dynamic state: links ---------------------------------------------------

    /// Remaining bandwidth on link `l`.
    #[inline]
    pub fn link_free_bandwidth(&self, l: LinkId) -> u64 {
        self.state.links[l.index()].free_bandwidth
    }

    /// Remaining virtual channels on link `l`.
    #[inline]
    pub fn link_free_virtual_channels(&self, l: LinkId) -> u16 {
        self.state.links[l.index()].free_virtual_channels
    }

    /// `true` when link `l` can still accept a channel of `bandwidth`.
    #[inline]
    pub fn link_available(&self, l: LinkId, bandwidth: u64) -> bool {
        let s = &self.state.links[l.index()];
        s.free_virtual_channels > 0 && s.free_bandwidth >= bandwidth
    }

    /// Reserves one virtual channel carrying `bandwidth` on link `l`.
    ///
    /// # Errors
    ///
    /// [`ClaimError::LinkSaturated`] when no virtual channel or not enough
    /// bandwidth is left.
    pub fn claim_link(&mut self, l: LinkId, bandwidth: u64) -> Result<(), ClaimError> {
        let s = &mut self.state.links[l.index()];
        if s.free_virtual_channels == 0 || s.free_bandwidth < bandwidth {
            return Err(ClaimError::LinkSaturated { link: l, requested: bandwidth });
        }
        s.free_virtual_channels -= 1;
        s.free_bandwidth -= bandwidth;
        self.touch_link(l);
        Ok(())
    }

    /// Returns one virtual channel carrying `bandwidth` to link `l`.
    ///
    /// # Panics
    ///
    /// Panics if the release would exceed the link's physical capacity,
    /// which indicates an unbalanced claim/release pair in the caller.
    pub fn release_link(&mut self, l: LinkId, bandwidth: u64) {
        let cap = self.links[l.index()];
        let s = &mut self.state.links[l.index()];
        s.free_virtual_channels += 1;
        s.free_bandwidth += bandwidth;
        assert!(
            s.free_virtual_channels <= cap.virtual_channels()
                && s.free_bandwidth <= cap.bandwidth(),
            "unbalanced link release on {l}"
        );
        self.touch_link(l);
    }

    // ---- faults -----------------------------------------------------------------

    /// Marks `e` as failed. Already-residing occupants stay recorded (the
    /// resource manager decides what to re-allocate); new claims are refused
    /// and searches skip the element. Failing a failed element is no
    /// mutation: nothing changes, not even the epoch.
    pub fn fail_element(&mut self, e: ElementId) {
        if !self.is_failed(e) {
            self.set_failed(e, true);
        }
    }

    /// Clears the failure mark on `e`. Repairing a healthy element is no
    /// mutation: nothing changes, not even the epoch.
    pub fn repair_element(&mut self, e: ElementId) {
        if self.is_failed(e) {
            self.set_failed(e, false);
        }
    }

    /// Flips `e`'s failure mark to `failed`, moving its free and capacity
    /// totals out of the live sums or back in.
    fn set_failed(&mut self, e: ElementId, failed: bool) {
        let (free, capacity) = (self.free(e).total(), self.elements[e.index()].capacity().total());
        let t = &mut self.totals;
        if failed {
            (t.free, t.capacity, t.failed) = (t.free - free, t.capacity - capacity, t.failed + 1);
        } else {
            (t.free, t.capacity, t.failed) = (t.free + free, t.capacity + capacity, t.failed - 1);
        }
        self.state.failed[e.index()] = failed;
        self.touch_element(e);
    }

    /// Ids of all currently failed elements.
    pub fn failed_elements(&self) -> Vec<ElementId> {
        self.element_ids().filter(|&e| self.is_failed(e)).collect()
    }

    // ---- what-if copies ----------------------------------------------------------

    /// Brings this platform to `other`'s state — free vectors, residents in
    /// their order, link occupancy, failure marks, the occupancy totals and
    /// used-neighbour counts —
    /// and the history kept beside it (epoch, stamp ledger, free rank), so
    /// a decision made here is the one `other` would make. A resource manager answers its
    /// what-ifs on such a copy kept beside the live platform. Copies into
    /// this platform's own buffers: once warm it allocates nothing and
    /// costs O(|E| + |L| + residents), not a clone of the structure.
    ///
    /// # Panics
    ///
    /// Panics if `other` is structurally different (element or link
    /// count), as [`Self::restore`] does.
    pub fn copy_state_from(&mut self, other: &Platform) {
        assert!(
            self.elements.len() == other.elements.len() && self.links.len() == other.links.len(),
            "a state copy needs a platform of the same structure"
        );
        let (state, from) = (&mut self.state, &other.state);
        state.free.clone_from(&from.free);
        state.residents.clone_from(&from.residents);
        state.links.clone_from(&from.links);
        state.failed.clone_from(&from.failed);
        self.totals = other.totals;
        self.used_neighbours.clone_from(&other.used_neighbours);
        self.epoch = other.epoch;
        let (stamp, from) = (&mut self.stamp, &other.stamp);
        stamp.digests.clone_from(&from.digests);
        stamp.sum = from.sum;
        stamp.dirty.clone_from(&from.dirty);
        stamp.is_dirty.clone_from(&from.is_dirty);
        stamp.stale = from.stale;
        let (rank, from) = (&mut self.rank, &other.rank);
        rank.entries.clone_from(&from.entries);
        rank.ranked.clone_from(&from.ranked);
        rank.dirty.clone_from(&from.dirty);
        rank.is_dirty.clone_from(&from.is_dirty);
    }

    /// Pushes a [`Self::checkpoint`] for the matching
    /// [`Self::rollback_txn`] to restore. Nothing in the product writes the
    /// platform speculatively; the frozen benchmark's `platform.rollback_us`
    /// row is the only caller, and both methods go with that row (ROADMAP
    /// item 2(d)).
    #[doc(hidden)]
    pub fn begin_txn(&mut self) {
        let checkpoint = self.checkpoint();
        self.txn_checkpoints.push(checkpoint);
    }

    /// Restores the checkpoint of the innermost open [`Self::begin_txn`].
    ///
    /// # Panics
    ///
    /// Panics when no `begin_txn` is open.
    #[doc(hidden)]
    pub fn rollback_txn(&mut self) {
        let checkpoint =
            self.txn_checkpoints.pop().expect("rollback_txn without an open transaction");
        self.restore(checkpoint);
    }

    // ---- checkpointing ----------------------------------------------------------

    /// Captures the complete mutable state.
    pub fn checkpoint(&self) -> PlatformCheckpoint {
        PlatformCheckpoint { state: self.state.clone() }
    }

    /// Restores a previously captured state.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was taken from a structurally different
    /// platform (different element or link count).
    pub fn restore(&mut self, checkpoint: PlatformCheckpoint) {
        assert_eq!(
            checkpoint.state.free.len(),
            self.elements.len(),
            "checkpoint does not belong to this platform"
        );
        assert_eq!(
            checkpoint.state.links.len(),
            self.links.len(),
            "checkpoint does not belong to this platform"
        );
        self.state = checkpoint.state;
        // A restore is a state mutation like any other — of every record at
        // once. Without the bump the manager's probe hand-off would replay
        // a decision computed against occupancy that no longer exists;
        // without the wholesale mark the next stamp would answer for the
        // pre-restore state. A checkpoint carries no digests (it would
        // double in size for a path nothing hot takes), so the next stamp
        // starts from scratch. The free rank is rebuilt here instead: the
        // mutators keep marking into it whether or not anyone reads it. So
        // are the occupancy totals and used-neighbour counts, which every
        // read expects current.
        self.epoch.0 += 1;
        self.stamp.stale = true;
        self.rank.rebuild(&self.state, &self.kind_ids, &self.kind_offsets);
        self.totals = self.totals_from_scratch();
        for e in 0..self.elements.len() {
            self.used_neighbours[e] = self.used_neighbours_from_scratch(ElementId(e as u32));
        }
    }

    /// `true` when no resources are claimed anywhere (all elements idle,
    /// all links at full capacity). Failure marks are ignored.
    pub fn is_idle(&self) -> bool {
        self.elements
            .iter()
            .enumerate()
            .all(|(i, e)| self.state.free[i] == e.capacity() && self.state.residents[i].is_empty())
            && self.links.iter().enumerate().all(|(i, l)| self.state.links[i] == LinkState::idle(l))
    }

    /// Total free resources summed over all non-failed elements.
    pub fn total_free(&self) -> ResourceVector {
        self.element_ids().filter(|&e| !self.is_failed(e)).map(|e| self.free(e)).sum()
    }

    /// Total capacity summed over all non-failed elements.
    pub fn total_capacity(&self) -> ResourceVector {
        self.elements.iter().filter(|e| !self.is_failed(e.id())).map(|e| e.capacity()).sum()
    }

    // ---- audit ------------------------------------------------------------------

    /// Checks the ledger against its definitions, naively, and names the
    /// first record that disagrees: every element's free vector is its
    /// capacity less its residents' claims; no link has more bandwidth or
    /// virtual channels free than it has; the maintained
    /// [`Self::state_stamp`] digests every
    /// record as [`Self::state_stamp_from_scratch`] does; refreshed, each
    /// kind's [`Self::free_rank`] is the sort of its elements by
    /// `(free total, id)`; each of the kept [`Self::totals`] is its
    /// recount by [`Self::totals_from_scratch`]; and each element's
    /// [`Self::used_neighbours`] is its recount by
    /// [`Self::used_neighbours_from_scratch`].
    ///
    /// Brings the stamp and the rank up to date first — history, not
    /// state, so neither equality nor any decision moves — which is why
    /// it takes `&mut self`; audit a clone to leave the original's dirty
    /// sets alone.
    ///
    /// # Errors
    ///
    /// The first disagreement found, in the order above.
    pub fn audit(&mut self) -> Result<(), AuditError> {
        for (i, element) in self.elements.iter().enumerate() {
            let free = self.state.free[i];
            let claimed: ResourceVector = self.state.residents[i].iter().map(|o| o.claimed).sum();
            if free.saturating_add(&claimed) != element.capacity() {
                return Err(AuditError::ElementFree { element: element.id(), free, claimed });
            }
        }
        for (link, s) in self.links.iter().zip(&self.state.links) {
            if s.free_bandwidth > link.bandwidth()
                || s.free_virtual_channels > link.virtual_channels()
            {
                return Err(AuditError::LinkFree {
                    link: link.id(),
                    free_bandwidth: s.free_bandwidth,
                    free_virtual_channels: s.free_virtual_channels,
                });
            }
        }
        let maintained = self.state_stamp();
        let mut from_scratch = 0u128;
        for (record, &kept) in self.stamp.digests.iter().enumerate() {
            let fresh = self.state.record_digest(record);
            if kept != fresh {
                return Err(match record.checked_sub(self.elements.len()) {
                    None => AuditError::ElementStamp(ElementId(record as u32)),
                    Some(link) => AuditError::LinkStamp(LinkId(link as u32)),
                });
            }
            from_scratch = from_scratch.wrapping_add(fresh);
        }
        if maintained != from_scratch {
            return Err(AuditError::StampSum { maintained, from_scratch });
        }

        self.refresh_free_rank();
        for kind in ElementKind::ALL {
            let mut sorted: Vec<(u64, ElementId)> =
                self.ids_of_kind(kind).iter().map(|&e| (self.free(e).total(), e)).collect();
            sorted.sort_unstable();
            let rank = self.free_rank(kind);
            if let Some(position) = rank.iter().zip(&sorted).position(|(a, b)| a != b) {
                let (found, expected) = (rank[position], sorted[position]);
                return Err(AuditError::Rank { kind, position, found, expected });
            }
        }

        let recount = self.totals_from_scratch().named();
        if let Some(((name, kept), (_, recounted))) =
            self.totals.named().into_iter().zip(recount).find(|(kept, fresh)| kept != fresh)
        {
            return Err(AuditError::Total { name, kept, recounted });
        }

        for element in self.element_ids() {
            let (kept, recounted) =
                (self.used_neighbours(element), self.used_neighbours_from_scratch(element));
            if kept != recounted {
                return Err(AuditError::UsedNeighbours { element, kept, recounted });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "platform '{}': {} elements, {} links",
            self.name,
            self.element_count(),
            self.link_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlatformBuilder;

    fn two_dsp() -> (Platform, ElementId, ElementId) {
        let mut b = PlatformBuilder::new("t");
        let a = b.add_element(ElementKind::Dsp, ResourceVector::new(100, 10, 0, 0));
        let c = b.add_element(ElementKind::Dsp, ResourceVector::new(100, 10, 0, 0));
        b.connect(a, c, 1000, 2);
        (b.build(), a, c)
    }

    fn occ(app: u32, task: u32, r: ResourceVector) -> Occupant {
        Occupant { app: AppId(app), task, claimed: r }
    }

    #[test]
    fn claim_and_release_roundtrip() {
        let (mut p, a, _) = two_dsp();
        let before = p.checkpoint();
        p.claim(a, occ(0, 0, ResourceVector::new(60, 5, 0, 0))).unwrap();
        assert_eq!(p.free(a), ResourceVector::new(40, 5, 0, 0));
        assert!(p.is_used(a));
        assert_eq!(p.release(a, AppId(0), 0), Some(ResourceVector::new(60, 5, 0, 0)));
        assert!(!p.is_used(a));
        assert_eq!(p.checkpoint(), before);
        assert!(p.is_idle());
    }

    #[test]
    fn claim_rejects_overcommit() {
        let (mut p, a, _) = two_dsp();
        let err = p.claim(a, occ(0, 0, ResourceVector::new(101, 0, 0, 0))).unwrap_err();
        assert!(matches!(err, ClaimError::InsufficientResources { .. }));
        assert!(p.is_idle());
    }

    #[test]
    fn claim_rejects_failed_element() {
        let (mut p, a, _) = two_dsp();
        p.fail_element(a);
        let err = p.claim(a, occ(0, 0, ResourceVector::ZERO)).unwrap_err();
        assert_eq!(err, ClaimError::ElementFailed(a));
        assert_eq!(p.failed_elements(), vec![a]);
        p.repair_element(a);
        assert!(p.claim(a, occ(0, 0, ResourceVector::ZERO)).is_ok());
    }

    #[test]
    fn release_unknown_occupant_is_none() {
        let (mut p, a, _) = two_dsp();
        assert_eq!(p.release(a, AppId(9), 9), None);
    }

    #[test]
    fn release_app_clears_all_claims() {
        let (mut p, a, c) = two_dsp();
        p.claim(a, occ(1, 0, ResourceVector::new(10, 0, 0, 0))).unwrap();
        p.claim(c, occ(1, 1, ResourceVector::new(20, 0, 0, 0))).unwrap();
        p.claim(c, occ(2, 0, ResourceVector::new(30, 0, 0, 0))).unwrap();
        assert_eq!(p.release_app(AppId(1), [a, c]), 2);
        assert_eq!(p.free(a), ResourceVector::new(100, 10, 0, 0));
        assert_eq!(p.free(c), ResourceVector::new(70, 10, 0, 0));
        assert_eq!(p.residents(c).len(), 1);
    }

    #[test]
    fn link_claims_track_vc_and_bandwidth() {
        let (mut p, a, c) = two_dsp();
        let l = p.link_between(a, c).unwrap();
        assert!(p.link_available(l, 600));
        p.claim_link(l, 600).unwrap();
        assert_eq!(p.link_free_bandwidth(l), 400);
        assert_eq!(p.link_free_virtual_channels(l), 1);
        assert!(!p.link_available(l, 500));
        p.claim_link(l, 400).unwrap();
        let err = p.claim_link(l, 0).unwrap_err();
        assert!(matches!(err, ClaimError::LinkSaturated { .. }));
        p.release_link(l, 400);
        p.release_link(l, 600);
        assert!(p.is_idle());
    }

    #[test]
    #[should_panic(expected = "unbalanced link release")]
    fn unbalanced_link_release_panics() {
        let (mut p, a, c) = two_dsp();
        let l = p.link_between(a, c).unwrap();
        p.release_link(l, 1);
    }

    #[test]
    fn checkpoint_restore_undoes_everything() {
        let (mut p, a, c) = two_dsp();
        let cp = p.checkpoint();
        p.claim(a, occ(0, 0, ResourceVector::new(50, 0, 0, 0))).unwrap();
        let l = p.link_between(a, c).unwrap();
        p.claim_link(l, 100).unwrap();
        p.fail_element(c);
        p.restore(cp);
        assert!(p.is_idle());
        assert!(!p.is_failed(c));
    }

    #[test]
    fn link_rows_list_each_elements_links_in_id_order() {
        // Directed links, a parallel pair, a one-way cycle and an element
        // with no link at all.
        let mut b = PlatformBuilder::new("directed");
        let e: Vec<_> =
            (0..6).map(|_| b.add_element(ElementKind::Dsp, ResourceVector::splat(1))).collect();
        for (src, dst) in [(3, 0), (0, 1), (1, 2), (2, 0), (0, 1), (4, 3), (1, 3)] {
            b.connect_directed(e[src], e[dst], 10, 1);
        }
        let platforms = [
            crate::topology::crisp(),
            crate::topology::heterogeneous_mesh(16, 16),
            crate::topology::crisp_tiles(4),
            b.build(),
        ];
        for p in &platforms {
            for e in p.element_ids() {
                let out: Vec<_> =
                    p.links().filter(|l| l.src() == e).map(|l| (l.dst(), l.id())).collect();
                let into: Vec<_> =
                    p.links().filter(|l| l.dst() == e).map(|l| (l.src(), l.id())).collect();
                assert_eq!(p.successors(e), out, "{}: out of {e}", p.name());
                assert_eq!(p.predecessors(e), into, "{}: into {e}", p.name());
                for &n in p.neighbors(e) {
                    let first = p.links().find(|l| (l.src(), l.dst()) == (e, n)).map(|l| l.id());
                    assert_eq!(p.link_between(e, n), first, "{}: {e} to {n}", p.name());
                }
            }
            assert_eq!(&p.clone(), p);
        }
        let directed = &platforms[3];
        // The lower id of the parallel pair.
        assert_eq!(directed.link_between(e[0], e[1]), Some(LinkId(1)));
        assert_eq!(directed.link_between(e[1], e[0]), None);
        assert!(directed.successors(e[5]).is_empty() && directed.predecessors(e[5]).is_empty());
    }

    #[test]
    fn hop_rows_are_the_topologys_shared_by_clones_and_outside_equality() {
        use crate::distance::{bfs_distances, SearchDirection};
        // One-way links and an element with no link, and a line longer
        // than a row's radius.
        let mut b = PlatformBuilder::new("directed");
        let e: Vec<_> =
            (0..6).map(|_| b.add_element(ElementKind::Dsp, ResourceVector::splat(1))).collect();
        for (src, dst) in [(3, 0), (0, 1), (1, 2), (2, 0), (4, 3), (1, 3)] {
            b.connect_directed(e[src], e[dst], 10, 1);
        }
        let static_row = |p: &Platform, dst: ElementId| -> Vec<u8> {
            let distances = bfs_distances(p, dst, SearchDirection::Backward);
            let within = |d: u32| u8::try_from(d).ok().filter(|&d| d <= HOP_ROW_RADIUS);
            distances.iter().map(|d| d.and_then(within).unwrap_or(u8::MAX)).collect()
        };
        let platforms = [b.build(), crate::topology::crisp(), crate::topology::dsp_line(40)];
        for p in &platforms {
            for dst in p.element_ids() {
                assert_eq!(p.hops_to(dst), static_row(p, dst), "{}: to {dst}", p.name());
            }
        }
        assert_eq!(platforms[0].hops_to(e[3])[5], u8::MAX, "no path");
        let line = platforms[2].hops_to(ElementId(0));
        assert_eq!((line[16], line[17]), (16, u8::MAX), "beyond the radius");

        // A clone shares the rows: those filled before and those filled
        // through either side after.
        let p = crate::topology::crisp();
        let (d0, d1) = (ElementId(0), ElementId(7));
        let unfailed = static_row(&p, d1);
        let before = p.hops_to(d0).as_ptr();
        let mut q = p.clone();
        assert_eq!(q.hops_to(d0).as_ptr(), before);
        assert_eq!(q.hops_to(d1).as_ptr(), p.hops_to(d1).as_ptr());

        // No state change touches a row, filled or not: failures, a
        // restore, a copied state.
        let checkpoint = q.checkpoint();
        q.fail_element(ElementId(1));
        q.fail_element(ElementId(8));
        let l = q.successors(d0)[0].1;
        q.claim_link(l, 10).unwrap();
        let d2 = ElementId(20);
        assert_eq!(q.hops_to(d2), static_row(&p, d2), "filled while elements are failed");
        assert_eq!(q.hops_to(d1), unfailed);
        q.restore(checkpoint);
        let mut r = crate::topology::crisp();
        r.copy_state_from(&q);
        for dst in [d0, d1, d2] {
            assert_eq!(q.hops_to(dst).as_ptr(), p.hops_to(dst).as_ptr());
            assert_eq!(r.hops_to(dst), p.hops_to(dst));
        }

        // Filled rows are not state: a fresh platform equals one whose rows
        // are all filled, and prints the same.
        let fresh = crate::topology::crisp();
        assert!(fresh.hop_rows.0.iter().all(|row| row.get().is_none()));
        assert!(p.hop_rows.0[d2.index()].get().is_some(), "filled through the clone");
        for dst in p.element_ids() {
            p.hops_to(dst);
        }
        assert_eq!(fresh, p);
        assert_eq!(format!("{fresh:?}"), format!("{p:?}"));
    }

    #[test]
    fn adjacency_is_directional() {
        let mut b = PlatformBuilder::new("dir");
        let a = b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        let c = b.add_element(ElementKind::Dsp, ResourceVector::splat(1));
        b.connect_directed(a, c, 10, 1);
        let p = b.build();
        assert_eq!(p.successors(a).len(), 1);
        assert_eq!(p.predecessors(a).len(), 0);
        assert_eq!(p.successors(c).len(), 0);
        assert_eq!(p.predecessors(c).len(), 1);
        assert_eq!(p.neighbors(a), [c]);
        assert_eq!(p.neighbors(c), [a]);
        assert_eq!(p.degree(a), 1);
        assert_eq!(p.link_between(c, a), None);
    }

    #[test]
    #[should_panic(expected = "without an open transaction")]
    fn rollback_without_txn_panics() {
        let (mut p, _, _) = two_dsp();
        p.rollback_txn();
    }

    #[test]
    fn state_epoch_tracks_every_mutation_including_restore() {
        let (mut p, a, c) = two_dsp();
        let e0 = p.state_epoch();
        // Failed claims change nothing and leave the epoch alone.
        assert!(p.claim(a, occ(0, 0, ResourceVector::new(101, 0, 0, 0))).is_err());
        assert_eq!(p.state_epoch(), e0);
        p.claim(a, occ(0, 0, ResourceVector::new(10, 0, 0, 0))).unwrap();
        assert!(p.state_epoch() > e0);

        // A claim released again restores the state bytes but advances
        // the epoch.
        let cp = p.checkpoint();
        let before = p.state_epoch();
        p.claim(c, occ(1, 0, ResourceVector::new(5, 0, 0, 0))).unwrap();
        p.release(c, AppId(1), 0).unwrap();
        assert_eq!(p.checkpoint(), cp, "the release restored the state");
        assert!(p.state_epoch() > before, "and still bumped the epoch");

        // The PR 8 regression: restore() is a mutation too. An unchanged
        // epoch across restore would let an epoch-keyed observer (the
        // manager's probe hand-off) keep answering for the pre-restore
        // occupancy.
        let fuller = {
            p.claim(c, occ(2, 0, ResourceVector::new(7, 0, 0, 0))).unwrap();
            p.checkpoint()
        };
        p.restore(cp.clone());
        let restored_epoch = p.state_epoch();
        p.restore(fuller);
        assert!(p.state_epoch() > restored_epoch, "restore must bump the epoch");
    }

    #[test]
    fn audit_names_the_first_record_that_disagrees() {
        let (mut p, a, c) = two_dsp();
        p.claim(a, occ(0, 0, ResourceVector::new(10, 1, 0, 0))).unwrap();
        let l = p.link_between(a, c).unwrap();
        p.claim_link(l, 100).unwrap();
        assert_eq!(p.audit(), Ok(()));

        // Each corruption goes around the mutators, as a bug in one would.
        let mut bad = p.clone();
        bad.state.free[c.index()] = ResourceVector::new(99, 10, 0, 0);
        let claimed = ResourceVector::ZERO;
        let free = ResourceVector::new(99, 10, 0, 0);
        assert_eq!(bad.audit(), Err(AuditError::ElementFree { element: c, free, claimed }));

        let mut bad = p.clone();
        bad.state.links[l.index()].free_virtual_channels = 3;
        assert!(matches!(bad.audit(), Err(AuditError::LinkFree { link, .. }) if link == l));

        // An unmarked mutation: the kept digest and rank entry go stale.
        let mut bad = p.clone();
        bad.state.failed[c.index()] = true;
        assert_eq!(bad.audit(), Err(AuditError::ElementStamp(c)));
        let mut bad = p.clone();
        bad.state.links[l.index()] = LinkState::idle(&bad.links[l.index()]);
        assert_eq!(bad.audit(), Err(AuditError::LinkStamp(l)));
        let mut bad = p.clone();
        bad.stamp.sum = bad.stamp.sum.wrapping_add(1);
        assert!(matches!(bad.audit(), Err(AuditError::StampSum { .. })));
        let mut bad = p.clone();
        bad.rank.entries.swap(0, 1);
        assert!(matches!(
            bad.audit(),
            Err(AuditError::Rank { kind: ElementKind::Dsp, position: 0, .. })
        ));
        assert_eq!(p.audit(), Ok(()), "the clones were corrupted, not the original");
    }

    #[test]
    fn audit_names_the_first_total_that_disagrees() {
        let (mut p, a, c) = two_dsp();
        p.claim(a, occ(0, 0, ResourceVector::new(10, 1, 0, 0))).unwrap();
        assert_eq!(p.totals(), p.totals_from_scratch());
        let mut bad = p.clone();
        bad.totals.used += 1;
        bad.totals.mixed_pairs += 1;
        assert_eq!(bad.audit(), Err(AuditError::Total { name: "used", kept: 2, recounted: 1 }));
        let mut bad = p.clone();
        bad.totals.mixed_pairs = 0;
        let expected = AuditError::Total { name: "mixed_pairs", kept: 0, recounted: 1 };
        assert_eq!(bad.audit(), Err(expected));
        let mut bad = p.clone();
        bad.used_neighbours[c.index()] = 0;
        let expected = AuditError::UsedNeighbours { element: c, kept: 0, recounted: 1 };
        assert_eq!(bad.audit(), Err(expected));
        assert_eq!(p.audit(), Ok(()));
    }

    #[test]
    fn a_fault_or_repair_that_flips_nothing_changes_nothing() {
        let (mut p, a, c) = two_dsp();
        p.claim(a, occ(0, 0, ResourceVector::new(10, 1, 0, 0))).unwrap();
        p.fail_element(c);
        p.state_stamp();
        p.refresh_free_rank();
        let (epoch, totals, before) = (p.state_epoch(), p.totals(), p.checkpoint());
        p.fail_element(c);
        p.repair_element(a);
        assert_eq!(p.state_epoch(), epoch, "no epoch bump");
        assert!(p.stamp.dirty.is_empty(), "no stamp mark");
        assert!(p.free_rank_dirty().is_empty(), "no rank mark");
        assert_eq!(p.totals(), totals, "no change to the totals");
        assert_eq!(p.checkpoint(), before);
        // A flip still is a mutation.
        p.repair_element(c);
        assert!(p.state_epoch() > epoch);
        assert_eq!(p.free_rank_dirty(), [c]);
        assert_eq!(p.totals().failed, 0);
        assert_eq!(p.audit(), Ok(()));
    }

    #[test]
    fn totals_exclude_failed_elements() {
        let (mut p, a, c) = two_dsp();
        assert_eq!(p.total_capacity(), ResourceVector::new(200, 20, 0, 0));
        assert_eq!(p.pair_count(), 1);
        p.claim(c, occ(0, 0, ResourceVector::new(30, 0, 0, 0))).unwrap();
        p.fail_element(a);
        assert_eq!(p.total_capacity(), ResourceVector::new(100, 10, 0, 0));
        assert_eq!(p.total_free(), ResourceVector::new(70, 10, 0, 0));
        let totals =
            OccupancyTotals { free: 80, capacity: 110, used: 1, failed: 1, mixed_pairs: 1 };
        assert_eq!(p.totals(), totals);
        assert_eq!(p.totals().resource_utilisation(), 1.0 - 80.0 / 110.0);
    }
}
