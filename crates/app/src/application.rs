//! Applications — annotated task graphs `A = <T, C>` with constraints.

use std::cmp::Reverse;
use std::fmt;
use std::sync::{Arc, OnceLock};

use kairos_platform::Digest;

use crate::channel::{Channel, ChannelId};
use crate::constraints::Constraint;
use crate::implementation::{ImplId, Implementation};
use crate::task::{Task, TaskId, TaskRole};

/// Errors detected while building or validating an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplicationError {
    /// A task was declared without any implementation.
    TaskWithoutImplementation(TaskId),
    /// A channel references a task id that does not exist.
    UnknownTask(TaskId),
    /// A channel connects a task to itself.
    SelfChannel(TaskId),
    /// The application has no tasks at all.
    Empty,
    /// The latency constraint at this index of the constraint list has a
    /// pipeline depth of zero, which bounds no period.
    ZeroPipelineDepth(usize),
    /// A channel moves zero tokens per firing: its SDF graph has no
    /// meaningful period, so no throughput guarantee could hold.
    ZeroRateChannel(ChannelId),
}

impl fmt::Display for ApplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplicationError::TaskWithoutImplementation(t) => {
                write!(f, "task {t} has no implementation")
            }
            ApplicationError::UnknownTask(t) => write!(f, "channel references unknown task {t}"),
            ApplicationError::SelfChannel(t) => write!(f, "task {t} has a channel to itself"),
            ApplicationError::Empty => f.write_str("application has no tasks"),
            ApplicationError::ZeroPipelineDepth(i) => {
                write!(f, "latency constraint {i} has a pipeline depth of zero")
            }
            ApplicationError::ZeroRateChannel(c) => {
                write!(f, "channel {c} moves zero tokens per firing")
            }
        }
    }
}

impl std::error::Error for ApplicationError {}

/// An application specification: annotated task graph plus performance
/// constraints, as produced by the design-time partitioning phase.
///
/// # Examples
///
/// ```
/// use kairos_app::{ApplicationBuilder, TaskRole, Implementation};
/// use kairos_platform::{ElementKind, ResourceVector};
///
/// let mut b = ApplicationBuilder::new("pipeline");
/// let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(500, 16, 0, 0), 100, 5);
/// let src = b.add_task("src", TaskRole::Input, vec![imp]);
/// let dst = b.add_task("dst", TaskRole::Output, vec![imp]);
/// b.add_channel(src, dst, 100, 1);
/// let app = b.build()?;
/// assert_eq!(app.task_count(), 2);
/// assert_eq!(app.degree(src), 1);
/// # Ok::<(), kairos_app::ApplicationError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// An application is immutable once built, so its clones share one
    /// body: `clone` is a reference-count bump, whatever the graph's size.
    body: Arc<Body>,
}

#[derive(Debug, PartialEq)]
struct Body {
    name: String,
    tasks: Vec<Task>,
    channels: Vec<Channel>,
    constraints: Vec<Constraint>,
    /// Outgoing adjacency per task: `(consumer, channel)`.
    out_adj: Vec<Vec<(TaskId, ChannelId)>>,
    /// Incoming adjacency per task: `(producer, channel)`.
    in_adj: Vec<Vec<(TaskId, ChannelId)>>,
    /// See [`Application::shape_hash`]; a function of the fields above.
    shape: u128,
    /// The distinct peers of task `t`, ascending, are
    /// `peers[peer_ends[t - 1]..peer_ends[t]]` (from 0 for task 0). Like
    /// `min_degree`, a function of the adjacency, computed once here.
    peers: Vec<TaskId>,
    peer_ends: Vec<u32>,
    /// See [`Application::min_degree_tasks`].
    min_degree: Vec<TaskId>,
    /// What the admission pipeline would otherwise re-derive per run, each
    /// a function of the fields above: see [`Application::route_order`],
    /// [`Application::implementations_by_energy`] (flat, with run ends
    /// like `peers`) and [`Application::first_output`].
    route_order: Vec<ChannelId>,
    energy_order: Vec<ImplId>,
    energy_ends: Vec<u32>,
    first_output: Option<TaskId>,
    /// The rings from `min_degree[0]`, tasks and ends only.
    rings: TaskRings,
    /// The rings of the first other seed set [`Application::rings_from`]
    /// was asked for, filled then.
    kept: KeptRings,
}

/// A lazily kept decomposition with its seeds. Like the seeds it was asked
/// for, it is a function of the body's declared fields, so it takes no
/// part in equality, and `Debug` prints no trace of whether it is filled:
/// an application that has been mapped is the application it was. Boxed,
/// so that an application no mapper asks this of carries a pointer, not
/// an empty decomposition.
#[derive(Default)]
struct KeptRings(OnceLock<Box<(Box<[TaskId]>, TaskRings)>>);

impl PartialEq for KeptRings {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for KeptRings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeptRings(..)")
    }
}

/// Hashes everything of an application but its name, in declaration order.
fn shape_hash(tasks: &[Task], channels: &[Channel], constraints: &[Constraint]) -> u128 {
    let mut d = Digest::new(tasks.len() as u64);
    for t in tasks {
        d.str(t.name());
        d.word(t.role() as u64);
        d.word(t.implementations().len() as u64);
        for imp in t.implementations() {
            d.word(imp.target() as u64);
            imp.requires().as_array().iter().for_each(|&r| d.word(r));
            d.word(imp.exec_cycles());
            d.word(imp.energy());
        }
    }
    d.word(channels.len() as u64);
    for c in channels {
        d.word((u64::from(c.src().0) << 32) | u64::from(c.dst().0));
        d.word(c.bandwidth());
        d.word(u64::from(c.tokens_per_firing()));
    }
    d.word(constraints.len() as u64);
    for k in constraints {
        match *k {
            Constraint::Throughput { max_period_cycles } => {
                d.word(0);
                d.word(max_period_cycles);
            }
            Constraint::Latency { max_latency_cycles, pipeline_depth } => {
                d.word(1);
                d.word(max_latency_cycles);
                d.word(u64::from(pipeline_depth));
            }
        }
    }
    d.finish()
}

/// `dist` entry of a task no seed reaches.
const UNREACHED: u32 = u32::MAX;

/// The neighbourhood decomposition of a task graph
/// ([`Application::neighborhood_rings_into`]), flat: reusable from one
/// decomposition to the next without giving up its allocations. Two
/// decompositions are equal when their rings are.
#[derive(Debug, Clone, Default)]
pub struct TaskRings {
    /// Every task, ring after ring, ascending within a ring.
    tasks: Vec<TaskId>,
    /// Ring `i` is `tasks[ends[i - 1]..ends[i]]` (from 0 for ring 0).
    ends: Vec<u32>,
    /// Graph distance of each task from the nearest seed: working memory
    /// of the derivation, empty in a decomposition an application keeps.
    dist: Vec<u32>,
}

impl PartialEq for TaskRings {
    fn eq(&self, other: &Self) -> bool {
        self.tasks == other.tasks && self.ends == other.ends
    }
}

impl TaskRings {
    /// The rings alone, in allocations of their own size.
    fn kept(&self) -> TaskRings {
        TaskRings { tasks: self.tasks.clone(), ends: self.ends.clone(), dist: Vec::new() }
    }

    /// Number of rings, the seeds' ring 0 included.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` before the first decomposition.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The rings in distance order, each ascending by task id.
    pub fn iter(&self) -> impl Iterator<Item = &[TaskId]> {
        let starts = std::iter::once(&0).chain(&self.ends);
        starts.zip(&self.ends).map(|(&start, &end)| &self.tasks[start as usize..end as usize])
    }
}

impl Body {
    fn peers(&self, t: TaskId) -> &[TaskId] {
        let ends = &self.peer_ends;
        let start = if t.index() == 0 { 0 } else { ends[t.index() - 1] };
        &self.peers[start as usize..ends[t.index()] as usize]
    }

    /// See [`Application::neighborhood_rings_into`].
    fn rings_into(&self, seeds: &[TaskId], rings: &mut TaskRings) {
        let n = self.tasks.len();
        let TaskRings { tasks, ends, dist } = rings;
        tasks.clear();
        ends.clear();
        dist.clear();
        dist.resize(n, UNREACHED);
        // `tasks` is the BFS queue and, once drained, its visit order: the
        // rings back to back, each yet to be put in id order.
        for &s in seeds {
            assert!(s.index() < n, "seed task {s} out of range");
            if dist[s.index()] == UNREACHED {
                dist[s.index()] = 0;
                tasks.push(s);
            }
        }
        let mut head = 0;
        while let Some(&t) = tasks.get(head) {
            head += 1;
            for &p in self.peers(t) {
                if dist[p.index()] == UNREACHED {
                    dist[p.index()] = dist[t.index()] + 1;
                    tasks.push(p);
                }
            }
        }
        ends.extend(
            (1..tasks.len())
                .filter(|&i| dist[tasks[i].index()] != dist[tasks[i - 1].index()])
                .map(|i| i as u32),
        );
        // Ring 0 exists even without seeds.
        ends.push(tasks.len() as u32);
        if tasks.len() < n {
            tasks.extend((0..n as u32).map(TaskId).filter(|t| dist[t.index()] == UNREACHED));
            ends.push(n as u32);
        }
        let mut start = 0;
        for &end in ends.iter() {
            tasks[start..end as usize].sort_unstable();
            start = end as usize;
        }
    }
}

impl Application {
    fn from_parts(
        name: String,
        tasks: Vec<Task>,
        channels: Vec<Channel>,
        constraints: Vec<Constraint>,
    ) -> Result<Self, ApplicationError> {
        if tasks.is_empty() {
            return Err(ApplicationError::Empty);
        }
        for t in &tasks {
            if t.implementations().is_empty() {
                return Err(ApplicationError::TaskWithoutImplementation(t.id()));
            }
        }
        let n = tasks.len();
        let mut out_adj = vec![Vec::new(); n];
        let mut in_adj = vec![Vec::new(); n];
        for c in &channels {
            if c.src().index() >= n {
                return Err(ApplicationError::UnknownTask(c.src()));
            }
            if c.dst().index() >= n {
                return Err(ApplicationError::UnknownTask(c.dst()));
            }
            if c.src() == c.dst() {
                return Err(ApplicationError::SelfChannel(c.src()));
            }
            if c.tokens_per_firing() == 0 {
                return Err(ApplicationError::ZeroRateChannel(c.id()));
            }
            out_adj[c.src().index()].push((c.dst(), c.id()));
            in_adj[c.dst().index()].push((c.src(), c.id()));
        }
        // Validation divides a latency bound by the depth.
        let zero_depth =
            |c: &Constraint| matches!(c, Constraint::Latency { pipeline_depth: 0, .. });
        if let Some(i) = constraints.iter().position(zero_depth) {
            return Err(ApplicationError::ZeroPipelineDepth(i));
        }
        let shape = shape_hash(&tasks, &channels, &constraints);

        let mut peers = Vec::with_capacity(2 * channels.len());
        let mut peer_ends = Vec::with_capacity(n);
        for t in 0..n {
            let start = peers.len();
            peers.extend(out_adj[t].iter().chain(&in_adj[t]).map(|&(p, _)| p));
            peers[start..].sort_unstable();
            // `dedup` on this task's tail only: an equal id across the
            // boundary belongs to the task before.
            let mut kept = start;
            for i in start..peers.len() {
                if i == start || peers[i] != peers[kept - 1] {
                    peers[kept] = peers[i];
                    kept += 1;
                }
            }
            peers.truncate(kept);
            peer_ends.push(kept as u32);
        }
        let degree = |t: usize| peer_ends[t] - if t == 0 { 0 } else { peer_ends[t - 1] };
        let min = (0..n).map(degree).min().unwrap_or(0);
        let min_degree: Vec<TaskId> =
            (0..n).filter(|&t| degree(t) == min).map(|t| TaskId(t as u32)).collect();

        // Ids break ties, so the orders are total and need no stable sort.
        let mut route_order: Vec<ChannelId> = channels.iter().map(Channel::id).collect();
        route_order.sort_unstable_by_key(|&c| (Reverse(channels[c.index()].bandwidth()), c));
        let mut energy_order =
            Vec::with_capacity(tasks.iter().map(|t| t.implementations().len()).sum());
        let mut energy_ends = Vec::with_capacity(n);
        for t in &tasks {
            let start = energy_order.len();
            let implementations = t.implementations();
            energy_order.extend((0..implementations.len()).map(|i| ImplId(i as u16)));
            energy_order[start..]
                .sort_unstable_by_key(|&i| (implementations[i.index()].energy(), i));
            energy_ends.push(energy_order.len() as u32);
        }
        let first_output = tasks.iter().find(|t| t.role() == TaskRole::Output).map(Task::id);

        let mut body = Body {
            name,
            tasks,
            channels,
            constraints,
            out_adj,
            in_adj,
            shape,
            peers,
            peer_ends,
            min_degree,
            route_order,
            energy_order,
            energy_ends,
            first_output,
            rings: TaskRings::default(),
            kept: KeptRings::default(),
        };
        let mut rings = TaskRings::default();
        body.rings_into(&body.min_degree[..1], &mut rings);
        body.rings = rings.kept();
        Ok(Application { body: Arc::new(body) })
    }

    /// The application's name.
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// A 128-bit structural hash of everything an admission pipeline reads
    /// — tasks with their names, roles and implementations, channels,
    /// constraints — *except* the application's name, which it never
    /// reads: two instances of one shape under different names hash
    /// equal. An application is immutable once built, so the hash is
    /// computed there, once, and this is a field read.
    pub fn shape_hash(&self) -> u128 {
        self.body.shape
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.body.tasks.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.body.channels.len()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.body.tasks[id.index()]
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.body.channels[id.index()]
    }

    /// Iterates over all tasks.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.body.tasks.iter()
    }

    /// Iterates over all task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.body.tasks.len() as u32).map(TaskId)
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.body.channels.iter()
    }

    /// The performance constraints of this application.
    pub fn constraints(&self) -> &[Constraint] {
        &self.body.constraints
    }

    /// Outgoing `(consumer, channel)` pairs of `t`.
    pub fn consumers(&self, t: TaskId) -> &[(TaskId, ChannelId)] {
        &self.body.out_adj[t.index()]
    }

    /// Incoming `(producer, channel)` pairs of `t`.
    pub fn producers(&self, t: TaskId) -> &[(TaskId, ChannelId)] {
        &self.body.in_adj[t.index()]
    }

    /// Distinct communication peers of `t`, ignoring direction, ascending.
    /// A slice of a table built with the application.
    pub fn peers(&self, t: TaskId) -> &[TaskId] {
        self.body.peers(t)
    }

    /// The undirected degree `d(t)`: number of distinct peers.
    pub fn degree(&self, t: TaskId) -> usize {
        self.peers(t).len()
    }

    /// Tasks of minimum degree `δ(T)`, ascending — the starting-point
    /// candidates of the mapping heuristic when no task is pinned. Computed
    /// once, when the application is built.
    pub fn min_degree_tasks(&self) -> &[TaskId] {
        &self.body.min_degree
    }

    /// Undirected BFS rings from a seed set, written into `rings`: ring `i`
    /// is the set of tasks at graph distance exactly `i` from the nearest
    /// seed (ring 0 is the seeds themselves). Tasks unreachable from any
    /// seed are appended as one extra trailing ring so that no task is ever
    /// lost.
    ///
    /// This realises the paper's sub-problem decomposition: "group the tasks
    /// in sets with equal distance to the origin task(s)". `rings` is
    /// overwritten, and allocates only while it grows to this
    /// application's size.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn neighborhood_rings_into(&self, seeds: &[TaskId], rings: &mut TaskRings) {
        self.body.rings_into(seeds, rings);
    }

    /// The decomposition [`Application::neighborhood_rings_into`] derives
    /// from `seeds`, without deriving it when the application keeps it:
    /// the rings from `min_degree_tasks()[0]` are built with the
    /// application, and those of the first other seed set asked for are
    /// kept from then on. Any other seed set is derived into `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn rings_from<'a>(&'a self, seeds: &[TaskId], scratch: &'a mut TaskRings) -> &'a TaskRings {
        let body = &*self.body;
        if seeds == &body.min_degree[..1] {
            return &body.rings;
        }
        let kept = body.kept.0.get();
        if let Some((kept_seeds, rings)) = kept.map(|kept| &**kept) {
            if **kept_seeds == *seeds {
                return rings;
            }
        }
        body.rings_into(seeds, scratch);
        if kept.is_none() {
            // A racing first ask keeps its own seeds; either is exact.
            let _ = body.kept.0.set(Box::new((seeds.into(), scratch.kept())));
        }
        scratch
    }

    /// Channel ids by descending bandwidth, ascending id among equals:
    /// the fattest-first order the routing phase reserves in. Computed
    /// once, when the application is built.
    pub fn route_order(&self) -> &[ChannelId] {
        &self.body.route_order
    }

    /// The implementation ids of `t`, cheapest (by energy) first, id order
    /// among equals: the order the binding phase asks about them in.
    /// Computed once, when the application is built.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn implementations_by_energy(&self, t: TaskId) -> &[ImplId] {
        let ends = &self.body.energy_ends;
        let start = if t.index() == 0 { 0 } else { ends[t.index() - 1] };
        &self.body.energy_order[start as usize..ends[t.index()] as usize]
    }

    /// The first task in id order whose role is [`TaskRole::Output`], if
    /// any: the validation phase's reference actor.
    pub fn first_output(&self) -> Option<TaskId> {
        self.body.first_output
    }

    /// `true` when the task graph is connected (ignoring direction).
    pub fn is_connected(&self) -> bool {
        let mut visited = vec![false; self.body.tasks.len()];
        let mut stack = vec![TaskId(0)];
        let mut seen = 0;
        visited[0] = true;
        while let Some(t) = stack.pop() {
            seen += 1;
            for &p in self.peers(t) {
                if !visited[p.index()] {
                    visited[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        seen == self.body.tasks.len()
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "application '{}': {} tasks, {} channels",
            self.body.name,
            self.task_count(),
            self.channel_count()
        )
    }
}

/// Builder for [`Application`] values.
#[derive(Debug, Clone)]
pub struct ApplicationBuilder {
    name: String,
    tasks: Vec<Task>,
    channels: Vec<Channel>,
    constraints: Vec<Constraint>,
}

impl ApplicationBuilder {
    /// Creates an empty builder for an application called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationBuilder {
            name: name.into(),
            tasks: Vec::new(),
            channels: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a task with its alternative implementations.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        role: TaskRole,
        implementations: Vec<Implementation>,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, name.into(), role, implementations));
        id
    }

    /// Adds a directed channel `src -> dst`.
    pub fn add_channel(
        &mut self,
        src: TaskId,
        dst: TaskId,
        bandwidth: u64,
        tokens_per_firing: u32,
    ) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel::new(id, src, dst, bandwidth, tokens_per_firing));
        id
    }

    /// Attaches a performance constraint.
    pub fn add_constraint(&mut self, constraint: Constraint) -> &mut Self {
        self.constraints.push(constraint);
        self
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Finalises and validates the application.
    ///
    /// # Errors
    ///
    /// Returns an [`ApplicationError`] when the graph is empty, a task lacks
    /// implementations, or a channel is dangling or self-referential.
    pub fn build(self) -> Result<Application, ApplicationError> {
        Application::from_parts(self.name, self.tasks, self.channels, self.constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_platform::{ElementKind, ResourceVector};

    fn imp() -> Implementation {
        Implementation::new(ElementKind::Dsp, ResourceVector::splat(1), 10, 1)
    }

    /// Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
    fn diamond() -> Application {
        let mut b = ApplicationBuilder::new("diamond");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp()]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp()]);
        let t2 = b.add_task("c", TaskRole::Internal, vec![imp()]);
        let t3 = b.add_task("d", TaskRole::Output, vec![imp()]);
        b.add_channel(t0, t1, 10, 1);
        b.add_channel(t0, t2, 10, 1);
        b.add_channel(t1, t3, 10, 1);
        b.add_channel(t2, t3, 10, 1);
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let app = diamond();
        assert_eq!(app.task_count(), 4);
        assert_eq!(app.channel_count(), 4);
        assert_eq!(app.name(), "diamond");
        assert_eq!(app.task(TaskId(1)).name(), "b");
        assert_eq!(app.channel(ChannelId(0)).src(), TaskId(0));
    }

    #[test]
    fn adjacency_and_degree() {
        let app = diamond();
        assert_eq!(app.consumers(TaskId(0)).len(), 2);
        assert_eq!(app.producers(TaskId(0)).len(), 0);
        assert_eq!(app.producers(TaskId(3)).len(), 2);
        assert_eq!(app.degree(TaskId(0)), 2);
        assert_eq!(app.degree(TaskId(1)), 2);
        assert_eq!(app.peers(TaskId(1)), [TaskId(0), TaskId(3)]);
    }

    #[test]
    fn min_degree_tasks_finds_delta() {
        let mut b = ApplicationBuilder::new("line");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp()]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp()]);
        let t2 = b.add_task("c", TaskRole::Output, vec![imp()]);
        b.add_channel(t0, t1, 1, 1);
        b.add_channel(t1, t2, 1, 1);
        let app = b.build().unwrap();
        assert_eq!(app.min_degree_tasks(), [t0, t2]);
    }

    /// The rings of `app` from `seeds`, one `Vec` per ring.
    fn rings_of(app: &Application, seeds: &[TaskId]) -> Vec<Vec<TaskId>> {
        let mut rings = TaskRings::default();
        app.neighborhood_rings_into(seeds, &mut rings);
        rings.iter().map(<[TaskId]>::to_vec).collect()
    }

    #[test]
    fn neighborhood_rings_group_by_distance() {
        let app = diamond();
        let rings = rings_of(&app, &[TaskId(0)]);
        assert_eq!(rings.len(), 3);
        assert_eq!(rings[0], vec![TaskId(0)]);
        assert_eq!(rings[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(rings[2], vec![TaskId(3)]);
    }

    #[test]
    fn neighborhood_rings_multiple_seeds() {
        let app = diamond();
        let rings = rings_of(&app, &[TaskId(0), TaskId(3)]);
        assert_eq!(rings.len(), 2);
        assert_eq!(rings[0], vec![TaskId(0), TaskId(3)]);
        assert_eq!(rings[1], vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn unreachable_tasks_form_trailing_ring() {
        let mut b = ApplicationBuilder::new("disc");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp()]);
        let t1 = b.add_task("b", TaskRole::Internal, vec![imp()]);
        let t2 = b.add_task("c", TaskRole::Output, vec![imp()]);
        b.add_channel(t0, t1, 1, 1);
        let app = b.build().unwrap();
        let rings = rings_of(&app, &[t0]);
        assert_eq!(rings.last().unwrap(), &vec![t2]);
        assert!(!app.is_connected());
        assert_eq!(rings.iter().map(Vec::len).sum::<usize>(), 3);
    }

    #[test]
    fn a_reused_decomposition_forgets_the_previous_one() {
        let mut rings = TaskRings::default();
        assert!(rings.is_empty());
        diamond().neighborhood_rings_into(&[TaskId(0)], &mut rings);
        assert_eq!(rings.len(), 3);
        // A smaller graph after a larger one: no ring, task or distance of
        // the diamond survives.
        let mut b = ApplicationBuilder::new("pair");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp()]);
        let t1 = b.add_task("b", TaskRole::Output, vec![imp()]);
        b.add_channel(t0, t1, 1, 1);
        b.add_channel(t0, t1, 1, 1);
        let pair = b.build().unwrap();
        pair.neighborhood_rings_into(&[t1], &mut rings);
        assert_eq!(rings.iter().collect::<Vec<_>>(), [[t1], [t0]]);
        assert_eq!(pair.peers(t0), [t1], "parallel channels make one peer");
        assert_eq!(pair.degree(t1), 1);
        // No seed at all: an empty ring 0, then everything as unreachable.
        pair.neighborhood_rings_into(&[], &mut rings);
        assert_eq!(rings.iter().collect::<Vec<_>>(), [&[][..], &[t0, t1][..]]);
    }

    #[test]
    fn clones_share_one_body_and_compare_by_value() {
        let app = diamond();
        let copy = app.clone();
        assert!(Arc::ptr_eq(&app.body, &copy.body), "a clone is a reference-count bump");
        assert_eq!(app, copy);
        let rebuilt = diamond();
        assert!(!Arc::ptr_eq(&app.body, &rebuilt.body));
        assert_eq!(app, rebuilt, "equality is structural, not identity");
        assert_eq!(app.shape_hash(), rebuilt.shape_hash());
    }

    #[test]
    fn connectivity_check() {
        assert!(diamond().is_connected());
    }

    #[test]
    fn build_rejects_empty() {
        assert_eq!(ApplicationBuilder::new("x").build().unwrap_err(), ApplicationError::Empty);
    }

    #[test]
    fn build_rejects_task_without_impl() {
        let mut b = ApplicationBuilder::new("x");
        b.add_task("a", TaskRole::Input, vec![]);
        assert_eq!(b.build().unwrap_err(), ApplicationError::TaskWithoutImplementation(TaskId(0)));
    }

    #[test]
    fn build_rejects_dangling_channel() {
        let mut b = ApplicationBuilder::new("x");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp()]);
        b.add_channel(t0, TaskId(9), 1, 1);
        assert_eq!(b.build().unwrap_err(), ApplicationError::UnknownTask(TaskId(9)));
    }

    #[test]
    fn build_rejects_self_channel() {
        let mut b = ApplicationBuilder::new("x");
        let t0 = b.add_task("a", TaskRole::Input, vec![imp()]);
        b.add_channel(t0, t0, 1, 1);
        assert_eq!(b.build().unwrap_err(), ApplicationError::SelfChannel(t0));
    }

    #[test]
    fn shape_hash_sees_every_field_but_the_name() {
        /// Everything a two-task application is made of, as plain values.
        #[derive(Clone)]
        struct Spec {
            task_names: [&'static str; 2],
            roles: [TaskRole; 2],
            target: ElementKind,
            requires: [u64; 4],
            exec_cycles: u64,
            energy: u64,
            second_impl: bool,
            third_task: bool,
            channel: (u32, u32, u64, u32),
            second_channel: bool,
            constraint: Option<Constraint>,
        }
        fn build(name: &str, spec: &Spec) -> Application {
            let [compute, memory, area, io] = spec.requires;
            let imp = Implementation::new(
                spec.target,
                ResourceVector::new(compute, memory, area, io),
                spec.exec_cycles,
                spec.energy,
            );
            let impls = if spec.second_impl { vec![imp, imp] } else { vec![imp] };
            let mut b = ApplicationBuilder::new(name);
            b.add_task(spec.task_names[0], spec.roles[0], impls);
            b.add_task(spec.task_names[1], spec.roles[1], vec![imp]);
            if spec.third_task {
                b.add_task("extra", TaskRole::Internal, vec![imp]);
            }
            let (src, dst, bandwidth, tokens) = spec.channel;
            b.add_channel(TaskId(src), TaskId(dst), bandwidth, tokens);
            if spec.second_channel {
                b.add_channel(TaskId(src), TaskId(dst), bandwidth, tokens);
            }
            if let Some(constraint) = spec.constraint {
                b.add_constraint(constraint);
            }
            b.build().unwrap()
        }
        let base = Spec {
            task_names: ["in", "out"],
            roles: [TaskRole::Input, TaskRole::Output],
            target: ElementKind::Dsp,
            requires: [500, 16, 2, 1],
            exec_cycles: 100,
            energy: 5,
            second_impl: false,
            third_task: false,
            channel: (0, 1, 120, 1),
            second_channel: false,
            constraint: Some(Constraint::Latency { max_latency_cycles: 900, pipeline_depth: 2 }),
        };
        let shape = build("a", &base).shape_hash();
        assert_eq!(build("b", &base).shape_hash(), shape, "the name is not part of the shape");

        type Edit = (&'static str, fn(&mut Spec));
        let edits: [Edit; 19] = [
            ("task name", |s| s.task_names[0] = "inn"),
            ("task role", |s| s.roles[1] = TaskRole::Internal),
            ("implementation count", |s| s.second_impl = true),
            ("target kind", |s| s.target = ElementKind::Arm),
            ("compute demand", |s| s.requires[0] += 1),
            ("memory demand", |s| s.requires[1] += 1),
            ("area demand", |s| s.requires[2] += 1),
            ("io demand", |s| s.requires[3] += 1),
            ("execution time", |s| s.exec_cycles += 1),
            ("energy", |s| s.energy += 1),
            ("task count", |s| s.third_task = true),
            ("channel direction", |s| s.channel = (1, 0, 120, 1)),
            ("channel bandwidth", |s| s.channel.2 += 1),
            ("tokens per firing", |s| s.channel.3 += 1),
            ("channel count", |s| s.second_channel = true),
            ("constraint presence", |s| s.constraint = None),
            ("constraint kind", |s| {
                s.constraint = Some(Constraint::Throughput { max_period_cycles: 900 })
            }),
            ("latency bound", |s| {
                s.constraint =
                    Some(Constraint::Latency { max_latency_cycles: 901, pipeline_depth: 2 })
            }),
            ("pipeline depth", |s| {
                s.constraint =
                    Some(Constraint::Latency { max_latency_cycles: 900, pipeline_depth: 3 })
            }),
        ];
        let mut seen = vec![shape];
        for (field, edit) in edits {
            let mut spec = base.clone();
            edit(&mut spec);
            let edited = build("a", &spec).shape_hash();
            assert!(!seen.contains(&edited), "{field} does not reach the shape hash");
            seen.push(edited);
        }
    }

    #[test]
    fn constraints_are_kept() {
        let mut b = ApplicationBuilder::new("x");
        b.add_task("a", TaskRole::Input, vec![imp()]);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 100 });
        let app = b.build().unwrap();
        assert_eq!(app.constraints().len(), 1);
    }
}
