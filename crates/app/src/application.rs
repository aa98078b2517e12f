//! Applications — annotated task graphs `A = <T, C>` with constraints.

use std::collections::VecDeque;
use std::fmt;

use kairos_platform::Digest;
use serde::{Deserialize, Serialize};

use crate::channel::{Channel, ChannelId};
use crate::constraints::Constraint;
use crate::implementation::Implementation;
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
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
            out_adj[c.src().index()].push((c.dst(), c.id()));
            in_adj[c.dst().index()].push((c.src(), c.id()));
        }
        let shape = shape_hash(&tasks, &channels, &constraints);
        Ok(Application { name, tasks, channels, constraints, out_adj, in_adj, shape })
    }

    /// The application's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A 128-bit structural hash of everything an admission pipeline reads
    /// — tasks with their names, roles and implementations, channels,
    /// constraints — *except* the application's name, which it never
    /// reads: two instances of one shape under different names hash
    /// equal. An application is immutable once built, so the hash is
    /// computed there, once, and this is a field read.
    pub fn shape_hash(&self) -> u128 {
        self.shape
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterates over all tasks.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Iterates over all task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter()
    }

    /// The performance constraints of this application.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Outgoing `(consumer, channel)` pairs of `t`.
    pub fn consumers(&self, t: TaskId) -> &[(TaskId, ChannelId)] {
        &self.out_adj[t.index()]
    }

    /// Incoming `(producer, channel)` pairs of `t`.
    pub fn producers(&self, t: TaskId) -> &[(TaskId, ChannelId)] {
        &self.in_adj[t.index()]
    }

    /// All channels incident to `t`, in both directions.
    pub fn incident_channels(&self, t: TaskId) -> Vec<ChannelId> {
        let mut out: Vec<ChannelId> = self.out_adj[t.index()]
            .iter()
            .map(|&(_, c)| c)
            .chain(self.in_adj[t.index()].iter().map(|&(_, c)| c))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distinct communication peers of `t`, ignoring direction.
    pub fn peers(&self, t: TaskId) -> Vec<TaskId> {
        let mut out: Vec<TaskId> = self.out_adj[t.index()]
            .iter()
            .map(|&(p, _)| p)
            .chain(self.in_adj[t.index()].iter().map(|&(p, _)| p))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The undirected degree `d(t)`: number of distinct peers.
    pub fn degree(&self, t: TaskId) -> usize {
        self.peers(t).len()
    }

    /// Tasks of minimum degree `δ(T)` — the starting-point candidates of the
    /// mapping heuristic when no task is pinned.
    pub fn min_degree_tasks(&self) -> Vec<TaskId> {
        let min = self.task_ids().map(|t| self.degree(t)).min().unwrap_or(0);
        self.task_ids().filter(|&t| self.degree(t) == min).collect()
    }

    /// Undirected BFS rings from a seed set: element `i` of the result is the
    /// set of tasks at graph distance exactly `i` from the nearest seed
    /// (ring 0 is the seeds themselves). Tasks unreachable from any seed are
    /// appended as one extra trailing ring so that no task is ever lost.
    ///
    /// This realises the paper's sub-problem decomposition: "group the tasks
    /// in sets with equal distance to the origin task(s)".
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn neighborhood_rings(&self, seeds: &[TaskId]) -> Vec<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut dist: Vec<Option<u32>> = vec![None; n];
        let mut queue = VecDeque::new();
        for &s in seeds {
            assert!(s.index() < n, "seed task {s} out of range");
            if dist[s.index()].is_none() {
                dist[s.index()] = Some(0);
                queue.push_back(s);
            }
        }
        while let Some(t) = queue.pop_front() {
            let d = dist[t.index()].expect("queued tasks have distances");
            for p in self.peers(t) {
                if dist[p.index()].is_none() {
                    dist[p.index()] = Some(d + 1);
                    queue.push_back(p);
                }
            }
        }
        let max_d = dist.iter().flatten().copied().max().unwrap_or(0);
        let mut rings: Vec<Vec<TaskId>> = vec![Vec::new(); (max_d + 1) as usize];
        let mut unreachable = Vec::new();
        for t in self.task_ids() {
            match dist[t.index()] {
                Some(d) => rings[d as usize].push(t),
                None => unreachable.push(t),
            }
        }
        if !unreachable.is_empty() {
            rings.push(unreachable);
        }
        rings
    }

    /// `true` when the task graph is connected (ignoring direction).
    pub fn is_connected(&self) -> bool {
        let mut visited = vec![false; self.tasks.len()];
        let mut stack = vec![TaskId(0)];
        let mut seen = 0;
        visited[0] = true;
        while let Some(t) = stack.pop() {
            seen += 1;
            for p in self.peers(t) {
                if !visited[p.index()] {
                    visited[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        seen == self.tasks.len()
    }

    /// Sum of bandwidth over all channels — a crude communication weight.
    pub fn total_bandwidth(&self) -> u64 {
        self.channels.iter().map(|c| c.bandwidth()).sum()
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "application '{}': {} tasks, {} channels",
            self.name,
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
        assert_eq!(app.peers(TaskId(1)), vec![TaskId(0), TaskId(3)]);
        assert_eq!(app.incident_channels(TaskId(3)), vec![ChannelId(2), ChannelId(3)]);
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
        assert_eq!(app.min_degree_tasks(), vec![t0, t2]);
    }

    #[test]
    fn neighborhood_rings_group_by_distance() {
        let app = diamond();
        let rings = app.neighborhood_rings(&[TaskId(0)]);
        assert_eq!(rings.len(), 3);
        assert_eq!(rings[0], vec![TaskId(0)]);
        assert_eq!(rings[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(rings[2], vec![TaskId(3)]);
    }

    #[test]
    fn neighborhood_rings_multiple_seeds() {
        let app = diamond();
        let rings = app.neighborhood_rings(&[TaskId(0), TaskId(3)]);
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
        let rings = app.neighborhood_rings(&[t0]);
        assert_eq!(rings.last().unwrap(), &vec![t2]);
        assert!(!app.is_connected());
        assert_eq!(rings.iter().map(Vec::len).sum::<usize>(), 3);
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
        assert_eq!(app.total_bandwidth(), 0);
    }
}
