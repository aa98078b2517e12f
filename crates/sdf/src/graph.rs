//! Synchronous dataflow (SDF) graphs.
//!
//! The validation phase of the paper models "the influence of the platform
//! and the application specification" as an SDF graph and analyses its
//! throughput by state-space exploration (Stuijk et al. [5], Ghamarian et
//! al. [13]). This module provides the graph representation; see
//! [`crate::analysis`] for repetition vectors and [`crate::statespace`] for
//! the self-timed throughput analysis itself.

use std::fmt;

/// Identifier of an actor within one [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// The dense index of this actor.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifier of a channel within one [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SdfChannelId(pub u32);

impl SdfChannelId {
    /// The dense index of this channel.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SdfChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sc{}", self.0)
    }
}

/// An SDF actor: fires atomically, taking `exec_time` time units per firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Actor {
    id: ActorId,
    name: String,
    exec_time: u64,
}

impl Actor {
    /// This actor's identifier.
    #[inline]
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// Human-readable name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution time per firing, in abstract cycles.
    #[inline]
    pub fn exec_time(&self) -> u64 {
        self.exec_time
    }
}

/// An SDF channel with fixed production/consumption rates and initial tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdfChannel {
    id: SdfChannelId,
    src: ActorId,
    dst: ActorId,
    produce: u32,
    consume: u32,
    initial_tokens: u32,
}

impl SdfChannel {
    /// This channel's identifier.
    #[inline]
    pub fn id(&self) -> SdfChannelId {
        self.id
    }

    /// Producing actor.
    #[inline]
    pub fn src(&self) -> ActorId {
        self.src
    }

    /// Consuming actor.
    #[inline]
    pub fn dst(&self) -> ActorId {
        self.dst
    }

    /// Tokens produced per `src` firing.
    #[inline]
    pub fn produce(&self) -> u32 {
        self.produce
    }

    /// Tokens consumed per `dst` firing.
    #[inline]
    pub fn consume(&self) -> u32 {
        self.consume
    }

    /// Tokens present before the first firing.
    #[inline]
    pub fn initial_tokens(&self) -> u32 {
        self.initial_tokens
    }
}

/// Errors raised while building an SDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdfGraphError {
    /// A channel references an actor id that does not exist.
    UnknownActor(ActorId),
    /// A channel has a zero production or consumption rate.
    ZeroRate(SdfChannelId),
    /// The graph has no actors.
    Empty,
}

impl fmt::Display for SdfGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfGraphError::UnknownActor(a) => write!(f, "channel references unknown actor {a}"),
            SdfGraphError::ZeroRate(c) => write!(f, "channel {c} has a zero rate"),
            SdfGraphError::Empty => f.write_str("SDF graph has no actors"),
        }
    }
}

impl std::error::Error for SdfGraphError {}

/// A synchronous dataflow graph.
///
/// # Examples
///
/// ```
/// use kairos_sdf::SdfGraphBuilder;
///
/// let mut b = SdfGraphBuilder::new("pair");
/// let p = b.add_actor("producer", 10);
/// let c = b.add_actor("consumer", 20);
/// b.add_channel(p, c, 2, 1, 0); // p produces 2, c consumes 1
/// let g = b.build()?;
/// assert_eq!(g.actor_count(), 2);
/// # Ok::<(), kairos_sdf::SdfGraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SdfGraph {
    name: String,
    actors: Vec<Actor>,
    channels: Vec<SdfChannel>,
    /// Channels whose consumer is the given actor.
    inputs: Vec<Vec<SdfChannelId>>,
    /// Channels whose producer is the given actor.
    outputs: Vec<Vec<SdfChannelId>>,
}

impl SdfGraph {
    fn from_parts(
        name: String,
        actors: Vec<Actor>,
        channels: Vec<SdfChannel>,
    ) -> Result<Self, SdfGraphError> {
        if actors.is_empty() {
            return Err(SdfGraphError::Empty);
        }
        let n = actors.len();
        let mut inputs = vec![Vec::new(); n];
        let mut outputs = vec![Vec::new(); n];
        for c in &channels {
            if c.src().index() >= n {
                return Err(SdfGraphError::UnknownActor(c.src()));
            }
            if c.dst().index() >= n {
                return Err(SdfGraphError::UnknownActor(c.dst()));
            }
            if c.produce() == 0 || c.consume() == 0 {
                return Err(SdfGraphError::ZeroRate(c.id()));
            }
            outputs[c.src().index()].push(c.id());
            inputs[c.dst().index()].push(c.id());
        }
        Ok(SdfGraph { name, actors, channels, inputs, outputs })
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The actor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.index()]
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: SdfChannelId) -> &SdfChannel {
        &self.channels[id.index()]
    }

    /// Iterates over all actors.
    pub fn actors(&self) -> impl Iterator<Item = &Actor> {
        self.actors.iter()
    }

    /// Iterates over all actor ids.
    pub fn actor_ids(&self) -> impl Iterator<Item = ActorId> {
        (0..self.actors.len() as u32).map(ActorId)
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &SdfChannel> {
        self.channels.iter()
    }

    /// Channels consumed by actor `a`.
    pub fn input_channels(&self, a: ActorId) -> &[SdfChannelId] {
        &self.inputs[a.index()]
    }

    /// Channels produced by actor `a`.
    pub fn output_channels(&self, a: ActorId) -> &[SdfChannelId] {
        &self.outputs[a.index()]
    }

    /// Returns a copy of this graph with every channel mirrored by a
    /// reverse channel carrying `buffer_tokens` initial tokens — the
    /// standard back-edge encoding of bounded channel buffers, which makes
    /// the self-timed state space finite.
    ///
    /// The reverse channel of `src -p/c-> dst` is `dst -c/p-> src` with
    /// `buffer_tokens` initial tokens: a producer firing then needs `p`
    /// "free slots" before it may fire.
    pub fn with_bounded_buffers(&self, buffer_tokens: u32) -> SdfGraph {
        let mut b = SdfGraphBuilder::new(format!("{}+buffers", self.name));
        for a in &self.actors {
            b.add_actor(a.name().to_owned(), a.exec_time());
        }
        for c in &self.channels {
            b.add_channel(c.src(), c.dst(), c.produce(), c.consume(), c.initial_tokens());
            b.add_channel(c.dst(), c.src(), c.consume(), c.produce(), buffer_tokens);
        }
        b.build().expect("mirroring a valid graph cannot fail")
    }
}

impl fmt::Display for SdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sdf '{}': {} actors, {} channels",
            self.name,
            self.actor_count(),
            self.channel_count()
        )
    }
}

/// Builder for [`SdfGraph`] values.
#[derive(Debug, Clone)]
pub struct SdfGraphBuilder {
    name: String,
    actors: Vec<Actor>,
    channels: Vec<SdfChannel>,
}

impl SdfGraphBuilder {
    /// Creates an empty builder for a graph called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SdfGraphBuilder { name: name.into(), actors: Vec::new(), channels: Vec::new() }
    }

    /// Adds an actor with the given execution time.
    pub fn add_actor(&mut self, name: impl Into<String>, exec_time: u64) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Actor { id, name: name.into(), exec_time });
        id
    }

    /// Adds a channel `src -> dst` producing `produce` and consuming
    /// `consume` tokens, with `initial_tokens` present at start.
    pub fn add_channel(
        &mut self,
        src: ActorId,
        dst: ActorId,
        produce: u32,
        consume: u32,
        initial_tokens: u32,
    ) -> SdfChannelId {
        let id = SdfChannelId(self.channels.len() as u32);
        self.channels.push(SdfChannel { id, src, dst, produce, consume, initial_tokens });
        id
    }

    /// Number of actors added so far.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Finalises and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns an [`SdfGraphError`] for empty graphs, dangling channels or
    /// zero rates.
    pub fn build(self) -> Result<SdfGraph, SdfGraphError> {
        SdfGraph::from_parts(self.name, self.actors, self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 5);
        let c = b.add_actor("c", 7);
        let ch = b.add_channel(a, c, 2, 3, 1);
        assert_eq!(b.actor_count(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.actor(a).exec_time(), 5);
        assert_eq!(g.channel(ch).produce(), 2);
        assert_eq!(g.channel(ch).consume(), 3);
        assert_eq!(g.channel(ch).initial_tokens(), 1);
        assert_eq!(g.output_channels(a), &[ch]);
        assert_eq!(g.input_channels(c), &[ch]);
        assert!(g.input_channels(a).is_empty());
    }

    #[test]
    fn build_rejects_empty() {
        assert_eq!(SdfGraphBuilder::new("e").build().unwrap_err(), SdfGraphError::Empty);
    }

    #[test]
    fn build_rejects_dangling() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        b.add_channel(a, ActorId(4), 1, 1, 0);
        assert_eq!(b.build().unwrap_err(), SdfGraphError::UnknownActor(ActorId(4)));
    }

    #[test]
    fn build_rejects_zero_rates() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel(a, c, 0, 1, 0);
        assert_eq!(b.build().unwrap_err(), SdfGraphError::ZeroRate(SdfChannelId(0)));
    }

    #[test]
    fn self_loops_are_allowed() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        b.add_channel(a, a, 1, 1, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn bounded_buffers_mirror_channels() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel(a, c, 2, 3, 1);
        let g = b.build().unwrap().with_bounded_buffers(6);
        assert_eq!(g.channel_count(), 2);
        let back = g.channel(SdfChannelId(1));
        assert_eq!(back.src(), c);
        assert_eq!(back.dst(), a);
        assert_eq!(back.produce(), 3);
        assert_eq!(back.consume(), 2);
        assert_eq!(back.initial_tokens(), 6);
    }

    #[test]
    fn display_is_informative() {
        let mut b = SdfGraphBuilder::new("demo");
        b.add_actor("a", 1);
        let g = b.build().unwrap();
        assert!(g.to_string().contains("demo"));
        assert_eq!(ActorId(2).to_string(), "a2");
        assert_eq!(SdfChannelId(3).to_string(), "sc3");
    }
}
