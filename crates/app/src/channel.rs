//! Communication channels — the edges `C` of an application graph.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::task::TaskId;

/// Identifier of a channel within one [`Application`](crate::Application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The dense index of this channel.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A directed streaming channel between two tasks.
///
/// The `bandwidth` is reserved (together with one virtual channel) on every
/// NoC link of the channel's route; `tokens_per_firing` feeds the SDF model
/// used by the validation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Channel {
    id: ChannelId,
    src: TaskId,
    dst: TaskId,
    bandwidth: u64,
    tokens_per_firing: u32,
}

impl Channel {
    pub(crate) fn new(
        id: ChannelId,
        src: TaskId,
        dst: TaskId,
        bandwidth: u64,
        tokens_per_firing: u32,
    ) -> Self {
        Channel { id, src, dst, bandwidth, tokens_per_firing }
    }

    /// This channel's identifier.
    #[inline]
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// Producing task.
    #[inline]
    pub fn src(&self) -> TaskId {
        self.src
    }

    /// Consuming task.
    #[inline]
    pub fn dst(&self) -> TaskId {
        self.dst
    }

    /// Bandwidth reserved on every link of the route.
    #[inline]
    pub fn bandwidth(&self) -> u64 {
        self.bandwidth
    }

    /// Tokens transported per producer firing (SDF rate).
    #[inline]
    pub fn tokens_per_firing(&self) -> u32 {
        self.tokens_per_firing
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {} (bw {})", self.id, self.src, self.dst, self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = Channel::new(ChannelId(1), TaskId(0), TaskId(2), 150, 1);
        assert_eq!(c.id(), ChannelId(1));
        assert_eq!(c.src(), TaskId(0));
        assert_eq!(c.dst(), TaskId(2));
        assert_eq!(c.bandwidth(), 150);
        assert_eq!(c.tokens_per_firing(), 1);
    }

    #[test]
    fn display_mentions_endpoints() {
        let c = Channel::new(ChannelId(0), TaskId(3), TaskId(4), 99, 2);
        let s = c.to_string();
        assert!(s.contains("t3") && s.contains("t4") && s.contains("99"));
        assert_eq!(ChannelId(8).index(), 8);
    }
}
