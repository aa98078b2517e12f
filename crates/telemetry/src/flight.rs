//! The flight recorder: a bounded ring buffer of recent trace events.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

use crate::level::Level;

/// One recorded trace event: a span boundary or a point event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Recorder-local sequence number, gapless within one dump unless the
    /// ring wrapped (older events were overwritten).
    pub seq: u64,
    /// The event's severity.
    pub level: Level,
    /// The emitting subsystem (`kairos_core`, `kairos_admitd`, ...).
    pub target: String,
    /// The formatted message.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<4} {:5} {}: {}", self.seq, self.level, self.target, self.message)
    }
}

/// A bounded in-memory ring of the most recent [`TraceEvent`]s — cheap
/// enough to leave always-on, dumped after the fact when something went
/// wrong (an admission failure, a rollback, an aborted rebalance sweep).
///
/// Each recorder belongs to one shard (or the monolithic manager), so
/// the recorded order is that manager's deterministic operation order;
/// the mutex only guards the example-facing case of dumping while another
/// thread records.
#[derive(Debug)]
pub struct FlightRecorder {
    label: String,
    capacity: usize,
    ring: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    next_seq: u64,
    events: VecDeque<TraceEvent>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (at least one slot is
    /// always kept).
    pub fn new(label: &str, capacity: usize) -> Self {
        FlightRecorder {
            label: label.to_owned(),
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// The recorder's label (`main`, `shard0`, ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event, evicting the oldest once full.
    pub fn record(&self, level: Level, target: &str, message: String) {
        let mut ring = self.ring.lock().expect("flight recorder lock");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(TraceEvent { seq, level, target: target.to_owned(), message });
    }

    /// The retained events, oldest first. The ring keeps recording; a
    /// dump is a copy, not a drain.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.ring.lock().expect("flight recorder lock").events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight recorder lock").events.len()
    }

    /// Whether nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained events, keeping the sequence numbering.
    pub fn clear(&self) {
        self.ring.lock().expect("flight recorder lock").events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_the_most_recent_events() {
        let recorder = FlightRecorder::new("main", 3);
        for i in 0..5 {
            recorder.record(Level::INFO, "test", format!("event {i}"));
        }
        let dump = recorder.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].seq, 2, "oldest surviving event");
        assert_eq!(dump[2].message, "event 4");
        assert_eq!(recorder.capacity(), 3);
    }

    #[test]
    fn clear_keeps_sequencing() {
        let recorder = FlightRecorder::new("shard0", 8);
        recorder.record(Level::WARN, "test", "before".into());
        recorder.clear();
        assert!(recorder.is_empty());
        recorder.record(Level::WARN, "test", "after".into());
        assert_eq!(recorder.dump()[0].seq, 1, "sequence numbers keep counting across clears");
    }

    #[test]
    fn events_render_readably() {
        let recorder = FlightRecorder::new("main", 2);
        recorder.record(Level::ERROR, "kairos_core", "rollback of txn 7".into());
        let line = recorder.dump()[0].to_string();
        assert!(line.contains("ERROR"));
        assert!(line.contains("kairos_core: rollback of txn 7"));
    }
}
