//! The deterministic priority admission queue.
//!
//! [`AdmissionQueue`] is a pure data structure: four priority classes, FIFO
//! order within each class, and a hard per-class capacity that implements
//! backpressure — a full class refuses new requests instead of growing
//! without bound. All iteration is in *drain order* (priority class
//! ascending, then submission order), so every consumer observes the same
//! deterministic sequence.

use std::collections::VecDeque;
use std::fmt;

use kairos_app::Application;
use kairos_platform::AppId;
use kairos_telemetry::TraceContext;

/// Priority class of an admission request; lower classes drain first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Safety- or deadline-critical requests, drained before everything.
    Critical,
    /// Latency-sensitive interactive requests.
    High,
    /// The default class for ordinary workloads.
    Normal,
    /// Batch / best-effort requests, drained last.
    Low,
}

impl PriorityClass {
    /// All classes, highest priority first (drain order).
    pub const ALL: [PriorityClass; 4] =
        [PriorityClass::Critical, PriorityClass::High, PriorityClass::Normal, PriorityClass::Low];

    /// Dense index of the class, `0` = highest priority.
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Critical => 0,
            PriorityClass::High => 1,
            PriorityClass::Normal => 2,
            PriorityClass::Low => 3,
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityClass::Critical => f.write_str("critical"),
            PriorityClass::High => f.write_str("high"),
            PriorityClass::Normal => f.write_str("normal"),
            PriorityClass::Low => f.write_str("low"),
        }
    }
}

/// Identity of one request, unique across the whole service stack for its
/// lifetime — the one ticket type of the workspace.
///
/// One rule governs it: the *outermost* layer that sees a request without
/// a ticket mints one from its own counter, and every layer below carries
/// that value verbatim. The only tickets born *inside* the stack are
/// preemption requeues, and those are derived from the evicted victim
/// ([`Ticket::requeue_of`]) instead of minted — so no layer keeps a
/// translation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

impl Ticket {
    /// Tag bit of the requeue range: minted request tickets count up from
    /// zero and never reach it.
    const REQUEUE_TAG: u64 = 1 << 63;

    /// The ticket an evicted `victim` re-enters the queue under. Stateless
    /// and collision-free: application ids are unique across a cluster
    /// (each shard numbers from its own base) and an id is evicted at most
    /// once — a re-admitted victim runs under a fresh id.
    pub fn requeue_of(victim: AppId) -> Ticket {
        Ticket(Self::REQUEUE_TAG | u64::from(victim.0))
    }

    /// The ticket a request runs under at a layer whose mint stands at
    /// `next`: the `stamped` one verbatim when an outer layer already
    /// minted it, a fresh one otherwise. Either way the mint moves past
    /// the value, so a layer never later issues a ticket it has honoured.
    /// Stamped tickets must lie below the requeue range.
    pub fn resolve(stamped: Option<Ticket>, next: &mut u64) -> Ticket {
        let ticket = stamped.unwrap_or(Ticket(*next));
        *next = (*next).max(ticket.0.saturating_add(1));
        ticket
    }
}

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 & Self::REQUEUE_TAG {
            0 => write!(f, "req{}", self.0),
            _ => write!(f, "requeue-of-app{}", self.0 & !Self::REQUEUE_TAG),
        }
    }
}

/// A request waiting in the queue.
#[derive(Debug, Clone)]
pub(crate) struct QueuedRequest {
    /// The request's identity.
    pub ticket: Ticket,
    /// The application awaiting admission.
    pub app: Application,
    /// Its priority class.
    pub class: PriorityClass,
    /// Virtual time the request was submitted.
    pub submitted_at: u64,
    /// Virtual time after which the request is dropped as timed out.
    pub deadline: Option<u64>,
    /// Failed admission attempts so far.
    pub attempts: u32,
    /// Capacity-event number this request becomes eligible again at after
    /// a failed attempt (deterministic backoff); eligible when the
    /// front-end's event counter reaches it.
    pub eligible_at_event: u64,
    /// Queue wait accumulated by *earlier* lives of this request: a
    /// preempted-and-requeued application carries the wait of its original
    /// admission here, so every reported wait is cumulative across
    /// requeues (`prior_wait + now - submitted_at`), never reset by a
    /// preemption and never double-counting time spent running.
    pub prior_wait: u64,
    /// Relocations already performed on behalf of this request; bounds
    /// preemption to one applied relocation per request lifetime.
    pub preempt_attempts: u32,
    /// The request trace this submission belongs to
    /// ([`TraceContext::NONE`] when tracing is off). Rides through queue
    /// residency so the terminal event can record the queue span and
    /// close the trace root.
    pub trace: TraceContext,
}

impl QueuedRequest {
    /// The request's cumulative queue wait as of `now`: time queued in
    /// this life plus [`QueuedRequest::prior_wait`] from lives before a
    /// preemption. `saturating_sub` keeps the value well-defined for
    /// callers with non-monotone clocks.
    pub(crate) fn waited(&self, now: u64) -> u64 {
        self.prior_wait.saturating_add(now.saturating_sub(self.submitted_at))
    }

    /// Whether the request has waited past its deadline by `now`.
    pub(crate) fn is_overdue(&self, now: u64) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Bounded priority-then-FIFO queue of admission requests.
#[derive(Debug, Clone, Default)]
pub struct AdmissionQueue {
    classes: [VecDeque<QueuedRequest>; 4],
    capacity: [usize; 4],
}

impl AdmissionQueue {
    /// An empty queue with the given per-class capacities. A capacity of
    /// `0` disables a class entirely (every submission is refused).
    pub fn with_capacity(capacity: [usize; 4]) -> Self {
        AdmissionQueue { classes: Default::default(), capacity }
    }

    /// Total queued requests across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// Queued requests per class, in drain order.
    pub fn depths(&self) -> [usize; 4] {
        [self.classes[0].len(), self.classes[1].len(), self.classes[2].len(), self.classes[3].len()]
    }

    /// `true` when `class` cannot accept another request.
    pub fn is_full(&self, class: PriorityClass) -> bool {
        self.classes[class.index()].len() >= self.capacity[class.index()]
    }

    /// Appends a request to the back of its class.
    ///
    /// # Panics
    ///
    /// Panics when the class is full — callers must check [`Self::is_full`]
    /// first (the front-end turns fullness into an explicit rejection).
    pub(crate) fn push(&mut self, request: QueuedRequest) {
        assert!(!self.is_full(request.class), "push into a full class; check is_full first");
        self.classes[request.class.index()].push_back(request);
    }

    /// The queued request at `(class, position)`, in drain order.
    pub(crate) fn get(&self, class: usize, position: usize) -> Option<&QueuedRequest> {
        self.classes[class].get(position)
    }

    pub(crate) fn get_mut(&mut self, class: usize, position: usize) -> Option<&mut QueuedRequest> {
        self.classes[class].get_mut(position)
    }

    /// Removes and returns the request at `(class, position)`, if any.
    pub(crate) fn remove(&mut self, class: usize, position: usize) -> Option<QueuedRequest> {
        self.classes[class].remove(position)
    }

    /// Tickets currently queued, in drain order.
    pub fn tickets(&self) -> Vec<Ticket> {
        self.classes.iter().flat_map(|c| c.iter().map(|r| r.ticket)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{ElementKind, ResourceVector};

    fn tiny_app(name: &str) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(10, 1, 0, 0), 10, 1);
        let mut b = ApplicationBuilder::new(name);
        b.add_task("t", TaskRole::Internal, vec![imp]);
        b.build().unwrap()
    }

    fn request(ticket: u64, class: PriorityClass) -> QueuedRequest {
        QueuedRequest {
            ticket: Ticket(ticket),
            app: tiny_app("a"),
            class,
            submitted_at: 0,
            deadline: None,
            attempts: 0,
            eligible_at_event: 0,
            prior_wait: 0,
            preempt_attempts: 0,
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn stamped_tickets_pass_verbatim_and_requeues_sit_above_every_mint() {
        let mut next = 0;
        assert_eq!(Ticket::resolve(None, &mut next), Ticket(0));
        assert_eq!(Ticket::resolve(Some(Ticket(9)), &mut next), Ticket(9));
        assert_eq!(Ticket::resolve(Some(Ticket(3)), &mut next), Ticket(3));
        assert_eq!(Ticket::resolve(None, &mut next), Ticket(10));
        let requeue = Ticket::requeue_of(AppId(7));
        assert!(requeue > Ticket(u64::MAX >> 1));
        assert_ne!(requeue, Ticket::requeue_of(AppId(8)));
        assert_eq!(
            (Ticket(10).to_string(), requeue.to_string()),
            ("req10".into(), "requeue-of-app7".into())
        );
    }

    #[test]
    fn classes_order_highest_priority_first() {
        assert_eq!(PriorityClass::ALL.map(PriorityClass::index), [0, 1, 2, 3]);
        assert!(PriorityClass::Critical < PriorityClass::Low);
        assert_eq!(PriorityClass::High.to_string(), "high");
    }

    #[test]
    fn drain_order_is_priority_then_fifo() {
        let mut q = AdmissionQueue::with_capacity([4, 4, 4, 4]);
        q.push(request(0, PriorityClass::Low));
        q.push(request(1, PriorityClass::Normal));
        q.push(request(2, PriorityClass::Critical));
        q.push(request(3, PriorityClass::Normal));
        q.push(request(4, PriorityClass::Critical));
        let order: Vec<u64> = q.tickets().iter().map(|t| t.0).collect();
        assert_eq!(order, vec![2, 4, 1, 3, 0]);
        assert_eq!(q.len(), 5);
        assert_eq!(q.depths(), [2, 0, 2, 1]);
    }

    #[test]
    fn capacity_bounds_each_class() {
        let mut q = AdmissionQueue::with_capacity([1, 0, 2, 2]);
        assert!(!q.is_full(PriorityClass::Critical));
        q.push(request(0, PriorityClass::Critical));
        assert!(q.is_full(PriorityClass::Critical));
        assert!(q.is_full(PriorityClass::High), "zero capacity means always full");
        q.push(request(1, PriorityClass::Normal));
        q.push(request(2, PriorityClass::Normal));
        assert!(q.is_full(PriorityClass::Normal));
        assert!(!q.is_full(PriorityClass::Low));
    }

    #[test]
    #[should_panic(expected = "full class")]
    fn pushing_into_a_full_class_panics() {
        let mut q = AdmissionQueue::with_capacity([0, 0, 0, 0]);
        q.push(request(0, PriorityClass::Low));
    }
}
