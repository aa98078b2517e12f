//! Execution layouts — the output of a successful allocation attempt.
//!
//! "As a result of these phases, an execution layout defines what specific
//! resources are allocated to each task and communication channel in the
//! application" (§I-A). The layout is everything the bootstrapping phase
//! needs to configure the hardware.

use std::fmt;

use serde::{Deserialize, Serialize};

use kairos_app::{Application, ChannelId, ImplId, Implementation, TaskId};
use kairos_platform::{ElementId, LinkId};

/// The binding-phase result: one implementation choice per task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    choices: Vec<ImplId>,
}

impl Binding {
    /// Creates a binding from per-task implementation choices, indexed by
    /// task id.
    pub fn new(choices: Vec<ImplId>) -> Self {
        Binding { choices }
    }

    /// The chosen implementation id for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn choice(&self, task: TaskId) -> ImplId {
        self.choices[task.index()]
    }

    /// Resolves the chosen [`Implementation`] of `task` within `app`.
    ///
    /// # Panics
    ///
    /// Panics if `task` or the stored choice is out of range for `app`.
    pub fn implementation<'a>(&self, app: &'a Application, task: TaskId) -> &'a Implementation {
        &app.task(task).implementations()[self.choice(task).index()]
    }

    /// Number of bound tasks.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// `true` when no tasks are bound.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Iterates over `(task, choice)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, ImplId)> + '_ {
        self.choices.iter().enumerate().map(|(i, &c)| (TaskId(i as u32), c))
    }
}

/// The mapping-phase result: one element per task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    elements: Vec<ElementId>,
}

impl Placement {
    /// Creates a placement from per-task elements, indexed by task id.
    pub fn new(elements: Vec<ElementId>) -> Self {
        Placement { elements }
    }

    /// The element hosting `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn element(&self, task: TaskId) -> ElementId {
        self.elements[task.index()]
    }

    /// Number of placed tasks.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` when no tasks are placed.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Iterates over `(task, element)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, ElementId)> + '_ {
        self.elements.iter().enumerate().map(|(i, &e)| (TaskId(i as u32), e))
    }
}

/// The routing-phase result for one channel: the ordered links of its route.
///
/// An empty link list means producer and consumer share an element and
/// communicate through local memory (zero hops).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    channel: ChannelId,
    links: Vec<LinkId>,
}

impl Route {
    /// Creates a route for `channel` over `links` (in traversal order).
    pub fn new(channel: ChannelId, links: Vec<LinkId>) -> Self {
        Route { channel, links }
    }

    /// The routed channel.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// The links of the route, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of hops (links) of the route.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// `true` when producer and consumer share an element.
    pub fn is_local(&self) -> bool {
        self.links.is_empty()
    }
}

/// A complete execution layout: binding, placement and routes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionLayout {
    /// Implementation choice per task.
    pub binding: Binding,
    /// Element per task.
    pub placement: Placement,
    /// Route per channel, indexed by channel id.
    pub routes: Vec<Route>,
}

impl ExecutionLayout {
    /// Total hops over all routes.
    pub fn total_hops(&self) -> usize {
        self.routes.iter().map(Route::hops).sum()
    }

    /// Mean hops per channel, 0.0 for channel-free applications.
    pub fn avg_hops(&self) -> f64 {
        if self.routes.is_empty() {
            0.0
        } else {
            self.total_hops() as f64 / self.routes.len() as f64
        }
    }

    /// Number of distinct elements in use by this layout.
    pub fn elements_used(&self) -> usize {
        let mut els: Vec<ElementId> = self.placement.iter().map(|(_, e)| e).collect();
        els.sort_unstable();
        els.dedup();
        els.len()
    }
}

impl fmt::Display for ExecutionLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout: {} tasks on {} elements, {} routes ({} hops)",
            self.placement.len(),
            self.elements_used(),
            self.routes.len(),
            self.total_hops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_lookup() {
        let b = Binding::new(vec![ImplId(0), ImplId(2)]);
        assert_eq!(b.choice(TaskId(1)), ImplId(2));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs, vec![(TaskId(0), ImplId(0)), (TaskId(1), ImplId(2))]);
    }

    #[test]
    fn placement_queries() {
        let p = Placement::new(vec![ElementId(5), ElementId(5), ElementId(7)]);
        assert_eq!(p.element(TaskId(2)), ElementId(7));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn route_hops() {
        let local = Route::new(ChannelId(0), vec![]);
        assert!(local.is_local());
        assert_eq!(local.hops(), 0);
        let remote = Route::new(ChannelId(1), vec![LinkId(0), LinkId(4)]);
        assert_eq!(remote.hops(), 2);
        assert_eq!(remote.links(), &[LinkId(0), LinkId(4)]);
        assert_eq!(remote.channel(), ChannelId(1));
    }

    #[test]
    fn layout_aggregates() {
        let layout = ExecutionLayout {
            binding: Binding::new(vec![ImplId(0), ImplId(0)]),
            placement: Placement::new(vec![ElementId(0), ElementId(1)]),
            routes: vec![
                Route::new(ChannelId(0), vec![LinkId(0)]),
                Route::new(ChannelId(1), vec![]),
            ],
        };
        assert_eq!(layout.total_hops(), 1);
        assert!((layout.avg_hops() - 0.5).abs() < 1e-12);
        assert_eq!(layout.elements_used(), 2);
        assert!(layout.to_string().contains("2 tasks"));
    }

    #[test]
    fn empty_layout_avg_hops_is_zero() {
        let layout = ExecutionLayout {
            binding: Binding::new(vec![]),
            placement: Placement::new(vec![]),
            routes: vec![],
        };
        assert_eq!(layout.avg_hops(), 0.0);
        assert!(layout.binding.is_empty() && layout.placement.is_empty());
    }
}
