//! [`Kairos::audit`]: the admission registry held against the platform it
//! describes. A second, naive implementation of what admission, release,
//! migration and fault handling maintain step by step — every expectation
//! is rebuilt from the admitted applications' layouts alone and compared
//! with the live records, so it shares no code with the writer it checks.

use std::fmt;

use kairos_platform::{AppId, AuditError, ElementId, LinkId, ResourceVector};

use super::Kairos;
use crate::error::ValidationError;
use crate::validation::validate;

/// The first record [`Kairos::audit`] found disagreeing with the admission
/// registry, in the order the audit checks them.
#[derive(Debug, Clone, PartialEq)]
pub enum KairosAuditError {
    /// The platform holds an occupant the admitted layouts do not account
    /// for: of no admitted application, off its task's placement, a second
    /// seat, or a claim other than its binding requires.
    Unaccounted {
        /// The element.
        element: ElementId,
        /// The occupant's application id.
        app: AppId,
        /// The occupant's task index.
        task: u32,
        /// What it claims.
        claimed: ResourceVector,
    },
    /// An admitted task's seat — on the element its placement names,
    /// claiming what its binding requires — is not on the platform.
    Missing {
        /// The element.
        element: ElementId,
        /// The application.
        app: AppId,
        /// The task index.
        task: u32,
        /// What the binding requires.
        claimed: ResourceVector,
    },
    /// The link's free bandwidth and virtual channels plus what the
    /// admitted routes over it reserve are not its capacity.
    Link {
        /// The link.
        link: LinkId,
        /// Its free `(bandwidth, virtual channels)`.
        free: (u64, u16),
        /// The admitted routes' `(bandwidth, count)` over it.
        routed: (u64, u16),
    },
    /// An occupant sits on a failed element.
    Failed {
        /// The element.
        element: ElementId,
        /// The occupant's application id.
        app: AppId,
    },
    /// An admitted layout no longer meets its application's constraints
    /// (checked when `KairosConfig::validate` is set).
    Invalid {
        /// The application.
        app: AppId,
        /// What validation reports now.
        error: ValidationError,
    },
    /// The platform ledger fails its own [`kairos_platform::Platform::audit`].
    Platform(AuditError),
    /// The kept probe decision was read at a state epoch the platform has
    /// not reached.
    ProbeAhead {
        /// The epoch the decision was kept under.
        kept: u64,
        /// The platform's state epoch.
        platform: u64,
    },
}

impl fmt::Display for KairosAuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KairosAuditError::Unaccounted { element, app, task, claimed } => {
                write!(f, "element {element}: {app} task {task} claims {claimed} unaccounted for")
            }
            KairosAuditError::Missing { element, app, task, claimed } => {
                write!(f, "element {element}: {app} task {task} should claim {claimed}, is absent")
            }
            KairosAuditError::Link { link, free, routed } => {
                write!(f, "link {link}: {free:?} free and {routed:?} routed are not its capacity")
            }
            KairosAuditError::Failed { element, app } => {
                write!(f, "element {element} is failed but still hosts {app}")
            }
            KairosAuditError::Invalid { app, error } => {
                write!(f, "{app} no longer validates: {error}")
            }
            KairosAuditError::Platform(error) => write!(f, "platform: {error}"),
            KairosAuditError::ProbeAhead { kept, platform } => {
                write!(f, "probe decision kept at epoch {kept}, ahead of the platform's {platform}")
            }
        }
    }
}

impl std::error::Error for KairosAuditError {}

/// One occupant as `(element, app, task, claimed)`.
type Seat = (ElementId, AppId, u32, ResourceVector);

impl Kairos {
    /// Checks the admission registry against the platform, naively, and
    /// names the first record that disagrees: the platform's occupants are
    /// exactly the admitted tasks, each on the element its placement names,
    /// claiming what its binding requires; every link's occupancy is the
    /// one the admitted routes alone rebuild; no occupant sits on a failed
    /// element; every admitted layout re-validates (when
    /// [`KairosConfig::validate`] is set); [`Platform::audit`] passes on a
    /// clone; and no kept probe decision is ahead of the platform's state
    /// epoch.
    ///
    /// O(platform + admitted layouts), plus one validation per admitted
    /// application: a check for tests and simulations, not a hot path.
    ///
    /// [`KairosConfig::validate`]: super::KairosConfig::validate
    /// [`Platform::audit`]: kairos_platform::Platform::audit
    ///
    /// # Errors
    ///
    /// The first disagreement found, in the order above.
    pub fn audit(&self) -> Result<(), KairosAuditError> {
        let platform = &self.platform;

        let mut live: Vec<Seat> = platform
            .element_ids()
            .flat_map(|e| platform.residents(e).iter().map(move |o| (e, o.app, o.task, o.claimed)))
            .collect();
        let mut expected: Vec<Seat> = Vec::new();
        for (&app, admitted) in &self.admitted {
            for (task, element) in admitted.layout.placement.iter() {
                let bound = admitted.layout.binding.implementation(&admitted.app, task).requires();
                expected.push((element, app, task.0, bound));
            }
        }
        live.sort_unstable();
        expected.sort_unstable();
        let differs = (0..live.len().max(expected.len())).find(|&i| live.get(i) != expected.get(i));
        if let Some(i) = differs {
            // The smaller of the two records is the one the other side lacks.
            return Err(match (live.get(i), expected.get(i)) {
                (Some(&(element, app, task, claimed)), other)
                    if other.is_none_or(|other| live[i] < *other) =>
                {
                    KairosAuditError::Unaccounted { element, app, task, claimed }
                }
                (_, Some(&(element, app, task, claimed))) => {
                    KairosAuditError::Missing { element, app, task, claimed }
                }
                (_, None) => unreachable!("one side holds the differing record"),
            });
        }

        let mut routed = vec![(0u64, 0u16); platform.link_count()];
        for admitted in self.admitted.values() {
            for route in &admitted.layout.routes {
                let bandwidth = admitted.app.channel(route.channel()).bandwidth();
                for link in route.links() {
                    routed[link.index()].0 += bandwidth;
                    routed[link.index()].1 += 1;
                }
            }
        }
        for (link, &routed) in platform.links().zip(&routed) {
            let id = link.id();
            let free = (platform.link_free_bandwidth(id), platform.link_free_virtual_channels(id));
            if (free.0 + routed.0, free.1 + routed.1) != (link.bandwidth(), link.virtual_channels())
            {
                return Err(KairosAuditError::Link { link: id, free, routed });
            }
        }

        for element in platform.element_ids().filter(|&e| platform.is_failed(e)) {
            if let Some(o) = platform.residents(element).first() {
                return Err(KairosAuditError::Failed { element, app: o.app });
            }
        }

        if self.config.validate {
            let mut ids: Vec<AppId> = self.admitted.keys().copied().collect();
            ids.sort_unstable();
            for &app in &ids {
                let admitted = &self.admitted[&app];
                if let Err(error) =
                    validate(&admitted.app, &admitted.layout, &self.config.validation)
                {
                    return Err(KairosAuditError::Invalid { app, error });
                }
            }
        }

        platform.clone().audit().map_err(KairosAuditError::Platform)?;

        let epoch = platform.state_epoch();
        match self.store.probed_epoch() {
            Some(kept) if kept > epoch => {
                Err(KairosAuditError::ProbeAhead { kept, platform: epoch })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{AllocationError, BindingError};
    use crate::KairosConfig;
    use kairos_app::{
        Application, ApplicationBuilder, Constraint, Implementation, TaskId, TaskRole,
    };
    use kairos_platform::{topology, ElementKind, Occupant};

    fn chain(name: &str, n: usize, cpu: u64, bandwidth: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 16, 0, 0), 50, 1);
        let mut b = ApplicationBuilder::new(name);
        let ids: Vec<TaskId> =
            (0..n).map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp])).collect();
        for pair in ids.windows(2) {
            b.add_channel(pair[0], pair[1], bandwidth, 1);
        }
        b.build().unwrap()
    }

    /// A CRISP manager holding two chains, the second one with routes
    /// over links, after a release, a fault and a migration; and the id of
    /// the second chain.
    fn populated() -> (Kairos, AppId) {
        let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
        let gone = kairos.admit(&chain("gone", 2, 600, 40)).unwrap().app_id;
        kairos.admit(&chain("a", 3, 700, 100)).unwrap();
        let b = kairos.admit(&chain("b", 4, 900, 120)).unwrap();
        assert!(b.layout.total_hops() > 0, "the audit must see routed links");
        kairos.release(gone);
        let spare = kairos.platform.element_ids().find(|&e| !kairos.platform.is_used(e)).unwrap();
        kairos.fail_element(spare);
        kairos.migrate(b.app_id, &[b.layout.placement.element(TaskId(0))]).unwrap();
        assert_eq!(kairos.audit(), Ok(()));
        (kairos, b.app_id)
    }

    #[test]
    fn a_consistent_manager_passes_and_each_broken_record_is_named() {
        let (kairos, b) = populated();
        let home = kairos.admitted[&b].layout.placement.element(TaskId(0));
        let bound = kairos.platform.residents(home).iter().find(|o| o.app == b).unwrap().claimed;

        let mut orphan = kairos.clone();
        let p = &orphan.platform;
        let idle = p.element_ids().find(|&e| !p.is_used(e) && !p.is_failed(e)).unwrap();
        let stray = Occupant { app: AppId(999), task: 0, claimed: ResourceVector::ZERO };
        orphan.platform.claim(idle, stray).unwrap();
        let (app, claimed) = (AppId(999), ResourceVector::ZERO);
        let expected = KairosAuditError::Unaccounted { element: idle, app, task: 0, claimed };
        assert_eq!(orphan.audit(), Err(expected));

        // The registry places task 0 on `idle`: whichever element sorts
        // first names the disagreement.
        let mut moved = kairos.clone();
        let layout = std::sync::Arc::make_mut(&mut moved.admitted.get_mut(&b).unwrap().layout);
        let mut elements: Vec<ElementId> = layout.placement.iter().map(|(_, e)| e).collect();
        elements[0] = idle;
        layout.placement = crate::layout::Placement::new(elements);
        let expected = if home < idle {
            KairosAuditError::Unaccounted { element: home, app: b, task: 0, claimed: bound }
        } else {
            KairosAuditError::Missing { element: idle, app: b, task: 0, claimed: bound }
        };
        assert_eq!(moved.audit(), Err(expected));

        let mut unseated = kairos.clone();
        unseated.platform.release(home, b, 0).unwrap();
        let expected = KairosAuditError::Missing { element: home, app: b, task: 0, claimed: bound };
        assert_eq!(unseated.audit(), Err(expected));

        let mut doubled = kairos.clone();
        let twin = Occupant { app: b, task: 0, claimed: ResourceVector::ZERO };
        doubled.platform.claim(home, twin).unwrap();
        let claimed = ResourceVector::ZERO;
        let expected = KairosAuditError::Unaccounted { element: home, app: b, task: 0, claimed };
        assert_eq!(doubled.audit(), Err(expected));

        let mut short = kairos.clone();
        short.platform.release(home, b, 0).unwrap();
        let claimed = bound.scaled(1, 2);
        short.platform.claim(home, Occupant { app: b, task: 0, claimed }).unwrap();
        let expected = KairosAuditError::Unaccounted { element: home, app: b, task: 0, claimed };
        assert_eq!(short.audit(), Err(expected));

        let mut routed = kairos.clone();
        let link = routed.admitted[&b].layout.routes.iter().find_map(|r| r.links().first());
        let link = *link.unwrap();
        routed.platform.release_link(link, 0);
        assert!(matches!(routed.audit(), Err(KairosAuditError::Link { link: l, .. }) if l == link));

        let mut failed = kairos.clone();
        failed.platform.fail_element(home);
        assert_eq!(failed.audit(), Err(KairosAuditError::Failed { element: home, app: b }));

        let mut ahead = kairos.clone();
        let epoch = ahead.platform.state_epoch() + 1;
        let refusal = AllocationError::Binding(BindingError::NoFeasibleImplementation {
            task: TaskId(0),
            structural: true,
            kind: ElementKind::Dsp,
            requested: bound,
            largest_free: None,
        });
        ahead.store.keep_probed(0, epoch, Err(refusal));
        let expected = KairosAuditError::ProbeAhead { kept: epoch, platform: epoch - 1 };
        assert_eq!(ahead.audit(), Err(expected));
    }

    #[test]
    fn an_admitted_layout_that_no_longer_validates_is_named() {
        let mut b = ApplicationBuilder::new("tight");
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(500, 16, 0, 0), 50, 1);
        let t0 = b.add_task("a", TaskRole::Input, vec![imp]);
        let t1 = b.add_task("b", TaskRole::Output, vec![imp]);
        b.add_channel(t0, t1, 100, 1);
        b.add_constraint(Constraint::Throughput { max_period_cycles: 1 });
        let tight = b.build().unwrap();
        let unchecked = KairosConfig { validate: false, ..KairosConfig::default() };
        let mut kairos = Kairos::new(topology::crisp(), unchecked);
        let app = kairos.admit(&tight).unwrap().app_id;
        assert_eq!(kairos.audit(), Ok(()), "nothing to re-validate without validation");
        kairos.config.validate = true;
        assert!(
            matches!(kairos.audit(), Err(KairosAuditError::Invalid { app: a, .. }) if a == app)
        );
    }
}
