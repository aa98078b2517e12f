//! Every reachable state of a tiny platform, audited.
//!
//! Property tests sample random histories; on a tiny platform the
//! manager's reachable states can be enumerated outright instead. A state
//! is keyed by what the admission pipeline reads of the platform
//! (`Platform::state_stamp_from_scratch`) plus the residents in admission
//! order, which fixes what "release the oldest" means. The walk is
//! breadth first from the empty platform under ten operations — admit
//! each of three DSP chains, release the oldest or the newest resident,
//! fail and repair two elements, and a compaction sweep — and runs
//! `Kairos::audit` after every edge. On every edge it also rewinds a copy
//! of the state the edge left to the state the edge reached through
//! `checkpoint` / `restore`, and releases what an admission edge admitted
//! to come back to where the edge started. On every admission edge it
//! admits the same chain twice more, through the probe hand-off: once
//! probed at the edge's start, and once probed one edge earlier, which
//! whatever that edge changed must void. Both must decide what the cold
//! admission decided, and a hand-off must share the probe's layout, not
//! copy it. So the first failure it meets comes with a shortest history
//! that reaches it.

use std::collections::{HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use kairos::app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos::core::{
    AdmissionFailure, AdmissionReport, AllocationError, ExecutionLayout, Kairos, KairosConfig,
    ValidationReport,
};
use kairos::platform::{topology, AppId, ElementId, ElementKind, Platform, ResourceVector};

/// One edge of the state graph.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit the chain of this index in [`chains`].
    Admit(usize),
    ReleaseOldest,
    ReleaseNewest,
    Fail(u32),
    Repair(u32),
    /// A compaction sweep of at most four moves.
    Compact,
}

const OPS: [Op; 10] = [
    Op::Admit(0),
    Op::Admit(1),
    Op::Admit(2),
    Op::ReleaseOldest,
    Op::ReleaseNewest,
    Op::Fail(0),
    Op::Fail(3),
    Op::Repair(0),
    Op::Repair(3),
    Op::Compact,
];

/// Chains of 2, 3 and 4 DSP tasks over 400-wide channels. A DSP element
/// has 1 000 of compute, so the chains' tasks take it alone, alone and in
/// pairs: a few residents fill a tiny mesh, and most admissions route.
fn chains() -> [Application; 3] {
    [(2, 700), (3, 600), (4, 500)].map(|(tasks, cpu)| {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 40, 1);
        let mut b = ApplicationBuilder::new(format!("chain{tasks}"));
        let ids: Vec<_> = (0..tasks)
            .map(|i| b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]))
            .collect();
        for pair in ids.windows(2) {
            b.add_channel(pair[0], pair[1], 400, 1);
        }
        b.build().unwrap()
    })
}

/// What an admission returned.
type Admission = Result<AdmissionReport, AdmissionFailure>;

/// What an admission decided, without how long it took: the id, layout
/// and validation report, or the refusal.
fn decided(
    admission: &Admission,
) -> Result<(AppId, &ExecutionLayout, Option<&ValidationReport>), &AllocationError> {
    match admission {
        Ok(report) => Ok((report.app_id, &*report.layout, report.validation.as_ref())),
        Err(failure) => Err(&*failure.error),
    }
}

/// A reached state: the manager, and its residents in admission order with
/// the chain each one is.
#[derive(Clone)]
struct State {
    kairos: Kairos,
    residents: Vec<(AppId, usize)>,
}

impl State {
    fn key(&self) -> (u128, Vec<usize>) {
        let stamp = self.kairos.platform().state_stamp_from_scratch();
        (stamp, self.residents.iter().map(|&(_, chain)| chain).collect())
    }

    /// The state `op` leads to.
    fn after(&self, op: Op, chains: &[Application]) -> State {
        if let Op::Admit(chain) = op {
            return self.admitting(chain, chains).0;
        }
        let mut next = self.clone();
        let (kairos, residents) = (&mut next.kairos, &mut next.residents);
        match op {
            Op::Admit(_) => unreachable!("admissions return above"),
            Op::ReleaseOldest | Op::ReleaseNewest if residents.is_empty() => {}
            Op::ReleaseOldest => assert!(kairos.release(residents.remove(0).0)),
            Op::ReleaseNewest => assert!(kairos.release(residents.pop().unwrap().0)),
            Op::Fail(e) => {
                let evicted = kairos.fail_element(ElementId(e));
                residents.retain(|(id, _)| !evicted.contains(id));
            }
            Op::Repair(e) => {
                kairos.repair_element(ElementId(e));
            }
            Op::Compact => {
                kairos.compact(4);
            }
        }
        next
    }

    /// The state admitting `chain` leads to, and what the admission
    /// returned.
    fn admitting(&self, chain: usize, chains: &[Application]) -> (State, Admission) {
        let mut next = self.clone();
        let admission = next.kairos.admit(&chains[chain]);
        if let Ok(report) = &admission {
            next.residents.push((report.app_id, chain));
        }
        (next, admission)
    }

    /// Probes `chain`, then admits it: the admission takes the probe's
    /// decision, as nothing moved in between. Checks that the hand-off
    /// shares the probe's layout with the report and the registry, and
    /// that probe and admission agree; `path` names the edge.
    fn probed_then_admitting(
        &self,
        chain: usize,
        chains: &[Application],
        path: &[Op],
    ) -> (State, Admission) {
        let mut start = self.clone();
        let probe = start.kairos.probe_admit(&chains[chain]);
        let (next, admission) = start.admitting(chain, chains);
        match (&probe, &admission) {
            (Ok(probe), Ok(report)) => {
                let copied = !Arc::ptr_eq(&probe.layout, &report.layout);
                assert!(!copied, "the hand-off copied the layout after {path:?}");
                let registered = next.kairos.layout(report.app_id).expect("admitted");
                let copied = !std::ptr::eq(registered, &*report.layout);
                assert!(!copied, "the registry copied the layout after {path:?}");
            }
            (Err(probe), Err(failure)) => {
                assert_eq!(probe.error, failure.error, "refusals after {path:?}");
            }
            _ => panic!("the probe and the admission disagree after {path:?}"),
        }
        (next, admission)
    }
}

/// What closing a platform's state graph found.
#[derive(Debug, PartialEq, Eq)]
struct Closure {
    states: usize,
    edges: usize,
    /// The longest of the shortest histories, in operations.
    deepest: usize,
}

/// Asserts that `via`, an admission of the same chain from the same
/// state as the cold edge `(next, cold)` by another route, decided and
/// reached what the cold one did; `path` names the edge.
fn same_admission(via: (State, Admission), next: &State, cold: &Admission, path: &[Op]) {
    let (reached, admission) = via;
    assert_eq!(decided(&admission), decided(cold), "decided after {path:?}");
    assert_eq!(reached.key(), next.key(), "reached after {path:?}");
    assert_eq!(reached.kairos.admitted_ids(), next.kairos.admitted_ids(), "after {path:?}");
}

/// A state waiting in the walk's queue, with its shortest history and
/// the edge that reached it (its start and operation), for the probe made
/// one edge earlier.
type Queued = (Rc<State>, Vec<Op>, Option<(Rc<State>, Op)>);

/// Walks `platform`'s state graph breadth first to closure, auditing the
/// manager after every edge and checking that a restored checkpoint, a
/// release undoing an admission and the probe hand-offs land where they
/// should; panics with the shortest failing history.
fn close(platform: Platform) -> Closure {
    let chains = chains();
    let root = State { kairos: Kairos::new(platform, KairosConfig::default()), residents: vec![] };
    let mut seen = HashSet::from([root.key()]);
    let mut queue: VecDeque<Queued> = VecDeque::from([(Rc::new(root), Vec::new(), None)]);
    let (mut edges, mut deepest) = (0, 0);
    while let Some((state, history, reached_by)) = queue.pop_front() {
        deepest = deepest.max(history.len());
        for op in OPS {
            let path = || [&history[..], &[op]].concat();
            let next = match op {
                Op::Admit(chain) => {
                    let (next, cold) = state.admitting(chain, &chains);
                    let path = path();
                    let probed = state.probed_then_admitting(chain, &chains, &path);
                    same_admission(probed, &next, &cold, &path);
                    // A probe made before the edge that reached `state`:
                    // whatever that edge changed voids it.
                    if let Some((parent, by)) = &reached_by {
                        let mut early = State::clone(parent);
                        drop(early.kairos.probe_admit(&chains[chain]));
                        let early = early.after(*by, &chains).admitting(chain, &chains);
                        same_admission(early, &next, &cold, &path);
                    }
                    next
                }
                _ => state.after(op, &chains),
            };
            edges += 1;
            if let Err(e) = next.kairos.audit() {
                panic!("audit failed after {:?}: {e}", path());
            }
            let mut ids: Vec<AppId> = next.residents.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            assert_eq!(next.kairos.admitted_ids(), ids, "residents after {:?}", path());
            // The edge's own start, rewound to where the edge led.
            let mut rewound = State::clone(&state);
            rewound.kairos.restore(next.kairos.checkpoint());
            rewound.residents.clone_from(&next.residents);
            assert_eq!(rewound.key(), next.key(), "restored after {:?}", path());
            if let Err(e) = rewound.kairos.audit() {
                panic!("audit failed on the restore after {:?}: {e}", path());
            }
            assert_eq!(rewound.kairos.admitted_ids(), ids, "restored after {:?}", path());
            // An admission released again leaves nothing behind.
            if matches!(op, Op::Admit(_)) && next.residents.len() > state.residents.len() {
                let mut undone = next.clone();
                let (id, _) = undone.residents.pop().expect("just admitted");
                assert!(undone.kairos.release(id));
                assert_eq!(undone.key(), state.key(), "released after {:?}", path());
            }
            if seen.insert(next.key()) {
                queue.push_back((Rc::new(next), path(), Some((Rc::clone(&state), op))));
            }
        }
    }
    Closure { states: seen.len(), edges, deepest }
}

#[test]
fn every_reachable_state_of_a_2x2_mesh_passes_its_audit() {
    let closure = close(topology::dsp_mesh(2, 2));
    assert_eq!(closure, Closure { states: 37, edges: 370, deepest: 6 });
}

/// The same walk on a 2x3 mesh, 66 850 audited edges (under a second in
/// release): run it with
/// `cargo test --release --test state_graph -- --ignored`.
#[test]
#[ignore]
fn every_reachable_state_of_a_2x3_mesh_passes_its_audit() {
    let closure = close(topology::dsp_mesh(2, 3));
    assert_eq!(closure, Closure { states: 6_685, edges: 66_850, deepest: 32 });
}
