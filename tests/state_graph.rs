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
//! to come back to where the edge started. So the first failure it meets
//! comes with a shortest history that reaches it.

use std::collections::{HashSet, VecDeque};

use kairos::app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos::core::{Kairos, KairosConfig};
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
        let mut next = self.clone();
        let (kairos, residents) = (&mut next.kairos, &mut next.residents);
        match op {
            Op::Admit(chain) => {
                if let Ok(report) = kairos.admit(&chains[chain]) {
                    residents.push((report.app_id, chain));
                }
            }
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
}

/// What closing a platform's state graph found.
#[derive(Debug, PartialEq, Eq)]
struct Closure {
    states: usize,
    edges: usize,
    /// The longest of the shortest histories, in operations.
    deepest: usize,
}

/// Walks `platform`'s state graph breadth first to closure, auditing the
/// manager after every edge and checking that a restored checkpoint and a
/// release undoing an admission land where they should; panics with the
/// shortest failing history.
fn close(platform: Platform) -> Closure {
    let chains = chains();
    let root = State { kairos: Kairos::new(platform, KairosConfig::default()), residents: vec![] };
    let mut seen = HashSet::from([root.key()]);
    let mut queue = VecDeque::from([(root, Vec::new())]);
    let (mut edges, mut deepest) = (0, 0);
    while let Some((state, history)) = queue.pop_front() {
        deepest = deepest.max(history.len());
        for op in OPS {
            let next = state.after(op, &chains);
            edges += 1;
            let path = || [&history[..], &[op]].concat();
            if let Err(e) = next.kairos.audit() {
                panic!("audit failed after {:?}: {e}", path());
            }
            let mut ids: Vec<AppId> = next.residents.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            assert_eq!(next.kairos.admitted_ids(), ids, "residents after {:?}", path());
            // The edge's own start, rewound to where the edge led.
            let mut rewound = state.clone();
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
                queue.push_back((next, path()));
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
