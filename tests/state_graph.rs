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
//! copy it. Each edge runs under `catch_unwind`, so the first failure it
//! meets — a failed check here or a panic inside the manager — comes with
//! a shortest history that reaches it. Two platforms are closed in
//! tier-1: a 2x2 DSP mesh under DSP chains, and a 2x2 mesh of one FPGA,
//! two DSPs and one ARM under chains pinned to the FPGA and the ARM, so
//! that single-element kinds fail whole and the mapper starts from pinned
//! seed sets. Each is closed twice: once without an operating-point
//! cache, and once with one, where every admission edge also admits the
//! chain on a cache-free manager built over a clone of the edge's start
//! platform and checks that the keyed replay decided and wrote what the
//! cold pipeline does.

use std::collections::{HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use kairos::app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos::core::{
    AdmissionFailure, AdmissionReport, AllocationError, CacheConfig, ExecutionLayout, Kairos,
    KairosConfig, ValidationReport,
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
fn dsp_chains() -> [Application; 3] {
    [(2, 700), (3, 600), (4, 500)].map(|(tasks, cpu)| {
        let dsp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 40, 1);
        chain(tasks, dsp, dsp, dsp)
    })
}

/// Chains of 2, 3 and 4 tasks for a platform with one FPGA and one ARM:
/// the first task runs on the FPGA (three fit its area), the last on the
/// ARM (three fit its compute) and the tasks between on DSPs as in
/// [`dsp_chains`]. Both ends are pinned, so the mapper starts from seed
/// sets other than the one an application keeps its rings for.
fn pinned_chains() -> [Application; 3] {
    let fpga = Implementation::new(ElementKind::Fpga, ResourceVector::new(0, 8, 3_000, 0), 40, 1);
    let arm = Implementation::new(ElementKind::Arm, ResourceVector::new(250, 8, 0, 0), 40, 1);
    [(2, 700), (3, 600), (4, 500)].map(|(tasks, cpu)| {
        let dsp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 40, 1);
        chain(tasks, fpga, dsp, arm)
    })
}

/// A chain of `tasks` tasks over 400-wide channels: `first`, then `inner`
/// for each task between, then `last`.
fn chain(
    tasks: usize,
    first: Implementation,
    inner: Implementation,
    last: Implementation,
) -> Application {
    let mut b = ApplicationBuilder::new(format!("chain{tasks}"));
    let ids: Vec<_> = (0..tasks)
        .map(|i| {
            let imp = match i {
                0 => first,
                _ if i == tasks - 1 => last,
                _ => inner,
            };
            b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp])
        })
        .collect();
    for pair in ids.windows(2) {
        b.add_channel(pair[0], pair[1], 400, 1);
    }
    b.build().unwrap()
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
    /// that probe and admission agree.
    fn probed_then_admitting(&self, chain: usize, chains: &[Application]) -> (State, Admission) {
        let mut start = self.clone();
        let probe = start.kairos.probe_admit(&chains[chain]);
        let (next, admission) = start.admitting(chain, chains);
        match (&probe, &admission) {
            (Ok(probe), Ok(report)) => {
                let copied = !Arc::ptr_eq(&probe.layout, &report.layout);
                assert!(!copied, "the hand-off copied the layout");
                let registered = next.kairos.layout(report.app_id).expect("admitted");
                let copied = !std::ptr::eq(registered, &*report.layout);
                assert!(!copied, "the registry copied the layout");
            }
            (Err(probe), Err(failure)) => {
                assert_eq!(probe.error, failure.error, "refusals");
            }
            _ => panic!("the probe and the admission disagree"),
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
/// reached what the cold one did.
fn same_admission(via: (State, Admission), next: &State, cold: &Admission) {
    let (reached, admission) = via;
    assert_eq!(decided(&admission), decided(cold), "decided");
    assert_eq!(reached.key(), next.key(), "reached");
    assert_eq!(reached.kairos.admitted_ids(), next.kairos.admitted_ids(), "admitted");
}

/// Asserts that a cache-free manager over a clone of `state`'s platform
/// admits `chain` as the edge `(next, cached)` did: the same id, layout
/// and validation report (or the same refusal), and the same platform
/// bytes after. The cold manager mints the id the edge's manager minted,
/// or, for a refusal, one no resident carries.
fn same_as_cold(state: &State, chain: &Application, next: &State, cached: &Admission) {
    let app_id_base = match cached {
        Ok(report) => report.app_id.0,
        Err(_) => state.residents.iter().map(|&(id, _)| id.0 + 1).max().unwrap_or(0),
    };
    let config = KairosConfig { app_id_base, ..KairosConfig::default() };
    let mut cold = Kairos::new(state.kairos.platform().clone(), config);
    let admission = cold.admit(chain);
    assert_eq!(decided(&admission), decided(cached), "cold decided");
    let same = cold.platform().checkpoint() == next.kairos.platform().checkpoint();
    assert!(same, "the cold admission left another platform");
}

/// Rewinds `replayer`, the walk's one manager with a keyed tier, to
/// `state` and admits `chain` twice, rewinding in between. Its store
/// holds every decision the walk has made so far, under every state's
/// key, and the second admission must be a keyed replay of the first.
/// Both must decide and write what the edge `(next, cold)` did.
fn replays_agree(
    replayer: &mut Kairos,
    state: &State,
    chain: &Application,
    next: &State,
    cold: &Admission,
) {
    let hits = |kairos: &Kairos| kairos.cache_stats().map_or(0, |stats| stats.hits);
    for replay in [false, true] {
        replayer.restore(state.kairos.checkpoint());
        let before = hits(replayer);
        let admission = replayer.admit(chain);
        assert_eq!(decided(&admission), decided(cold), "replayed");
        let same = replayer.platform().checkpoint() == next.kairos.platform().checkpoint();
        assert!(same, "the replay left another platform");
        if replay {
            assert_eq!(hits(replayer), before + 1, "the keyed tier answers the replay");
        }
    }
}

/// A state waiting in the walk's queue, with its shortest history and
/// the edge that reached it (its start and operation), for the probe made
/// one edge earlier.
type Queued = (Rc<State>, Vec<Op>, Option<(Rc<State>, Op)>);

/// Takes the edge `op` from `state`, reached by `reached_by`, and checks
/// it: the audit, the residents, a restored checkpoint, a release undoing
/// an admission and the probe hand-offs — and, when the walk keeps a
/// `replayer`, the cold pipeline and the keyed replays. Returns the state
/// it reaches.
fn edge(
    state: &State,
    op: Op,
    reached_by: Option<&(Rc<State>, Op)>,
    chains: &[Application],
    replayer: Option<&mut Kairos>,
) -> State {
    let next = match op {
        Op::Admit(chain) => {
            let (next, cold) = state.admitting(chain, chains);
            if let Some(replayer) = replayer {
                same_as_cold(state, &chains[chain], &next, &cold);
                replays_agree(replayer, state, &chains[chain], &next, &cold);
            }
            same_admission(state.probed_then_admitting(chain, chains), &next, &cold);
            // A probe made before the edge that reached `state`: whatever
            // that edge changed voids it.
            if let Some((parent, by)) = reached_by {
                let mut early = State::clone(parent);
                drop(early.kairos.probe_admit(&chains[chain]));
                same_admission(early.after(*by, chains).admitting(chain, chains), &next, &cold);
            }
            next
        }
        _ => state.after(op, chains),
    };
    if let Err(e) = next.kairos.audit() {
        panic!("audit failed: {e}");
    }
    let mut ids: Vec<AppId> = next.residents.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    assert_eq!(next.kairos.admitted_ids(), ids, "residents");
    // The edge's own start, rewound to where the edge led.
    let mut rewound = state.clone();
    rewound.kairos.restore(next.kairos.checkpoint());
    rewound.residents.clone_from(&next.residents);
    assert_eq!(rewound.key(), next.key(), "restored");
    if let Err(e) = rewound.kairos.audit() {
        panic!("audit failed on the restore: {e}");
    }
    assert_eq!(rewound.kairos.admitted_ids(), ids, "restored");
    // An admission released again leaves nothing behind.
    if matches!(op, Op::Admit(_)) && next.residents.len() > state.residents.len() {
        let mut undone = next.clone();
        let (id, _) = undone.residents.pop().expect("just admitted");
        assert!(undone.kairos.release(id));
        assert_eq!(undone.key(), state.key(), "released");
    }
    next
}

/// Walks `platform`'s state graph breadth first to closure through
/// [`edge`], on a manager under `config`; a panic on an edge, whether a
/// check's or the manager's, prints the shortest history that reaches it
/// and unwinds on.
fn close(platform: Platform, chains: [Application; 3], config: KairosConfig) -> Closure {
    let mut replayer = config.cache.map(|_| Kairos::new(platform.clone(), config));
    let root = State { kairos: Kairos::new(platform, config), residents: vec![] };
    let mut seen = HashSet::from([root.key()]);
    let mut queue: VecDeque<Queued> = VecDeque::from([(Rc::new(root), Vec::new(), None)]);
    let (mut edges, mut deepest) = (0, 0);
    while let Some((state, history, reached_by)) = queue.pop_front() {
        deepest = deepest.max(history.len());
        for op in OPS {
            let path = [&history[..], &[op]].concat();
            let taken = panic::catch_unwind(AssertUnwindSafe(|| {
                edge(&state, op, reached_by.as_ref(), &chains, replayer.as_mut())
            }));
            let next = taken.unwrap_or_else(|panicked| {
                eprintln!("the edge that failed ends the history {path:?}");
                panic::resume_unwind(panicked)
            });
            edges += 1;
            if seen.insert(next.key()) {
                queue.push_back((Rc::new(next), path, Some((Rc::clone(&state), op))));
            }
        }
    }
    Closure { states: seen.len(), edges, deepest }
}

/// The two configurations every tier-1 closure walks: cold, and with
/// the keyed tier of the decision store replaying recurring decisions.
fn configs() -> [KairosConfig; 2] {
    let cached = KairosConfig { cache: Some(CacheConfig::default()), ..KairosConfig::default() };
    [KairosConfig::default(), cached]
}

#[test]
fn every_reachable_state_of_a_2x2_mesh_passes_its_audit() {
    for config in configs() {
        let closure = close(topology::dsp_mesh(2, 2), dsp_chains(), config);
        assert_eq!(closure, Closure { states: 37, edges: 370, deepest: 6 });
    }
}

/// One FPGA, two DSPs and one ARM: failing the FPGA or the ARM (elements
/// 0 and 3) takes a whole kind away, and every chain is pinned at both
/// ends.
#[test]
fn every_reachable_state_of_a_2x2_heterogeneous_mesh_passes_its_audit() {
    for config in configs() {
        let closure = close(topology::heterogeneous_mesh(2, 2), pinned_chains(), config);
        assert_eq!(closure, Closure { states: 101, edges: 1_010, deepest: 11 });
    }
}

/// The same walk on a 2x3 mesh, 66 850 audited edges (under a second in
/// release): run it with
/// `cargo test --release --test state_graph -- --ignored`.
#[test]
#[ignore]
fn every_reachable_state_of_a_2x3_mesh_passes_its_audit() {
    let closure = close(topology::dsp_mesh(2, 3), dsp_chains(), KairosConfig::default());
    assert_eq!(closure, Closure { states: 6_685, edges: 66_850, deepest: 32 });
}
