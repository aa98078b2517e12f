//! Golden digests of the mapping phase's *decisions*.
//!
//! The mapper's data structures are free to change; what it decides is not.
//! Each row below is an FNV-1a digest over every outcome of a seeded
//! map/release churn — placements, `rings`, `elements_discovered`,
//! `gap_invocations`, and the payloads of `SearchExhausted` /
//! `NoStartingPoint` — on CRISP and on 16x16 and 32x32 heterogeneous meshes
//! under all four cost policies. The values were captured at commit 473a393
//! (PR 15), before the dense working sets and the cached platform adjacency
//! of PR 16 existed; a mismatch means a placement, a counter or an f64 cost
//! comparison moved.

use std::collections::VecDeque;

use kairos_app::{Application, ApplicationBuilder, Implementation, TaskRole};
use kairos_appgen::{generate_dataset, DatasetSpec};
use kairos_core::{bind, map_application, CostPolicy, MapperConfig, MappingError, Placement};
use kairos_platform::{topology, AppId, ElementId, ElementKind, Platform, ResourceVector};

const SEED: u64 = 2016;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// An unpinned DSP chain: exercises the start ranking and `start_retries`,
/// which the generated datasets (pinned I/O tasks) never reach.
fn dsp_chain(name: String, tasks: usize, cpu: u64) -> Application {
    let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 100, 1);
    let mut b = ApplicationBuilder::new(name);
    let mut prev = None;
    for i in 0..tasks {
        let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]);
        if let Some(p) = prev {
            b.add_channel(p, t, 60 + 20 * i as u64, 1);
        }
        prev = Some(t);
    }
    b.build().expect("chains are valid applications")
}

/// The six Table-I datasets interleaved, with an unpinned chain after every
/// sixth generated application.
fn catalogue(per_dataset: usize) -> Vec<Application> {
    let datasets: Vec<Vec<Application>> = DatasetSpec::all()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| generate_dataset(spec, per_dataset, SEED + i as u64))
        .collect();
    let mut out = Vec::new();
    for i in 0..per_dataset {
        for set in &datasets {
            out.push(set[i].clone());
        }
        out.push(dsp_chain(format!("chain-{i}"), 2 + i % 5, 300 + 97 * (i as u64 % 7)));
    }
    out
}

#[derive(Default)]
struct Tally {
    mapped: usize,
    exhausted: usize,
    no_start: usize,
}

/// Maps the catalogue in order; releases the oldest resident after every
/// rejection and while more than `cap` are resident; fails one element
/// every 16 requests and repairs it 8 requests later.
fn churn(
    mut platform: Platform,
    policy: CostPolicy,
    apps: &[Application],
    cap: usize,
) -> (u64, Tally) {
    let config = MapperConfig::with_policy(policy);
    let mut digest = Fnv::new();
    let mut tally = Tally::default();
    let mut resident: VecDeque<(AppId, Placement)> = VecDeque::new();
    let elements = platform.element_count() as u32;
    let idle = platform.clone();
    for (i, app) in apps.iter().enumerate() {
        if i % 16 == 5 {
            platform.fail_element(ElementId((i as u32 * 7 + 3) % elements));
        }
        if i % 16 == 13 {
            platform.repair_element(ElementId(((i as u32 - 8) * 7 + 3) % elements));
        }
        let app_id = AppId(i as u32);
        // A binding chosen against the idle platform sends the mapper
        // requests the loaded one cannot start (`NoStartingPoint`).
        let outcome = bind(app, &platform)
            .or_else(|_| bind(app, &idle))
            .ok()
            .map(|binding| map_application(app, &binding, &mut platform, app_id, &config));
        let mut admitted = false;
        match outcome {
            Some(Ok(report)) => {
                admitted = true;
                tally.mapped += 1;
                digest.word(1);
                for (t, e) in report.placement.iter() {
                    digest.word(u64::from(t.0));
                    digest.word(u64::from(e.0));
                }
                digest.word(report.rings as u64);
                digest.word(report.elements_discovered as u64);
                digest.word(report.gap_invocations as u64);
                resident.push_back((app_id, report.placement));
            }
            Some(Err(MappingError::SearchExhausted { ring, unmapped })) => {
                tally.exhausted += 1;
                digest.word(2);
                digest.word(ring as u64);
                for t in unmapped {
                    digest.word(u64::from(t.0));
                }
            }
            Some(Err(MappingError::NoStartingPoint { task })) => {
                tally.no_start += 1;
                digest.word(3);
                digest.word(u64::from(task.0));
            }
            Some(Err(MappingError::PinnedTaskInfeasible { task, element })) => {
                digest.word(4);
                digest.word(u64::from(task.0));
                digest.word(u64::from(element.0));
            }
            None => digest.word(5),
        }
        if !admitted || resident.len() > cap {
            if let Some((oldest, placement)) = resident.pop_front() {
                platform.release_app(oldest, placement.iter().map(|(_, e)| e));
            }
        }
    }
    (digest.0, tally)
}

fn check(name: &str, platform: &Platform, per_dataset: usize, cap: usize, golden: [u64; 4]) {
    let apps = catalogue(per_dataset);
    let mut seen = Tally::default();
    let mut got = [0u64; 4];
    for (slot, policy) in got.iter_mut().zip(CostPolicy::ALL) {
        let (digest, tally) = churn(platform.clone(), policy, &apps, cap);
        *slot = digest;
        seen.mapped += tally.mapped;
        seen.exhausted += tally.exhausted;
        seen.no_start += tally.no_start;
    }
    assert!(seen.mapped > 0, "{name}: the churn never mapped anything");
    assert!(seen.exhausted + seen.no_start > 0, "{name}: the churn never hit a mapping error");
    assert!(
        got == golden,
        "{name}: mapping decisions moved under [None, Communication, Fragmentation, Both]\n \
         got    {got:#018x?}\n pinned {golden:#018x?}"
    );
}

#[test]
fn crisp_decisions_are_pinned() {
    check(
        "crisp",
        &topology::crisp(),
        40,
        6,
        [0x1d3b6a15f7b1069a, 0x771d50a1c61a28b0, 0x6aa28fac8a3a00d7, 0x46eb6991df0c6a44],
    );
}

#[test]
fn mesh16_decisions_are_pinned() {
    check(
        "mesh16",
        &topology::heterogeneous_mesh(16, 16),
        40,
        40,
        [0x08202481750d9df2, 0xd549598a1157b7e3, 0xf70e0f8ba3e0edb0, 0xb59bdb035646e200],
    );
}

#[test]
fn mesh32_decisions_are_pinned() {
    check(
        "mesh32",
        &topology::heterogeneous_mesh(32, 32),
        48,
        160,
        [0x1d488d635ae097ef, 0x74e4f532d245543f, 0x31bb0726380af304, 0xc7f011f18282acaa],
    );
}
