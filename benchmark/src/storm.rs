//! Storm generation: the fixed application catalogue and the seeded
//! sequence of steps over it. Nothing else about `--seed` reaches the
//! program.

use kairos::admitd::PriorityClass;
use kairos::app::Application;
use kairos::appgen::{generate_dataset, DatasetSpec};
use kairos::core::Kairos;
use kairos::platform::{topology, ElementId, Platform};

use crate::drive::manager_config;
use crate::tables::{PlatformKind, Stack, Workload};

/// SplitMix64: the benchmark's own seeded stream (the `rand` shim is a
/// private dependency of the measured crates, not part of their API).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn build_platform(kind: PlatformKind) -> Platform {
    match kind {
        PlatformKind::Crisp => topology::crisp(),
        PlatformKind::Mesh16 => topology::heterogeneous_mesh(16, 16),
    }
}

/// One scripted step of a storm. Releases are not scripted: lifetimes are
/// FIFO and follow from the outcomes (see `drive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Request admission of `apps[app]` at virtual time `at`.
    Admit {
        app: usize,
        class: PriorityClass,
        at: u64,
    },
    Fault {
        element: ElementId,
        at: u64,
    },
    Repair {
        element: ElementId,
        at: u64,
    },
    Defrag {
        at: u64,
    },
    /// Advance the virtual clock and pump time-outs.
    Tick {
        at: u64,
    },
}

/// The applications a workload's storms draw from.
#[derive(Debug, Clone)]
pub struct Catalogue {
    pub apps: Vec<Application>,
    /// Applications generated before the extraneous-sample filter.
    pub generated: usize,
}

/// Admissions a sequence of steps requests.
pub fn admits(steps: &[Step]) -> usize {
    steps.iter().filter(|s| matches!(s, Step::Admit { .. })).count()
}

/// Seed of the application catalogue. Like the paper's datasets (§IV:
/// fixed datasets, thirty random *sequences* over each), the catalogue is
/// the same for every run and `--seed` draws the sequences over it. Per-
/// application cost is heavy-tailed (p99 is fifteen times p50), so a
/// catalogue redrawn per seed moved `ops_per_s` by a quarter from seed to
/// seed — noise that says nothing about the code under test.
const CATALOGUE_SEED: u64 = 0x0DA7E2010;

/// Generates the raw application catalogue: `pool_per_dataset`
/// applications from each of the six Table-I datasets, in dataset order.
pub fn generate_pool(workload: &Workload) -> Vec<Application> {
    let mut pool = Vec::with_capacity(6 * workload.pool_per_dataset);
    for (i, spec) in DatasetSpec::all().into_iter().enumerate() {
        let dataset_seed = SplitMix::new(CATALOGUE_SEED + i as u64).next();
        pool.extend(generate_dataset(spec, workload.pool_per_dataset, dataset_seed));
    }
    pool
}

/// The paper's §IV extraneous-sample filter: keeps the applications that
/// can be allocated on an *empty* platform, one `Kairos::admit` each,
/// under the configuration the workloads run with.
pub fn filter_pool(pool: Vec<Application>, platform: &Platform) -> Vec<Application> {
    let mut manager = Kairos::new(platform.clone(), manager_config(false));
    pool.into_iter()
        .filter(|app| match manager.admit(app) {
            Ok(report) => {
                manager.release(report.app_id);
                true
            }
            Err(_) => false,
        })
        .collect()
}

/// Scripts one sequence of `workload` over the catalogue `apps` on a
/// platform of `elements` elements.
///
/// # Panics
///
/// Panics when the catalogue is empty or lacks a recurring shape.
pub fn script(workload: &Workload, apps: &[Application], elements: usize, seed: u64) -> Vec<Step> {
    assert!(!apps.is_empty(), "the catalogue filter left no application");
    let mut rng = SplitMix::new(seed ^ 0x5707_5707_5707_5707);
    // The draw order: a shuffled cycle through the catalogue (or through
    // the recurring shapes), so every application is asked for equally
    // often and only the order is random — the mix of a storm is then the
    // same for every seed.
    let mut order: Vec<usize> = match workload.recurring {
        Some(shapes) => shapes
            .iter()
            .map(|name| {
                apps.iter()
                    .position(|app| app.name() == *name)
                    .unwrap_or_else(|| panic!("recurring shape {name} is not in the catalogue"))
            })
            .collect(),
        None => (0..apps.len()).collect(),
    };
    let queued = workload.stack == Stack::Queued;
    let admits = workload.cycles * order.len();
    let mut steps = Vec::with_capacity(admits + admits / 4);
    let mut at = 0u64;
    let mut cursor = order.len();
    let mut pending_repair: Option<(usize, ElementId)> = None;
    for i in 0..admits {
        if cursor == order.len() {
            rng.shuffle(&mut order);
            cursor = 0;
        }
        let app = order[cursor];
        cursor += 1;
        let class = if queued {
            // One critical and three high per sixteen, the rest split
            // between normal and low.
            match rng.below(16) {
                0 => PriorityClass::Critical,
                1..=3 => PriorityClass::High,
                4..=9 => PriorityClass::Normal,
                _ => PriorityClass::Low,
            }
        } else {
            PriorityClass::Normal
        };
        at += if queued { 1 + rng.below(3) as u64 } else { 1 };
        if let Some(period) = workload.fault_every {
            if i > 0 && i % period == 0 {
                let element = ElementId(rng.below(elements) as u32);
                steps.push(Step::Fault { element, at });
                pending_repair = Some((i + period / 4, element));
            }
            if let Some((due, element)) = pending_repair {
                if i == due {
                    steps.push(Step::Repair { element, at });
                    pending_repair = None;
                }
            }
        }
        if let Some(period) = workload.defrag_every {
            if i > 0 && i % period == 0 {
                steps.push(Step::Defrag { at });
            }
        }
        steps.push(Step::Admit { app, class, at });
        if queued && i % 4 == 3 {
            steps.push(Step::Tick { at });
        }
    }
    if let Some((_, element)) = pending_repair {
        steps.push(Step::Repair { element, at });
    }
    steps
}
