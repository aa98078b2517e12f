//! # kairos-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§IV). Each bench target under `benches/` reproduces one
//! artifact:
//!
//! | target              | paper artifact                                  |
//! |---------------------|-------------------------------------------------|
//! | `table1`            | Table I — failure distribution per phase        |
//! | `fig7`              | Fig. 7 — per-phase runtime vs. application size |
//! | `fig8`              | Fig. 8 — hops/channel vs. sequence position     |
//! | `fig9`              | Fig. 9 — fragmentation vs. sequence position    |
//! | `fig10`             | Fig. 10 — beamformer admission weight sweep     |
//! | `casestudy`         | §IV-A — beamformer per-phase runtimes           |
//! | `ablation_routing`  | §II claim — BFS vs. Dijkstra routing            |
//! | `ablation_knapsack` | exact vs. greedy knapsack inside SolveGAP       |
//! | `ablation_exact`    | future-work ILP comparison (exact baseline)     |
//!
//! Beside them, `relocation`, `opcache` (asserts at least 5x), `scale` and
//! `overhead` (telemetry, tracing and energy, dark versus lit; asserts
//! under 3x each) time this reproduction's own mechanisms.
//!
//! [`baseline`] holds the first-fit and exact (branch-and-bound) mappers
//! that `ablation_exact` and the root `heuristic_quality` tests compare
//! the heuristic against; they are analysis tools, not part of the
//! resource manager.
//!
//! Scale is controlled by `KAIROS_PAPER_SCALE=1` (30 sequences, as in the
//! paper) versus the quick default (8 sequences); results are deterministic
//! per scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use kairos_app::Application;
use kairos_appgen::{generate_dataset, DatasetSpec};
use kairos_core::{Kairos, KairosConfig, Phase, PhaseTimings};
use kairos_platform::Platform;

/// Root RNG seed of all experiments.
pub const EXPERIMENT_SEED: u64 = 0x0DA7E2010;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchScale {
    /// Number of random application sequences per dataset (paper: 30).
    pub sequences: usize,
    /// Applications generated per dataset before filtering (paper: 100).
    pub apps_per_dataset: usize,
}

impl BenchScale {
    /// Reads the scale from the environment: paper scale when
    /// `KAIROS_PAPER_SCALE=1`, quick scale otherwise.
    pub fn from_env() -> BenchScale {
        if std::env::var("KAIROS_PAPER_SCALE").map(|v| v == "1").unwrap_or(false) {
            BenchScale { sequences: 30, apps_per_dataset: 100 }
        } else {
            BenchScale { sequences: 8, apps_per_dataset: 100 }
        }
    }
}

/// Outcome of one admission attempt within a sequence run.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceOutcome {
    /// 1-based position in the sequence.
    pub position: usize,
    /// Number of tasks of the attempted application.
    pub app_tasks: usize,
    /// Success statistics, or the rejecting phase.
    pub result: Result<AdmissionStats, Phase>,
    /// External platform fragmentation after the attempt.
    pub fragmentation_after: f64,
}

/// Statistics of one successful admission.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionStats {
    /// Wall-clock per-phase timings.
    pub timings: PhaseTimings,
    /// Mean hops per channel of the resulting layout.
    pub avg_hops: f64,
    /// Channel count of the application.
    pub channels: usize,
}

/// Generates a dataset and filters out "extraneous samples": applications
/// that cannot be allocated on an *empty* platform (paper §IV). Returns the
/// surviving applications and the original count.
pub fn filtered_dataset(
    spec: DatasetSpec,
    scale: BenchScale,
    platform: &Platform,
    config: &KairosConfig,
) -> (Vec<Application>, usize) {
    let raw = generate_dataset(spec, scale.apps_per_dataset, EXPERIMENT_SEED ^ spec_seed(spec));
    let total = raw.len();
    let survivors = raw
        .into_iter()
        .filter(|app| {
            let mut probe = Kairos::new(platform.clone(), *config);
            probe.admit(app).is_ok()
        })
        .collect();
    (survivors, total)
}

fn spec_seed(spec: DatasetSpec) -> u64 {
    // Stable per-dataset stream: FNV-1a over the display name.
    spec.name()
        .bytes()
        .fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Deterministic random visit orders for sequence experiments.
pub fn shuffled_orders(n_apps: usize, n_sequences: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_sequences)
        .map(|_| {
            let mut order: Vec<usize> = (0..n_apps).collect();
            order.shuffle(&mut rng);
            order
        })
        .collect()
}

/// Runs one admission sequence: applications are admitted one after another
/// onto a fresh manager (the platform is emptied between sequences, as in
/// the paper); nothing is released mid-sequence.
pub fn run_sequence(
    platform: &Platform,
    config: &KairosConfig,
    apps: &[Application],
    order: &[usize],
) -> Vec<SequenceOutcome> {
    let mut kairos = Kairos::new(platform.clone(), *config);
    order
        .iter()
        .enumerate()
        .map(|(i, &app_idx)| {
            let app = &apps[app_idx];
            let result = match kairos.admit(app) {
                Ok(report) => Ok(AdmissionStats {
                    timings: report.timings,
                    avg_hops: report.layout.avg_hops(),
                    channels: app.channel_count(),
                }),
                Err(failure) => Err(failure.phase()),
            };
            SequenceOutcome {
                position: i + 1,
                app_tasks: app.task_count(),
                result,
                fragmentation_after: kairos.fragmentation(),
            }
        })
        .collect()
}

/// Per-position aggregate over many sequences.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PositionAggregate {
    /// 1-based sequence position.
    pub position: usize,
    /// Attempts observed at this position.
    pub attempts: usize,
    /// Successful admissions at this position.
    pub successes: usize,
    /// Mean hops/channel over the successes (0 when none).
    pub mean_hops: f64,
    /// Mean fragmentation after the attempt.
    pub mean_fragmentation: f64,
}

impl PositionAggregate {
    /// Success rate in percent.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            100.0 * self.successes as f64 / self.attempts as f64
        }
    }
}

/// Folds sequence outcomes into per-position aggregates over the first
/// `positions` slots.
pub fn aggregate_positions(
    runs: &[Vec<SequenceOutcome>],
    positions: usize,
) -> Vec<PositionAggregate> {
    let mut out: Vec<PositionAggregate> = (0..positions)
        .map(|i| PositionAggregate { position: i + 1, ..PositionAggregate::default() })
        .collect();
    for run in runs {
        for outcome in run.iter().take(positions) {
            let slot = &mut out[outcome.position - 1];
            slot.attempts += 1;
            slot.mean_fragmentation += outcome.fragmentation_after;
            if let Ok(stats) = &outcome.result {
                slot.successes += 1;
                slot.mean_hops += stats.avg_hops;
            }
        }
    }
    for slot in &mut out {
        if slot.successes > 0 {
            slot.mean_hops /= slot.successes as f64;
        }
        if slot.attempts > 0 {
            slot.mean_fragmentation /= slot.attempts as f64;
        }
    }
    out
}

/// Failure counts per phase plus successes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureHistogram {
    /// Successful admissions.
    pub successes: usize,
    /// Rejections per phase, indexed by `phase as usize` (pipeline order).
    pub rejected: [usize; 4],
}

impl FailureHistogram {
    /// Adds one outcome.
    pub fn record(&mut self, outcome: &SequenceOutcome) {
        match outcome.result {
            Ok(_) => self.successes += 1,
            Err(phase) => self.rejected[phase as usize] += 1,
        }
    }

    /// Total rejected attempts.
    pub fn failures(&self) -> usize {
        self.rejected.iter().sum()
    }

    /// The failure share of `phase`, in percent of all failures
    /// (Table I's "failure distribution").
    pub fn share(&self, phase: Phase) -> f64 {
        let failures = self.failures();
        if failures == 0 {
            return 0.0;
        }
        100.0 * self.rejected[phase as usize] as f64 / failures as f64
    }
}

/// Mean per-phase timings bucketed by application task count, the data
/// behind Fig. 7.
#[derive(Debug, Clone, Default)]
pub struct RuntimeBySize {
    totals: std::collections::BTreeMap<usize, (PhaseTimings, u32)>,
}

impl RuntimeBySize {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful admission.
    pub fn record(&mut self, tasks: usize, timings: &PhaseTimings) {
        let slot = self.totals.entry(tasks).or_insert((PhaseTimings::default(), 0));
        slot.0.accumulate(timings);
        slot.1 += 1;
    }

    /// `(task count, mean timings, samples)` rows in ascending size order.
    pub fn rows(&self) -> Vec<(usize, PhaseTimings, u32)> {
        self.totals
            .iter()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(&tasks, &(totals, n))| (tasks, totals.mean_of(n), n))
            .collect()
    }
}

/// Prints a markdown-style table with a title and header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_platform::topology;

    #[test]
    fn shuffled_orders_are_permutations_and_deterministic() {
        let a = shuffled_orders(10, 3, 1);
        let b = shuffled_orders(10, 3, 1);
        assert_eq!(a, b);
        for order in &a {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
        assert_ne!(shuffled_orders(10, 1, 1), shuffled_orders(10, 1, 2));
    }

    #[test]
    fn sequence_runs_saturate_and_aggregate() {
        let scale = BenchScale { sequences: 2, apps_per_dataset: 12 };
        let platform = topology::crisp();
        let config = KairosConfig::default();
        let spec = DatasetSpec::all()[3]; // Computation Small
        let (apps, total) = filtered_dataset(spec, scale, &platform, &config);
        assert_eq!(total, 12);
        assert!(!apps.is_empty(), "some computation-small apps must be mappable");
        let orders = shuffled_orders(apps.len(), scale.sequences, 7);
        let runs: Vec<_> =
            orders.iter().map(|o| run_sequence(&platform, &config, &apps, o)).collect();
        let mut histogram = FailureHistogram::default();
        for run in &runs {
            for outcome in run {
                histogram.record(outcome);
            }
        }
        assert_eq!(histogram.successes + histogram.failures(), apps.len() * scale.sequences);
        let agg = aggregate_positions(&runs, apps.len().min(5));
        assert_eq!(agg[0].attempts, scale.sequences);
        assert!(agg[0].success_rate() > 0.0, "first app on an empty platform admits");
    }

    #[test]
    fn runtime_by_size_averages() {
        let mut r = RuntimeBySize::new();
        let t = PhaseTimings {
            binding: std::time::Duration::from_millis(2),
            ..PhaseTimings::default()
        };
        r.record(5, &t);
        r.record(5, &t);
        let rows = r.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, 5);
        assert_eq!(rows[0].1.binding, std::time::Duration::from_millis(2));
        assert_eq!(rows[0].2, 2);
    }

    #[test]
    fn histogram_shares_sum_to_100() {
        let h = FailureHistogram { rejected: [3, 0, 7, 0], ..FailureHistogram::default() };
        let sum: f64 = Phase::ALL.iter().map(|&p| h.share(p)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(FailureHistogram::default().share(Phase::Binding), 0.0);
    }
}
