//! The untraced run: set-up, warm-up, timed passes, the correctness gate
//! and the eight end-to-end metrics.
//!
//! A run draws `SEQUENCES` storms from its seed and replays each of them
//! once per *pass*. Several sequences, because per-request cost is
//! heavy-tailed and state-dependent: one sequence of two thousand
//! admissions moved `ops_per_s` by a tenth from seed to seed. Several
//! passes, because request *i* of a sequence is the same computation in
//! every replay, so the median across replays removes host hiccups and
//! keeps the algorithmic tail — and the event digests of a sequence's
//! replays must be equal, which proves the alignment.

use std::time::Instant;

use kairos::platform::Platform;

use crate::calib::{self, CalClock};
use crate::drive::{build_stack, run_round, Counts, Round};
use crate::host;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::storm::{self, Catalogue, SplitMix, Step};
use crate::tables::{Workload, MIN_PASSES, SEQUENCES, SETUP_REPS};

/// Everything a run needs before its first round.
pub struct Prepared {
    pub platform: Platform,
    pub catalogue: Catalogue,
    /// The storms of the run, all over the one catalogue.
    pub sequences: Vec<Vec<Step>>,
    /// Calibrated nanoseconds of one deterministic set-up pass (median
    /// over the repetitions).
    pub setup_ns: f64,
}

/// The deterministic part of set-up: platform construction, catalogue
/// generation, the extraneous-sample filter, sequence scripting and one
/// stack construction, each stage bracketed by kernel samples.
fn setup_once(workload: &Workload, seed: u64, sequences: usize) -> Prepared {
    let mut clock: CalClock<1> = CalClock::start();
    let platform = clock.stage(0, || storm::build_platform(workload.platform));
    let pool = clock.stage(0, || storm::generate_pool(workload));
    let generated = pool.len();
    // The filter is the long stage; it runs in slices so each slice is
    // scaled by kernel samples taken right next to it.
    let mut apps = Vec::with_capacity(pool.len());
    let mut pool = pool.into_iter().peekable();
    while pool.peek().is_some() {
        let slice: Vec<_> = pool.by_ref().take(64).collect();
        apps.extend(clock.stage(0, || storm::filter_pool(slice, &platform)));
    }
    let mut seeds = SplitMix::new(seed);
    let sequences = clock.stage(0, || {
        (0..sequences)
            .map(|_| storm::script(workload, &apps, platform.element_count(), seeds.next()))
            .collect()
    });
    clock.stage(0, || drop(build_stack(workload, platform.clone(), None)));
    Prepared {
        platform,
        catalogue: Catalogue { apps, generated },
        sequences,
        setup_ns: clock.calibrated[0],
    }
}

pub fn prepare(workload: &Workload, seed: u64, sequences: usize, reps: usize) -> Prepared {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous pass first: one pass alive at a time, so
        // repeating set-up does not inflate the peak resident set.
        drop(last.take());
        let pass = setup_once(workload, seed, sequences);
        times.push(pass.setup_ns);
        last = Some(pass);
    }
    let mut prepared = last.expect("at least one set-up pass");
    prepared.setup_ns = median(&times);
    prepared
}

/// One round of `workload`: sequence `sequence` through a freshly built
/// stack of its own.
pub fn round(
    workload: &Workload,
    prepared: &Prepared,
    sequence: usize,
    tracer: Option<&Tracer>,
) -> Round {
    let outer = build_stack(workload, prepared.platform.clone(), tracer);
    run_round(workload, &prepared.catalogue.apps, &prepared.sequences[sequence], outer, tracer)
}

/// Violations of the per-round correctness conditions; any one fails the
/// run. `first` is the sequence's first replay.
pub fn check_round(steps: &[Step], counts: &Counts, first: &Counts) -> Vec<String> {
    let mut violations = Vec::new();
    if counts.digest != first.digest {
        violations.push(format!(
            "event digest {:016x} differs from the first replay's {:016x}",
            counts.digest, first.digest
        ));
    } else if counts != first {
        violations.push("exact counters differ from the first replay's".to_owned());
    }
    if counts.terminal_violations > 0 {
        violations.push(format!(
            "{} ticket(s) did not reach exactly one terminal event",
            counts.terminal_violations
        ));
    }
    if !counts.idle_after_drain {
        violations.push("platform not idle after the end-of-round drain".to_owned());
    }
    if counts.attempted != storm::admits(steps) as u64 {
        violations.push(format!(
            "{} admissions attempted, {} scripted",
            counts.attempted,
            storm::admits(steps)
        ));
    }
    violations
}

/// Violations of the workload's regime, checked once per run on the
/// counters summed over its sequences.
pub fn check_regime(workload: &Workload, counts: &Counts) -> Vec<String> {
    let mut violations = Vec::new();
    let share = counts.reject_share();
    if !(0.3..=0.6).contains(&share) {
        violations.push(format!("reject_share {share:.4} outside 0.3..=0.6"));
    }
    if counts.hops == 0 || counts.frag_sum == 0.0 {
        violations.push("hops_per_channel or frag_mean is zero".to_owned());
    }
    if workload.recurring.is_some() {
        let ratio = counts.cache.map_or(0.0, |c| hit_ratio(c.hits, c.misses));
        if ratio < 0.5 {
            violations.push(format!("opcache.hit_ratio {ratio:.4} below 0.5"));
        }
    }
    violations
}

pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The replays of one sequence.
pub struct Replays {
    /// The sequence's exact results (equal in every replay).
    pub counts: Counts,
    pub rounds: Vec<Round>,
}

/// The measured rounds of a run.
pub struct Measured {
    pub sequences: Vec<Replays>,
    /// The exact results summed over the sequences.
    pub counts: Counts,
    pub violations: Vec<String>,
}

impl Measured {
    pub fn rounds(&self) -> impl Iterator<Item = &Round> {
        self.sequences.iter().flat_map(|s| &s.rounds)
    }

    pub fn round_count(&self) -> usize {
        self.rounds().count()
    }

    /// Admissions over seconds, each sequence entering with the median of
    /// its replays' times.
    fn rate(&self, time_ns: impl Fn(&Round) -> f64) -> f64 {
        let total_ns: f64 = self
            .sequences
            .iter()
            .map(|s| median(&s.rounds.iter().map(&time_ns).collect::<Vec<_>>()))
            .sum();
        self.counts.attempted as f64 / (total_ns / 1e9)
    }

    /// Admissions resolved per calibrated second.
    pub fn ops_per_s(&self) -> f64 {
        self.rate(|r| r.timings.round_ns)
    }

    /// The same, as the host measured it.
    pub fn raw_ops_per_s(&self) -> f64 {
        self.rate(|r| r.timings.raw_round_ns)
    }

    /// Calibrated latency of every request of every sequence, in
    /// microseconds: the median across the sequence's replays.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.sequences
            .iter()
            .flat_map(|s| {
                (0..s.rounds[0].timings.latency_us.len()).map(|i| {
                    median(&s.rounds.iter().map(|r| r.timings.latency_us[i]).collect::<Vec<_>>())
                })
            })
            .collect()
    }

    /// Median over all windows of all rounds of `kernel / K_REF`.
    pub fn calib_factor(&self) -> f64 {
        let samples: Vec<f64> = self
            .rounds()
            .flat_map(|r| r.timings.kernel_ns.iter().map(|k| k / calib::K_REF_NS))
            .collect();
        median(&samples)
    }
}

/// Collects rounds into a [`Measured`], checking every replay against its
/// sequence's first.
pub struct Collector<'a> {
    workload: &'a Workload,
    prepared: &'a Prepared,
    sequences: Vec<Option<Replays>>,
    violations: Vec<String>,
}

impl<'a> Collector<'a> {
    pub fn new(workload: &'a Workload, prepared: &'a Prepared) -> Self {
        let sequences = prepared.sequences.iter().map(|_| None).collect();
        Collector { workload, prepared, sequences, violations: Vec::new() }
    }

    /// Checks a round that is not measured (a warm-up, a traced round)
    /// and makes it the sequence's reference if it has none yet.
    pub fn check(&mut self, sequence: usize, counts: &Counts, label: &str) {
        let replays = self.sequences[sequence]
            .get_or_insert_with(|| Replays { counts: counts.clone(), rounds: Vec::new() });
        for violation in check_round(&self.prepared.sequences[sequence], counts, &replays.counts) {
            self.violations.push(format!("sequence {sequence}, {label}: {violation}"));
        }
    }

    pub fn push(&mut self, sequence: usize, round: Round) {
        let replay = self.sequences[sequence].as_ref().map_or(1, |s| s.rounds.len() + 1);
        self.check(sequence, &round.counts, &format!("replay {replay}"));
        self.sequences[sequence].as_mut().expect("set by check").rounds.push(round);
    }

    pub fn finish(mut self) -> Measured {
        let sequences: Vec<Replays> =
            self.sequences.into_iter().flatten().filter(|s| !s.rounds.is_empty()).collect();
        let mut counts = sequences[0].counts.clone();
        for sequence in &sequences[1..] {
            counts.add(&sequence.counts);
        }
        self.violations.extend(check_regime(self.workload, &counts));
        Measured { sequences, counts, violations: self.violations }
    }
}

/// The result of an untraced run.
pub struct EndToEnd {
    pub measured: Measured,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub admit_p50_us: f64,
    pub admit_p99_us: f64,
    pub latency_samples: usize,
    pub peak_rss_mb: f64,
    pub generated: usize,
    pub catalogue: usize,
    pub passes: usize,
}

impl EndToEnd {
    /// `(name, value)` for every end-to-end metric.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let counts = &self.measured.counts;
        vec![
            ("setup_s", self.setup_s),
            ("ops_per_s", self.ops_per_s),
            ("admit_p50_us", self.admit_p50_us),
            ("admit_p99_us", self.admit_p99_us),
            ("reject_share", counts.reject_share()),
            ("hops_per_channel", counts.hops_per_channel()),
            ("frag_mean", counts.frag_mean()),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

pub fn run(workload: &Workload, seed: u64, seconds: f64) -> EndToEnd {
    let prepared = prepare(workload, seed, SEQUENCES, SETUP_REPS);
    let mut collector = Collector::new(workload, &prepared);

    // Warm-up: one untimed round, the last stretch of set-up. Its share
    // of `setup_s` is its wall time less the kernel samples, scaled by the
    // round's own time-weighted mean scale.
    let start = Instant::now();
    let warm = round(workload, &prepared, 0, None);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let kernel_ns: f64 = warm.timings.kernel_ns.iter().sum();
    let warm_ns =
        (wall_ns - kernel_ns).max(0.0) * warm.timings.round_ns / warm.timings.raw_round_ns;
    let setup_s = (prepared.setup_ns + warm_ns) / 1e9;
    collector.check(0, &warm.counts, "warm-up");

    // Timed passes: every sequence once a pass, until the time is up (a
    // further pass starts only if at least half of it still fits).
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES
        || started.elapsed().as_secs_f64() * (1.0 + 0.5 / passes as f64) < seconds
    {
        for sequence in 0..prepared.sequences.len() {
            collector.push(sequence, round(workload, &prepared, sequence, None));
        }
        passes += 1;
    }
    let measured = collector.finish();
    let latencies = measured.latencies_us();
    EndToEnd {
        setup_s,
        ops_per_s: measured.ops_per_s(),
        admit_p50_us: median(&latencies),
        admit_p99_us: percentile(&latencies, 99.0),
        latency_samples: latencies.len(),
        peak_rss_mb: host::peak_rss_mb(),
        generated: prepared.catalogue.generated,
        catalogue: prepared.catalogue.apps.len(),
        passes,
        measured,
    }
}
