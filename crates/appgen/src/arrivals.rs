//! Arrival-process sampling for long-running multi-application workloads.
//!
//! The paper evaluates one-shot admission sequences; run-time management is
//! really about applications *arriving and leaving over time*. This module
//! provides the reusable sampling layer for such workloads: a weighted
//! mixture over the Table-I datasets ([`WorkloadMix`]) and a seeded sampler
//! ([`WorkloadSampler`]) drawing applications, exponential inter-arrival
//! gaps and exponential lifetimes from it. The `kairos-sim` discrete-event
//! engine is the primary consumer.
//!
//! Everything is deterministic in the seed, like the rest of this crate.

use kairos_app::Application;

use crate::datasets::DatasetSpec;
use crate::generator::AppGenerator;
use crate::rng::Xoshiro256;

/// The shape of an inter-arrival (or lifetime) delay distribution.
///
/// The paper's evaluation is purely Poissonian; real traffic is often
/// anything but. `Deterministic` models periodic sources (sensor frames,
/// fixed-rate codecs), `Pareto` models heavy-tailed bursts where rare long
/// gaps separate dense clumps of arrivals — the regime that stresses
/// admission queues hardest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalDistribution {
    /// Memoryless exponential gaps (Poisson arrivals) — the default.
    #[default]
    Exponential,
    /// Every gap is exactly the mean: a strictly periodic source.
    Deterministic,
    /// Heavy-tailed Pareto gaps with shape `alpha_centi / 100`.
    ///
    /// The scale is derived from the requested mean, so the long-run rate
    /// matches the other distributions; the shape controls burstiness
    /// (values just above 100 are extremely bursty). Must be `> 100` so
    /// the mean exists.
    Pareto {
        /// Tail shape α in hundredths (e.g. `150` ⇒ α = 1.5).
        alpha_centi: u32,
    },
}

/// One weighted component of a [`WorkloadMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixEntry {
    /// The dataset applications of this component are drawn from.
    pub spec: DatasetSpec,
    /// Relative weight of the component within the mixture.
    pub weight: u32,
}

impl MixEntry {
    /// A component of `spec` with `weight`.
    pub fn new(spec: DatasetSpec, weight: u32) -> Self {
        MixEntry { spec, weight }
    }
}

/// A weighted mixture over application datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMix {
    entries: Vec<MixEntry>,
}

impl WorkloadMix {
    /// A mixture over `entries`.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is empty or all weights are zero.
    pub fn new(entries: Vec<MixEntry>) -> Self {
        assert!(!entries.is_empty(), "workload mix needs at least one component");
        assert!(entries.iter().any(|e| e.weight > 0), "workload mix needs a positive weight");
        WorkloadMix { entries }
    }

    /// A uniform mixture over the given datasets.
    pub fn uniform(specs: impl IntoIterator<Item = DatasetSpec>) -> Self {
        WorkloadMix::new(specs.into_iter().map(|spec| MixEntry::new(spec, 1)).collect())
    }

    /// A uniform mixture over all six Table-I datasets.
    pub fn all_datasets() -> Self {
        WorkloadMix::uniform(DatasetSpec::all())
    }

    /// The mixture components.
    pub fn entries(&self) -> &[MixEntry] {
        &self.entries
    }

    fn total_weight(&self) -> u64 {
        self.entries.iter().map(|e| e.weight as u64).sum()
    }
}

/// Seeded sampler of application arrivals from a [`WorkloadMix`].
///
/// # Examples
///
/// ```
/// use kairos_appgen::{WorkloadMix, WorkloadSampler};
///
/// let mut sampler = WorkloadSampler::new("w", WorkloadMix::all_datasets(), 7);
/// let app = sampler.next_app();
/// let gap = sampler.next_delay(50);
/// assert!(gap >= 1);
/// // Same seed, same stream:
/// let mut again = WorkloadSampler::new("w", WorkloadMix::all_datasets(), 7);
/// assert_eq!(app, again.next_app());
/// assert_eq!(gap, again.next_delay(50));
/// ```
#[derive(Debug)]
pub struct WorkloadSampler {
    label: String,
    mix: WorkloadMix,
    rng: Xoshiro256,
    generated: u64,
}

impl WorkloadSampler {
    /// A sampler drawing from `mix`, deterministic in `seed`. Generated
    /// applications are named `<label>-<n>`.
    pub fn new(label: impl Into<String>, mix: WorkloadMix, seed: u64) -> Self {
        WorkloadSampler { label: label.into(), mix, rng: Xoshiro256::new(seed), generated: 0 }
    }

    /// Number of applications drawn so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Draws the next application: picks a mixture component by weight, then
    /// generates one application from a sub-generator seeded off this
    /// sampler's stream.
    pub fn next_app(&mut self) -> Application {
        let mut pick = self.rng.gen_range(0..=self.mix.total_weight() - 1);
        let mut spec = self.mix.entries()[0].spec;
        for entry in self.mix.entries() {
            if pick < entry.weight as u64 {
                spec = entry.spec;
                break;
            }
            pick -= entry.weight as u64;
        }
        let sub_seed = self.rng.gen_range(0..=u64::MAX - 1);
        let name = format!("{}-{}", self.label, self.generated);
        self.generated += 1;
        AppGenerator::new(spec.generator_config(), sub_seed).generate(name)
    }

    /// Draws an exponentially distributed delay with the given mean
    /// (inter-arrival gap or lifetime), rounded up to at least one tick.
    ///
    /// # Panics
    ///
    /// Panics when `mean` is zero.
    pub fn next_delay(&mut self, mean: u64) -> u64 {
        self.next_delay_with(ArrivalDistribution::Exponential, mean)
    }

    /// Draws a delay from `dist` with the given mean, rounded up to at
    /// least one tick. `Deterministic` consumes no randomness; the others
    /// consume exactly one draw, so swapping distributions between phases
    /// does not perturb unrelated streams.
    ///
    /// # Panics
    ///
    /// Panics when `mean` is zero, or when a Pareto shape is `<= 100`
    /// (the mean would diverge).
    pub fn next_delay_with(&mut self, dist: ArrivalDistribution, mean: u64) -> u64 {
        assert!(mean > 0, "delay distribution needs a positive mean");
        let delay = match dist {
            ArrivalDistribution::Deterministic => return mean.max(1),
            ArrivalDistribution::Exponential => {
                let u = self.rng.next_f64();
                -(1.0 - u).ln() * mean as f64
            }
            ArrivalDistribution::Pareto { alpha_centi } => {
                assert!(alpha_centi > 100, "Pareto shape must exceed 1.00 for a finite mean");
                let alpha = alpha_centi as f64 / 100.0;
                // Scale x_m chosen so E[X] = alpha * x_m / (alpha - 1) = mean.
                let scale = mean as f64 * (alpha - 1.0) / alpha;
                let u = self.rng.next_f64();
                scale / (1.0 - u).powf(1.0 / alpha)
            }
        };
        (delay.ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Orientation, SizeClass};

    #[test]
    fn sampler_is_deterministic_in_seed() {
        let mix = WorkloadMix::all_datasets();
        let mut a = WorkloadSampler::new("s", mix.clone(), 11);
        let mut b = WorkloadSampler::new("s", mix.clone(), 11);
        for _ in 0..10 {
            assert_eq!(a.next_app(), b.next_app());
            assert_eq!(a.next_delay(30), b.next_delay(30));
        }
        let mut c = WorkloadSampler::new("s", mix, 12);
        let differs = (0..10).any(|_| a.next_app() != c.next_app());
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn app_names_are_unique_and_labelled() {
        let mut s = WorkloadSampler::new("web", WorkloadMix::all_datasets(), 0);
        let names: Vec<String> = (0..5).map(|_| s.next_app().name().to_owned()).collect();
        assert_eq!(s.generated(), 5);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(name, &format!("web-{i}"));
        }
    }

    #[test]
    fn weighted_mix_respects_zero_weights() {
        let only = DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Small };
        let ignored =
            DatasetSpec { orientation: Orientation::Communication, size: SizeClass::Large };
        let mix = WorkloadMix::new(vec![MixEntry::new(only, 3), MixEntry::new(ignored, 0)]);
        let mut s = WorkloadSampler::new("z", mix, 5);
        let (lo, hi) = only.size.task_bounds();
        for _ in 0..20 {
            let app = s.next_app();
            let n = app.task_count() as u32;
            assert!(n >= lo && n <= hi, "only the weighted component may be drawn");
        }
    }

    #[test]
    fn exponential_delays_have_roughly_the_requested_mean() {
        let mut s = WorkloadSampler::new("d", WorkloadMix::all_datasets(), 1);
        let n = 4000u64;
        let sum: u64 = (0..n).map(|_| s.next_delay(40)).sum();
        let mean = sum as f64 / n as f64;
        assert!((30.0..50.0).contains(&mean), "mean {mean} too far from 40");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mix_is_rejected() {
        WorkloadMix::new(Vec::new());
    }

    #[test]
    fn deterministic_delays_are_exactly_the_mean() {
        let mut s = WorkloadSampler::new("d", WorkloadMix::all_datasets(), 1);
        for mean in [1u64, 7, 40, 1000] {
            assert_eq!(s.next_delay_with(ArrivalDistribution::Deterministic, mean), mean);
        }
        // And no randomness is consumed: the exponential stream after a
        // deterministic draw matches a fresh sampler's first draw.
        let mut a = WorkloadSampler::new("d", WorkloadMix::all_datasets(), 2);
        let mut b = WorkloadSampler::new("d", WorkloadMix::all_datasets(), 2);
        a.next_delay_with(ArrivalDistribution::Deterministic, 9);
        assert_eq!(a.next_delay(30), b.next_delay(30));
    }

    #[test]
    fn pareto_delays_match_the_requested_mean_roughly() {
        let mut s = WorkloadSampler::new("p", WorkloadMix::all_datasets(), 3);
        let dist = ArrivalDistribution::Pareto { alpha_centi: 250 };
        let n = 20_000u64;
        let draws: Vec<u64> = (0..n).map(|_| s.next_delay_with(dist, 40)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / n as f64;
        assert!((30.0..55.0).contains(&mean), "mean {mean} too far from 40");
        // Heavy tail: the maximum dwarfs the mean far more than the
        // deterministic distribution ever could.
        assert!(*draws.iter().max().unwrap() > 200, "tail draws should exceed 5x the mean");
        assert!(draws.iter().all(|&d| d >= 1));
    }

    #[test]
    fn pareto_is_deterministic_in_seed() {
        let dist = ArrivalDistribution::Pareto { alpha_centi: 150 };
        let mut a = WorkloadSampler::new("p", WorkloadMix::all_datasets(), 9);
        let mut b = WorkloadSampler::new("p", WorkloadMix::all_datasets(), 9);
        for _ in 0..50 {
            assert_eq!(a.next_delay_with(dist, 25), b.next_delay_with(dist, 25));
        }
    }

    #[test]
    #[should_panic(expected = "shape must exceed")]
    fn pareto_shape_at_or_below_one_is_rejected() {
        let mut s = WorkloadSampler::new("p", WorkloadMix::all_datasets(), 1);
        s.next_delay_with(ArrivalDistribution::Pareto { alpha_centi: 100 }, 10);
    }

    #[test]
    fn distribution_names_are_stable() {
        assert_eq!(ArrivalDistribution::default(), ArrivalDistribution::Exponential);
    }
}
