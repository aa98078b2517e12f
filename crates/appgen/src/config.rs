//! Generator parameters.
//!
//! Mirrors the knobs of the paper's in-house TGFF-like tool (§IV): "the
//! structure of an application can be specified with a number of input,
//! internal, and output tasks. Also the maximum in-degree and out-degree of
//! tasks gives direction to the generated communication structure. For each
//! task, we generate a number of task implementations, annotated with
//! bounded random resource requirements."

use std::ops::RangeInclusive;

/// Maximum in-degree of any generated task.
pub(crate) const MAX_IN_DEGREE: u32 = 3;
/// Maximum out-degree of any generated task (the dangling-source fix may
/// add one more).
pub(crate) const MAX_OUT_DEGREE: u32 = 3;
/// Number of alternative implementations per internal task.
pub(crate) const IMPLEMENTATIONS_PER_TASK: RangeInclusive<u32> = 1..=3;
/// Worst-case execution cycles per firing.
pub(crate) const EXEC_CYCLES: RangeInclusive<u64> = 50..=500;
/// Energy cost per firing (the binding objective).
pub(crate) const ENERGY: RangeInclusive<u64> = 1..=100;

/// Parameters of the synthetic application generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of input (source) tasks.
    pub input_tasks: RangeInclusive<u32>,
    /// Number of internal (processing) tasks.
    pub internal_tasks: RangeInclusive<u32>,
    /// Number of output (sink) tasks.
    pub output_tasks: RangeInclusive<u32>,
    /// Task resource demand as a fraction of the target element kind's
    /// reference capacity, in percent (the paper's 70–100% computation /
    /// 10–70% communication bands).
    pub resource_percent: RangeInclusive<u32>,
    /// Channel bandwidth demand range.
    pub channel_bandwidth: RangeInclusive<u64>,
    /// Probability that an input (output) task is pinned to the FPGA (ARM)
    /// front-end by a single dedicated implementation; unpinned I/O tasks
    /// target the DSPs like internal tasks. Pinned I/O stubs claim a light
    /// 10-30% slice of their host regardless of the orientation band.
    pub io_pin_probability: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            input_tasks: 1..=1,
            internal_tasks: 2..=6,
            output_tasks: 1..=1,
            resource_percent: 10..=70,
            channel_bandwidth: 50..=300,
            io_pin_probability: 0.25,
        }
    }
}

impl GeneratorConfig {
    /// Maximum total task count this configuration can produce.
    pub fn max_tasks(&self) -> u32 {
        self.input_tasks.end() + self.internal_tasks.end() + self.output_tasks.end()
    }

    /// Minimum total task count this configuration can produce.
    pub fn min_tasks(&self) -> u32 {
        self.input_tasks.start() + self.internal_tasks.start() + self.output_tasks.start()
    }

    /// Basic sanity checks on the ranges.
    ///
    /// # Panics
    ///
    /// Panics when a range is empty or the resource percentage is zero or
    /// exceeds 100.
    pub fn validate(&self) {
        assert!(!self.input_tasks.is_empty(), "input task range must be non-empty");
        assert!(!self.internal_tasks.is_empty(), "internal task range must be non-empty");
        assert!(!self.output_tasks.is_empty(), "output task range must be non-empty");
        assert!(*self.resource_percent.end() <= 100, "resource percent is capped at 100");
        assert!(*self.resource_percent.start() > 0, "resource percent must be positive");
        assert!(
            (0.0..=1.0).contains(&self.io_pin_probability),
            "io_pin_probability must be a probability"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = GeneratorConfig::default();
        c.validate();
        assert_eq!(c.min_tasks(), 4);
        assert_eq!(c.max_tasks(), 8);
    }

    #[test]
    #[should_panic(expected = "capped at 100")]
    fn overlarge_fraction_panics() {
        let c = GeneratorConfig { resource_percent: 50..=150, ..GeneratorConfig::default() };
        c.validate();
    }
}
