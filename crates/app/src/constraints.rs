//! Performance constraints attached to an application specification.
//!
//! The validation phase of the paper checks throughput constraints by SDF
//! state-space analysis and, following Moreira & Bekooij (cited as [12]),
//! *expresses latency constraints as throughput constraints* before checking.

use std::fmt;

/// A performance constraint from the application specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// The application must complete at least one graph iteration every
    /// `max_period_cycles` cycles (throughput ≥ 1/period).
    Throughput {
        /// Maximum steady-state period, in abstract cycles per iteration.
        max_period_cycles: u64,
    },
    /// End-to-end latency bound over `pipeline_depth` concurrently
    /// in-flight iterations.
    Latency {
        /// Maximum source-to-sink latency, in abstract cycles.
        max_latency_cycles: u64,
        /// Number of iterations in flight (pipelining degree).
        pipeline_depth: u32,
    },
}

impl Constraint {
    /// Converts this constraint to the maximum steady-state period it
    /// permits, in cycles per iteration.
    ///
    /// For a self-timed schedule with `d` iterations in flight, a latency
    /// bound `L` implies a period bound `L / d` (Moreira & Bekooij): each new
    /// iteration starts one period after the previous one, and the d-deep
    /// pipeline must drain within the latency budget.
    ///
    /// # Panics
    ///
    /// Panics when a latency constraint has `pipeline_depth == 0`, which
    /// no built [`Application`](crate::Application) carries: the builder
    /// refuses it with [`ApplicationError::ZeroPipelineDepth`](crate::ApplicationError::ZeroPipelineDepth).
    pub fn as_max_period_cycles(&self) -> u64 {
        match *self {
            Constraint::Throughput { max_period_cycles } => max_period_cycles,
            Constraint::Latency { max_latency_cycles, pipeline_depth } => {
                assert!(pipeline_depth > 0, "pipeline depth must be positive");
                max_latency_cycles / pipeline_depth as u64
            }
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Throughput { max_period_cycles } => {
                write!(f, "throughput: period <= {max_period_cycles} cycles")
            }
            Constraint::Latency { max_latency_cycles, pipeline_depth } => {
                write!(f, "latency <= {max_latency_cycles} cycles over {pipeline_depth} iterations")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_period_is_identity() {
        let c = Constraint::Throughput { max_period_cycles: 1234 };
        assert_eq!(c.as_max_period_cycles(), 1234);
    }

    #[test]
    fn latency_converts_to_period() {
        let c = Constraint::Latency { max_latency_cycles: 1000, pipeline_depth: 4 };
        assert_eq!(c.as_max_period_cycles(), 250);
        let tight = Constraint::Latency { max_latency_cycles: 999, pipeline_depth: 1000 };
        assert_eq!(tight.as_max_period_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn zero_depth_panics() {
        let c = Constraint::Latency { max_latency_cycles: 10, pipeline_depth: 0 };
        let _ = c.as_max_period_cycles();
    }

    #[test]
    fn display_is_readable() {
        let c = Constraint::Throughput { max_period_cycles: 5 };
        assert!(c.to_string().contains("period"));
        let l = Constraint::Latency { max_latency_cycles: 10, pipeline_depth: 2 };
        assert!(l.to_string().contains("latency"));
    }
}
