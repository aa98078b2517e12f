//! The TGFF-like synthetic application generator.
//!
//! Produces layered stream graphs: input tasks (pinned to the FPGA front-end
//! by their single implementation), internal processing tasks (DSP with
//! occasional ARM alternatives), and output tasks (pinned to the ARM host).
//! Channels flow strictly from earlier to later layers, bounded by the
//! configured in/out-degrees, so generated graphs are acyclic streaming
//! pipelines like the paper's.

use std::ops::RangeInclusive;

use kairos_app::{Application, ApplicationBuilder, Implementation, TaskId, TaskRole};
use kairos_platform::topology::default_capacity;
use kairos_platform::ElementKind;

use crate::config::{
    GeneratorConfig, ENERGY, EXEC_CYCLES, IMPLEMENTATIONS_PER_TASK, MAX_IN_DEGREE, MAX_OUT_DEGREE,
};
use crate::rng::Xoshiro256;

/// Seeded generator of synthetic applications.
///
/// # Examples
///
/// ```
/// use kairos_appgen::{AppGenerator, GeneratorConfig};
///
/// let mut generator = AppGenerator::new(GeneratorConfig::default(), 42);
/// let app = generator.generate("demo");
/// assert!(app.task_count() >= 4);
/// // Same seed, same sequence:
/// let mut again = AppGenerator::new(GeneratorConfig::default(), 42);
/// assert_eq!(app, again.generate("demo"));
/// ```
#[derive(Debug)]
pub struct AppGenerator {
    config: GeneratorConfig,
    rng: Xoshiro256,
}

impl AppGenerator {
    /// Creates a generator with the given configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`GeneratorConfig::validate`].
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        config.validate();
        AppGenerator { config, rng: Xoshiro256::new(seed) }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    fn demand(&mut self, kind: ElementKind) -> kairos_platform::ResourceVector {
        let percent = draw(&mut self.rng, &self.config.resource_percent);
        default_capacity(kind).scaled(percent as u64, 100)
    }

    fn implementation(&mut self, kind: ElementKind) -> Implementation {
        let requires = self.demand(kind);
        let exec = self.rng.gen_range(EXEC_CYCLES);
        let energy = self.rng.gen_range(ENERGY);
        Implementation::new(kind, requires, exec, energy)
    }

    /// A pinned I/O stub: light fixed slice of the FPGA/ARM front-end,
    /// independent of the orientation band.
    fn io_stub(&mut self, kind: ElementKind) -> Implementation {
        let percent = self.rng.gen_range(10..=30);
        let requires = default_capacity(kind).scaled(percent, 100);
        let exec = self.rng.gen_range(EXEC_CYCLES);
        let energy = self.rng.gen_range(ENERGY);
        Implementation::new(kind, requires, exec, energy)
    }

    /// Generates one application.
    pub fn generate(&mut self, name: impl Into<String>) -> Application {
        let n_in = draw(&mut self.rng, &self.config.input_tasks);
        let n_int = draw(&mut self.rng, &self.config.internal_tasks);
        let n_out = draw(&mut self.rng, &self.config.output_tasks);

        let mut b = ApplicationBuilder::new(name);
        let mut out_degree: Vec<u32> = Vec::new();
        let mut earlier: Vec<TaskId> = Vec::new();

        // Input tasks: occasionally pinned to the FPGA front-end by a single
        // dedicated implementation (the paper: "locations may be fixed in
        // the binding phase" when specific interfaces are required);
        // otherwise they run on the DSPs like any stream source.
        for i in 0..n_in {
            let pinned = self.rng.gen_bool(self.config.io_pin_probability);
            let imp = if pinned {
                self.io_stub(ElementKind::Fpga)
            } else {
                self.implementation(ElementKind::Dsp)
            };
            let t = b.add_task(format!("in{i}"), TaskRole::Input, vec![imp]);
            earlier.push(t);
            out_degree.push(0);
        }

        // Internal tasks: DSP implementations, occasionally an ARM
        // alternative ("multiple implementations... by different IP
        // manufacturers").
        for i in 0..n_int {
            let n_impls = draw(&mut self.rng, &IMPLEMENTATIONS_PER_TASK);
            let mut impls = vec![self.implementation(ElementKind::Dsp)];
            for _ in 1..n_impls {
                let kind = if self.rng.gen_bool(0.3) { ElementKind::Arm } else { ElementKind::Dsp };
                impls.push(self.implementation(kind));
            }
            let t = b.add_task(format!("proc{i}"), TaskRole::Internal, impls);
            self.wire_inputs(&mut b, t, &earlier, &mut out_degree);
            earlier.push(t);
            out_degree.push(0);
        }

        // Output tasks: occasionally pinned to the ARM host, otherwise DSP.
        for i in 0..n_out {
            let pinned = self.rng.gen_bool(self.config.io_pin_probability);
            let imp = if pinned {
                self.io_stub(ElementKind::Arm)
            } else {
                self.implementation(ElementKind::Dsp)
            };
            let t = b.add_task(format!("out{i}"), TaskRole::Output, vec![imp]);
            self.wire_inputs(&mut b, t, &earlier, &mut out_degree);
            earlier.push(t);
            out_degree.push(0);
        }

        // Every source must feed someone: connect dangling inputs to the
        // first non-input task.
        let first_sink = n_in as usize;
        for i in 0..n_in as usize {
            if out_degree[i] == 0 && earlier.len() > first_sink {
                let bw = self.rng.gen_range(self.config.channel_bandwidth.clone());
                b.add_channel(earlier[i], earlier[first_sink], bw, 1);
                out_degree[i] += 1;
            }
        }

        b.build().expect("generator produces structurally valid graphs")
    }

    /// Wires 1..=[`MAX_IN_DEGREE`] incoming channels for `t` from earlier tasks
    /// with spare out-degree.
    fn wire_inputs(
        &mut self,
        b: &mut ApplicationBuilder,
        t: TaskId,
        earlier: &[TaskId],
        out_degree: &mut [u32],
    ) {
        if earlier.is_empty() {
            return;
        }
        let wanted = draw(&mut self.rng, &(1..=MAX_IN_DEGREE.min(earlier.len() as u32)));
        let mut candidates: Vec<usize> =
            (0..earlier.len()).filter(|&i| out_degree[i] < MAX_OUT_DEGREE).collect();
        // Without spare out-degree anywhere, fall back to the most recent
        // task to keep the graph connected.
        if candidates.is_empty() {
            candidates.push(earlier.len() - 1);
        }
        let mut chosen = Vec::new();
        for _ in 0..wanted.min(candidates.len() as u32) {
            let pick = self.rng.gen_range(0..=candidates.len() as u64 - 1) as usize;
            chosen.push(candidates.swap_remove(pick));
        }
        for i in chosen {
            let bw = self.rng.gen_range(self.config.channel_bandwidth.clone());
            b.add_channel(earlier[i], t, bw, 1);
            out_degree[i] += 1;
        }
    }
}

/// A draw from one of the configuration's `u32` ranges.
fn draw(rng: &mut Xoshiro256, range: &RangeInclusive<u32>) -> u32 {
    rng.gen_range(u64::from(*range.start())..=u64::from(*range.end())) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate_one(seed: u64) -> Application {
        AppGenerator::new(GeneratorConfig::default(), seed).generate("t")
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(generate_one(7), generate_one(7));
        // Different seeds almost surely differ:
        assert_ne!(generate_one(7), generate_one(8));
    }

    #[test]
    fn task_counts_respect_ranges() {
        for seed in 0..20 {
            let app = generate_one(seed);
            let c = GeneratorConfig::default();
            assert!(app.task_count() as u32 >= c.min_tasks());
            assert!(app.task_count() as u32 <= c.max_tasks());
        }
    }

    #[test]
    fn roles_and_pinning_are_structured() {
        for seed in 0..10 {
            let app = generate_one(seed);
            for task in app.tasks() {
                match task.role() {
                    TaskRole::Input => {
                        assert_eq!(task.implementations().len(), 1);
                        let target = task.implementations()[0].target();
                        assert!(
                            target == ElementKind::Fpga || target == ElementKind::Dsp,
                            "inputs are FPGA-pinned or DSP-hosted"
                        );
                    }
                    TaskRole::Output => {
                        assert_eq!(task.implementations().len(), 1);
                        let target = task.implementations()[0].target();
                        assert!(
                            target == ElementKind::Arm || target == ElementKind::Dsp,
                            "outputs are ARM-pinned or DSP-hosted"
                        );
                    }
                    TaskRole::Internal => {
                        assert!(!task.implementations().is_empty());
                        assert_eq!(
                            task.implementations()[0].target(),
                            ElementKind::Dsp,
                            "primary internal implementation targets the DSPs"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degrees_are_bounded() {
        let config = GeneratorConfig { internal_tasks: 8..=12, ..GeneratorConfig::default() };
        for seed in 0..10 {
            let app = AppGenerator::new(config.clone(), seed).generate("t");
            for t in app.task_ids() {
                assert!(app.producers(t).len() as u32 <= MAX_IN_DEGREE, "in-degree bound violated");
                let out = app.consumers(t).len() as u32;
                assert!(out <= MAX_OUT_DEGREE + 1, "out-degree bound (+1 dangling fix)");
            }
        }
    }

    #[test]
    fn non_input_tasks_have_producers() {
        for seed in 0..10 {
            let app = generate_one(seed);
            for task in app.tasks() {
                if task.role() != TaskRole::Input {
                    assert!(
                        !app.producers(task.id()).is_empty(),
                        "non-source task must consume something"
                    );
                }
            }
        }
    }

    #[test]
    fn resource_demands_stay_in_band() {
        let config = GeneratorConfig { resource_percent: 70..=100, ..GeneratorConfig::default() };
        let app = AppGenerator::new(config, 3).generate("t");
        for task in app.tasks() {
            for imp in task.implementations() {
                let cap = default_capacity(imp.target());
                let ratio = imp.requires().utilisation_of(&cap);
                assert!(ratio <= 1.0 + 1e-9, "demand within capacity");
                if task.role() == TaskRole::Internal {
                    assert!(ratio >= 0.5, "computation band demands are heavy, got {ratio}");
                }
            }
        }
    }

    #[test]
    fn channels_flow_forward() {
        // Layered construction implies src id < dst id for all channels.
        for seed in 0..10 {
            let app = generate_one(seed);
            for c in app.channels() {
                assert!(c.src() < c.dst());
            }
        }
    }
}
