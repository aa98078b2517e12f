//! The six synthetic datasets of the paper's evaluation (Table I).
//!
//! Applications are "either computational intensive or communication
//! oriented. Tasks in the first set use between 70% and 100% of the
//! element's resources, and tasks in communication oriented applications use
//! between 10% and 70%. [...] we categorize applications based on their
//! size, namely small (< 5 tasks), medium (6-10 tasks) and large (11-16
//! tasks) applications." Each dataset initially contains 100 applications;
//! those unmappable on an empty platform are filtered out before the
//! sequence experiments.

use std::fmt;

use kairos_app::Application;

use crate::config::GeneratorConfig;
use crate::generator::AppGenerator;

/// Whether a dataset's tasks are resource-heavy or resource-light.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Light tasks (10–70% of an element), many sharing elements —
    /// stress lands on the interconnect.
    Communication,
    /// Heavy tasks (70–100% of an element) — stress lands on the elements.
    Computation,
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Orientation::Communication => f.write_str("Communication"),
            Orientation::Computation => f.write_str("Computation"),
        }
    }
}

/// Application size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 3–5 tasks.
    Small,
    /// 6–10 tasks.
    Medium,
    /// 11–16 tasks.
    Large,
}

impl SizeClass {
    /// Inclusive total-task bounds of the class.
    pub fn task_bounds(self) -> (u32, u32) {
        match self {
            SizeClass::Small => (3, 5),
            SizeClass::Medium => (6, 10),
            SizeClass::Large => (11, 16),
        }
    }
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeClass::Small => f.write_str("Small"),
            SizeClass::Medium => f.write_str("Medium"),
            SizeClass::Large => f.write_str("Large"),
        }
    }
}

/// One of the paper's six dataset specifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Resource-usage orientation.
    pub orientation: Orientation,
    /// Application size class.
    pub size: SizeClass,
}

impl DatasetSpec {
    /// All six datasets, in Table I order.
    pub fn all() -> [DatasetSpec; 6] {
        [
            DatasetSpec { orientation: Orientation::Communication, size: SizeClass::Small },
            DatasetSpec { orientation: Orientation::Communication, size: SizeClass::Medium },
            DatasetSpec { orientation: Orientation::Communication, size: SizeClass::Large },
            DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Small },
            DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Medium },
            DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Large },
        ]
    }

    /// The generator configuration realising this dataset.
    pub fn generator_config(&self) -> GeneratorConfig {
        let (lo, hi) = self.size.task_bounds();
        // One input and one output task; the internals absorb the rest.
        let internal_lo = lo.saturating_sub(2).max(1);
        let internal_hi = hi - 2;
        let resource_percent = match self.orientation {
            Orientation::Communication => 10..=70,
            Orientation::Computation => 70..=100,
        };
        // Light tasks stream more data relative to their compute, which is
        // what lets communication-oriented datasets time-share elements
        // until the interconnect saturates.
        // Large computation-oriented applications also develop "significant
        // communication resource requirements" (Table I discussion).
        let channel_bandwidth = match (self.orientation, self.size) {
            (Orientation::Communication, SizeClass::Small) => 300..=650,
            (Orientation::Communication, _) => 220..=550,
            (Orientation::Computation, SizeClass::Large) => 150..=400,
            (Orientation::Computation, _) => 40..=150,
        };
        GeneratorConfig {
            input_tasks: 1..=1,
            internal_tasks: internal_lo..=internal_hi,
            output_tasks: 1..=1,
            resource_percent,
            channel_bandwidth,
            ..GeneratorConfig::default()
        }
    }

    /// Display name as used in Table I.
    pub fn name(&self) -> String {
        format!("{} {}", self.orientation, self.size)
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.orientation, self.size)
    }
}

/// Generates the `count` applications of a dataset. Deterministic in
/// `(spec, seed)`: application `i` is generated with the per-dataset RNG
/// stream, named `<dataset>-<i>`.
pub fn generate_dataset(spec: DatasetSpec, count: usize, seed: u64) -> Vec<Application> {
    let mut generator = AppGenerator::new(spec.generator_config(), seed);
    (0..count)
        .map(|i| {
            generator.generate(format!("{}-{i}", spec.name().to_lowercase().replace(' ', "-")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_datasets_in_table_order() {
        let all = DatasetSpec::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].name(), "Communication Small");
        assert_eq!(all[5].name(), "Computation Large");
    }

    #[test]
    fn size_classes_bound_task_counts() {
        for spec in DatasetSpec::all() {
            let apps = generate_dataset(spec, 30, 1);
            let (lo, hi) = spec.size.task_bounds();
            for app in &apps {
                assert!(
                    (app.task_count() as u32) >= lo && (app.task_count() as u32) <= hi,
                    "{}: {} tasks outside [{lo}, {hi}]",
                    spec,
                    app.task_count()
                );
            }
        }
    }

    #[test]
    fn orientation_controls_resource_band() {
        use kairos_platform::topology::default_capacity;
        let comm = generate_dataset(
            DatasetSpec { orientation: Orientation::Communication, size: SizeClass::Medium },
            10,
            2,
        );
        let comp = generate_dataset(
            DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Medium },
            10,
            2,
        );
        let mean_util = |apps: &[Application]| {
            let mut total = 0.0;
            let mut n = 0usize;
            for app in apps {
                for task in app.tasks() {
                    for imp in task.implementations() {
                        total += imp.requires().utilisation_of(&default_capacity(imp.target()));
                        n += 1;
                    }
                }
            }
            total / n as f64
        };
        assert!(mean_util(&comm) < 0.55, "communication tasks are light");
        assert!(mean_util(&comp) > 0.7, "computation tasks are heavy");
    }

    #[test]
    fn dataset_generation_is_deterministic() {
        let spec = DatasetSpec::all()[0];
        assert_eq!(generate_dataset(spec, 5, 9), generate_dataset(spec, 5, 9));
    }

    #[test]
    fn dataset_apps_have_unique_names() {
        let apps = generate_dataset(DatasetSpec::all()[3], 10, 0);
        let mut names: Vec<_> = apps.iter().map(|a| a.name().to_owned()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }
}
