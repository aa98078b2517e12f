//! Property-based tests of the workload generator: every generated
//! application is structurally valid, respects the configured bounds, and
//! the paper's datasets have their documented characteristics.

use proptest::prelude::*;

use kairos_appgen::{
    generate_dataset, AppGenerator, DatasetSpec, GeneratorConfig, Orientation, SizeClass,
};
use kairos_platform::topology::default_capacity;

fn config() -> impl Strategy<Value = GeneratorConfig> {
    (1u32..3, 1u32..8, 1u32..3, 10u32..60, 0.0f64..1.0).prop_map(
        |(n_in, n_int, n_out, pct_lo, pin)| GeneratorConfig {
            input_tasks: n_in..=n_in + 1,
            internal_tasks: n_int..=n_int + 2,
            output_tasks: n_out..=n_out + 1,
            resource_percent: pct_lo..=(pct_lo + 40).min(100),
            io_pin_probability: pin,
            ..GeneratorConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generation never panics and always yields a valid application within
    /// the configured task bounds.
    #[test]
    fn generated_apps_respect_bounds(config in config(), seed in any::<u64>()) {
        let mut generator = AppGenerator::new(config.clone(), seed);
        let app = generator.generate("prop");
        let n = app.task_count() as u32;
        prop_assert!(n >= config.min_tasks());
        prop_assert!(n <= config.max_tasks());
        // No channel may exceed the configured bandwidth range.
        for c in app.channels() {
            prop_assert!(config.channel_bandwidth.contains(&c.bandwidth()));
        }
        // All demands fit their target element kind's capacity.
        for task in app.tasks() {
            for imp in task.implementations() {
                prop_assert!(default_capacity(imp.target()).fits(&imp.requires()));
            }
        }
    }

    /// Same seed, same output; the stream is self-contained.
    #[test]
    fn generation_is_reproducible(config in config(), seed in any::<u64>()) {
        let mut a = AppGenerator::new(config.clone(), seed);
        let mut b = AppGenerator::new(config, seed);
        for i in 0..3 {
            prop_assert_eq!(a.generate(format!("x{i}")), b.generate(format!("x{i}")));
        }
    }

    /// Generated graphs are acyclic (channels flow strictly forward in id
    /// order), so deadlock-free under the SDF model with any buffering.
    #[test]
    fn generated_graphs_are_acyclic(config in config(), seed in any::<u64>()) {
        let app = AppGenerator::new(config, seed).generate("dag");
        for c in app.channels() {
            prop_assert!(c.src() < c.dst());
        }
    }
}

#[test]
fn dataset_sizes_match_their_class_bounds() {
    for spec in DatasetSpec::all() {
        let (lo, hi) = spec.size.task_bounds();
        for app in generate_dataset(spec, 50, 0xD5) {
            let n = app.task_count() as u32;
            assert!(n >= lo && n <= hi, "{spec}: {n} outside [{lo},{hi}]");
        }
    }
}

#[test]
fn orientations_separate_cleanly() {
    let util_of = |o: Orientation| {
        let spec = DatasetSpec { orientation: o, size: SizeClass::Medium };
        let apps = generate_dataset(spec, 20, 0xD6);
        let mut total = 0.0;
        let mut n = 0;
        for app in &apps {
            for task in app.tasks() {
                let imp = &task.implementations()[0];
                total += imp.requires().utilisation_of(&default_capacity(imp.target()));
                n += 1;
            }
        }
        total / n as f64
    };
    let comm = util_of(Orientation::Communication);
    let comp = util_of(Orientation::Computation);
    assert!(comp > comm + 0.2, "orientation bands overlap: comm {comm:.2} comp {comp:.2}");
}
