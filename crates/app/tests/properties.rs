//! Property-based tests of the application model and the binary format.

use std::cmp::Reverse;

use proptest::prelude::*;

use kairos_app::{
    binfmt, Application, ApplicationBuilder, ChannelId, Constraint, ImplId, Implementation, TaskId,
    TaskRings, TaskRole,
};
use kairos_appgen::{generate_dataset, DatasetSpec};
use kairos_platform::{ElementKind, ResourceVector};

fn element_kind() -> impl Strategy<Value = ElementKind> {
    prop_oneof![
        Just(ElementKind::Arm),
        Just(ElementKind::Dsp),
        Just(ElementKind::Fpga),
        Just(ElementKind::Memory),
        Just(ElementKind::TestUnit),
        Just(ElementKind::Io),
    ]
}

fn implementation() -> impl Strategy<Value = Implementation> {
    (element_kind(), 0u64..2000, 0u64..2000, 0u64..2000, 0u64..2000, 1u64..5000, 0u64..500)
        .prop_map(|(kind, a, b, c, d, cycles, energy)| {
            Implementation::new(kind, ResourceVector::new(a, b, c, d), cycles, energy)
        })
}

fn role() -> impl Strategy<Value = TaskRole> {
    prop_oneof![Just(TaskRole::Input), Just(TaskRole::Internal), Just(TaskRole::Output)]
}

prop_compose! {
    /// A structurally valid random application: 1..8 tasks with 1..3 impls
    /// each, channels between distinct tasks, 0..2 constraints.
    fn application()(
        task_specs in proptest::collection::vec(
            (role(), proptest::collection::vec(implementation(), 1..3)),
            1..8,
        ),
        channel_seeds in proptest::collection::vec((0usize..64, 0usize..64, 1u64..900, 1u32..4), 0..12),
        constraints in proptest::collection::vec(
            prop_oneof![
                (1u64..100_000).prop_map(|p| Constraint::Throughput { max_period_cycles: p }),
                (1u64..100_000, 1u32..8).prop_map(|(l, d)| Constraint::Latency {
                    max_latency_cycles: l,
                    pipeline_depth: d,
                }),
            ],
            0..3,
        ),
    ) -> Application {
        let n = task_specs.len();
        let mut b = ApplicationBuilder::new("prop-app");
        for (i, (role, impls)) in task_specs.into_iter().enumerate() {
            b.add_task(format!("t{i}"), role, impls);
        }
        for (src, dst, bw, tokens) in channel_seeds {
            let s = TaskId((src % n) as u32);
            let d = TaskId((dst % n) as u32);
            if s != d {
                b.add_channel(s, d, bw, tokens);
            }
        }
        for c in constraints {
            b.add_constraint(c);
        }
        b.build().expect("construction is valid by design")
    }
}

/// `app` rebuilt part by part under another name.
fn renamed(app: &Application, name: &str) -> Application {
    let mut b = ApplicationBuilder::new(name);
    for t in app.tasks() {
        b.add_task(t.name(), t.role(), t.implementations().to_vec());
    }
    for c in app.channels() {
        b.add_channel(c.src(), c.dst(), c.bandwidth(), c.tokens_per_firing());
    }
    for &k in app.constraints() {
        b.add_constraint(k);
    }
    b.build().expect("a rebuilt application is as valid as its original")
}

/// Checks what `app` compiles once against its per-call definitions: the
/// routing order against a sort of the channels, each task's energy order
/// against a sort of its implementations, and the rings from the kept
/// seeds and from other seed sets — the kept, the first other (which the
/// application keeps from then on) and later ones — against
/// `neighborhood_rings_into`, each asked twice. The application, once
/// asked, still equals its `binfmt` round trip and prints as before.
fn check_compiled(app: &Application) -> Result<(), String> {
    let printed = format!("{app:?}");
    let mut order: Vec<ChannelId> = app.channels().map(|c| c.id()).collect();
    order.sort_by_key(|&c| (Reverse(app.channel(c).bandwidth()), c));
    prop_assert_eq!(app.route_order(), &order[..]);
    for task in app.tasks() {
        let implementations = task.implementations();
        let mut by_energy: Vec<ImplId> =
            (0..implementations.len()).map(|i| ImplId(i as u16)).collect();
        by_energy.sort_by_key(|&i| (implementations[i.index()].energy(), i));
        prop_assert_eq!(app.implementations_by_energy(task.id()), &by_energy[..]);
    }
    let first_output = app.tasks().find(|t| t.role() == TaskRole::Output).map(|t| t.id());
    prop_assert_eq!(app.first_output(), first_output);

    let last = TaskId(app.task_count() as u32 - 1);
    let mut seed_sets = vec![app.min_degree_tasks()[..1].to_vec(), app.min_degree_tasks().to_vec()];
    seed_sets.extend(app.task_ids().map(|t| vec![t]));
    seed_sets.push(vec![TaskId(0), last]);
    seed_sets.push(app.task_ids().collect());
    let mut scratch = TaskRings::default();
    for seeds in &seed_sets {
        let mut expected = TaskRings::default();
        app.neighborhood_rings_into(seeds, &mut expected);
        for _ in 0..2 {
            let rings = app.rings_from(seeds, &mut scratch);
            prop_assert_eq!(rings, &expected, "seeds {:?}", seeds);
            let (got, want): (Vec<_>, Vec<_>) = (rings.iter().collect(), expected.iter().collect());
            prop_assert_eq!(got, want);
        }
    }

    prop_assert_eq!(format!("{app:?}"), printed, "asking for rings changed what prints");
    let decoded = binfmt::decode(&binfmt::encode(app).unwrap()).expect("decode must succeed");
    prop_assert_eq!(&decoded, app);
    prop_assert_eq!(format!("{decoded:?}"), printed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// What an application compiles once is what the pipeline derived per
    /// run, on random graphs.
    #[test]
    fn compiled_orders_and_rings_match_their_definitions(app in application()) {
        check_compiled(&app)?;
    }

    /// The shape hash is a function of everything but the name: a rename,
    /// a clone and a trip through the binary format all keep it.
    #[test]
    fn shape_hash_survives_rename_clone_and_binfmt(app in application()) {
        let shape = app.shape_hash();
        let other = renamed(&app, "another-name");
        prop_assert!(other != app);
        prop_assert_eq!(other.shape_hash(), shape);
        prop_assert_eq!(app.clone().shape_hash(), shape);
        let decoded = binfmt::decode(&binfmt::encode(&other).unwrap()).expect("decode must succeed");
        prop_assert_eq!(decoded.shape_hash(), shape);
    }

    /// The binary format round-trips every valid application exactly.
    #[test]
    fn binfmt_roundtrip(app in application()) {
        let image = binfmt::encode(&app).expect("encode must succeed");
        prop_assert!(binfmt::is_kairos_image(&image));
        let back = binfmt::decode(&image).expect("decode must succeed");
        prop_assert_eq!(app, back);
    }

    /// Decoding never panics on arbitrary bytes (it may error).
    #[test]
    fn binfmt_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = binfmt::decode(&bytes);
    }

    /// Truncating a valid image always fails cleanly.
    #[test]
    fn binfmt_truncation_fails_cleanly(app in application(), cut in 0.0f64..1.0) {
        let image = binfmt::encode(&app).expect("encode must succeed");
        let len = ((image.len() as f64) * cut) as usize;
        if len < image.len() {
            prop_assert!(binfmt::decode(&image[..len]).is_err());
        }
    }

    /// Neighborhood rings partition the task set and respect distances.
    #[test]
    fn neighborhood_rings_partition_tasks(app in application()) {
        let seeds: Vec<TaskId> = app.task_ids().take(1).collect();
        let mut decomposition = TaskRings::default();
        app.neighborhood_rings_into(&seeds, &mut decomposition);
        let rings: Vec<&[TaskId]> = decomposition.iter().collect();
        let mut seen: Vec<TaskId> = rings.concat();
        seen.sort_unstable();
        let mut all: Vec<TaskId> = app.task_ids().collect();
        all.sort_unstable();
        prop_assert_eq!(seen, all, "rings must partition the task set");
        // Every non-seed ring member has a peer in the previous ring.
        for i in 1..rings.len() {
            let prev = rings[i - 1];
            for &t in rings[i] {
                let connected = app.peers(t).iter().any(|p| prev.contains(p));
                // The trailing unreachable ring is exempt.
                if i < rings.len() - 1 || connected {
                    prop_assert!(
                        connected || rings[i].iter().all(|x| app.peers(*x).iter().all(|p| !prev.contains(p))),
                        "ring member without a predecessor peer"
                    );
                }
            }
        }
    }

    /// The peer, degree and minimum-degree tables built with the
    /// application are what a walk over its adjacency derives.
    #[test]
    fn degrees_match_adjacency(app in application()) {
        let naive_peers = |t: TaskId| {
            let mut peers: Vec<TaskId> =
                app.consumers(t).iter().chain(app.producers(t)).map(|&(p, _)| p).collect();
            peers.sort_unstable();
            peers.dedup();
            peers
        };
        let min = app.task_ids().map(|t| naive_peers(t).len()).min().unwrap();
        let lowest: Vec<TaskId> = app.task_ids().filter(|&t| naive_peers(t).len() == min).collect();
        prop_assert_eq!(app.min_degree_tasks(), &lowest[..]);
        for t in app.task_ids() {
            prop_assert_eq!(app.peers(t), &naive_peers(t)[..]);
            prop_assert_eq!(app.degree(t), app.peers(t).len());
            for &p in app.peers(t) {
                prop_assert!(app.peers(p).contains(&t), "peer relation must be symmetric");
            }
        }
    }

    /// Latency constraints convert to periods monotonically in depth.
    #[test]
    fn latency_conversion_is_monotone(l in 1u64..1_000_000, d in 1u32..100) {
        let shallow = Constraint::Latency { max_latency_cycles: l, pipeline_depth: d };
        let deep = Constraint::Latency { max_latency_cycles: l, pipeline_depth: d + 1 };
        prop_assert!(deep.as_max_period_cycles() <= shallow.as_max_period_cycles());
    }
}

/// What an application compiles once is what the pipeline derived per run,
/// on the six Table I datasets.
#[test]
fn compiled_orders_and_rings_match_their_definitions_on_table_i() {
    for spec in DatasetSpec::all() {
        for app in generate_dataset(spec, 8, 55) {
            if let Err(e) = check_compiled(&app) {
                panic!("{spec:?} {}: {e}", app.name());
            }
        }
    }
}
