//! Property-based tests of the SDF substrate: repetition vectors balance
//! rates, bounded graphs always reach a periodic phase, throughput
//! respects the bottleneck bound, and on homogeneous graphs the computed
//! maximum cycle ratio is the explored period.

use proptest::prelude::*;

use kairos_sdf::{
    check_deadlock_free, max_cycle_ratio, repetition_vector, throughput, throughput_with, ActorId,
    SdfGraph, SdfGraphBuilder, StateSpaceConfig, StateSpaceError,
};

/// A random chain graph with bounded buffers (always consistent & live).
fn chain() -> impl Strategy<Value = SdfGraph> {
    (proptest::collection::vec(1u64..40, 2..8), proptest::collection::vec(1u32..4, 1..7)).prop_map(
        |(exec_times, rates)| {
            let mut b = SdfGraphBuilder::new("chain");
            let actors: Vec<_> = exec_times
                .iter()
                .enumerate()
                .map(|(i, &e)| b.add_actor(format!("a{i}"), e))
                .collect();
            for (i, w) in actors.windows(2).enumerate() {
                let rate = rates[i % rates.len()];
                b.add_channel(w[0], w[1], rate, rate, 0);
            }
            b.build().unwrap().with_bounded_buffers(8)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The repetition vector balances every channel:
    /// produce * q[src] == consume * q[dst].
    #[test]
    fn repetition_vector_balances_channels(graph in chain()) {
        let q = repetition_vector(&graph).expect("chains are consistent");
        prop_assert!(q.iter().all(|&x| x > 0));
        for c in graph.channels() {
            prop_assert_eq!(
                c.produce() as u64 * q[c.src().index()],
                c.consume() as u64 * q[c.dst().index()],
                "unbalanced channel"
            );
        }
    }

    /// The repetition vector is minimal: the gcd over all entries is 1 for
    /// a connected graph.
    #[test]
    fn repetition_vector_is_minimal(graph in chain()) {
        let q = repetition_vector(&graph).unwrap();
        let gcd = q.iter().fold(0u64, |acc, &x| {
            let (mut a, mut b) = (acc, x);
            while b != 0 { (a, b) = (b, a % b); }
            a
        });
        prop_assert_eq!(gcd, 1);
    }

    /// Bounded chains are deadlock-free and reach a periodic phase with
    /// positive throughput.
    #[test]
    fn bounded_chains_have_throughput(graph in chain()) {
        prop_assert!(check_deadlock_free(&graph).is_ok());
        let report = throughput(&graph, ActorId(0)).expect("periodic phase exists");
        prop_assert!(report.throughput > 0.0);
        prop_assert!(report.period_time > 0);
        prop_assert!(report.iteration_period > 0.0);
    }

    /// Throughput never exceeds the bottleneck actor's service rate:
    /// an actor firing q[a] times per iteration with exec time e gives
    /// iteration_period >= q[a] * e (actors are sequential).
    #[test]
    fn bottleneck_bounds_throughput(graph in chain()) {
        let q = repetition_vector(&graph).unwrap();
        let report = throughput(&graph, ActorId(0)).unwrap();
        for a in graph.actor_ids() {
            let load = q[a.index()] as f64 * graph.actor(a).exec_time() as f64;
            prop_assert!(
                report.iteration_period >= load - 1e-6,
                "iteration period {} beats bottleneck {} of {}",
                report.iteration_period,
                load,
                a
            );
        }
    }

    /// Scaling every execution time by a constant scales the period by the
    /// same constant.
    #[test]
    fn throughput_scales_linearly(exec in proptest::collection::vec(1u64..20, 2..5), k in 2u64..5) {
        let build = |scale: u64| {
            let mut b = SdfGraphBuilder::new("s");
            let actors: Vec<_> = exec
                .iter()
                .enumerate()
                .map(|(i, &e)| b.add_actor(format!("a{i}"), e * scale))
                .collect();
            for w in actors.windows(2) {
                b.add_channel(w[0], w[1], 1, 1, 0);
            }
            b.build().unwrap().with_bounded_buffers(2)
        };
        let base = throughput(&build(1), ActorId(0)).unwrap();
        let scaled = throughput(&build(k), ActorId(0)).unwrap();
        prop_assert!((scaled.iteration_period - k as f64 * base.iteration_period).abs() < 1e-6);
    }

    /// On a homogeneous graph the maximum cycle ratio is the self-timed
    /// period: tokens anywhere (0-3 on either direction of a link, so some
    /// graphs deadlock), parallel links, several components, any reference.
    #[test]
    fn cycle_ratio_is_the_explored_period(
        exec in proptest::collection::vec(1u64..50, 1..7),
        links in proptest::collection::vec((0usize..60, 0usize..60, 0u32..4, 0u32..4), 0..10),
        reference in 0usize..60,
    ) {
        let n = exec.len();
        let reference = reference % n;
        // Every link is a pair of opposed edges, which keeps the state
        // space finite for the oracle.
        let edges: Vec<(u32, u32, u32)> = links
            .iter()
            .filter(|&&(a, b, ..)| a % n != b % n)
            .flat_map(|&(a, b, there, back)| {
                let (a, b) = ((a % n) as u32, (b % n) as u32);
                [(a, b, there), (b, a, back)]
            })
            .collect();
        let mut b = SdfGraphBuilder::new("homogeneous");
        for (i, &e) in exec.iter().enumerate() {
            b.add_actor(format!("a{i}"), e);
        }
        for &(src, dst, tokens) in &edges {
            b.add_channel(ActorId(src), ActorId(dst), 1, 1, tokens);
        }
        let config = StateSpaceConfig { max_events: 100_000 };
        let explored = throughput_with(&b.build().unwrap(), ActorId(reference as u32), &config);
        match (max_cycle_ratio(&exec, &edges, reference), explored) {
            // Components with co-prime periods recur late; no verdict to compare.
            (_, Err(StateSpaceError::Diverged { .. })) => {}
            (Ok(ratio), Ok(explored)) => prop_assert_eq!(
                ratio.cycles * explored.period_firings,
                explored.period_time * ratio.iterations,
                "{:?} vs {:?}", ratio, explored
            ),
            // The oracle tells a global stop from a starved reference; the
            // solver sees the reference's component only.
            (Err(StateSpaceError::Deadlock), Err(explored)) => prop_assert!(matches!(
                explored,
                StateSpaceError::Deadlock | StateSpaceError::ReferenceStarved
            )),
            (ratio, explored) => prop_assert!(false, "{:?} vs {:?}", ratio, explored),
        }
    }

    /// The event budget is respected: tiny budgets yield Diverged, never a
    /// panic or a hang.
    #[test]
    fn event_budget_is_respected(graph in chain()) {
        let config = StateSpaceConfig { max_events: 1 };
        let _ = throughput_with(&graph, ActorId(0), &config);
    }
}
