//! Static SDF analysis: repetition vectors, consistency and deadlock-freedom.

use std::fmt;

use crate::graph::{ActorId, SdfGraph};

/// Errors raised by static SDF analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdfAnalysisError {
    /// The rate equations have no non-trivial solution.
    Inconsistent,
    /// The graph deadlocks before completing one iteration.
    Deadlock,
    /// Intermediate arithmetic overflowed (pathological rates or cycle
    /// counts).
    Overflow,
}

impl fmt::Display for SdfAnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfAnalysisError::Inconsistent => f.write_str("SDF graph is inconsistent"),
            SdfAnalysisError::Deadlock => f.write_str("SDF graph deadlocks"),
            SdfAnalysisError::Overflow => f.write_str("analysis arithmetic overflowed"),
        }
    }
}

impl std::error::Error for SdfAnalysisError {}

pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

/// A non-negative rational, kept in lowest terms. Internal helper for the
/// repetition-vector computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    fn new(num: u64, den: u64) -> Ratio {
        debug_assert!(den != 0);
        let g = gcd(num, den).max(1);
        Ratio { num: num / g, den: den / g }
    }

    fn mul(self, num: u64, den: u64) -> Option<Ratio> {
        let n = self.num.checked_mul(num)?;
        let d = self.den.checked_mul(den)?;
        Some(Ratio::new(n, d))
    }
}

/// Computes the repetition vector `q`: the smallest positive integer firing
/// counts balancing every channel (`produce(c) * q[src] = consume(c) * q[dst]`).
///
/// Actors in different weakly-connected components are balanced
/// independently, each component scaled to the smallest integer solution.
///
/// # Errors
///
/// [`SdfAnalysisError::Inconsistent`] when the rate equations conflict,
/// [`SdfAnalysisError::Overflow`] on pathological rates.
///
/// # Examples
///
/// ```
/// use kairos_sdf::{SdfGraphBuilder, repetition_vector};
///
/// let mut b = SdfGraphBuilder::new("updown");
/// let a = b.add_actor("a", 1);
/// let c = b.add_actor("c", 1);
/// b.add_channel(a, c, 3, 2, 0);
/// let g = b.build()?;
/// assert_eq!(repetition_vector(&g)?, vec![2, 3]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn repetition_vector(graph: &SdfGraph) -> Result<Vec<u64>, SdfAnalysisError> {
    let n = graph.actor_count();
    let mut ratio: Vec<Option<Ratio>> = vec![None; n];
    let mut component: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if ratio[start].is_some() {
            continue;
        }
        // New weakly-connected component: seed with 1 and propagate.
        let mut members = vec![start];
        ratio[start] = Some(Ratio::new(1, 1));
        let mut stack = vec![ActorId(start as u32)];
        while let Some(a) = stack.pop() {
            let ra = ratio[a.index()].expect("stacked actors have ratios");
            for &cid in graph.output_channels(a) {
                let c = graph.channel(cid);
                // q[dst] = q[src] * produce / consume
                let r = ra
                    .mul(c.produce() as u64, c.consume() as u64)
                    .ok_or(SdfAnalysisError::Overflow)?;
                match ratio[c.dst().index()] {
                    None => {
                        ratio[c.dst().index()] = Some(r);
                        members.push(c.dst().index());
                        stack.push(c.dst());
                    }
                    Some(existing) if existing != r => return Err(SdfAnalysisError::Inconsistent),
                    Some(_) => {}
                }
            }
            for &cid in graph.input_channels(a) {
                let c = graph.channel(cid);
                // q[src] = q[dst] * consume / produce
                let r = ra
                    .mul(c.consume() as u64, c.produce() as u64)
                    .ok_or(SdfAnalysisError::Overflow)?;
                match ratio[c.src().index()] {
                    None => {
                        ratio[c.src().index()] = Some(r);
                        members.push(c.src().index());
                        stack.push(c.src());
                    }
                    Some(existing) if existing != r => return Err(SdfAnalysisError::Inconsistent),
                    Some(_) => {}
                }
            }
        }
        component.push(members);
    }

    // Scale each component by the lcm of denominators, then divide by the
    // gcd of numerators to obtain the smallest integer solution.
    let mut q = vec![0u64; n];
    for members in component {
        let mut denom_lcm = 1u64;
        for &m in &members {
            let r = ratio[m].expect("component members have ratios");
            denom_lcm = lcm(denom_lcm, r.den).ok_or(SdfAnalysisError::Overflow)?;
        }
        let mut numer_gcd = 0u64;
        let mut scaled = Vec::with_capacity(members.len());
        for &m in &members {
            let r = ratio[m].expect("component members have ratios");
            let v = r.num.checked_mul(denom_lcm / r.den).ok_or(SdfAnalysisError::Overflow)?;
            numer_gcd = gcd(numer_gcd, v);
            scaled.push((m, v));
        }
        let numer_gcd = numer_gcd.max(1);
        for (m, v) in scaled {
            q[m] = v / numer_gcd;
        }
    }
    Ok(q)
}

/// `true` when the rate equations admit a solution.
pub fn is_consistent(graph: &SdfGraph) -> bool {
    repetition_vector(graph).is_ok()
}

/// Checks that one complete graph iteration (every actor `a` firing `q[a]`
/// times) can execute from the initial token distribution.
///
/// This is the classic Lee/Messerschmitt deadlock test: repeatedly fire any
/// enabled actor that still owes firings; if all counts reach zero the graph
/// is deadlock-free, otherwise it deadlocks.
///
/// # Errors
///
/// Propagates repetition-vector errors and reports
/// [`SdfAnalysisError::Deadlock`] when the iteration cannot complete.
pub fn check_deadlock_free(graph: &SdfGraph) -> Result<(), SdfAnalysisError> {
    let q = repetition_vector(graph)?;
    let mut remaining: Vec<u64> = q.clone();
    let mut tokens: Vec<i64> = graph.channels().map(|c| c.initial_tokens() as i64).collect();

    let total: u64 = q.iter().sum();
    let mut fired = 0u64;
    let mut progress = true;
    while progress && fired < total {
        progress = false;
        for a in graph.actor_ids() {
            if remaining[a.index()] == 0 {
                continue;
            }
            let enabled = graph
                .input_channels(a)
                .iter()
                .all(|&cid| tokens[cid.index()] >= graph.channel(cid).consume() as i64);
            if !enabled {
                continue;
            }
            for &cid in graph.input_channels(a) {
                tokens[cid.index()] -= graph.channel(cid).consume() as i64;
            }
            for &cid in graph.output_channels(a) {
                tokens[cid.index()] += graph.channel(cid).produce() as i64;
            }
            remaining[a.index()] -= 1;
            fired += 1;
            progress = true;
        }
    }
    if fired == total {
        Ok(())
    } else {
        Err(SdfAnalysisError::Deadlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    #[test]
    fn homogeneous_graph_has_unit_vector() {
        let mut b = SdfGraphBuilder::new("h");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel(a, c, 1, 1, 0);
        let g = b.build().unwrap();
        assert_eq!(repetition_vector(&g).unwrap(), vec![1, 1]);
        assert!(is_consistent(&g));
    }

    #[test]
    fn multirate_vector_is_minimal() {
        let mut b = SdfGraphBuilder::new("m");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        let d = b.add_actor("d", 1);
        b.add_channel(a, c, 2, 3, 0);
        b.add_channel(c, d, 1, 2, 0);
        let g = b.build().unwrap();
        // q_a * 2 = q_c * 3; q_c * 1 = q_d * 2 -> q = [3, 2, 1]
        assert_eq!(repetition_vector(&g).unwrap(), vec![3, 2, 1]);
    }

    #[test]
    fn inconsistent_cycle_is_detected() {
        let mut b = SdfGraphBuilder::new("i");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel(a, c, 2, 1, 0);
        b.add_channel(c, a, 1, 1, 0); // forces q_a = q_c, contradicting 2:1
        let g = b.build().unwrap();
        assert_eq!(repetition_vector(&g).unwrap_err(), SdfAnalysisError::Inconsistent);
        assert!(!is_consistent(&g));
    }

    #[test]
    fn disconnected_components_are_independent() {
        let mut b = SdfGraphBuilder::new("d");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel(a, c, 4, 2, 0);
        b.add_channel(x, y, 1, 3, 0);
        let g = b.build().unwrap();
        assert_eq!(repetition_vector(&g).unwrap(), vec![1, 2, 3, 1]);
    }

    #[test]
    fn isolated_actor_fires_once() {
        let mut b = SdfGraphBuilder::new("iso");
        b.add_actor("lonely", 1);
        let g = b.build().unwrap();
        assert_eq!(repetition_vector(&g).unwrap(), vec![1]);
        assert!(check_deadlock_free(&g).is_ok());
    }

    #[test]
    fn cycle_without_tokens_deadlocks() {
        let mut b = SdfGraphBuilder::new("dead");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel(a, c, 1, 1, 0);
        b.add_channel(c, a, 1, 1, 0);
        let g = b.build().unwrap();
        assert_eq!(check_deadlock_free(&g).unwrap_err(), SdfAnalysisError::Deadlock);
    }

    #[test]
    fn cycle_with_token_is_live() {
        let mut b = SdfGraphBuilder::new("live");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel(a, c, 1, 1, 1);
        b.add_channel(c, a, 1, 1, 0);
        let g = b.build().unwrap();
        assert!(check_deadlock_free(&g).is_ok());
    }

    #[test]
    fn multirate_cycle_needs_enough_tokens() {
        let mut b = SdfGraphBuilder::new("mr");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel(a, c, 2, 3, 2); // q = [3, 2]
        b.add_channel(c, a, 3, 2, 2);
        let g = b.build().unwrap();
        assert_eq!(repetition_vector(&g).unwrap(), vec![3, 2]);
        assert!(check_deadlock_free(&g).is_ok());
    }

    #[test]
    fn self_loop_with_token_serialises() {
        let mut b = SdfGraphBuilder::new("sl");
        let a = b.add_actor("a", 1);
        b.add_channel(a, a, 1, 1, 1);
        let g = b.build().unwrap();
        assert!(check_deadlock_free(&g).is_ok());
        let mut b = SdfGraphBuilder::new("sl0");
        let a = b.add_actor("a", 1);
        b.add_channel(a, a, 1, 1, 0);
        let g = b.build().unwrap();
        assert_eq!(check_deadlock_free(&g).unwrap_err(), SdfAnalysisError::Deadlock);
    }
}
