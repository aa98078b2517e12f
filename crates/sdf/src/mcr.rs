//! Exact maximum-cycle-ratio analysis of homogeneous dataflow graphs.
//!
//! In a *homogeneous* graph every actor fires exactly once per iteration:
//! each channel produces as many tokens per firing as it consumes. The
//! self-timed execution of such a graph needs no exploration — the start
//! time of an actor's `k`-th firing is the max-plus recurrence
//! `x_v(k) = max over in-edges (u → v, t) of x_u(k − t) + exec(u)`, and its
//! growth rate, the steady-state cycles per iteration, is the **maximum
//! cycle ratio** `Σ exec / Σ tokens` over the cycles upstream of the actor
//! (Reiter 1968; Ghamarian et al. 2006 §3 use the same fact to check their
//! state-space method). An implicit one-token self-loop per actor forbids
//! auto-concurrency, as [`throughput_with`](crate::throughput_with) does.
//!
//! The ratio is found by Howard's policy iteration (Cochet-Terrasson et
//! al., "Numerical computation of spectral elements in max-plus algebra",
//! 1998) in integer arithmetic: ratios are compared by cross-multiplication
//! and potentials are kept scaled by their ratio's denominator, so there is
//! no epsilon and the answer is the exact rational. One round costs
//! `O(actors + edges)` and no state is stored.
//!
//! Most graphs run at the pace of their slowest actor, so before iterating
//! the solver tries to certify that answer with a longest-path pass. Let `λ`
//! be the largest execution time upstream of the reference. Potentials `π`,
//! from zero, are relaxed over every in-edge in the topological order of the
//! zero-token edges, keeping `π(v) ≥ π(u) + exec(u) − λ·tokens(u → v)`; when
//! a whole sweep raises no `π`, every edge keeps the inequality. Summed
//! around any cycle the inequalities telescope to `Σ exec − λ·Σ tokens ≤ 0`,
//! so no cycle's ratio exceeds `λ`, and the slowest actor's own self-loop
//! reaches it: the period is exactly `λ / 1`. A layout's model whose period
//! that is quiets by its third sweep almost always; the certificate gives
//! up after four, or sooner, as soon as a potential passes `Σ exec`, which
//! only a cycle above `λ` can push it to.
//!
//! When the certificate fails, Howard's iteration runs; it converges from
//! any initial policy, and this one starts where the certificate stopped.
//! Every member takes the in-edge its last sweep's potentials are tightest
//! on, the one maximising `π(u) + exec(u) − λ·tokens`, or keeps its implicit
//! self-loop when no in-edge beats that loop's `π(v) + exec(v) − λ`. The
//! sweeps have already pushed the weight of the heavy walks along those
//! edges, so the first evaluation usually finds the critical cycle or one
//! near it. A member that evaluation leaves under a cycle slower than its
//! own self-loop goes back to that self-loop, and the policy is evaluated
//! once more: improvement never picks a self-loop, so every member must
//! start under a ratio at least its own.

use crate::analysis::{gcd, SdfAnalysisError};
use crate::statespace::StateSpaceError;

/// The steady-state period of a homogeneous graph, as an exact ratio in
/// lowest terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRatio {
    /// Cycles per [`iterations`](Self::iterations) graph iterations.
    pub cycles: u64,
    /// Graph iterations completed every [`cycles`](Self::cycles) cycles.
    pub iterations: u64,
    /// Rounds the solver took, each `O(actors + edges)`: one when the
    /// largest-self-loop certificate settles the period (its sweeps count
    /// as that one round), else Howard's policy evaluations alone, the one
    /// that puts members back on their self-loops included (the
    /// certificate's at most four sweeps before them are not counted).
    pub rounds: u32,
}

const OVERFLOW: StateSpaceError = StateSpaceError::Analysis(SdfAnalysisError::Overflow);

/// Sweeps the certificate takes before it leaves the period to Howard's
/// iteration. Three relaxing sweeps and a quiet fourth settle every
/// catalogue layout whose period is its slowest actor but four in 2 167;
/// a graph with a heavier cycle never quiets, and pays sweeps until a
/// potential passes `Σ exec` or all four have run.
const CERTIFICATE_SWEEPS: usize = 4;

/// Marks the implicit self-loop in a policy.
const SELF_LOOP: u32 = u32::MAX;

/// A ratio `(cycles, tokens)` in lowest terms, `tokens >= 1`.
type Ratio = (u64, u64);

fn exceeds(a: Ratio, b: Ratio) -> bool {
    u128::from(a.0) * u128::from(b.1) > u128::from(b.0) * u128::from(a.1)
}

/// The weight `w − ratio · t` of an edge, scaled by the ratio's denominator.
fn reduced(w: u64, t: u32, (cycles, tokens): Ratio) -> Option<i128> {
    // `cycles * t` stays below 2^96; only the first product can overflow.
    let gain = i128::from(tokens).checked_mul(i128::from(w))?;
    Some(gain - i128::from(cycles) * i128::from(t))
}

/// Walk state of an actor during policy evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Walk {
    Unseen,
    OnPath,
    Done,
}

/// Working memory of [`max_cycle_ratio_in`]: every vector the solver fills,
/// kept between calls so a caller that solves one model after another (the
/// validation phase of an admission pipeline) pays for them once. Each call
/// overwrites all of it before reading any of it; nothing carries over.
#[derive(Debug, Clone, Default)]
pub struct CycleRatioScratch {
    /// CSR of edge indices by destination: `incoming[first[v]..first[v + 1]]`.
    first: Vec<u32>,
    incoming: Vec<u32>,
    /// The actors the reference depends on, itself included.
    members: Vec<usize>,
    seen: Vec<bool>,
    /// Zero-token out-edges per member, the peeling stack over them, and the
    /// members in the order they were peeled (reverse topological order of
    /// the zero-token edges).
    blocking: Vec<u32>,
    ready: Vec<usize>,
    peeled: Vec<usize>,
    /// Howard's iterate: the chosen in-edge of every actor ([`SELF_LOOP`]
    /// for the implicit one), the ratio of the policy cycle it hangs under,
    /// its potential scaled by that ratio's denominator. The certificate
    /// keeps its potentials in `dist` before Howard's iteration reuses it.
    chosen: Vec<u32>,
    ratio: Vec<Ratio>,
    dist: Vec<i128>,
    walk: Vec<Walk>,
    path: Vec<usize>,
}

/// Empties `v` and refills it with `n` copies of `value`.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) -> &mut [T] {
    v.clear();
    v.resize(n, value);
    v
}

/// Fills `first` and `rows` with the CSR of the edge indices grouped by
/// `end(edge)`, ascending within a row: `rows[first[v]..first[v + 1]]`.
fn group_edges<'a>(
    n: usize,
    edges: &[(u32, u32, u32)],
    end: impl Fn(&(u32, u32, u32)) -> u32,
    first: &'a mut Vec<u32>,
    rows: &'a mut Vec<u32>,
) -> (&'a [u32], &'a [u32]) {
    // Counting sort; the counts sit one slot late so that placing the edges
    // leaves `first[v]` at the start of `v`'s slice.
    let first = refill(first, n + 2, 0);
    for edge in edges {
        first[end(edge) as usize + 2] += 1;
    }
    for v in 2..n + 2 {
        first[v] += first[v - 1];
    }
    let rows = refill(rows, edges.len(), 0);
    for (e, edge) in edges.iter().enumerate() {
        let slot = &mut first[end(edge) as usize + 1];
        rows[*slot as usize] = e as u32;
        *slot += 1;
    }
    (first, rows)
}

/// The graph, indexed by destination.
struct Graph<'a> {
    exec: &'a [u64],
    edges: &'a [(u32, u32, u32)],
    first: &'a [u32],
    incoming: &'a [u32],
}

impl<'a> Graph<'a> {
    fn new(
        exec: &'a [u64],
        edges: &'a [(u32, u32, u32)],
        first: &'a mut Vec<u32>,
        incoming: &'a mut Vec<u32>,
    ) -> Self {
        let n = exec.len();
        for &(src, dst, _) in edges {
            assert!((src as usize) < n && (dst as usize) < n, "edge endpoint out of range");
        }
        let (first, incoming) = group_edges(n, edges, |&(_, dst, _)| dst, first, incoming);
        Graph { exec, edges, first, incoming }
    }

    /// `(edge index, source, tokens)` of every explicit edge into `v`.
    fn incoming(&self, v: usize) -> impl Iterator<Item = (u32, usize, u32)> + '_ {
        self.incoming[self.first[v] as usize..self.first[v + 1] as usize].iter().map(|&e| {
            let (src, _, tokens) = self.edges[e as usize];
            (e, src as usize, tokens)
        })
    }

    /// Collects into `members` the actors `reference` depends on (itself
    /// included) and into `peeled` the same actors in reverse topological
    /// order of the zero-token edges, or returns the error that makes the
    /// analysis pointless: a zero-token cycle among them, or execution times
    /// whose sum does not fit `u64`.
    fn upstream_of(
        &self,
        reference: usize,
        members: &mut Vec<usize>,
        seen: &mut Vec<bool>,
        blocking: &mut Vec<u32>,
        ready: &mut Vec<usize>,
        peeled: &mut Vec<usize>,
    ) -> Result<(), StateSpaceError> {
        let seen = refill(seen, self.exec.len(), false);
        seen[reference] = true;
        members.clear();
        members.push(reference);
        // Zero-token out-edges per member; all of them stay among the members.
        let blocking = refill(blocking, self.exec.len(), 0);
        let mut total = 0u64;
        let mut next = 0;
        while let Some(&v) = members.get(next) {
            next += 1;
            // No cycle weighs more than all members together, so the cycle
            // sums of `evaluate` cannot overflow once this one has not.
            total = total.checked_add(self.exec[v]).ok_or(OVERFLOW)?;
            for (_, src, tokens) in self.incoming(v) {
                blocking[src] += u32::from(tokens == 0);
                if !std::mem::replace(&mut seen[src], true) {
                    members.push(src);
                }
            }
        }
        // Peel actors with no zero-token out-edge left; what remains sits on
        // a cycle that holds no token and can never fire.
        ready.clear();
        ready.extend(members.iter().copied().filter(|&v| blocking[v] == 0));
        peeled.clear();
        while let Some(v) = ready.pop() {
            peeled.push(v);
            for (_, src, tokens) in self.incoming(v) {
                if tokens == 0 {
                    blocking[src] -= 1;
                    if blocking[src] == 0 {
                        ready.push(src);
                    }
                }
            }
        }
        if peeled.len() < members.len() {
            return Err(StateSpaceError::Deadlock);
        }
        Ok(())
    }

    /// Whether `lambda`, the largest execution time among the members, is
    /// their period. Potentials `π` start at zero, and each sweep relaxes
    /// every in-edge in topological order of the zero-token edges (`peeled`
    /// reversed) to keep `π(v) ≥ π(u) + exec(u) − λ·tokens`; a sweep that
    /// raises nothing proves the bound. Each `π` is the weight of a walk,
    /// and a walk without a cycle above `λ` weighs at most `Σ exec`, so the
    /// first raise past `Σ exec` proves such a cycle and gives up at once.
    /// The potentials thus stay within `0..=Σ exec`, a relaxed value within
    /// `2·Σ exec`, and nothing overflows `i128`. When the certificate gives
    /// up, `potential` holds where it stopped.
    fn certify(
        &self,
        members: &[usize],
        peeled: &[usize],
        lambda: u64,
        potential: &mut [i128],
    ) -> bool {
        if lambda == 0 {
            return false;
        }
        let ceiling: i128 = members.iter().map(|&v| i128::from(self.exec[v])).sum();
        for _ in 0..CERTIFICATE_SWEEPS {
            let mut raised = false;
            for &v in peeled.iter().rev() {
                for (_, u, tokens) in self.incoming(v) {
                    let reach = potential[u] + i128::from(self.exec[u])
                        - i128::from(lambda) * i128::from(tokens);
                    if reach > potential[v] {
                        if reach > ceiling {
                            return false;
                        }
                        potential[v] = reach;
                        raised = true;
                    }
                }
            }
            if !raised {
                return true;
            }
        }
        false
    }

    /// Howard's first policy after a certificate that did not settle: each
    /// member chooses the in-edge maximising `π(u) + exec(u) − λ·tokens`,
    /// the first among equals, and keeps its implicit self-loop when no
    /// in-edge beats the loop's own `π(v) + exec(v) − λ`.
    fn warm_start(&self, members: &[usize], lambda: u64, potential: &[i128], chosen: &mut [u32]) {
        let lambda = i128::from(lambda);
        for &v in members {
            let mut best = potential[v] + i128::from(self.exec[v]) - lambda;
            for (e, u, tokens) in self.incoming(v) {
                let reach = potential[u] + i128::from(self.exec[u]) - lambda * i128::from(tokens);
                if reach > best {
                    best = reach;
                    chosen[v] = e;
                }
            }
        }
    }
}

/// Howard's iterate: one chosen in-edge per actor and its evaluation.
struct Policy<'a> {
    /// The chosen in-edge of every actor ([`SELF_LOOP`] for the implicit one).
    chosen: &'a mut [u32],
    /// Ratio of the policy cycle each actor hangs under.
    ratio: &'a mut [Ratio],
    /// Potential of each actor, scaled by its ratio's denominator.
    dist: &'a mut [i128],
    walk: &'a mut [Walk],
    path: &'a mut Vec<usize>,
}

impl Policy<'_> {
    /// Source, weight and tokens of `v`'s chosen in-edge.
    fn chosen(&self, graph: &Graph, v: usize) -> (usize, u64, u32) {
        match self.chosen[v] {
            SELF_LOOP => (v, graph.exec[v], 1),
            e => {
                let (src, _, tokens) = graph.edges[e as usize];
                (src as usize, graph.exec[src as usize], tokens)
            }
        }
    }

    /// Policy evaluation: following chosen in-edges from any actor ends in
    /// exactly one cycle; every actor gets that cycle's ratio and its
    /// potential relative to a root on the cycle.
    fn evaluate(&mut self, graph: &Graph, members: &[usize]) -> Result<(), StateSpaceError> {
        self.walk.fill(Walk::Unseen);
        for &start in members {
            self.path.clear();
            let mut v = start;
            while self.walk[v] == Walk::Unseen {
                self.walk[v] = Walk::OnPath;
                self.path.push(v);
                v = self.chosen(graph, v).0;
            }
            if self.walk[v] == Walk::OnPath {
                // The walk closed a cycle through `v`; `v` becomes its root.
                let (mut cycles, mut tokens) = (0u64, 0u64);
                let mut x = v;
                loop {
                    let (src, w, t) = self.chosen(graph, x);
                    cycles += w;
                    tokens += u64::from(t);
                    x = src;
                    if x == v {
                        break;
                    }
                }
                let g = gcd(cycles, tokens);
                let ratio = (cycles / g, tokens / g);
                // A root keeps its potential while its ratio stands (the
                // cycle is then an old one): potentials only grow between
                // ratio changes, which is what rules out cycling among
                // policies of equal ratio.
                if self.ratio[v] != ratio {
                    self.ratio[v] = ratio;
                    self.dist[v] = 0;
                }
                self.walk[v] = Walk::Done;
            }
            for i in (0..self.path.len()).rev() {
                let x = self.path[i];
                if self.walk[x] == Walk::Done {
                    continue;
                }
                let (src, w, t) = self.chosen(graph, x);
                let ratio = self.ratio[src];
                self.ratio[x] = ratio;
                self.dist[x] = reduced(w, t, ratio)
                    .and_then(|r| r.checked_add(self.dist[src]))
                    .ok_or(OVERFLOW)?;
                self.walk[x] = Walk::Done;
            }
        }
        Ok(())
    }

    /// Puts every member the last evaluation left under a ratio below its
    /// own self-loop's back on that self-loop; `true` when one moved. One
    /// pass suffices: a member that moved becomes the root of every member
    /// hanging under it, which then runs at its self-loop's ratio, above
    /// the old one and so at least theirs.
    fn restore_self_loops(&mut self, graph: &Graph, members: &[usize]) -> bool {
        let mut restored = false;
        for &v in members {
            if exceeds((graph.exec[v], 1), self.ratio[v]) {
                self.chosen[v] = SELF_LOOP;
                restored = true;
            }
        }
        restored
    }

    /// Policy improvement; `false` when the policy is optimal. An actor
    /// first adopts a predecessor under a larger ratio; only when no actor
    /// can, one that raises its potential under the same ratio. An implicit
    /// self-loop is never an improvement: after
    /// [`restore_self_loops`](Self::restore_self_loops) every actor runs
    /// under a ratio at least its own self-loop's, and ratios only grow
    /// from there.
    fn improve(&mut self, graph: &Graph, members: &[usize]) -> Result<bool, StateSpaceError> {
        let mut changed = false;
        for &v in members {
            let mut best = self.ratio[v];
            for (e, src, _) in graph.incoming(v) {
                if exceeds(self.ratio[src], best) {
                    best = self.ratio[src];
                    self.chosen[v] = e;
                    changed = true;
                }
            }
        }
        if changed {
            return Ok(true);
        }
        for &v in members {
            let ratio = self.ratio[v];
            let mut best = self.dist[v];
            for (e, src, tokens) in graph.incoming(v) {
                if self.ratio[src] != ratio {
                    continue;
                }
                let dist = reduced(graph.exec[src], tokens, ratio)
                    .and_then(|r| r.checked_add(self.dist[src]))
                    .ok_or(OVERFLOW)?;
                if dist > best {
                    best = dist;
                    self.chosen[v] = e;
                    changed = true;
                }
            }
        }
        Ok(changed)
    }
}

/// Computes the exact steady-state period of actor `reference` in the
/// homogeneous graph whose actor `i` executes for `exec[i]` cycles and whose
/// `edges` are `(src, dst, initial tokens)`; every actor also carries an
/// implicit one-token self-loop (no auto-concurrency). The period is the
/// maximum of `Σ exec / Σ tokens` over the cycles `reference` depends on,
/// which on a strongly connected graph is every cycle.
///
/// # Errors
///
/// * [`StateSpaceError::Deadlock`] when a cycle without tokens lies upstream
///   of `reference`: it can never fire, and `reference` starves with it;
/// * [`StateSpaceError::ZeroTimeCycle`] when the period is zero (every actor
///   upstream executes in zero time);
/// * [`StateSpaceError::Analysis`] with [`SdfAnalysisError::Overflow`] when
///   the upstream execution times do not sum within `u64`, or a potential
///   leaves `i128`.
///
/// # Panics
///
/// Panics if `reference` or an edge endpoint is out of range for `exec`.
///
/// # Examples
///
/// ```
/// use kairos_sdf::max_cycle_ratio;
///
/// // A 2-cycle and a 3-cycle actor around a ring holding one token: the
/// // ring (5 cycles per token) outweighs either self-loop.
/// let ring = max_cycle_ratio(&[2, 3], &[(0, 1, 1), (1, 0, 0)], 0)?;
/// assert_eq!((ring.cycles, ring.iterations), (5, 1));
/// // A second token lets the two overlap; the slower actor sets the pace.
/// let pipelined = max_cycle_ratio(&[2, 3], &[(0, 1, 1), (1, 0, 1)], 0)?;
/// assert_eq!((pipelined.cycles, pipelined.iterations), (3, 1));
/// # Ok::<(), kairos_sdf::StateSpaceError>(())
/// ```
pub fn max_cycle_ratio(
    exec: &[u64],
    edges: &[(u32, u32, u32)],
    reference: usize,
) -> Result<CycleRatio, StateSpaceError> {
    max_cycle_ratio_in(exec, edges, reference, &mut CycleRatioScratch::default())
}

/// [`max_cycle_ratio`] in caller-owned working memory: same answer, and no
/// allocation once `scratch` has seen a graph as large.
///
/// # Errors
///
/// See [`max_cycle_ratio`].
///
/// # Panics
///
/// See [`max_cycle_ratio`].
pub fn max_cycle_ratio_in(
    exec: &[u64],
    edges: &[(u32, u32, u32)],
    reference: usize,
    scratch: &mut CycleRatioScratch,
) -> Result<CycleRatio, StateSpaceError> {
    solve(exec, edges, reference, scratch, None)
}

/// The first policy of a Howard-only run: it lays its choices over the
/// all-self-loop policy `chosen` of the members.
type Start = fn(&Graph, &[usize], &mut [u32]);

/// [`max_cycle_ratio_in`]: the certificate, then Howard's iteration from
/// its potentials; or, given a `start`, Howard's iteration alone from the
/// policy it lays.
fn solve(
    exec: &[u64],
    edges: &[(u32, u32, u32)],
    reference: usize,
    scratch: &mut CycleRatioScratch,
    start: Option<Start>,
) -> Result<CycleRatio, StateSpaceError> {
    assert!(reference < exec.len(), "reference actor out of range");
    let CycleRatioScratch {
        first,
        incoming,
        members,
        seen,
        blocking,
        ready,
        peeled,
        chosen,
        ratio,
        dist,
        walk,
        path,
    } = scratch;
    let graph = Graph::new(exec, edges, first, incoming);
    graph.upstream_of(reference, members, seen, blocking, ready, peeled)?;
    let n = exec.len();
    let chosen = refill(chosen, n, SELF_LOOP);
    match start {
        Some(start) => start(&graph, members, chosen),
        None => {
            let lambda = members.iter().map(|&v| exec[v]).max().unwrap_or(0);
            let potential = refill(dist, n, 0);
            if graph.certify(members, peeled, lambda, potential) {
                return Ok(CycleRatio { cycles: lambda, iterations: 1, rounds: 1 });
            }
            graph.warm_start(members, lambda, potential, chosen);
        }
    }
    let mut policy = Policy {
        chosen,
        ratio: refill(ratio, n, (0, 0)),
        dist: refill(dist, n, 0),
        walk: refill(walk, n, Walk::Unseen),
        path,
    };
    let mut rounds = 1;
    policy.evaluate(&graph, members)?;
    if policy.restore_self_loops(&graph, members) {
        rounds += 1;
        policy.evaluate(&graph, members)?;
    }
    while policy.improve(&graph, members)? {
        rounds += 1;
        policy.evaluate(&graph, members)?;
    }
    let (cycles, iterations) = policy.ratio[reference];
    if cycles == 0 {
        return Err(StateSpaceError::ZeroTimeCycle);
    }
    Ok(CycleRatio { cycles, iterations, rounds })
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;

    use super::*;
    use crate::graph::{ActorId, SdfGraphBuilder};
    use crate::statespace::throughput;
    use proptest::prelude::*;

    /// Howard's iteration alone from the in-tree the solver started from
    /// before the certificate's potentials did: the member that executes
    /// longest (the lowest id among equals) keeps its self-loop as the
    /// root, and every member a breadth-first search reaches from it over
    /// out-edges hangs under the edge it was first reached by.
    fn howard_only(
        exec: &[u64],
        edges: &[(u32, u32, u32)],
        reference: usize,
    ) -> Result<CycleRatio, StateSpaceError> {
        solve(exec, edges, reference, &mut CycleRatioScratch::default(), Some(plant))
    }

    fn plant(graph: &Graph, members: &[usize], chosen: &mut [u32]) {
        let n = graph.exec.len();
        let (mut first_out, mut outgoing) = (Vec::new(), Vec::new());
        let (first_out, outgoing) =
            group_edges(n, graph.edges, |&(src, _, _)| src, &mut first_out, &mut outgoing);
        let mut member = vec![false; n];
        members.iter().for_each(|&v| member[v] = true);
        let root = members.iter().copied().max_by_key(|&v| (graph.exec[v], Reverse(v)));
        let mut queue: Vec<usize> = root.into_iter().collect();
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            for &e in &outgoing[first_out[u] as usize..first_out[u + 1] as usize] {
                let dst = graph.edges[e as usize].1 as usize;
                if member[dst] && chosen[dst] == SELF_LOOP && Some(dst) != root {
                    chosen[dst] = e;
                    queue.push(dst);
                }
            }
        }
    }

    /// Howard's iteration alone from the start it had before the in-tree:
    /// every actor on its implicit self-loop.
    fn from_self_loops(
        exec: &[u64],
        edges: &[(u32, u32, u32)],
        reference: usize,
    ) -> Result<CycleRatio, StateSpaceError> {
        solve(exec, edges, reference, &mut CycleRatioScratch::default(), Some(|_, _, _| {}))
    }

    /// `(cycles, iterations)` or the error: what every path must agree on.
    fn answer(result: Result<CycleRatio, StateSpaceError>) -> Result<(u64, u64), StateSpaceError> {
        result.map(|ratio| (ratio.cycles, ratio.iterations))
    }

    /// One execution time in twelve is near `u64::MAX / 2`, one is zero.
    fn hostile_exec(&(small, pick): &(u64, u32)) -> u64 {
        match pick {
            0 => u64::MAX / 2 - small,
            1 => 0,
            _ => small,
        }
    }

    /// A random homogeneous graph folded onto its actors: several
    /// components, parallel edges, zero-token cycles.
    fn random_graph(
        exec: &[(u64, u32)],
        edges: &[(u32, u32, u32)],
        reference: usize,
    ) -> (Vec<u64>, Vec<(u32, u32, u32)>, usize) {
        let exec: Vec<u64> = exec.iter().map(hostile_exec).collect();
        let n = exec.len() as u32;
        let edges = edges.iter().map(|&(s, d, t)| (s % n, d % n, t)).collect();
        let reference = reference % exec.len();
        (exec, edges, reference)
    }

    /// A graph shaped like a layout's model: every channel `(src, dst,
    /// buffer, transport)` between two distinct tasks is a zero-token data
    /// edge mirrored by a back-edge of `buffer` tokens, run through a
    /// transport actor of `transport − 20` cycles when `transport >= 20`.
    /// Tasks no channel joins form components of their own, and two
    /// channels in opposite directions close a zero-token cycle.
    fn layout_graph(
        tasks: &[(u64, u32)],
        channels: &[(u32, u32, u32, u64)],
        reference: usize,
    ) -> (Vec<u64>, Vec<(u32, u32, u32)>, usize) {
        let mut exec: Vec<u64> = tasks.iter().map(hostile_exec).collect();
        let n = exec.len() as u32;
        let mut edges = Vec::new();
        let mut link = |src: u32, dst: u32, buffer: u32| {
            edges.extend([(src, dst, 0), (dst, src, buffer)]);
        };
        for &(src, dst, buffer, transport) in channels {
            let (src, dst) = (src % n, dst % n);
            if src == dst {
                continue;
            }
            if transport < 20 {
                link(src, dst, buffer);
            } else {
                let actor = exec.len() as u32;
                exec.push(transport - 20);
                link(src, actor, buffer);
                link(actor, dst, buffer);
            }
        }
        let reference = reference % tasks.len();
        (exec, edges, reference)
    }

    /// A staircase: zero-token pairs `x → y` of the given execution times,
    /// each `y` feeding the next pair's `x` over one token, and the last
    /// `y` feeding the reference, the last actor, which executes for
    /// `top`. No cycle but the self-loops, so the reference's period is the
    /// largest self-loop upstream of it; but each certificate sweep climbs
    /// one stair, so past [`CERTIFICATE_SWEEPS`] stairs the certificate
    /// gives up, and its potentials can hang the reference under a slower
    /// self-loop than its own.
    fn staircase(pairs: &[(u64, u64)], top: u64) -> (Vec<u64>, Vec<(u32, u32, u32)>, usize) {
        let mut exec: Vec<u64> = pairs.iter().flat_map(|&(x, y)| [x, y]).collect();
        exec.push(top);
        let edges = (0..pairs.len() as u32)
            .flat_map(|k| [(2 * k, 2 * k + 1, 0), (2 * k + 1, 2 * k + 2, 1)])
            .collect();
        let reference = exec.len() - 1;
        (exec, edges, reference)
    }

    /// The solver against Howard's iteration alone, from the in-tree and
    /// from the self-loops: the same exact ratio or the same error. The
    /// rounds may differ, since the warm start is another first policy.
    fn assert_certified_like_howard(
        exec: &[u64],
        edges: &[(u32, u32, u32)],
        reference: usize,
    ) -> Result<(), String> {
        let mut scratch = CycleRatioScratch::default();
        let ours = answer(max_cycle_ratio_in(exec, edges, reference, &mut scratch));
        prop_assert_eq!(ours, answer(howard_only(exec, edges, reference)));
        prop_assert_eq!(ours, answer(from_self_loops(exec, edges, reference)));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The in-tree start finds what the self-loop start finds — the
        /// same exact ratio, or the same error — on random homogeneous
        /// graphs: several components, parallel edges, zero-token cycles,
        /// zero execution times and execution times near `u64::MAX / 2`.
        #[test]
        fn the_in_tree_start_finds_what_the_self_loops_find(
            exec in proptest::collection::vec((0u64..20, 0u32..12), 1..9),
            edges in proptest::collection::vec((0u32..9, 0u32..9, 0u32..4), 0..18),
            reference in 0usize..9,
        ) {
            let (exec, edges, reference) = random_graph(&exec, &edges, reference);
            let in_tree = howard_only(&exec, &edges, reference);
            prop_assert_eq!(answer(in_tree), answer(from_self_loops(&exec, &edges, reference)));
        }

        /// The certificate settles only what Howard's iteration would find,
        /// on the same random homogeneous graphs.
        #[test]
        fn the_certificate_answers_what_howard_answers(
            exec in proptest::collection::vec((0u64..20, 0u32..12), 1..9),
            edges in proptest::collection::vec((0u32..9, 0u32..9, 0u32..4), 0..18),
            reference in 0usize..9,
        ) {
            let (exec, edges, reference) = random_graph(&exec, &edges, reference);
            assert_certified_like_howard(&exec, &edges, reference)?;
        }

        /// ...and on layout-shaped graphs, where it settles most periods:
        /// back-edges of 1–4 tokens, transport actors, components where
        /// another one holds the largest execution time or deadlocks.
        #[test]
        fn the_certificate_answers_what_howard_answers_on_layouts(
            tasks in proptest::collection::vec((0u64..60, 0u32..12), 1..9),
            channels in proptest::collection::vec((0u32..9, 0u32..9, 1u32..=4, 0u64..40), 0..14),
            reference in 0usize..9,
        ) {
            let (exec, edges, reference) = layout_graph(&tasks, &channels, reference);
            assert_certified_like_howard(&exec, &edges, reference)?;
        }

        /// ...and on staircases, where the warm start can leave the
        /// reference under a slower self-loop than its own: what
        /// `Policy::restore_self_loops` puts right.
        #[test]
        fn the_certificate_answers_what_howard_answers_on_staircases(
            pairs in proptest::collection::vec((1u64..20, 1u64..20), 1..9),
            top in 1u64..24,
        ) {
            let (exec, edges, reference) = staircase(&pairs, top);
            assert_certified_like_howard(&exec, &edges, reference)?;
        }
    }

    #[test]
    fn every_path_agrees_on_the_hostile_cases() {
        let huge = u64::MAX / 2;
        let edges = [(0, 1, 0), (1, 0, 2), (1, 2, 0), (2, 1, 2)];
        for (exec, edges, reference) in [
            (&[huge; 3][..], &edges[..], 2),
            (&[huge; 2][..], &edges[..2], 1),
            (&[huge, 1, huge][..], &edges[..], 0),
            (&[1, huge, 0][..], &edges[..], 2),
            (&[0, 0, 0][..], &edges[..], 1),
            (&[0, 0, huge][..], &[(0, 1, 0), (1, 0, 1), (2, 0, 1)][..], 1),
        ] {
            let ours = answer(max_cycle_ratio(exec, edges, reference));
            assert_eq!(ours, answer(howard_only(exec, edges, reference)), "{exec:?}");
            assert_eq!(ours, answer(from_self_loops(exec, edges, reference)), "{exec:?}");
        }
    }

    #[test]
    fn the_in_tree_hands_the_largest_self_loop_on_in_one_evaluation() {
        // A one-token ring of eight actors, each with a two-token back-edge
        // and the heaviest at the far end from the reference: the
        // self-loops spread its ratio one hop per round, the in-tree in one.
        let n = 8u32;
        let exec: Vec<u64> = (0..u64::from(n)).map(|i| if i == 5 { 9 } else { 1 }).collect();
        let mut edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, 2)).collect();
        edges.extend((0..n).map(|i| ((i + 1) % n, i, 2)));
        let in_tree = howard_only(&exec, &edges, 0).unwrap();
        let old = from_self_loops(&exec, &edges, 0).unwrap();
        assert_eq!((in_tree.cycles, in_tree.iterations), (old.cycles, old.iterations));
        assert_eq!((in_tree.cycles, in_tree.iterations), (9, 1));
        assert!(in_tree.rounds < old.rounds, "{in_tree:?} vs {old:?}");
        assert_eq!(in_tree.rounds, 1);
        // The certificate settles the same period before Howard's first round.
        assert_eq!(max_cycle_ratio(&exec, &edges, 0), Ok(CycleRatio { rounds: 1, ..in_tree }));
    }

    #[test]
    fn the_certificate_falls_through_when_a_cycle_outweighs_every_self_loop() {
        // The diamond's critical cycle (18 cycles on one token) is three times
        // its slowest actor: the certificate cannot settle it, and Howard's
        // iteration answers, from the certificate's potentials in two rounds
        // where the in-tree takes four.
        let exec = [3, 4, 5, 6];
        let edges = DIAMOND;
        let ours = max_cycle_ratio(&exec, &edges, 0).unwrap();
        let howard = howard_only(&exec, &edges, 0).unwrap();
        assert_eq!(ours, CycleRatio { cycles: 18, iterations: 1, rounds: 2 });
        assert_eq!(howard, CycleRatio { rounds: 4, ..ours });
    }

    #[test]
    fn a_member_the_warm_start_leaves_below_its_self_loop_goes_back_to_it() {
        // A staircase of five 9-cycle pairs x -> y, each y feeding the next
        // x over one token and the last one feeding the 10-cycle reference.
        // No cycle but the self-loops: the reference runs at its own 10.
        // Each sweep climbs one stair, so the certificate gives up after
        // four, and its potentials hang every actor under the edge it was
        // raised by: the reference under the first x's 9-cycle self-loop,
        // which no in-edge improves on. Back on its own self-loop, it reads
        // 10 in the second evaluation.
        let mut exec = vec![9; 10];
        exec.push(10);
        let edges: Vec<_> =
            (0..5).flat_map(|k| [(2 * k, 2 * k + 1, 0), (2 * k + 1, 2 * k + 2, 1)]).collect();
        let ours = max_cycle_ratio(&exec, &edges, 10).unwrap();
        assert_eq!(ours, CycleRatio { cycles: 10, iterations: 1, rounds: 2 });
        assert_eq!(answer(Ok(ours)), answer(howard_only(&exec, &edges, 10)));
        assert_eq!(answer(Ok(ours)), answer(from_self_loops(&exec, &edges, 10)));
    }

    /// The solver's ratio, after checking it against the state-space oracle
    /// on the same graph.
    fn checked(exec: &[u64], edges: &[(u32, u32, u32)], reference: usize) -> (u64, u64) {
        let ratio = max_cycle_ratio(exec, edges, reference).unwrap();
        let mut b = SdfGraphBuilder::new("oracle");
        for (i, &e) in exec.iter().enumerate() {
            b.add_actor(format!("a{i}"), e);
        }
        for &(src, dst, tokens) in edges {
            b.add_channel(ActorId(src), ActorId(dst), 1, 1, tokens);
        }
        let oracle = throughput(&b.build().unwrap(), ActorId(reference as u32)).unwrap();
        assert_eq!(
            u128::from(ratio.cycles) * u128::from(oracle.period_firings),
            u128::from(oracle.period_time) * u128::from(ratio.iterations),
            "solver {ratio:?} vs oracle {oracle:?}"
        );
        (ratio.cycles, ratio.iterations)
    }

    #[test]
    fn ping_pong_runs_at_the_slower_actor() {
        assert_eq!(checked(&[2, 5], &[(0, 1, 1), (1, 0, 1)], 0), (5, 1));
        assert_eq!(checked(&[2, 5], &[(0, 1, 1), (1, 0, 1)], 1), (5, 1));
    }

    #[test]
    fn single_token_ring_serialises() {
        assert_eq!(checked(&[2, 3], &[(0, 1, 1), (1, 0, 0)], 0), (5, 1));
        // Two tokens on a ring of 7 + 4 + 8 cycles: 19 / 2 beats the
        // 8-cycle self-loop, and the ratio stays a fraction.
        assert_eq!(checked(&[7, 4, 8], &[(0, 1, 1), (1, 2, 1), (2, 0, 0)], 2), (19, 2));
    }

    /// a -> b -> c -> d along the long branch, a -> d along the short
    /// one; every channel is backed by a two-token back-edge except the
    /// short one's, which holds one.
    const DIAMOND: [(u32, u32, u32); 8] =
        [(0, 1, 0), (1, 0, 2), (1, 2, 0), (2, 1, 2), (2, 3, 0), (3, 2, 2), (0, 3, 0), (3, 0, 1)];

    #[test]
    fn diamond_critical_cycle_goes_out_long_and_back_short() {
        // The critical cycle runs forward through b and c and returns over
        // the single token: (3 + 4 + 5 + 6) / 1, above every two-actor cycle
        // and self-loop.
        for reference in 0..4 {
            assert_eq!(checked(&[3, 4, 5, 6], &DIAMOND, reference), (18, 1));
        }
    }

    #[test]
    fn zero_token_cycle_is_a_deadlock() {
        let err = max_cycle_ratio(&[1, 1], &[(0, 1, 0), (1, 0, 0)], 0).unwrap_err();
        assert_eq!(err, StateSpaceError::Deadlock);
        // Also when only upstream of the reference, and whatever it weighs.
        let edges = [(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 3)];
        assert_eq!(max_cycle_ratio(&[0, 0, 9], &edges, 2).unwrap_err(), StateSpaceError::Deadlock);
    }

    #[test]
    fn components_are_analysed_apart() {
        // {0, 1} ping-pong at 5 cycles; {2, 3} is a dead ring. The reference
        // decides which one is analysed.
        let exec = [2, 5, 1, 1];
        let edges = [(0, 1, 1), (1, 0, 1), (2, 3, 0), (3, 2, 0)];
        assert_eq!(checked(&exec, &edges, 0), (5, 1));
        assert_eq!(max_cycle_ratio(&exec, &edges, 2).unwrap_err(), StateSpaceError::Deadlock);
        // Two live components with different periods.
        let edges = [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 0)];
        assert_eq!(checked(&exec, &edges, 1), (5, 1));
        assert_eq!(checked(&exec, &edges, 3), (2, 1));
    }

    #[test]
    fn only_upstream_cycles_bound_the_reference() {
        // The one-token ring 0 <-> 1 feeds 2 over an edge with no back-edge:
        // a fast consumer cannot outrun its producer...
        let edges = [(0, 1, 1), (1, 0, 0), (1, 2, 0)];
        assert_eq!(checked(&[10, 10, 1], &edges, 2), (20, 1));
        // ...and a slow one does not hold the ring back (its input just
        // piles up, which is why the oracle has no answer here).
        let slow = max_cycle_ratio(&[1, 1, 50], &edges, 0).unwrap();
        assert_eq!((slow.cycles, slow.iterations), (2, 1));
        let slow = max_cycle_ratio(&[1, 1, 50], &edges, 2).unwrap();
        assert_eq!((slow.cycles, slow.iterations), (50, 1));
    }

    #[test]
    fn hostile_cycle_counts_overflow_cleanly() {
        let huge = u64::MAX / 2;
        let edges = [(0, 1, 0), (1, 0, 2), (1, 2, 0), (2, 1, 2)];
        assert_eq!(max_cycle_ratio(&[huge; 3], &edges, 2).unwrap_err(), OVERFLOW);
        // Two of them still fit, and the answer is exact.
        let pair = max_cycle_ratio(&[huge; 2], &edges[..2], 1).unwrap();
        assert_eq!((pair.cycles, pair.iterations), (huge, 1));
    }

    #[test]
    fn zero_time_graphs_are_refused() {
        let err = max_cycle_ratio(&[0, 0], &[(0, 1, 1), (1, 0, 1)], 0).unwrap_err();
        assert_eq!(err, StateSpaceError::ZeroTimeCycle);
    }

    #[test]
    fn reused_scratch_answers_like_a_fresh_one() {
        // Large then small then failing then large again: every vector is
        // refilled before it is read, so no call sees the one before it.
        let (diamond_exec, diamond) = ([3, 4, 5, 6], DIAMOND);
        type Case<'a> = (&'a [u64], &'a [(u32, u32, u32)], usize);
        let cases: [Case; 6] = [
            (&diamond_exec, &diamond, 3),
            (&[2, 5], &[(0, 1, 1), (1, 0, 1)], 1),
            (&[1, 1], &[(0, 1, 0), (1, 0, 0)], 0),
            (&[9], &[], 0),
            (&[7, 4, 8], &[(0, 1, 1), (1, 2, 1), (2, 0, 0)], 2),
            (&diamond_exec, &diamond, 0),
        ];
        let mut scratch = CycleRatioScratch::default();
        for (exec, edges, reference) in cases {
            assert_eq!(
                max_cycle_ratio_in(exec, edges, reference, &mut scratch),
                max_cycle_ratio(exec, edges, reference),
                "{exec:?} from {reference}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "reference actor out of range")]
    fn bad_reference_panics() {
        let _ = max_cycle_ratio(&[1], &[], 1);
    }
}
