//! The conflict-free PLM move phase: the [`MoveStrategy`] knob and the
//! coloring-isolated alternative to the racy default.
//!
//! The paper's move phase (§III-B, [`crate::move_phase`]) lets every node
//! move concurrently against *stale* labels and volumes: fast, but the
//! result depends on the thread schedule, and contended volume cache lines
//! cost throughput at high core counts. The coloring phase trades a little
//! per-sweep freshness for schedule independence (DESIGN.md §14): a
//! distance-1 coloring ([`parcom_graph::Coloring`]) splits the nodes into
//! independent sets; each class moves fully in parallel with no atomics
//! and no stale neighbor labels (no two neighbors move in the same step),
//! classes committing one after the other in fixed order. The VFC-Louvain
//! vertex-following trick keeps degree-1 nodes out of the coloring and
//! moves them as one final class.
//!
//! The phase keeps all decision-relevant floating-point accumulation
//! sequential or per-node (never a parallel reduction), so the resulting
//! partitions are bit-identical at any thread count and across repeated
//! runs — the determinism contract `parcom-serve` relies on.

use crate::quality::delta_modularity;
use parcom_graph::{Coloring, Graph, Node, Partition, ScratchPool, SparseWeightMap};
use parcom_guard::{Budget, Termination};
use parcom_obs::Recorder;
use rayon::prelude::*;

/// How PLM/PLMR's move phase schedules concurrent node moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MoveStrategy {
    /// The paper's benign-race phase: all nodes move concurrently against
    /// possibly stale labels and volumes. Fastest per sweep, but the
    /// output depends on the thread schedule.
    #[default]
    Racy,
    /// Color classes move one after another; within a class there are no
    /// adjacent nodes, hence no stale neighbor labels and no atomics.
    /// Deterministic at any thread count.
    Coloring,
}

impl MoveStrategy {
    /// Every strategy, in wire-name order.
    pub const ALL: [MoveStrategy; 2] = [MoveStrategy::Racy, MoveStrategy::Coloring];

    /// The wire name used by the `move=` spec knob and the CLI flag.
    pub fn wire_name(self) -> &'static str {
        match self {
            MoveStrategy::Racy => "racy",
            MoveStrategy::Coloring => "coloring",
        }
    }

    /// Parses a wire name; the error message enumerates the accepted set.
    pub fn from_wire(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.wire_name() == s)
            .ok_or_else(|| {
                let accepted: Vec<&str> = Self::ALL.iter().map(|m| m.wire_name()).collect();
                format!("expected one of {}, got `{s}`", accepted.join("|"))
            })
    }

    /// Whether this strategy guarantees bit-identical output at any
    /// thread count.
    pub fn is_deterministic(self) -> bool {
        self == MoveStrategy::Coloring
    }
}

impl std::fmt::Display for MoveStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl std::str::FromStr for MoveStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::from_wire(s)
    }
}

/// The frozen per-class state a proposal is evaluated against.
struct MoveState<'a> {
    labels: &'a [u32],
    volumes: &'a [f64],
    total: f64,
    gamma: f64,
}

/// The best strictly-improving move for `u` against `state`, or `None`.
/// Tie-breaking matches the racy phase exactly: highest Δmod, then the
/// smallest community id, candidates scanned in CSR neighbor order.
fn best_move(
    g: &Graph,
    u: Node,
    state: &MoveState<'_>,
    weight_to: &mut SparseWeightMap,
) -> Option<u32> {
    if g.degree(u) == 0 {
        return None;
    }
    weight_to.clear();
    for (v, w) in g.edges_of(u) {
        if v != u {
            weight_to.add(state.labels[v as usize], w);
        }
    }
    let c = state.labels[u as usize];
    let vol_u = g.volume(u);
    let weight_to_c = weight_to.get(c);
    let vol_c_without_u = state.volumes[c as usize] - vol_u;

    let mut best_delta = 0.0;
    let mut best_community = c;
    for (d, weight_to_d) in weight_to.iter() {
        if d == c {
            continue;
        }
        let delta = delta_modularity(
            weight_to_c,
            weight_to_d,
            vol_c_without_u,
            state.volumes[d as usize],
            vol_u,
            state.total,
            state.gamma,
        );
        if delta > best_delta || (delta == best_delta && best_community != c && d < best_community)
        {
            best_delta = delta;
            best_community = d;
        }
    }
    (best_community != c && best_delta > 0.0).then_some(best_community)
}

/// Below this many nodes a proposal pass runs inline: spawning workers
/// (the rayon shim starts scoped OS threads per parallel call) costs more
/// than the tally work itself, and the coloring phase issues one pass per
/// color class — most of which are small.
const SEQUENTIAL_PROPOSE_CUTOFF: usize = 4096;

/// Proposals for `nodes` against the frozen `state`, in input order.
/// Each worker draws one scratch map from the pool; the parallel shape
/// (fold per part, concatenate in part order) preserves node order, and no
/// floating-point value crosses a thread boundary — the returned list is
/// schedule-independent. Small inputs (and single-thread pools) take a
/// plain loop over the same node order, which is bit-identical.
// audit:allow(budget-propagation): one pass over one color class; the caller checks the budget at every class boundary
fn propose(
    g: &Graph,
    nodes: &[Node],
    state: &MoveState<'_>,
    scratch: &ScratchPool,
    capacity: usize,
) -> Vec<(Node, u32)> {
    if nodes.len() < SEQUENTIAL_PROPOSE_CUTOFF || rayon::current_num_threads() == 1 {
        let mut weight_to = scratch.take(capacity);
        return nodes
            .iter()
            .filter_map(|&u| best_move(g, u, state, &mut weight_to).map(|d| (u, d)))
            .collect();
    }
    nodes
        .par_iter()
        .fold(
            || (scratch.take(capacity), Vec::new()),
            |(mut weight_to, mut out), &u| {
                if let Some(d) = best_move(g, u, state, &mut weight_to) {
                    out.push((u, d));
                }
                (weight_to, out)
            },
        )
        .reduce(
            || (scratch.take(capacity), Vec::new()),
            |(s, mut a), (_, b)| {
                a.extend(b);
                (s, a)
            },
        )
        .1
}

/// The coloring-isolated move phase. Sweeps until stable or
/// `max_iterations`; within a sweep the color classes (followers last)
/// each propose in parallel against fresh neighbor labels — no two class
/// members are adjacent — and commit sequentially in node order. The
/// budget is tested once per sweep plus once per class boundary, and an
/// interrupted phase leaves `zeta` at the last committed class — a valid
/// assignment by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn move_phase_colored(
    g: &Graph,
    zeta: &mut Partition,
    gamma: f64,
    max_iterations: usize,
    coloring: &Coloring,
    rec: &Recorder,
    scratch: &ScratchPool,
    budget: &Budget,
) -> (u64, Termination) {
    if g.node_count() == 0 {
        return (0, Termination::Converged);
    }
    let total = g.total_edge_weight();
    if total == 0.0 {
        return (0, Termination::Converged);
    }
    // Compacted labels; community volumes accumulated *sequentially* in
    // node order (a parallel reduction would make the sums depend on the
    // thread-count-driven split points).
    zeta.compact();
    let k = (zeta.upper_bound() as usize).max(1);
    let mut labels: Vec<u32> = zeta.as_slice().to_vec();
    let mut volumes = vec![0.0f64; k];
    for u in g.nodes() {
        volumes[labels[u as usize] as usize] += g.volume(u);
    }

    let mut total_moves = 0u64;
    let mut termination = Termination::Converged;
    'sweeps: for _ in 0..max_iterations {
        if let Err(t) = budget.check_sweep() {
            termination = t;
            break;
        }
        let mut sweep_moves = 0u64;
        let classes = coloring
            .classes()
            .iter()
            .map(Vec::as_slice)
            .chain(std::iter::once(coloring.followers()));
        for class in classes {
            if class.is_empty() {
                continue;
            }
            // Class boundary: labels/volumes are consistent here, so an
            // expired budget can stop with a valid partial sweep.
            if let Err(t) = budget.check() {
                termination = t;
                break 'sweeps;
            }
            let state = MoveState {
                labels: &labels,
                volumes: &volumes,
                total,
                gamma,
            };
            let proposals = propose(g, class, &state, scratch, k);
            // Deterministic commit in ascending node order (the class
            // order). Volumes shift as classmates land in the same target,
            // but their Δmod estimates used the frozen per-class state.
            for (u, d) in proposals {
                let c = labels[u as usize];
                let vol_u = g.volume(u);
                volumes[c as usize] -= vol_u;
                volumes[d as usize] += vol_u;
                labels[u as usize] = d;
                sweep_moves += 1;
            }
        }
        total_moves += sweep_moves;
        rec.push_series("moves", sweep_moves as f64);
        if sweep_moves == 0 {
            break;
        }
    }

    *zeta = Partition::from_vec(labels);
    (total_moves, termination)
}

/// Runs one move phase with an explicit strategy on `zeta` in place,
/// computing the coloring internally when the strategy needs one. This is
/// the strategy-dispatching analogue of [`crate::move_phase`], used by the
/// benches and available to external callers; PLM itself dispatches
/// per-level so one coloring serves both the move and refinement phases.
pub fn move_phase_strategy(
    g: &Graph,
    zeta: &mut Partition,
    gamma: f64,
    max_iterations: usize,
    strategy: MoveStrategy,
) -> u64 {
    let scratch = ScratchPool::new();
    let budget = Budget::unlimited();
    let rec = Recorder::disabled();
    match strategy {
        MoveStrategy::Racy => crate::move_phase(g, zeta, gamma, max_iterations),
        MoveStrategy::Coloring => {
            let coloring = Coloring::compute(g);
            move_phase_colored(
                g,
                zeta,
                gamma,
                max_iterations,
                &coloring,
                &rec,
                &scratch,
                &budget,
            )
            .0
        }
    }
}

/// [`move_phase_strategy`] with a precomputed coloring, so benches can
/// time the per-sweep work without the once-per-level coloring setup.
pub fn move_phase_with_coloring(
    g: &Graph,
    zeta: &mut Partition,
    gamma: f64,
    max_iterations: usize,
    coloring: &Coloring,
) -> u64 {
    move_phase_colored(
        g,
        zeta,
        gamma,
        max_iterations,
        coloring,
        &Recorder::disabled(),
        &ScratchPool::new(),
        &Budget::unlimited(),
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::modularity;
    use parcom_generators::{lfr, ring_of_cliques, LfrParams};

    #[test]
    fn wire_names_round_trip() {
        for m in MoveStrategy::ALL {
            assert_eq!(MoveStrategy::from_wire(m.wire_name()).unwrap(), m);
            assert_eq!(m.to_string(), m.wire_name());
        }
        let err = MoveStrategy::from_wire("eager").unwrap_err();
        for name in ["racy", "coloring"] {
            assert!(err.contains(name), "{err} missing {name}");
        }
    }

    #[test]
    fn colored_phase_improves_modularity() {
        let (g, _) = ring_of_cliques(6, 6);
        let mut zeta = Partition::singleton(g.node_count());
        let before = modularity(&g, &zeta);
        let moves = move_phase_strategy(&g, &mut zeta, 1.0, 32, MoveStrategy::Coloring);
        assert!(moves > 0);
        assert!(modularity(&g, &zeta) > before);
    }

    #[test]
    fn colored_phase_reproduces_exactly() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.35), 3);
        let mut a = Partition::singleton(g.node_count());
        let mut b = Partition::singleton(g.node_count());
        move_phase_strategy(&g, &mut a, 1.0, 32, MoveStrategy::Coloring);
        move_phase_strategy(&g, &mut b, 1.0, 32, MoveStrategy::Coloring);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn empty_and_edgeless_inputs() {
        use parcom_graph::GraphBuilder;
        for strategy in MoveStrategy::ALL {
            let g = GraphBuilder::new(0).build();
            let mut zeta = Partition::singleton(0);
            assert_eq!(move_phase_strategy(&g, &mut zeta, 1.0, 8, strategy), 0);
            let g = GraphBuilder::new(4).build();
            let mut zeta = Partition::singleton(4);
            assert_eq!(move_phase_strategy(&g, &mut zeta, 1.0, 8, strategy), 0);
            assert_eq!(zeta.number_of_subsets(), 4);
        }
    }
}
