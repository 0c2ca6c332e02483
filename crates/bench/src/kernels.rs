//! The neighborhood-aggregation microkernel in its two formulations —
//! hash-map tally vs the generation-stamped [`SparseWeightMap`] scratch —
//! measured side by side by the `kernels` criterion bench.
//!
//! One "pass" visits every node, tallies edge weight per neighbor
//! community (skipping self-loops, as every move kernel does), then takes
//! the arg-max label with smallest-id tie-break. The returned checksum
//! keeps the optimizer honest and lets callers assert both formulations
//! make identical decisions.

use parcom_graph::hashing::FxHashMap;
use parcom_graph::{Graph, SparseWeightMap};

/// One full tally + arg-max pass over every node with a hash-map scratch;
/// returns a checksum over the chosen labels.
pub fn tally_pass_fxhash(g: &Graph, labels: &[u32], weight_to: &mut FxHashMap<u32, f64>) -> u64 {
    let mut acc = 0u64;
    for u in g.nodes() {
        weight_to.clear();
        for (v, w) in g.edges_of(u) {
            if v != u {
                *weight_to.entry(labels[v as usize]).or_insert(0.0) += w;
            }
        }
        let mut best = u32::MAX;
        let mut best_w = f64::NEG_INFINITY;
        for (&d, &w) in weight_to.iter() {
            if w > best_w || (w == best_w && d < best) {
                best_w = w;
                best = d;
            }
        }
        acc = acc.wrapping_add(best as u64);
    }
    acc
}

/// The same pass with the generation-stamped scratch map. `weight_to`
/// must have capacity for every label in `labels`.
pub fn tally_pass_scratch(g: &Graph, labels: &[u32], weight_to: &mut SparseWeightMap) -> u64 {
    let mut acc = 0u64;
    for u in g.nodes() {
        weight_to.clear();
        for (v, w) in g.edges_of(u) {
            if v != u {
                weight_to.add(labels[v as usize], w);
            }
        }
        let mut best = u32::MAX;
        let mut best_w = f64::NEG_INFINITY;
        for (d, w) in weight_to.iter() {
            if w > best_w || (w == best_w && d < best) {
                best_w = w;
                best = d;
            }
        }
        acc = acc.wrapping_add(best as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_generators::ring_of_cliques;

    #[test]
    fn formulations_agree_on_checksum() {
        let (g, truth) = ring_of_cliques(6, 5);
        let singleton: Vec<u32> = g.nodes().collect();
        let mut h = FxHashMap::default();
        let mut s = SparseWeightMap::with_capacity(g.node_count());
        assert_eq!(
            tally_pass_fxhash(&g, &singleton, &mut h),
            tally_pass_scratch(&g, &singleton, &mut s),
        );
        assert_eq!(
            tally_pass_fxhash(&g, truth.as_slice(), &mut h),
            tally_pass_scratch(&g, truth.as_slice(), &mut s),
        );
    }

    #[test]
    fn converged_labels_pick_own_community() {
        // with truth labels every node's arg-max is its own clique
        let (g, truth) = ring_of_cliques(4, 4);
        let mut s = SparseWeightMap::with_capacity(g.node_count());
        let expected: u64 = g.nodes().map(|u| truth.subset_of(u) as u64).sum::<u64>();
        assert_eq!(tally_pass_scratch(&g, truth.as_slice(), &mut s), expected);
    }
}
