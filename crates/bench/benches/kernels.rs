//! Criterion microbenchmarks of the hot kernels: modularity scoring, the
//! PLM move phase, parallel coarsening, PLP end-to-end, and the djb2
//! ensemble combine. These are the operations the paper's implementation
//! notes single out (§III-B: Δmod evaluation and coarsening dominate PLM).
//!
//! The `aggregation-kernel` group isolates the innermost operation of all
//! the label/move kernels — tally edge weight per neighbor community, then
//! arg-max — and compares the `FxHashMap` formulation against the
//! generation-stamped [`SparseWeightMap`] scratch on a 100k-node graph, in
//! the two regimes that bracket real runs: singleton labels (every neighbor
//! a distinct key, the move phase's first sweep) and converged labels (few
//! distinct keys per neighborhood).

use criterion::{criterion_group, criterion_main, Criterion};
use parcom_bench::kernels::{tally_pass_fxhash, tally_pass_scratch};
use parcom_core::combine::core_communities;
use parcom_core::quality::modularity;
use parcom_core::{
    move_phase, move_phase_strategy, move_phase_with_coloring, CommunityDetector, MoveStrategy,
    Plm, Plp,
};
use parcom_generators::{barabasi_albert, lfr, rmat, LfrParams, RmatParams};
use parcom_graph::hashing::FxHashMap;
use parcom_graph::parallel::with_threads;
use parcom_graph::{coarsen, Coloring, Partition, SparseWeightMap};
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let (g, truth) = lfr(LfrParams::benchmark(5_000, 0.3), 77);
    let zeta = Plm::new().detect(&g);

    let mut group = c.benchmark_group("kernels");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("modularity_5k", |b| {
        b.iter(|| black_box(modularity(&g, &zeta)))
    });

    group.bench_function("move_phase_singletons_5k", |b| {
        b.iter(|| {
            let mut p = Partition::singleton(g.node_count());
            black_box(move_phase(&g, &mut p, 1.0, 4))
        })
    });

    group.bench_function("coarsen_5k", |b| b.iter(|| black_box(coarsen(&g, &zeta))));

    group.bench_function("plp_full_5k", |b| {
        b.iter(|| black_box(Plp::new().detect(&g)))
    });

    group.bench_function("plm_full_5k", |b| {
        b.iter(|| black_box(Plm::new().detect(&g)))
    });

    let bases: Vec<Partition> = (0..4)
        .map(|i| {
            let mut plp = Plp::new();
            plp.set_seed(i as u64 + 1);
            plp.detect(&g)
        })
        .collect();
    group.bench_function("djb2_combine_4x5k", |b| {
        b.iter(|| black_box(core_communities(&bases)))
    });

    let _ = truth;
    group.finish();
}

fn bench_aggregation_kernel(c: &mut Criterion) {
    // 100k-node scale-free graph: the degree skew the paper's instances have
    let g = barabasi_albert(100_000, 8, 42);
    let singleton: Vec<u32> = (0..g.node_count() as u32).collect(); // audit:allow(lossy-cast): bounded by the u32 node id space
    let mut converged = Plm::new().detect(&g);
    converged.compact();
    let k = converged.upper_bound() as usize;

    let mut group = c.benchmark_group("aggregation-kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    // sanity: both formulations pick identical arg-max labels
    {
        let mut h = FxHashMap::default();
        let mut s = SparseWeightMap::with_capacity(g.node_count());
        assert_eq!(
            tally_pass_fxhash(&g, &singleton, &mut h),
            tally_pass_scratch(&g, &singleton, &mut s),
        );
        assert_eq!(
            tally_pass_fxhash(&g, converged.as_slice(), &mut h),
            tally_pass_scratch(&g, converged.as_slice(), &mut s),
        );
    }

    group.bench_function("tally_fxhash_singleton_100k", |b| {
        let mut weight_to = FxHashMap::default();
        b.iter(|| black_box(tally_pass_fxhash(&g, &singleton, &mut weight_to)))
    });
    group.bench_function("tally_scratch_singleton_100k", |b| {
        let mut weight_to = SparseWeightMap::with_capacity(g.node_count());
        b.iter(|| black_box(tally_pass_scratch(&g, &singleton, &mut weight_to)))
    });
    group.bench_function("tally_fxhash_converged_100k", |b| {
        let mut weight_to = FxHashMap::default();
        b.iter(|| black_box(tally_pass_fxhash(&g, converged.as_slice(), &mut weight_to)))
    });
    group.bench_function("tally_scratch_converged_100k", |b| {
        let mut weight_to = SparseWeightMap::with_capacity(k.max(1));
        b.iter(|| black_box(tally_pass_scratch(&g, converged.as_slice(), &mut weight_to)))
    });
    group.finish();
}

fn bench_move_strategy(c: &mut Criterion) {
    // Two seeded instances: planted communities and skewed degrees. The
    // move phase starts from singletons (its worst case) so both
    // strategies do the same logical work.
    let (lfr_graph, _) = lfr(LfrParams::benchmark(20_000, 0.3), 42);
    let rmat_graph = rmat(RmatParams::paper_with_edge_factor(15, 16), 42);
    let instances = [("lfr_20k", &lfr_graph), ("rmat_s15", &rmat_graph)];

    let mut group = c.benchmark_group("move-strategy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for (name, g) in instances {
        // per-level setup PLM amortizes over all sweeps; timed separately
        // below, so the per-strategy numbers compare per-sweep work
        let coloring = Coloring::compute(g);
        for strategy in MoveStrategy::ALL {
            for threads in [1usize, 2, 4] {
                group.bench_function(&format!("{name}_{strategy}_t{threads}"), |b| {
                    b.iter(|| {
                        with_threads(threads, || {
                            let mut p = Partition::singleton(g.node_count());
                            black_box(match strategy {
                                MoveStrategy::Coloring => {
                                    move_phase_with_coloring(g, &mut p, 1.0, 4, &coloring)
                                }
                                _ => move_phase_strategy(g, &mut p, 1.0, 4, strategy),
                            })
                        })
                    })
                });
            }
        }
        // the coloring strategy's one-time per-level setup cost
        group.bench_function(&format!("{name}_coloring_setup"), |b| {
            b.iter(|| black_box(Coloring::compute(g)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_aggregation_kernel,
    bench_move_strategy
);
criterion_main!(benches);
