//! The parallel release engine: threads × batch size × mechanism, plus the
//! alias-table vs binary-search sampling ablation.
//!
//! The claims measured here:
//!
//! * `ParallelReleaser` at T threads beats the single-threaded PR-1
//!   `perturb_batch` path on large batches (≥ 3× at 8 threads on a
//!   256k-report batch, on hardware with ≥ 8 cores);
//! * alias-table draws (O(1)) beat cumulative-table binary search
//!   (O(log k)) on supports of ≥ 1024 cells;
//! * the sharded server ingests a grouped batch faster than per-report
//!   locking.
//!
//! `cargo bench -p panda-bench --bench release_engine`. The machine-readable
//! counterpart (reports/sec, p50/p99) is the `bench_release` binary, which
//! writes `BENCH_release.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_core::{
    GraphExponential, LocationPolicyGraph, Mechanism, ParallelReleaser, PolicyIndex, SamplingTable,
    UniformComponent,
};
use panda_geo::{CellId, GridMap};
use panda_surveillance::{LocationReport, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn batch(grid: &GridMap, n: usize, seed: u64) -> Vec<CellId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| CellId(rng.gen_range(0..grid.n_cells())))
        .collect()
}

fn bench_parallel_vs_single(c: &mut Criterion) {
    let grid = GridMap::new(32, 32, 500.0);
    let index = PolicyIndex::new(LocationPolicyGraph::partition(grid.clone(), 2, 2));
    let mechs: Vec<(&str, Box<dyn Mechanism + Sync>)> = vec![
        ("gem", Box::new(GraphExponential)),
        ("uniform", Box::new(UniformComponent)),
    ];
    let mut group = c.benchmark_group("release_engine");
    group.sample_size(10);
    for n in [65_536usize, 262_144] {
        let locs = batch(&grid, n, 7);
        for (mlabel, mech) in &mechs {
            // PR-1 baseline: one thread, one RNG stream.
            group.bench_with_input(
                BenchmarkId::new(format!("single_{mlabel}"), n),
                &locs,
                |b, locs| {
                    let mut rng = StdRng::seed_from_u64(11);
                    b.iter(|| black_box(mech.perturb_batch(&index, 1.0, locs, &mut rng).unwrap()));
                },
            );
            for threads in [2usize, 4, 8] {
                let releaser = ParallelReleaser::with_threads(threads);
                group.bench_with_input(
                    BenchmarkId::new(format!("parallel{threads}_{mlabel}"), n),
                    &locs,
                    |b, locs| {
                        b.iter(|| {
                            black_box(
                                releaser
                                    .release(mech.as_ref(), &index, 1.0, locs, 11)
                                    .unwrap(),
                            )
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_alias_vs_binary_search(c: &mut Criterion) {
    // Pure sampling ablation on identical weights: O(1) alias draws vs
    // O(log k) inverse-CDF binary search, across support sizes.
    let mut group = c.benchmark_group("sampling_table_draw");
    for k in [256u32, 1024, 4096, 16_384] {
        let dist: Vec<(CellId, f64)> = (0..k)
            .map(|i| (CellId(i), 1.0 + f64::from(i % 31)))
            .collect();
        let alias = SamplingTable::alias(dist.clone());
        let cumulative = SamplingTable::cumulative(dist);
        group.bench_with_input(BenchmarkId::new("alias", k), &alias, |b, table| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(table.sample(&mut rng)));
        });
        group.bench_with_input(
            BenchmarkId::new("binary_search", k),
            &cumulative,
            |b, table| {
                let mut rng = StdRng::seed_from_u64(3);
                b.iter(|| black_box(table.sample(&mut rng)));
            },
        );
    }
    group.finish();
}

fn bench_server_ingest(c: &mut Criterion) {
    let grid = GridMap::new(32, 32, 500.0);
    let reports: Vec<LocationReport> = {
        let mut rng = StdRng::seed_from_u64(17);
        (0..65_536u32)
            .map(|i| LocationReport {
                user: panda_mobility::UserId(rng.gen_range(0..10_000)),
                epoch: i % 336,
                cell: CellId(rng.gen_range(0..grid.n_cells())),
                resend: false,
            })
            .collect()
    };
    let mut group = c.benchmark_group("server_ingest");
    group.sample_size(10);
    group.bench_function("per_report", |b| {
        b.iter(|| {
            let server = Server::new(grid.clone());
            for &r in &reports {
                server.receive(r);
            }
            black_box(server.n_received())
        });
    });
    group.bench_function("shard_batched", |b| {
        b.iter(|| {
            let server = Server::new(grid.clone());
            server.receive_batch(reports.clone());
            black_box(server.n_received())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_vs_single,
    bench_alias_vs_binary_search,
    bench_server_ingest
);
criterion_main!(benches);
