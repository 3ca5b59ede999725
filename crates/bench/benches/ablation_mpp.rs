//! Ablation: the MPP substrate itself.
//!
//! Not a paper figure — this sweep validates the shared-nothing model the
//! reproduction substitutes for Futurewei MPPDB (DESIGN.md §2): PageRank
//! across 1/2/4/8 virtual partitions, sequentially and on the worker
//! pool. Exchange-row counters scale with partition count;
//! wall time should improve with parallel workers on multi-core hosts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spinner_bench::{setup_db, BenchDataset};
use spinner_engine::EngineConfig;
use spinner_procedural::pagerank;

fn bench_partitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mpp");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let sql = pagerank(10, false).cte;
    for partitions in [1usize, 2, 4, 8] {
        for (mode, parallel) in [("sequential", false), ("parallel", true)] {
            let config = EngineConfig::default()
                .with_partitions(partitions)
                .with_parallel_partitions(parallel);
            let db = setup_db(BenchDataset::DblpLike, config, false);
            group.bench_with_input(
                BenchmarkId::new(mode, format!("{partitions}-partitions")),
                &sql,
                |b, sql| b.iter(|| db.query(sql).expect("pr")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_partitions);
criterion_main!(benches);
