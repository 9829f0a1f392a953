//! Criterion micro-benchmarks for the core building blocks: record-pool
//! operations, exchange-buffer probes, delta derivation, domain extraction,
//! and trigger application at different batch sizes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hotdog::algebra::eval::Catalog;
use hotdog::distributed::{NodeCatalog, Temps};
use hotdog::ivm::Strategy;
use hotdog::prelude::*;
use std::collections::HashMap;

fn bench_record_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("record_pool");
    g.bench_function("update_1k_keys", |b| {
        b.iter_batched(
            || RecordPool::with_secondary_indexes(2, &[vec![1]]),
            |mut pool| {
                for i in 0..1_000i64 {
                    pool.update(
                        Tuple::from_values([Value::Long(i), Value::Long(i % 37)]),
                        1.0,
                    );
                }
                pool
            },
            BatchSize::SmallInput,
        )
    });
    let mut pool = RecordPool::with_secondary_indexes(2, &[vec![1]]);
    for i in 0..10_000i64 {
        pool.update(
            Tuple::from_values([Value::Long(i), Value::Long(i % 37)]),
            1.0,
        );
    }
    g.bench_function("slice_via_secondary_index", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            pool.slice(&[1], &[Value::Long(5)], &mut |_, m| acc += m);
            acc
        })
    });
    g.bench_function("point_lookup", |b| {
        b.iter(|| pool.get(&Tuple::from_values([Value::Long(77), Value::Long(77 % 37)])))
    });
    g.finish();
}

/// One statement's probes into an exchange buffer: a fresh catalog (so the
/// per-statement slice index is built inside the measurement) sliced by
/// 2k driving keys over a 20k-row temp, 10 matches per key.
fn bench_node_catalog(c: &mut Criterion) {
    let mut g = c.benchmark_group("node_catalog");
    let db = Database::default();
    let deltas = HashMap::new();
    let mut temps = Temps::new();
    temps.insert(
        "repartition_1".into(),
        Relation::from_pairs(
            Schema::new(["K", "V"]),
            (0..20_000i64).map(|i| {
                (
                    Tuple::from_values([Value::Long(i % 2_000), Value::Long(i)]),
                    1.0,
                )
            }),
        ),
    );
    g.bench_function("slice_exchange_buffer", |b| {
        b.iter(|| {
            let cat = NodeCatalog::new(&db, &temps, &deltas);
            let mut acc = 0.0;
            for k in 0..2_000i64 {
                cat.slice(
                    "repartition_1",
                    RelKind::View,
                    &[0],
                    &[Value::Long(k)],
                    &mut |_, m| acc += m,
                );
            }
            acc
        })
    });
    g.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let mut g = c.benchmark_group("compiler");
    let q3 = query("Q3").unwrap();
    let q17 = query("Q17").unwrap();
    g.bench_function("delta_q3", |b| b.iter(|| delta(&q3.expr, "LINEITEM")));
    g.bench_function("domain_extraction_q17", |b| {
        let d = delta(&q17.expr, "LINEITEM");
        b.iter(|| extract_domain(&d))
    });
    g.bench_function("compile_recursive_q3", |b| {
        b.iter(|| compile_recursive("Q3", &q3.expr))
    });
    g.finish();
}

fn bench_trigger_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("trigger_execution");
    g.sample_size(10);
    let q = query("Q3").unwrap();
    let stream = generate_tpch(5, 5_000);
    for (label, mode) in [
        ("single_tuple", ExecMode::SingleTuple),
        ("batched_1000", ExecMode::Batched { preaggregate: true }),
    ] {
        g.bench_function(format!("q3_{label}"), |b| {
            b.iter_batched(
                || LocalEngine::new(compile(q.id, &q.expr, Strategy::RecursiveIvm), mode),
                |mut engine| {
                    for batch in stream.batches(1_000) {
                        for (rel, delta) in batch {
                            engine.apply_batch(rel, &delta);
                        }
                    }
                    engine
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_record_pool,
    bench_node_catalog,
    bench_compiler,
    bench_trigger_execution
);
criterion_main!(benches);
