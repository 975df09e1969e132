//! Criterion bench: the per-event dispatch fast path.
//!
//! Measures the cost that matters for the paper's overhead claim — one
//! instrumentation event traversing sled → runtime → handler — plus the
//! multi-rank shapes the wait-free dispatch table exists for:
//!
//! * `single-thread-null`: the bare fast path (atomic load + two array
//!   indexes), no handler work.
//! * `single-thread-sharded-log`: the fast path plus a sharded-sink
//!   append.
//! * `ranks-{1,2,4,8}-sharded`: aggregate throughput with N rank
//!   threads dispatching concurrently — the sweep that used to
//!   flat-line on the runtime's global `RwLock` and the single log
//!   mutex.

use capi_bench::{dispatch_fixture, dispatch_round_robin};
use capi_xray::ShardedLog;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);

    // Bare fast path: no handler installed.
    {
        let mut fixture = dispatch_fixture(512);
        let ids = fixture.patch_fraction(1.0);
        group.bench_function("single-thread-null", |b| {
            b.iter(|| dispatch_round_robin(black_box(&fixture.runtime), &ids, 0, 10_000))
        });
    }

    // Fast path into a sharded sink.
    {
        let mut fixture = dispatch_fixture(512);
        let ids = fixture.patch_fraction(1.0);
        fixture.runtime.set_handler(Arc::new(ShardedLog::new(1)));
        group.bench_function("single-thread-sharded-log", |b| {
            b.iter(|| dispatch_round_robin(black_box(&fixture.runtime), &ids, 0, 10_000))
        });
    }

    // Concurrent ranks: aggregate events stay fixed, threads vary. On a
    // multi-core host wall time should *fall* (or at worst stay flat)
    // as ranks rise; with the old global read lock it rose instead.
    for ranks in [1u32, 2, 4, 8] {
        let mut fixture = dispatch_fixture(512);
        let ids = fixture.patch_fraction(1.0);
        fixture
            .runtime
            .set_handler(Arc::new(ShardedLog::new(ranks)));
        let total_events = 40_000u64;
        let per_rank = total_events / ranks as u64;
        group.bench_function(format!("ranks-{ranks}-sharded"), |b| {
            b.iter(|| {
                let runtime = &fixture.runtime;
                let ids = &ids[..];
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..ranks)
                        .map(|rank| {
                            scope.spawn(move || dispatch_round_robin(runtime, ids, rank, per_rank))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
                })
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
