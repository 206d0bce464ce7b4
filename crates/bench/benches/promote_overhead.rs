//! `promote_overhead` — cost of one promoting pointer write, per closure size.
//!
//! Each iteration runs one promoting pointer write: a child task (owning a fresh
//! heap under the eager per-fork configuration) builds a cons closure of N objects
//! and publishes its head into a parent-heap ref, which forces `writePromote` to
//! evacuate the whole closure. Only the `write_ptr` call is timed (`iter_custom`),
//! so the build cost does not dilute the comparison.
//!
//! The measurement helpers are shared with `repro promote`
//! (`hh_harness::measure::{promotion_runtime, time_promotions}`), so the bench and
//! the table always measure the same comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use hh_harness::measure::{promotion_runtime, time_promotions};

fn bench_promote(c: &mut Criterion) {
    let mut group = c.benchmark_group("promote_overhead");
    group.sample_size(10);
    for &len in &[16usize, 1000] {
        let rt = promotion_runtime();
        group.bench_function(format!("{len}-obj-closure"), |b| {
            b.iter_custom(|iters| time_promotions(&rt, len, iters));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_promote);
criterion_main!(benches);
