//! Sequential vs batched lookups (beyond-paper batching study).
//!
//! The observable: with the array far beyond the last-level cache, the
//! CSS variants' interleaved `search_batch_lanes` overrides overlap independent
//! probes' node fetches and beat their own sequential protocol, while the
//! sequential-default methods (binary search, B+-tree) bound the cost of
//! the batch plumbing itself.

use bench::methods::batched_comparison_methods;
use ccindex_common::{SortedArray, DEFAULT_BATCH_LANES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use workload::{KeySetBuilder, LookupStream};

fn bench_batched(c: &mut Criterion) {
    let n = 8_000_000usize;
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let stream = LookupStream::successful(&keys, 8_192, 21);
    let probes = stream.probes();

    let mut group = c.benchmark_group("batched");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.sample_size(10);
    for m in batched_comparison_methods(&arr, 16) {
        group.bench_with_input(BenchmarkId::new("sequential", &m.label), &m, |b, m| {
            b.iter(|| {
                let mut found = 0usize;
                for &p in probes {
                    if m.index.search(p).is_some() {
                        found += 1;
                    }
                }
                found
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", &m.label), &m, |b, m| {
            b.iter(|| {
                let mut found = 0usize;
                for chunk in probes.chunks(4096) {
                    found += m
                        .index
                        .search_batch_lanes(chunk, DEFAULT_BATCH_LANES)
                        .iter()
                        .flatten()
                        .count();
                }
                found
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched);
criterion_main!(benches);
