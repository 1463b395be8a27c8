//! Criterion micro-benchmarks of interference-index HP-set
//! construction: the legacy pairwise oracle vs building the index and
//! reading every HP set off it, plus the index-maintenance primitives
//! the admission fast path leans on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtwc_bench::contended_mesh_set;
use rtwc_core::{generate_hp_sets_oracle, InterferenceIndex, MessageStream, StreamId};

fn bench_hpset_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpset_index");
    g.sample_size(10);
    for &n in &[100usize, 400] {
        let set = contended_mesh_set(n);
        g.bench_with_input(BenchmarkId::new("oracle", n), &set, |b, s| {
            b.iter(|| generate_hp_sets_oracle(s))
        });
        g.bench_with_input(BenchmarkId::new("build_plus_hp_sets", n), &set, |b, s| {
            b.iter(|| {
                let index = InterferenceIndex::build(s);
                index.hp_sets(s)
            })
        });
        let index = InterferenceIndex::build(&set);
        g.bench_with_input(BenchmarkId::new("hp_sets_prebuilt", n), &set, |b, s| {
            b.iter(|| index.hp_sets(s))
        });
    }
    // Index maintenance at sizes where a removal that touched every row
    // would show: the admit path's trial insert + rollback, and a
    // removal from the middle whose stream comes straight back as the
    // newest one (ids `mid..` rotate, so the population never changes).
    for &n in &[1_000usize, 5_000] {
        let set = contended_mesh_set(n);
        let newest = StreamId(n as u32 - 1);
        g.bench_with_input(BenchmarkId::new("insert_remove_last", n), &set, |b, s| {
            let mut idx = InterferenceIndex::build(s);
            b.iter(|| {
                idx.remove(newest);
                idx.insert_last(s.get(newest));
            })
        });
        g.bench_with_input(BenchmarkId::new("remove_middle", n), &set, |b, s| {
            let mut idx = InterferenceIndex::build(s);
            let mid = n / 2;
            let ring: Vec<MessageStream> = (s.iter().skip(mid))
                .map(|m| MessageStream {
                    id: newest,
                    ..m.clone()
                })
                .collect();
            let mut turn = 0;
            b.iter(|| {
                idx.remove(StreamId(mid as u32));
                idx.insert_last(&ring[turn % ring.len()]);
                turn += 1;
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hpset_index);
criterion_main!(benches);
