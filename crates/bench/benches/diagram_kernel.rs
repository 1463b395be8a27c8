//! Criterion micro-benchmarks of the two `Generate_Init_Diagram`
//! kernels and the bound-only scratch arena, over horizon x HP-size,
//! and of `Cal_U` on the regions the `offline_eval` benchmark analyses.
//!
//! `cargo bench -p rtwc-bench --bench diagram_kernel`. For the
//! machine-readable speedup record see the `diagram_bench` binary,
//! which writes `results/BENCH_diagram.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtwc_bench::{benchmark_region, contended_line_set};
use rtwc_core::{
    cal_u_with_hp, determine_feasibility, generate_hp, generate_hp_sets, AnalysisScratch,
    RemovedInstances, TimingDiagram,
};

const HORIZONS: [u64; 3] = [100, 1_000, 10_000];
const HP_SIZES: [usize; 3] = [4, 16, 64];

fn bench_generate(c: &mut Criterion) {
    let mut g = c.benchmark_group("diagram_generate");
    g.sample_size(20);
    for &n in &HP_SIZES {
        let (set, target) = contended_line_set(n);
        let hp = generate_hp(&set, target);
        let none = RemovedInstances::none();
        for &h in &HORIZONS {
            g.bench_with_input(
                BenchmarkId::new("bitset", format!("h{h}_n{n}")),
                &h,
                |b, &h| b.iter(|| TimingDiagram::generate(&set, &hp, h, &none)),
            );
            g.bench_with_input(
                BenchmarkId::new("legacy", format!("h{h}_n{n}")),
                &h,
                |b, &h| b.iter(|| TimingDiagram::generate_legacy(&set, &hp, h, &none)),
            );
        }
    }
    g.finish();
}

fn bench_scratch_bound(c: &mut Criterion) {
    let mut g = c.benchmark_group("diagram_scratch_bound");
    g.sample_size(20);
    for &n in &HP_SIZES {
        let (set, target) = contended_line_set(n);
        let hp = generate_hp(&set, target);
        let mut scratch = AnalysisScratch::new();
        for &h in &HORIZONS {
            g.bench_with_input(
                BenchmarkId::new("scratch", format!("h{h}_n{n}")),
                &h,
                |b, &h| b.iter(|| scratch.delay_bound(&set, &hp, h)),
            );
        }
    }
    g.finish();
}

/// What `offline_eval`'s `analyze_streams_per_s` times, per unit: one
/// `determine_feasibility` over a seeded 80-stream 5x5 region, and one
/// detailed `Cal_U` (the library `QUERY`) per stream of those regions.
/// Each iteration takes the next set or stream round-robin.
fn bench_benchmark_shape(c: &mut Criterion) {
    let mut g = c.benchmark_group("benchmark_shape");
    g.sample_size(20);
    let regions: Vec<_> = (0..8).map(|r| benchmark_region(1998, r)).collect();
    let mut next = 0usize;
    g.bench_function("determine_feasibility_80x5x5", |b| {
        b.iter(|| {
            next = (next + 1) % regions.len();
            determine_feasibility(&regions[next])
        })
    });
    let streams: Vec<_> = regions
        .iter()
        .flat_map(|set| generate_hp_sets(set).into_iter().map(move |hp| (set, hp)))
        .collect();
    let mut next = 0usize;
    // The HP set is cloned inside the timed loop: `cal_u_with_hp` takes
    // it by value.
    g.bench_function("cal_u_with_hp_per_stream", |b| {
        b.iter(|| {
            next = (next + 1) % streams.len();
            let (set, hp) = &streams[next];
            cal_u_with_hp(set, hp.clone(), set.get(hp.target).deadline()).bound
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generate,
    bench_scratch_bound,
    bench_benchmark_shape
);
criterion_main!(benches);
