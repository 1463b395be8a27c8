//! Criterion micro-benchmarks of the flit-level simulator: cycles per
//! second under the paper's workloads, under each arbitration policy,
//! and on the shape `BENCHMARK.json`'s `sim_cycles_per_s` measures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtwc_workload::{generate, PaperWorkloadConfig};
use wormnet_sim::{SimConfig, Simulator};
use wormnet_topology::Topology;

fn bench_paper_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate_3000_cycles");
    g.sample_size(10);
    for &(n, p) in &[(20usize, 1u32), (20, 5), (60, 10)] {
        let w = generate(PaperWorkloadConfig {
            num_streams: n,
            priority_levels: p,
            seed: 23,
            ..PaperWorkloadConfig::default()
        });
        g.bench_with_input(
            BenchmarkId::new("streams_plevels", format!("{n}x{p}")),
            &w,
            |b, w| {
                b.iter(|| {
                    let cfg =
                        SimConfig::paper(w.config.priority_levels as usize).with_cycles(3_000, 0);
                    let mut sim = Simulator::new(w.mesh.num_links(), &w.set, cfg).unwrap();
                    sim.run().total_completed()
                })
            },
        );
    }
    g.finish();
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policies_3000_cycles");
    g.sample_size(10);
    let w = generate(PaperWorkloadConfig {
        num_streams: 20,
        priority_levels: 4,
        seed: 29,
        ..PaperWorkloadConfig::default()
    });
    let configs = [
        ("preemptive", SimConfig::paper(4)),
        ("li", SimConfig::li(4)),
        ("classic", SimConfig::classic()),
    ];
    for (name, cfg) in configs {
        let cfg = cfg.with_cycles(3_000, 0);
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let mut sim = Simulator::new(w.mesh.num_links(), &w.set, cfg.clone()).unwrap();
                sim.run().total_completed()
            })
        });
    }
    g.finish();
}

/// What the benchmark package times (`benchmark/src/offline.rs`): a
/// Table 5 workload (60 streams x 15 levels, bounds searched to horizon
/// 20000) at buffer depth 16, 3000 cycles stepped by hand in chunks of
/// 500, so the micro and the end-to-end figure time the same thing.
fn bench_benchmark_shape(c: &mut Criterion) {
    let mut g = c.benchmark_group("benchmark_shape");
    g.sample_size(10);
    let w = generate(PaperWorkloadConfig {
        num_streams: 60,
        priority_levels: 15,
        horizon_cap: 20_000,
        seed: 1998,
        ..PaperWorkloadConfig::default()
    });
    g.bench_function("60x15_depth16_3000_cycles", |b| {
        b.iter(|| {
            let cfg = SimConfig::paper(15)
                .with_cycles(3_000, 1_000)
                .with_buffer_depth(16);
            let mut sim = Simulator::new(w.mesh.num_links(), &w.set, cfg).unwrap();
            for _chunk in 0..6 {
                for _ in 0..500 {
                    sim.step();
                }
            }
            sim.stats().total_completed()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_paper_workloads,
    bench_policies,
    bench_benchmark_shape
);
criterion_main!(benches);
