//! Stress: 200 seeded workloads; under the preemptive policy no
//! stream's maximum simulated latency may exceed its bound `U`. Exits
//! nonzero on a violation (CI runs it in release).
use rtwc_core::DelayBound;
use rtwc_workload::{generate, PaperWorkloadConfig};
use wormnet_sim::{SimConfig, Simulator};
use wormnet_topology::Topology;

fn main() {
    let mut checked = 0u64;
    let mut violations = 0u64;
    for seed in 0..40u64 {
        for &(n, p) in &[(20usize, 1u32), (20, 5), (60, 1), (60, 10), (40, 3)] {
            let w = generate(PaperWorkloadConfig {
                num_streams: n,
                priority_levels: p,
                seed: seed * 1000 + n as u64 + p as u64,
                // The benchmark's cap. The generator's default of
                // 200000 bounds 22 more streams (7511 against 7489, no
                // violation either) and takes minutes instead of
                // seconds, nearly all of them searching horizons that
                // no 30000-cycle simulation reaches.
                horizon_cap: 20_000,
                ..PaperWorkloadConfig::default()
            });
            let cfg = SimConfig::paper(p as usize).with_cycles(30_000, 0);
            let mut sim = Simulator::new(w.mesh.num_links(), &w.set, cfg).unwrap();
            sim.run();
            for id in w.set.ids() {
                if let DelayBound::Bounded(u) = w.bounds[id.index()] {
                    if let Some(max) = sim.stats().max_latency(id, 0) {
                        checked += 1;
                        if max > u {
                            violations += 1;
                            println!(
                                "VIOLATION seed={seed} {n}x{p} {id:?}: max {max} > U {u} (P={} T={} C={} L={})",
                                w.set.get(id).priority(), w.set.get(id).period(),
                                w.set.get(id).max_length(), w.set.get(id).latency
                            );
                        }
                    }
                }
            }
        }
    }
    println!("checked {checked} stream-bounds, {violations} violations");
    if violations > 0 {
        std::process::exit(1);
    }
}
