//! Criterion micro-benchmarks of the admission service: the in-process
//! request path (parse → dispatch → render, no sockets) and full TCP
//! round trips against a live server on loopback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtwc_server::{AdmissionService, Client, Server};
use wormnet_topology::Mesh;

/// A service pre-loaded with `n` admitted streams on separate rows and
/// columns, so queries hit a realistically sized set.
fn loaded_service(n: usize) -> AdmissionService {
    let svc = AdmissionService::new(Mesh::mesh2d(16, 16));
    for i in 0..n {
        let row = (i % 16) as u32;
        let shift = (i / 16) as u32;
        let line = format!(
            "ADMIT {},{row} {},{row} {} {} 4",
            shift % 8,
            8 + shift % 8,
            1 + i % 4,
            400 + i * 13
        );
        let (resp, _) = svc.dispatch_line(&line);
        assert!(
            rtwc_server::render_response(&resp).contains("admitted"),
            "seed stream {i} refused"
        );
    }
    svc
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("service_dispatch");
    for &n in &[16usize, 64] {
        let svc = loaded_service(n);
        g.bench_with_input(BenchmarkId::new("query", n), &svc, |b, svc| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % n as u64;
                svc.dispatch_line(&format!("QUERY {i}")).0
            })
        });
        g.bench_with_input(BenchmarkId::new("snapshot", n), &svc, |b, svc| {
            b.iter(|| svc.dispatch_line("SNAPSHOT").0)
        });
        g.bench_with_input(BenchmarkId::new("admit_remove", n), &svc, |b, svc| {
            // One admit + its removal per iteration, so the set size
            // stays at `n` across samples.
            b.iter(|| {
                let (resp, _) = svc.dispatch_line("ADMIT 0,15 7,15 1 900 2");
                let line = rtwc_server::render_response(&resp);
                let id = line
                    .split("\"id\":")
                    .nth(1)
                    .and_then(|s| s.split(&[',', '}']).next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .expect("admit succeeds");
                svc.dispatch_line(&format!("REMOVE {id}")).0
            })
        });
    }
    g.finish();
}

fn bench_tcp_round_trip(c: &mut Criterion) {
    let svc = loaded_service(32);
    let server = Server::bind(svc, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run());

    let mut g = c.benchmark_group("service_tcp");
    g.sample_size(20);
    let mut client = Client::connect(&addr).unwrap();
    g.bench_function("query_round_trip", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 32;
            client.send(&format!("QUERY {i}")).unwrap()
        })
    });
    g.bench_function("stats_round_trip", |b| {
        b.iter(|| client.send("STATS").unwrap())
    });
    g.finish();
    drop(client);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

criterion_group!(benches, bench_dispatch, bench_tcp_round_trip);
criterion_main!(benches);
