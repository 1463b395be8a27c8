//! The online-service subcommands: `serve`, `client`, `bench-serve`,
//! and `chaos`.
//!
//! `serve` turns a spec file into a long-running admission daemon: the
//! spec's streams are seeded through the same verifier-gated admission
//! path live requests use, then the TCP server blocks until `SHUTDOWN`.
//! With `--wal-dir` the daemon is crash-safe: accepted operations are
//! persisted before acknowledgement and a restart recovers the exact
//! admitted set (a non-empty recovery *replaces* spec seeding, so a
//! crashed daemon never double-admits its spec on restart). `client` is
//! the matching one-shot request tool, `bench-serve` runs the
//! closed-loop load generator, and `chaos` runs the fault-injection
//! harness over every storage failure class.

use crate::spec::RawSpecFile;
use rtwc_server::{
    catch_up, recover, render_bench_json, render_chaos_report, render_repl_json, render_response,
    render_sweep_json, run_bench, run_bench_repl, run_chaos, run_wal_sweep, AdmissionService,
    BenchConfig, CatchupOpts, ChaosConfig, Client, ClientConfig, Durability, FollowerConfig,
    FsyncPolicy, GroupWal, NetAction, NetChaos, NetSchedule, ReplHub, Response, Server,
    ServerConfig, ShipperConfig,
};
use std::path::PathBuf;
use std::time::Duration;
use wormnet_topology::Topology;

/// How `rtwc serve` should run.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Durability directory; `None` = in-memory only.
    pub wal_dir: Option<PathBuf>,
    /// Fsync policy for the WAL.
    pub fsync: FsyncPolicy,
    /// Snapshot + compact after this many WAL records (0 = never).
    pub snapshot_every: u64,
    /// Connection cap (0 = unlimited).
    pub max_connections: usize,
    /// Replication listen address: serve as a leader shipping WAL
    /// frames to followers from here. Requires `--wal-dir`.
    pub repl_addr: Option<String>,
    /// Run as a warm-standby follower of this leader replication
    /// address: catch up, stream the WAL, serve reads, redirect
    /// writes. Requires `--wal-dir`; spec seeding is skipped.
    pub follower_of: Option<String>,
    /// Follower self-promotion grace: promote to leader once this long
    /// has passed without leader contact (`None` = only explicit
    /// `PROMOTE` promotes).
    pub promote_grace: Option<Duration>,
    /// Leader write lease: seal (shed writes with a retryable `sealed`
    /// error) once this long has passed without a follower ack round
    /// trip. Requires `--repl-addr`; `None` = never seal.
    pub lease: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7077".to_string(),
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            snapshot_every: 1024,
            max_connections: 0,
            repl_addr: None,
            follower_of: None,
            promote_grace: None,
            lease: None,
        }
    }
}

/// Admits every spec stream through the live admission path (verifier
/// gate included). A spec whose streams are not jointly admissible
/// cannot be served: the whole point of the daemon is that the admitted
/// set is feasible at every instant.
fn seed_streams(service: &AdmissionService, raw: &RawSpecFile) -> Result<(), String> {
    for (i, spec) in raw.specs.iter().enumerate() {
        let at = |n| {
            let c = raw.mesh.coord(n);
            (c.get(0), c.get(1))
        };
        let response = service.admit(
            0,
            at(spec.source),
            at(spec.dest),
            spec.priority,
            spec.period,
            spec.max_length,
            Some(spec.deadline),
        );
        if !matches!(response, Response::Admitted { .. }) {
            return Err(format!(
                "line {}: seed stream M{i} refused: {}",
                raw.lines[i],
                render_response(&response)
            ));
        }
    }
    Ok(())
}

/// Builds an in-memory service over the spec's mesh with every spec
/// stream admitted.
pub fn seed_service(raw: &RawSpecFile) -> Result<AdmissionService, String> {
    let service = AdmissionService::new(raw.mesh.clone());
    seed_streams(&service, raw)?;
    Ok(service)
}

/// Builds the service for `rtwc serve`: durable (recovering whatever
/// the WAL directory holds) when `--wal-dir` is set, in-memory
/// otherwise. Returns the service and a startup description line.
fn build_service(
    raw: &RawSpecFile,
    opts: &ServeOptions,
) -> Result<(AdmissionService, String), String> {
    if let Some(leader) = &opts.follower_of {
        return build_follower(raw, opts, leader);
    }
    let Some(dir) = &opts.wal_dir else {
        let service = AdmissionService::new(raw.mesh.clone());
        seed_streams(&service, raw)?;
        let line = format!("{} stream(s) seeded", service.admitted_count());
        return Ok((service, line));
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (state, wal, report) = recover(&raw.mesh, dir, opts.fsync)
        .map_err(|e| format!("recovery from {} failed: {e}", dir.display()))?;
    let recovered = !state.handles().is_empty() || state.seq > 0;
    let service = AdmissionService::with_durability(
        raw.mesh.clone(),
        state,
        Durability {
            dir: dir.clone(),
            wal: GroupWal::new(wal),
            snapshot_every: opts.snapshot_every,
        },
    );
    // A non-empty recovery replaces spec seeding: the recovered state
    // *is* the admitted set the last run acknowledged, and re-admitting
    // the spec on top of it would double every stream.
    let line = if recovered {
        report.render()
    } else {
        seed_streams(&service, raw)?;
        format!(
            "{} stream(s) seeded (WAL at {}, fsync {})",
            service.admitted_count(),
            dir.display(),
            opts.fsync.label()
        )
    };
    Ok((service, line))
}

/// Builds the warm-standby service for `rtwc serve --follower-of`:
/// snapshot catch-up from the leader if it offers one, local recovery,
/// and a follower [`ReplHub`] so writes redirect until promotion. Spec
/// seeding never runs — the leader's stream *is* the state.
fn build_follower(
    raw: &RawSpecFile,
    opts: &ServeOptions,
    leader: &str,
) -> Result<(AdmissionService, String), String> {
    let Some(dir) = &opts.wal_dir else {
        return Err("--follower-of needs --wal-dir (the replica is durable by design)".to_string());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let caught = catch_up(leader, dir, opts.fsync, &CatchupOpts::default())
        .map_err(|e| format!("catch-up from {leader} failed: {e}"))?;
    let (state, wal, report) = recover(&raw.mesh, dir, opts.fsync)
        .map_err(|e| format!("recovery from {} failed: {e}", dir.display()))?;
    let mut service = AdmissionService::with_durability(
        raw.mesh.clone(),
        state,
        Durability {
            dir: dir.clone(),
            wal: GroupWal::new(wal),
            snapshot_every: opts.snapshot_every,
        },
    );
    service.attach_repl(ReplHub::follower(leader));
    let caught_line = match caught {
        Some(c) if c.resumed > 0 => format!(
            "snapshot catch-up to seq {} ({} chunk(s) resumed); ",
            c.snap_seq, c.resumed
        ),
        Some(c) => format!("snapshot catch-up to seq {}; ", c.snap_seq),
        None => String::new(),
    };
    let line = format!("follower of {leader}; {caught_line}{}", report.render());
    Ok((service, line))
}

/// `rtwc serve <SPEC> [--addr HOST:PORT] [--wal-dir DIR] [--fsync P]
/// [--snapshot-every N] [--max-conns N]` — seeds (or recovers) the
/// service and blocks serving requests until a client sends
/// `SHUTDOWN`.
pub fn run_serve(raw: &RawSpecFile, opts: &ServeOptions) -> Result<(), String> {
    if opts.repl_addr.is_some() && opts.follower_of.is_some() {
        return Err("--repl-addr and --follower-of are mutually exclusive".to_string());
    }
    if opts.repl_addr.is_some() && opts.wal_dir.is_none() {
        return Err("--repl-addr needs --wal-dir (followers stream the WAL file)".to_string());
    }
    if opts.lease.is_some() && opts.repl_addr.is_none() {
        return Err("--lease-ms needs --repl-addr (the lease is fed by follower acks)".to_string());
    }
    let (mut service, startup) = build_service(raw, opts)?;
    if opts.repl_addr.is_some() {
        let mut hub = ReplHub::leader();
        if let Some(lease) = opts.lease {
            hub.set_lease(lease);
        }
        service.attach_repl(hub);
    }
    let mut server = Server::bind_with_config(
        service,
        &opts.addr,
        ServerConfig {
            max_connections: opts.max_connections,
        },
    )
    .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    if let Some(repl_addr) = &opts.repl_addr {
        let listener = std::net::TcpListener::bind(repl_addr)
            .map_err(|e| format!("cannot bind replication address {repl_addr}: {e}"))?;
        server = server
            .with_shipper(listener, ShipperConfig::default())
            .map_err(|e| format!("cannot ship the WAL: {e}"))?;
    }
    // Configured after the bind so a `--addr ...:0` follower advertises
    // its *resolved* address — on promotion the fence tells the deposed
    // leader where its clients should redirect.
    if let Some(leader) = &opts.follower_of {
        let mut follow_cfg = FollowerConfig::new(leader);
        follow_cfg.promote_grace = opts.promote_grace;
        follow_cfg.advertise = local.to_string();
        server = server
            .with_follower(follow_cfg)
            .map_err(|e| format!("cannot follow {leader}: {e}"))?;
    }
    // Announced on stdout (line-buffered even when piped) so scripts
    // binding port 0 can read the real address back. The replication
    // line comes second so `^listening on` keeps matching first.
    println!("listening on {local} ({startup})");
    if let Some(addr) = server.repl_addr() {
        println!("replication listening on {addr}");
    }
    let service = server.run().map_err(|e| format!("server failed: {e}"))?;
    // Clean shutdown: push any interval/never-policy tail to disk.
    service.flush();
    Ok(())
}

/// `rtwc client <ADDR> <REQUEST…>` — one request, one JSON line on
/// stdout. Returns `false` (exit code 1) when the server refused the
/// request (`rejected` or `error`), so shell scripts can branch on it.
pub fn run_client(
    addr: &str,
    request: &[String],
    config: ClientConfig,
    req_id: u64,
) -> Result<bool, String> {
    if request.is_empty() {
        return Err("client needs a request, e.g.: rtwc client 127.0.0.1:7077 STATS".to_string());
    }
    let mut client =
        Client::connect_with(addr, config).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let line = request.join(" ");
    let reply = if req_id != 0 {
        client.send_idempotent(req_id, &line)
    } else {
        client.send_with_retry(&line)
    }
    .map_err(|e| format!("request failed: {e}"))?;
    if reply.is_empty() {
        return Err("server closed the connection without responding".to_string());
    }
    println!("{reply}");
    let refused =
        reply.contains("\"status\":\"rejected\"") || reply.contains("\"status\":\"error\"");
    Ok(!refused)
}

/// `rtwc bench-serve [--clients N] [--ops N | --duration SECS]
/// [--warmup-ms N] [--pipeline N] [--mesh WxH] [--seed S]
/// [--wal-sweep | --wal-dir DIR --fsync P] [--min-throughput OPS]
/// [--out FILE]` — runs the closed-loop load generator and writes the
/// JSON artifact. With `--duration` each client sends as many pipelined
/// bursts as fit in the wall-clock window (after the warmup) instead of
/// a fixed op count. With `--wal-sweep` the baseline run is followed by
/// one durable run per fsync policy and the artifact gains a
/// `wal_sweep` section. `--min-throughput` turns the run into a perf
/// gate: the command fails if the measured ops/s lands below the floor.
/// Returns the human summary printed on stdout.
pub fn run_bench_serve(
    cfg: &BenchConfig,
    sweep: bool,
    out: &str,
    min_throughput: Option<f64>,
) -> Result<String, String> {
    let (outcome, json, extra) = if sweep {
        let dir = rtwc_server::scratch_dir("bench-sweep");
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let s = run_wal_sweep(cfg, &dir).map_err(|e| format!("bench failed: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        let mut extra = String::new();
        for (label, o) in &s.policies {
            extra.push_str(&format!(
                "  fsync {label}: {:.0} ops/s, admit p50 {}us p99 {}us\n",
                o.throughput, o.admit.p50_us, o.admit.p99_us
            ));
        }
        let json = render_sweep_json(&s);
        (s.baseline, json, extra)
    } else {
        let o = run_bench(cfg).map_err(|e| format!("bench failed: {e}"))?;
        let json = render_bench_json(&o);
        (o, json, String::new())
    };
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
    }
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    if let Some(floor) = min_throughput {
        if outcome.throughput < floor {
            return Err(format!(
                "throughput {:.0} ops/s below the --min-throughput floor of {floor:.0} ops/s",
                outcome.throughput
            ));
        }
    }
    let load = match cfg.duration {
        Some(d) => format!("{} clients x {:.1}s", outcome.clients, d.as_secs_f64()),
        None => format!(
            "{} clients x {} ops",
            outcome.clients, outcome.ops_per_client
        ),
    };
    let batching = match &outcome.group_commit {
        Some(gc) if gc.syncs > 0 => format!(
            "group commit: {} syncs, mean batch {:.2}, max batch {}\n",
            gc.syncs,
            gc.mean_batch(),
            gc.max_batch
        ),
        _ => String::new(),
    };
    Ok(format!(
        "{} (pipeline {}): {:.0} ops/s, latency p50 {}us p99 {}us max {}us\n\
         admitted {}, rejected {}, removed {}, errors {}; {} stream(s) audited OK\n\
         {batching}{}wrote {}\n",
        load,
        outcome.pipeline,
        outcome.throughput,
        outcome.p50_us,
        outcome.p99_us,
        outcome.max_us,
        outcome.admitted,
        outcome.rejected,
        outcome.removed,
        outcome.errors,
        outcome.audited_streams,
        extra,
        out
    ))
}

/// `rtwc bench-repl [--clients N] [--ops N | --duration SECS]
/// [--warmup-ms N] [--pipeline N] [--mesh WxH]
/// [--seed S] [--fsync P] [--snapshot-every N] [--grace-ms N]
/// [--dir D] [--out FILE]` — runs
/// the replication bench (leader under load with a live follower, then
/// a timed failover) and writes the JSON artifact. Returns the human
/// summary printed on stdout.
pub fn run_bench_repl_command(
    cfg: &BenchConfig,
    dir: Option<PathBuf>,
    grace: Duration,
    out: &str,
) -> Result<String, String> {
    let (dir, scratch) = match dir {
        Some(d) => (d, false),
        None => (rtwc_server::scratch_dir("bench-repl"), true),
    };
    let o = run_bench_repl(cfg, &dir, grace).map_err(|e| format!("bench-repl failed: {e}"))?;
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let json = render_repl_json(&o);
    if let Some(parent) = std::path::Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {parent:?}: {e}"))?;
        }
    }
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "{} clients x {} ops (pipeline {}): {:.0} ops/s with one follower streaming\n\
         replication lag: max {} frame(s), drained to {} in {:.0}ms (applied seq {})\n\
         failover: promoted to epoch {} in {:.0}ms (grace {}ms); post-failover write {}\n\
         {} stream(s) audited on the promoted follower; wrote {}\n",
        o.leader.clients,
        o.leader.ops_per_client,
        o.leader.pipeline,
        o.leader.throughput,
        o.max_lag_frames,
        o.final_lag_frames,
        o.drain_ms,
        o.follower_applied_seq,
        o.promoted_epoch,
        o.failover_ms,
        o.promote_grace.as_millis(),
        o.write_after_failover,
        o.promoted_streams,
        out
    ))
}

/// `rtwc chaos [--seed S] [--ops N] [--mesh WxH] [--snapshot-every N]
/// [--dir D]` — runs every fault-injection scenario and prints the
/// report. Returns `false` (exit code 1) when any fault class failed to
/// recover bit-identical.
pub fn run_chaos_command(cfg: &ChaosConfig) -> Result<bool, String> {
    let outcome = run_chaos(cfg).map_err(|e| format!("chaos run failed: {e}"))?;
    print!("{}", render_chaos_report(&outcome));
    Ok(outcome.passed())
}

/// `rtwc netchaos <TARGET> [--listen HOST:PORT] [--seed S]
/// [--script FILE]` — runs the deterministic fault-injecting TCP proxy
/// in front of `TARGET`. Prints `netchaos listening on ADDR` (stdout,
/// so scripts binding port 0 can read the address back), starts the
/// `--script` timed schedule if one was given, then applies one control
/// line per stdin line: `partition`, `heal`, `blackhole-up`,
/// `blackhole-down`, `sever`, `latency MS`, `duplicate on|off`, or
/// `quit`. Exits on `quit` or stdin EOF.
pub fn run_netchaos_command(args: &[String]) -> Result<bool, String> {
    const USAGE: &str =
        "usage: rtwc netchaos <TARGET> [--listen HOST:PORT] [--seed S] [--script FILE]";
    let (target, flags) = match args.split_first() {
        Some((t, flags)) if !t.starts_with('-') => (t.clone(), flags),
        _ => return Err(USAGE.to_string()),
    };
    let mut listen = "127.0.0.1:0".to_string();
    let mut seed = 0u64;
    let mut script = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{what} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--listen" => listen = value("--listen")?,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--script" => script = Some(value("--script")?),
            other => return Err(format!("unknown netchaos flag '{other}'\n{USAGE}")),
        }
    }
    let schedule = match &script {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Some(NetSchedule::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let listener =
        std::net::TcpListener::bind(&listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let proxy = NetChaos::spawn(listener, &target, seed)
        .map_err(|e| format!("cannot start the proxy: {e}"))?;
    println!(
        "netchaos listening on {} -> {target} (seed {seed})",
        proxy.addr()
    );
    let timer = schedule.map(|s| proxy.run_schedule(s));
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "quit" {
            break;
        }
        match NetAction::parse(trimmed) {
            Some(action) => {
                proxy.handle().apply(action);
                println!("netchaos: {trimmed}");
            }
            None => println!("netchaos: bad control line '{trimmed}'"),
        }
    }
    if let Some(t) = timer {
        let _ = t.join();
    }
    proxy.stop();
    Ok(true)
}

fn parse_mesh(v: &str) -> Result<(u32, u32), String> {
    let (w, h) = v
        .split_once('x')
        .ok_or_else(|| format!("bad --mesh '{v}' (expected WxH)"))?;
    Ok((
        w.parse().map_err(|e| format!("bad --mesh width: {e}"))?,
        h.parse().map_err(|e| format!("bad --mesh height: {e}"))?,
    ))
}

/// Dispatches the service subcommands from the raw argument list
/// (everything after the command word). Returns the process success.
pub fn run_service_command(command: &str, args: &[String]) -> Result<bool, String> {
    match command {
        "serve" => {
            let (path, flags) = match args.split_first() {
                Some((p, flags)) if !p.starts_with('-') => (p, flags),
                _ => {
                    return Err(
                        "usage: rtwc serve <SPEC> [--addr HOST:PORT] [--wal-dir DIR] \
                         [--fsync always|never|interval:MS] [--snapshot-every N] \
                         [--max-conns N] \
                         [--repl-addr HOST:PORT [--lease-ms N] | --follower-of HOST:PORT \
                         [--promote-grace-ms N]]"
                            .to_string(),
                    )
                }
            };
            let mut opts = ServeOptions::default();
            let mut it = flags.iter();
            while let Some(flag) = it.next() {
                let mut value = |what: &str| {
                    it.next()
                        .ok_or_else(|| format!("{what} needs a value"))
                        .cloned()
                };
                match flag.as_str() {
                    "--addr" => opts.addr = value("--addr")?,
                    "--wal-dir" => opts.wal_dir = Some(PathBuf::from(value("--wal-dir")?)),
                    "--fsync" => opts.fsync = FsyncPolicy::parse(&value("--fsync")?)?,
                    "--snapshot-every" => {
                        opts.snapshot_every = value("--snapshot-every")?
                            .parse()
                            .map_err(|e| format!("bad --snapshot-every: {e}"))?;
                    }
                    "--max-conns" => {
                        opts.max_connections = value("--max-conns")?
                            .parse()
                            .map_err(|e| format!("bad --max-conns: {e}"))?;
                    }
                    "--repl-addr" => opts.repl_addr = Some(value("--repl-addr")?),
                    "--follower-of" => opts.follower_of = Some(value("--follower-of")?),
                    "--promote-grace-ms" => {
                        let ms: u64 = value("--promote-grace-ms")?
                            .parse()
                            .map_err(|e| format!("bad --promote-grace-ms: {e}"))?;
                        if ms == 0 {
                            return Err("--promote-grace-ms must be nonzero".to_string());
                        }
                        opts.promote_grace = Some(Duration::from_millis(ms));
                    }
                    "--lease-ms" => {
                        let ms: u64 = value("--lease-ms")?
                            .parse()
                            .map_err(|e| format!("bad --lease-ms: {e}"))?;
                        if ms == 0 {
                            return Err("--lease-ms must be nonzero".to_string());
                        }
                        opts.lease = Some(Duration::from_millis(ms));
                    }
                    other => return Err(format!("unknown serve flag '{other}'")),
                }
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let raw = crate::parse_raw(&text).map_err(|e| format!("{path}: {e}"))?;
            run_serve(&raw, &opts)?;
            Ok(true)
        }
        "client" => {
            let (addr, rest) = args
                .split_first()
                .ok_or("usage: rtwc client <ADDR> [--timeout-ms N] [--retries N] [--req-id N] <REQUEST...>")?;
            let mut config = ClientConfig::default();
            let mut req_id = 0u64;
            let mut request: Vec<String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                let mut value = |what: &str| {
                    it.next()
                        .ok_or_else(|| format!("{what} needs a value"))
                        .cloned()
                };
                match arg.as_str() {
                    "--timeout-ms" if request.is_empty() => {
                        let ms: u64 = value("--timeout-ms")?
                            .parse()
                            .map_err(|e| format!("bad --timeout-ms: {e}"))?;
                        config.io_timeout = Duration::from_millis(ms);
                        config.connect_timeout = Duration::from_millis(ms);
                    }
                    "--retries" if request.is_empty() => {
                        config.retries = value("--retries")?
                            .parse()
                            .map_err(|e| format!("bad --retries: {e}"))?;
                    }
                    "--req-id" if request.is_empty() => {
                        req_id = value("--req-id")?
                            .parse()
                            .map_err(|e| format!("bad --req-id: {e}"))?;
                        if req_id == 0 {
                            return Err("--req-id must be nonzero".to_string());
                        }
                    }
                    _ => request.push(arg.clone()),
                }
            }
            run_client(addr, &request, config, req_id)
        }
        "bench-serve" => {
            let mut cfg = BenchConfig::default();
            let mut out = "results/BENCH_service.json".to_string();
            let mut sweep = false;
            let mut min_throughput = None;
            let mut it = args.iter();
            while let Some(flag) = it.next() {
                let mut value = |what: &str| {
                    it.next()
                        .ok_or_else(|| format!("{what} needs a value"))
                        .cloned()
                };
                match flag.as_str() {
                    "--clients" => {
                        cfg.clients = value("--clients")?
                            .parse()
                            .map_err(|e| format!("bad --clients: {e}"))?;
                    }
                    "--ops" => {
                        cfg.ops_per_client = value("--ops")?
                            .parse()
                            .map_err(|e| format!("bad --ops: {e}"))?;
                    }
                    "--duration" => {
                        let secs: f64 = value("--duration")?
                            .parse()
                            .map_err(|e| format!("bad --duration: {e}"))?;
                        if secs.is_nan() || secs <= 0.0 {
                            return Err("--duration must be positive seconds".to_string());
                        }
                        cfg.duration = Some(Duration::from_secs_f64(secs));
                    }
                    "--warmup-ms" => {
                        let ms: u64 = value("--warmup-ms")?
                            .parse()
                            .map_err(|e| format!("bad --warmup-ms: {e}"))?;
                        cfg.warmup = Duration::from_millis(ms);
                    }
                    "--pipeline" => {
                        cfg.pipeline = value("--pipeline")?
                            .parse()
                            .map_err(|e| format!("bad --pipeline: {e}"))?;
                    }
                    "--min-throughput" => {
                        min_throughput = Some(
                            value("--min-throughput")?
                                .parse::<f64>()
                                .map_err(|e| format!("bad --min-throughput: {e}"))?,
                        );
                    }
                    "--mesh" => {
                        let (w, h) = parse_mesh(&value("--mesh")?)?;
                        cfg.width = w;
                        cfg.height = h;
                    }
                    "--locality" => {
                        cfg.locality = value("--locality")?
                            .parse()
                            .map_err(|e| format!("bad --locality: {e}"))?;
                    }
                    "--max-own" => {
                        cfg.max_own = value("--max-own")?
                            .parse()
                            .map_err(|e| format!("bad --max-own: {e}"))?;
                    }
                    "--seed" => {
                        cfg.seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?;
                    }
                    "--wal-dir" => cfg.wal_dir = Some(PathBuf::from(value("--wal-dir")?)),
                    "--fsync" => cfg.fsync = FsyncPolicy::parse(&value("--fsync")?)?,
                    "--snapshot-every" => {
                        cfg.snapshot_every = value("--snapshot-every")?
                            .parse()
                            .map_err(|e| format!("bad --snapshot-every: {e}"))?;
                    }
                    "--wal-sweep" => sweep = true,
                    "--out" => out = value("--out")?,
                    other => return Err(format!("unknown bench-serve flag '{other}'")),
                }
            }
            if cfg.clients == 0 || (cfg.ops_per_client == 0 && cfg.duration.is_none()) {
                return Err(
                    "bench-serve needs at least one client and one op (or --duration)".to_string(),
                );
            }
            print!("{}", run_bench_serve(&cfg, sweep, &out, min_throughput)?);
            Ok(true)
        }
        "promote" => {
            let (addr, rest) = args.split_first().ok_or("usage: rtwc promote <ADDR>")?;
            if !rest.is_empty() {
                return Err("usage: rtwc promote <ADDR>".to_string());
            }
            let mut client =
                Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let reply = client
                .send("PROMOTE")
                .map_err(|e| format!("promote failed: {e}"))?;
            println!("{reply}");
            Ok(reply.contains("\"status\":\"promoted\""))
        }
        "bench-repl" => {
            let mut cfg = BenchConfig::default();
            let mut grace = Duration::from_millis(300);
            let mut out = "results/BENCH_repl.json".to_string();
            let mut dir = None;
            let mut it = args.iter();
            while let Some(flag) = it.next() {
                let mut value = |what: &str| {
                    it.next()
                        .ok_or_else(|| format!("{what} needs a value"))
                        .cloned()
                };
                match flag.as_str() {
                    "--clients" => {
                        cfg.clients = value("--clients")?
                            .parse()
                            .map_err(|e| format!("bad --clients: {e}"))?;
                    }
                    "--ops" => {
                        cfg.ops_per_client = value("--ops")?
                            .parse()
                            .map_err(|e| format!("bad --ops: {e}"))?;
                    }
                    "--duration" => {
                        let secs: f64 = value("--duration")?
                            .parse()
                            .map_err(|e| format!("bad --duration: {e}"))?;
                        if secs.is_nan() || secs <= 0.0 {
                            return Err("--duration must be positive seconds".to_string());
                        }
                        cfg.duration = Some(Duration::from_secs_f64(secs));
                    }
                    "--warmup-ms" => {
                        let ms: u64 = value("--warmup-ms")?
                            .parse()
                            .map_err(|e| format!("bad --warmup-ms: {e}"))?;
                        cfg.warmup = Duration::from_millis(ms);
                    }
                    "--pipeline" => {
                        cfg.pipeline = value("--pipeline")?
                            .parse()
                            .map_err(|e| format!("bad --pipeline: {e}"))?;
                    }
                    "--mesh" => {
                        let (w, h) = parse_mesh(&value("--mesh")?)?;
                        cfg.width = w;
                        cfg.height = h;
                    }
                    "--locality" => {
                        cfg.locality = value("--locality")?
                            .parse()
                            .map_err(|e| format!("bad --locality: {e}"))?;
                    }
                    "--max-own" => {
                        cfg.max_own = value("--max-own")?
                            .parse()
                            .map_err(|e| format!("bad --max-own: {e}"))?;
                    }
                    "--seed" => {
                        cfg.seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?;
                    }
                    "--fsync" => cfg.fsync = FsyncPolicy::parse(&value("--fsync")?)?,
                    "--snapshot-every" => {
                        cfg.snapshot_every = value("--snapshot-every")?
                            .parse()
                            .map_err(|e| format!("bad --snapshot-every: {e}"))?;
                    }
                    "--grace-ms" => {
                        let ms: u64 = value("--grace-ms")?
                            .parse()
                            .map_err(|e| format!("bad --grace-ms: {e}"))?;
                        if ms == 0 {
                            return Err("--grace-ms must be nonzero".to_string());
                        }
                        grace = Duration::from_millis(ms);
                    }
                    "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
                    "--out" => out = value("--out")?,
                    other => return Err(format!("unknown bench-repl flag '{other}'")),
                }
            }
            if cfg.clients == 0 || (cfg.ops_per_client == 0 && cfg.duration.is_none()) {
                return Err(
                    "bench-repl needs at least one client and one op (or --duration)".to_string(),
                );
            }
            print!("{}", run_bench_repl_command(&cfg, dir, grace, &out)?);
            Ok(true)
        }
        "chaos" => {
            let mut cfg = ChaosConfig::default();
            let mut it = args.iter();
            while let Some(flag) = it.next() {
                let mut value = |what: &str| {
                    it.next()
                        .ok_or_else(|| format!("{what} needs a value"))
                        .cloned()
                };
                match flag.as_str() {
                    "--seed" => {
                        cfg.seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?;
                    }
                    "--ops" => {
                        cfg.ops = value("--ops")?
                            .parse()
                            .map_err(|e| format!("bad --ops: {e}"))?;
                    }
                    "--mesh" => {
                        let (w, h) = parse_mesh(&value("--mesh")?)?;
                        cfg.width = w;
                        cfg.height = h;
                    }
                    "--snapshot-every" => {
                        cfg.snapshot_every = value("--snapshot-every")?
                            .parse()
                            .map_err(|e| format!("bad --snapshot-every: {e}"))?;
                    }
                    "--dir" => cfg.dir = Some(PathBuf::from(value("--dir")?)),
                    other => return Err(format!("unknown chaos flag '{other}'")),
                }
            }
            if cfg.ops < 4 {
                return Err("chaos needs --ops >= 4 (the faults fire mid-history)".to_string());
            }
            run_chaos_command(&cfg)
        }
        "netchaos" => run_netchaos_command(args),
        other => Err(format!("unknown service command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(text: &str) -> RawSpecFile {
        crate::parse_raw(text).unwrap()
    }

    #[test]
    fn seeding_admits_the_paper_example() {
        let svc = seed_service(&raw("mesh 10 10\n\
             stream 7,3 7,7 5 15 4\n\
             stream 1,1 5,4 4 10 2\n\
             stream 2,1 7,5 3 40 4\n\
             stream 4,1 8,5 2 45 9\n\
             stream 6,1 9,3 1 50 6\n"))
        .unwrap();
        assert_eq!(svc.admitted_count(), 5);
        assert_eq!(svc.audit().unwrap(), 5);
    }

    #[test]
    fn seeding_refuses_infeasible_specs_with_the_source_line() {
        // Self-delivery: the verifier gate refuses it (W003).
        let err = seed_service(&raw("mesh 4 4\nstream 1,1 1,1 1 10 2\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("W003"), "{err}");
    }

    #[test]
    fn durable_build_recovers_instead_of_reseeding() {
        let dir = rtwc_server::scratch_dir("serve-recover");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = raw("mesh 10 10\nstream 7,3 7,7 5 15 4\nstream 1,1 5,4 4 10 2\n");
        let opts = ServeOptions {
            wal_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        // First build: empty dir, spec seeding runs and is persisted.
        let (svc, line) = build_service(&spec, &opts).unwrap();
        assert_eq!(svc.admitted_count(), 2);
        assert!(line.contains("seeded"), "{line}");
        drop(svc);
        // Second build: recovery wins, the spec is NOT re-admitted.
        let (svc, line) = build_service(&spec, &opts).unwrap();
        assert_eq!(svc.admitted_count(), 2, "no double seeding");
        assert!(line.contains("recovered"), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_serve_writes_the_artifact() {
        let dir = std::env::temp_dir().join("rtwc-bench-serve-test");
        let out = dir.join("BENCH_service.json");
        let cfg = BenchConfig {
            clients: 2,
            ops_per_client: 15,
            ..BenchConfig::default()
        };
        let summary = run_bench_serve(&cfg, false, out.to_str().unwrap(), None).unwrap();
        assert!(summary.contains("ops/s"), "{summary}");
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\": \"service\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_serve_enforces_the_throughput_floor() {
        let dir = std::env::temp_dir().join("rtwc-bench-floor-test");
        let out = dir.join("BENCH_service.json");
        let cfg = BenchConfig {
            clients: 1,
            ops_per_client: 5,
            ..BenchConfig::default()
        };
        // No machine clears a 10^12 ops/s floor; the gate must trip.
        let err = run_bench_serve(&cfg, false, out.to_str().unwrap(), Some(1e12)).unwrap_err();
        assert!(err.contains("below the --min-throughput floor"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn service_command_rejects_bad_usage() {
        assert!(run_service_command("serve", &[]).is_err());
        assert!(run_service_command("client", &[]).is_err());
        assert!(run_service_command("bench-serve", &["--clients".into(), "0".into()]).is_err());
        assert!(run_service_command("bench-serve", &["--frob".into()]).is_err());
        assert!(run_service_command("chaos", &["--ops".into(), "1".into()]).is_err());
        assert!(run_service_command("chaos", &["--what".into()]).is_err());
    }

    #[test]
    fn chaos_command_small_run_passes() {
        let cfg = ChaosConfig {
            ops: 8,
            ..ChaosConfig::default()
        };
        assert!(run_chaos_command(&cfg).unwrap());
    }
}
