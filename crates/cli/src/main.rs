//! The `rtwc` command-line tool.

#![forbid(unsafe_code)]

use rtwc_cli::{check, lint, simulate, LintFormat, SimOptions};
use std::process::ExitCode;
use wormnet_sim::Policy;

const USAGE: &str = "\
rtwc — real-time wormhole communication toolkit (ICPP'98 reproduction)

USAGE:
    rtwc lint     <SPEC> [--format human|json]
    rtwc analyze  <SPEC> [--diagrams] [--explain] [--no-verify]
    rtwc simulate <SPEC> [--policy preemptive|li|classic|shared] [--cycles N] [--warmup N] [--no-verify]
    rtwc check    <SPEC> [--policy preemptive|li|classic|shared] [--cycles N] [--warmup N] [--no-verify]
    rtwc deploy   <JOBS> [--allocator first-fit|clustered|comm|random[:SEED]]
    rtwc serve    <SPEC> [--addr HOST:PORT] [--wal-dir DIR] [--fsync always|never|interval:MS]
                         [--snapshot-every N] [--max-conns N]
                         [--repl-addr HOST:PORT [--lease-ms N]
                          | --follower-of HOST:PORT [--promote-grace-ms N]]
    rtwc client   <ADDR> [--timeout-ms N] [--retries N] [--req-id N] <REQUEST...>
    rtwc promote  <ADDR>
    rtwc bench-serve [--clients N] [--ops N] [--mesh WxH] [--seed S] [--out FILE]
                     [--wal-sweep | --wal-dir DIR --fsync P [--snapshot-every N]]
    rtwc bench-repl  [--clients N] [--ops N | --duration SECS] [--mesh WxH] [--seed S]
                     [--grace-ms N] [--out FILE]
    rtwc chaos    [--seed S] [--ops N] [--mesh WxH] [--snapshot-every N] [--dir D]
    rtwc netchaos <TARGET> [--listen HOST:PORT] [--seed S] [--script FILE]

SPEC is a .streams file:
    mesh 10 10
    # stream SX,SY DX,DY PRIORITY PERIOD LENGTH [DEADLINE]
    stream 7,3 7,7 5 15 4

JOBS is a .jobs file:
    mesh 10 10
    job control 3
      msg 0 1 2 100 8      # FROM TO PRIORITY PERIOD LENGTH [DEADLINE]

COMMANDS:
    lint       statically verify the workload; exit nonzero on errors
    analyze    run Determine-Feasibility and print every delay bound U_i
    simulate   run the flit-level wormhole simulator and print latencies
    check      analyze + simulate, verifying max latency <= U for all streams
    deploy     allocate nodes and admit each job's streams with guarantees
    serve      run the online admission service over TCP (stop with SHUTDOWN);
               --wal-dir makes it crash-safe: ops are logged before the ack
               and a restart recovers (and audits) the exact admitted set;
               --repl-addr ships the WAL to followers (--lease-ms seals the
               leader when follower acks stop, preventing split-brain),
               --follower-of runs a warm standby that serves reads and
               redirects writes
    client     send one request (ADMIT|REMOVE|QUERY|SNAPSHOT|STATS|PROMOTE|SHUTDOWN);
               --req-id N makes a retried ADMIT/REMOVE idempotent
    promote    flip a follower into the serving leader (audits first)
    bench-serve  closed-loop load generator; writes results/BENCH_service.json
               (--wal-sweep adds per-fsync-policy durability costs)
    bench-repl replication bench: leader under load with a live follower,
               then a timed failover; writes results/BENCH_repl.json
    chaos      fault-injection harness: torn/short writes, fsync errors,
               kill-9 truncation, and network partitions (symmetric,
               one-way blackhole, heal-and-rejoin); asserts recovery is
               bit-identical to a serial replay of the acknowledged
               history and that a deposed leader fences, never dual-acks
    netchaos   deterministic fault-injecting TCP proxy in front of TARGET;
               partitions, one-way blackholes, latency, severs and
               duplicate delivery, driven by stdin control lines or a
               timed --script (e.g. 'at 100ms partition; at 2000ms heal')

analyze, simulate, and check first run the lint rules and refuse
workloads with error-severity findings; --no-verify skips the guard.
";

fn parse_format(s: &str) -> Result<LintFormat, String> {
    match s {
        "human" => Ok(LintFormat::Human),
        "json" => Ok(LintFormat::Json),
        other => Err(format!("unknown format '{other}' (human|json)")),
    }
}

fn parse_allocator(s: &str) -> Result<Box<dyn rtwc_host::Allocator>, String> {
    if let Some(seed) = s.strip_prefix("random:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("bad random seed '{seed}'"))?;
        return Ok(Box::new(rtwc_host::RandomPlacement { seed }));
    }
    match s {
        "first-fit" => Ok(Box::new(rtwc_host::FirstFit)),
        "clustered" => Ok(Box::new(rtwc_host::Clustered)),
        "comm" => Ok(Box::new(rtwc_host::CommunicationAware)),
        "random" => Ok(Box::new(rtwc_host::RandomPlacement { seed: 0 })),
        other => Err(format!(
            "unknown allocator '{other}' (first-fit|clustered|comm|random[:SEED])"
        )),
    }
}

fn parse_policy(s: &str) -> Result<Policy, String> {
    match s {
        "preemptive" => Ok(Policy::PreemptivePriority),
        "li" => Ok(Policy::LiPriorityVc),
        "classic" => Ok(Policy::ClassicFifo),
        "shared" => Ok(Policy::SharedPoolPriority),
        other => Err(format!(
            "unknown policy '{other}' (preemptive|li|classic|shared)"
        )),
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return Err(USAGE.to_string()),
    };
    if matches!(command, "-h" | "--help" | "help") {
        println!("{USAGE}");
        return Ok(true);
    }
    // The service subcommands have their own argument shapes (client
    // takes an address, bench-serve takes no file at all).
    if matches!(
        command,
        "serve" | "client" | "promote" | "bench-serve" | "bench-repl" | "chaos" | "netchaos"
    ) {
        return rtwc_cli::run_service_command(command, rest);
    }
    if !matches!(
        command,
        "lint" | "analyze" | "simulate" | "check" | "deploy"
    ) {
        return Err(format!("unknown command '{command}'\n\n{USAGE}"));
    }
    let (path, flags) = match rest.split_first() {
        Some((p, flags)) if !p.starts_with('-') => (p.clone(), flags.to_vec()),
        _ => return Err(format!("missing SPEC file\n\n{USAGE}")),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut opts = SimOptions::default();
    let mut diagrams = false;
    let mut explain_flag = false;
    let mut no_verify = false;
    let mut format = LintFormat::Human;
    let mut allocator = "comm".to_string();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--diagrams" => diagrams = true,
            "--explain" => explain_flag = true,
            "--no-verify" => no_verify = true,
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = parse_format(v)?;
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                opts.policy = parse_policy(v)?;
            }
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a value")?;
                opts.cycles = v.parse().map_err(|_| format!("bad --cycles '{v}'"))?;
            }
            "--warmup" => {
                let v = it.next().ok_or("--warmup needs a value")?;
                opts.warmup = v.parse().map_err(|_| format!("bad --warmup '{v}'"))?;
            }
            "--allocator" => {
                allocator = it.next().ok_or("--allocator needs a value")?.clone();
            }
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }

    if command == "deploy" {
        let file = rtwc_cli::parse_jobs(&text).map_err(|e| format!("{path}: {e}"))?;
        let alloc = parse_allocator(&allocator)?;
        print!("{}", rtwc_cli::deploy(&file, alloc.as_ref()));
        return Ok(true);
    }

    let raw = rtwc_cli::parse_raw(&text).map_err(|e| format!("{path}: {e}"))?;
    if command == "lint" {
        let (out, clean) = lint(&raw, format);
        print!("{out}");
        return Ok(clean);
    }
    if !no_verify {
        rtwc_cli::verify_spec(&raw)?;
    }
    let spec = raw.resolve().map_err(|e| format!("{path}: {e}"))?;
    if !no_verify && matches!(command, "simulate" | "check") {
        rtwc_cli::verify_sim(&spec, &opts)?;
    }
    match command {
        "analyze" => {
            print!("{}", rtwc_cli::analyze_with(&spec, diagrams, explain_flag));
            Ok(true)
        }
        "simulate" => {
            print!("{}", simulate(&spec, &opts)?);
            Ok(true)
        }
        "check" => {
            let (out, ok) = check(&spec, &opts)?;
            print!("{out}");
            Ok(ok)
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
