//! End-to-end tests of the compiled `rtwc` binary: argument handling,
//! output, and exit codes.

use std::io::Write as _;
use std::process::Command;

fn rtwc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtwc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rtwc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const STREAMS: &str = "mesh 10 10\nstream 7,3 7,7 5 15 4\nstream 6,1 9,3 1 50 6\n";

#[test]
fn help_prints_usage() {
    let out = rtwc().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("analyze"));
    assert!(text.contains("deploy"));
}

#[test]
fn no_args_fails_with_usage() {
    let out = rtwc().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn analyze_success() {
    let path = write_temp("ok.streams", STREAMS);
    let out = rtwc().arg("analyze").arg(&path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("U = 7"));
    assert!(text.contains("Determine-Feasibility: success"));
}

#[test]
fn check_exit_code_reflects_verdict() {
    let path = write_temp("check.streams", STREAMS);
    let out = rtwc()
        .args(["check"])
        .arg(&path)
        .args(["--cycles", "2000", "--warmup", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("within bounds"));
}

#[test]
fn parse_errors_carry_line_numbers() {
    let path = write_temp("bad.streams", "mesh 10 10\nstream bogus\n");
    let out = rtwc().arg("analyze").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn unknown_flag_rejected() {
    let path = write_temp("flag.streams", STREAMS);
    let out = rtwc()
        .arg("simulate")
        .arg(&path)
        .arg("--frobnicate")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn removed_region_plane_options_are_refused() {
    // A deploy script that still asks for the removed region plane must
    // fail loudly, not silently serve the one backend.
    let path = write_temp("removed.streams", STREAMS);
    let out = rtwc()
        .arg("serve")
        .arg(&path)
        .args(["--addr", "127.0.0.1:0", "--shards", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown serve flag '--shards'"), "{err}");

    let out = rtwc().arg("bench-shard").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command 'bench-shard'"), "{err}");
}

#[test]
fn removed_worker_pool_options_are_refused() {
    // Every request runs on the reactor: there is no pool to size and
    // no queue of pending writes to shed from.
    let path = write_temp("pool.streams", STREAMS);
    for flag in [["--workers", "2"], ["--max-pending", "8"]] {
        let out = rtwc()
            .arg("serve")
            .arg(&path)
            .args(["--addr", "127.0.0.1:0"])
            .args(flag)
            .output()
            .unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown serve flag '{}'", flag[0]);
        assert!(err.contains(&want), "{err}");
    }
    let out = rtwc()
        .args(["bench-serve", "--workers", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown bench-serve flag '--workers'"),
        "{err}"
    );
}

#[test]
fn deploy_jobs_file() {
    let path = write_temp(
        "demo.jobs",
        "mesh 8 8\njob a 3\n  msg 0 1 2 100 8\n  msg 1 2 2 100 8\n",
    );
    let out = rtwc()
        .args(["deploy"])
        .arg(&path)
        .args(["--allocator", "clustered"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("a: deployed on ["), "{text}");
    assert!(text.contains("1 job(s) running"));
}

#[test]
fn serve_and_client_round_trip() {
    use std::io::BufRead as _;
    let path = write_temp("serve.streams", STREAMS);
    let mut server = rtwc()
        .args(["serve"])
        .arg(&path)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Rust's stdout is line-buffered even when piped, so the announce
    // line arrives as soon as the listener is live.
    let mut announce = String::new();
    std::io::BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut announce)
        .unwrap();
    assert!(announce.contains("2 stream(s) seeded"), "{announce}");
    let addr = announce
        .strip_prefix("listening on ")
        .and_then(|s| s.split_whitespace().next())
        .unwrap()
        .to_string();

    let client = |req: &[&str]| {
        let out = rtwc().arg("client").arg(&addr).args(req).output().unwrap();
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };
    let (ok, reply) = client(&["ADMIT", "0,0", "5,0", "2", "50", "4"]);
    assert!(ok, "{reply}");
    assert!(
        reply.contains("\"status\":\"admitted\",\"id\":2"),
        "{reply}"
    );
    let (ok, reply) = client(&["QUERY", "2"]);
    assert!(ok, "{reply}");
    assert!(reply.contains("\"bound\":"), "{reply}");
    // Rejections exit nonzero so shell scripts can branch.
    let (ok, reply) = client(&["ADMIT", "3,3", "3,3", "1", "50", "4"]);
    assert!(!ok, "{reply}");
    assert!(reply.contains("\"reason\":\"lint\""), "{reply}");
    let (ok, reply) = client(&["REMOVE", "2"]);
    assert!(ok, "{reply}");
    let (ok, _) = client(&["QUERY", "2"]);
    assert!(!ok, "removed id must not resolve");
    let (ok, reply) = client(&["SHUTDOWN"]);
    assert!(ok, "{reply}");
    let status = server.wait().unwrap();
    assert!(status.success());
}

#[test]
fn bench_serve_writes_artifact() {
    let dir = std::env::temp_dir().join("rtwc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join(format!("{}-bench.json", std::process::id()));
    let out = rtwc()
        .args(["bench-serve", "--clients", "2", "--ops", "10", "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ops/s"));
    let json = std::fs::read_to_string(&out_path).unwrap();
    assert!(json.contains("\"throughput_ops_per_s\""), "{json}");
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn bad_allocator_rejected() {
    let path = write_temp("alloc.jobs", "mesh 4 4\njob a 2\n  msg 0 1 1 100 4\n");
    let out = rtwc()
        .args(["deploy"])
        .arg(&path)
        .args(["--allocator", "quantum"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown allocator"));
}
