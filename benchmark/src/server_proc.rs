//! The program under test as a separate process: the shipped
//! `rtwc serve`, spawned on an ephemeral loopback port, observed through
//! `/proc`, and killed and reaped on every exit path of the benchmark.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Microseconds per scheduler tick in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI this runs on; std has no `sysconf`.
const TICK_US: u64 = 10_000;

/// A directory for one set-up's files, unique among concurrent runs and
/// repeated set-ups (process id, wall-clock nanoseconds and a counter,
/// not the `rtwc-*-{pid}` names ROADMAP item 3 shows colliding). It
/// lives under the benchmark's own `out/` so the run writes nothing
/// outside its checkout. Removed on drop.
pub struct RunDir(PathBuf);

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl RunDir {
    pub fn create(out: &Path, label: &str) -> io::Result<RunDir> {
        let base = out.join("tmp");
        std::fs::create_dir_all(&base)?;
        loop {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos());
            let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
            let dir = base.join(format!("{label}-{}-{nanos}-{n}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(RunDir(dir)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The fsync policy of the durable workload: write and flush every
/// record before its acknowledgement, `fdatasync` every 5 ms. This is
/// the policy the old in-process harness defaulted to. Under `always`
/// the service acknowledges two writes per device sync (one per
/// worker), so every number is the virtual disk's latency, which on the
/// benchmark box drifts by a factor of two over minutes (5.5k to 12.5k
/// ops/s between sessions): no bound the benchmark may set survives
/// that. `always` stays measured per layer (`server.group_commit.*`).
pub const DURABLE_FSYNC: &str = "interval:5";

/// A running `rtwc serve`. Dropping it sends `SIGKILL` and waits, so a
/// panic, an early `?` return and the normal end of a run all reap the
/// child.
pub struct ServerProc {
    child: Child,
    /// Kept open: closing the pipe would turn a later `println!` in the
    /// server into a broken-pipe panic.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Spawns `rtwc serve <spec> --addr 127.0.0.1:0` with default flags,
    /// plus `--wal-dir <dir> --fsync interval:5` when `wal_dir` is given,
    /// and waits for the `listening on ADDR` line.
    pub fn spawn(rtwc: &Path, spec: &Path, wal_dir: Option<&Path>, log: &Path) -> io::Result<Self> {
        let mut cmd = Command::new(rtwc);
        cmd.arg("serve").arg(spec).args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir")
                .arg(dir)
                .args(["--fsync", DURABLE_FSYNC]);
        }
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let ready = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) => break Err("rtwc serve exited before listening".to_string()),
                Err(e) => break Err(format!("reading rtwc serve's stdout: {e}")),
                Ok(_) => {}
            }
            if let Some(rest) = line.trim_end().strip_prefix("listening on ") {
                // `ADDR (what was seeded or recovered)`.
                break Ok(rest.split(' ').next().unwrap_or(rest).to_string());
            }
        };
        match ready {
            Ok(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            Err(msg) => {
                let _ = child.kill();
                let _ = child.wait();
                let tail = std::fs::read_to_string(log).unwrap_or_default();
                Err(io::Error::other(format!("{msg}: {}", tail.trim())))
            }
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User plus system CPU time the server has used, microseconds.
    pub fn cpu_us(&self) -> io::Result<u64> {
        parse_cpu_us(&self.proc_file("stat")?)
    }

    /// Peak resident set size (`VmHWM`), MiB.
    pub fn rss_hwm_mb(&self) -> io::Result<f64> {
        parse_hwm_mb(&self.proc_file("status")?)
    }

    /// `kill -9` and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// CPU time and peak resident set of this process.
pub fn own_cpu_us() -> io::Result<u64> {
    parse_cpu_us(&std::fs::read_to_string("/proc/self/stat")?)
}

pub fn own_rss_hwm_mb() -> io::Result<f64> {
    parse_hwm_mb(&std::fs::read_to_string("/proc/self/status")?)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name in field 2 may hold spaces, so fields count from the
/// last `)`.
fn parse_cpu_us(stat: &str) -> io::Result<u64> {
    let after = stat
        .rsplit_once(')')
        .ok_or_else(|| bad("no command in stat"))?
        .1;
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok());
    match (tick(), tick()) {
        (Some(u), Some(s)) => Ok((u + s) * TICK_US),
        _ => Err(bad("no utime/stime in stat")),
    }
}

fn parse_hwm_mb(status: &str) -> io::Result<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| bad("no VmHWM in status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_files() {
        let stat = "123 (rt wc) S) R 1 2 3 4 5 6 7 8 9 10 40 2 0 0 20 0 3 0 100 ...";
        assert_eq!(parse_cpu_us(stat).unwrap(), 42 * TICK_US);
        let status = "Name:\trtwc\nVmPeak:\t  100 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 1 kB\n";
        assert!((parse_hwm_mb(status).unwrap() - 5.0).abs() < 1e-12);
        assert!(parse_cpu_us("nothing").is_err());
        assert!(parse_hwm_mb("nothing").is_err());
    }

    #[test]
    fn run_dirs_are_unique_and_removed() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test");
        let a = RunDir::create(&out, "t").unwrap();
        let b = RunDir::create(&out, "t").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists() && b.path().exists());
        drop(b);
        let _ = std::fs::remove_dir_all(&out);
    }
}
