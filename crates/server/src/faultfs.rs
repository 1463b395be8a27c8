//! The WAL device abstraction and the fault-injecting wrapper behind
//! `rtwc chaos`.
//!
//! The write-ahead log talks to its backing file only through the
//! [`WalFile`] trait, so the chaos harness can interpose a
//! [`FailpointFile`] that injects the failure classes real storage
//! exhibits:
//!
//! - **torn write** — a partial append that *reports* the error
//!   (`write` returned short / EIO mid-record);
//! - **short write** — a partial append that lies and reports success
//!   (lost page-cache tail, firmware bugs) — only detectable at
//!   recovery time via the record CRC;
//! - **fsync error** — `fsync` fails (thinly-provisioned volume, dying
//!   device); under `--fsync always` the op must not be acknowledged;
//! - **kill-9 truncation** — the file simply ends mid-record, injected
//!   by truncating at an arbitrary byte offset before recovery.
//!
//! Injection is counter-based and deterministic: a [`FaultPlan`] names
//! the 1-based append/sync call to fail, and the shared [`FaultState`]
//! records whether (and where) the fault fired so the harness knows the
//! exact acked-op prefix that must survive.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A scratch directory path under the system temp dir that no other
/// call in this or any live process gets: `rtwc-{tag}-{pid}-{n}`. The
/// pid alone is not enough — tests in one binary share it and would
/// delete each other's directory. Not created here.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rtwc-{tag}-{}-{n}", std::process::id()))
}

/// The file operations the WAL needs. Implemented by [`RealFile`]
/// (plain `std::fs`) and [`FailpointFile`] (fault injection).
#[allow(clippy::len_without_is_empty)] // a device length, not a collection
pub trait WalFile: Send + Sync + fmt::Debug {
    /// Reads the whole file from the start. Leaves the cursor at EOF.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Appends `buf` at the end of the file.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes file data to stable storage (`fdatasync`-equivalent).
    fn sync(&mut self) -> io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// A second handle onto the same file — what the `--fsync interval`
    /// flusher syncs through while the reactor keeps writing through
    /// this one. Fault injection carries over to the clone.
    fn try_clone(&self) -> io::Result<Box<dyn WalFile>>;
}

/// A real file on disk, opened for reading and appending (`O_APPEND`:
/// every write lands at the end, so an append is one `write(2)`).
pub struct RealFile {
    file: File,
}

impl fmt::Debug for RealFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealFile").finish_non_exhaustive()
    }
}

impl RealFile {
    /// Opens (creating if absent) `path` for read + append.
    pub fn open(path: &Path) -> io::Result<RealFile> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(RealFile { file })
    }
}

impl WalFile for RealFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn try_clone(&self) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(RealFile {
            file: self.file.try_clone()?,
        }))
    }
}

/// An in-memory [`WalFile`] with a **synced-bytes watermark**: `sync`
/// advances the watermark to the current length, and
/// [`MemFile::synced_bytes`] exposes the prefix a crash at any moment
/// would preserve. Cloning yields a second handle onto the same
/// storage, so a test (or a loom model) holds an observer handle while
/// the WAL owns the other and can reconstruct the post-crash file with
/// [`MemFile::from_bytes`] at any point.
///
/// The interior mutex is a plain `std` one even under `--cfg loom`:
/// each call takes and releases it without reaching a model schedule
/// point, so under the model checker (which runs one thread at a time)
/// it is never contended, and every call is atomic — as one `write(2)`
/// or one `fdatasync` is to the other handle of a real file.
#[derive(Clone, Debug, Default)]
pub struct MemFile {
    state: Arc<std::sync::Mutex<MemState>>,
}

#[derive(Debug, Default)]
struct MemState {
    data: Vec<u8>,
    synced_len: usize,
    syncs: u64,
    /// Fail sync call `n` (1-based) and every later one, as in
    /// [`FaultPlan::fail_sync_from`].
    fail_sync_from: Option<u64>,
}

impl MemFile {
    /// An empty in-memory file.
    pub fn new() -> MemFile {
        MemFile::default()
    }

    /// A file pre-loaded with `data` (all of it already durable) — the
    /// "reopen after crash" constructor.
    pub fn from_bytes(data: Vec<u8>) -> MemFile {
        let synced_len = data.len();
        MemFile {
            state: Arc::new(std::sync::Mutex::new(MemState {
                data,
                synced_len,
                syncs: 0,
                fail_sync_from: None,
            })),
        }
    }

    /// Makes sync call `n` (1-based) and every later one fail — the
    /// in-memory analogue of a dying device.
    pub fn fail_sync_from(&self, n: u64) {
        self.lock().fail_sync_from = Some(n);
    }

    /// The bytes a crash right now would preserve (everything up to the
    /// last successful sync).
    pub fn synced_bytes(&self) -> Vec<u8> {
        let s = self.lock();
        s.data[..s.synced_len].to_vec()
    }

    /// The whole current contents, durable or not.
    pub fn bytes(&self) -> Vec<u8> {
        self.lock().data.clone()
    }

    /// Successful or failed sync calls so far.
    pub fn syncs(&self) -> u64 {
        self.lock().syncs
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl WalFile for MemFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.lock().data.clone())
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.lock().data.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut s = self.lock();
        s.syncs += 1;
        if let Some(from) = s.fail_sync_from {
            if s.syncs >= from {
                return Err(injected("fsync error"));
            }
        }
        s.synced_len = s.data.len();
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut s = self.lock();
        s.data.truncate(len as usize);
        s.synced_len = s.synced_len.min(s.data.len());
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.lock().data.len() as u64)
    }

    fn try_clone(&self) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(self.clone()))
    }
}

/// What to inject, keyed by 1-based call counts. `None` fields never
/// fire. At most one append fault fires per plan (whichever call count
/// is reached first).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// On append call `n`, write only `keep` bytes and return an error
    /// (a detected torn write — the caller can roll back).
    pub torn_append: Option<(u64, usize)>,
    /// On append call `n`, write only `keep` bytes but report success
    /// (a lying disk — detectable only by the recovery CRC scan).
    pub short_append: Option<(u64, usize)>,
    /// Fail sync call `n` and every later sync (a dying device).
    pub fail_sync_from: Option<u64>,
    /// Stretch every sync by this long (a slow device). Not a failure:
    /// the latency failpoint lets the chaos harness force concurrent
    /// writers to pile up behind one group sync so a mid-batch crash is
    /// actually mid-*batch*.
    pub sync_delay: Option<std::time::Duration>,
}

/// Shared observation point: which call counters have advanced and
/// whether a planned fault has fired.
#[derive(Debug, Default)]
pub struct FaultState {
    appends: AtomicU64,
    syncs: AtomicU64,
    fired: AtomicBool,
}

impl FaultState {
    /// Appends attempted so far.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::SeqCst)
    }

    /// Syncs attempted so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// True once any planned fault has been injected.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// A [`WalFile`] that delegates to a [`RealFile`] but injects the
/// faults described by its [`FaultPlan`].
#[derive(Debug)]
pub struct FailpointFile {
    inner: RealFile,
    plan: FaultPlan,
    state: Arc<FaultState>,
}

impl FailpointFile {
    /// Wraps the file at `path` with `plan`; `state` is the shared
    /// observation handle.
    pub fn open(path: &Path, plan: FaultPlan, state: Arc<FaultState>) -> io::Result<FailpointFile> {
        Ok(FailpointFile {
            inner: RealFile::open(path)?,
            plan,
            state,
        })
    }
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected fault: {kind}"))
}

impl WalFile for FailpointFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let n = self.state.appends.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some((at, keep)) = self.plan.torn_append {
            if n == at {
                self.state.fired.store(true, Ordering::SeqCst);
                self.inner.append(&buf[..keep.min(buf.len())])?;
                return Err(injected("torn write"));
            }
        }
        if let Some((at, keep)) = self.plan.short_append {
            if n == at {
                self.state.fired.store(true, Ordering::SeqCst);
                // The lie: partial data, successful return.
                return self.inner.append(&buf[..keep.min(buf.len())]);
            }
        }
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some(d) = self.plan.sync_delay {
            std::thread::sleep(d);
        }
        let n = self.state.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(from) = self.plan.fail_sync_from {
            if n >= from {
                self.state.fired.store(true, Ordering::SeqCst);
                return Err(injected("fsync error"));
            }
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn try_clone(&self) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(FailpointFile {
            inner: RealFile {
                file: self.inner.file.try_clone()?,
            },
            plan: self.plan,
            state: Arc::clone(&self.state),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rtwc-faultfs-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("f.bin")
    }

    #[test]
    fn real_file_round_trips_and_truncates() {
        let path = tmp("real");
        let mut f = RealFile::open(&path).unwrap();
        f.truncate(0).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello world");
        // Appends after a read still land at the end.
        f.append(b"!").unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello world!");
        f.truncate(5).unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello");
        assert_eq!(f.len().unwrap(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_append_keeps_a_prefix_and_errors() {
        let path = tmp("torn");
        let state = Arc::new(FaultState::default());
        let plan = FaultPlan {
            torn_append: Some((2, 3)),
            ..FaultPlan::default()
        };
        let mut f = FailpointFile::open(&path, plan, Arc::clone(&state)).unwrap();
        f.truncate(0).unwrap();
        f.append(b"aaaa").unwrap();
        let err = f.append(b"bbbb").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert!(state.fired());
        assert_eq!(f.read_all().unwrap(), b"aaaabbb");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_append_lies_about_success() {
        let path = tmp("short");
        let state = Arc::new(FaultState::default());
        let plan = FaultPlan {
            short_append: Some((1, 2)),
            ..FaultPlan::default()
        };
        let mut f = FailpointFile::open(&path, plan, Arc::clone(&state)).unwrap();
        f.truncate(0).unwrap();
        f.append(b"zzzz").unwrap(); // reports Ok, writes "zz"
        assert!(state.fired());
        assert_eq!(f.read_all().unwrap(), b"zz");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_file_watermark_tracks_syncs() {
        let observer = MemFile::new();
        let mut f = observer.clone();
        f.append(b"aaaa").unwrap();
        assert_eq!(observer.synced_bytes(), b"", "nothing durable yet");
        f.sync().unwrap();
        assert_eq!(observer.synced_bytes(), b"aaaa");
        f.append(b"bbbb").unwrap();
        assert_eq!(observer.synced_bytes(), b"aaaa", "tail not synced");
        assert_eq!(observer.bytes(), b"aaaabbbb");
        // Truncating below the watermark pulls it back.
        f.truncate(2).unwrap();
        assert_eq!(observer.synced_bytes(), b"aa");
        // A dying device: the watermark stops advancing.
        observer.fail_sync_from(2);
        f.append(b"cc").unwrap();
        assert!(f.sync().is_err());
        assert_eq!(observer.synced_bytes(), b"aa");
        assert_eq!(observer.syncs(), 2);
    }

    #[test]
    fn sync_failures_start_at_the_planned_call_and_persist() {
        let path = tmp("sync");
        let state = Arc::new(FaultState::default());
        let plan = FaultPlan {
            fail_sync_from: Some(2),
            ..FaultPlan::default()
        };
        let mut f = FailpointFile::open(&path, plan, Arc::clone(&state)).unwrap();
        f.sync().unwrap();
        assert!(!state.fired());
        assert!(f.sync().is_err());
        assert!(f.sync().is_err(), "a dying device stays dead");
        assert_eq!(state.syncs(), 3);
        std::fs::remove_file(&path).ok();
    }
}
