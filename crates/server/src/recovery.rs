//! Startup recovery: load the snapshot, replay the surviving WAL
//! records through the deterministic admission controller, and audit
//! the result against a fresh offline analysis before the service
//! accepts any traffic.
//!
//! ## Sequence alignment
//!
//! The snapshot records `seq` (accepted ops it captures) and the WAL
//! header records `base_seq` (ops captured before its first record).
//! Normally they are equal. A crash **between** writing a snapshot and
//! resetting the WAL leaves `base_seq < seq`; recovery then skips the
//! leading WAL records the snapshot already covers. `base_seq > seq`
//! means history is missing (a deleted or substituted log) and is
//! refused outright.
//!
//! ## Audit
//!
//! After replay the recovered set is handed to the verifier's
//! [`lint_recovered`] rule pair: `A107` (a cached bound diverges from a
//! fresh `determine_feasibility` run) and `A108` (a recovered bound
//! misses its deadline). A second pass, [`lint_recovery_report`]
//! (`A109`), cross-checks the produced [`RecoveryReport`]'s
//! skip/replay/seq accounting against the raw snapshot and WAL inputs.
//! Any finding aborts recovery — a service that cannot prove its
//! recovered state is the state it acknowledged must not serve.

use crate::faultfs::{RealFile, WalFile};
use crate::service::{AcceptedOp, Inner};
use crate::snapshot::load_snapshot;
use crate::wal::{FsyncPolicy, Wal, WalRecord, WAL_FILE};
use rtwc_core::StreamSet;
use rtwc_verifier::{lint_recovered, lint_recovery_report, RecoveryArtifact};
use std::io;
use std::path::Path;
use wormnet_topology::Mesh;

/// The state recovery hands to the service: exactly what a service
/// that never crashed would hold after the same accepted-op history —
/// the rebuilt controller with all cached bounds, the stable ids, the
/// op journal (synthesized admits for snapshot streams followed by the
/// replayed WAL records) and the idempotency window (snapshot entries,
/// then WAL-derived ones).
#[derive(Debug)]
pub struct RecoveredState {
    pub(crate) inner: Inner,
    /// Total accepted operations in the recovered history.
    pub seq: u64,
}

impl RecoveredState {
    /// Stable ids of the recovered streams, in dense order.
    pub fn handles(&self) -> &[u64] {
        &self.inner.handles
    }

    /// The recovered cached bounds with their stable ids, in dense
    /// order — what [`crate::AdmissionService::bounds_by_handle`] will
    /// serve from this state.
    pub fn bounds_by_handle(&self) -> Vec<(u64, u64)> {
        self.inner.streams().map(|(h, _, b)| (h, b)).collect()
    }
}

/// What recovery did, for the startup banner and the chaos harness.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot, if one was loaded.
    pub snapshot_seq: Option<u64>,
    /// Streams restored directly from the snapshot.
    pub snapshot_streams: usize,
    /// WAL records replayed (after skipping snapshot-covered ones).
    pub wal_records: usize,
    /// WAL records skipped because the snapshot already covered them.
    pub wal_skipped: usize,
    /// Torn-tail bytes the WAL open discarded.
    pub truncated_bytes: u64,
    /// Streams admitted in the recovered state.
    pub streams: usize,
    /// Bounds re-derived and cross-checked by the verifier audit.
    pub audited: usize,
}

impl RecoveryReport {
    /// One-line human summary for the startup banner.
    pub fn render(&self) -> String {
        let snap = match self.snapshot_seq {
            Some(seq) => format!("snapshot@{seq} ({} stream(s))", self.snapshot_streams),
            None => "no snapshot".to_string(),
        };
        format!(
            "recovered {}: {snap} + {} WAL record(s) ({} skipped, {} torn byte(s) discarded); \
             audit re-derived {} bound(s)",
            self.streams, self.wal_records, self.wal_skipped, self.truncated_bytes, self.audited
        )
    }
}

fn data_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Recovers from `dir` using a plain on-disk WAL file. See
/// [`recover_with_file`].
pub fn recover(
    mesh: &Mesh,
    dir: &Path,
    policy: FsyncPolicy,
) -> io::Result<(RecoveredState, Wal, RecoveryReport)> {
    let file = Box::new(RealFile::open(&dir.join(WAL_FILE))?);
    recover_with_file(mesh, dir, policy, file)
}

/// Recovers from `dir`, reading the WAL through `file` (the chaos
/// harness passes a fault-injecting file here). On success the returned
/// [`Wal`] is open, torn-tail-truncated, and ready to append.
pub fn recover_with_file(
    mesh: &Mesh,
    dir: &Path,
    policy: FsyncPolicy,
    file: Box<dyn WalFile>,
) -> io::Result<(RecoveredState, Wal, RecoveryReport)> {
    let snapshot = load_snapshot(dir)?;
    let (wal, opened) = Wal::open(file, policy)?;
    let snap_seq = snapshot.as_ref().map_or(0, |s| s.seq);
    if opened.base_seq > snap_seq {
        return Err(data_err(format!(
            "WAL starts at seq {} but the snapshot only covers {snap_seq}: history is missing",
            opened.base_seq
        )));
    }
    let skip = (snap_seq - opened.base_seq) as usize;
    let replayable: &[WalRecord] = opened.records.get(skip..).unwrap_or(&[]);

    // Every snapshot stream and WAL record was accepted live against
    // exactly the state rebuilt so far, so the deterministic controller
    // must accept it again; a refusal means the history and the
    // analysis disagree. (Any subset of a feasible set is feasible, so
    // re-admitting the snapshot's streams in dense order reproduces the
    // exact bounds the live service cached.)
    let mut inner = Inner::default();
    let (snapshot_seq, snapshot_streams) = match &snapshot {
        Some(snap) => {
            for (handle, spec) in &snap.streams {
                let op = AcceptedOp::Admit {
                    handle: *handle,
                    spec: spec.clone(),
                };
                inner
                    .apply_accepted(mesh, 0, &op)
                    .map_err(|e| data_err(format!("recovery: snapshot stream: {e}")))?;
            }
            inner.next_handle = inner.next_handle.max(snap.next_handle);
            for entry in &snap.dedup {
                inner.remember(*entry);
            }
            (Some(snap.seq), snap.streams.len())
        }
        None => (None, 0),
    };
    for rec in replayable {
        inner
            .apply_accepted(mesh, rec.req_id, &rec.op)
            .map_err(|e| data_err(format!("recovery: WAL record: {e}")))?;
    }
    let ctl = &inner.ctl;

    // Verifier audit: the recovered cached bounds must equal a fresh
    // offline analysis, and every recovered stream must still meet its
    // deadline. Anything else is refused before traffic is accepted.
    let audited = if ctl.is_empty() {
        0
    } else {
        let set = StreamSet::from_parts(ctl.parts().to_vec())
            .map_err(|e| data_err(format!("recovery: admitted set no longer resolves: {e}")))?;
        let findings = lint_recovered(&set, ctl.bounds());
        if let Some(d) = findings.first() {
            return Err(data_err(format!(
                "recovery audit failed [{}]: {}",
                d.code, d.message
            )));
        }
        set.len()
    };

    let report = RecoveryReport {
        snapshot_seq,
        snapshot_streams,
        wal_records: replayable.len(),
        wal_skipped: skip.min(opened.records.len()),
        truncated_bytes: opened.truncated_bytes,
        streams: ctl.len(),
        audited,
    };
    let seq = wal.seq().max(snap_seq);

    // Second audit, on the accounting rather than the bounds: the
    // report's skip/replay/seq arithmetic must reproduce exactly from
    // the raw snapshot+WAL inputs (verifier rule `A109`). This guards
    // the recovery code itself — a future refactor that miscounts the
    // overlap fails here, before the state serves.
    let artifact = RecoveryArtifact {
        snapshot_seq,
        wal_base_seq: opened.base_seq,
        wal_records: opened.records.len() as u64,
        reported_replayed: report.wal_records as u64,
        reported_skipped: report.wal_skipped as u64,
        reported_seq: seq,
    };
    if let Some(d) = lint_recovery_report(&artifact).first() {
        return Err(data_err(format!(
            "recovery audit failed [{}]: {}",
            d.code, d.message
        )));
    }
    let state = RecoveredState { inner, seq };
    Ok((state, wal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{write_snapshot, SnapshotData};
    use rtwc_core::{StreamId, StreamSpec};
    use std::sync::Arc;
    use wormnet_topology::Topology;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rtwc-recov-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mesh() -> Mesh {
        Mesh::mesh2d(10, 10)
    }

    fn spec(m: &Mesh, row: u32) -> StreamSpec {
        let src = m.node_at(&[0, row]).unwrap();
        let dst = m.node_at(&[5, row]).unwrap();
        StreamSpec::new(src, dst, 2, 50 + u64::from(row), 4, 50 + u64::from(row))
    }

    fn open_wal(dir: &Path) -> Wal {
        let file = Box::new(RealFile::open(&dir.join(WAL_FILE)).unwrap());
        Wal::open(file, FsyncPolicy::Always).unwrap().0
    }

    #[test]
    fn empty_dir_recovers_to_an_empty_service() {
        let dir = tmpdir("empty");
        let m = mesh();
        let (state, wal, report) = recover(&m, &dir, FsyncPolicy::Always).unwrap();
        assert_eq!(state.inner.ctl.len(), 0);
        assert_eq!(state.seq, 0);
        assert_eq!(wal.records(), 0);
        assert_eq!(report.streams, 0);
        assert!(
            report.render().contains("no snapshot"),
            "{}",
            report.render()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_only_recovery_replays_admits_and_removes() {
        let dir = tmpdir("wal-only");
        let m = mesh();
        {
            let mut wal = open_wal(&dir);
            for (h, row) in [(0u64, 0u32), (1, 1), (2, 2)] {
                wal.append(
                    h + 10,
                    &AcceptedOp::Admit {
                        handle: h,
                        spec: spec(&m, row),
                    },
                )
                .unwrap();
            }
            wal.append(0, &AcceptedOp::Remove { handle: 1 }).unwrap();
        }
        let (state, wal, report) = recover(&m, &dir, FsyncPolicy::Always).unwrap();
        assert_eq!(state.inner.ctl.len(), 2);
        assert_eq!(state.handles(), vec![0, 2]);
        assert_eq!(state.inner.next_handle, 3);
        assert_eq!(state.seq, 4);
        assert_eq!(wal.seq(), 4);
        assert_eq!(report.wal_records, 4);
        assert_eq!(report.audited, 2);
        // The three admits carried request ids; the remove did not.
        assert_eq!(state.inner.dedup.len(), 3);
        assert!(state.inner.dedup.values().all(|e| e.admit && e.bound > 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_plus_wal_tail_recovers_and_skips_covered_records() {
        let dir = tmpdir("snap-wal");
        let m = mesh();
        // WAL holds the full history (snapshot written, reset crashed).
        {
            let mut wal = open_wal(&dir);
            for (h, row) in [(0u64, 0u32), (1, 1)] {
                wal.append(
                    0,
                    &AcceptedOp::Admit {
                        handle: h,
                        spec: spec(&m, row),
                    },
                )
                .unwrap();
            }
            wal.append(
                7,
                &AcceptedOp::Admit {
                    handle: 2,
                    spec: spec(&m, 2),
                },
            )
            .unwrap();
        }
        // Snapshot covers the first two ops only.
        write_snapshot(
            &dir,
            &SnapshotData {
                seq: 2,
                next_handle: 2,
                streams: vec![(0, spec(&m, 0)), (1, spec(&m, 1))],
                dedup: vec![],
            },
        )
        .unwrap();
        let (state, _, report) = recover(&m, &dir, FsyncPolicy::Always).unwrap();
        assert_eq!(report.snapshot_seq, Some(2));
        assert_eq!(report.wal_skipped, 2);
        assert_eq!(report.wal_records, 1);
        assert_eq!(state.inner.ctl.len(), 3);
        assert_eq!(state.handles(), vec![0, 1, 2]);
        assert_eq!(state.inner.next_handle, 3);
        assert_eq!(state.seq, 3);
        assert_eq!(state.inner.dedup.len(), 1);
        assert!(state.inner.dedup.contains_key(&7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_history_is_refused() {
        let dir = tmpdir("missing");
        let m = mesh();
        {
            let mut wal = open_wal(&dir);
            // A WAL that claims to continue from seq 5 with no snapshot.
            wal.reset(5).unwrap();
        }
        let err = recover(&m, &dir, FsyncPolicy::Always).unwrap_err();
        assert!(err.to_string().contains("history is missing"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_bounds_match_a_fresh_service_bit_for_bit() {
        use crate::service::replay;
        let dir = tmpdir("bitident");
        let m = mesh();
        let ops: Vec<AcceptedOp> = (0..4u64)
            .map(|h| AcceptedOp::Admit {
                handle: h,
                spec: spec(&m, h as u32),
            })
            .collect();
        {
            let mut wal = open_wal(&dir);
            for op in &ops {
                wal.append(0, op).unwrap();
            }
        }
        let (state, _, _) = recover(&m, &dir, FsyncPolicy::Always).unwrap();
        let arcs: Vec<Arc<AcceptedOp>> = ops.into_iter().map(Arc::new).collect();
        let serial = replay(&m, &arcs).unwrap();
        assert_eq!(serial.len(), state.inner.ctl.len());
        for i in 0..serial.len() {
            assert_eq!(
                serial.bound(StreamId(i as u32)),
                state.inner.ctl.bound(StreamId(i as u32)),
                "stream {i}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
