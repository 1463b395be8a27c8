//! `A1xx` — analysis-artifact rules.
//!
//! These check the ICPP'98 pipeline's intermediate artifacts — HP sets,
//! the blocking dependency graph, and timing diagrams — against the
//! invariants the delay-bound derivation relies on. On a healthy build
//! they are self-checks (the canonical constructors satisfy them by
//! construction); they exist so that hand-built artifacts, future
//! kernel changes, and cross-kernel drift are caught *before* a bound
//! is trusted.

use crate::diag::{Diagnostic, Span};
use rtwc_core::{
    determine_feasibility, generate_hp, BlockingDependencyGraph, DelayBound, HpSet,
    RemovedInstances, StreamId, StreamSet, TimingDiagram,
};

/// Default cap on the per-stream diagram horizon used by the `A1xx`
/// diagram rules: long-deadline streams are checked over a prefix so
/// linting stays fast.
pub const DEFAULT_HORIZON_CAP: u64 = 4096;

/// Runs every `A1xx` rule over every stream of `set`, generating the
/// canonical artifacts and checking them. `horizon_cap` bounds the
/// diagram horizon per stream (see [`DEFAULT_HORIZON_CAP`]).
pub fn lint_analysis(set: &StreamSet, horizon_cap: u64) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for target in set.ids() {
        let hp = generate_hp(set, target);
        diags.extend(lint_hp_set(set, &hp));
        diags.extend(lint_diagram(set, &hp, horizon_cap));
    }
    diags
}

/// `A100`–`A103`: checks one HP set (canonical or hand-built) against
/// the blocking relation of `set`.
pub fn lint_hp_set(set: &StreamSet, hp: &HpSet) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let target = hp.target;
    let tgt = set.get(target);
    let span = Span::Stream(target.0);
    let member = |id: StreamId| hp.element(id).is_some();

    // A100: the set must be the closure of directly-affects chains
    // ending at the target — and must not contain the target itself.
    if member(target) {
        diags.push(Diagnostic::new(
            "A100",
            span,
            format!("HP({target}) contains its own target"),
        ));
    }
    for e in hp.elements() {
        let m = set.get(e.stream);
        for j in set.iter() {
            if j.id == target || j.id == e.stream || member(j.id) {
                continue;
            }
            if j.directly_affects(m) {
                diags.push(
                    Diagnostic::new(
                        "A100",
                        span,
                        format!(
                            "HP({target}) is not closed: {} directly affects member {} but is missing",
                            j.id, e.stream
                        ),
                    )
                    .with_suggestion("regenerate the HP set with generate_hp"),
                );
            }
        }
    }

    // A101: Direct <=> shares a channel with (and can preempt) the target.
    for e in hp.elements() {
        let direct = set.get(e.stream).directly_affects(tgt);
        if e.is_direct() && !direct {
            diags.push(Diagnostic::new(
                "A101",
                span,
                format!(
                    "{} is marked Direct in HP({target}) but does not directly affect the target",
                    e.stream
                ),
            ));
        }
        if !e.is_direct() && direct {
            diags.push(Diagnostic::new(
                "A101",
                span,
                format!(
                    "{} is marked Indirect in HP({target}) but directly affects the target (Direct dominates)",
                    e.stream
                ),
            ));
        }
        if e.is_direct() && !e.intermediates.is_empty() {
            diags.push(Diagnostic::new(
                "A101",
                span,
                format!(
                    "direct element {} of HP({target}) carries intermediate streams",
                    e.stream
                ),
            ));
        }
    }

    // A102: every indirect element needs a blocking chain — a nonempty
    // IN field of members (or the target), and a finite BDG distance.
    let bdg = BlockingDependencyGraph::build(set, hp);
    let dist = bdg.distance_from_target();
    for e in hp.elements().iter().filter(|e| !e.is_direct()) {
        if e.intermediates.is_empty() {
            diags.push(Diagnostic::new(
                "A102",
                span,
                format!(
                    "indirect element {} of HP({target}) has no intermediate streams",
                    e.stream
                ),
            ));
        }
        for &i in &e.intermediates {
            if i != target && !member(i) {
                diags.push(Diagnostic::new(
                    "A102",
                    span,
                    format!(
                        "intermediate {} of indirect element {} is not in HP({target})",
                        i, e.stream
                    ),
                ));
            }
        }
        if let Some(pos) = bdg.nodes().iter().position(|&n| n == e.stream) {
            if dist[pos].is_none() {
                diags.push(
                    Diagnostic::new(
                        "A102",
                        span,
                        format!(
                            "no blocking chain from indirect element {} reaches the target in the BDG",
                            e.stream
                        ),
                    )
                    .with_suggestion("the element cannot delay the target; drop it"),
                );
            }
        }
    }

    // A103: cycles in the BDG mean mutual blocking (equal priorities on
    // shared channels). The processing order falls back deterministically,
    // so this is a warning, not an error.
    if let Some(cycle) = bdg_cycle(&bdg) {
        let names: Vec<String> = cycle.iter().map(|s| format!("{s}")).collect();
        diags.push(
            Diagnostic::new(
                "A103",
                span,
                format!(
                    "blocking dependency cycle in BDG({target}): {} -> (back to start)",
                    names.join(" -> ")
                ),
            )
            .with_suggestion("distinct priorities on shared channels break the cycle"),
        );
    }

    diags
}

/// `A104`/`A105`: generates the timing diagram for `hp`'s target over a
/// capped horizon and checks structural invariants and bitset/legacy
/// kernel agreement.
pub fn lint_diagram(set: &StreamSet, hp: &HpSet, horizon_cap: u64) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let target = hp.target;
    let span = Span::Stream(target.0);
    let horizon = set.get(target).deadline().clamp(1, horizon_cap.max(1));
    let none = RemovedInstances::none();

    // A104: structural invariants of the packed-bitset diagram.
    let d = TimingDiagram::generate(set, hp, horizon, &none);
    if let Err(e) = d.check_invariants(set) {
        diags.push(
            Diagnostic::new(
                "A104",
                span,
                format!("timing diagram for {target} violates an invariant: {e}"),
            )
            .with_suggestion("the diagram kernel is unsound here; do not trust this bound"),
        );
    }

    // A105: the legacy cell-matrix kernel is the oracle; the bitset
    // kernel must agree on every instance and on sampled cells.
    let legacy = TimingDiagram::generate_legacy(set, hp, horizon, &none);
    diags.extend(kernel_divergence(&d, &legacy, horizon, span));

    diags
}

/// `A107`/`A108`: audits a crash-recovered admission state against a
/// fresh offline analysis.
///
/// `cached` are the delay bounds the recovered controller serves, in
/// dense id order. The rule recomputes every bound with
/// `determine_feasibility` over the same set and flags any divergence
/// (`A107`) — a recovered state that does not reproduce the offline
/// analysis bit for bit must not accept traffic, because every
/// guarantee it would issue is built on unverifiable cached state. It
/// also re-checks the admission invariant itself (`A108`): every
/// recovered bound must be bounded and within its stream's deadline.
pub fn lint_recovered(set: &StreamSet, cached: &[DelayBound]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if cached.len() != set.len() {
        diags.push(Diagnostic::new(
            "A107",
            Span::Workload,
            format!(
                "recovered state has {} cached bound(s) for {} stream(s)",
                cached.len(),
                set.len()
            ),
        ));
        return diags;
    }
    let fresh = determine_feasibility(set);
    for id in set.ids() {
        let got = cached[id.index()];
        let want = fresh.bound(id);
        if got != want {
            diags.push(Diagnostic::new(
                "A107",
                Span::Stream(id.0),
                format!(
                    "recovered cached bound for {id} is {got}, fresh offline analysis says {want}"
                ),
            ));
        }
        let deadline = set.get(id).deadline();
        match got.value() {
            Some(u) if u <= deadline => {}
            _ => diags.push(Diagnostic::new(
                "A108",
                Span::Stream(id.0),
                format!(
                    "recovered {id} serves bound {got} against deadline {deadline}: the admitted set is no longer feasible"
                ),
            )),
        }
    }
    diags
}

/// Neutral description of one crash-recovery run: the durability
/// inputs it consumed (snapshot sequence number, WAL header base and
/// physical record count) and the claims its report makes. The
/// admission server's `RecoveryReport` maps onto this; keeping a plain
/// struct here lets the verifier audit the arithmetic without a
/// dependency on the server crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryArtifact {
    /// Sequence number of the loaded snapshot (`None` on a cold start).
    pub snapshot_seq: Option<u64>,
    /// `base_seq` from the WAL header: operations in the history
    /// before the log's first record.
    pub wal_base_seq: u64,
    /// Records physically present in the (torn-tail-truncated) WAL.
    pub wal_records: u64,
    /// Records the report claims were replayed into the state.
    pub reported_replayed: u64,
    /// Records the report claims were skipped as snapshot-covered.
    pub reported_skipped: u64,
    /// The sequence number the recovered state serves.
    pub reported_seq: u64,
}

/// `A109`: cross-checks a recovery report against its snapshot and WAL
/// inputs.
///
/// The durable history is a single sequence of accepted operations;
/// the snapshot covers a prefix `[1, snapshot_seq]` and the WAL covers
/// `(wal_base_seq, wal_base_seq + wal_records]`. A trustworthy
/// recovery must have consumed a *contiguous* history (the WAL may not
/// begin after the snapshot ends — that is a hole) and its report must
/// account for every record exactly once: `skipped` is the overlap
/// with the snapshot, `replayed` is the rest, and the served sequence
/// number is the end of whichever input reaches further. A report that
/// fails this arithmetic describes a recovery that dropped or
/// double-applied operations, so the state it produced must not accept
/// traffic.
pub fn lint_recovery_report(a: &RecoveryArtifact) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let span = Span::Workload;
    let snap_seq = a.snapshot_seq.unwrap_or(0);

    // Contiguity: the WAL's first record must be at or before the
    // operation right after the snapshot's last covered one.
    if a.wal_base_seq > snap_seq {
        diags.push(
            Diagnostic::new(
                "A109",
                span,
                format!(
                    "history gap: the WAL starts at seq {} but the snapshot only covers {snap_seq} \
                     — operations {} through {} are lost",
                    a.wal_base_seq,
                    snap_seq + 1,
                    a.wal_base_seq
                ),
            )
            .with_suggestion("restore the matching snapshot or an older, contiguous WAL"),
        );
        // The alignment arithmetic below would underflow on a gapped
        // history; one fatal finding is enough.
        return diags;
    }

    // Alignment: the snapshot overlap determines what must be skipped
    // and what must be replayed, exactly.
    let want_skipped = (snap_seq - a.wal_base_seq).min(a.wal_records);
    let want_replayed = a.wal_records - want_skipped;
    if a.reported_skipped != want_skipped {
        diags.push(Diagnostic::new(
            "A109",
            span,
            format!(
                "skip miscount: snapshot@{snap_seq} over a WAL at base {} with {} record(s) \
                 covers {want_skipped}, report says {} skipped",
                a.wal_base_seq, a.wal_records, a.reported_skipped
            ),
        ));
    }
    if a.reported_replayed != want_replayed {
        diags.push(Diagnostic::new(
            "A109",
            span,
            format!(
                "replay miscount: {} WAL record(s) minus {want_skipped} snapshot-covered \
                 leaves {want_replayed}, report says {} replayed",
                a.wal_records, a.reported_replayed
            ),
        ));
    }

    // The served sequence number is the furthest point either input
    // reaches; anything else re-issues or skips sequence numbers on
    // the next append.
    let want_seq = (a.wal_base_seq + a.wal_records).max(snap_seq);
    if a.reported_seq != want_seq {
        diags.push(
            Diagnostic::new(
                "A109",
                span,
                format!(
                    "sequence miscount: the recovered history ends at {want_seq}, \
                     the state serves {}",
                    a.reported_seq
                ),
            )
            .with_suggestion("the next appended record would collide with or skip history"),
        );
    }

    diags
}

/// Neutral description of one fencing event: a leader deposed by a
/// higher epoch, with the sequence frontier the winner acknowledged as
/// the common history. The admission server's fence path maps onto
/// this; keeping a plain struct here lets the verifier audit the
/// arithmetic without a dependency on the server crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DivergenceArtifact {
    /// The epoch this node held when it was fenced.
    pub fenced_epoch: u64,
    /// The winning (promoted) peer's epoch.
    pub winner_epoch: u64,
    /// Highest sequence the winner had applied from this node's stream
    /// — the end of the shared history.
    pub common_seq: u64,
    /// Highest sequence this node's local WAL reaches.
    pub local_seq: u64,
}

/// `A110`: audits a fenced leader's unshipped WAL suffix.
///
/// After a partition, the deposed leader's WAL may extend past the
/// last sequence the promoted winner ever applied: every operation in
/// `(common_seq, local_seq]` was acknowledged to some client but is
/// absent from the surviving history, so the acknowledgement is void.
/// The report names the divergent range explicitly — the operator (or
/// the chaos harness) can then replay, compensate, or discard it
/// deliberately instead of the suffix silently vanishing on rejoin. A
/// fence whose epochs are not actually ordered is reported too: it
/// means the fencing handshake itself is broken.
pub fn lint_divergence(a: &DivergenceArtifact) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let span = Span::Workload;
    if a.winner_epoch <= a.fenced_epoch {
        diags.push(
            Diagnostic::new(
                "A110",
                span,
                format!(
                    "bogus fence: winner epoch {} does not exceed the fenced epoch {}",
                    a.winner_epoch, a.fenced_epoch
                ),
            )
            .with_suggestion("a fence must only be honored for a strictly higher epoch"),
        );
        return diags;
    }
    if a.local_seq > a.common_seq {
        let lost = a.local_seq - a.common_seq;
        diags.push(
            Diagnostic::new(
                "A110",
                span,
                format!(
                    "divergent suffix: {lost} acknowledged operation(s) in seq range {}..={} \
                     exist only on the fenced leader (epoch {}); the epoch-{} history ends their \
                     shared prefix at {}",
                    a.common_seq + 1,
                    a.local_seq,
                    a.fenced_epoch,
                    a.winner_epoch,
                    a.common_seq
                ),
            )
            .with_suggestion(
                "rejoin discards this suffix; re-submit the operations against the new leader \
                 if their acknowledgements must hold",
            ),
        );
    }
    diags
}

/// Compares two diagrams row by row: instance lists exactly, cells on a
/// sampled grid (up to 64 samples per row).
fn kernel_divergence(
    d: &TimingDiagram,
    oracle: &TimingDiagram,
    horizon: u64,
    span: Span,
) -> Vec<Diagnostic> {
    if d.rows().len() != oracle.rows().len() {
        return vec![Diagnostic::new(
            "A105",
            span,
            format!(
                "kernel divergence: bitset diagram has {} rows, legacy has {}",
                d.rows().len(),
                oracle.rows().len()
            ),
        )];
    }
    for (r, (dr, or)) in d.rows().iter().zip(oracle.rows().iter()).enumerate() {
        if dr.stream != or.stream || dr.instances != or.instances {
            return vec![Diagnostic::new(
                "A105",
                span,
                format!(
                    "kernel divergence in row {r} ({}): instance lists differ",
                    dr.stream
                ),
            )];
        }
    }
    let stride = (horizon / 64).max(1);
    for r in 0..d.rows().len() {
        let mut t = 1;
        while t <= horizon {
            if d.slot(r, t) != oracle.slot(r, t) {
                return vec![Diagnostic::new(
                    "A105",
                    span,
                    format!(
                        "kernel divergence in row {r} at slot {t}: bitset says {:?}, legacy says {:?}",
                        d.slot(r, t),
                        oracle.slot(r, t)
                    ),
                )];
            }
            t += stride;
        }
    }
    Vec::new()
}

/// Finds one directed cycle in the BDG, if any, via DFS coloring.
fn bdg_cycle(bdg: &BlockingDependencyGraph) -> Option<Vec<StreamId>> {
    let nodes = bdg.nodes();
    let mut color = vec![0u8; nodes.len()]; // 0 white, 1 on-path, 2 done
    let mut path = Vec::new();
    for start in 0..nodes.len() {
        if color[start] == 0 {
            if let Some(c) = dfs(bdg, nodes, start, &mut color, &mut path) {
                return Some(c);
            }
        }
    }
    None
}

fn dfs(
    bdg: &BlockingDependencyGraph,
    nodes: &[StreamId],
    u: usize,
    color: &mut [u8],
    path: &mut Vec<usize>,
) -> Option<Vec<StreamId>> {
    color[u] = 1;
    path.push(u);
    for v in 0..nodes.len() {
        if v == u || !bdg.edge(nodes[u], nodes[v]) {
            continue;
        }
        if color[v] == 1 {
            let from = path.iter().position(|&x| x == v).expect("on path");
            return Some(path[from..].iter().map(|&i| nodes[i]).collect());
        }
        if color[v] == 0 {
            if let Some(c) = dfs(bdg, nodes, v, color, path) {
                return Some(c);
            }
        }
    }
    path.pop();
    color[u] = 2;
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtwc_core::{BlockingMode, HpElement, StreamSpec};
    use wormnet_topology::{Mesh, Topology, XyRouting};

    /// The paper's worked example: M0 highest priority, M4 lowest; M4's
    /// HP set has direct and indirect elements.
    fn paper_set() -> StreamSet {
        let m = Mesh::mesh2d(10, 10);
        let n = |x, y| m.node_at(&[x, y]).unwrap();
        let specs = [
            StreamSpec::new(n(7, 3), n(7, 7), 5, 15, 4, 15),
            StreamSpec::new(n(1, 1), n(5, 4), 4, 10, 2, 10),
            StreamSpec::new(n(2, 1), n(7, 5), 3, 40, 4, 40),
            StreamSpec::new(n(4, 1), n(8, 5), 2, 45, 9, 45),
            StreamSpec::new(n(6, 1), n(9, 3), 1, 50, 6, 50),
        ];
        StreamSet::resolve(&m, &XyRouting, &specs).unwrap()
    }

    #[test]
    fn canonical_artifacts_are_clean() {
        let set = paper_set();
        assert_eq!(lint_analysis(&set, DEFAULT_HORIZON_CAP), Vec::new());
    }

    #[test]
    fn recovery_audit_accepts_fresh_bounds_and_flags_tampering() {
        let set = paper_set();
        let fresh = determine_feasibility(&set);
        let cached: Vec<DelayBound> = set.ids().map(|id| fresh.bound(id)).collect();
        assert_eq!(lint_recovered(&set, &cached), Vec::new());

        // A divergent cached bound is an A107 error; one past its
        // deadline is additionally an A108.
        let mut tampered = cached.clone();
        tampered[2] = DelayBound::Bounded(tampered[2].value().unwrap() + 1);
        let diags = lint_recovered(&set, &tampered);
        assert!(diags.iter().any(|d| d.code == "A107"), "{diags:?}");

        let mut broken = cached.clone();
        broken[1] = DelayBound::Exceeded;
        let diags = lint_recovered(&set, &broken);
        assert!(diags.iter().any(|d| d.code == "A108"), "{diags:?}");
        assert!(diags.iter().all(|d| d.is_error()), "{diags:?}");

        // A length mismatch is flagged without panicking.
        let diags = lint_recovered(&set, &cached[..3]);
        assert!(diags.iter().any(|d| d.code == "A107"), "{diags:?}");
    }

    #[test]
    fn recovery_report_arithmetic_is_cross_checked() {
        // A consistent run: snapshot@3 over a WAL holding seqs 2..=5:
        // 1 skipped, 2 replayed, serving seq 5.
        let ok = RecoveryArtifact {
            snapshot_seq: Some(3),
            wal_base_seq: 2,
            wal_records: 3,
            reported_replayed: 2,
            reported_skipped: 1,
            reported_seq: 5,
        };
        assert_eq!(lint_recovery_report(&ok), Vec::new());

        // Cold start, no snapshot: everything replays.
        let cold = RecoveryArtifact {
            snapshot_seq: None,
            wal_base_seq: 0,
            wal_records: 4,
            reported_replayed: 4,
            reported_skipped: 0,
            reported_seq: 4,
        };
        assert_eq!(lint_recovery_report(&cold), Vec::new());

        // Snapshot past the whole WAL: all records skipped, the
        // snapshot's seq wins.
        let covered = RecoveryArtifact {
            snapshot_seq: Some(9),
            wal_base_seq: 2,
            wal_records: 3,
            reported_replayed: 0,
            reported_skipped: 3,
            reported_seq: 9,
        };
        assert_eq!(lint_recovery_report(&covered), Vec::new());

        // A WAL that begins after the snapshot ends is a history gap:
        // one fatal finding, no underflow.
        let gap = RecoveryArtifact {
            wal_base_seq: 7,
            ..ok
        };
        let diags = lint_recovery_report(&gap);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].code == "A109" && diags[0].is_error());
        assert!(diags[0].message.contains("history gap"), "{diags:?}");

        // Each miscount is flagged independently.
        let wrong = RecoveryArtifact {
            reported_replayed: 3,
            reported_skipped: 0,
            reported_seq: 6,
            ..ok
        };
        let diags = lint_recovery_report(&wrong);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == "A109" && d.is_error()));
    }

    #[test]
    fn divergence_audit_names_the_lost_suffix() {
        // No divergence: the winner applied everything we had.
        let clean = DivergenceArtifact {
            fenced_epoch: 1,
            winner_epoch: 2,
            common_seq: 7,
            local_seq: 7,
        };
        assert_eq!(lint_divergence(&clean), Vec::new());

        // Behind the winner (we missed frames, not the reverse): the
        // rejoin catch-up handles it; nothing was lost here.
        let behind = DivergenceArtifact {
            local_seq: 5,
            ..clean
        };
        assert_eq!(lint_divergence(&behind), Vec::new());

        // Three acked ops exist only on the fenced side.
        let lost = DivergenceArtifact {
            common_seq: 7,
            local_seq: 10,
            ..clean
        };
        let diags = lint_divergence(&lost);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].code == "A110" && diags[0].is_error());
        assert!(
            diags[0].message.contains("3 acknowledged operation(s)"),
            "{diags:?}"
        );
        assert!(diags[0].message.contains("8..=10"), "{diags:?}");

        // Unordered epochs mean the fence handshake is broken.
        let bogus = DivergenceArtifact {
            fenced_epoch: 2,
            winner_epoch: 2,
            ..lost
        };
        let diags = lint_divergence(&bogus);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("bogus fence"), "{diags:?}");
    }

    #[test]
    fn dropping_a_member_breaks_closure() {
        let set = paper_set();
        let hp = generate_hp(&set, StreamId(4));
        assert!(
            hp.len() >= 3,
            "paper example: M4 is blocked by several streams"
        );
        // Remove one element whose blockers stay members -> not closed.
        let mut elements = hp.elements().to_vec();
        let dropped = elements.remove(0);
        let tampered = HpSet::from_elements(StreamId(4), elements);
        let diags = lint_hp_set(&set, &tampered);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "A100" && d.message.contains(&format!("{}", dropped.stream))),
            "{diags:?}"
        );
    }

    #[test]
    fn flipping_a_mode_is_misclassification() {
        let set = paper_set();
        let hp = generate_hp(&set, StreamId(4));
        let mut elements = hp.elements().to_vec();
        let e = elements.iter_mut().find(|e| e.is_direct()).unwrap();
        e.mode = BlockingMode::Indirect;
        let flipped = e.stream;
        let tampered = HpSet::from_elements(StreamId(4), elements);
        let diags = lint_hp_set(&set, &tampered);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "A101" && d.message.contains(&format!("{flipped}"))),
            "{diags:?}"
        );
    }

    #[test]
    fn fake_indirect_element_has_no_chain() {
        // Two disjoint streams: the lower-priority one cannot be blocked
        // by the higher-priority one at all, so planting it in the HP
        // set as Indirect must raise both A100-family noise and A102.
        let m = Mesh::mesh2d(6, 6);
        let n = |x, y| m.node_at(&[x, y]).unwrap();
        let specs = [
            StreamSpec::new(n(0, 0), n(3, 0), 2, 30, 3, 30),
            StreamSpec::new(n(0, 5), n(3, 5), 1, 30, 3, 30),
        ];
        let set = StreamSet::resolve(&m, &XyRouting, &specs).unwrap();
        assert!(generate_hp(&set, StreamId(1)).is_empty());
        let tampered = HpSet::from_elements(
            StreamId(1),
            vec![HpElement {
                stream: StreamId(0),
                mode: BlockingMode::Indirect,
                intermediates: Vec::new(),
            }],
        );
        let diags = lint_hp_set(&set, &tampered);
        assert!(diags.iter().any(|d| d.code == "A102"), "{diags:?}");
    }

    #[test]
    fn equal_priorities_on_a_shared_channel_cycle() {
        let m = Mesh::mesh2d(6, 1);
        let n = |x| m.node_at(&[x, 0]).unwrap();
        let specs = [
            StreamSpec::new(n(0), n(4), 2, 30, 3, 30),
            StreamSpec::new(n(1), n(5), 2, 30, 3, 30),
        ];
        let set = StreamSet::resolve(&m, &XyRouting, &specs).unwrap();
        let hp = generate_hp(&set, StreamId(0));
        let diags = lint_hp_set(&set, &hp);
        assert!(diags.iter().any(|d| d.code == "A103"), "{diags:?}");
        assert!(
            diags.iter().all(|d| !d.is_error()),
            "mutual blocking is analyzable"
        );
    }

    #[test]
    fn diagram_rules_accept_canonical_diagrams() {
        let set = paper_set();
        for target in set.ids() {
            let hp = generate_hp(&set, target);
            assert_eq!(lint_diagram(&set, &hp, 128), Vec::new());
        }
    }
}
