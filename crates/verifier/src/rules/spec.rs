//! `W0xx` — workload/spec rules.
//!
//! These run on *raw* [`StreamSpec`]s, before resolution, so that a
//! spec the resolver would reject outright still produces one
//! structured diagnostic per problem instead of aborting on the first.

use crate::diag::{Diagnostic, Span};
use rtwc_core::{latency::network_latency, StreamSpec};
use wormnet_topology::{LinkId, Path, Routing, Topology};

/// Runs the per-stream rules (`W002`..`W007`) for one spec, appending
/// any findings to `diags` and returning the stream's route when it has
/// one (the pairwise rules need it).
fn single_stream_rules<T, R>(
    topo: &T,
    routing: &R,
    s: &StreamSpec,
    id: u32,
    diags: &mut Vec<Diagnostic>,
) -> Option<Path>
where
    T: Topology,
    R: Routing<T>,
{
    let span = Span::Stream(id);

    // W002: zero parameters. Report every zero field in one finding.
    let mut zeros = Vec::new();
    if s.priority == 0 {
        zeros.push("priority");
    }
    if s.period == 0 {
        zeros.push("period T");
    }
    if s.max_length == 0 {
        zeros.push("length C");
    }
    if s.deadline == 0 {
        zeros.push("deadline D");
    }
    if !zeros.is_empty() {
        diags.push(
            Diagnostic::new(
                "W002",
                span,
                format!(
                    "zero {} (every parameter must be positive)",
                    zeros.join(", ")
                ),
            )
            .with_suggestion("give the stream positive parameters"),
        );
    }

    // W003 / W004: endpoints and routability.
    let path = if s.source == s.dest {
        diags.push(
            Diagnostic::new(
                "W003",
                span,
                format!("source equals destination (node {})", s.source),
            )
            .with_suggestion("self-delivery never enters the network; drop the stream"),
        );
        None
    } else {
        match routing.route(topo, s.source, s.dest) {
            Ok(p) => Some(p),
            Err(e) => {
                diags.push(
                    Diagnostic::new(
                        "W004",
                        span,
                        format!("no route from {} to {}: {e}", s.source, s.dest),
                    )
                    .with_suggestion("pick endpoints the deterministic routing can connect"),
                );
                None
            }
        }
    };

    // W005 / W006: parameter ordering (only meaningful when nonzero).
    if s.max_length > 0 && s.period > 0 && s.max_length > s.period {
        diags.push(
            Diagnostic::new(
                "W005",
                span,
                format!(
                    "length C = {} exceeds period T = {}: the stream oversubscribes its own channel",
                    s.max_length, s.period
                ),
            )
            .with_suggestion("shorten the message or lengthen the period"),
        );
    }
    if s.deadline > 0 && s.period > 0 && s.deadline > s.period {
        diags.push(
            Diagnostic::new(
                "W006",
                span,
                format!(
                    "deadline D = {} exceeds period T = {}: the analysis assumes at most one outstanding instance (D <= T)",
                    s.deadline, s.period
                ),
            )
            .with_suggestion("set D <= T, or split the stream"),
        );
    }

    // W007: deadline below the unloaded network latency.
    if let Some(p) = &path {
        if s.max_length > 0 && s.deadline > 0 {
            let latency = network_latency(p.hops(), s.max_length);
            if s.deadline < latency {
                diags.push(
                    Diagnostic::new(
                        "W007",
                        span,
                        format!(
                            "deadline D = {} is below the unloaded network latency L = {} ({} hops, C = {})",
                            s.deadline,
                            latency,
                            p.hops(),
                            s.max_length
                        ),
                    )
                    .with_suggestion(
                        "no schedule can meet this deadline even on an idle network",
                    ),
                );
            }
        }
    }
    path
}

/// The `W001` finding: stream `j` duplicates the earlier stream `i`.
fn duplicate_finding(j: u32, i: u32) -> Diagnostic {
    Diagnostic::new(
        "W001",
        Span::StreamPair(j, i),
        format!("stream M{j} duplicates M{i} exactly"),
    )
    .with_suggestion("drop the copy, or merge the traffic into one stream")
}

/// The `W008` finding: streams `i` and `j` share `priority` and the
/// directed channel `link`.
fn collision_finding(i: u32, j: u32, priority: u32, link: LinkId) -> Diagnostic {
    Diagnostic::new(
        "W008",
        Span::StreamPair(i, j),
        format!(
            "streams M{i} and M{j} share priority {priority} and directed channel L{} — they mutually block",
            link.0
        ),
    )
    .with_suggestion("give the streams distinct priorities")
}

/// Runs every `W0xx` rule over `specs`, routing each stream with the
/// given deterministic algorithm. Streams are identified in spans by
/// their index in `specs` (the id the resolver would assign).
pub fn lint_specs<T, R>(topo: &T, routing: &R, specs: &[StreamSpec]) -> Vec<Diagnostic>
where
    T: Topology,
    R: Routing<T>,
{
    let mut diags = Vec::new();
    let mut paths: Vec<Option<Path>> = Vec::with_capacity(specs.len());

    for (i, s) in specs.iter().enumerate() {
        let path = single_stream_rules(topo, routing, s, i as u32, &mut diags);
        paths.push(path);
    }

    // W001: byte-for-byte duplicate declarations. Each later copy is
    // reported against its first occurrence.
    for j in 1..specs.len() {
        if let Some(i) = specs[..j].iter().position(|s| *s == specs[j]) {
            diags.push(duplicate_finding(j as u32, i as u32));
        }
    }

    // W008: equal-priority streams sharing a directed channel. Under
    // the paper's model equal priorities block each other, so the pair
    // is analyzable — but the mutual blocking is usually unintended.
    for j in 1..specs.len() {
        for i in 0..j {
            if specs[i].priority != specs[j].priority || specs[i] == specs[j] {
                continue;
            }
            let (Some(a), Some(b)) = (&paths[i], &paths[j]) else {
                continue;
            };
            if let Some(&link) = a.shared_links(b).first() {
                diags.push(collision_finding(
                    i as u32,
                    j as u32,
                    specs[i].priority,
                    link,
                ));
            }
        }
    }

    diags
}

/// Runs the `W0xx` rules on a single **candidate** stream against an
/// already-admitted set: the per-stream rules (`W002`..`W007`) on the
/// candidate itself, plus the pairwise rules (`W001` duplicate, `W008`
/// priority collision) between the candidate and each admitted stream.
///
/// This is the admission-time entry point used by the online service
/// (`rtwc serve`): every `ADMIT` is linted *before* the admission
/// controller is touched, and only findings that involve the candidate
/// are produced — pre-existing findings in the admitted set are not
/// re-reported. The candidate is identified in spans by the id it would
/// get on admission, `admitted.len()`.
pub fn lint_candidate<T, R>(
    topo: &T,
    routing: &R,
    admitted: &[StreamSpec],
    candidate: &StreamSpec,
) -> Vec<Diagnostic>
where
    T: Topology,
    R: Routing<T>,
{
    // Self-deliveries and unroutable streams get a trivial (linkless)
    // path, which shares no channel with anything — exactly the streams
    // the pairwise rules must skip.
    let routed: Vec<(StreamSpec, Path)> = admitted
        .iter()
        .map(|s| {
            let p = if s.source == s.dest {
                Path::trivial(s.source)
            } else {
                routing
                    .route(topo, s.source, s.dest)
                    .unwrap_or_else(|_| Path::trivial(s.source))
            };
            (s.clone(), p)
        })
        .collect();
    lint_candidate_routed(topo, routing, &routed, candidate)
}

/// [`lint_candidate`] over *pre-routed* admitted streams.
///
/// The admission service stores every admitted stream's path alongside
/// its spec, so re-routing the whole set per `ADMIT` (and cloning every
/// spec to build the `&[StreamSpec]` slice) under the exclusive service
/// lock is pure waste. This variant borrows the `(spec, path)` pairs
/// as the admission controller already holds them. With a
/// deterministic routing algorithm the diagnostics are identical to
/// [`lint_candidate`]'s.
pub fn lint_candidate_routed<T, R>(
    topo: &T,
    routing: &R,
    admitted: &[(StreamSpec, Path)],
    candidate: &StreamSpec,
) -> Vec<Diagnostic>
where
    T: Topology,
    R: Routing<T>,
{
    let duplicate_of = admitted
        .iter()
        .position(|(s, _)| s == candidate)
        .map(|i| i as u32);
    let indexed: Vec<(u32, &StreamSpec, &Path)> = admitted
        .iter()
        .enumerate()
        .map(|(i, (s, p))| (i as u32, s, p))
        .collect();
    lint_candidate_indexed(
        topo,
        routing,
        admitted.len() as u32,
        duplicate_of,
        &indexed,
        candidate,
    )
}

/// [`lint_candidate_routed`] with **caller-supplied stream ids**.
///
/// The admission service lints a candidate against only its index
/// neighbours — the admitted streams that occupy one of the
/// candidate's channels in the controller's interference index — a
/// subset of the admitted set whose dense ids are not contiguous. This
/// entry point takes each admitted stream as an explicit
/// `(id, spec, path)` triple plus the candidate's own id, so the
/// findings carry the same stream ids a lint over the full set would
/// produce.
///
/// Contract (the service's index-neighbour lint upholds it,
/// [`lint_candidate_routed`] satisfies it trivially):
///
/// * `admitted` is sorted by ascending id — `W008` findings come out in
///   that order, matching the full scan;
/// * every admitted stream sharing a directed channel with the
///   candidate is present (the index lists every occupant of every
///   channel);
/// * `duplicate_of` is the id of the *first* exact duplicate across the
///   **whole** admitted set, or `None` (an exact duplicate has the
///   candidate's endpoints, hence its route, so it is a neighbour).
pub fn lint_candidate_indexed<T, R>(
    topo: &T,
    routing: &R,
    cand_id: u32,
    duplicate_of: Option<u32>,
    admitted: &[(u32, &StreamSpec, &Path)],
    candidate: &StreamSpec,
) -> Vec<Diagnostic>
where
    T: Topology,
    R: Routing<T>,
{
    let mut diags = Vec::new();
    let cand_path = single_stream_rules(topo, routing, candidate, cand_id, &mut diags);

    if let Some(i) = duplicate_of {
        diags.push(duplicate_finding(cand_id, i));
    }

    if let Some(cp) = &cand_path {
        for &(i, s, p) in admitted {
            if s.priority != candidate.priority || s == candidate || s.source == s.dest {
                continue;
            }
            if let Some(&link) = p.shared_links(cp).first() {
                diags.push(collision_finding(i, cand_id, s.priority, link));
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet_topology::{Mesh, NodeId, XyRouting};

    fn mesh() -> Mesh {
        Mesh::mesh2d(4, 4)
    }

    fn node(m: &Mesh, x: u32, y: u32) -> NodeId {
        m.node_at(&[x, y]).unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_spec_produces_no_findings() {
        let m = mesh();
        let specs = [
            StreamSpec::new(node(&m, 0, 0), node(&m, 3, 0), 2, 20, 4, 20),
            StreamSpec::new(node(&m, 0, 1), node(&m, 3, 1), 1, 20, 4, 20),
        ];
        assert!(lint_specs(&m, &XyRouting, &specs).is_empty());
    }

    #[test]
    fn each_structural_rule_fires() {
        let m = mesh();
        let specs = [
            // W002 (zero period) — also suppresses W005/W006 noise.
            StreamSpec::new(node(&m, 0, 0), node(&m, 1, 0), 1, 0, 4, 20),
            // W003.
            StreamSpec::new(node(&m, 2, 2), node(&m, 2, 2), 1, 20, 4, 20),
            // W005 + W006 (C=30 > T=20, D=35 > T=20; L=32 <= D keeps
            // W007 out of this stream).
            StreamSpec::new(node(&m, 0, 1), node(&m, 3, 1), 2, 20, 30, 35),
            // W007: 3 hops, C=2 -> L=4 > D=3.
            StreamSpec::new(node(&m, 0, 2), node(&m, 3, 2), 3, 20, 2, 3),
        ];
        let diags = lint_specs(&m, &XyRouting, &specs);
        let c = codes(&diags);
        assert_eq!(c, vec!["W002", "W003", "W005", "W006", "W007"], "{diags:?}");
        assert!(diags.iter().all(|d| d.suggestion.is_some()));
    }

    #[test]
    fn duplicates_and_collisions_are_pairwise() {
        let m = mesh();
        let a = StreamSpec::new(node(&m, 0, 0), node(&m, 3, 0), 2, 20, 4, 20);
        let specs = [
            a.clone(),
            a,
            // Same priority as the pair above, overlapping X-Y route.
            StreamSpec::new(node(&m, 1, 0), node(&m, 3, 0), 2, 40, 4, 40),
        ];
        let diags = lint_specs(&m, &XyRouting, &specs);
        let c = codes(&diags);
        assert_eq!(c, vec!["W001", "W008", "W008"], "{diags:?}");
        assert_eq!(diags[0].span, Span::StreamPair(1, 0));
        // The duplicate pair itself is not double-reported as a collision.
        assert_eq!(diags[1].span, Span::StreamPair(0, 2));
        assert_eq!(diags[2].span, Span::StreamPair(1, 2));
    }

    #[test]
    fn candidate_lint_reports_only_candidate_findings() {
        let m = mesh();
        // The admitted set itself contains a W005 (C > T) — candidate
        // linting must NOT re-report it.
        let admitted = [
            StreamSpec::new(node(&m, 0, 0), node(&m, 3, 0), 2, 20, 30, 20),
            StreamSpec::new(node(&m, 0, 1), node(&m, 3, 1), 1, 20, 4, 20),
        ];
        // A clean candidate on an empty row: no findings at all.
        let clean = StreamSpec::new(node(&m, 0, 2), node(&m, 3, 2), 3, 20, 4, 20);
        assert!(lint_candidate(&m, &XyRouting, &admitted, &clean).is_empty());

        // Same priority and overlapping route as admitted stream 1:
        // exactly one W008, spanning (admitted idx, candidate id).
        let colliding = StreamSpec::new(node(&m, 1, 1), node(&m, 3, 1), 1, 40, 4, 40);
        let diags = lint_candidate(&m, &XyRouting, &admitted, &colliding);
        assert_eq!(codes(&diags), vec!["W008"], "{diags:?}");
        assert_eq!(diags[0].span, Span::StreamPair(1, 2));

        // An exact copy of admitted stream 1: W001 against it.
        let dup = admitted[1].clone();
        let diags = lint_candidate(&m, &XyRouting, &admitted, &dup);
        assert_eq!(codes(&diags), vec!["W001"], "{diags:?}");
        assert_eq!(diags[0].span, Span::StreamPair(2, 1));

        // A structurally broken candidate fires the per-stream rules.
        let broken = StreamSpec::new(node(&m, 2, 2), node(&m, 2, 2), 1, 0, 2, 10);
        let diags = lint_candidate(&m, &XyRouting, &admitted, &broken);
        assert_eq!(codes(&diags), vec!["W002", "W003"], "{diags:?}");
        assert!(diags.iter().all(|d| d.span == Span::Stream(2)));
    }

    #[test]
    fn candidate_lint_agrees_with_full_lint() {
        // lint_candidate(existing, c) must produce exactly the findings
        // lint_specs(existing + c) attributes to the candidate.
        let m = mesh();
        let admitted = [
            StreamSpec::new(node(&m, 0, 0), node(&m, 3, 0), 2, 20, 4, 20),
            StreamSpec::new(node(&m, 0, 1), node(&m, 3, 1), 1, 20, 4, 20),
        ];
        let cand = StreamSpec::new(node(&m, 1, 0), node(&m, 3, 0), 2, 50, 60, 70);
        let candidate_view = lint_candidate(&m, &XyRouting, &admitted, &cand);

        let mut all = admitted.to_vec();
        all.push(cand);
        let cid = admitted.len() as u32;
        let full: Vec<_> = lint_specs(&m, &XyRouting, &all)
            .into_iter()
            .filter(|d| match d.span {
                Span::Stream(s) => s == cid,
                Span::StreamPair(a, b) => a == cid || b == cid,
                _ => false,
            })
            .collect();
        assert_eq!(candidate_view, full);
    }

    #[test]
    fn routed_candidate_lint_agrees_with_rerouting_lint() {
        let m = mesh();
        let admitted = [
            StreamSpec::new(node(&m, 0, 0), node(&m, 3, 0), 2, 20, 4, 20),
            StreamSpec::new(node(&m, 0, 1), node(&m, 3, 1), 1, 20, 4, 20),
            // Self-delivery: skipped by the pairwise rules either way.
            StreamSpec::new(node(&m, 2, 2), node(&m, 2, 2), 2, 20, 4, 20),
        ];
        let routed: Vec<(StreamSpec, Path)> = admitted
            .iter()
            .map(|s| {
                let p = if s.source == s.dest {
                    Path::trivial(s.source)
                } else {
                    XyRouting.route(&m, s.source, s.dest).unwrap()
                };
                (s.clone(), p)
            })
            .collect();
        for cand in [
            StreamSpec::new(node(&m, 1, 0), node(&m, 3, 0), 2, 40, 4, 40),
            admitted[1].clone(),
            StreamSpec::new(node(&m, 0, 2), node(&m, 3, 2), 3, 20, 4, 20),
        ] {
            assert_eq!(
                lint_candidate(&m, &XyRouting, &admitted, &cand),
                lint_candidate_routed(&m, &XyRouting, &routed, &cand),
                "{cand:?}"
            );
        }
    }

    #[test]
    fn unroutable_endpoints_are_reported() {
        // X-Y routing on a mesh always succeeds, so drive W004 with a
        // routing stub that never makes progress.
        struct NoRoute;
        impl Routing<Mesh> for NoRoute {
            fn next_hop(&self, _: &Mesh, _: NodeId, _: NodeId) -> Option<NodeId> {
                None
            }
        }
        let m = mesh();
        let specs = [StreamSpec::new(
            node(&m, 0, 0),
            node(&m, 3, 0),
            1,
            20,
            4,
            20,
        )];
        let diags = lint_specs(&m, &NoRoute, &specs);
        assert_eq!(codes(&diags), vec!["W004"]);
        assert!(diags[0].message.contains("no route"), "{diags:?}");
    }
}
