//! `S2xx` — simulator-configuration rules.
//!
//! These check a [`SimConfig`] against the resolved stream set it is
//! about to simulate: enough virtual channels for the chosen policy,
//! deadlock-free channel dependencies, buffers deep enough for the
//! latency model the bounds assume, and a warm-up that leaves
//! statistics behind.

use crate::diag::{Diagnostic, Span};
use rtwc_core::{per_priority_cycle, StreamSet};
use wormnet_sim::{Policy, SimConfig};

/// Runs every `S2xx` rule. `layers` optionally gives each stream's
/// per-hop dateline layers (tori); pass `None` for meshes.
pub fn lint_sim_config(
    set: &StreamSet,
    cfg: &SimConfig,
    layers: Option<&[Vec<u8>]>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // S200: the paper's scheme maps each priority class to its own VC;
    // with fewer VCs than the highest class the mapping is impossible.
    let levels = set.iter().map(|s| s.priority()).max().unwrap_or(0) as usize;
    if cfg.policy == Policy::PreemptivePriority && cfg.num_vcs < levels {
        diags.push(
            Diagnostic::new(
                "S200",
                Span::Config,
                format!(
                    "policy PreemptivePriority needs one VC per priority class: set uses priorities up to {levels} but only {} VC(s) are configured",
                    cfg.num_vcs
                ),
            )
            .with_suggestion(format!("use SimConfig::paper({levels})")),
        );
    }

    // S203: classic wormhole switching is *defined* as single-VC.
    if cfg.policy == Policy::ClassicFifo && cfg.num_vcs != 1 {
        diags.push(
            Diagnostic::new(
                "S203",
                Span::Config,
                format!(
                    "policy ClassicFifo models single-VC wormhole switching but {} VCs are configured",
                    cfg.num_vcs
                ),
            )
            .with_suggestion("use SimConfig::classic()"),
        );
    }

    // S201: a cycle in the VC dependency graph can deadlock the network;
    // the delay bounds assume blocking is the only hazard.
    if let Some(cycle) = per_priority_cycle(set, layers) {
        let witness: Vec<String> = cycle
            .iter()
            .take(6)
            .map(|r| format!("L{}/p{}/l{}", r.link.0, r.class, r.layer))
            .collect();
        let more = cycle.len().saturating_sub(6);
        let tail = if more > 0 {
            format!(" -> ... ({more} more)")
        } else {
            String::new()
        };
        diags.push(
            Diagnostic::new(
                "S201",
                Span::Link(cycle.first().map_or(0, |r| r.link.0)),
                format!(
                    "the routed set's VC dependency graph has a cycle: {}{tail}",
                    witness.join(" -> ")
                ),
            )
            .with_suggestion(
                "use a deadlock-free deterministic routing (X-Y / e-cube) or add dateline layers",
            ),
        );
    }

    // S202: warm-up at or past the end of the run discards every sample.
    if cfg.warmup >= cfg.cycles {
        diags.push(
            Diagnostic::new(
                "S202",
                Span::Config,
                format!(
                    "warm-up ({} cycles) consumes the whole simulation ({} cycles); no statistics will survive",
                    cfg.warmup, cfg.cycles
                ),
            )
            .with_suggestion("simulate longer or shorten the warm-up"),
        );
    }

    // S204: with one flit of buffer a VC alternates between receiving
    // a flit and passing it on (credit turnaround), so a worm advances
    // every other cycle and even an unblocked message takes about
    // twice `L`; every `U` is built from `L`. results/sensitivity.txt:
    // actual/U = 21.1 at depth 1 where depth 2 gives 0.46.
    if cfg.policy == Policy::PreemptivePriority && cfg.buffer_depth < 2 {
        diags.push(
            Diagnostic::new(
                "S204",
                Span::Config,
                format!(
                    "buffer depth {} cannot sustain one flit per cycle: the network latency L = hops + C - 1 behind every delay bound does not hold",
                    cfg.buffer_depth
                ),
            )
            .with_suggestion("use a buffer depth of at least 2 flits per virtual channel"),
        );
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtwc_core::StreamSpec;
    use wormnet_topology::{Mesh, NodeId, Path, Topology, XyRouting};

    fn xy_set() -> StreamSet {
        let m = Mesh::mesh2d(4, 4);
        let n = |x, y| m.node_at(&[x, y]).unwrap();
        let specs = [
            StreamSpec::new(n(0, 0), n(3, 1), 2, 30, 3, 30),
            StreamSpec::new(n(3, 3), n(0, 2), 1, 30, 3, 30),
        ];
        StreamSet::resolve(&m, &XyRouting, &specs).unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn paper_config_is_clean() {
        let set = xy_set();
        let cfg = SimConfig::paper(2).with_cycles(10_000, 1_000);
        assert!(lint_sim_config(&set, &cfg, None).is_empty());
    }

    #[test]
    fn vc_undersupply_and_warmup_fire() {
        let set = xy_set();
        let cfg = SimConfig::paper(1).with_cycles(500, 500);
        let diags = lint_sim_config(&set, &cfg, None);
        assert_eq!(codes(&diags), vec!["S200", "S202"], "{diags:?}");
    }

    #[test]
    fn single_flit_buffers_void_the_latency_model() {
        let set = xy_set();
        let cfg = SimConfig::paper(2).with_cycles(10_000, 1_000);
        let diags = lint_sim_config(&set, &cfg.clone().with_buffer_depth(1), None);
        assert_eq!(codes(&diags), vec!["S204"], "{diags:?}");
        assert!(lint_sim_config(&set, &cfg.with_buffer_depth(2), None).is_empty());
        // The reference policies promise no bound; any depth goes.
        let li = SimConfig::li(2).with_cycles(10_000, 0).with_buffer_depth(1);
        assert!(lint_sim_config(&set, &li, None).is_empty());
    }

    #[test]
    fn classic_with_extra_vcs_is_rejected() {
        let set = xy_set();
        let mut cfg = SimConfig::classic().with_cycles(10_000, 0);
        cfg.num_vcs = 3;
        let diags = lint_sim_config(&set, &cfg, None);
        assert_eq!(codes(&diags), vec!["S203"], "{diags:?}");
    }

    #[test]
    fn turn_cycle_is_deadlock_prone() {
        // Four equal-priority streams each turning a corner of a 2x2
        // block: the classic wormhole deadlock (cf. core::deadlock).
        let m = Mesh::mesh2d(3, 3);
        let n = |x: u32, y: u32| m.node_at(&[x, y]).unwrap();
        let path = |pts: &[(u32, u32)]| {
            let nodes: Vec<NodeId> = pts.iter().map(|&(x, y)| n(x, y)).collect();
            let links = nodes
                .windows(2)
                .map(|w| m.link_between(w[0], w[1]).unwrap())
                .collect();
            Path::new(nodes, links)
        };
        let mk = |pts: &[(u32, u32)]| {
            let path = path(pts);
            (
                StreamSpec::new(path.source(), path.dest(), 1, 100, 8, 100),
                path,
            )
        };
        let set = StreamSet::from_parts(vec![
            mk(&[(0, 0), (1, 0), (1, 1)]),
            mk(&[(1, 0), (1, 1), (0, 1)]),
            mk(&[(1, 1), (0, 1), (0, 0)]),
            mk(&[(0, 1), (0, 0), (1, 0)]),
        ])
        .unwrap();
        let cfg = SimConfig::paper(1).with_cycles(10_000, 100);
        let diags = lint_sim_config(&set, &cfg, None);
        assert_eq!(codes(&diags), vec!["S201"], "{diags:?}");
        assert!(diags[0].message.contains("cycle"), "{diags:?}");
        assert!(matches!(diags[0].span, Span::Link(_)));
    }
}
