//! The rule registry: every lint rule's stable code, name, fixed
//! severity, and one-line summary.
//!
//! Codes are grouped by the layer they check:
//!
//! - `W0xx` — workload/spec rules (the `.streams` file itself);
//! - `A1xx` — analysis-artifact rules (HP sets, BDG, timing diagrams);
//! - `S2xx` — simulator-configuration rules.
//!
//! Codes are part of the tool's output contract: once shipped, a code
//! keeps its meaning forever (retired rules leave a hole rather than
//! being reused).

use crate::diag::Severity;

/// Registry entry for one lint rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable code, e.g. `"W005"`.
    pub code: &'static str,
    /// Short kebab-case name, e.g. `"length-exceeds-period"`.
    pub name: &'static str,
    /// Fixed severity of every finding from this rule.
    pub severity: Severity,
    /// One-line summary of what the rule checks.
    pub summary: &'static str,
}

/// All registered rules, ordered by code.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "W001",
        name: "duplicate-stream",
        severity: Severity::Warning,
        summary: "two streams are byte-for-byte identical (same endpoints and parameters)",
    },
    RuleInfo {
        code: "W002",
        name: "zero-parameter",
        severity: Severity::Error,
        summary: "a stream declares a zero priority, period, length, or deadline",
    },
    RuleInfo {
        code: "W003",
        name: "self-delivery",
        severity: Severity::Error,
        summary: "a stream's source equals its destination",
    },
    RuleInfo {
        code: "W004",
        name: "unroutable",
        severity: Severity::Error,
        summary: "the deterministic routing cannot produce a path between the endpoints",
    },
    RuleInfo {
        code: "W005",
        name: "length-exceeds-period",
        severity: Severity::Error,
        summary: "C > T: the stream oversubscribes its own channel",
    },
    RuleInfo {
        code: "W006",
        name: "deadline-exceeds-period",
        severity: Severity::Error,
        summary: "D > T: breaks the paper's single-outstanding-instance model",
    },
    RuleInfo {
        code: "W007",
        name: "deadline-below-latency",
        severity: Severity::Error,
        summary: "D < L: the deadline is shorter than the unloaded network latency",
    },
    RuleInfo {
        code: "W008",
        name: "priority-collision",
        severity: Severity::Warning,
        summary: "equal-priority streams share a directed channel and mutually block",
    },
    RuleInfo {
        code: "A100",
        name: "hp-set-not-closed",
        severity: Severity::Error,
        summary: "an HP set is not closed under the directly-affects relation",
    },
    RuleInfo {
        code: "A101",
        name: "blocking-mode-misclassified",
        severity: Severity::Error,
        summary: "an HP element's Direct/Indirect mode contradicts the channel-sharing relation",
    },
    RuleInfo {
        code: "A102",
        name: "indirect-without-chain",
        severity: Severity::Error,
        summary: "an Indirect HP element has no blocking chain reaching the target",
    },
    RuleInfo {
        code: "A103",
        name: "bdg-cycle",
        severity: Severity::Warning,
        summary: "the blocking dependency graph contains a cycle (mutual blocking)",
    },
    RuleInfo {
        code: "A104",
        name: "diagram-invariant-violation",
        severity: Severity::Error,
        summary: "a timing diagram violates a structural invariant (masks, windows, slot counts)",
    },
    RuleInfo {
        code: "A105",
        name: "kernel-divergence",
        severity: Severity::Error,
        summary: "the bitset and legacy diagram kernels disagree on instances or sampled cells",
    },
    RuleInfo {
        code: "A107",
        name: "recovery-divergence",
        severity: Severity::Error,
        summary: "a recovered cached bound diverges from a fresh offline analysis",
    },
    RuleInfo {
        code: "A108",
        name: "recovered-deadline-violation",
        severity: Severity::Error,
        summary: "a recovered stream's cached bound misses its deadline (or is unbounded)",
    },
    RuleInfo {
        code: "A109",
        name: "recovery-report-mismatch",
        severity: Severity::Error,
        summary: "a recovery report's accounting contradicts its snapshot and WAL inputs",
    },
    RuleInfo {
        code: "A110",
        name: "divergent-suffix",
        severity: Severity::Error,
        summary: "a fenced leader's WAL holds acknowledged operations absent from the winning epoch's history",
    },
    RuleInfo {
        code: "S200",
        name: "vc-undersupply",
        severity: Severity::Error,
        summary: "the paper's policy needs one VC per priority level but fewer are configured",
    },
    RuleInfo {
        code: "S201",
        name: "deadlock-prone-routing",
        severity: Severity::Error,
        summary: "the VC dependency graph has a cycle: the routed set can deadlock",
    },
    RuleInfo {
        code: "S202",
        name: "warmup-exceeds-cycles",
        severity: Severity::Warning,
        summary: "warm-up consumes the whole simulation; no statistics will survive",
    },
    RuleInfo {
        code: "S203",
        name: "classic-multi-vc",
        severity: Severity::Error,
        summary: "classic single-VC wormhole switching configured with more than one VC",
    },
    RuleInfo {
        code: "S204",
        name: "buffer-too-shallow",
        severity: Severity::Error,
        summary: "VC buffers under 2 flits halve the pipeline rate, voiding L = hops + C - 1 and every bound built on it",
    },
];

/// Looks a rule up by code.
pub fn rule(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        // Ascending within the W/A/S groups, unique overall.
        for pair in RULES.windows(2) {
            if pair[0].code[..1] == pair[1].code[..1] {
                assert!(
                    pair[0].code < pair[1].code,
                    "{} vs {}",
                    pair[0].code,
                    pair[1].code
                );
            }
        }
        for (i, r) in RULES.iter().enumerate() {
            assert!(
                RULES[i + 1..].iter().all(|o| o.code != r.code),
                "duplicate {}",
                r.code
            );
        }
        for r in RULES {
            assert_eq!(r.code.len(), 4, "{}", r.code);
            assert!(
                matches!(&r.code[..1], "W" | "A" | "S"),
                "bad prefix {}",
                r.code
            );
            assert!(!r.name.is_empty() && !r.summary.is_empty());
        }
    }

    #[test]
    fn lookup_finds_registered_codes() {
        assert_eq!(rule("A105").unwrap().name, "kernel-divergence");
        assert!(rule("A999").is_none());
    }
}
