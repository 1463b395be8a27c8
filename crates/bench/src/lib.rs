//! # rtwc-bench
//!
//! The experiment harness of the ICPP'98 reproduction: every table and
//! headline claim of the paper's evaluation has a binary here that
//! regenerates it (see DESIGN.md §4 for the experiment index), plus
//! Criterion micro-benchmarks of the analyzer and the simulator.
//!
//! Binaries (run with `cargo run --release -p rtwc-bench --bin <name>`):
//!
//! * `table1` .. `table5` — the paper's Tables 1-5 (actual/U ratio per
//!   priority level for each |M| x priority-level combination).
//! * `sweep_plevels` — the §5 claim that at least |M|/4 priority levels
//!   are needed for the top class's ratio to pass 0.9.
//! * `ablation_indirect` — how much `Modify_Diagram` (indirect-blocking
//!   removal) tightens the bound.
//! * `baseline_arbiters` — preemptive vs Li vs classic wormhole
//!   switching on the same workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram_load;
pub mod harness;
pub mod hpset_load;
pub mod table;

pub use diagram_load::{benchmark_region, contended_line_set};
pub use harness::{
    aggregate, measure_workload, run_experiment, ExperimentConfig, PriorityRow, StreamMeasurement,
};
pub use hpset_load::{contended_mesh, contended_mesh_set, contended_mesh_specs};
pub use table::{render_table, summary_line};
