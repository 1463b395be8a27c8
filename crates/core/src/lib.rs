//! # rtwc-core
//!
//! The primary contribution of *"A Real-Time Communication Method for
//! Wormhole Switching Networks"* (Kim, Kim, Hong, Lee — ICPP 1998):
//! **message-stream feasibility testing** for wormhole-switched
//! multicomputers that use flit-level preemptive, priority-based virtual
//! channels.
//!
//! Given a set of periodic real-time message streams
//! `M_i = (S_id, R_id, P_i, T_i, C_i, D_i, L_i)` routed deterministically
//! over a direct network, this crate computes a **transmission delay
//! upper bound `U_i`** for every stream, and declares the set feasible
//! iff `U_i <= D_i` for all streams. The pipeline is exactly the
//! paper's:
//!
//! 1. [`hpset::generate_hp`] — which higher-priority streams can block
//!    each stream, **directly** (shared directed channel) or
//!    **indirectly** (through a blocking chain of intermediate streams);
//! 2. [`bdg::BlockingDependencyGraph`] — the dependency structure that
//!    orders indirect-blocking analysis;
//! 3. [`diagram::TimingDiagram`] — the worst-case schedule of
//!    higher-priority instances (`Generate_Init_Diagram`);
//! 4. [`modify::modify_diagram`] — removal of indirect instances whose
//!    blocking chains are broken (`Modify_Diagram`);
//! 5. [`calu::cal_u`] — accumulate free slots until the stream's network
//!    latency is covered: that time is `U_i`;
//! 6. [`feasibility::determine_feasibility`] — the overall verdict.
//!
//! The implementation reproduces the paper's worked example exactly
//! (`U = (7, 8, 26, 20, 33)` for the five-stream set of §4.4) and its
//! Figure 4/Figure 6 calculations (`U = 26` direct, `U = 22` after
//! indirect removal); these are enforced by this workspace's test suite.
//!
//! ## Quick start
//!
//! ```
//! use rtwc_core::prelude::*;
//! use wormnet_topology::{Mesh, Topology, XyRouting};
//!
//! let mesh = Mesh::mesh2d(10, 10);
//! let node = |x, y| mesh.node_at(&[x, y]).unwrap();
//! let specs = vec![
//!     // source, dest, priority (larger = more urgent), T, C, D
//!     StreamSpec::new(node(7, 3), node(7, 7), 5, 150, 4, 150),
//!     StreamSpec::new(node(1, 1), node(5, 4), 4, 100, 2, 100),
//! ];
//! let set = StreamSet::resolve(&mesh, &XyRouting, &specs).unwrap();
//! let report = determine_feasibility(&set);
//! assert!(report.is_feasible());
//! assert_eq!(report.bound(StreamId(0)), DelayBound::Bounded(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bdg;
pub mod bounds;
pub mod calu;
pub mod deadlock;
pub mod diagram;
pub mod error;
pub mod explain;
pub mod feasibility;
pub mod hpset;
pub mod interference;
pub mod latency;
pub mod load;
pub mod modify;
pub mod report;
pub mod shard;
pub mod stream;

pub use admission::{AdmissionController, AdmissionError};
pub use bdg::BlockingDependencyGraph;
pub use bounds::{busy_window_bound, direct_only_bound};
pub use calu::{cal_u, cal_u_detailed, cal_u_with_hp, CalUAnalysis, DelayBound};
pub use deadlock::{is_deadlock_free, per_priority_cycle, single_vc_cycle, VcResource};
pub use diagram::{
    AnalysisScratch, DiagramKernel, Instance, RemovedInstances, Slot, TimingDiagram,
};
pub use error::AnalysisError;
pub use explain::{explain, render_explanation, BoundExplanation, Contribution};
pub use feasibility::{
    analyze_all, delay_bounds, determine_feasibility, determine_feasibility_indexed,
    determine_feasibility_parallel, FeasibilityReport,
};
pub use hpset::{
    generate_hp, generate_hp_oracle, generate_hp_sets, generate_hp_sets_oracle, BlockingMode,
    HpElement, HpSet,
};
pub use interference::InterferenceIndex;
pub use latency::network_latency;
pub use load::{channel_loads, hottest_channel, oversubscribed_channels};
pub use modify::{
    modify_diagram, modify_diagram_with, modify_diagram_with_kernel, RemovalStrategy,
};
pub use report::{render_analysis, render_diagram};
pub use shard::{RegionShard, ShardId, ShardMap, ShardedAdmit, ShardedController};
pub use stream::{MessageStream, Priority, StreamId, StreamSet, StreamSpec};

/// Common imports for users of the analysis.
pub mod prelude {
    pub use crate::calu::{cal_u, cal_u_detailed, DelayBound};
    pub use crate::feasibility::{determine_feasibility, FeasibilityReport};
    pub use crate::hpset::{generate_hp, BlockingMode, HpSet};
    pub use crate::stream::{MessageStream, Priority, StreamId, StreamSet, StreamSpec};
}
