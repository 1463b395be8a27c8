//! # wormnet-sim
//!
//! A deterministic, cycle-driven, flit-level wormhole network simulator
//! — the evaluation substrate of the ICPP'98 reproduction.
//!
//! The paper validates its delay upper bounds by simulating a 10x10
//! 2-D mesh with X-Y routing under **flit-level preemptive wormhole
//! switching**: every physical channel carries one virtual channel per
//! priority level, a message may only use the VC of its own priority,
//! and channel bandwidth always goes to the highest-priority VC with a
//! flit ready. This crate implements that router model plus the two
//! reference disciplines the paper positions itself against:
//!
//! * [`Policy::PreemptivePriority`] — the paper's scheme (§3);
//! * [`Policy::LiPriorityVc`] — Li & Mutka's priority-favoring VC
//!   allocation with fair bandwidth;
//! * [`Policy::ClassicFifo`] — classic single-VC wormhole switching, in
//!   which priority inversion (paper Fig. 2) arises naturally.
//!
//! Messages, routes, and priorities come from `rtwc-core`'s
//! [`StreamSet`](rtwc_core::StreamSet), so the simulated network and the
//! analytical bound agree exactly on channel usage — which is what makes
//! the paper's `actual / U` ratio tables meaningful.
//!
//! ## Example
//!
//! ```
//! use rtwc_core::{StreamSet, StreamSpec, StreamId};
//! use wormnet_sim::{SimConfig, Simulator};
//! use wormnet_topology::{Mesh, Topology, XyRouting};
//!
//! let mesh = Mesh::mesh2d(10, 10);
//! let node = |x, y| mesh.node_at(&[x, y]).unwrap();
//! let set = StreamSet::resolve(
//!     &mesh,
//!     &XyRouting,
//!     &[StreamSpec::new(node(1, 1), node(5, 4), 1, 500, 4, 500)],
//! )
//! .unwrap();
//! let mut sim = Simulator::new(
//!     mesh.num_links(),
//!     &set,
//!     SimConfig::paper(1).with_cycles(400, 0),
//! )
//! .unwrap();
//! sim.run();
//! // Alone in the network, the stream sees exactly its network latency.
//! assert_eq!(
//!     sim.stats().latencies(StreamId(0), 0),
//!     vec![set.get(StreamId(0)).latency]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod arbiter;
pub mod config;
pub mod engine;
pub mod stats;
pub mod trace;
pub mod traffic;
pub mod worm;

pub use analysis::{check_trace_invariants, PacketTimeline, TraceViolation};
pub use arbiter::{Policy, VcRequest};
pub use config::SimConfig;
pub use engine::Simulator;
pub use stats::{MessageRecord, SimStats};
pub use trace::Event;
pub use traffic::Source;
pub use worm::{Hop, PacketId, Worm};
