//! The library target: the request mix applied to
//! `rtwc_core::AdmissionController` in this process, the way the
//! paper's host processor would run it, with the verifier's candidate
//! lint in front exactly as the service has it. No server code runs.
//!
//! The same responder generates the operation list the traced run
//! replays rung by rung: every layer above the controller must answer
//! each request the way this one did.

use crate::gen::{Op, OpGen, OpShape, Verb};
use crate::loadgen::{PhaseLog, Reply, Sample};
use rtwc_core::{cal_u_with_hp, AdmissionController, StreamId, StreamSpec};
use rtwc_verifier::{lint_candidate_routed, Diagnostic};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wormnet_topology::{Mesh, Path, Routing, Topology, XyRouting};

/// An admission controller behind stable handles: the controller's
/// dense ids shift down on removal, so `live[dense id]` is the handle,
/// ascending because handles are assigned in order.
pub struct Library {
    pub mesh: Mesh,
    pub ctl: AdmissionController,
    live: Vec<u64>,
    next_handle: u64,
}

/// The candidate stream and route of an `ADMIT`, or `None` when an
/// endpoint is off the mesh or unroutable (which the generator never
/// produces).
pub fn candidate(mesh: &Mesh, op: &Op) -> Option<(StreamSpec, Path)> {
    let Op::Admit {
        src,
        dst,
        priority,
        period,
        length,
        ..
    } = *op
    else {
        return None;
    };
    let source = mesh.node_at(&[src.0, src.1])?;
    let dest = mesh.node_at(&[dst.0, dst.1])?;
    let path = XyRouting.route(mesh, source, dest).ok()?;
    Some((
        StreamSpec::new(source, dest, priority, period, length, period),
        path,
    ))
}

impl Library {
    pub fn new(mesh: Mesh) -> Library {
        Library {
            mesh,
            ctl: AdmissionController::new(),
            live: Vec::new(),
            next_handle: 0,
        }
    }

    /// The dense id a handle stands for now.
    pub fn dense(&self, handle: u64) -> Option<StreamId> {
        let i = self.live.binary_search(&handle).ok()?;
        Some(StreamId(u32::try_from(i).ok()?))
    }

    /// Records an accepted admission and returns its handle.
    pub fn bind(&mut self) -> u64 {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.live.push(handle);
        handle
    }

    /// Forgets a removed stream's handle.
    pub fn unbind(&mut self, id: StreamId) {
        self.live.remove(id.index());
    }

    /// True when the verifier's candidate rules refuse the stream
    /// before the controller sees it, as `rtwc serve` does.
    pub fn lint_blocks(&self, spec: &StreamSpec) -> bool {
        lint_candidate_routed(&self.mesh, &XyRouting, self.ctl.parts(), spec)
            .iter()
            .any(Diagnostic::is_error)
    }

    /// Serves one request.
    pub fn apply(&mut self, op: &Op) -> Reply {
        match *op {
            Op::Admit { .. } => {
                let Some((spec, path)) = candidate(&self.mesh, op) else {
                    return Reply::Failed;
                };
                if self.lint_blocks(&spec) || self.ctl.admit(spec, path).is_err() {
                    return Reply::Rejected;
                }
                Reply::Admitted(self.bind())
            }
            // The library has no response cache to read: a query is
            // `Cal_U` again (HP set from the controller's interference
            // index, diagram, `Modify_Diagram`, free-slot count), which
            // must reproduce the bound the controller holds.
            Op::Query(handle) => match (self.dense(handle), self.ctl.set()) {
                (Some(id), Some(set)) => {
                    let hp = self.ctl.index().hp_set(set, id);
                    let fresh = cal_u_with_hp(set, hp, set.get(id).deadline()).bound;
                    if fresh == self.ctl.bound(id) {
                        Reply::Ok
                    } else {
                        Reply::Failed
                    }
                }
                _ => Reply::Failed,
            },
            Op::Remove { id: handle, .. } => match self.dense(handle) {
                Some(id) => {
                    self.ctl.remove(id);
                    self.unbind(id);
                    Reply::Removed
                }
                None => Reply::Failed,
            },
        }
    }

    /// Admits until the generator owns its share and returns every
    /// request with its answer. Not timed.
    pub fn seed(&mut self, gen: &mut OpGen, share: usize) -> Vec<(Op, Reply)> {
        let mut ops = Vec::new();
        let mut budget = share * 10;
        while gen.owned() < share && budget > 0 {
            let op = gen.admit();
            let reply = self.apply(&op);
            match reply {
                Reply::Admitted(handle) => gen.admitted(handle),
                _ => gen.refused(),
            }
            ops.push((op, reply));
            budget -= 1;
        }
        ops
    }
}

/// One stretch of the library target's request phase: one caller, every
/// request timed around the call, for `budget`. Samples are stamped
/// from `from_ns`, so that several stretches read as one phase.
pub fn ops_phase(
    lib: &mut Library,
    gen: &mut OpGen,
    from_ns: u64,
    budget: Duration,
    log: &mut PhaseLog,
) {
    let epoch = Instant::now();
    let ns = |t: Instant| from_ns + u64::try_from((t - epoch).as_nanos()).unwrap_or(u64::MAX);
    while epoch.elapsed() < budget {
        let op = gen.next_op();
        let start = Instant::now();
        let reply = lib.apply(black_box(&op));
        let end = Instant::now();
        log.attempted += 1;
        log.count(op.verb(), reply, gen);
        log.samples.push(Sample {
            verb: op.verb(),
            at_ns: ns(start),
            latency_ns: ns(end) - ns(start),
            late_ns: 0,
        });
    }
}

/// The list of operations the traced run replays: seeding, then `n`
/// requests of connection 0's mix, each with the answer the library
/// responder gave it.
pub struct Replay {
    pub mesh: Mesh,
    pub seed: Vec<Op>,
    pub ops: Vec<Op>,
    /// The reference answer to each of `seed` then `ops`.
    pub expected: Vec<Reply>,
}

impl Replay {
    /// Seeds `connections` pools one after the other, as the set-up of
    /// a service run does, then draws `n` requests from connection 0.
    pub fn generate(mesh: Mesh, seed: u64, shape: OpShape, connections: u64, n: usize) -> Replay {
        let mut lib = Library::new(mesh.clone());
        let mut gens: Vec<OpGen> = (0..connections)
            .map(|c| OpGen::new(seed, c, shape))
            .collect();
        let (seed, mut expected): (Vec<Op>, Vec<Reply>) = gens
            .iter_mut()
            .flat_map(|g| lib.seed(g, shape.share))
            .unzip();
        let gen = &mut gens[0];
        let ops: Vec<Op> = (0..n)
            .map(|_| {
                let op = gen.next_op();
                let reply = lib.apply(&op);
                match (op.verb(), reply) {
                    (_, Reply::Admitted(handle)) => gen.admitted(handle),
                    (Verb::Admit, _) => gen.refused(),
                    _ => {}
                }
                expected.push(reply);
                op
            })
            .collect();
        Replay {
            mesh,
            seed,
            ops,
            expected,
        }
    }

    pub fn all(&self) -> impl Iterator<Item = (&Op, Reply)> {
        self.seed
            .iter()
            .chain(&self.ops)
            .zip(self.expected.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Mix;

    const SHAPE: OpShape = OpShape {
        width: 12,
        height: 12,
        locality: 3,
        mix: Mix {
            query: 40,
            admit: 30,
        },
        share: 40,
        req_ids: false,
    };

    #[test]
    fn replay_is_seeded_and_self_consistent() {
        let make = |seed| Replay::generate(Mesh::mesh2d(12, 12), seed, SHAPE, 2, 2000);
        let (a, b, c) = (make(5), make(5), make(6));
        assert_eq!(
            (&a.seed, &a.ops, &a.expected),
            (&b.seed, &b.ops, &b.expected)
        );
        assert_ne!(a.ops, c.ops);
        assert_eq!(a.expected.len(), a.seed.len() + a.ops.len());
        assert!(a.expected.iter().all(|r| *r != Reply::Failed));
        // Replaying the list on a fresh responder gives the same answers.
        let mut lib = Library::new(Mesh::mesh2d(12, 12));
        for (op, want) in a.all() {
            assert_eq!(lib.apply(op), want);
        }
        assert_eq!(lib.ctl.len(), lib.live.len());
        let count = |verb| a.ops.iter().filter(|op| op.verb() == verb).count();
        assert!(count(Verb::Admit) > 300 && count(Verb::Remove) > 300);
    }
}
