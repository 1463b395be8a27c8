//! Seeded inputs. Everything the program under test receives is a pure
//! function of the workload definition and `--seed`: stream
//! populations for the offline phases and request streams for the
//! service phases. The two recipes are copied (not imported) from
//! `crates/bench/src/hpset_load.rs` and `gen_op` in
//! `crates/server/src/bench.rs`, which ROADMAP item 1 folds away, so
//! numbers relate to the old artifacts without depending on them.

use rtwc_core::StreamSpec;
use std::fmt::Write as _;
use wormnet_topology::{Mesh, Topology};

/// `splitmix64`, the workspace's stock deterministic generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `lane` of `seed`: connections,
    /// regions and repeated set-ups each draw from their own lane, so
    /// adding draws to one never shifts another.
    ///
    /// The state is a hash of both. `splitmix64` walks its state by a
    /// fixed stride, so states that merely differ by a multiple of the
    /// stride (`seed ^ lane * stride`, say) give one sequence shifted by
    /// a few draws: regions drawn that way were copies of each other
    /// and a seed's whole population was cheap or dear together.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let hashed = Rng(seed).next();
        Rng(Rng(hashed ^ lane).next())
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One contended region: `n` short-haul streams on a `side` x `side`
/// mesh (1-3 hops in x, 0-2 in y), 16 priority levels, `T` in 60..160,
/// `C` in 1..4, `D = 4T`. At 80 streams on 5x5 the per-node density
/// (3.2) is close to that of the 2000-stream 23x23 set the old HP-set
/// benchmark used (3.8), so most HP sets are non-empty and a good share
/// carry indirect elements.
pub fn contended_region(rng: &mut Rng, side: u32, n: usize) -> (Mesh, Vec<StreamSpec>) {
    let mesh = Mesh::mesh2d(side, side);
    let specs = (0..n)
        .map(|i| {
            // Draws stay below the mesh side, far inside u32.
            #[allow(clippy::cast_possible_truncation)]
            let (dx, dy) = (1 + rng.below(3) as u32, rng.below(3) as u32);
            #[allow(clippy::cast_possible_truncation)]
            let (sx, sy) = (
                rng.below(u64::from(side - dx)) as u32,
                rng.below(u64::from(side - dy)) as u32,
            );
            let node = |x, y| mesh.node_at(&[x, y]).expect("coordinate is on the mesh");
            #[allow(clippy::cast_possible_truncation)]
            let priority = 1 + (i as u32 % 16);
            let period = 60 + rng.below(100);
            let length = 1 + rng.below(4);
            StreamSpec::new(
                node(sx, sy),
                node(sx + dx, sy + dy),
                priority,
                period,
                length,
                4 * period,
            )
        })
        .collect();
    (mesh, specs)
}

/// Shares of the request mix, in percent; `REMOVE` takes the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub query: u64,
    pub admit: u64,
}

/// What the request generator needs to know about a workload.
#[derive(Clone, Copy, Debug)]
pub struct OpShape {
    pub width: u32,
    pub height: u32,
    /// Largest per-axis offset between a stream's endpoints.
    pub locality: u32,
    pub mix: Mix,
    /// Streams one connection holds: its pool stays within a tenth
    /// below this, admit rolls above it become removals.
    pub share: usize,
    /// Prefix every write with a unique `@REQID`.
    pub req_ids: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    Admit,
    Query,
    Remove,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Admit => "admit",
            Verb::Query => "query",
            Verb::Remove => "remove",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated request, structured so the in-process rungs can call
/// a layer directly and the TCP phases can render the wire line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Admit {
        req_id: u64,
        src: (u32, u32),
        dst: (u32, u32),
        priority: u32,
        period: u64,
        length: u64,
    },
    Query(u64),
    Remove {
        req_id: u64,
        id: u64,
    },
}

impl Op {
    pub fn verb(&self) -> Verb {
        match self {
            Op::Admit { .. } => Verb::Admit,
            Op::Query(_) => Verb::Query,
            Op::Remove { .. } => Verb::Remove,
        }
    }

    /// Appends the request line, newline included.
    pub fn write_line(&self, out: &mut String) {
        let prefix = |out: &mut String, req_id: u64| {
            if req_id != 0 {
                let _ = write!(out, "@{req_id} ");
            }
        };
        match *self {
            Op::Admit {
                req_id,
                src,
                dst,
                priority,
                period,
                length,
            } => {
                prefix(out, req_id);
                let _ = writeln!(
                    out,
                    "ADMIT {},{} {},{} {priority} {period} {length}",
                    src.0, src.1, dst.0, dst.1
                );
            }
            Op::Query(id) => {
                let _ = writeln!(out, "QUERY {id}");
            }
            Op::Remove { req_id, id } => {
                prefix(out, req_id);
                let _ = writeln!(out, "REMOVE {id}");
            }
        }
    }

    pub fn line(&self) -> String {
        let mut s = String::new();
        self.write_line(&mut s);
        s.pop();
        s
    }
}

/// The request generator of one connection. It owns the ids its admits
/// were answered with; a `REMOVE` claims its id at generation time, so
/// a pipelined window never removes or queries a stream twice.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    shape: OpShape,
    own: Vec<u64>,
    /// Admits sent and not yet answered. They count towards the pool,
    /// or a backlog of unanswered admits would read as an empty pool
    /// and be answered with more admits.
    pending: usize,
    /// High bits of this connection's request ids.
    req_base: u64,
    issued: u64,
}

impl OpGen {
    pub fn new(seed: u64, conn: u64, shape: OpShape) -> Self {
        OpGen {
            rng: Rng::lane(seed, conn + 1),
            shape,
            own: Vec::new(),
            pending: 0,
            req_base: (conn + 1) << 40,
            issued: 0,
        }
    }

    pub fn owned(&self) -> usize {
        self.own.len()
    }

    /// Reports the id an `ADMIT` was answered with.
    pub fn admitted(&mut self, id: u64) {
        self.pending = self.pending.saturating_sub(1);
        self.own.push(id);
    }

    /// Reports an `ADMIT` that was refused (or failed).
    pub fn refused(&mut self) {
        self.pending = self.pending.saturating_sub(1);
    }

    fn req_id(&mut self) -> u64 {
        if self.shape.req_ids {
            self.issued += 1;
            self.req_base | self.issued
        } else {
            0
        }
    }

    /// A candidate stream: endpoints within `locality` of each other,
    /// priority 1..5, period 40..540, length 2..10, deadline = period.
    pub fn admit(&mut self) -> Op {
        self.pending += 1;
        let (w, h) = (u64::from(self.shape.width), u64::from(self.shape.height));
        let r = u64::from(self.shape.locality);
        let sx = self.rng.below(w);
        let sy = self.rng.below(h);
        let (lo_x, hi_x) = (sx.saturating_sub(r), (sx + r).min(w - 1));
        let (lo_y, hi_y) = (sy.saturating_sub(r), (sy + r).min(h - 1));
        let mut dx = lo_x + self.rng.below(hi_x - lo_x + 1);
        let dy = lo_y + self.rng.below(hi_y - lo_y + 1);
        if (dx, dy) == (sx, sy) {
            // Nudge within the mesh (and within the locality box).
            dx = if dx + 1 < w { dx + 1 } else { dx - 1 };
        }
        let priority = 1 + self.rng.below(5);
        let period = 40 + self.rng.below(500);
        let length = 2 + self.rng.below(8);
        // Coordinates are below the mesh side and the priority below 6.
        #[allow(clippy::cast_possible_truncation)]
        Op::Admit {
            req_id: self.req_id(),
            src: (sx as u32, sy as u32),
            dst: (dx as u32, dy as u32),
            priority: priority as u32,
            period,
            length,
        }
    }

    fn pick(&mut self) -> usize {
        // The pool is non-empty wherever this is called.
        #[allow(clippy::cast_possible_truncation)]
        let i = self.rng.below(self.own.len() as u64) as usize;
        i
    }

    /// The next request of the mix.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let Mix { query, admit } = self.shape.mix;
        let held = self.own.len() + self.pending;
        if self.own.is_empty() {
            return self.admit();
        }
        if roll < query {
            let i = self.pick();
            return Op::Query(self.own[i]);
        }
        let floor = self.shape.share - self.shape.share / 10;
        let wants_admit = roll < query + admit;
        if (wants_admit && held < self.shape.share) || held < floor {
            self.admit()
        } else if self.own.len() > 1 {
            let i = self.pick();
            let id = self.own.swap_remove(i);
            Op::Remove {
                req_id: self.req_id(),
                id,
            }
        } else {
            // The rest of the pool is admits still in flight (a stalled
            // server): nothing to remove until they are answered, and
            // admitting more would grow the pool past its share.
            Op::Query(self.own[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: OpShape = OpShape {
        width: 32,
        height: 32,
        locality: 2,
        mix: Mix {
            query: 40,
            admit: 30,
        },
        share: 50,
        req_ids: true,
    };

    /// Drives a generator against a responder that admits everything
    /// with sequential ids, and returns the bytes it would send.
    fn stream(seed: u64, conn: u64, n: usize) -> String {
        let mut g = OpGen::new(seed, conn, SHAPE);
        let mut out = String::new();
        let mut next_id = 0;
        for _ in 0..n {
            let op = g.next_op();
            op.write_line(&mut out);
            if op.verb() == Verb::Admit {
                g.admitted(next_id);
                next_id += 1;
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        assert_eq!(stream(1998, 0, 5000), stream(1998, 0, 5000));
        assert_ne!(stream(1998, 0, 5000), stream(1999, 0, 5000));
        assert_ne!(stream(1998, 0, 5000), stream(1998, 1, 5000));
    }

    #[test]
    fn pool_stays_at_its_share_and_ids_are_used_once() {
        let mut g = OpGen::new(7, 0, SHAPE);
        let mut live = std::collections::BTreeSet::new();
        let mut reqs = std::collections::BTreeSet::new();
        let mut next_id = 0;
        for i in 0..20_000 {
            match g.next_op() {
                Op::Admit {
                    req_id, src, dst, ..
                } => {
                    assert!(reqs.insert(req_id), "request ids are unique");
                    assert!(src != dst && src.0 < 32 && dst.1 < 32);
                    assert!(src.0.abs_diff(dst.0) <= 2 && src.1.abs_diff(dst.1) <= 2);
                    live.insert(next_id);
                    g.admitted(next_id);
                    next_id += 1;
                }
                Op::Query(id) => assert!(live.contains(&id)),
                Op::Remove { req_id, id } => {
                    assert!(reqs.insert(req_id));
                    assert!(live.remove(&id), "an id is removed once");
                }
            }
            if i > 1000 {
                assert!((44..=50).contains(&g.owned()), "pool at {}", g.owned());
            }
        }
    }

    #[test]
    fn contended_region_is_seeded_and_in_range() {
        let (mesh, a) = contended_region(&mut Rng::lane(3, 1), 5, 80);
        let (_, b) = contended_region(&mut Rng::lane(3, 1), 5, 80);
        let (_, c) = contended_region(&mut Rng::lane(3, 2), 5, 80);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(mesh.num_nodes(), 25);
        for s in &a {
            assert!((60..160).contains(&s.period) && (1..=4).contains(&s.max_length));
            assert_eq!(s.deadline, 4 * s.period);
            assert!((1..=16).contains(&s.priority));
        }
    }
}
