//! Spans recorded by the traced run, from the benchmark's own files
//! around the calls into each layer (spans inside the program are a
//! later change). They stay in memory and are written as JSON Lines
//! when the run ends.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One call into one layer. The rungs of one operation share `op`;
/// `parent` is the index of the span that caused this one.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

pub struct Spans {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans pushed from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn push(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            op: self.op,
            layer,
            name,
            start_ns,
            end_ns,
            parent,
        });
        id
    }

    /// Reserves a span whose times [`Spans::close`] fills in, so its
    /// children can name it as their parent while it is still open.
    pub fn open(&mut self, layer: &'static str, name: &'static str, parent: Option<u32>) -> u32 {
        self.push(layer, name, 0, 0, parent)
    }

    pub fn close(&mut self, id: u32, start_ns: u64, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.epoch.elapsed();
        let result = f();
        let end = self.epoch.elapsed();
        let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.push(layer, name, ns(start), ns(end), parent);
        // A span is far shorter than 2^52 ns.
        #[allow(clippy::cast_precision_loss)]
        (result, (end - start).as_nanos() as f64)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let _ = write!(
                line,
                "{{\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.op, s.layer, s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(line, "{p}");
                }
                None => line.push_str("null"),
            }
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn spans_nest_and_serialise() {
        let mut spans = Spans::new();
        spans.set_op(7);
        let parent = spans.open("loadgen", "burst", None);
        let (v, ns) = spans.timed("core.admission", "admit", Some(parent), || 41 + 1);
        assert_eq!(v, 42);
        assert!(ns >= 0.0);
        spans.close(parent, 5, 50);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test-spans");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("end_ns").and_then(Value::as_u64), Some(50));
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(lines[1].get("op").and_then(Value::as_u64), Some(7));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
