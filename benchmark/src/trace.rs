//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! layer crates; nothing inside the program is instrumented. Every span
//! carries the id of the operation it belongs to (one compress, one
//! region query, ...) and the id of its parent span (the chunk it works
//! on), so a layer's self time is its duration minus its children's.
//! A disabled tracer reads no clock and stores nothing: it is the
//! untraced twin the overhead figure is measured against.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes the call consumed or produced (see the call site).
    pub bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The kind of operation a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Compress,
    Decompress,
    Region,
    Preview,
}

impl OpKind {
    fn label(self) -> &'static str {
        match self {
            OpKind::Compress => "compress",
            OpKind::Decompress => "decompress",
            OpKind::Region => "region",
            OpKind::Preview => "preview",
        }
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub ops: Vec<OpKind>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; its spans share the returned id.
    pub fn op(&mut self, kind: OpKind) -> u32 {
        self.ops.push(kind);
        self.ops.len() as u32 - 1
    }

    /// Opens a span that stays open across several calls (a chunk).
    pub fn open(&mut self, op: u32, parent: Option<u32>, name: &'static str, bytes: u64) -> u32 {
        let id = self.spans.len() as u32;
        if self.enabled {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns: start_ns,
                bytes,
            });
        }
        id
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Records `f` as one span.
    pub fn span<R>(
        &mut self,
        op: u32,
        parent: Option<u32>,
        name: &'static str,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(op, parent, name, bytes);
        let r = f();
        self.close(id);
        r
    }

    /// Leaf spans: every span no other span names as its parent.
    pub fn leaves(&self) -> impl Iterator<Item = &Span> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p as usize] = true;
            }
        }
        self.spans.iter().filter(move |s| !has_child[s.id as usize])
    }

    /// Summed duration and bytes of the spans called `name`, restricted
    /// to operations of `kinds` (all kinds when empty).
    pub fn total(&self, name: &str, kinds: &[OpKind]) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| kinds.is_empty() || kinds.contains(&self.ops[s.op as usize]))
            .fold((0.0, 0), |(t, b), s| (t + s.secs(), b + s.bytes))
    }

    /// The spans as JSON lines (one object per span), for writing out
    /// when the run ends.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"op_kind\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                s.id,
                parent,
                s.op,
                self.ops[s.op as usize].label(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.bytes
            );
        }
        out
    }
}
