//! The benchmark's own span recorder (the program is not instrumented
//! by this PR; spans are recorded around the calls into each layer).
//!
//! Spans stay in memory and are written out when the run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One span. `parent` is a span id (0 = root); spans of one request
/// share `op`, the op's index in the traced phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(span, self time in ns)` for every span, in recording order.
    pub fn self_times(&self) -> Vec<(&Span, u64)> {
        let mut children: Vec<Vec<&Span>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent as usize].push(s);
        }
        self.spans
            .iter()
            .map(|s| (s, self_time(s, &children[s.id as usize])))
            .collect()
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}{sep}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A span's duration minus the part of its interval covered by the
/// union of its children (children may overlap each other and may stick
/// out of the parent; both are clipped).
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, 100, 200);
        assert_eq!(self_time(&root, &[]), 100);
        // Two disjoint children.
        let (a, b) = (span(2, 1, 110, 120), span(3, 1, 150, 170));
        assert_eq!(self_time(&root, &[&a, &b]), 70);
        // Overlapping children count once.
        let c = span(4, 1, 115, 160);
        assert_eq!(self_time(&root, &[&a, &b, &c]), 40);
        // Children sticking out are clipped to the parent.
        let d = span(5, 1, 50, 130);
        let e = span(6, 1, 190, 400);
        assert_eq!(self_time(&root, &[&d, &e]), 60);
        // A child covering everything leaves nothing.
        let f = span(7, 1, 0, 1_000);
        assert_eq!(self_time(&root, &[&f, &a]), 0);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let mut t = Tracer::with_capacity(4);
        let root = t.record("call", 0, 9, 1_000, 2_000);
        t.record("wire.encode", root, 9, 1_000, 1_100);
        t.record("wire.decode", root, 9, 1_100, 1_350);
        let selfs = t.self_times();
        assert_eq!(selfs[0].1, 650);
        assert_eq!(selfs[1].1, 100);
        assert_eq!(selfs[2].1, 250);
        assert!(selfs.iter().all(|(s, _)| s.op == 9));
    }
}
