//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (ns since the run's epoch), the
//! span that was open when it began, and the id of the query it served.
//! Spans stay in memory until the run ends; [`Tracer::write_jsonl`] then
//! writes them out. A span's self time is its duration minus the time
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Spans nest strictly: `end` closes the
/// innermost open span.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, query: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration (ns).
    pub fn end(&mut self) -> u64 {
        let id = self.open.pop().expect("end without an open span");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ns()
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration (ns).
    pub fn span<R>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> R) -> (R, u64) {
        self.begin(name, query);
        let r = f();
        (r, self.end())
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time (ns) of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Per span name: (count, total ns, total self ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.ns();
            e.2 += own;
        }
        out
    }

    /// One JSON object per span, in recording order; `id` is the index.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"query\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.begin("query", 1);
        t.span("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("child", 1, || ());
        t.end();
        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].ns() - spans[1].ns() - spans[2].ns());
        let mut other = Tracer::new(Instant::now());
        other.begin("query", 2);
        other.span("child", 2, || ());
        other.end();
        t.absorb(other);
        assert_eq!(t.spans[4].parent, Some(3));
        assert_eq!(t.summary()["child"].0, 3);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 5);
    }
}
