//! Span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the program are ROADMAP item 4). They
//! are held in memory and written out as JSON lines when the run ends.
//! Every span names its parent; spans of one request share the
//! `(client, seq)` identifier.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its recorder, offset by one so 0 means "no parent".
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id (its 1-based position in the recorder).
    pub id: SpanId,
    /// The span that caused it, 0 for a root.
    pub parent: SpanId,
    /// Client connection the request belongs to.
    pub client: u32,
    /// Sequence number of the request on that client.
    pub seq: u64,
    /// `layer.call` name.
    pub name: &'static str,
    /// Microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Microseconds since the recorder's epoch.
    pub end_us: u64,
}

impl Span {
    /// The span's length in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// An in-memory span log with a common time origin.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `t`.
    pub fn offset_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a span with explicit bounds and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        (client, seq): (u32, u64),
        start_us: u64,
        end_us: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            client,
            seq,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: (u32, u64)) -> SpanId {
        let now = self.offset_us(Instant::now());
        self.push(name, parent, request, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.offset_us(Instant::now());
        self.spans[id as usize - 1].end_us = now;
    }

    /// Runs `f` inside a child span of `parent` (inheriting its request
    /// id) and returns its result with the elapsed time.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let request = match parent {
            0 => (0, 0),
            p => {
                let s = &self.spans[p as usize - 1];
                (s.client, s.seq)
            }
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.offset_us(start), self.offset_us(end));
        self.push(name, parent, request, s, e);
        (out, end - start)
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, aligned with `spans`: the span's duration
/// minus the part of its interval that its child spans cover
/// (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_us.max(p.start_us), s.end_us.min(p.end_us));
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_us;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Per span name, in first-seen order: how many spans, their median
/// duration and their median self time, both in microseconds.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let own = self_times(spans);
    let mut rows: Vec<(&'static str, Vec<u64>, Vec<u64>)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        let at = match rows.iter().position(|r| r.0 == s.name) {
            Some(at) => at,
            None => {
                rows.push((s.name, Vec::new(), Vec::new()));
                rows.len() - 1
            }
        };
        rows[at].1.push(s.duration_us());
        rows[at].2.push(own);
    }
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[(v.len() - 1) / 2]
    };
    rows.into_iter()
        .map(|(name, mut d, mut own)| (name, d.len(), median(&mut d), median(&mut own)))
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"client\":{},\"seq\":{},\"name\":\"{}\",\
             \"start_us\":{},\"end_us\":{}}}",
            s.id, s.parent, s.client, s.seq, s.name, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut r = Recorder::new(Instant::now());
        let root = r.push("workload", 0, (0, 0), 0, 100);
        let req = r.push("request", root, (1, 7), 10, 60);
        // Two overlapping children (20..40, 30..50) cover 30 of the
        // request's 50 microseconds.
        r.push("a", req, (1, 7), 20, 40);
        r.push("b", req, (1, 7), 30, 50);
        // A child that sticks out of its parent is clipped to it.
        r.push("late", root, (2, 1), 90, 130);
        let st = self_times(r.spans());
        assert_eq!(st[req as usize - 1], 20);
        assert_eq!(st[root as usize - 1], 100 - 50 - 10);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 20);
        let rows = summary(r.spans());
        assert_eq!(rows[0], ("workload", 1, 100, 40));
        assert_eq!(rows[1], ("request", 1, 50, 20));
    }

    #[test]
    fn timed_children_inherit_the_request_id_and_nest() {
        let mut r = Recorder::new(Instant::now());
        let req = r.open("request", 0, (3, 42));
        let ((), _) = r.time("layer.call", req, || {
            std::hint::black_box(0);
        });
        r.close(req);
        let spans = r.spans();
        assert_eq!((spans[1].client, spans[1].seq), (3, 42));
        assert_eq!(spans[1].parent, req);
        assert!(spans[0].start_us <= spans[1].start_us);
        assert!(spans[1].end_us <= spans[0].end_us);
        let st = self_times(spans);
        assert_eq!(st[0], spans[0].duration_us() - spans[1].duration_us());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut r = Recorder::new(Instant::now());
        r.push("wire.ask", 0, (1, 2), 5, 9);
        let dir = std::env::temp_dir().join(format!("e2e-spans-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, r.spans()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            text,
            "{\"id\":1,\"parent\":0,\"client\":1,\"seq\":2,\"name\":\"wire.ask\",\
             \"start_us\":5,\"end_us\":9}\n"
        );
    }
}
