//! Wall-clock spans around the benchmark's own calls into the crates.
//!
//! Spans are kept in memory and written out once, when the run ends.
//! A span's self time is its duration minus the time its children
//! cover; the program is single-threaded, so children never overlap.

use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Aggregate of every span sharing one name.
pub struct SpanTotals {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.t0.elapsed();
    }

    /// Records an already-timed child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, len: Duration) {
        let start = start.saturating_duration_since(self.t0);
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start + len,
        });
    }

    /// Per-name count, total time and self time, in first-seen order.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: Vec<SpanTotals> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let len = s.end - s.start;
            let i = match out.iter().position(|t| t.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(SpanTotals {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.len() - 1
                }
            };
            out[i].count += 1;
            out[i].total_s += len.as_secs_f64();
            out[i].self_s += len.saturating_sub(children).as_secs_f64();
        }
        out
    }

    /// Every span as one JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        let outer = log.enter("outer");
        let t = Instant::now();
        log.record("op", t, Duration::from_millis(3));
        log.record("op", t, Duration::from_millis(4));
        std::thread::sleep(Duration::from_millis(10));
        log.exit(outer);
        let totals = log.totals();
        assert_eq!(totals[0].name, "outer");
        assert_eq!(totals[1].name, "op");
        assert_eq!(totals[1].count, 2);
        assert!((totals[1].total_s - 0.007).abs() < 1e-9);
        assert!((totals[0].total_s - totals[0].self_s - 0.007).abs() < 1e-9);
        assert!(log.to_json().contains("\"parent\":0"));
    }
}
