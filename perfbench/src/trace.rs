//! Spans recorded by the benchmark around each public call it makes.
//!
//! A span is named `layer.op` and carries its start, end, parent span and
//! the id of the image or frame it worked on. Spans stay in memory during
//! the run; [`Tracer::write`] saves them at exit and [`Tracer::self_time`]
//! gives each layer's self time (its spans' durations minus the part their
//! child spans cover). When tracing is off every call is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// The pool counters `obs` exports, read per frame in traced runs.
pub const POOL_COUNTERS: [(obs::Counter, &str); 5] = [
    (obs::Counter::PoolJobs, "jobs"),
    (obs::Counter::PoolTasks, "tasks"),
    (obs::Counter::PoolSteals, "steals"),
    (obs::Counter::PoolParks, "parks"),
    (obs::Counter::PoolWakeups, "wakeups"),
];

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    id: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.parent(),
            id,
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished span from timestamps the caller already took.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.parent();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
    }

    /// Self time in seconds per layer (the part of a span name before `.`).
    pub fn self_time(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document, preceded by the header
    /// fields (host and input facts) the caller passes.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(out, "{{{header}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}[\"{}\", {}, {}, {parent}, {}]",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let t0 = t.epoch;
        t.spans.push(Span {
            name: "bench.round",
            start_ns: 0,
            end_ns: 100,
            parent: NO_PARENT,
            id: 0,
        });
        t.open.push(0);
        t.leaf("kernel.a", t0, t0 + Duration::from_nanos(30), 0);
        t.leaf(
            "kernel.b",
            t0 + Duration::from_nanos(40),
            t0 + Duration::from_nanos(90),
            0,
        );
        let st = t.self_time();
        assert!((st["bench"] - 20e-9).abs() < 1e-15);
        assert!((st["kernel"] - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("bench.round", 0);
        t.leaf("kernel.a", Instant::now(), Instant::now(), 0);
        t.close();
        assert_eq!(t.len(), 0);
    }
}
