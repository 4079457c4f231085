//! The span recorder of the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! it makes into a layer of the program, so per-layer figures need no
//! instrumentation inside the crates. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, in opening order.
    pub id: u64,
    /// Layer call, e.g. `measure.corpus`.
    pub name: &'static str,
    /// The operation the span belongs to (one reproduction, one stream
    /// pass, one request); spans of one operation share it.
    pub run: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LayerTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed duration minus the part covered by direct children, ms.
    pub self_ms: f64,
}

/// Collects spans from any number of threads. A disabled tracer times
/// nothing and records nothing, so untraced runs share code paths with
/// traced ones at no cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started and not yet ended.
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    name: &'static str,
    run: u64,
    parent: Option<u64>,
    start: Instant,
}

impl Open<'_> {
    /// The span's id, for children to name as parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ends the span and records it; returns its duration in ms.
    pub fn close(self) -> f64 {
        if !self.tracer.enabled {
            return 0.0;
        }
        let end = Instant::now();
        let span = Span {
            id: self.id,
            name: self.name,
            run: self.run,
            start_ns: self.tracer.ns(self.start),
            end_ns: self.tracer.ns(end),
            parent: self.parent,
        };
        let ms = span.ms();
        self.tracer
            .spans
            .lock()
            .expect("span buffer poisoned")
            .push(span);
        ms
    }
}

impl Tracer {
    /// A recorder; `enabled = false` makes every span a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<u64>, run: u64) -> Open<'_> {
        let id = if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            tracer: self,
            id,
            name,
            run,
            parent,
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, run);
        let out = f();
        span.close();
        out
    }

    /// Every recorded span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Durations in ms of every span with this name, in opening order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration in ms of every span with this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// For every span with this name, in opening order, the summed
    /// duration in ms of its direct children.
    pub fn children_ms(&self, parent: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|p| p.name == parent)
            .map(|p| {
                spans
                    .iter()
                    .filter(|s| s.parent == Some(p.id))
                    .map(Span::ms)
                    .sum()
            })
            .collect()
    }

    /// Count, total and self time per span name, sorted by name.
    pub fn layer_totals(&self) -> Vec<LayerTotals> {
        let spans = self.spans();
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ms.entry(p).or_default() += s.ms();
            }
        }
        let mut by_name: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in &spans {
            let t = by_name.entry(s.name).or_insert(LayerTotals {
                name: s.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            t.count += 1;
            t.total_ms += s.ms();
            t.self_ms += (s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        }
        by_name.into_values().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.id, s.name, s.run, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.open("root", None, 0);
        let id = root.id();
        t.time("child", Some(id), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        root.close();
        let totals = t.layer_totals();
        let root_t = totals.iter().find(|l| l.name == "root").unwrap();
        let child_t = totals.iter().find(|l| l.name == "child").unwrap();
        assert_eq!((root_t.count, child_t.count), (1, 1));
        assert!(root_t.self_ms >= 4.0 && root_t.self_ms < root_t.total_ms);
        assert!((child_t.self_ms - child_t.total_ms).abs() < 1e-9);
        let children = t.children_ms("root");
        assert_eq!(children.len(), 1);
        assert!((children[0] - child_t.total_ms).abs() < 1e-9);
        assert!(children[0] < root_t.total_ms);
        assert_eq!(t.children_ms("child"), vec![0.0]);
    }
}
