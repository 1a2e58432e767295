//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public entry points — the program itself is not
//! instrumented. One thread records; spans nest strictly, so a span's
//! children never overlap and its self time is its duration minus the
//! sum of its children's.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.unet_forward`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or request group) the call served.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, request });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Self times (ms) of every span named `name`: duration minus the
    /// durations of its direct children.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let children = self.child_ms();
        let spans = self.spans.borrow();
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ms() - children[i])
            .collect()
    }

    fn child_ms(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut children = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p] += s.ms();
            }
        }
        children
    }

    /// Total and self time per span name, in first-seen order:
    /// `(name, count, total_ms, self_ms)`.
    pub fn breakdown(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let children = self.child_ms();
        let spans = self.spans.borrow();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => r,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.ms();
            row.3 += s.ms() - children[i];
        }
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when tracing, or bare when not: the untraced run
/// takes the same code path minus the recording.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, request, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let tr = Tracer::default();
        tr.span("outer", Some(7), || {
            spin(200_000);
            tr.span("inner", Some(7), || spin(300_000));
            tr.span("inner", Some(7), || tr.span("leaf", None, || spin(100_000)));
        });
        let outer = tr.durations("outer")[0];
        let inner: f64 = tr.durations("inner").iter().sum();
        let self_outer = tr.self_times("outer")[0];
        assert!((self_outer - (outer - inner)).abs() < 1e-9);
        assert!(self_outer >= 0.2 && inner >= 0.4);
        // The leaf is a grandchild: it shrinks its parent's self time only.
        let self_inner: f64 = tr.self_times("inner").iter().sum();
        assert!((self_inner - (inner - tr.durations("leaf")[0])).abs() < 1e-9);
        let rows = tr.breakdown();
        assert_eq!(
            rows.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
            [("outer", 1), ("inner", 2), ("leaf", 1)]
        );
        let spans = tr.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[0].request, Some(7));
    }
}
