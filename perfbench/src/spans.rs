//! In-memory spans for the traced run.
//!
//! Every span is opened and closed by this crate around one call into a
//! public function of the simulator; nothing inside the program is
//! instrumented. Spans live in memory while the run measures and are
//! written out once, at exit ([`Tracer::write_jsonl`]).

use crate::stats::median;
use crate::Metric;
use movr_testkit::Timer;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `module.call`.
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Time covered by direct children, ns.
    pub child_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span store with one clock. Spans nest through [`Tracer::begin`] /
/// [`Tracer::end`]; work timed on other threads is added afterwards with
/// [`Tracer::push`], using timestamps read from [`Tracer::epoch`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Timer,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Timer::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// The tracer's clock; copies read the same epoch on any thread.
    pub fn epoch(&self) -> Timer {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed_ns()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            child_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
        self.credit_parent(id);
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Adds an already-closed span under `parent` (or under the
    /// innermost open span when `parent` is `None`).
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
            parent: parent.or_else(|| self.open.last().copied()),
            child_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.credit_parent(id);
        id
    }

    fn credit_parent(&mut self, id: usize) {
        let ns = self.spans[id].ns();
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += ns;
        }
    }

    /// Duration of the most recently opened span, ns.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::ns)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON line: name, op id, start, end and
    /// parent index (the line number of the enclosing span, or -1).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The per-unit times behind a workload's reconciliation: the summed
/// isolated times of the calls replayed for one unit of work, and the
/// unit's untraced and traced times, all in ns.
#[derive(Debug, Default)]
pub struct Ledger {
    units: Vec<[f64; 3]>,
}

impl Ledger {
    /// Adds one unit.
    pub fn push(&mut self, layer_sum_ns: f64, untraced_ns: f64, traced_ns: f64) {
        self.units.push([layer_sum_ns, untraced_ns, traced_ns]);
    }

    fn column(&self, f: impl Fn(&[f64; 3]) -> f64) -> Vec<f64> {
        self.units.iter().map(f).collect()
    }

    /// `<workload>.layer_sum_ratio` (median over units of layer sum ÷
    /// untraced time) and `<workload>.trace_overhead` (median of traced ÷
    /// untraced time − 1).
    pub fn metrics(&self, workload: &str) -> [Metric; 2] {
        [
            Metric::new(
                format!("{workload}.layer_sum_ratio"),
                median(&self.column(|u| u[0] / u[1])),
                "ratio",
            ),
            Metric::new(
                format!("{workload}.trace_overhead"),
                median(&self.column(|u| u[2] / u[1] - 1.0)),
                "ratio",
            ),
        ]
    }

    /// The reconciliation line; `unit` names what one unit is.
    pub fn line(&self, workload: &str, unit: &str) -> String {
        let [ratio, overhead] = self.metrics(workload);
        format!(
            "reconcile {workload}: {unit}={} end_to_end_ns={:.0} traced_ns={:.0} layer_sum_ns={:.0} ratio={:.4} trace_overhead={:.4}",
            self.units.len(),
            median(&self.column(|u| u[1])),
            median(&self.column(|u| u[2])),
            median(&self.column(|u| u[0])),
            ratio.value,
            overhead.value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_credit_their_parent() {
        let mut tr = Tracer::default();
        let root = tr.begin("root", 0);
        tr.time("leaf", 0, || std::hint::black_box(1 + 1));
        tr.push("late", 0, (10, 25), Some(root));
        tr.end(root);
        let s = &tr.spans()[root];
        assert_eq!(tr.spans()[2].parent, Some(root));
        assert!(s.child_ns >= 15);
        assert_eq!(tr.count("leaf"), 1);
    }
}
