//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the folding of a span tree into per-layer self times.
//!
//! A span's self time is its duration minus the time its child spans
//! cover.  Spans of one op share the op id; each op has one root span.
//! Spans stay in memory and are written out once, after measuring.

use jact_obs::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, `layer.function`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an op's root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Span recorder.  Recording nothing when off is what lets the timed,
/// untraced run share its code with the traced one.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// The tracer is shared between the driver loop and the activation-store
/// decorator that the network calls back into.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn shared(on: bool) -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }))
    }

    /// Opens a span under the innermost open one.  Only `root` spans
    /// may open with none above them: a layer call outside any op (set-up,
    /// warm-up) is not recorded.
    /// Returns whether a span was opened.
    fn enter(&mut self, name: &'static str, root: bool) -> bool {
        if !self.on || root != self.open.is_empty() {
            return false;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            op: self.op,
        });
        true
    }

    /// Closes the innermost open span; closing a root ends its op.
    fn exit(&mut self) {
        let now = self.t0.elapsed().as_nanos() as u64;
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
            if self.open.is_empty() {
                self.op += 1;
            }
        }
    }

    fn run<R>(t: &SharedTracer, name: &'static str, root: bool, f: impl FnOnce() -> R) -> R {
        let entered = t.borrow_mut().enter(name, root);
        let r = f();
        if entered {
            t.borrow_mut().exit();
        }
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span under the open one.  The tracer is borrowed
/// only while the span opens and closes, so `f` may record nested spans.
pub fn span<R>(t: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    Tracer::run(t, name, false, f)
}

/// Runs `f` as one op, inside its root span.
pub fn span_op<R>(t: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    Tracer::run(t, name, true, f)
}

/// Per-op self times folded out of a span tree.
#[derive(Debug, Default)]
pub struct Folded {
    /// For each span name, its summed self time in each op that has it
    /// (ms), root spans excluded.
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Each op's root duration (ms).
    pub root_ms: Vec<f64>,
    /// Each op's root self time (ms): what no layer span covers.
    pub root_self_ms: Vec<f64>,
}

impl Folded {
    /// Median over ops of a name's per-op self time; 0 if never seen.
    pub fn median_ms(&self, name: &str) -> f64 {
        self.self_ms
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// A name's self time per op as a mean over all ops, for ops that
    /// differ in kind: these add up to the mean op.
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).map_or(0.0, |v| {
            v.iter().sum::<f64>() / self.root_ms.len().max(1) as f64
        })
    }

    /// Share of the ops' time that no layer span accounts for:
    /// `|root - sum of layer self times| / root`, summed over ops.
    pub fn residual_share(&self) -> f64 {
        let root: f64 = self.root_ms.iter().sum();
        if root <= 0.0 {
            return 0.0;
        }
        self.root_self_ms.iter().sum::<f64>().abs() / root
    }
}

/// Folds spans into per-op self times by name.
pub fn fold(spans: &[Span]) -> Folded {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut per_op: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    let mut out = Folded::default();
    for (s, covered) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let self_ms = (dur as f64 - *covered as f64) / 1e6;
        if s.parent.is_none() {
            out.root_ms.push(dur as f64 / 1e6);
            out.root_self_ms.push(self_ms);
        } else {
            *per_op.entry((s.name, s.op)).or_insert(0.0) += self_ms;
        }
    }
    for ((name, _), ms) in per_op {
        out.self_ms.entry(name).or_default().push(ms);
    }
    out
}

/// The trace file: every span with name, start, end, parent and op id.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj()
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("parent", s.parent.map_or(Json::Null, Json::from))
                .field("op", s.op)
        })
        .collect();
    Json::obj()
        .field("schema", "ledger-trace/v1")
        .field("workload", workload)
        .field("seed", seed)
        .field("spans", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        // op 0: root 0..100; fwd 10..60 holding two saves (10 ms each);
        //       bwd 60..95 holding one load (5 ms).
        // op 1: root 100..150; fwd 100..140, no children.
        let spans = vec![
            sp("op", 0, 100, None, 0),
            sp("fwd", 10, 60, Some(0), 0),
            sp("save", 15, 25, Some(1), 0),
            sp("save", 30, 40, Some(1), 0),
            sp("bwd", 60, 95, Some(0), 0),
            sp("load", 70, 75, Some(4), 0),
            sp("op", 100, 150, None, 1),
            sp("fwd", 100, 140, Some(6), 1),
        ];
        let f = fold(&spans);
        assert_eq!(f.self_ms["fwd"], vec![30.0, 40.0]);
        assert_eq!(f.self_ms["save"], vec![20.0]);
        assert_eq!(f.self_ms["bwd"], vec![30.0]);
        assert_eq!(f.self_ms["load"], vec![5.0]);
        assert_eq!(f.root_ms, vec![100.0, 50.0]);
        // Root self: 100 - (50 + 35) and 50 - 40.
        assert_eq!(f.root_self_ms, vec![15.0, 10.0]);
        // Layer self times and the root's own add up to the root.
        let op0: f64 = ["fwd", "save", "bwd", "load"]
            .iter()
            .map(|n| f.self_ms[n][0])
            .sum();
        assert_eq!(op0 + f.root_self_ms[0], f.root_ms[0]);
        assert_eq!(f.self_ms["fwd"][1] + f.root_self_ms[1], f.root_ms[1]);
        assert_eq!(f.median_ms("fwd"), 35.0);
        assert_eq!(f.median_ms("absent"), 0.0);
        assert_eq!(f.mean_ms("save"), 10.0);
        assert!((f.residual_share() - 25.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_numbers_ops() {
        let t = Tracer::shared(true);
        span(&t, "outside any op", || ());
        span_op(&t, "op", || span(&t, "a", || span(&t, "b", || ())));
        span_op(&t, "op", || ());
        let t = t.borrow();
        let s = t.spans();
        assert_eq!(
            s.iter()
                .map(|s| (s.name, s.parent, s.op))
                .collect::<Vec<_>>(),
            vec![
                ("op", None, 0),
                ("a", Some(0), 0),
                ("b", Some(1), 0),
                ("op", None, 1)
            ]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::shared(false);
        span_op(&t, "op", || span(&t, "a", || ()));
        assert!(t.borrow().spans().is_empty());
    }
}
