//! The harness-side span recorder.
//!
//! Every call from the harness into a layer's public function is wrapped
//! in a span named `<layer>.<function>`; spans nest by call order, stay in
//! memory during the run and are written out once at exit. Spans live in
//! the harness only — spans inside the crates are ROADMAP item 1.
//!
//! With the recorder off (`--trace 0`) [`Recorder::span`] is the bare
//! call, so end-to-end metrics never pay for tracing.

use std::cell::RefCell;
use std::time::Instant;

use serde::Value;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span store for one workload run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or passes calls straight
    /// through.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of whichever span is
    /// open on entry.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut st = self.state.borrow_mut();
            let index = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            st.open.push(index);
            index
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.spans[index].start_ns = start;
        st.spans[index].end_ns = end;
        st.open.pop();
        out
    }

    /// Records an interval that was timed by the caller, for a call whose
    /// name is only known once it returned (a server `step()` is named
    /// after what it executed). Child of whichever span is open.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since_epoch = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            name: name.to_string(),
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
            parent,
        });
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Whether any span's name starts with `prefix` (the bypass check:
    /// `stark_exp_2e14` must record no `ec.` span).
    pub fn any_with_prefix(&self, prefix: &str) -> bool {
        self.state
            .borrow()
            .spans
            .iter()
            .any(|s| s.name.starts_with(prefix))
    }

    /// The span file: one object per span with its self time, tagged with
    /// the workload that produced it.
    pub fn to_json(&self, workload: &str) -> Value {
        let st = self.state.borrow();
        let selfs = self_time_ns(&st.spans);
        let spans = st
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("name".into(), Value::String(s.name.clone())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("self_ns".into(), Value::UInt(self_ns)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::String(workload.to_string())),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

/// What recording one span costs, in seconds: the mean over a few thousand
/// empty spans on a scratch recorder. `trace_overhead` scales it to the
/// spans a stage sample records; at a handful of samples per stage the
/// traced-minus-untraced difference itself is far below run-to-run noise.
pub fn span_cost_s() -> f64 {
    const SPANS: u32 = 4096;
    let rec = Recorder::new(true);
    let start = Instant::now();
    for _ in 0..SPANS {
        rec.span("span.cost", || std::hint::black_box(()));
    }
    start.elapsed().as_secs_f64() / f64::from(SPANS)
}

/// A span's self time is its duration minus the part of it its direct
/// children cover. The harness is single-threaded, so children of one
/// span never overlap and the covered part is the sum of their durations.
pub fn self_time_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("stage", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // stage: 100 − (30 + 40); a: 30 − 10; leaves keep their duration.
        assert_eq!(self_time_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_inert_when_off() {
        let rec = Recorder::new(true);
        let v = rec.span("outer", || {
            let t = Instant::now();
            rec.record("late", t, t);
            rec.span("inner", || 1)
        });
        assert_eq!(v, 1);
        let st = rec.state.borrow();
        let names: Vec<_> = st
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![("outer", None), ("late", Some(0)), ("inner", Some(0))]
        );
        assert!(st.open.is_empty());
        drop(st);
        assert!(rec.any_with_prefix("inn") && !rec.any_with_prefix("ec."));
        assert_eq!(rec.durations("inner").len(), 1);

        let off = Recorder::new(false);
        assert_eq!(off.span("x", || 5), 5);
        assert!(off.durations("x").is_empty());
    }
}
