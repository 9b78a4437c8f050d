//! Spans timed from outside: the benchmark wraps one span around each call
//! into a layer's public functions, keeps them in memory, and writes them
//! out when the run ends. Nothing inside the libraries is instrumented.
//!
//! A span is `{name, start_ns, end_ns, parent, run}`. Names are
//! `<layer>.<call>` with a two-component layer (`sim.dense.cycle` belongs to
//! layer `sim.dense`). A layer's *self time* is its spans' duration minus
//! the part their direct children cover; shares are self time over the
//! duration of the pass's root span.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// Operation identifier shared by the spans of one unit of work (the
    /// gossip cycle or dissemination configuration it belongs to).
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct SpanId(Option<u32>);

/// In-memory span recorder. A disabled tracer records nothing and its
/// `begin`/`end` are a branch each, so the same workload code serves the
/// untraced and the traced pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation identifier stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = u32::try_from(self.spans.len()).expect("span count fits in u32");
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times one leaf call.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one span never overlap — the tracer is driven from
/// one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// `true` if `ancestor` is `index` or one of its transitive parents.
fn is_within(spans: &[Span], mut index: usize, ancestor: usize) -> bool {
    loop {
        if index == ancestor {
            return true;
        }
        match spans[index].parent {
            Some(p) => index = p as usize,
            None => return false,
        }
    }
}

/// Everything the per-layer metrics need from the spans below one root.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Fold {
    /// Duration of the root span, seconds.
    pub root_s: f64,
    /// Self time of the root span (time no child span accounts for), seconds.
    pub root_self_s: f64,
    /// Per span name: durations in seconds, in recording order.
    pub by_name: BTreeMap<String, Vec<f64>>,
    /// Per layer (first two name components): summed self time, seconds.
    pub layer_self_s: BTreeMap<String, f64>,
}

impl Fold {
    /// Folds the spans below (and excluding) the first root span named
    /// `root`; `None` if there is no such span.
    pub fn below(spans: &[Span], root: &str) -> Option<Self> {
        let root_index = spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == root)?;
        let own = self_times_ns(spans);
        let mut fold = Fold {
            root_s: ns_to_s(spans[root_index].duration_ns()),
            root_self_s: ns_to_s(own[root_index]),
            ..Fold::default()
        };
        for (i, span) in spans.iter().enumerate() {
            if i == root_index || !is_within(spans, i, root_index) {
                continue;
            }
            fold.by_name
                .entry(span.name.clone())
                .or_default()
                .push(ns_to_s(span.duration_ns()));
            *fold
                .layer_self_s
                .entry(layer_of(&span.name).to_owned())
                .or_default() += ns_to_s(own[i]);
        }
        Some(fold)
    }

    /// Durations (seconds) of the spans called `name`; empty if none.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summed duration (seconds) of the spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        // Not `sum()`: the float sum of nothing is -0.0, which prints as such.
        self.durations(name).iter().fold(0.0, |total, d| total + d)
    }

    /// Self time of `layer` as a share of the root span's duration.
    pub fn layer_share(&self, layer: &str) -> f64 {
        if self.root_s <= 0.0 {
            return 0.0;
        }
        self.layer_self_s.get(layer).copied().unwrap_or(0.0) / self.root_s
    }

    /// Share of the root span's duration that child spans account for.
    pub fn coverage(&self) -> f64 {
        if self.root_s <= 0.0 {
            return 0.0;
        }
        1.0 - self.root_self_s / self.root_s
    }
}

/// The layer a span belongs to: the first two dot-separated components of
/// its name.
pub fn layer_of(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((i, _)) => &name[..i],
        None => name,
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The trace file written at the end of a traced run.
#[derive(Debug, Serialize)]
pub struct TraceFile {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Every recorded span; `parent` indexes into this list.
    pub spans: Vec<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100): a [10,40) with child a1 [15,25); sibling b [50,90).
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("sim.dense.cycle", 10, 40, Some(0)),
            span("sim.dense.inner", 15, 25, Some(1)),
            span("core.engine.config", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn fold_attributes_self_time_to_layers_below_one_root() {
        let spans = vec![
            span("bench.pass", 0, 1_000, None),
            span("sim.dense.cycle", 0, 300, Some(0)),
            span("sim.dense.cycle", 300, 500, Some(0)),
            span("core.engine.config", 500, 900, Some(0)),
            span("bench.extras", 1_000, 5_000, None),
            span("sim.dense.cycle", 1_000, 5_000, Some(4)),
        ];
        let fold = Fold::below(&spans, "bench.pass").unwrap();
        assert_eq!(
            fold.durations("sim.dense.cycle").len(),
            2,
            "extras excluded"
        );
        assert!((fold.busy_s("sim.dense.cycle") - 500e-9).abs() < 1e-15);
        assert!((fold.layer_share("sim.dense") - 0.5).abs() < 1e-12);
        assert!((fold.layer_share("core.engine") - 0.4).abs() < 1e-12);
        assert!((fold.coverage() - 0.9).abs() < 1e-12);
        assert_eq!(fold.layer_share("core.sched"), 0.0);
        assert!(Fold::below(&spans, "no.such").is_none());
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::on();
        let root = tracer.begin("bench.pass");
        tracer.set_run(7);
        let value = tracer.time("sim.dense.cycle", || 42);
        tracer.end(root);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 7);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        let id = off.begin("bench.pass");
        off.end(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layer_is_the_first_two_name_components() {
        assert_eq!(layer_of("sim.dense.cycle"), "sim.dense");
        assert_eq!(layer_of("core.async_engine.run"), "core.async_engine");
        assert_eq!(layer_of("bench.pass"), "bench.pass");
    }
}
