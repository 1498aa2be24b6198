//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer, and
//! the op wrappers open one around each kernel a worker runs. Spans stay in
//! memory and are written out once, when the run ends. Recording is off
//! unless the run was started with `--trace 1`, and even then it is
//! switched on and off per block of work units, so the same run can report
//! what tracing costs.

use dtask::Json;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer name: a crate or `dtask` module (`heat2d`, `dtask.client`, …).
    pub layer: &'static str,
    /// The call inside the layer.
    pub name: &'static str,
    /// Round, step or pipeline index the call belongs to.
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Process-wide recorder.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    /// Root span and unit of the work the benchmark loop is running now; worker-side
    /// kernels cannot see which task they run, so they attach here.
    current_root: AtomicU64,
    current_unit: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

pub static TRACER: LazyLock<Tracer> = LazyLock::new(|| Tracer {
    on: AtomicBool::new(false),
    epoch: Instant::now(),
    next_id: AtomicU64::new(1),
    current_root: AtomicU64::new(0),
    current_unit: AtomicU64::new(0),
    spans: Mutex::new(Vec::new()),
});

/// An open span; [`Tracer::close`] records it.
pub struct Open {
    pub id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    unit: u64,
    start_ns: u64,
}

impl Tracer {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span, or `None` while recording is off.
    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        unit: u64,
    ) -> Option<Open> {
        if !self.is_on() {
            return None;
        }
        Some(Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            layer,
            name,
            unit,
            start_ns: self.now_ns(),
        })
    }

    pub fn close(&self, open: Option<Open>) {
        if let Some(o) = open {
            let span = Span {
                id: o.id,
                parent: o.parent,
                layer: o.layer,
                name: o.name,
                unit: o.unit,
                start_ns: o.start_ns,
                end_ns: self.now_ns(),
            };
            self.spans.lock().expect("span log poisoned").push(span);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        unit: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(layer, name, parent, unit);
        let r = f();
        self.close(open);
        r
    }

    /// Open the root span of one unit of work and make it the parent of
    /// kernel spans until the next call.
    pub fn open_root(&self, name: &'static str, unit: u64) -> Option<Open> {
        let open = self.open("bench", name, 0, unit);
        self.current_root
            .store(open.as_ref().map_or(0, |o| o.id), Ordering::Relaxed);
        self.current_unit.store(unit, Ordering::Relaxed);
        open
    }

    /// Parent span and unit that kernel spans attach to.
    pub fn current(&self) -> (u64, u64) {
        (
            self.current_root.load(Ordering::Relaxed),
            self.current_unit.load(Ordering::Relaxed),
        )
    }

    /// Record an already-timed interval (used by the op wrappers, which time
    /// every call whether or not spans are on).
    pub fn record(&self, layer: &'static str, name: &'static str, start: Instant, end: Instant) {
        if !self.is_on() {
            return;
        }
        let (parent, unit) = self.current();
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            layer,
            name,
            unit,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of each span: its duration minus the part of its interval its
/// child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let cov = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
            (s.id, dur - cov)
        })
        .collect()
}

/// Per-layer totals: `(spans, summed self time in ns)`.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id];
    }
    out
}

/// Spans as a JSON array, in start order.
pub fn to_json(spans: &[Span]) -> Json {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    Json::Arr(
        sorted
            .into_iter()
            .map(|s| {
                Json::obj()
                    .set("id", s.id)
                    .set("parent", s.parent)
                    .set("layer", s.layer)
                    .set("name", s.name)
                    .set("unit", s.unit)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "call",
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Root 0..100 with children 10..30 and 20..50 (overlapping) and a
        // grandchild inside the first child.
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "dtask.client", 10, 30),
            span(3, 1, "dtask.worker", 20, 50),
            span(4, 2, "dtask.sched", 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 6);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, 0, "bench", 10, 20),
            span(2, 1, "dtask.worker", 5, 15),
        ];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn layer_totals_sum_self_time() {
        let spans = vec![
            span(1, 0, "bench", 0, 10),
            span(2, 1, "heat2d", 0, 4),
            span(3, 1, "heat2d", 5, 7),
        ];
        let totals = layer_self_ns(&spans);
        assert_eq!(totals["heat2d"], (2, 6));
        assert_eq!(totals["bench"], (1, 4));
    }
}
