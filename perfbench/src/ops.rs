//! Worker-side kernel timing from outside: each op the workload uses is
//! looked up in the cluster's `OpRegistry` and registered again behind a
//! timer, so the program's own code is unchanged.

use crate::spans::TRACER;
use dtask::{Datum, OpRegistry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Busy time and calls of one op, summed over every cluster of the run.
#[derive(Default)]
pub struct OpCounter {
    pub busy_ns: AtomicU64,
    pub calls: AtomicU64,
}

/// Counters for every wrapped op, plus the completion times of
/// `ml.partial_fit`, which the in-situ workload turns into per-step latency.
#[derive(Default)]
pub struct OpTimers {
    counters: Mutex<BTreeMap<&'static str, Arc<OpCounter>>>,
    /// `(finished at, samples the model has seen)` per `ml.partial_fit`.
    pub fits: Mutex<Vec<(Instant, i64)>>,
}

/// The layer a kernel belongs to, by its op-name prefix.
pub fn op_layer(name: &str) -> &'static str {
    if name.starts_with("da.") {
        "darray"
    } else if name.starts_with("ml.") {
        "dml"
    } else {
        "dtask.worker"
    }
}

impl OpTimers {
    pub fn new() -> Arc<Self> {
        Arc::new(OpTimers::default())
    }

    /// Re-register `names` in `registry` behind timers.
    pub fn wrap(self: &Arc<Self>, registry: &OpRegistry, names: &[&'static str]) {
        for &name in names {
            let inner = registry
                .get(name)
                .unwrap_or_else(|| panic!("op {name} is not registered"));
            let counter = self.counter(name);
            let timers = Arc::clone(self);
            let layer = op_layer(name);
            registry.register(name, move |params: &Datum, deps: &[Datum]| {
                let t0 = Instant::now();
                let out = inner(params, deps);
                let t1 = Instant::now();
                counter
                    .busy_ns
                    .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
                counter.calls.fetch_add(1, Ordering::Relaxed);
                TRACER.record(layer, name, t0, t1);
                if name == "ml.partial_fit" {
                    if let Some(seen) = out
                        .as_ref()
                        .ok()
                        .and_then(|d| d.as_list())
                        .and_then(|l| l.get(3))
                        .and_then(|d| d.as_i64())
                    {
                        timers
                            .fits
                            .lock()
                            .expect("fit log poisoned")
                            .push((t1, seen));
                    }
                }
                out
            });
        }
    }

    fn counter(&self, name: &'static str) -> Arc<OpCounter> {
        let mut map = self.counters.lock().expect("op counters poisoned");
        Arc::clone(map.entry(name).or_default())
    }

    /// `(busy ms, calls)` of one op (zero if it never ran).
    pub fn get(&self, name: &'static str) -> (f64, u64) {
        let c = self.counter(name);
        (
            c.busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
            c.calls.load(Ordering::Relaxed),
        )
    }
}
