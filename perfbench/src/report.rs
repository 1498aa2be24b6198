//! What a run reports: the metrics named in `BENCHMARK.json`, the
//! workload-specific detail behind them, the exact counters read from the
//! cluster, and the record of where and how the run was made.

use crate::spans::{self, Span};
use crate::stats::{median, ratio, Summary};
use dtask::{Cluster, Json, MsgClass, WireLane};

/// End-to-end metrics, in `BENCHMARK.json` order. Every workload reports
/// every one of them in an untraced run. `publish_mib_s` is reported in
/// the record but left out here: it is a block over one synchronous
/// hand-off, and thread wake-ups set that hand-off's time (README, "Bounds
/// and measured spread").
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "heap_mib",
    "time_to_solution_s",
    "sim_time_s",
    "tasks_per_s",
];

/// How each end-to-end metric follows the host's speed: times grow as it
/// slows, rates shrink. `heap_mib` does not follow it.
const PACED: [(&str, Pace); 5] = [
    ("setup_s", Pace::Time),
    ("time_to_solution_s", Pace::Time),
    ("sim_time_s", Pace::Time),
    ("publish_mib_s", Pace::Rate),
    ("tasks_per_s", Pace::Rate),
];

#[derive(Clone, Copy)]
enum Pace {
    Time,
    Rate,
}

/// Per-layer metrics, in `BENCHMARK.json` order. Every workload reports
/// every one of them in a traced run.
pub const PER_LAYER: [&str; 27] = [
    "dtask.client.submit_ms",
    "dtask.client.result_wait_ms",
    "dtask.client.release_ms",
    "dtask.sched.control_msgs",
    "dtask.sched.msgs_per_burst",
    "dtask.sched.assign_pass_us",
    "dtask.sched.tasks_per_assign_msg",
    "dtask.worker.exec_busy_ms",
    "dtask.worker.exec_idle_ms",
    "dtask.worker.utilization",
    "dtask.worker.gather_wait_ms",
    "dtask.worker.queue_delay_us_mean",
    "dtask.store.resident_keys",
    "dtask.store.resident_bytes",
    "dtask.store.hit_ratio",
    "dtask.wire.msgs",
    "dtask.wire.bytes",
    "dtask.wire.sched_in.bytes",
    "dtask.wire.exec_in.bytes",
    "dtask.wire.data_in.bytes",
    "dtask.wire.client_in.bytes",
    "dtask.wire.reply_in.bytes",
    "core.blocks_sent",
    "core.blocks_filtered",
    "dml.partial_fit_calls",
    "bench.drift_ratio",
    "bench.trace_overhead_pct",
];

/// One reported number with its unit and the count behind it: the sample
/// count of a timing, or the base of a ratio or per-unit figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
    pub note: String,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// End-to-end metrics the workload's schedule sets rather than the
    /// host's speed (the open loop's task rate), left as measured.
    pub fixed: Vec<&'static str>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: u64, note: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            note: note.to_string(),
        });
    }

    /// A timing summary as `<stem>_p50_<unit>` and `<stem>_tail_<unit>`,
    /// with times given in seconds and scaled to `unit` (`ms` or `us`).
    pub fn put_summary(&mut self, stem: &str, s: Summary, unit: &'static str) {
        let scale = match unit {
            "ms" => 1e3,
            "us" => 1e6,
            _ => 1.0,
        };
        self.put(
            &format!("{stem}_p50_{unit}"),
            s.p50 * scale,
            unit,
            s.n as u64,
            "median",
        );
        self.put(
            &format!("{stem}_tail_{unit}"),
            s.tail * scale,
            unit,
            s.n as u64,
            &format!("p{}", s.tail_pct),
        );
    }

    /// Count one checked operation; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 20 {
                eprintln!("check failed: {e}");
                self.errors.push(e);
            }
        }
    }

    /// Median time per call of the client calls every workload makes.
    pub fn put_client_calls(&mut self, submit_s: &[f64], wait_s: &[f64], release_s: &[f64]) {
        for (name, calls) in [
            ("dtask.client.submit_ms", submit_s),
            ("dtask.client.result_wait_ms", wait_s),
            ("dtask.client.release_ms", release_s),
        ] {
            self.put(
                name,
                median(calls) * 1e3,
                "ms",
                calls.len() as u64,
                "median per call",
            );
        }
    }

    /// Traced minus untraced median unit time, as a share of the untraced
    /// one (0 in an untraced run).
    pub fn put_trace_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        let (t, u) = (median(traced), median(untraced));
        self.put(
            "bench.trace_overhead_pct",
            ratio(t - u, u) * 100.0,
            "%",
            traced.len().min(untraced.len()) as u64,
            &format!("traced {t:.6} s vs untraced {u:.6} s per unit"),
        );
    }

    /// Rescale the end-to-end times and rates to the reference host speed:
    /// `factor` is how much slower than the reference the run's host was
    /// (see `calib`). The value as measured stays in the record as
    /// `<name>_measured`.
    pub fn at_reference_speed(&mut self, factor: f64) {
        for (name, pace) in PACED {
            if self.fixed.contains(&name) {
                continue;
            }
            let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) else {
                continue;
            };
            let measured = Metric {
                name: format!("{name}_measured"),
                ..m.clone()
            };
            m.value = match pace {
                Pace::Time => m.value / factor,
                Pace::Rate => m.value * factor,
            };
            m.note = format!("{}, at the reference host speed", m.note);
            self.metrics.push(measured);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Add per-layer self times from the recorded spans.
    pub fn put_span_self_times(&mut self) {
        for (layer, (count, ns)) in spans::layer_self_ns(&self.spans) {
            self.put(
                &format!("self_ms.{layer}"),
                ns as f64 / 1e6,
                "ms",
                count,
                "span self time, summed",
            );
        }
    }
}

/// Exact counters read through `Cluster::stats()`, summed over every
/// cluster a run starts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub control_msgs: u64,
    pub ingest_bursts: u64,
    pub ingest_msgs: u64,
    pub assign_passes: u64,
    pub assign_pass_ns: u64,
    pub assign_tasks: u64,
    pub assign_messages: u64,
    pub exec_busy_ns: u64,
    pub exec_idle_ns: u64,
    pub gather_wait_ns: u64,
    pub queue_delay_ns: u64,
    pub queue_delays: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub wire_msgs: u64,
    pub wire_bytes: [u64; 5],
    /// External and plain scatters: one per block shipped.
    pub scatters: u64,
}

impl Counters {
    pub fn read(cluster: &Cluster) -> Counters {
        let s = cluster.stats();
        let mut wire_bytes = [0; 5];
        for (slot, lane) in wire_bytes.iter_mut().zip(WireLane::ALL) {
            *slot = s.wire_bytes(lane);
        }
        Counters {
            control_msgs: s.scheduler_control_messages(),
            ingest_bursts: s.ingest_bursts(),
            ingest_msgs: s.ingest_msgs(),
            assign_passes: s.assign_passes(),
            assign_pass_ns: s.assign_pass_ns(),
            assign_tasks: s.assign_tasks(),
            assign_messages: s.assign_messages(),
            exec_busy_ns: s.exec_busy_ns(),
            exec_idle_ns: s.exec_idle_ns(),
            gather_wait_ns: s.gather_wait_ns(),
            queue_delay_ns: s.queue_delay_hist().sum_ns(),
            queue_delays: s.queue_delay_hist().count(),
            store_hits: s.store_hits(),
            store_misses: s.store_misses(),
            wire_msgs: s.wire_total_messages(),
            wire_bytes,
            scatters: s.count(MsgClass::ScatterData),
        }
    }

    /// Combine two readings field by field.
    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            control_msgs: f(self.control_msgs, other.control_msgs),
            ingest_bursts: f(self.ingest_bursts, other.ingest_bursts),
            ingest_msgs: f(self.ingest_msgs, other.ingest_msgs),
            assign_passes: f(self.assign_passes, other.assign_passes),
            assign_pass_ns: f(self.assign_pass_ns, other.assign_pass_ns),
            assign_tasks: f(self.assign_tasks, other.assign_tasks),
            assign_messages: f(self.assign_messages, other.assign_messages),
            exec_busy_ns: f(self.exec_busy_ns, other.exec_busy_ns),
            exec_idle_ns: f(self.exec_idle_ns, other.exec_idle_ns),
            gather_wait_ns: f(self.gather_wait_ns, other.gather_wait_ns),
            queue_delay_ns: f(self.queue_delay_ns, other.queue_delay_ns),
            queue_delays: f(self.queue_delays, other.queue_delays),
            store_hits: f(self.store_hits, other.store_hits),
            store_misses: f(self.store_misses, other.store_misses),
            wire_msgs: f(self.wire_msgs, other.wire_msgs),
            scatters: f(self.scatters, other.scatters),
            wire_bytes: std::array::from_fn(|i| f(self.wire_bytes[i], other.wire_bytes[i])),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b)
    }

    /// `self + other`, field by field.
    pub fn add(&mut self, other: &Counters) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// The counter-derived per-layer metrics, per unit of work where the
    /// counter grows with run length (`units` is that base).
    pub fn put_layers(&self, r: &mut Report, units: u64, unit_name: &str) {
        let per = |v: f64| ratio(v, units as f64);
        let note = format!("per {unit_name}");
        r.put(
            "dtask.sched.control_msgs",
            per(self.control_msgs as f64),
            "count",
            units,
            &note,
        );
        r.put(
            "dtask.sched.msgs_per_burst",
            ratio(self.ingest_msgs as f64, self.ingest_bursts as f64),
            "ratio",
            self.ingest_bursts,
            "messages per inbox burst",
        );
        r.put(
            "dtask.sched.assign_pass_us",
            ratio(self.assign_pass_ns as f64, self.assign_passes as f64) / 1e3,
            "us",
            self.assign_passes,
            "mean per placement pass",
        );
        r.put(
            "dtask.sched.tasks_per_assign_msg",
            ratio(self.assign_tasks as f64, self.assign_messages as f64),
            "ratio",
            self.assign_messages,
            "tasks per assignment message",
        );
        r.put(
            "dtask.worker.exec_busy_ms",
            per(self.exec_busy_ns as f64) / 1e6,
            "ms",
            units,
            &note,
        );
        r.put(
            "dtask.worker.exec_idle_ms",
            per(self.exec_idle_ns as f64) / 1e6,
            "ms",
            units,
            &note,
        );
        let slot_ns = (self.exec_busy_ns + self.exec_idle_ns) as f64;
        r.put(
            "dtask.worker.utilization",
            ratio(self.exec_busy_ns as f64, slot_ns),
            "ratio",
            slot_ns as u64,
            "busy over busy+idle slot ns",
        );
        r.put(
            "dtask.worker.gather_wait_ms",
            per(self.gather_wait_ns as f64) / 1e6,
            "ms",
            units,
            &note,
        );
        r.put(
            "dtask.worker.queue_delay_us_mean",
            ratio(self.queue_delay_ns as f64, self.queue_delays as f64) / 1e3,
            "us",
            self.queue_delays,
            "mean per assignment",
        );
        let lookups = self.store_hits + self.store_misses;
        r.put(
            "dtask.store.hit_ratio",
            ratio(self.store_hits as f64, lookups as f64),
            "ratio",
            lookups,
            "hits over store lookups",
        );
        r.put(
            "dtask.wire.msgs",
            per(self.wire_msgs as f64),
            "count",
            units,
            &note,
        );
        r.put(
            "dtask.wire.bytes",
            per(self.wire_bytes.iter().sum::<u64>() as f64),
            "bytes",
            units,
            &note,
        );
        for (lane, bytes) in WireLane::ALL.iter().zip(self.wire_bytes) {
            r.put(
                &format!("dtask.wire.{}.bytes", lane.name()),
                per(bytes as f64),
                "bytes",
                units,
                &note,
            );
        }
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where and how the run was made.
pub fn environment() -> Json {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .set("git_rev", git_rev)
        .set("host", host)
        .set("nproc", nproc)
        .set(
            "malloc",
            format!(
                "mmap threshold {} MiB, trimming off",
                crate::heap::MMAP_THRESHOLD >> 20
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_scales_times_down_and_rates_up() {
        let mut r = Report::default();
        r.put("time_to_solution_s", 3.0, "s", 10, "median");
        r.put("publish_mib_s", 100.0, "MiB/s", 10, "median");
        r.put("tasks_per_s", 50.0, "1/s", 10, "period");
        r.put("heap_mib", 8.0, "MiB", 10, "median");
        r.fixed.push("tasks_per_s");
        // A host 1.5x slower than the reference.
        r.at_reference_speed(1.5);
        let v = |n: &str| r.get(n).map(|m| m.value);
        assert_eq!(v("time_to_solution_s"), Some(2.0));
        assert_eq!(v("publish_mib_s"), Some(150.0));
        assert_eq!(v("time_to_solution_s_measured"), Some(3.0));
        assert_eq!(v("publish_mib_s_measured"), Some(100.0));
        assert_eq!(v("tasks_per_s"), Some(50.0));
        assert_eq!(v("tasks_per_s_measured"), None);
        assert_eq!(v("heap_mib"), Some(8.0));
    }
}
