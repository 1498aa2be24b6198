//! Serializable point-in-time snapshot of [`SchedulerStats`].
//!
//! [`StatsSnapshot::capture`] freezes every counter and latency histogram
//! into plain data, serializable to JSON (via [`crate::json`], the
//! workspace's serde stand-in) and to a Prometheus-style text exposition.
//! The benches, the examples, and runtime snapshots all serialize through
//! this one type, so `results/BENCH_*.json` and live metrics share a schema.
//! Both renderings walk the [`COUNTERS`] registry for the scalar counters.

use crate::json::Json;
use crate::key::SessionId;
use crate::stats::{
    Counter, CounterDef, LatencyHist, MsgClass, Readings, SchedulerStats, TenantCounters, WireLane,
    COUNTERS, N_LAT_BUCKETS, N_SIZE_BUCKETS, SIZE_BUCKET_LABELS,
};
use crate::trace::TraceRecorder;

/// Frozen view of one [`LatencyHist`].
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Mean sample (ns); `0.0` when empty.
    pub mean_ns: f64,
    /// Approximate median (bucket upper bound, ns).
    pub p50_ns: u64,
    /// Approximate 99th percentile (bucket upper bound, ns).
    pub p99_ns: u64,
    /// Raw log₂ bucket counts (bucket `i` covers `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; N_LAT_BUCKETS],
}

impl HistSnapshot {
    /// Freeze one histogram.
    pub fn capture(hist: &LatencyHist) -> Self {
        HistSnapshot {
            count: hist.count(),
            sum_ns: hist.sum_ns(),
            mean_ns: hist.mean_ns(),
            p50_ns: hist.quantile_ns(0.5),
            p99_ns: hist.quantile_ns(0.99),
            buckets: hist.buckets(),
        }
    }

    /// JSON rendering. Empty trailing buckets are trimmed to keep documents
    /// small; absent buckets are zero.
    pub fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .map_or(0, |i| i + 1);
        Json::obj()
            .set("count", self.count)
            .set("sum_ns", self.sum_ns)
            .set("mean_ns", self.mean_ns)
            .set("p50_ns", self.p50_ns)
            .set("p99_ns", self.p99_ns)
            .set(
                "buckets",
                Json::Arr(
                    self.buckets[..last]
                        .iter()
                        .map(|&b| Json::from(b))
                        .collect(),
                ),
            )
    }
}

/// Sections of the JSON document, in document order. Each section lists its
/// registry counters first, then the values [`StatsSnapshot::close_section`]
/// appends.
const SECTIONS: [&str; 14] = [
    "messages",
    "paper_metrics",
    "gather",
    "executors",
    "optimizer",
    "ingest",
    "assign",
    "wire",
    "fault",
    "steal",
    "store",
    "trace",
    "telemetry",
    "tenancy",
];

/// Point-in-time copy of every scheduler counter plus the latency and size
/// histograms. Plain data — safe to hold across cluster shutdown, compare
/// between runs, and serialize.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Registry counters and per-class / per-lane traffic; the derived
    /// values (paper totals, utilization, averages) are methods on it.
    pub readings: Readings,
    /// Fused-chain length histogram ([`SIZE_BUCKET_LABELS`] buckets).
    pub fused_chain_hist: [u64; N_SIZE_BUCKETS],
    /// Burst-size histogram ([`SIZE_BUCKET_LABELS`] buckets).
    pub burst_hist: [u64; N_SIZE_BUCKETS],
    /// Trace events lost to full rings (`0` from plain [`StatsSnapshot::capture`];
    /// populated by [`StatsSnapshot::capture_with_tracer`]).
    pub trace_dropped: u64,
    /// Per-tenant counters, sorted by session id. Empty on single-tenant
    /// clusters (the implicit session records nothing here).
    pub tenants: Vec<(SessionId, TenantCounters)>,
    /// Gather-wait latency histogram.
    pub gather_wait_hist: HistSnapshot,
    /// Per-task executor-slot time histogram (gather through report).
    pub exec_hist: HistSnapshot,
    /// Queue-delay (assign → dequeue) latency histogram.
    pub queue_delay_hist: HistSnapshot,
    /// Placement-pass latency histogram.
    pub assign_pass_hist: HistSnapshot,
}

impl StatsSnapshot {
    /// Freeze the live counters. Safe on a completely idle cluster: every
    /// derived ratio is `0.0`, never NaN.
    pub fn capture(stats: &SchedulerStats) -> Self {
        StatsSnapshot {
            readings: stats.readings(),
            fused_chain_hist: stats.fused_chain_hist(),
            burst_hist: stats.burst_hist(),
            trace_dropped: 0,
            tenants: stats.tenant_snapshot(),
            gather_wait_hist: HistSnapshot::capture(stats.gather_wait_hist()),
            exec_hist: HistSnapshot::capture(stats.exec_hist()),
            queue_delay_hist: HistSnapshot::capture(stats.queue_delay_hist()),
            assign_pass_hist: HistSnapshot::capture(stats.assign_pass_hist()),
        }
    }

    /// [`StatsSnapshot::capture`] plus the trace recorder's drop counts, so
    /// consumers can tell a complete trace from a clipped one. Non-draining:
    /// the rings keep their events.
    pub fn capture_with_tracer(stats: &SchedulerStats, tracer: &TraceRecorder) -> Self {
        let mut snap = StatsSnapshot::capture(stats);
        snap.trace_dropped = tracer.dropped_total();
        snap
    }

    /// Serialize to the shared JSON schema: every section holds its registry
    /// counters in table order, then its non-registry values.
    pub fn to_json(&self) -> Json {
        SECTIONS.iter().fold(Json::obj(), |doc, &section| {
            let counters = COUNTERS
                .iter()
                .filter(|row| row.section == section)
                .fold(Json::obj(), |obj, row| {
                    obj.set(row.key, self.readings.get(row.counter))
                });
            doc.set(section, self.close_section(section, counters))
        })
    }

    /// Append the values of `section` that are not registry counters:
    /// per-class and per-lane families, derived values, histograms, the
    /// trace-drop count and the per-tenant table.
    fn close_section(&self, section: &str, obj: Json) -> Json {
        let r = &self.readings;
        let size_hist = |hist: &[u64; N_SIZE_BUCKETS]| {
            SIZE_BUCKET_LABELS
                .iter()
                .zip(hist)
                .fold(Json::obj(), |obj, (label, &n)| obj.set(label, n))
        };
        match section {
            "messages" => MsgClass::ALL.iter().fold(obj, |obj, &c| {
                obj.set(
                    c.name(),
                    Json::obj()
                        .set("count", r.count(c))
                        .set("bytes", r.bytes(c)),
                )
            }),
            "paper_metrics" => obj
                .set("scheduler_control_messages", r.scheduler_control_messages())
                .set("bridge_metadata_messages", r.bridge_metadata_messages()),
            "gather" => obj.set("wait_hist", self.gather_wait_hist.to_json()),
            "executors" => obj
                .set("utilization", r.executor_utilization())
                .set("exec_hist", self.exec_hist.to_json())
                .set("queue_delay_hist", self.queue_delay_hist.to_json()),
            "optimizer" => obj.set("chain_hist", size_hist(&self.fused_chain_hist)),
            "ingest" => obj
                .set("avg_msgs_per_burst", r.avg_msgs_per_burst())
                .set("burst_hist", size_hist(&self.burst_hist)),
            "assign" => obj
                .set("avg_tasks_per_message", r.avg_tasks_per_assign_message())
                .set("pass_hist", self.assign_pass_hist.to_json()),
            "wire" => {
                let lanes = WireLane::ALL.iter().fold(Json::obj(), |lanes, &l| {
                    lanes.set(
                        l.name(),
                        Json::obj()
                            .set("messages", r.wire_messages(l))
                            .set("bytes", r.wire_bytes(l)),
                    )
                });
                obj.set("lanes", lanes)
                    .set("total_messages", r.wire_total_messages())
                    .set("total_bytes", r.wire_total_bytes())
            }
            "trace" => obj.set("dropped", self.trace_dropped),
            "tenancy" => {
                let sessions = self.tenants.iter().fold(Json::obj(), |sessions, (s, t)| {
                    sessions.set(
                        &s.to_string(),
                        Json::obj()
                            .set("tasks", t.tasks)
                            .set("bytes", t.bytes)
                            .set("queue_depth", t.queue_depth)
                            .set("admission_rejections", t.admission_rejections),
                    )
                });
                obj.set("sessions", sessions)
            }
            _ => obj,
        }
    }

    /// Pretty JSON document (what the benches write under `results/`).
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Prometheus text exposition (format 0.0.4): every metric family gets a
    /// `# HELP` and `# TYPE` header, counters end in `_total`, histograms
    /// emit `_bucket`/`_sum`/`_count` triples with cumulative `le` labels in
    /// seconds, and the document ends with a newline.
    pub fn to_prometheus(&self) -> String {
        fn family(out: &mut String, name: &str, help: &str, kind: &str) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        }
        let r = &self.readings;
        let mut out = String::new();
        for (name, help, read) in [
            (
                "dtask_messages_total",
                "Messages recorded at the scheduler by class.",
                Readings::count as fn(&Readings, MsgClass) -> u64,
            ),
            (
                "dtask_message_bytes_total",
                "Payload bytes recorded at the scheduler by class.",
                Readings::bytes,
            ),
        ] {
            family(&mut out, name, help, "counter");
            for c in MsgClass::ALL {
                let (class, v) = (c.name(), read(r, c));
                out.push_str(&format!("{name}{{class=\"{class}\"}} {v}\n"));
            }
        }
        for (name, help, v) in [
            (
                "dtask_scheduler_control_messages_total",
                "Control-plane messages that hit the scheduler (the paper's bottleneck metric).",
                r.scheduler_control_messages(),
            ),
            (
                "dtask_bridge_metadata_messages_total",
                "Bridge/client metadata messages per the paper's section 2.1 accounting.",
                r.bridge_metadata_messages(),
            ),
        ] {
            family(&mut out, name, help, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, help, read) in [
            (
                "dtask_wire_messages_total",
                "Framed transport messages encoded, by destination lane.",
                Readings::wire_messages as fn(&Readings, WireLane) -> u64,
            ),
            (
                "dtask_wire_bytes_total",
                "Serialized bytes-on-the-wire, by destination lane.",
                Readings::wire_bytes,
            ),
        ] {
            family(&mut out, name, help, "counter");
            for l in WireLane::ALL {
                let (lane, v) = (l.name(), read(r, l));
                out.push_str(&format!("{name}{{lane=\"{lane}\"}} {v}\n"));
            }
        }
        family(
            &mut out,
            "dtask_executor_utilization",
            "Executor busy time over busy plus idle time.",
            "gauge",
        );
        out.push_str(&format!(
            "dtask_executor_utilization {}\n",
            r.executor_utilization()
        ));
        // Registry counters with a family, in table order. The trace-drop
        // count is the tracer's, not the registry's; its family sits between
        // the store and telemetry rows.
        let registry = |rows: &'static [CounterDef]| {
            rows.iter()
                .filter_map(|row| Some((row.family?, row.help, r.get(row.counter))))
        };
        let (head, tail) = COUNTERS.split_at(Counter::StragglersFlagged as usize);
        let trace = (
            "dtask_trace_dropped_total",
            "Trace events lost to full per-actor rings.",
            self.trace_dropped,
        );
        for (name, help, v) in registry(head).chain([trace]).chain(registry(tail)) {
            family(&mut out, name, help, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        if !self.tenants.is_empty() {
            for (name, help, kind, read) in [
                (
                    "dtask_tenant_tasks_total",
                    "Tasks admitted per session.",
                    "counter",
                    (|t: &TenantCounters| t.tasks) as fn(&TenantCounters) -> u64,
                ),
                (
                    "dtask_tenant_bytes_total",
                    "Result payload bytes reported per session.",
                    "counter",
                    |t: &TenantCounters| t.bytes,
                ),
                (
                    "dtask_tenant_queue_depth",
                    "In-flight tasks per session.",
                    "gauge",
                    |t: &TenantCounters| t.queue_depth,
                ),
                (
                    "dtask_tenant_admission_rejections_total",
                    "Graphs rejected by admission control per session.",
                    "counter",
                    |t: &TenantCounters| t.admission_rejections,
                ),
            ] {
                family(&mut out, name, help, kind);
                for (session, t) in &self.tenants {
                    out.push_str(&format!("{name}{{session=\"{session}\"}} {}\n", read(t)));
                }
            }
        }
        for (name, help, hist) in [
            (
                "dtask_gather_wait_seconds",
                "Wall time spent waiting on dependency gathers.",
                &self.gather_wait_hist,
            ),
            (
                "dtask_exec_seconds",
                "Executor slot time per task: gather, parameter resolution, compute, store insert and report.",
                &self.exec_hist,
            ),
            (
                "dtask_queue_delay_seconds",
                "Delay between scheduler assignment and slot dequeue.",
                &self.queue_delay_hist,
            ),
            (
                "dtask_assign_pass_seconds",
                "Wall time of one scheduler placement pass.",
                &self.assign_pass_hist,
            ),
        ] {
            family(&mut out, name, help, "histogram");
            let mut cumulative = 0u64;
            for (i, &b) in hist.buckets.iter().enumerate() {
                cumulative += b;
                if b == 0 {
                    continue; // sparse exposition: only non-empty buckets
                }
                let le = (1u64 << (i + 1)) as f64 / 1e9;
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                hist.count,
                hist.sum_ns as f64 / 1e9,
                hist.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cluster_snapshot_is_all_zero_and_finite() {
        // Satellite (b): snapshot on a cluster that never did any work must
        // produce defined values everywhere — 0 / 0.0, never NaN.
        let stats = SchedulerStats::new();
        let snap = StatsSnapshot::capture(&stats);
        assert_eq!(snap.readings, Readings::ZERO);
        assert_eq!(snap.readings.executor_utilization(), 0.0);
        assert_eq!(snap.readings.avg_msgs_per_burst(), 0.0);
        assert_eq!(snap.readings.avg_tasks_per_assign_message(), 0.0);
        assert_eq!(snap.exec_hist.count, 0);
        assert_eq!(snap.exec_hist.mean_ns, 0.0);
        assert_eq!(snap.exec_hist.p99_ns, 0);
        let text = snap.to_json_string_pretty();
        assert!(!text.contains("NaN"), "JSON must stay parseable");
        let prom = snap.to_prometheus();
        assert!(prom.contains("dtask_executor_utilization 0"));
    }

    #[test]
    fn snapshot_reflects_recorded_activity() {
        let stats = SchedulerStats::new();
        stats.record(MsgClass::Heartbeat, 8);
        stats.record_n(MsgClass::UpdateData, 4, 400);
        stats.record_gather(3, 9_000);
        stats.record_exec_busy(20_000);
        stats.add(Counter::ExecIdleNs, 20_000);
        stats.record_queue_delay(1_500);
        stats.record_assign_pass(800);
        stats.record_burst(6);
        stats.record_assign(6, 2);
        let snap = StatsSnapshot::capture(&stats);
        let r = &snap.readings;
        assert_eq!(r.count(MsgClass::Heartbeat), 1);
        assert_eq!(r.get(Counter::GatherBatches), 1);
        assert_eq!(r.get(Counter::GatherDeps), 3);
        assert!((r.executor_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.avg_msgs_per_burst(), 6.0);
        assert_eq!(r.avg_tasks_per_assign_message(), 3.0);
        assert_eq!(snap.queue_delay_hist.count, 1);
        assert_eq!(snap.queue_delay_hist.sum_ns, 1_500);
    }

    #[test]
    fn json_document_has_the_shared_schema_sections() {
        let stats = SchedulerStats::new();
        stats.record(MsgClass::GraphSubmit, 64);
        let doc = StatsSnapshot::capture(&stats).to_json();
        for section in [
            "messages",
            "paper_metrics",
            "gather",
            "executors",
            "optimizer",
            "ingest",
            "assign",
            "wire",
            "fault",
            "steal",
            "store",
            "trace",
            "telemetry",
        ] {
            assert!(doc.get(section).is_some(), "missing section {section}");
        }
        // A registry row whose section is not in SECTIONS would vanish.
        for row in &COUNTERS {
            let sec = doc.get(row.section);
            assert!(
                sec.and_then(|s| s.get(row.key)).is_some(),
                "{:?} missing at {}.{}",
                row.counter,
                row.section,
                row.key
            );
        }
        assert_eq!(
            doc.get("messages")
                .and_then(|m| m.get("graph_submit"))
                .and_then(|g| g.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn fault_section_reflects_recovery_counters() {
        let stats = SchedulerStats::new();
        stats.add(Counter::PeersLost, 1);
        stats.add(Counter::TasksResubmitted, 1);
        stats.add(Counter::TasksResubmitted, 1);
        stats.add(Counter::ExternalBlocksLost, 1);
        let snap = StatsSnapshot::capture(&stats);
        assert_eq!(snap.readings.get(Counter::PeersLost), 1);
        assert_eq!(snap.readings.get(Counter::TasksResubmitted), 2);
        assert_eq!(snap.readings.get(Counter::ExternalBlocksLost), 1);
        let doc = snap.to_json();
        assert_eq!(
            doc.get("fault")
                .and_then(|f| f.get("peers_lost"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        let prom = snap.to_prometheus();
        assert!(prom.contains("dtask_fault_peers_lost_total 1"));
        assert!(prom.contains("dtask_fault_tasks_resubmitted_total 2"));
    }

    #[test]
    fn steal_section_reflects_stealing_counters() {
        let stats = SchedulerStats::new();
        stats.add(Counter::StealRequests, 1);
        stats.add(Counter::StealMisses, 1);
        stats.add(Counter::TasksStolen, 1);
        stats.add(Counter::TasksStolen, 1);
        let snap = StatsSnapshot::capture(&stats);
        assert_eq!(snap.readings.get(Counter::StealRequests), 1);
        assert_eq!(snap.readings.get(Counter::StealMisses), 1);
        assert_eq!(snap.readings.get(Counter::TasksStolen), 2);
        let doc = snap.to_json();
        assert_eq!(
            doc.get("steal")
                .and_then(|s| s.get("tasks_stolen"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        let prom = snap.to_prometheus();
        assert!(prom.contains("dtask_steal_requests_total 1"));
        assert!(prom.contains("dtask_steal_tasks_stolen_total 2"));
    }

    #[test]
    fn store_section_reflects_data_plane_counters() {
        let stats = SchedulerStats::new();
        stats.add(Counter::StoreHits, 1);
        stats.record_store_spill(4096);
        stats.record_proxy_put(8192);
        stats.record_proxy_fetch(8192);
        let snap = StatsSnapshot::capture(&stats);
        assert_eq!(snap.readings.get(Counter::StoreHits), 1);
        assert_eq!(snap.readings.get(Counter::StoreSpills), 1);
        assert_eq!(snap.readings.get(Counter::StoreSpillBytes), 4096);
        assert_eq!(snap.readings.get(Counter::ProxyPutBytes), 8192);
        assert_eq!(snap.readings.get(Counter::ProxyFetches), 1);
        let doc = snap.to_json();
        assert_eq!(
            doc.get("store")
                .and_then(|s| s.get("spills"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.get("store")
                .and_then(|s| s.get("proxy_fetch_bytes"))
                .and_then(Json::as_f64),
            Some(8192.0)
        );
        let prom = snap.to_prometheus();
        assert!(prom.contains("dtask_store_spills_total 1"));
        assert!(prom.contains("dtask_proxy_fetch_bytes_total 8192"));
    }

    #[test]
    fn trace_section_reflects_ring_drops() {
        use crate::trace::{EventKind, TraceActor, TraceConfig};
        let stats = SchedulerStats::new();
        let tracer = TraceRecorder::new(TraceConfig {
            enabled: true,
            capacity_per_actor: 2,
        });
        let h = tracer.register(TraceActor::Scheduler);
        for i in 0..6u64 {
            h.instant(EventKind::Submit, None, i);
        }
        let snap = StatsSnapshot::capture_with_tracer(&stats, &tracer);
        assert_eq!(snap.trace_dropped, 4);
        let doc = snap.to_json();
        assert_eq!(
            doc.get("trace")
                .and_then(|t| t.get("dropped"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        assert!(snap.to_prometheus().contains("dtask_trace_dropped_total 4"));
        // Plain capture leaves the field zero.
        assert_eq!(StatsSnapshot::capture(&stats).trace_dropped, 0);
    }

    #[test]
    fn telemetry_section_reflects_straggler_counter() {
        let stats = SchedulerStats::new();
        stats.add(Counter::StragglersFlagged, 1);
        let snap = StatsSnapshot::capture(&stats);
        assert_eq!(snap.readings.get(Counter::StragglersFlagged), 1);
        let doc = snap.to_json();
        assert_eq!(
            doc.get("telemetry")
                .and_then(|t| t.get("stragglers_flagged"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(snap
            .to_prometheus()
            .contains("dtask_stragglers_flagged_total 1"));
    }

    /// Satellite: golden schema round-trip. Activity is recorded into every
    /// counter section; the JSON document must survive a writer → parser
    /// round trip unchanged, and each section must also be represented in
    /// the Prometheus exposition.
    #[test]
    fn schema_sections_round_trip_through_json_and_prometheus() {
        use crate::trace::{EventKind, TraceActor, TraceConfig};
        let stats = SchedulerStats::new();
        stats.record(MsgClass::GraphSubmit, 64); // messages
        stats.record_wire(WireLane::SchedIn, 128); // wire
        stats.add(Counter::StealRequests, 1); // steal
        stats.add(Counter::TasksStolen, 1);
        stats.record_store_spill(4096); // store
        stats.add(Counter::PeersLost, 1); // fault
        stats.add(Counter::StragglersFlagged, 1); // telemetry
        stats.record_exec_busy(50_000);
        let tracer = TraceRecorder::new(TraceConfig {
            enabled: true,
            capacity_per_actor: 2,
        });
        let h = tracer.register(TraceActor::Scheduler);
        for _ in 0..3 {
            h.instant(EventKind::Submit, None, 0); // trace: 1 drop
        }
        let snap = StatsSnapshot::capture_with_tracer(&stats, &tracer);

        let doc = snap.to_json();
        for rendering in [doc.to_string_compact(), doc.to_string_pretty()] {
            let parsed = Json::parse(&rendering).expect("snapshot JSON must parse");
            assert_eq!(parsed, doc, "writer -> parser round trip must be lossless");
        }

        let prom = snap.to_prometheus();
        for (section, json_probe, prom_probe) in [
            (
                "messages",
                "graph_submit",
                "dtask_messages_total{class=\"graph_submit\"} 1",
            ),
            (
                "wire",
                "lanes",
                "dtask_wire_bytes_total{lane=\"sched_in\"} 128",
            ),
            ("steal", "tasks_stolen", "dtask_steal_tasks_stolen_total 1"),
            ("store", "spill_bytes", "dtask_store_spill_bytes_total 4096"),
            ("fault", "peers_lost", "dtask_fault_peers_lost_total 1"),
            ("trace", "dropped", "dtask_trace_dropped_total 1"),
            (
                "telemetry",
                "stragglers_flagged",
                "dtask_stragglers_flagged_total 1",
            ),
        ] {
            let sec = doc.get(section).unwrap_or_else(|| panic!("no {section}"));
            assert!(sec.get(json_probe).is_some(), "{section}.{json_probe}");
            assert!(prom.contains(prom_probe), "prometheus missing {prom_probe}");
        }
    }

    /// Satellite: exposition format lint. Checks the whole document against
    /// the text-format rules a Prometheus scraper enforces: HELP+TYPE per
    /// family, `_total` counter names, legal metric-name characters, sample
    /// names matching their family, and a trailing newline.
    #[test]
    fn prometheus_exposition_format_lint() {
        let stats = SchedulerStats::new();
        stats.record(MsgClass::TaskReport, 10);
        stats.record_exec_busy(12_345);
        stats.record_wire(WireLane::ReplyIn, 99);
        let prom = StatsSnapshot::capture(&stats).to_prometheus();
        assert!(prom.ends_with('\n'), "exposition must end with a newline");

        let valid_name = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut family: Option<(String, String)> = None; // (name, kind)
        let mut seen_families = std::collections::HashSet::new();
        let mut pending_help: Option<String> = None;
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                assert!(valid_name(name), "bad HELP name {name:?}");
                assert!(
                    rest.len() > name.len() + 1,
                    "HELP for {name} must carry text"
                );
                pending_help = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                assert!(valid_name(name), "bad TYPE name {name:?}");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown type {kind:?} for {name}"
                );
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(name),
                    "TYPE for {name} must directly follow its HELP"
                );
                assert!(
                    seen_families.insert(name.to_string()),
                    "family {name} declared twice"
                );
                if kind == "counter" {
                    assert!(name.ends_with("_total"), "counter {name} must end _total");
                }
                family = Some((name.to_string(), kind.to_string()));
            } else {
                let sample_name = line.split(['{', ' ']).next().unwrap_or_default();
                assert!(valid_name(sample_name), "bad sample name in {line:?}");
                let (fam_name, fam_kind) = family.as_ref().expect("sample before any family");
                let belongs = match fam_kind.as_str() {
                    "histogram" => {
                        sample_name == format!("{fam_name}_bucket")
                            || sample_name == format!("{fam_name}_sum")
                            || sample_name == format!("{fam_name}_count")
                    }
                    _ => sample_name == *fam_name,
                };
                assert!(belongs, "sample {sample_name} outside family {fam_name}");
                let value = line.rsplit(' ').next().unwrap_or("");
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable sample value in {line:?}"
                );
            }
        }
        assert!(pending_help.is_none(), "dangling HELP without TYPE");
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let stats = SchedulerStats::new();
        stats.record_exec_busy(100); // bucket 6 ([64,128))
        stats.record_exec_busy(100);
        stats.record_exec_busy(100_000); // higher bucket
        let prom = StatsSnapshot::capture(&stats).to_prometheus();
        // The higher bucket's cumulative count includes the lower one.
        assert!(prom.contains("dtask_exec_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("dtask_exec_seconds_count 3"));
        let lines: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("dtask_exec_seconds_bucket{le=\"") && !l.contains("+Inf"))
            .collect();
        assert_eq!(lines.len(), 2, "two non-empty buckets");
        assert!(lines[0].ends_with(" 2"));
        assert!(lines[1].ends_with(" 3"));
    }
}
