//! Message and byte accounting.
//!
//! The paper's scalability argument is a *message-count* argument: DEISA1
//! sends `2 · timesteps · ranks + heartbeats` metadata messages to the
//! centralized scheduler, the external-task version only `1 + ranks` at
//! startup. These counters make those formulas measurable in the real
//! runtime (integration tests assert them) and calibrate the DES models.
//!
//! Every scalar counter is one [`Counter`] variant plus one row of the
//! [`COUNTERS`] registry. The row names its snapshot JSON section and key,
//! its Prometheus family and its help text; [`SchedulerStats`] stores the
//! values in one array behind [`SchedulerStats::add`] / [`SchedulerStats::get`],
//! and [`StatsSnapshot`](crate::StatsSnapshot) renders both documents by
//! walking the table.

use crate::key::SessionId;
use crate::optimize::OptimizeReport;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Classes of messages arriving at the scheduler, plus data-plane traffic.
/// The discriminant is the class's slot in the per-class arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// `SubmitGraph` messages.
    GraphSubmit,
    /// Individual task specs received across all submissions.
    TaskSubmitted,
    /// `RegisterExternal` messages.
    RegisterExternal,
    /// `UpdateData` messages from classic scatter (metadata-bearing).
    UpdateData,
    /// `UpdateData` messages in external mode (§2.2): completion
    /// notifications of external tasks — the paper does not count these as
    /// metadata.
    UpdateDataExternal,
    /// `TaskFinished`/`TaskErred` worker reports.
    TaskReport,
    /// `WantResult` requests.
    WantResult,
    /// Variable operations (set/get/del).
    Variable,
    /// Queue operations (push/pop).
    Queue,
    /// Heartbeats.
    Heartbeat,
    /// Scatter payload messages client→worker (data plane).
    ScatterData,
    /// Gather payload messages worker→client (data plane).
    GatherData,
    /// Peer dependency fetches worker→worker (data plane).
    PeerFetch,
    /// `AddReplica` reports from workers that cached remote blocks.
    AddReplica,
    /// Worker liveness pings (off unless failure detection is enabled; never
    /// part of the paper's bridge-metadata accounting).
    WorkerHeartbeat,
}

const N_CLASSES: usize = 15;

impl MsgClass {
    /// Every class, in discriminant order (snapshot serialization iterates this).
    pub const ALL: [MsgClass; N_CLASSES] = [
        MsgClass::GraphSubmit,
        MsgClass::TaskSubmitted,
        MsgClass::RegisterExternal,
        MsgClass::UpdateData,
        MsgClass::UpdateDataExternal,
        MsgClass::TaskReport,
        MsgClass::WantResult,
        MsgClass::Variable,
        MsgClass::Queue,
        MsgClass::Heartbeat,
        MsgClass::ScatterData,
        MsgClass::GatherData,
        MsgClass::PeerFetch,
        MsgClass::AddReplica,
        MsgClass::WorkerHeartbeat,
    ];

    /// Stable snake_case name (snapshot / Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::GraphSubmit => "graph_submit",
            MsgClass::TaskSubmitted => "task_submitted",
            MsgClass::RegisterExternal => "register_external",
            MsgClass::UpdateData => "update_data",
            MsgClass::UpdateDataExternal => "update_data_external",
            MsgClass::TaskReport => "task_report",
            MsgClass::WantResult => "want_result",
            MsgClass::Variable => "variable",
            MsgClass::Queue => "queue",
            MsgClass::Heartbeat => "heartbeat",
            MsgClass::ScatterData => "scatter_data",
            MsgClass::GatherData => "gather_data",
            MsgClass::PeerFetch => "peer_fetch",
            MsgClass::AddReplica => "add_replica",
            MsgClass::WorkerHeartbeat => "worker_heartbeat",
        }
    }
}

/// Destination lanes of the framed transport backends. One lane per
/// payload family, so "scheduler inbound" — the paper's bottleneck — is a
/// single counter read. Only the Framed/SimNet backends record here;
/// InProc stays at zero by design. The discriminant is the lane's slot in
/// the per-lane arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireLane {
    /// Messages into the scheduler (the centralized bottleneck).
    SchedIn,
    /// Assignments into worker executor inboxes.
    ExecIn,
    /// Requests into worker data servers.
    DataIn,
    /// Notifications into client inboxes.
    ClientIn,
    /// Correlated replies (acks, gather payloads, stats).
    ReplyIn,
}

/// Number of [`WireLane`]s.
pub const N_WIRE_LANES: usize = 5;

impl WireLane {
    /// Every lane, in discriminant order (snapshot serialization iterates this).
    pub const ALL: [WireLane; N_WIRE_LANES] = [
        WireLane::SchedIn,
        WireLane::ExecIn,
        WireLane::DataIn,
        WireLane::ClientIn,
        WireLane::ReplyIn,
    ];

    /// Stable snake_case name (snapshot / Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            WireLane::SchedIn => "sched_in",
            WireLane::ExecIn => "exec_in",
            WireLane::DataIn => "data_in",
            WireLane::ClientIn => "client_in",
            WireLane::ReplyIn => "reply_in",
        }
    }
}

/// A zeroed array of atomics.
fn zeroed<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Relaxed load of every slot.
fn load<const N: usize>(slots: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| slots[i].load(Ordering::Relaxed))
}

/// Buckets of one [`LatencyHist`]: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0 ns); the last bucket
/// absorbs everything from ~34 s up.
pub const N_LAT_BUCKETS: usize = 36;

/// A log₂-bucketed latency histogram over nanosecond samples. Recording is a
/// couple of relaxed `fetch_add`s — the same cost class as the message
/// counters, so the histograms stay on even when event tracing is off.
#[derive(Debug)]
pub struct LatencyHist {
    buckets: [AtomicU64; N_LAT_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: zeroed(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// Bucket index of one nanosecond sample.
fn lat_bucket(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros() as usize).min(N_LAT_BUCKETS - 1)
}

impl LatencyHist {
    /// Record one sample.
    pub fn record(&self, ns: u64) {
        self.buckets[lat_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Mean sample in nanoseconds; `0.0` for an empty histogram (never NaN).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.sum_ns(), self.count())
    }

    /// Approximate quantile (`0.0..=1.0`): upper bound of the bucket holding
    /// the q-th sample. `0` for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << N_LAT_BUCKETS
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> [u64; N_LAT_BUCKETS] {
        load(&self.buckets)
    }
}

/// One scalar counter. Each variant has exactly one row in [`COUNTERS`]
/// (same position), which says what it counts and where it is exported.
/// The discriminant is the counter's slot in the value arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    GatherBatches,
    GatherDeps,
    GatherWaitNs,
    ExecBusyNs,
    ExecIdleNs,
    IngestBursts,
    IngestMsgs,
    AssignPasses,
    AssignPassNs,
    AssignTasks,
    AssignMessages,
    OptimizeTasksIn,
    OptimizeTasksOut,
    OptimizeCulled,
    FusedChains,
    FusedStages,
    PeersLost,
    PeersTracked,
    TasksResubmitted,
    RetriesExhausted,
    ExternalBlocksLost,
    Recomputes,
    InjectedDrops,
    InjectedKills,
    StealRequests,
    StealMisses,
    TasksStolen,
    StoreHits,
    StoreMisses,
    StoreSpills,
    StoreRestores,
    StoreSpillBytes,
    ProxyPuts,
    ProxyPutBytes,
    ProxyFetches,
    ProxyFetchBytes,
    StragglersFlagged,
    NotifiesDropped,
    AdmissionRejections,
}

/// Number of [`Counter`]s: the last variant's slot plus one (a new last
/// variant moves this anchor; the table length then has to follow).
pub const N_COUNTERS: usize = Counter::AdmissionRejections as usize + 1;

/// One registry row: where a [`Counter`] appears in the snapshot documents
/// and what it means.
#[derive(Debug)]
pub struct CounterDef {
    /// The counter this row describes.
    pub counter: Counter,
    /// Section of the snapshot JSON document holding the counter.
    pub section: &'static str,
    /// Key of the counter inside its section.
    pub key: &'static str,
    /// Prometheus counter family; `None` keeps the counter JSON-only.
    pub family: Option<&'static str>,
    /// What the counter counts (the family's `# HELP` text).
    pub help: &'static str,
}

const fn def(
    counter: Counter,
    section: &'static str,
    key: &'static str,
    family: Option<&'static str>,
    help: &'static str,
) -> CounterDef {
    CounterDef {
        counter,
        section,
        key,
        family,
        help,
    }
}

/// The counter registry, one row per [`Counter`] in variant order. Row
/// order is also the order of the keys inside each JSON section and of the
/// scalar families in the Prometheus exposition.
#[rustfmt::skip]
pub const COUNTERS: [CounterDef; N_COUNTERS] = {
    use Counter::*;
    [
        def(GatherBatches, "gather", "batches", Some("dtask_gather_batches_total"),
            "Dependency gathers that needed at least one remote fetch."),
        def(GatherDeps, "gather", "remote_deps", Some("dtask_gather_remote_deps_total"),
            "Remote dependencies fetched across all gathers."),
        def(GatherWaitNs, "gather", "wait_ns", None,
            "Wall time spent waiting on remote dependency gathers (ns)."),
        def(ExecBusyNs, "executors", "busy_ns", None,
            "Wall time executor slots spent running tasks, gather included (ns)."),
        def(ExecIdleNs, "executors", "idle_ns", None,
            "Wall time executor slots spent blocked on an empty inbox (ns)."),
        def(IngestBursts, "ingest", "bursts", Some("dtask_ingest_bursts_total"),
            "Scheduler inbox bursts drained."),
        def(IngestMsgs, "ingest", "messages", Some("dtask_ingest_messages_total"),
            "Messages absorbed across all inbox bursts."),
        def(AssignPasses, "assign", "passes", Some("dtask_assign_passes_total"),
            "Scheduler placement passes run."),
        def(AssignPassNs, "assign", "pass_ns", None,
            "Wall time spent inside placement passes (ns)."),
        def(AssignTasks, "assign", "tasks", Some("dtask_assign_tasks_total"),
            "Tasks assigned to workers."),
        def(AssignMessages, "assign", "messages", Some("dtask_assign_messages_total"),
            "Execute/ExecuteBatch messages sent to workers."),
        def(OptimizeTasksIn, "optimizer", "tasks_in", Some("dtask_optimize_tasks_in_total"),
            "Tasks in submitted graphs before optimization."),
        def(OptimizeTasksOut, "optimizer", "tasks_out", Some("dtask_optimize_tasks_out_total"),
            "Specs sent to the scheduler after cull and fuse."),
        def(OptimizeCulled, "optimizer", "culled", Some("dtask_optimize_culled_total"),
            "Tasks dropped by the optimizer cull pass."),
        def(FusedChains, "optimizer", "fused_chains", None,
            "Fused chains produced by the optimizer."),
        def(FusedStages, "optimizer", "fused_stages", None,
            "Original tasks absorbed into fused chains."),
        def(PeersLost, "fault", "peers_lost", Some("dtask_fault_peers_lost_total"),
            "Peers declared dead by the liveness sweep."),
        def(PeersTracked, "fault", "peers_tracked", Some("dtask_fault_peers_tracked_total"),
            "Distinct peers whose heartbeats were tracked."),
        def(TasksResubmitted, "fault", "tasks_resubmitted", Some("dtask_fault_tasks_resubmitted_total"),
            "Tasks re-queued after a peer loss."),
        def(RetriesExhausted, "fault", "retries_exhausted", Some("dtask_fault_retries_exhausted_total"),
            "Tasks failed after exhausting their retry budget."),
        def(ExternalBlocksLost, "fault", "external_blocks_lost", Some("dtask_fault_external_blocks_lost_total"),
            "External blocks lost beyond recovery."),
        def(Recomputes, "fault", "recomputes", Some("dtask_fault_recomputes_total"),
            "Lost results re-queued for recompute."),
        def(InjectedDrops, "fault", "injected_drops", Some("dtask_fault_injected_drops_total"),
            "Messages dropped by the active fault-injection plan."),
        def(InjectedKills, "fault", "injected_kills", Some("dtask_fault_injected_kills_total"),
            "Workers killed by fault injection."),
        def(StealRequests, "steal", "requests", Some("dtask_steal_requests_total"),
            "StealRequest messages from idle workers."),
        def(StealMisses, "steal", "misses", Some("dtask_steal_misses_total"),
            "Steal attempts that found nothing to take."),
        def(TasksStolen, "steal", "tasks_stolen", Some("dtask_steal_tasks_stolen_total"),
            "Assignments re-pointed from a victim to a thief."),
        def(StoreHits, "store", "hits", Some("dtask_store_hits_total"),
            "Object-store lookups answered from memory."),
        def(StoreMisses, "store", "misses", Some("dtask_store_misses_total"),
            "Object-store lookups that found nothing."),
        def(StoreSpills, "store", "spills", Some("dtask_store_spills_total"),
            "Store entries spilled to disk under memory pressure."),
        def(StoreRestores, "store", "restores", Some("dtask_store_restores_total"),
            "Spilled store entries restored on access."),
        def(StoreSpillBytes, "store", "spill_bytes", Some("dtask_store_spill_bytes_total"),
            "Payload bytes written by store spills."),
        def(ProxyPuts, "store", "proxy_puts", Some("dtask_proxy_puts_total"),
            "Payloads published out-of-band behind proxy handles."),
        def(ProxyPutBytes, "store", "proxy_put_bytes", Some("dtask_proxy_put_bytes_total"),
            "Payload bytes published out-of-band."),
        def(ProxyFetches, "store", "proxy_fetches", Some("dtask_proxy_fetches_total"),
            "Proxy handles resolved by fetching from a holder."),
        def(ProxyFetchBytes, "store", "proxy_fetch_bytes", Some("dtask_proxy_fetch_bytes_total"),
            "Payload bytes moved by proxy-handle resolution."),
        def(StragglersFlagged, "telemetry", "stragglers_flagged", Some("dtask_stragglers_flagged_total"),
            "Task executions flagged as stragglers by the online detector."),
        def(NotifiesDropped, "tenancy", "notifies_dropped", Some("dtask_sched_notifies_dropped_total"),
            "Client notifications dropped because the client channel was gone."),
        def(AdmissionRejections, "tenancy", "admission_rejections", Some("dtask_admission_rejections_total"),
            "Graphs rejected by per-session admission control, all tenants."),
    ]
};

// Rows must sit at their counter's slot: a misplaced row fails the build.
const _: () = {
    let mut i = 0;
    while i < N_COUNTERS {
        assert!(
            COUNTERS[i].counter as usize == i,
            "COUNTERS row out of Counter order"
        );
        i += 1;
    }
};

/// Cluster-wide counters, shared via `Arc` by every actor.
#[derive(Debug)]
pub struct SchedulerStats {
    /// Registry counters, indexed by [`Counter`].
    counters: [AtomicU64; N_COUNTERS],
    /// Messages per [`MsgClass`].
    class_counts: [AtomicU64; N_CLASSES],
    /// Payload bytes per [`MsgClass`].
    class_bytes: [AtomicU64; N_CLASSES],
    /// Framed/SimNet transport: messages per destination lane.
    wire_msgs: [AtomicU64; N_WIRE_LANES],
    /// Framed/SimNet transport: real serialized bytes per destination lane.
    wire_bytes: [AtomicU64; N_WIRE_LANES],
    /// Fused-chain length histogram, bucketed by [`size_bucket`].
    fused_chain_hist: [AtomicU64; N_SIZE_BUCKETS],
    /// Burst-size histogram, bucketed by [`size_bucket`].
    burst_hist: [AtomicU64; N_SIZE_BUCKETS],
    /// Latency of each dependency-gather batch (wall wait per batch).
    gather_wait_hist: LatencyHist,
    /// Executor-slot time of each task: dependency gather, parameter
    /// resolution, compute, store insert and the report to the scheduler.
    exec_hist: LatencyHist,
    /// Queue delay: scheduler assignment → executor slot dequeue, per task.
    queue_delay_hist: LatencyHist,
    /// Latency of each placement pass.
    assign_pass_hist: LatencyHist,
    /// Per-tenant counters, keyed by session id. Touched only on the
    /// multi-tenant path (scoped messages), so single-tenant clusters never
    /// take this lock and their accounting stays identical to the seed.
    tenants: Mutex<HashMap<SessionId, TenantCounters>>,
}

/// Per-session (tenant) counters surfaced in `StatsSnapshot` and `/metrics`.
/// These live outside [`MsgClass`] so the paper's control/bridge message
/// accounting is never polluted by tenancy bookkeeping.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    /// Task specs submitted by this session (post-optimizer).
    pub tasks: u64,
    /// Result bytes produced by this session's tasks.
    pub bytes: u64,
    /// Tasks currently in flight (submitted, not yet terminal) — a gauge.
    pub queue_depth: u64,
    /// Graphs rejected by admission control.
    pub admission_rejections: u64,
}

/// Histogram bucket count shared by the fused-chain and burst histograms.
pub const N_SIZE_BUCKETS: usize = 6;

/// Bucket a size into `[≤1, 2, 3–4, 5–8, 9–16, >16]`.
pub fn size_bucket(n: u64) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Human-readable labels for [`size_bucket`] (reports and bench output).
pub const SIZE_BUCKET_LABELS: [&str; N_SIZE_BUCKETS] = ["<=1", "2", "3-4", "5-8", "9-16", ">16"];

impl Default for SchedulerStats {
    fn default() -> Self {
        SchedulerStats {
            counters: zeroed(),
            class_counts: zeroed(),
            class_bytes: zeroed(),
            wire_msgs: zeroed(),
            wire_bytes: zeroed(),
            fused_chain_hist: zeroed(),
            burst_hist: zeroed(),
            gather_wait_hist: LatencyHist::default(),
            exec_hist: LatencyHist::default(),
            queue_delay_hist: LatencyHist::default(),
            assign_pass_hist: LatencyHist::default(),
            tenants: Mutex::default(),
        }
    }
}

impl SchedulerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        SchedulerStats::default()
    }

    /// Add `n` to one registry counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one registry counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Every scalar at once: registry counters, per-class and per-lane
    /// traffic. The derived values live on [`Readings`].
    pub fn readings(&self) -> Readings {
        Readings {
            counters: load(&self.counters),
            class_counts: load(&self.class_counts),
            class_bytes: load(&self.class_bytes),
            wire_msgs: load(&self.wire_msgs),
            wire_bytes: load(&self.wire_bytes),
        }
    }

    /// Record one message of `class` carrying `nbytes` payload.
    pub fn record(&self, class: MsgClass, nbytes: u64) {
        self.record_n(class, 1, nbytes);
    }

    /// Record `n` messages at once.
    pub fn record_n(&self, class: MsgClass, n: u64, nbytes: u64) {
        self.class_counts[class as usize].fetch_add(n, Ordering::Relaxed);
        self.class_bytes[class as usize].fetch_add(nbytes, Ordering::Relaxed);
    }

    /// Message count of one class.
    pub fn count(&self, class: MsgClass) -> u64 {
        self.class_counts[class as usize].load(Ordering::Relaxed)
    }

    /// Byte volume of one class.
    pub fn bytes(&self, class: MsgClass) -> u64 {
        self.class_bytes[class as usize].load(Ordering::Relaxed)
    }

    /// Record one framed transport message of `bytes` serialized size.
    pub fn record_wire(&self, lane: WireLane, bytes: u64) {
        self.wire_msgs[lane as usize].fetch_add(1, Ordering::Relaxed);
        self.wire_bytes[lane as usize].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Framed messages sent on one lane.
    pub fn wire_messages(&self, lane: WireLane) -> u64 {
        self.wire_msgs[lane as usize].load(Ordering::Relaxed)
    }

    /// Serialized bytes sent on one lane.
    pub fn wire_bytes(&self, lane: WireLane) -> u64 {
        self.wire_bytes[lane as usize].load(Ordering::Relaxed)
    }

    /// Record one dependency-gather batch: `deps` remote fetches resolved in
    /// `wait_ns` of wall time (concurrent fetches overlap inside one batch).
    pub fn record_gather(&self, deps: u64, wait_ns: u64) {
        self.add(Counter::GatherBatches, 1);
        self.add(Counter::GatherDeps, deps);
        self.add(Counter::GatherWaitNs, wait_ns);
        self.gather_wait_hist.record(wait_ns);
    }

    /// Record time an executor slot spent running a task.
    pub fn record_exec_busy(&self, ns: u64) {
        self.add(Counter::ExecBusyNs, ns);
        self.exec_hist.record(ns);
    }

    /// Record one task's queue delay: scheduler assignment → slot dequeue.
    pub fn record_queue_delay(&self, ns: u64) {
        self.queue_delay_hist.record(ns);
    }

    /// Fold one graph-optimizer report into the counters.
    pub fn record_optimize(&self, report: &OptimizeReport) {
        self.add(Counter::OptimizeTasksIn, report.tasks_in as u64);
        self.add(Counter::OptimizeTasksOut, report.tasks_out as u64);
        self.add(Counter::OptimizeCulled, report.culled as u64);
        self.add(
            Counter::FusedChains,
            report.fused_chain_lengths.len() as u64,
        );
        for &len in &report.fused_chain_lengths {
            self.add(Counter::FusedStages, len as u64);
            self.fused_chain_hist[size_bucket(len as u64)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one scheduler inbox burst of `n` messages.
    pub fn record_burst(&self, n: u64) {
        self.add(Counter::IngestBursts, 1);
        self.add(Counter::IngestMsgs, n);
        self.burst_hist[size_bucket(n)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one placement pass taking `ns` wall time.
    pub fn record_assign_pass(&self, ns: u64) {
        self.add(Counter::AssignPasses, 1);
        self.add(Counter::AssignPassNs, ns);
        self.assign_pass_hist.record(ns);
    }

    /// Record `tasks` assignments shipped in `messages` worker messages.
    pub fn record_assign(&self, tasks: u64, messages: u64) {
        self.add(Counter::AssignTasks, tasks);
        self.add(Counter::AssignMessages, messages);
    }

    /// Record one entry spilled to disk (`bytes` of payload written).
    pub fn record_store_spill(&self, bytes: u64) {
        self.add(Counter::StoreSpills, 1);
        self.add(Counter::StoreSpillBytes, bytes);
    }

    /// Record one payload published out-of-band (proxy put).
    pub fn record_proxy_put(&self, bytes: u64) {
        self.add(Counter::ProxyPuts, 1);
        self.add(Counter::ProxyPutBytes, bytes);
    }

    /// Record one proxy handle resolved via a data-lane fetch.
    pub fn record_proxy_fetch(&self, bytes: u64) {
        self.add(Counter::ProxyFetches, 1);
        self.add(Counter::ProxyFetchBytes, bytes);
    }

    /// Fused-chain length histogram (see [`SIZE_BUCKET_LABELS`]).
    pub fn fused_chain_hist(&self) -> [u64; N_SIZE_BUCKETS] {
        load(&self.fused_chain_hist)
    }

    /// Burst-size histogram (see [`SIZE_BUCKET_LABELS`]).
    pub fn burst_hist(&self) -> [u64; N_SIZE_BUCKETS] {
        load(&self.burst_hist)
    }

    /// Gather-wait latency histogram (one sample per gather batch).
    pub fn gather_wait_hist(&self) -> &LatencyHist {
        &self.gather_wait_hist
    }

    /// Per-task executor-slot time histogram (gather through report).
    pub fn exec_hist(&self) -> &LatencyHist {
        &self.exec_hist
    }

    /// Queue-delay (assign → dequeue) latency histogram.
    pub fn queue_delay_hist(&self) -> &LatencyHist {
        &self.queue_delay_hist
    }

    /// Placement-pass latency histogram.
    pub fn assign_pass_hist(&self) -> &LatencyHist {
        &self.assign_pass_hist
    }

    // ---- multi-tenant serving ------------------------------------------------

    /// Record one graph rejected by per-session admission control.
    pub fn record_admission_rejection(&self, session: SessionId) {
        self.add(Counter::AdmissionRejections, 1);
        self.tenants
            .lock()
            .entry(session)
            .or_default()
            .admission_rejections += 1;
    }

    /// Record `n` tasks submitted by one session.
    pub fn record_tenant_tasks(&self, session: SessionId, n: u64) {
        self.tenants.lock().entry(session).or_default().tasks += n;
    }

    /// Record `bytes` of results produced by one session.
    pub fn record_tenant_bytes(&self, session: SessionId, bytes: u64) {
        self.tenants.lock().entry(session).or_default().bytes += bytes;
    }

    /// Update one session's in-flight task gauge.
    pub fn set_tenant_queue_depth(&self, session: SessionId, depth: u64) {
        self.tenants.lock().entry(session).or_default().queue_depth = depth;
    }

    /// One tenant's counters (zeroed default if never seen).
    pub fn tenant(&self, session: SessionId) -> TenantCounters {
        self.tenants
            .lock()
            .get(&session)
            .cloned()
            .unwrap_or_default()
    }

    /// All tenant counters, sorted by session id (snapshot serialization).
    pub fn tenant_snapshot(&self) -> Vec<(SessionId, TenantCounters)> {
        let mut v: Vec<_> = self
            .tenants
            .lock()
            .iter()
            .map(|(s, c)| (*s, c.clone()))
            .collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    // ---- benchmark readers ---------------------------------------------------
    // `perfbench` (a workspace of its own, versioned with the benchmark
    // definition) calls these by name. Everything else reads
    // `get(Counter::X)` or `readings()`.

    /// See [`Readings::scheduler_control_messages`].
    pub fn scheduler_control_messages(&self) -> u64 {
        self.readings().scheduler_control_messages()
    }

    /// See [`Readings::wire_total_messages`].
    pub fn wire_total_messages(&self) -> u64 {
        self.readings().wire_total_messages()
    }

    /// `get(Counter::IngestBursts)`.
    pub fn ingest_bursts(&self) -> u64 {
        self.get(Counter::IngestBursts)
    }

    /// `get(Counter::IngestMsgs)`.
    pub fn ingest_msgs(&self) -> u64 {
        self.get(Counter::IngestMsgs)
    }

    /// `get(Counter::AssignPasses)`.
    pub fn assign_passes(&self) -> u64 {
        self.get(Counter::AssignPasses)
    }

    /// `get(Counter::AssignPassNs)`.
    pub fn assign_pass_ns(&self) -> u64 {
        self.get(Counter::AssignPassNs)
    }

    /// `get(Counter::AssignTasks)`.
    pub fn assign_tasks(&self) -> u64 {
        self.get(Counter::AssignTasks)
    }

    /// `get(Counter::AssignMessages)`.
    pub fn assign_messages(&self) -> u64 {
        self.get(Counter::AssignMessages)
    }

    /// `get(Counter::ExecBusyNs)`.
    pub fn exec_busy_ns(&self) -> u64 {
        self.get(Counter::ExecBusyNs)
    }

    /// `get(Counter::ExecIdleNs)`.
    pub fn exec_idle_ns(&self) -> u64 {
        self.get(Counter::ExecIdleNs)
    }

    /// `get(Counter::GatherWaitNs)`.
    pub fn gather_wait_ns(&self) -> u64 {
        self.get(Counter::GatherWaitNs)
    }

    /// `get(Counter::StoreHits)`.
    pub fn store_hits(&self) -> u64 {
        self.get(Counter::StoreHits)
    }

    /// `get(Counter::StoreMisses)`.
    pub fn store_misses(&self) -> u64 {
        self.get(Counter::StoreMisses)
    }

    /// `get(Counter::NotifiesDropped)`.
    pub fn notifies_dropped(&self) -> u64 {
        self.get(Counter::NotifiesDropped)
    }
}

/// `a / b` with an empty-run guard: `0.0` when `b == 0`, never NaN.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Every scalar of a [`SchedulerStats`] read at one instant: the registry
/// counters plus per-class and per-lane traffic. Each derived value is
/// defined here once; the live stats answer it from a fresh reading and a
/// [`StatsSnapshot`](crate::StatsSnapshot) from the reading it froze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readings {
    /// Registry counters, indexed by [`Counter`].
    counters: [u64; N_COUNTERS],
    /// Messages per class, indexed by [`MsgClass`].
    class_counts: [u64; N_CLASSES],
    /// Payload bytes per class, indexed by [`MsgClass`].
    class_bytes: [u64; N_CLASSES],
    /// Framed messages per lane, indexed by [`WireLane`].
    wire_msgs: [u64; N_WIRE_LANES],
    /// Serialized bytes per lane, indexed by [`WireLane`].
    wire_bytes: [u64; N_WIRE_LANES],
}

impl Readings {
    /// All zero: the reading of a fresh [`SchedulerStats`].
    pub(crate) const ZERO: Readings = Readings {
        counters: [0; N_COUNTERS],
        class_counts: [0; N_CLASSES],
        class_bytes: [0; N_CLASSES],
        wire_msgs: [0; N_WIRE_LANES],
        wire_bytes: [0; N_WIRE_LANES],
    };

    /// One registry counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Message count of one class.
    pub fn count(&self, class: MsgClass) -> u64 {
        self.class_counts[class as usize]
    }

    /// Byte volume of one class.
    pub fn bytes(&self, class: MsgClass) -> u64 {
        self.class_bytes[class as usize]
    }

    /// Framed messages sent on one lane.
    pub fn wire_messages(&self, lane: WireLane) -> u64 {
        self.wire_msgs[lane as usize]
    }

    /// Serialized bytes sent on one lane.
    pub fn wire_bytes(&self, lane: WireLane) -> u64 {
        self.wire_bytes[lane as usize]
    }

    /// Total *control-plane* messages that hit the scheduler (everything
    /// except the data-plane classes). This is the load the paper's formulas
    /// count.
    pub fn scheduler_control_messages(&self) -> u64 {
        use MsgClass::*;
        [
            GraphSubmit,
            RegisterExternal,
            UpdateData,
            UpdateDataExternal,
            TaskReport,
            AddReplica,
            WantResult,
            Variable,
            Queue,
            Heartbeat,
            WorkerHeartbeat,
        ]
        .into_iter()
        .map(|c| self.count(c))
        .sum()
    }

    /// Metadata messages *originating at bridges/clients* per the paper's
    /// accounting (§2.1): classic-scatter metadata + queue ops + variable
    /// ops + heartbeats. External-task completion notifications are data
    /// plane and excluded, exactly as the paper counts them.
    pub fn bridge_metadata_messages(&self) -> u64 {
        use MsgClass::*;
        [UpdateData, Variable, Queue, Heartbeat]
            .into_iter()
            .map(|c| self.count(c))
            .sum()
    }

    /// Framed messages across all lanes (`0` under InProc).
    pub fn wire_total_messages(&self) -> u64 {
        self.wire_msgs.iter().sum()
    }

    /// Serialized bytes across all lanes (`0` under InProc).
    pub fn wire_total_bytes(&self) -> u64 {
        self.wire_bytes.iter().sum()
    }

    /// Fraction of executor-slot wall time spent busy, in `[0, 1]`.
    /// An idle cluster (no slot activity yet) reports `0.0`, never NaN.
    pub fn executor_utilization(&self) -> f64 {
        let busy = self.get(Counter::ExecBusyNs);
        ratio(busy, busy + self.get(Counter::ExecIdleNs))
    }

    /// Mean messages absorbed per inbox burst (`0.0` before any burst).
    pub fn avg_msgs_per_burst(&self) -> f64 {
        ratio(
            self.get(Counter::IngestMsgs),
            self.get(Counter::IngestBursts),
        )
    }

    /// Mean remote dependencies per gather batch (`0.0` with no gathers).
    pub fn avg_gather_deps(&self) -> f64 {
        ratio(
            self.get(Counter::GatherDeps),
            self.get(Counter::GatherBatches),
        )
    }

    /// Mean gather wait per batch in ns (`0.0` with no gathers).
    pub fn avg_gather_wait_ns(&self) -> f64 {
        ratio(
            self.get(Counter::GatherWaitNs),
            self.get(Counter::GatherBatches),
        )
    }

    /// Mean placement-pass time in ns (`0.0` with no passes).
    pub fn avg_assign_pass_ns(&self) -> f64 {
        ratio(
            self.get(Counter::AssignPassNs),
            self.get(Counter::AssignPasses),
        )
    }

    /// Mean tasks shipped per scheduler→worker message (`0.0` when idle).
    pub fn avg_tasks_per_assign_message(&self) -> f64 {
        ratio(
            self.get(Counter::AssignTasks),
            self.get(Counter::AssignMessages),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let s = SchedulerStats::new();
        s.record(MsgClass::UpdateData, 100);
        s.record(MsgClass::UpdateData, 50);
        s.record_n(MsgClass::Heartbeat, 3, 0);
        assert_eq!(s.count(MsgClass::UpdateData), 2);
        assert_eq!(s.bytes(MsgClass::UpdateData), 150);
        assert_eq!(s.count(MsgClass::Heartbeat), 3);
        assert_eq!(s.count(MsgClass::ScatterData), 0);
    }

    #[test]
    fn pipeline_counters_accumulate() {
        let s = SchedulerStats::new();
        assert_eq!(s.readings().executor_utilization(), 0.0);
        s.record_gather(3, 1_000);
        s.record_gather(1, 500);
        s.record_exec_busy(300);
        s.add(Counter::ExecIdleNs, 100);
        assert_eq!(s.get(Counter::GatherBatches), 2);
        assert_eq!(s.get(Counter::GatherDeps), 4);
        assert_eq!(s.get(Counter::GatherWaitNs), 1_500);
        assert_eq!(s.get(Counter::ExecBusyNs), 300);
        assert_eq!(s.get(Counter::ExecIdleNs), 100);
        assert!((s.readings().executor_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_hist_buckets_and_quantiles() {
        let h = LatencyHist::default();
        // Empty histogram: every derived value is defined and finite.
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.99), 0);
        h.record(0);
        h.record(1);
        h.record(1_000); // bucket 9 ([512, 1024))
        h.record(1_000_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 1_001_001);
        assert!((h.mean_ns() - 250_250.25).abs() < 1e-6);
        // Rank 2 of 4 is still in bucket 0 (upper bound 2 ns); rank 3 is the
        // 1_000 ns sample, reported as its bucket's upper bound.
        assert_eq!(h.quantile_ns(0.5), 2);
        assert_eq!(h.quantile_ns(0.75), 1 << 10);
        assert!(h.quantile_ns(1.0) >= 1 << 20);
        let buckets = h.buckets();
        assert_eq!(buckets.iter().sum::<u64>(), 4);
        assert_eq!(buckets[0], 2, "0 and 1 ns share bucket 0");
    }

    #[test]
    fn huge_latency_lands_in_last_bucket() {
        let h = LatencyHist::default();
        h.record(u64::MAX);
        assert_eq!(h.buckets()[N_LAT_BUCKETS - 1], 1);
    }

    #[test]
    fn zero_denominator_ratios_are_zero_not_nan() {
        let r = SchedulerStats::new().readings();
        assert_eq!(r, Readings::ZERO);
        for v in [
            r.executor_utilization(),
            r.avg_msgs_per_burst(),
            r.avg_gather_deps(),
            r.avg_gather_wait_ns(),
            r.avg_assign_pass_ns(),
            r.avg_tasks_per_assign_message(),
        ] {
            assert_eq!(v, 0.0, "idle-cluster ratio must be exactly 0.0");
        }
    }

    #[test]
    fn hists_track_their_recorders() {
        let s = SchedulerStats::new();
        s.record_gather(2, 5_000);
        s.record_exec_busy(10_000);
        s.record_queue_delay(700);
        s.record_assign_pass(300);
        assert_eq!(s.gather_wait_hist().count(), 1);
        assert_eq!(s.exec_hist().count(), 1);
        assert_eq!(s.queue_delay_hist().count(), 1);
        assert_eq!(s.assign_pass_hist().count(), 1);
        assert_eq!(s.queue_delay_hist().sum_ns(), 700);
    }

    #[test]
    fn wire_lanes_accumulate_independently() {
        let s = SchedulerStats::new();
        assert_eq!(s.wire_total_messages(), 0);
        s.record_wire(WireLane::SchedIn, 64);
        s.record_wire(WireLane::SchedIn, 36);
        s.record_wire(WireLane::ReplyIn, 12);
        assert_eq!(s.wire_messages(WireLane::SchedIn), 2);
        assert_eq!(s.wire_bytes(WireLane::SchedIn), 100);
        assert_eq!(s.wire_messages(WireLane::ExecIn), 0);
        assert_eq!(s.wire_total_messages(), 3);
        assert_eq!(s.readings().wire_total_bytes(), 112);
        let names: std::collections::HashSet<_> = WireLane::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), N_WIRE_LANES);
    }

    #[test]
    fn msg_class_names_are_unique() {
        let names: std::collections::HashSet<_> = MsgClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), MsgClass::ALL.len());
    }

    #[test]
    fn registry_rows_are_unique_and_exported() {
        use std::collections::HashSet;
        let mut keys = HashSet::new();
        let mut families = HashSet::new();
        for row in &COUNTERS {
            assert!(
                keys.insert((row.section, row.key)),
                "duplicate JSON key {}.{}",
                row.section,
                row.key
            );
            assert!(!row.help.is_empty(), "{:?} needs help text", row.counter);
            if let Some(family) = row.family {
                assert!(family.starts_with("dtask_") && family.ends_with("_total"));
                assert!(families.insert(family), "duplicate family {family}");
            }
        }
    }

    #[test]
    fn fault_counters_accumulate_and_start_zero() {
        let s = SchedulerStats::new();
        assert_eq!(s.get(Counter::PeersLost), 0);
        assert_eq!(s.get(Counter::TasksResubmitted), 0);
        assert_eq!(s.get(Counter::InjectedDrops), 0);
        s.add(Counter::PeersTracked, 1);
        s.add(Counter::PeersLost, 1);
        s.add(Counter::TasksResubmitted, 1);
        s.add(Counter::TasksResubmitted, 1);
        s.add(Counter::RetriesExhausted, 1);
        s.add(Counter::ExternalBlocksLost, 1);
        s.add(Counter::Recomputes, 1);
        s.add(Counter::InjectedDrops, 1);
        s.add(Counter::InjectedKills, 1);
        assert_eq!(s.get(Counter::PeersTracked), 1);
        assert_eq!(s.get(Counter::PeersLost), 1);
        assert_eq!(s.get(Counter::TasksResubmitted), 2);
        assert_eq!(s.get(Counter::RetriesExhausted), 1);
        assert_eq!(s.get(Counter::ExternalBlocksLost), 1);
        assert_eq!(s.get(Counter::Recomputes), 1);
        assert_eq!(s.get(Counter::InjectedDrops), 1);
        assert_eq!(s.get(Counter::InjectedKills), 1);
    }

    #[test]
    fn steal_counters_accumulate_and_stay_out_of_control_accounting() {
        let s = SchedulerStats::new();
        assert_eq!(s.get(Counter::StealRequests), 0);
        assert_eq!(s.get(Counter::StealMisses), 0);
        assert_eq!(s.get(Counter::TasksStolen), 0);
        s.add(Counter::StealRequests, 1);
        s.add(Counter::StealRequests, 1);
        s.add(Counter::StealMisses, 1);
        s.add(Counter::TasksStolen, 1);
        s.add(Counter::TasksStolen, 1);
        s.add(Counter::TasksStolen, 1);
        assert_eq!(s.get(Counter::StealRequests), 2);
        assert_eq!(s.get(Counter::StealMisses), 1);
        assert_eq!(s.get(Counter::TasksStolen), 3);
        // Steal bookkeeping lives outside MsgClass: the paper's control and
        // metadata message accounting must be byte-identical to the seed when
        // stealing is off, and unpolluted by these counters when it is on.
        assert_eq!(s.scheduler_control_messages(), 0);
        assert_eq!(s.readings().bridge_metadata_messages(), 0);
    }

    #[test]
    fn store_counters_accumulate_and_start_zero() {
        let s = SchedulerStats::new();
        assert_eq!(s.get(Counter::StoreHits), 0);
        assert_eq!(s.get(Counter::StoreSpills), 0);
        assert_eq!(s.get(Counter::ProxyFetchBytes), 0);
        s.add(Counter::StoreHits, 1);
        s.add(Counter::StoreHits, 1);
        s.add(Counter::StoreMisses, 1);
        s.record_store_spill(512);
        s.record_store_spill(256);
        s.add(Counter::StoreRestores, 1);
        s.record_proxy_put(1024);
        s.record_proxy_fetch(1024);
        s.record_proxy_fetch(2048);
        assert_eq!(s.get(Counter::StoreHits), 2);
        assert_eq!(s.get(Counter::StoreMisses), 1);
        assert_eq!(s.get(Counter::StoreSpills), 2);
        assert_eq!(s.get(Counter::StoreSpillBytes), 768);
        assert_eq!(s.get(Counter::StoreRestores), 1);
        assert_eq!(s.get(Counter::ProxyPuts), 1);
        assert_eq!(s.get(Counter::ProxyPutBytes), 1024);
        assert_eq!(s.get(Counter::ProxyFetches), 2);
        assert_eq!(s.get(Counter::ProxyFetchBytes), 3072);
        // Store traffic is data plane: it never shows up in the paper's
        // control-message accounting.
        assert_eq!(s.scheduler_control_messages(), 0);
        assert_eq!(s.readings().bridge_metadata_messages(), 0);
    }

    #[test]
    fn straggler_counter_accumulates_and_stays_out_of_control_accounting() {
        let s = SchedulerStats::new();
        assert_eq!(s.get(Counter::StragglersFlagged), 0);
        s.add(Counter::StragglersFlagged, 1);
        s.add(Counter::StragglersFlagged, 1);
        assert_eq!(s.get(Counter::StragglersFlagged), 2);
        // Telemetry flags are observability metadata, never paper-accounted
        // control or bridge messages.
        assert_eq!(s.scheduler_control_messages(), 0);
        assert_eq!(s.readings().bridge_metadata_messages(), 0);
    }

    #[test]
    fn tenant_counters_accumulate_and_stay_out_of_control_accounting() {
        let s = SchedulerStats::new();
        assert_eq!(s.get(Counter::NotifiesDropped), 0);
        assert_eq!(s.get(Counter::AdmissionRejections), 0);
        assert!(s.tenant_snapshot().is_empty());
        s.add(Counter::NotifiesDropped, 1);
        s.record_tenant_tasks(2, 5);
        s.record_tenant_tasks(1, 3);
        s.record_tenant_bytes(2, 4096);
        s.set_tenant_queue_depth(2, 7);
        s.record_admission_rejection(2);
        assert_eq!(s.get(Counter::NotifiesDropped), 1);
        assert_eq!(s.get(Counter::AdmissionRejections), 1);
        assert_eq!(s.tenant(1).tasks, 3);
        let t2 = s.tenant(2);
        assert_eq!(
            (t2.tasks, t2.bytes, t2.queue_depth, t2.admission_rejections),
            (5, 4096, 7, 1)
        );
        let snap = s.tenant_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, 1, "sorted by session id");
        assert_eq!(s.tenant(99), TenantCounters::default());
        // Tenancy bookkeeping lives outside MsgClass: the paper's control
        // and bridge-metadata accounting stays untouched.
        assert_eq!(s.scheduler_control_messages(), 0);
        assert_eq!(s.readings().bridge_metadata_messages(), 0);
    }

    #[test]
    fn worker_heartbeats_stay_out_of_bridge_metadata() {
        let s = SchedulerStats::new();
        s.record(MsgClass::WorkerHeartbeat, 0);
        assert_eq!(s.readings().bridge_metadata_messages(), 0);
        assert_eq!(s.scheduler_control_messages(), 1);
    }

    #[test]
    fn control_plane_totals_exclude_data_plane() {
        let s = SchedulerStats::new();
        s.record(MsgClass::GraphSubmit, 0);
        s.record(MsgClass::ScatterData, 1 << 20);
        s.record(MsgClass::GatherData, 1 << 20);
        s.record(MsgClass::PeerFetch, 1 << 20);
        assert_eq!(s.scheduler_control_messages(), 1);
        assert_eq!(s.readings().bridge_metadata_messages(), 0);
    }
}
