//! Scheduler-path A/B bench: graph optimization (cull + linear-chain
//! fusion) and batched inbox ingestion against the per-message baseline.
//!
//! The workload is shaped like the paper's in-transit IPCA driver: `CHAINS`
//! independent linear op chains of length `CHAIN_LEN`, each rooted at one
//! **external** task (the simulation block for one timestep), all feeding a
//! single reduction sink, plus a sprinkling of dead derived tasks nobody
//! requested. The whole graph is submitted ahead of the data; then the
//! blocks are scattered `external=true` and we time submit → last result.
//!
//! * baseline: optimizer off, `IngestMode::PerMessage` — the seed protocol,
//!   one scheduler pass and one `Execute` per task.
//! * optimized: cull + fuse on, `IngestMode::Batched` — chains collapse to
//!   one spec each, dead branches never run, and the scheduler drains its
//!   inbox in bursts with per-worker coalesced assignments.
//!
//! Besides wall time the run prints the `SchedulerStats` optimizer and
//! ingestion counters, so the message-count drop is measured, not inferred.
//! Target: >= 1.5x on this scheduling-bound workload.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dtask::{
    Cluster, ClusterConfig, Counter, Datum, FaultConfig, HeartbeatInterval, IngestMode, Json, Key,
    MsgClass, OptimizeConfig, PolicyConfig, StatsSnapshot, StoreConfig, TaskSpec, TelemetryConfig,
    TenancyConfig, TraceConfig, TransportConfig, WireLane,
};
use insitu_sim::schedlab;
use linalg::NDArray;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_WORKERS: usize = 4;
const CHAINS: usize = 64;
const CHAIN_LEN: usize = 8;
const DEAD_TASKS: usize = 32;

fn make_cluster(optimize: OptimizeConfig, ingest: IngestMode, trace: TraceConfig) -> Cluster {
    make_transport_cluster(optimize, ingest, trace, TransportConfig::InProc)
}

fn make_transport_cluster(
    optimize: OptimizeConfig,
    ingest: IngestMode,
    trace: TraceConfig,
    transport: TransportConfig,
) -> Cluster {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        optimize,
        ingest,
        trace,
        transport,
        ..ClusterConfig::default()
    });
    // Chain stage: scalar increment — cheap on purpose, so scheduling
    // overhead (not kernel time) dominates the round.
    cluster.registry().register("bump", |_params, inputs| {
        let x = inputs
            .first()
            .and_then(|d| d.as_f64())
            .ok_or_else(|| "bump: scalar input required".to_string())?;
        Ok(Datum::F64(x + 1.0))
    });
    cluster
}

/// The optimized configuration with an explicit telemetry plane — for the
/// telemetry on/off A/B.
fn make_telemetry_cluster(telemetry: TelemetryConfig) -> Cluster {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        optimize: OptimizeConfig::enabled(),
        ingest: IngestMode::Batched { max_burst: 64 },
        telemetry,
        ..ClusterConfig::default()
    });
    cluster.registry().register("bump", |_params, inputs| {
        let x = inputs
            .first()
            .and_then(|d| d.as_f64())
            .ok_or_else(|| "bump: scalar input required".to_string())?;
        Ok(Datum::F64(x + 1.0))
    });
    cluster
}

/// One ahead-of-time round: submit the whole graph, scatter the external
/// blocks, await the sink. Returns the sink value. Takes a long-lived
/// client — connect cost (inbox, trace ring) must not pollute the
/// scheduler-path timing.
fn run_round(client: &dtask::Client, round: u64) -> f64 {
    let ext_keys: Vec<Key> = (0..CHAINS)
        .map(|c| Key::new(format!("ext-{round}-{c}")))
        .collect();
    client.register_external(ext_keys.clone());

    let mut specs = Vec::with_capacity(CHAINS * CHAIN_LEN + DEAD_TASKS + 1);
    let mut tails = Vec::with_capacity(CHAINS);
    for (c, ext) in ext_keys.iter().enumerate() {
        let mut prev = ext.clone();
        for l in 0..CHAIN_LEN {
            let key = Key::new(format!("chain-{round}-{c}-{l}"));
            specs.push(TaskSpec::new(key.clone(), "bump", Datum::Null, vec![prev]));
            prev = key;
        }
        tails.push(prev);
    }
    // Dead derived tasks: hang off chain interiors, never requested.
    for d in 0..DEAD_TASKS {
        let src = Key::new(format!("chain-{round}-{}-0", d % CHAINS));
        specs.push(TaskSpec::new(
            format!("dead-{round}-{d}"),
            "bump",
            Datum::Null,
            vec![src],
        ));
    }
    let sink = Key::new(format!("sink-{round}"));
    specs.push(TaskSpec::new(
        sink.clone(),
        "sum_scalars",
        Datum::Null,
        tails,
    ));
    client.submit_with_outputs(specs, std::slice::from_ref(&sink));

    // The "simulation" produces the blocks after submission.
    for (c, key) in ext_keys.into_iter().enumerate() {
        client.scatter_external(vec![(key, Datum::F64(c as f64))], None);
    }
    client
        .future(sink)
        .result()
        .expect("sink result")
        .as_f64()
        .expect("scalar sink")
}

fn expected_sink() -> f64 {
    (0..CHAINS).map(|c| (c + CHAIN_LEN) as f64).sum()
}

/// Run `rounds` workloads on a fresh cluster; print the scheduler telemetry;
/// return total wall time plus the full stats snapshot (the same schema
/// runtime snapshots use, so `results/BENCH_scheduler.json` and live metrics
/// stay diffable).
fn timed_config(
    label: &str,
    optimize: OptimizeConfig,
    ingest: IngestMode,
    rounds: u64,
) -> (Duration, u64, StatsSnapshot) {
    let cluster = make_cluster(optimize, ingest, TraceConfig::default());
    let client = cluster.client();
    let started = Instant::now();
    for round in 0..rounds {
        assert_eq!(run_round(&client, round), expected_sink());
    }
    let elapsed = started.elapsed();
    let stats = cluster.stats();
    let sched_to_worker = stats.get(Counter::AssignMessages);
    let bursts = stats.get(Counter::IngestBursts).max(1);
    println!(
        "  {label:<30} {:>7.1} ms | {} tasks in -> {} kept ({} culled, {} fused chains) | \
         {} assigns in {} msgs | {:.1} msgs/burst | {} task reports",
        elapsed.as_secs_f64() * 1e3,
        stats.get(Counter::OptimizeTasksIn),
        stats.get(Counter::OptimizeTasksOut),
        stats.get(Counter::OptimizeCulled),
        stats.get(Counter::FusedChains),
        stats.get(Counter::AssignTasks),
        sched_to_worker,
        stats.get(Counter::IngestMsgs) as f64 / bursts as f64,
        stats.count(MsgClass::TaskReport),
    );
    let msgs = sched_to_worker + stats.count(MsgClass::TaskReport);
    (elapsed, msgs, StatsSnapshot::capture(stats))
}

const CHAOS_WORKERS: usize = 4;
const CHAOS_BLOCKS: usize = 8;

/// One fault-tolerant round: `CHAOS_BLOCKS` external blocks, each replicated
/// onto two workers, through a 20 ms stage each into a sum sink. With `kill`
/// set, one worker dies after the stages finish but before the sink runs, so
/// the sink's gathers hit a dead data server and every stage result that
/// lived only there must be recomputed from the surviving block replicas.
/// Returns the submit-to-result wall time and the cluster's stats snapshot.
fn chaos_round(kill: bool) -> (f64, StatsSnapshot) {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: CHAOS_WORKERS,
        slots_per_worker: 1,
        fault: FaultConfig {
            heartbeat_timeout: Some(Duration::from_millis(100)),
            worker_heartbeat: HeartbeatInterval::Every(Duration::from_millis(15)),
            max_retries: 5,
            retry_backoff: Duration::from_millis(5),
            ..FaultConfig::default()
        },
        ..ClusterConfig::default()
    });
    cluster.registry().register("stage", |_params, inputs| {
        std::thread::sleep(Duration::from_millis(20));
        inputs
            .first()
            .cloned()
            .ok_or_else(|| "stage: input required".to_string())
    });
    let client = cluster.client();
    let started = Instant::now();
    for b in 0..CHAOS_BLOCKS {
        let key = Key::new(format!("cblk-{b}"));
        let datum = Datum::F64((b + 1) as f64);
        client.scatter_external(vec![(key.clone(), datum.clone())], Some(b % CHAOS_WORKERS));
        client.scatter_external(vec![(key, datum)], Some((b + 1) % CHAOS_WORKERS));
    }
    let specs: Vec<TaskSpec> = (0..CHAOS_BLOCKS)
        .map(|b| {
            TaskSpec::new(
                format!("cstage-{b}"),
                "stage",
                Datum::Null,
                vec![Key::new(format!("cblk-{b}"))],
            )
        })
        .collect();
    client.submit(specs);
    // Stage results are spread across all workers — and, unlike the blocks,
    // not replicated. Wait for the last one so the kill below cannot race
    // with stage execution.
    for b in 0..CHAOS_BLOCKS {
        client
            .future(format!("cstage-{b}"))
            .result()
            .expect("stage result");
    }
    if kill {
        // kill_worker returns only after the worker's threads are joined:
        // from here on its stage results exist nowhere.
        cluster.kill_worker(1);
    }
    client.submit(vec![TaskSpec::new(
        "csink",
        "sum_scalars",
        Datum::Null,
        (0..CHAOS_BLOCKS)
            .map(|b| Key::new(format!("cstage-{b}")))
            .collect(),
    )]);
    let sink = client
        .future("csink")
        .result()
        .expect("chaos sink result")
        .as_f64()
        .expect("scalar sink");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let expected: f64 = (1..=CHAOS_BLOCKS).map(|b| b as f64).sum();
    assert_eq!(sink, expected, "recovery must not change the result");
    (elapsed_ms, StatsSnapshot::capture(cluster.stats()))
}

const PROXY_STEPS: usize = 20;
const PROXY_SIDE: usize = 128;

/// Out-of-band data-plane A/B: a variable-feedback loop (producer publishes
/// a `PROXY_SIDE`² block per step, consumer reads it back) over the framed
/// transport, with bulk payloads inline on the control path vs proxied
/// through the per-node object stores. Returns wall time, scheduler-lane
/// wire bytes, and the checksum of everything the consumer read.
fn proxy_round(store: StoreConfig) -> (f64, u64, u64, f64) {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        transport: TransportConfig::Framed,
        store,
        ..ClusterConfig::default()
    });
    let producer = cluster.client();
    let consumer = cluster.client();
    let started = Instant::now();
    let mut checksum = 0.0;
    for t in 0..PROXY_STEPS {
        let field = NDArray::from_fn(&[PROXY_SIDE, PROXY_SIDE], |i| {
            (t * PROXY_SIDE * PROXY_SIDE + i[0] * PROXY_SIDE + i[1]) as f64 * 0.25
        });
        producer.var_set(&format!("pfield{t}"), Datum::from(field));
        let got = consumer.var_get(&format!("pfield{t}")).expect("field");
        checksum += got.as_array().expect("array").data().iter().sum::<f64>();
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = cluster.stats();
    let sched_bytes = stats.wire_bytes(WireLane::SchedIn);
    let data_bytes = stats.wire_bytes(WireLane::DataIn) + stats.wire_bytes(WireLane::ReplyIn);
    (elapsed_ms, sched_bytes, data_bytes, checksum)
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

// ---- scheduling-policy x workload matrix ------------------------------------

const POLICY_SLOTS: usize = 2;
const POLICY_ROUNDS: usize = 3;

/// A cluster pinned to one scheduling policy, with the matrix's ops
/// registered: the cheap `bump` chain stage and `pause_sum` (sleep the
/// parameter in microseconds, then sum the scalar inputs) for compute-bound
/// rounds.
fn policy_cluster(policy: PolicyConfig) -> Cluster {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        slots_per_worker: POLICY_SLOTS,
        policy,
        ..ClusterConfig::default()
    });
    cluster.registry().register("bump", |_params, inputs| {
        let x = inputs
            .first()
            .and_then(|d| d.as_f64())
            .ok_or_else(|| "bump: scalar input required".to_string())?;
        Ok(Datum::F64(x + 1.0))
    });
    cluster.registry().register("pause_sum", |params, inputs| {
        let us = params.as_i64().unwrap_or(0) as u64;
        std::thread::sleep(Duration::from_micros(us));
        let mut total = 0.0;
        for d in inputs {
            total += d
                .as_f64()
                .ok_or_else(|| "pause_sum: scalar inputs required".to_string())?;
        }
        Ok(Datum::F64(total))
    });
    cluster
}

/// Wide fan-out over one hot block pinned on worker 0: byte gravity herds
/// every task onto the holder, so this is the round where work-distributing
/// policies should win. Returns submit-to-last-result wall ms.
fn live_wide_fanout(client: &dtask::Client, round: u64) -> f64 {
    let n = 96;
    let blk = Key::new(format!("hot-{round}"));
    client.scatter(vec![(blk.clone(), Datum::F64(1.0))], Some(0));
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| {
            TaskSpec::new(
                format!("fan-{round}-{i}"),
                "pause_sum",
                Datum::I64(2_000),
                vec![blk.clone()],
            )
        })
        .collect();
    let t0 = Instant::now();
    client.submit(specs);
    let keys: Vec<Key> = (0..n)
        .map(|i| Key::new(format!("fan-{round}-{i}")))
        .collect();
    let vals = client.gather_many(&keys).expect("fan-out results");
    assert!(vals.iter().all(|v| v.as_f64() == Some(1.0)));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Independent compute chains rooted at blocks spread round-robin: the
/// chain-affinity round locality is built for.
fn live_deep_chains(client: &dtask::Client, round: u64) -> f64 {
    let chains = 12;
    let depth = 8;
    for c in 0..chains {
        client.scatter(
            vec![(Key::new(format!("croot-{round}-{c}")), Datum::F64(c as f64))],
            Some(c % N_WORKERS),
        );
    }
    let mut specs = Vec::with_capacity(chains * depth);
    let mut tails = Vec::with_capacity(chains);
    for c in 0..chains {
        let mut prev = Key::new(format!("croot-{round}-{c}"));
        for l in 0..depth {
            let key = Key::new(format!("clink-{round}-{c}-{l}"));
            specs.push(TaskSpec::new(
                key.clone(),
                "pause_sum",
                Datum::I64(1_000),
                vec![prev],
            ));
            prev = key;
        }
        tails.push(prev);
    }
    let t0 = Instant::now();
    client.submit(specs);
    let vals = client.gather_many(&tails).expect("chain tails");
    for (c, v) in vals.iter().enumerate() {
        assert_eq!(v.as_f64(), Some(c as f64));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// The external-rooted IPCA-shaped round (the bench's main workload):
/// scheduling-bound, so this measures policy overhead on the hot path.
fn live_ipca(client: &dtask::Client, round: u64) -> f64 {
    let t0 = Instant::now();
    assert_eq!(run_round(client, round), expected_sink());
    t0.elapsed().as_secs_f64() * 1e3
}

/// One machine-readable row of the live matrix.
struct LiveRow {
    policy: &'static str,
    workload: &'static str,
    median_ms: f64,
    steal_requests: u64,
    tasks_stolen: u64,
}

/// A named live workload: submits a graph, blocks on the result, returns it.
type LiveWorkload = (&'static str, fn(&dtask::Client, u64) -> f64);

/// Run the live policy x workload matrix: every policy on a fresh cluster,
/// every workload `POLICY_ROUNDS` rounds, medians + steal telemetry out.
fn live_policy_matrix() -> Vec<LiveRow> {
    let configs = [
        PolicyConfig::locality(),
        PolicyConfig::b_level(),
        PolicyConfig::random_stealing(),
        PolicyConfig::min_eft(),
    ];
    let workloads: [LiveWorkload; 3] = [
        ("wide-fanout", live_wide_fanout),
        ("deep-chains", live_deep_chains),
        ("ipca", live_ipca),
    ];
    let mut rows = Vec::new();
    for config in &configs {
        for &(wname, runner) in &workloads {
            let cluster = policy_cluster(config.clone());
            let client = cluster.client();
            let samples: Vec<f64> = (0..POLICY_ROUNDS)
                .map(|r| runner(&client, r as u64))
                .collect();
            let stats = cluster.stats();
            rows.push(LiveRow {
                policy: config.kind.name(),
                workload: wname,
                median_ms: median_ms(samples),
                steal_requests: stats.get(Counter::StealRequests),
                tasks_stolen: stats.get(Counter::TasksStolen),
            });
        }
    }
    rows
}

// ---- multi-tenant Poisson serving -------------------------------------------

const TENANT_SESSIONS: usize = 24;
const TENANT_MEAN_ARRIVAL_MS: f64 = 6.0;
const TENANT_CHAINS: usize = 8;
const TENANT_CHAIN_LEN: usize = 4;

/// Deterministic xorshift64* — the bench record must be reproducible across
/// runs, so no OS entropy in the arrival clock.
struct XorShift64(u64);

impl XorShift64 {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean — the inter-arrival
    /// gaps of a Poisson session-arrival clock.
    fn exp_ms(&mut self, mean_ms: f64) -> f64 {
        -mean_ms * self.next_unit().ln()
    }
}

/// One short tenant session: a scaled-down IPCA round (external-rooted
/// chains into a sum sink). Key names deliberately repeat across sessions —
/// the per-session namespaces keep them apart.
fn run_tenant_session(client: &dtask::Client) -> f64 {
    let ext_keys: Vec<Key> = (0..TENANT_CHAINS)
        .map(|c| Key::new(format!("text-{c}")))
        .collect();
    client.register_external(ext_keys.clone());
    let mut specs = Vec::with_capacity(TENANT_CHAINS * TENANT_CHAIN_LEN + 1);
    let mut tails = Vec::with_capacity(TENANT_CHAINS);
    for (c, ext) in ext_keys.iter().enumerate() {
        let mut prev = ext.clone();
        for l in 0..TENANT_CHAIN_LEN {
            let key = Key::new(format!("tchain-{c}-{l}"));
            specs.push(TaskSpec::new(key.clone(), "bump", Datum::Null, vec![prev]));
            prev = key;
        }
        tails.push(prev);
    }
    let sink = Key::new("tsink");
    specs.push(TaskSpec::new(
        sink.clone(),
        "sum_scalars",
        Datum::Null,
        tails,
    ));
    client.submit_with_outputs(specs, std::slice::from_ref(&sink));
    for (c, key) in ext_keys.into_iter().enumerate() {
        client.scatter_external(vec![(key, Datum::F64(c as f64))], None);
    }
    client
        .future(sink)
        .result()
        .expect("tenant sink")
        .as_f64()
        .expect("scalar tenant sink")
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn outcome_json(o: &schedlab::Outcome) -> Json {
    Json::obj()
        .set("policy", o.policy.name())
        .set("workload", o.workload.clone())
        .set("workers", o.workers as u64)
        .set("slots", o.slots as u64)
        .set("tasks", o.tasks as u64)
        .set("makespan_ms", o.makespan_ns as f64 / 1e6)
        .set("tasks_stolen", o.tasks_stolen)
        .set("transfer_ms", o.transfer_ns as f64 / 1e6)
        .set("utilization", o.utilization)
}

fn bench_scheduler_throughput(c: &mut Criterion) {
    println!(
        "scheduler_throughput: {CHAINS} chains x {CHAIN_LEN} ops + {DEAD_TASKS} dead tasks, \
         {N_WORKERS} workers, graph submitted before data"
    );
    let rounds = 5;
    let (baseline, base_msgs, base_snap) = timed_config(
        "baseline per-message/no-opt",
        OptimizeConfig::default(),
        IngestMode::PerMessage,
        rounds,
    );
    let (optimized, opt_msgs, opt_snap) = timed_config(
        "optimized fused/batched",
        OptimizeConfig::enabled(),
        IngestMode::Batched { max_burst: 64 },
        rounds,
    );
    let speedup = baseline.as_secs_f64() / optimized.as_secs_f64().max(1e-9);
    println!(
        "  speedup: {speedup:.2}x (target >= 1.5x) | scheduler<->worker messages: \
         {base_msgs} -> {opt_msgs} ({:.0}% drop)",
        (1.0 - opt_msgs as f64 / base_msgs.max(1) as f64) * 100.0
    );

    // Tracing overhead A/B on the optimized config: a disabled TraceConfig
    // must be free (no clock reads, no allocation on the hot path), and even
    // full recording should stay in the low single digits.
    // Rounds are interleaved between the two clusters so machine-load drift
    // during the run lands on both configurations equally; medians keep one
    // noisy round from faking a regression.
    let trace_rounds = 25;
    let off_cluster = make_cluster(
        OptimizeConfig::enabled(),
        IngestMode::Batched { max_burst: 64 },
        TraceConfig::default(),
    );
    let on_cluster = make_cluster(
        OptimizeConfig::enabled(),
        IngestMode::Batched { max_burst: 64 },
        TraceConfig::enabled(),
    );
    let off_client = off_cluster.client();
    let on_client = on_cluster.client();
    let mut off_samples = Vec::with_capacity(trace_rounds);
    let mut on_samples = Vec::with_capacity(trace_rounds);
    for round in 0..trace_rounds as u64 {
        let t0 = Instant::now();
        assert_eq!(run_round(&off_client, round), expected_sink());
        off_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        assert_eq!(run_round(&on_client, round), expected_sink());
        on_samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let off = median_ms(off_samples);
    let on = median_ms(on_samples);
    let overhead_pct = (on / off.max(1e-9) - 1.0) * 100.0;
    println!(
        "  tracing A/B (median round): off {off:.2} ms, on {on:.2} ms \
         ({overhead_pct:+.1}% — disabled recorder must stay < 2%)"
    );

    // Telemetry A/B on the same optimized config: the full live plane
    // (flight-recorder sampler at the default 25 ms interval, HTTP exporter
    // bound and accepting, straggler detector timing every exec) against
    // telemetry off. Interleaved rounds, medians — same discipline as the
    // tracing A/B above.
    let telemetry_rounds = 25;
    let tel_off_cluster = make_telemetry_cluster(TelemetryConfig::default());
    let tel_on_cluster = make_telemetry_cluster(TelemetryConfig::enabled());
    let tel_off_client = tel_off_cluster.client();
    let tel_on_client = tel_on_cluster.client();
    let mut tel_off_samples = Vec::with_capacity(telemetry_rounds);
    let mut tel_on_samples = Vec::with_capacity(telemetry_rounds);
    for round in 0..telemetry_rounds as u64 {
        let t0 = Instant::now();
        assert_eq!(run_round(&tel_off_client, round), expected_sink());
        tel_off_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        assert_eq!(run_round(&tel_on_client, round), expected_sink());
        tel_on_samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let tel_off_ms = median_ms(tel_off_samples);
    let tel_on_ms = median_ms(tel_on_samples);
    let telemetry_overhead_pct = (tel_on_ms / tel_off_ms.max(1e-9) - 1.0) * 100.0;
    let tel_hub = tel_on_cluster.telemetry().expect("telemetry on");
    let tel_flight_samples = tel_hub.flight().len();
    let tel_sample_every_ms = tel_hub.config().sample_every.as_millis() as u64;
    let tel_stragglers = tel_on_cluster.stats().get(Counter::StragglersFlagged);
    println!(
        "  telemetry A/B (median round): off {tel_off_ms:.2} ms, on {tel_on_ms:.2} ms \
         ({telemetry_overhead_pct:+.1}% — target <= 5%) | {tel_flight_samples} flight samples \
         every {tel_sample_every_ms} ms, {tel_stragglers} stragglers flagged"
    );

    // Transport A/B/C on the optimized config: InProc (references over
    // channels) against Framed (every message through the versioned wire
    // codec) against Tcp (the same frames over real sockets). Interleaved
    // rounds again; the Framed/Tcp runs' per-lane byte counters are the
    // real serialized message sizes of the workload.
    let transport_rounds = 25;
    let inproc_cluster = make_transport_cluster(
        OptimizeConfig::enabled(),
        IngestMode::Batched { max_burst: 64 },
        TraceConfig::default(),
        TransportConfig::InProc,
    );
    let framed_cluster = make_transport_cluster(
        OptimizeConfig::enabled(),
        IngestMode::Batched { max_burst: 64 },
        TraceConfig::default(),
        TransportConfig::Framed,
    );
    let tcp_cluster = make_transport_cluster(
        OptimizeConfig::enabled(),
        IngestMode::Batched { max_burst: 64 },
        TraceConfig::default(),
        TransportConfig::Tcp,
    );
    let inproc_client = inproc_cluster.client();
    let framed_client = framed_cluster.client();
    let tcp_client = tcp_cluster.client();
    let mut inproc_samples = Vec::with_capacity(transport_rounds);
    let mut framed_samples = Vec::with_capacity(transport_rounds);
    let mut tcp_samples = Vec::with_capacity(transport_rounds);
    for round in 0..transport_rounds as u64 {
        let t0 = Instant::now();
        assert_eq!(run_round(&inproc_client, round), expected_sink());
        inproc_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        assert_eq!(run_round(&framed_client, round), expected_sink());
        framed_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        assert_eq!(run_round(&tcp_client, round), expected_sink());
        tcp_samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let inproc_ms = median_ms(inproc_samples);
    let framed_ms = median_ms(framed_samples);
    let tcp_ms = median_ms(tcp_samples);
    let framed_overhead_pct = (framed_ms / inproc_ms.max(1e-9) - 1.0) * 100.0;
    let tcp_overhead_pct = (tcp_ms / inproc_ms.max(1e-9) - 1.0) * 100.0;
    let framed_snap = StatsSnapshot::capture(framed_cluster.stats());
    let tcp_snap = StatsSnapshot::capture(tcp_cluster.stats());
    println!(
        "  transport A/B (median round): inproc {inproc_ms:.2} ms, framed {framed_ms:.2} ms \
         ({framed_overhead_pct:+.1}%), tcp {tcp_ms:.2} ms ({tcp_overhead_pct:+.1}%) | \
         framed {} wire msgs / {} wire bytes, tcp {} wire msgs / {} wire bytes",
        framed_snap.readings.wire_total_messages(),
        framed_snap.readings.wire_total_bytes(),
        tcp_snap.readings.wire_total_messages(),
        tcp_snap.readings.wire_total_bytes()
    );
    for lane in WireLane::ALL {
        println!(
            "    lane {:<10} {:>7} msgs {:>10} bytes",
            lane.name(),
            framed_snap.readings.wire_messages(lane),
            framed_snap.readings.wire_bytes(lane)
        );
    }

    // Proxy-plane A/B: the same framed feedback workload with payloads
    // inline on the control path vs proxied through the object stores. The
    // scheduler-lane byte drop is the paper-motivating number: bulk data no
    // longer squeezes through the scheduler.
    let (inline_ms, inline_sched_b, inline_data_b, inline_sum) =
        proxy_round(StoreConfig::default());
    let (proxy_ms, proxy_sched_b, proxy_data_b, proxy_sum) = proxy_round(StoreConfig::proxies());
    assert_eq!(
        inline_sum.to_bits(),
        proxy_sum.to_bits(),
        "proxy plane must not change results"
    );
    assert!(
        proxy_sched_b < inline_sched_b / 10,
        "proxied scheduler lane ({proxy_sched_b} B) must be a fraction of inline \
         ({inline_sched_b} B)"
    );
    println!(
        "  proxy-plane A/B ({PROXY_STEPS} steps of {PROXY_SIDE}x{PROXY_SIDE} f64): \
         inline {inline_ms:.1} ms / {inline_sched_b} sched B, \
         proxied {proxy_ms:.1} ms / {proxy_sched_b} sched B \
         ({:.1}x scheduler-lane reduction; data lane {inline_data_b} -> {proxy_data_b} B)",
        inline_sched_b as f64 / proxy_sched_b.max(1) as f64
    );

    // Chaos A/B: the same replicated workload with and without one worker
    // killed mid-run. The delta is the recovery makespan — heartbeat-silence
    // detection plus resubmission of the stranded tasks onto survivors.
    let chaos_baseline_ms = chaos_round(false).0;
    let (chaos_killed_ms, chaos_snap) = chaos_round(true);
    assert!(
        chaos_snap.readings.get(Counter::PeersLost) >= 1,
        "kill must be detected"
    );
    assert!(
        chaos_snap.readings.get(Counter::TasksResubmitted)
            + chaos_snap.readings.get(Counter::Recomputes)
            >= 1,
        "recovery must have done work"
    );
    let recovery_overhead_ms = chaos_killed_ms - chaos_baseline_ms;
    println!(
        "  chaos A/B: undisturbed {chaos_baseline_ms:.1} ms, 1-of-{CHAOS_WORKERS} workers \
         killed {chaos_killed_ms:.1} ms (recovery makespan {recovery_overhead_ms:+.1} ms) | \
         {} peers lost, {} tasks resubmitted, {} recomputes",
        chaos_snap.readings.get(Counter::PeersLost),
        chaos_snap.readings.get(Counter::TasksResubmitted),
        chaos_snap.readings.get(Counter::Recomputes)
    );

    // Multi-tenant Poisson serving: one sustained simulation session keeps
    // the scheduler loaded with full IPCA rounds while short IPCA sessions
    // arrive on a Poisson clock (deterministic xorshift exponential gaps),
    // each in its own namespace under the fair-share dispatch wrapper.
    // Session latency is arrival (client connect) to final sink result;
    // each client drops on completion, so orderly teardown is part of the
    // serving load too.
    let tenant_cluster = Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        optimize: OptimizeConfig::enabled(),
        ingest: IngestMode::Batched { max_burst: 64 },
        tenancy: TenancyConfig::enabled(),
        policy: PolicyConfig::locality().with_fair_share(),
        ..ClusterConfig::default()
    });
    tenant_cluster
        .registry()
        .register("bump", |_params, inputs| {
            let x = inputs
                .first()
                .and_then(|d| d.as_f64())
                .ok_or_else(|| "bump: scalar input required".to_string())?;
            Ok(Datum::F64(x + 1.0))
        });
    let sustained_stop = Arc::new(AtomicBool::new(false));
    let sustained = {
        let client = tenant_cluster.client();
        let stop = Arc::clone(&sustained_stop);
        std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::SeqCst) {
                assert_eq!(run_round(&client, rounds), expected_sink());
                rounds += 1;
            }
            rounds
        })
    };
    let expected_tenant_sink: f64 = (0..TENANT_CHAINS)
        .map(|c| (c + TENANT_CHAIN_LEN) as f64)
        .sum();
    let mut rng = XorShift64(0x5EED_CAFE_D15C_0001);
    let mut tenant_handles = Vec::with_capacity(TENANT_SESSIONS);
    let poisson_t0 = Instant::now();
    for _ in 0..TENANT_SESSIONS {
        std::thread::sleep(Duration::from_secs_f64(
            rng.exp_ms(TENANT_MEAN_ARRIVAL_MS) / 1e3,
        ));
        let arrived = Instant::now();
        let client = tenant_cluster.client();
        tenant_handles.push(std::thread::spawn(move || {
            assert_eq!(run_tenant_session(&client), expected_tenant_sink);
            drop(client);
            arrived.elapsed().as_secs_f64() * 1e3
        }));
    }
    let mut session_ms: Vec<f64> = tenant_handles
        .into_iter()
        .map(|h| h.join().expect("tenant session"))
        .collect();
    let poisson_wall_ms = poisson_t0.elapsed().as_secs_f64() * 1e3;
    sustained_stop.store(true, Ordering::SeqCst);
    let sustained_rounds = sustained.join().expect("sustained session");
    session_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let session_p50_ms = percentile_ms(&session_ms, 0.50);
    let session_p99_ms = percentile_ms(&session_ms, 0.99);
    assert_eq!(
        tenant_cluster.stats().get(Counter::NotifiesDropped),
        0,
        "multi-tenant happy path drops no notifications"
    );
    let tenant_snap = StatsSnapshot::capture(tenant_cluster.stats());
    println!(
        "  multi-tenant Poisson serving: {TENANT_SESSIONS} short IPCA sessions \
         (mean gap {TENANT_MEAN_ARRIVAL_MS} ms) vs 1 sustained simulation over \
         {poisson_wall_ms:.0} ms | session latency p50 {session_p50_ms:.2} ms, \
         p99 {session_p99_ms:.2} ms | sustained kept {sustained_rounds} full rounds, \
         {} tenants accounted",
        tenant_snap.tenants.len()
    );

    // Scheduling-policy matrix, live: every policy on a real cluster over
    // three workload shapes (compute-bound skewed fan-out, chain affinity,
    // the scheduling-bound IPCA graph).
    println!(
        "  policy matrix, live ({N_WORKERS} workers x {POLICY_SLOTS} slots, \
         median of {POLICY_ROUNDS} rounds):"
    );
    let live_rows = live_policy_matrix();
    for row in &live_rows {
        println!(
            "    {:<16} {:<12} {:>8.1} ms | {} steal reqs, {} stolen",
            row.policy, row.workload, row.median_ms, row.steal_requests, row.tasks_stolen
        );
    }

    // The same matrix at DES scale: the schedlab list-scheduling simulator
    // replays the four disciplines at 100 workers x 1e5 tasks, plus two
    // scale points (1000 workers; 1e6 tasks). Deterministic, so the JSON
    // record is diffable across commits.
    let des_workers = 100;
    let mut des_outcomes: Vec<schedlab::Outcome> = Vec::new();
    println!("  policy matrix, DES ({des_workers} workers x {POLICY_SLOTS} slots, 1e5 tasks):");
    for w in schedlab::workloads(100_000, 42) {
        let runs = schedlab::run_matrix(&w, des_workers, POLICY_SLOTS);
        let loc = runs
            .iter()
            .find(|o| o.policy == schedlab::Policy::Locality)
            .expect("locality run")
            .makespan_ns;
        for o in &runs {
            println!(
                "    {:<16} {:<12} makespan {:>9.1} ms ({:+.1}% vs locality) | \
                 util {:.2} | {} stolen",
                o.policy.name(),
                o.workload,
                o.makespan_ns as f64 / 1e6,
                (o.makespan_ns as f64 / loc as f64 - 1.0) * 100.0,
                o.utilization,
                o.tasks_stolen
            );
        }
        des_outcomes.extend(runs);
    }
    // Acceptance gate: on the skewed fan-out at least one policy must beat
    // the locality default outright.
    {
        let fanout: Vec<_> = des_outcomes
            .iter()
            .filter(|o| o.workload == "wide-fanout")
            .collect();
        let loc = fanout
            .iter()
            .find(|o| o.policy == schedlab::Policy::Locality)
            .expect("locality fan-out")
            .makespan_ns;
        assert!(
            fanout.iter().any(|o| o.makespan_ns < loc),
            "no policy beat locality on the skewed fan-out"
        );
    }
    println!("  policy matrix, DES scale points:");
    let scale_runs: Vec<schedlab::Outcome> = {
        let wide = schedlab::wide_fanout(200_000, 42);
        let chains = schedlab::deep_chains(50_000, 20, 7); // 1e6 tasks
        let mut runs = schedlab::run_matrix(&wide, 1000, POLICY_SLOTS);
        runs.extend(schedlab::run_matrix(&chains, des_workers, POLICY_SLOTS));
        runs
    };
    for o in &scale_runs {
        println!(
            "    {:<16} {:<12} {} workers, {} tasks: makespan {:>9.1} ms, util {:.2}",
            o.policy.name(),
            o.workload,
            o.workers,
            o.tasks,
            o.makespan_ns as f64 / 1e6,
            o.utilization
        );
    }

    // Emit the machine-readable record through the shared StatsSnapshot
    // schema (one format for bench output and runtime snapshots).
    let doc = Json::obj()
        .set(
            "workload",
            format!(
                "{CHAINS} external-rooted linear chains x {CHAIN_LEN} ops + {DEAD_TASKS} dead \
                 tasks + 1 sum sink, {N_WORKERS} workers, whole graph submitted before data \
                 ({rounds} rounds for the telemetry pass)"
            ),
        )
        .set("target", ">= 1.5x submit-to-last-result")
        .set("baseline_wall_ms", baseline.as_secs_f64() * 1e3)
        .set("optimized_wall_ms", optimized.as_secs_f64() * 1e3)
        .set("speedup", speedup)
        .set("scheduler_worker_messages_baseline", base_msgs)
        .set("scheduler_worker_messages_optimized", opt_msgs)
        .set("trace_off_median_round_ms", off)
        .set("trace_on_median_round_ms", on)
        .set("trace_overhead_pct", overhead_pct)
        .set(
            "telemetry",
            Json::obj()
                .set("off_median_round_ms", tel_off_ms)
                .set("on_median_round_ms", tel_on_ms)
                .set("overhead_pct", telemetry_overhead_pct)
                .set("sample_every_ms", tel_sample_every_ms)
                .set("flight_samples", tel_flight_samples as u64)
                .set("stragglers_flagged", tel_stragglers),
        )
        .set("transport_inproc_median_round_ms", inproc_ms)
        .set("transport_framed_median_round_ms", framed_ms)
        .set("transport_framed_overhead_pct", framed_overhead_pct)
        .set("transport_tcp_median_round_ms", tcp_ms)
        .set("transport_tcp_overhead_pct", tcp_overhead_pct)
        .set(
            "proxy_plane",
            Json::obj()
                .set(
                    "workload",
                    format!(
                        "{PROXY_STEPS} steps of {PROXY_SIDE}x{PROXY_SIDE} f64 variable \
                         feedback over the framed transport"
                    ),
                )
                .set("inline_wall_ms", inline_ms)
                .set("proxied_wall_ms", proxy_ms)
                .set("inline_sched_lane_bytes", inline_sched_b)
                .set("proxied_sched_lane_bytes", proxy_sched_b)
                .set("inline_data_lane_bytes", inline_data_b)
                .set("proxied_data_lane_bytes", proxy_data_b)
                .set(
                    "sched_lane_reduction",
                    inline_sched_b as f64 / proxy_sched_b.max(1) as f64,
                ),
        )
        .set(
            "policy_matrix",
            Json::obj()
                .set(
                    "live",
                    Json::Arr(
                        live_rows
                            .iter()
                            .map(|r| {
                                Json::obj()
                                    .set("policy", r.policy)
                                    .set("workload", r.workload)
                                    .set("workers", N_WORKERS as u64)
                                    .set("slots", POLICY_SLOTS as u64)
                                    .set("median_ms", r.median_ms)
                                    .set("steal_requests", r.steal_requests)
                                    .set("tasks_stolen", r.tasks_stolen)
                            })
                            .collect(),
                    ),
                )
                .set(
                    "des",
                    Json::Arr(des_outcomes.iter().map(outcome_json).collect()),
                )
                .set(
                    "des_scale",
                    Json::Arr(scale_runs.iter().map(outcome_json).collect()),
                ),
        )
        .set(
            "multi_tenant",
            Json::obj()
                .set(
                    "workload",
                    format!(
                        "{TENANT_SESSIONS} Poisson-arrival IPCA sessions \
                         ({TENANT_CHAINS} chains x {TENANT_CHAIN_LEN} ops, mean \
                         inter-arrival {TENANT_MEAN_ARRIVAL_MS} ms) against one \
                         sustained simulation, fair-share dispatch, per-session \
                         namespaces"
                    ),
                )
                .set("sessions", TENANT_SESSIONS as u64)
                .set("mean_interarrival_ms", TENANT_MEAN_ARRIVAL_MS)
                .set("wall_ms", poisson_wall_ms)
                .set("session_p50_ms", session_p50_ms)
                .set("session_p99_ms", session_p99_ms)
                .set("sustained_rounds", sustained_rounds)
                .set("tenant_stats", tenant_snap.to_json()),
        )
        .set("chaos_baseline_wall_ms", chaos_baseline_ms)
        .set("chaos_killed_wall_ms", chaos_killed_ms)
        .set("chaos_recovery_makespan_ms", recovery_overhead_ms)
        .set("chaos_stats", chaos_snap.to_json())
        .set("baseline_stats", base_snap.to_json())
        .set("optimized_stats", opt_snap.to_json())
        .set("framed_stats", framed_snap.to_json())
        .set("tcp_stats", tcp_snap.to_json());
    // Write at the workspace root regardless of the bench's cwd.
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(out_dir).ok();
    let out = format!("{out_dir}/BENCH_scheduler.json");
    if let Err(e) = std::fs::write(&out, doc.to_string_pretty()) {
        println!("  (could not write {out}: {e})");
    } else {
        println!("  wrote results/BENCH_scheduler.json");
    }

    let mut group = c.benchmark_group("scheduler_throughput");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("baseline", "per_message"), |bench| {
        let cluster = make_cluster(
            OptimizeConfig::default(),
            IngestMode::PerMessage,
            TraceConfig::default(),
        );
        let client = cluster.client();
        let mut round = 0u64;
        bench.iter(|| {
            round += 1;
            black_box(run_round(&client, round))
        });
    });
    group.bench_function(BenchmarkId::new("optimized", "fused_batched"), |bench| {
        let cluster = make_cluster(
            OptimizeConfig::enabled(),
            IngestMode::Batched { max_burst: 64 },
            TraceConfig::default(),
        );
        let client = cluster.client();
        let mut round = 0u64;
        bench.iter(|| {
            round += 1;
            black_box(run_round(&client, round))
        });
    });
    group.bench_function(BenchmarkId::new("optimized", "framed_wire"), |bench| {
        let cluster = make_transport_cluster(
            OptimizeConfig::enabled(),
            IngestMode::Batched { max_burst: 64 },
            TraceConfig::default(),
            TransportConfig::Framed,
        );
        let client = cluster.client();
        let mut round = 0u64;
        bench.iter(|| {
            round += 1;
            black_box(run_round(&client, round))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_scheduler_throughput);
criterion_main!(benches);
