//! Worker execution pipeline A/B bench: the pre-pipeline configuration
//! (serial dependency gather, one executor slot per worker) against the
//! pipelined one (concurrent gather, multiple slots per worker) on a
//! many-remote-dependencies workload at 4 workers.
//!
//! Each round scatters `BLOCKS` input blocks round-robin across the workers
//! and submits `TASKS` reduction tasks, each depending on `DEPS_PER_TASK`
//! blocks spread over *all* workers — so nearly every task must gather most
//! of its inputs remotely while the op itself blocks for a few milliseconds
//! (standing in for real kernel time). The pipelined configuration overlaps
//! both the remote fetches of one task and the execution of queued tasks,
//! which is where the ≥2× throughput comes from.
//!
//! Besides wall time, the run consumes the `SchedulerStats` pipeline
//! counters and prints a gather-latency / executor-utilization report for
//! both configurations.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dtask::{
    Cluster, ClusterConfig, Counter, Datum, GatherMode, HeartbeatInterval, HistSnapshot, Key,
    TaskSpec,
};
use std::time::{Duration, Instant};

const N_WORKERS: usize = 4;
const BLOCKS: usize = 16;
const TASKS: usize = 16;
const DEPS_PER_TASK: usize = 8;
const OP_SLEEP_MS: i64 = 3;

fn make_cluster(slots_per_worker: usize, gather_mode: GatherMode) -> Cluster {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        slots_per_worker,
        gather_mode,
        default_heartbeat: HeartbeatInterval::Infinite,
        ..ClusterConfig::default()
    });
    cluster.registry().register("slow_sum", |params, inputs| {
        let ms = params.as_i64().unwrap_or(0) as u64;
        std::thread::sleep(Duration::from_millis(ms));
        let mut total = 0.0;
        for d in inputs {
            total += d.as_f64().ok_or_else(|| "non-scalar input".to_string())?;
        }
        Ok(Datum::F64(total))
    });
    cluster
}

/// One workload round; returns the expected checksum of all task results.
fn run_round(cluster: &Cluster, round: u64) -> f64 {
    let client = cluster.client();
    for b in 0..BLOCKS {
        client.scatter(
            vec![(Key::new(format!("b{round}-{b}")), Datum::F64(b as f64))],
            Some(b % N_WORKERS),
        );
    }
    let specs: Vec<TaskSpec> = (0..TASKS)
        .map(|t| {
            let deps: Vec<Key> = (0..DEPS_PER_TASK)
                .map(|d| Key::new(format!("b{round}-{}", (t + d * 3) % BLOCKS)))
                .collect();
            TaskSpec::new(
                format!("t{round}-{t}"),
                "slow_sum",
                Datum::I64(OP_SLEEP_MS),
                deps,
            )
        })
        .collect();
    client.submit(specs);
    let mut total = 0.0;
    for t in 0..TASKS {
        total += client
            .future(format!("t{round}-{t}"))
            .result()
            .expect("task result")
            .as_f64()
            .expect("scalar result");
    }
    total
}

/// Run `rounds` full workloads on a fresh cluster; print the pipeline
/// telemetry; return total wall time.
fn timed_config(label: &str, slots: usize, mode: GatherMode, rounds: u64) -> Duration {
    let cluster = make_cluster(slots, mode);
    let started = Instant::now();
    for round in 0..rounds {
        black_box(run_round(&cluster, round));
    }
    let elapsed = started.elapsed();
    let stats = cluster.stats();
    let batches = stats.get(Counter::GatherBatches).max(1);
    println!(
        "  {label:<28} {:>7.1} ms | gather: {} batches, {} remote deps, \
         {:.2} ms avg wait/batch | exec util {:.0}%",
        elapsed.as_secs_f64() * 1e3,
        stats.get(Counter::GatherBatches),
        stats.get(Counter::GatherDeps),
        stats.get(Counter::GatherWaitNs) as f64 / batches as f64 / 1e6,
        stats.readings().executor_utilization() * 100.0,
    );
    let gather = HistSnapshot::capture(stats.gather_wait_hist());
    let queue = HistSnapshot::capture(stats.queue_delay_hist());
    println!(
        "  {:<28} gather wait p50 {:.2} ms / p99 {:.2} ms | queue delay p50 {:.2} ms / p99 {:.2} ms",
        "",
        gather.p50_ns as f64 / 1e6,
        gather.p99_ns as f64 / 1e6,
        queue.p50_ns as f64 / 1e6,
        queue.p99_ns as f64 / 1e6,
    );
    elapsed
}

fn bench_gather_pipeline(c: &mut Criterion) {
    // Headline A/B comparison, printed once with full telemetry.
    println!("gather_pipeline: {TASKS} tasks x {DEPS_PER_TASK} remote deps, {N_WORKERS} workers");
    let baseline = timed_config("baseline serial/1-slot", 1, GatherMode::Serial, 3);
    let pipelined = timed_config("pipelined concurrent/4-slot", 4, GatherMode::Concurrent, 3);
    let speedup = baseline.as_secs_f64() / pipelined.as_secs_f64().max(1e-9);
    println!("  speedup: {speedup:.2}x (target >= 2x)");

    // Criterion samples for the record.
    let mut group = c.benchmark_group("gather_pipeline");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("serial", "slots1"), |bench| {
        let cluster = make_cluster(1, GatherMode::Serial);
        let mut round = 0u64;
        bench.iter(|| {
            round += 1;
            black_box(run_round(&cluster, round))
        });
    });
    group.bench_function(BenchmarkId::new("concurrent", "slots4"), |bench| {
        let cluster = make_cluster(4, GatherMode::Concurrent);
        let mut round = 0u64;
        bench.iter(|| {
            round += 1;
            black_box(run_round(&cluster, round))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gather_pipeline);
criterion_main!(benches);
