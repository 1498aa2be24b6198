//! `graph-rounds`: closed loop, one client thread, in-process transport,
//! default configuration (optimizer off, so every task crosses the
//! scheduler). Each round registers 64 externals, submits the IPCA-shaped
//! null-op graph before the data (64 chains of 8 `bump`, 32 dead branches,
//! one sum sink: 545 tasks), scatters the 64 blocks with `external=true`,
//! awaits the sink and releases the round's task keys. The external blocks
//! stay resident for a sliding window of the last `WINDOW` rounds, the
//! working set a whole-graph run keeps for past timesteps.

use crate::report::{Counters, Report};
use crate::spans::TRACER;
use crate::stats::{drift_ratio, median, mib_per_s, ratio, summarize, windowed, WINDOWS};
use crate::{check_notifies, check_resident, splitmix64, RunConfig};
use dtask::{Cluster, ClusterConfig, Datum, Key, TaskSpec};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const CHAINS: usize = 64;
const CHAIN_LEN: usize = 8;
const DEAD: usize = 32;
const TASKS: usize = CHAINS * CHAIN_LEN + DEAD + 1;
/// Rounds whose external blocks stay resident: 128 × 64 = 8192 blocks.
const WINDOW: usize = 128;
/// Untimed rounds that fill the window before measuring.
const WARMUP: usize = WINDOW + 32;
const N_SETUPS: usize = 15;
/// The live heap is read every `HEAP_EVERY` rounds over the first
/// `HEAP_ROUNDS` measured rounds, a fixed amount of work: it grows with
/// the rounds run, so reading it over the whole run would make it follow
/// the host's speed.
const HEAP_ROUNDS: usize = 2048;
const HEAP_EVERY: usize = 32;
/// Rounds per block of the traced run's on/off alternation.
const TRACE_BLOCK: u64 = 16;
const WAIT: Duration = Duration::from_secs(30);

fn start_cluster() -> Cluster {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 2,
        ..ClusterConfig::default()
    });
    // The null op: a scalar increment, so per-task runtime cost dominates.
    cluster.registry().register("bump", |_params, deps| {
        deps.first()
            .and_then(|d| d.as_f64())
            .map(|x| Datum::F64(x + 1.0))
            .ok_or_else(|| "bump: scalar input required".to_string())
    });
    cluster
}

struct Round {
    externals: Vec<(Key, Datum)>,
    specs: Vec<TaskSpec>,
    task_keys: Vec<Key>,
    sink: Key,
    expected: f64,
}

/// Round `r`'s graph and blocks; block values are small integers drawn
/// from the seed, so the sink's closed form is exact.
fn build_round(seed: u64, r: usize) -> Round {
    let mut externals = Vec::with_capacity(CHAINS);
    let mut specs = Vec::with_capacity(TASKS);
    let mut tails = Vec::with_capacity(CHAINS);
    let mut expected = (CHAINS * CHAIN_LEN) as f64;
    for c in 0..CHAINS {
        let v = (splitmix64(seed ^ ((r * CHAINS + c) as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            % 1000) as f64;
        expected += v;
        let ext = Key::new(format!("r{r}-ext{c}"));
        externals.push((ext.clone(), Datum::F64(v)));
        let mut prev = ext;
        for l in 0..CHAIN_LEN {
            let key = Key::new(format!("r{r}-c{c}-{l}"));
            specs.push(TaskSpec::new(key.clone(), "bump", Datum::Null, vec![prev]));
            prev = key;
        }
        tails.push(prev);
    }
    for d in 0..DEAD {
        let src = Key::new(format!("r{r}-c{}-0", d % CHAINS));
        specs.push(TaskSpec::new(
            format!("r{r}-dead{d}"),
            "bump",
            Datum::Null,
            vec![src],
        ));
    }
    let sink = Key::new(format!("r{r}-sink"));
    specs.push(TaskSpec::new(
        sink.clone(),
        "sum_scalars",
        Datum::Null,
        tails,
    ));
    let task_keys = specs.iter().map(|s| s.key.clone()).collect();
    Round {
        externals,
        specs,
        task_keys,
        sink,
        expected,
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::with_capacity(N_SETUPS);
    let mut live = None;
    for _ in 0..N_SETUPS {
        // Shut the previous cluster down before timing the next start.
        drop(live.take());
        let t0 = Instant::now();
        let cluster = start_cluster();
        let client = cluster.client();
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((cluster, client));
    }
    let (cluster, client) = live.expect("at least one set-up");
    let timers = crate::ops::OpTimers::new();
    if cfg.trace {
        timers.wrap(cluster.registry(), &["bump", "sum_scalars"]);
    }

    let mut window: VecDeque<Vec<Key>> = VecDeque::with_capacity(WINDOW + 1);
    let (mut round_s, mut producer_s, mut traced_s, mut untraced_s) =
        (vec![], vec![], vec![], vec![]);
    let (mut submit_s, mut scatter_s, mut wait_s, mut release_s) = (vec![], vec![], vec![], vec![]);
    let mut heap_mib = Vec::with_capacity(HEAP_ROUNDS / HEAP_EVERY);
    let mut measure_from = None;
    let mut before = Counters::default();
    let mut round = 0usize;
    loop {
        let measuring = round >= WARMUP;
        if round == WARMUP {
            measure_from = Some(Instant::now());
            before = Counters::read(&cluster);
        }
        if measuring
            && round_s.len() >= HEAP_ROUNDS
            && measure_from.is_some_and(|t| t.elapsed() >= cfg.seconds)
        {
            break;
        }
        let unit = round as u64;
        let traced = measuring && cfg.traced(unit, TRACE_BLOCK);
        TRACER.set_on(traced);
        let Round {
            externals,
            specs,
            task_keys,
            sink,
            expected,
        } = build_round(cfg.seed, round);
        let ext_keys: Vec<Key> = externals.iter().map(|(k, _)| k.clone()).collect();

        let root = TRACER.open_root("round", unit);
        let pid = root.as_ref().map_or(0, |o| o.id);
        let t0 = Instant::now();
        TRACER.span("dtask.sched", "register_external", pid, unit, || {
            client.register_external(ext_keys.clone())
        });
        let t = Instant::now();
        TRACER.span("dtask.client", "submit", pid, unit, || client.submit(specs));
        let t_submit = t.elapsed().as_secs_f64();
        let mut t_scatter = Vec::with_capacity(CHAINS);
        for item in externals {
            let t = Instant::now();
            TRACER.span("dtask.client", "scatter_external", pid, unit, || {
                client.scatter_external(vec![item], None)
            });
            t_scatter.push(t.elapsed().as_secs_f64());
        }
        let t_prod = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let got = TRACER.span("dtask.client", "result_wait", pid, unit, || {
            client.future(sink.clone()).result_timeout(WAIT)
        });
        let t_wait = t.elapsed().as_secs_f64();
        let t_round = t0.elapsed().as_secs_f64();
        r.check(match got {
            Ok(d) if d.as_f64() == Some(expected) => Ok(()),
            Ok(d) => Err(format!("round {round}: sink {d:?}, expected {expected}")),
            Err(e) => Err(format!("round {round}: {e}")),
        });
        let t = Instant::now();
        TRACER.span("dtask.client", "release", pid, unit, || {
            client.release(task_keys);
            window.push_back(ext_keys);
            if window.len() > WINDOW {
                client.release(window.pop_front().expect("window is full"));
            }
        });
        let t_release = t.elapsed().as_secs_f64();
        TRACER.close(root);

        if measuring {
            if round_s.len() < HEAP_ROUNDS && round_s.len() % HEAP_EVERY == HEAP_EVERY - 1 {
                heap_mib.push(crate::heap::live_mib());
            }
            round_s.push(t_round);
            producer_s.push(t_prod);
            submit_s.push(t_submit);
            scatter_s.extend(t_scatter);
            wait_s.push(t_wait);
            release_s.push(t_release);
            if cfg.trace {
                if traced {
                    &mut traced_s
                } else {
                    &mut untraced_s
                }
                .push(t_round);
            }
        }
        round += 1;
    }
    TRACER.set_on(false);
    let wall = measure_from.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let measured = round_s.len() as u64;
    let counters = Counters::read(&cluster).since(&before);
    let heap_end_mib = crate::heap::live_mib();

    // Leak guard: once every round's task keys are released, exactly the
    // window's blocks stay resident; releasing the window empties the store.
    let resident = check_resident(&mut r, &cluster, CHAINS * WINDOW, "window");
    client.release(window.drain(..).flatten().collect());
    check_resident(&mut r, &cluster, 0, "after the window's release");
    check_notifies(&mut r, &cluster, "graph-rounds");

    let rounds = windowed(&round_s, WINDOWS);
    r.put(
        "setup_s",
        median(&setups),
        "s",
        setups.len() as u64,
        "median cluster start + client connect",
    );
    r.put(
        "heap_mib",
        median(&heap_mib),
        "MiB",
        heap_mib.len() as u64,
        "median live heap, read every 32 of the first 2048 measured rounds",
    );
    r.put(
        "heap_end_mib",
        heap_end_mib,
        "MiB",
        measured,
        "live heap after the last measured round",
    );
    r.put(
        "time_to_solution_s",
        rounds.p50,
        "s",
        rounds.n as u64,
        "median round: register to sink in hand",
    );
    r.put_summary("step_latency", rounds, "ms");
    r.put(
        "sim_time_s",
        median(&producer_s),
        "s",
        measured,
        "median register + submit + scatter per round",
    );
    let scatter = summarize(&scatter_s);
    r.put(
        "publish_mib_s",
        mib_per_s(8, scatter.p50),
        "MiB/s",
        scatter.n as u64,
        "block bytes over the median scatter_external call",
    );
    r.put(
        "tasks_per_s",
        ratio((TASKS as u64 * measured) as f64, wall),
        "1/s",
        measured,
        "tasks over measured wall time",
    );

    r.put_client_calls(&submit_s, &wait_s, &release_s);
    r.put_summary("dtask.client.scatter", scatter, "us");
    counters.put_layers(&mut r, measured, "round");
    r.put(
        "dtask.store.resident_keys",
        resident.0 as f64,
        "count",
        1,
        "after the last round",
    );
    r.put(
        "dtask.store.resident_bytes",
        resident.1 as f64,
        "bytes",
        1,
        "after the last round",
    );
    r.put(
        "core.blocks_sent",
        0.0,
        "count",
        measured,
        "no bridge in this workload",
    );
    r.put(
        "core.blocks_filtered",
        0.0,
        "count",
        measured,
        "no bridge in this workload",
    );
    r.put(
        "dml.partial_fit_calls",
        0.0,
        "count",
        measured,
        "no kernels in this workload",
    );
    let (drift, base) = drift_ratio(&round_s);
    r.put(
        "bench.drift_ratio",
        drift,
        "ratio",
        base as u64,
        "last-quarter over first-quarter median round",
    );
    let (bump_ms, bump_calls) = timers.get("bump");
    r.put(
        "dtask.worker.bump_busy_ms",
        ratio(bump_ms, measured as f64),
        "ms",
        bump_calls,
        "per round, op wrapper",
    );
    r.put_trace_overhead(&traced_s, &untraced_s);
    r
}
