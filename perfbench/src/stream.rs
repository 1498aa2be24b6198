//! `stream-tcp`: open loop at a fixed step period over the Tcp transport.
//! One producer thread owns one `Bridge` and publishes two 256×256 f64
//! blocks (512 KiB each) per step on schedule, whether or not the analytics
//! keeps up. The analytics client submits one reduction per step ahead of
//! the data, awaits each step, reads one block back and releases the
//! step's keys. Latency counts from each step's due time, so a stall also
//! charges the steps queued behind it.

use crate::report::{Counters, Report};
use crate::spans::TRACER;
use crate::stats::{drift_ratio, median, mib_per_s, ratio, summarize, windowed, WINDOWS};
use crate::{check_notifies, check_resident, splitmix64, RunConfig};
use deisa_core::{Adaptor, Bridge, DeisaVersion, Selection, VirtualArray};
use dtask::{Cluster, ClusterConfig, Datum, Key, TaskSpec, TransportConfig};
use linalg::NDArray;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const PERIOD: Duration = Duration::from_millis(20);
const SIDE: usize = 256;
/// Spatial blocks per step.
const BLOCKS: usize = 2;
const BLOCK_BYTES: u64 = (SIDE * SIDE * 8) as u64;
/// Untimed steps before measuring.
const WARMUP: usize = 50;
/// Steps whose reduction is submitted before their data exists.
const LOOKAHEAD: usize = 8;
const TASKS_PER_STEP: usize = 3;
const N_SETUPS: usize = 9;
/// Steps per block of the traced run's on/off alternation.
const TRACE_BLOCK: u64 = 50;
const WAIT: Duration = Duration::from_secs(30);
const ARRAY: &str = "field";

/// Block `b` of step `t`: multiples of 1/8 below 128 drawn from the seed,
/// so every sum of them is exact in any order. One multiply per value keeps
/// the generator's own CPU time out of the way of the system under test.
fn block(seed: u64, t: usize, b: usize) -> NDArray {
    let key = splitmix64(seed ^ splitmix64((t * BLOCKS + b) as u64));
    let data = (0..(SIDE * SIDE) as u64)
        .map(|i| ((key ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as f64 / 8.0)
        .collect();
    NDArray::from_vec(&[1, SIDE, SIDE], data).expect("block shape")
}

/// Step `t`'s reduction: one `da.sum` per block and a `sum_scalars` sink
/// keyed `s<t>-sum`.
fn step_specs(varray: &VirtualArray, t: usize) -> Vec<TaskSpec> {
    let parts: Vec<Key> = (0..BLOCKS)
        .map(|b| Key::new(format!("s{t}-part{b}")))
        .collect();
    let mut specs: Vec<TaskSpec> = parts
        .iter()
        .enumerate()
        .map(|(b, k)| TaskSpec::new(k.clone(), "da.sum", Datum::Null, vec![varray.key(t, b)]))
        .collect();
    specs.push(TaskSpec::new(
        format!("s{t}-sum"),
        "sum_scalars",
        Datum::Null,
        parts,
    ));
    specs
}

struct Setup {
    cluster: Cluster,
    adaptor: Adaptor,
    bridge: Bridge,
    contract_s: f64,
}

/// Start the cluster, connect both sides and sign the contract.
fn set_up(varray: &VirtualArray) -> Result<Setup, String> {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 2,
        transport: TransportConfig::Tcp,
        ..ClusterConfig::default()
    });
    darray::register_array_ops(cluster.registry());
    let producer = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
    let adaptor = Adaptor::new(cluster.client());
    let t0 = Instant::now();
    let bridge = std::thread::scope(|s| {
        let init = s.spawn(|| {
            TRACER.span("core", "bridge_init", 0, 0, || {
                Bridge::init(producer, 0, vec![varray.clone()])
            })
        });
        let signed = TRACER.span("core", "contract", 0, 0, || -> Result<(), String> {
            let mut arrays = adaptor.get_deisa_arrays()?;
            arrays.select(ARRAY, Selection::all(varray))?;
            arrays.validate_contract()
        });
        let bridge = init.join().expect("bridge init thread panicked");
        signed.and(bridge)
    })?;
    Ok(Setup {
        cluster,
        adaptor,
        bridge,
        contract_s: t0.elapsed().as_secs_f64(),
    })
}

/// What the producer thread measured.
#[derive(Default)]
struct Produced {
    late_s: Vec<f64>,
    publish_s: Vec<f64>,
    step_publish_s: Vec<f64>,
    sent: u64,
    filtered: u64,
    /// Outcome of every publish call.
    outcomes: Vec<Result<(), String>>,
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut r = Report::default();
    let steps = WARMUP + (cfg.seconds.as_millis() / PERIOD.as_millis()) as usize;
    let varray = VirtualArray::new(ARRAY, &[steps, SIDE, BLOCKS * SIDE], &[1, SIDE, SIDE], 0)
        .expect("stream array layout");
    let mut setups = Vec::with_capacity(N_SETUPS);
    let mut contracts = Vec::with_capacity(N_SETUPS);
    let mut live = None;
    for _ in 0..N_SETUPS {
        drop(live.take());
        let t0 = Instant::now();
        let s = set_up(&varray).unwrap_or_else(|e| panic!("stream set-up failed: {e}"));
        setups.push(t0.elapsed().as_secs_f64());
        contracts.push(s.contract_s);
        live = Some(s);
    }
    let Setup {
        cluster,
        adaptor,
        mut bridge,
        ..
    } = live.expect("at least one set-up");
    let client = adaptor.client();
    let timers = crate::ops::OpTimers::new();
    if cfg.trace {
        timers.wrap(cluster.registry(), &["da.sum", "sum_scalars"]);
    }
    let before = Counters::read(&cluster);
    for t in 0..LOOKAHEAD.min(steps) {
        client.submit(step_specs(&varray, t));
    }

    let start = Instant::now() + Duration::from_millis(20);
    let due = |t: usize| start + PERIOD * t as u32;
    let (tx, rx) = mpsc::channel::<f64>();
    let mut latency_s = Vec::with_capacity(steps);
    let (mut traced_s, mut untraced_s) = (vec![], vec![]);
    let mut heap_mib = Vec::with_capacity(steps);
    let (mut wait_s, mut readback_s, mut submit_s, mut release_s) =
        (vec![], vec![], vec![], vec![]);
    let mut last_done = start;
    let mut produced = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut p = Produced::default();
            for t in 0..steps {
                // Generate ahead of the due time so the generator's own cost
                // never delays a publish.
                let blocks: Vec<NDArray> = (0..BLOCKS).map(|b| block(cfg.seed, t, b)).collect();
                let expected: f64 = blocks.iter().map(|a| a.data().iter().sum::<f64>()).sum();
                if tx.send(expected).is_err() {
                    break;
                }
                let now = Instant::now();
                if let Some(wait) = due(t).checked_duration_since(now) {
                    std::thread::sleep(wait);
                }
                TRACER.set_on(t >= WARMUP && cfg.traced(t as u64, TRACE_BLOCK));
                let t0 = Instant::now();
                for (b, a) in blocks.into_iter().enumerate() {
                    let tp = Instant::now();
                    let out = TRACER.span("core", "publish", 0, t as u64, || {
                        bridge.publish(ARRAY, t, b, a)
                    });
                    if t >= WARMUP {
                        p.publish_s.push(tp.elapsed().as_secs_f64());
                    }
                    p.outcomes.push(
                        out.map(|_| ())
                            .map_err(|e| format!("step {t} block {b}: {e}")),
                    );
                }
                if t >= WARMUP {
                    p.late_s
                        .push(t0.saturating_duration_since(due(t)).as_secs_f64());
                    p.step_publish_s.push(t0.elapsed().as_secs_f64());
                }
            }
            p.sent = bridge.sent_blocks;
            p.filtered = bridge.filtered_blocks;
            p
        });

        for t in 0..steps {
            let unit = t as u64;
            let sum_key = Key::new(format!("s{t}-sum"));
            let back = varray.key(t, t % BLOCKS);
            let tw = Instant::now();
            let sum = TRACER.span("dtask.client", "result_wait", 0, unit, || {
                client.future(sum_key).result_timeout(WAIT)
            });
            let tr = Instant::now();
            let got = TRACER.span("dtask.wire", "read_back", 0, unit, || {
                client.future(back).result_timeout(WAIT)
            });
            let done = Instant::now();
            let expected = rx
                .recv_timeout(WAIT)
                .map_err(|e| format!("step {t}: producer gone: {e}"));
            r.check(match (sum, expected) {
                (Ok(d), Ok(e)) if d.as_f64() == Some(e) => Ok(()),
                (Ok(d), Ok(e)) => Err(format!("step {t}: sum {d:?}, expected {e}")),
                (Err(e), _) => Err(format!("step {t}: {e}")),
                (_, Err(e)) => Err(e),
            });
            r.check(match got {
                Ok(d)
                    if d.as_array()
                        .is_some_and(|a| **a == block(cfg.seed, t, t % BLOCKS)) =>
                {
                    Ok(())
                }
                Ok(_) => Err(format!(
                    "step {t}: read-back block differs from the generator's"
                )),
                Err(e) => Err(format!("step {t}: read-back: {e}")),
            });
            let tl = Instant::now();
            let mut keys: Vec<Key> = step_specs(&varray, t).into_iter().map(|s| s.key).collect();
            keys.extend((0..BLOCKS).map(|b| varray.key(t, b)));
            TRACER.span("dtask.client", "release", 0, unit, || client.release(keys));
            let t_release = tl.elapsed().as_secs_f64();
            let ts = Instant::now();
            if t + LOOKAHEAD < steps {
                let specs = step_specs(&varray, t + LOOKAHEAD);
                TRACER.span("dtask.client", "submit", 0, unit, || client.submit(specs));
            }
            let t_submit = ts.elapsed().as_secs_f64();
            if t >= WARMUP {
                let lat = done.saturating_duration_since(due(t)).as_secs_f64();
                latency_s.push(lat);
                wait_s.push((tr - tw).as_secs_f64());
                readback_s.push((done - tr).as_secs_f64());
                release_s.push(t_release);
                submit_s.push(t_submit);
                heap_mib.push(crate::heap::live_mib());
                if cfg.trace {
                    if cfg.traced(unit, TRACE_BLOCK) {
                        &mut traced_s
                    } else {
                        &mut untraced_s
                    }
                    .push(lat);
                }
                last_done = done;
            }
        }
        drop(rx);
        producer.join().expect("producer thread panicked")
    });
    TRACER.set_on(false);
    for outcome in std::mem::take(&mut produced.outcomes) {
        r.check(outcome);
    }
    let measured = latency_s.len() as u64;
    let wall = last_done
        .saturating_duration_since(due(WARMUP))
        .as_secs_f64();
    let counters = Counters::read(&cluster).since(&before);

    let left = check_resident(&mut r, &cluster, 0, "after the last release");
    check_notifies(&mut r, &cluster, "stream-tcp");

    let lat = windowed(&latency_s, WINDOWS);
    r.put(
        "setup_s",
        median(&setups),
        "s",
        setups.len() as u64,
        "median Tcp cluster start + connects + contract",
    );
    r.put(
        "heap_mib",
        median(&heap_mib),
        "MiB",
        heap_mib.len() as u64,
        "median live heap after each step's release",
    );
    r.put(
        "time_to_solution_s",
        lat.p50,
        "s",
        lat.n as u64,
        "median step: due time to sum and read-back in hand",
    );
    r.put_summary("step_latency", lat, "ms");
    r.put(
        "sim_time_s",
        median(&produced.step_publish_s),
        "s",
        measured,
        "median producer publish time per step",
    );
    let publish = summarize(&produced.publish_s);
    r.put(
        "publish_mib_s",
        mib_per_s(BLOCK_BYTES, publish.p50),
        "MiB/s",
        publish.n as u64,
        "block bytes over the median Bridge::publish call",
    );
    r.put(
        "tasks_per_s",
        ratio((TASKS_PER_STEP as u64 * measured) as f64, wall),
        "1/s",
        measured,
        "tasks over measured wall time",
    );
    // The open loop's period sets this rate unless the system falls behind.
    r.fixed.push("tasks_per_s");

    r.put(
        "core.contract_setup_ms",
        median(&contracts) * 1e3,
        "ms",
        contracts.len() as u64,
        "median adaptor contract + Bridge::init wait",
    );
    r.put_summary("core.publish", summarize(&produced.publish_s), "us");
    r.put_summary("bench.generator_late", summarize(&produced.late_s), "ms");
    r.put_client_calls(&submit_s, &wait_s, &release_s);
    r.put_summary("dtask.wire.read_back", summarize(&readback_s), "ms");
    counters.put_layers(&mut r, measured, "step");
    let (keys, bytes) = (left.0 as f64, left.1 as f64);
    r.put(
        "dtask.store.resident_keys",
        keys,
        "count",
        1,
        "after the last step's release",
    );
    r.put(
        "dtask.store.resident_bytes",
        bytes,
        "bytes",
        1,
        "after the last step's release",
    );
    let steps_total = steps as f64;
    r.put(
        "core.blocks_sent",
        ratio(produced.sent as f64, steps_total),
        "count",
        steps as u64,
        "per step",
    );
    r.put(
        "core.blocks_filtered",
        ratio(produced.filtered as f64, steps_total),
        "count",
        steps as u64,
        "per step",
    );
    r.put(
        "dml.partial_fit_calls",
        0.0,
        "count",
        measured,
        "no fits in this workload",
    );
    let (drift, base) = drift_ratio(&latency_s);
    r.put(
        "bench.drift_ratio",
        drift,
        "ratio",
        base as u64,
        "last-quarter over first-quarter median latency",
    );
    let (sum_ms, sum_calls) = timers.get("da.sum");
    r.put(
        "darray.sum_busy_ms",
        ratio(sum_ms, measured as f64),
        "ms",
        sum_calls,
        "per step, op wrapper",
    );
    r.put_trace_overhead(&traced_s, &untraced_s);
    r
}
