//! `insitu-ipca`: the paper's pipeline, one whole pipeline per work unit.
//! Heat2D runs on two `mpisim` ranks (1×2 grid) through PDI with the deisa
//! plugin (Listing 1, DEISA3) on two in-process workers. The analytics
//! client signs the contract and submits the whole-graph
//! `InSituIncrementalPCA` (2 components, randomized solver as in Listing 2)
//! ahead of the data, then fetches the model. The benchmark drives the rank
//! loop itself from public calls, with several stencil substeps per
//! exposed step so the simulation is a visible share of the time.

use crate::ops::OpTimers;
use crate::report::{Counters, Report};
use crate::spans::TRACER;
use crate::stats::{drift_ratio, median, mib_per_s, ratio, summarize, windowed, WINDOWS};
use crate::{check_notifies, check_resident, resident, splitmix64, RunConfig};
use darray::Graph;
use deisa_core::plugin::DeisaPlugin;
use deisa_core::{Adaptor, DeisaVersion, Selection};
use dml::{InSituIncrementalPCA, IncrementalPca, SvdSolver};
use dtask::{Cluster, ClusterConfig, Key};
use heat2d::solver::LocalSolver;
use heat2d::HeatConfig;
use linalg::Matrix;
use mpisim::{CartComm, World};
use pdi::{parse_yaml, Pdi};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GLOBAL: (usize, usize) = (256, 512);
const PROCS: (usize, usize) = (1, 2);
const STEPS: usize = 40;
const SUBSTEPS: usize = 8;
const COMPONENTS: usize = 2;
const SOLVER: SvdSolver = SvdSolver::Randomized { seed: 42 };
const MIN_PIPELINES: usize = 3;
const WAIT: Duration = Duration::from_secs(60);

/// The deisa plugin configuration (the paper's Listing 1).
const CONFIG: &str = r#"
data:
  temp:
    type: array
    subtype: double
plugins:
  PdiPluginDeisa:
    init_on: init
    time_step: $step
    deisa_arrays:
      G_temp:
        size:
          -'$max_step'
          -'$loc[0] * $proc[0]'
          -'$loc[1] * $proc[1]'
        subsize:
          -1
          -'$loc[0]'
          -'$loc[1]'
        start:
          -$step
          -'$loc[0] * ($rank / $proc[1])'
          -'$loc[1] * ($rank % $proc[1])'
        timedim: 0
    map_in:
      temp: G_temp
"#;

/// Initial field: a hot rectangle placed by the seed over seeded noise in
/// `[0, 1)`.
fn initial(seed: u64) -> impl Fn(usize, usize) -> f64 + Copy + Send + Sync {
    let (gx, gy) = GLOBAL;
    let h = splitmix64(seed);
    let (x0, y0) = (
        (h % (gx as u64 / 2)) as usize,
        ((h >> 20) % (gy as u64 / 2)) as usize,
    );
    let (w, l) = (
        gx / 4 + ((h >> 40) % 16) as usize,
        gy / 4 + ((h >> 48) % 16) as usize,
    );
    move |i, j| {
        let noise = (splitmix64(seed ^ ((i * gy + j) as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            >> 11) as f64
            / (1u64 << 53) as f64;
        let hot = (x0..x0 + w).contains(&i) && (y0..y0 + l).contains(&j);
        noise + if hot { 100.0 } else { 0.0 }
    }
}

fn heat_config(procs: (usize, usize)) -> HeatConfig {
    HeatConfig::new(GLOBAL, procs, STEPS).expect("valid heat configuration")
}

/// One timestep's batch as `da.stack2d` lays it out: samples = Y, features = X.
fn batch(field: &linalg::NDArray) -> Matrix {
    let (gx, gy) = GLOBAL;
    Matrix::from_fn(gy, gx, |y, x| field.data()[x * gy + y])
}

/// Serial in-process reference: the same fields on one rank, fitted by a
/// local `IncrementalPca`.
fn reference(seed: u64) -> IncrementalPca {
    let cfg = heat_config((1, 1));
    let mut out = World::run(1, |comm| {
        let cart = CartComm::new(comm, &[1, 1], &[false, false]).expect("1x1 grid");
        let mut solver = LocalSolver::new(&cfg, (0, 0), initial(seed));
        let mut model = IncrementalPca::new(COMPONENTS, SOLVER);
        for _ in 0..STEPS {
            for _ in 0..SUBSTEPS {
                solver.exchange_ghosts(&cart).expect("ghost exchange");
                solver.step_stencil();
            }
            model
                .partial_fit(&batch(&solver.interior()))
                .expect("reference fit");
        }
        model
    })
    .expect("reference world");
    out.pop().expect("one rank")
}

fn compare(model: &IncrementalPca, reference: &IncrementalPca) -> Result<(), String> {
    if model.n_samples_seen != reference.n_samples_seen {
        return Err(format!(
            "model saw {} samples, reference {}",
            model.n_samples_seen, reference.n_samples_seen
        ));
    }
    for (a, b) in model.singular_values.iter().zip(&reference.singular_values) {
        if (a - b).abs() > 1e-8 * b.abs().max(1.0) {
            return Err(format!("singular value {a} vs reference {b}"));
        }
    }
    let d = model
        .components
        .max_abs_diff(&reference.components)
        .map_err(|e| e.to_string())?;
    if d >= 1e-7 {
        return Err(format!("components differ from the reference by {d}"));
    }
    for (a, b) in model.mean.iter().zip(&reference.mean) {
        if (a - b).abs() > 1e-9 * b.abs().max(1.0) {
            return Err(format!("mean {a} vs reference {b}"));
        }
    }
    Ok(())
}

/// What one rank measured.
struct RankOut {
    init_done: Instant,
    sim_start: Instant,
    end: Instant,
    expose_start: Vec<Instant>,
    expose_s: Vec<f64>,
    stencil_s: f64,
    ghost_s: f64,
}

fn run_rank(
    comm: &mpisim::Comm,
    cluster: &Cluster,
    seed: u64,
    pid: u64,
    unit: u64,
) -> Result<RankOut, String> {
    let cfg = heat_config(PROCS);
    let e = |err: pdi::PdiError| err.to_string();
    let yaml = parse_yaml(CONFIG).map_err(|e| e.to_string())?;
    let mut pdi = Pdi::new(yaml.clone());
    let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
    DeisaPlugin::from_yaml(&yaml, DeisaVersion::Deisa3, client)
        .map_err(e)?
        .install(&mut pdi);
    let (l0, l1) = cfg.local();
    pdi.share("rank", comm.rank() as i64).map_err(e)?;
    pdi.share("size", comm.size() as i64).map_err(e)?;
    pdi.share("max_step", STEPS as i64).map_err(e)?;
    pdi.share("loc", vec![l0 as i64, l1 as i64]).map_err(e)?;
    pdi.share("proc", vec![PROCS.0 as i64, PROCS.1 as i64])
        .map_err(e)?;
    pdi.share("step", 0i64).map_err(e)?;
    // The plugin's init handler runs `Bridge::init`, which blocks until the
    // analytics has signed the contract.
    TRACER
        .span("core", "bridge_init", pid, unit, || pdi.event("init"))
        .map_err(e)?;
    let init_done = Instant::now();

    let cart = CartComm::new(comm, &[PROCS.0, PROCS.1], &[false, false])?;
    let mut solver = LocalSolver::new(&cfg, cfg.coords(comm.rank()), initial(seed));
    let (mut stencil_s, mut ghost_s) = (0.0, 0.0);
    let mut expose_start = Vec::with_capacity(STEPS);
    let mut expose_s = Vec::with_capacity(STEPS);
    let sim_start = Instant::now();
    for step in 0..STEPS {
        for _ in 0..SUBSTEPS {
            let t = Instant::now();
            TRACER.span("mpisim", "exchange_ghosts", pid, unit, || {
                solver.exchange_ghosts(&cart)
            })?;
            let t2 = Instant::now();
            TRACER.span("heat2d", "step_stencil", pid, unit, || {
                solver.step_stencil()
            });
            ghost_s += (t2 - t).as_secs_f64();
            stencil_s += t2.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        TRACER
            .span(
                "pdi",
                "expose",
                pid,
                unit,
                || -> Result<(), pdi::PdiError> {
                    pdi.share("step", step as i64)?;
                    pdi.share("temp", solver.interior())?;
                    pdi.event("iteration")
                },
            )
            .map_err(e)?;
        expose_s.push(t.elapsed().as_secs_f64());
        expose_start.push(t);
    }
    pdi.event("finalization").map_err(e)?;
    Ok(RankOut {
        init_done,
        sim_start,
        end: Instant::now(),
        expose_start,
        expose_s,
        stencil_s,
        ghost_s,
    })
}

/// What the analytics side measured.
struct AnalyticsOut {
    adaptor: Adaptor,
    contract_start: Instant,
    graph_build_s: f64,
    submit_s: f64,
    wait_s: f64,
    model: Result<IncrementalPca, String>,
    model_at: Instant,
    graph_keys: Vec<Key>,
    n_tasks: usize,
}

fn analytics(adaptor: Adaptor, p: usize, pid: u64, unit: u64) -> Result<AnalyticsOut, String> {
    let contract_start = Instant::now();
    let gt = TRACER.span("core", "contract", pid, unit, || -> Result<_, String> {
        let mut arrays = adaptor.get_deisa_arrays()?;
        let v = arrays
            .descriptor("G_temp")
            .ok_or("no G_temp offered")?
            .clone();
        let gt = arrays.select_labeled("G_temp", Selection::all(&v), &["t", "X", "Y"])?;
        arrays.validate_contract()?;
        Ok(gt)
    })?;
    let t = Instant::now();
    let (fitted, outputs, specs) = TRACER.span(
        "darray",
        "graph_build",
        pid,
        unit,
        || -> Result<_, String> {
            let mut g = Graph::new(format!("ipca{p}"));
            let fitted = InSituIncrementalPCA::new(COMPONENTS, SOLVER).fit(
                &mut g,
                &gt,
                "t",
                &["Y"],
                &["X"],
            )?;
            let outputs = g.outputs().to_vec();
            Ok((fitted, outputs, g.into_specs()))
        },
    )?;
    let graph_build_s = t.elapsed().as_secs_f64();
    let graph_keys: Vec<Key> = specs.iter().map(|s| s.key.clone()).collect();
    let n_tasks = specs.len();
    let client = adaptor.client();
    let t = Instant::now();
    TRACER.span("dtask.client", "submit", pid, unit, || {
        client.submit_with_outputs(specs, &outputs)
    });
    let submit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = TRACER.span("dtask.client", "result_wait", pid, unit, || {
        // Bounded wait first; the fetch then decodes the ready state.
        client
            .future(fitted.state_key.clone())
            .result_timeout(WAIT)
            .map_err(|e| e.to_string())
            .and_then(|_| fitted.fetch(client))
    });
    let model_at = Instant::now();
    Ok(AnalyticsOut {
        contract_start,
        graph_build_s,
        submit_s,
        wait_s: (model_at - t).as_secs_f64(),
        model,
        model_at,
        graph_keys,
        n_tasks,
        adaptor,
    })
}

/// Per-pipeline measurements.
#[derive(Default)]
struct Series {
    setup_s: Vec<f64>,
    tts_s: Vec<f64>,
    sim_s: Vec<f64>,
    tasks_per_s: Vec<f64>,
    lag_s: Vec<f64>,
    expose_s: Vec<f64>,
    contract_s: Vec<f64>,
    graph_build_s: Vec<f64>,
    submit_s: Vec<f64>,
    wait_s: Vec<f64>,
    release_s: Vec<f64>,
    stencil_s: f64,
    ghost_s: f64,
    traced_tts: Vec<f64>,
    untraced_tts: Vec<f64>,
    heap_mib: Vec<f64>,
    resident: (usize, u64),
    counters: Counters,
}

fn pipeline(
    cfg: &RunConfig,
    p: usize,
    timers: &Arc<OpTimers>,
    reference: &IncrementalPca,
    s: &mut Series,
    r: &mut Report,
) -> Result<(), String> {
    let unit = p as u64;
    let traced = cfg.traced(unit, 1);
    TRACER.set_on(traced);
    let root = TRACER.open_root("pipeline", unit);
    let pid = root.as_ref().map_or(0, |o| o.id);
    timers.fits.lock().expect("fit log poisoned").clear();

    let t0 = Instant::now();
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 2,
        ..ClusterConfig::default()
    });
    darray::register_array_ops(cluster.registry());
    dml::register_ml_ops(cluster.registry());
    if cfg.trace {
        timers.wrap(
            cluster.registry(),
            &[
                "da.slice",
                "da.assemble",
                "da.stack2d",
                "ml.ipca_init",
                "ml.partial_fit",
            ],
        );
    } else {
        timers.wrap(cluster.registry(), &["ml.partial_fit"]);
    }
    let adaptor = Adaptor::new(cluster.client());
    let (ranks, ana) = std::thread::scope(|sc| {
        let ana = sc.spawn(|| analytics(adaptor, p, pid, unit));
        let ranks = World::run(PROCS.0 * PROCS.1, |comm| {
            run_rank(comm, &cluster, cfg.seed, pid, unit)
        });
        (ranks, ana.join().expect("analytics thread panicked"))
    });
    let ranks: Vec<RankOut> = ranks
        .map_err(|e| format!("pipeline {p}: {e:?}"))?
        .into_iter()
        .collect::<Result<_, _>>()?;
    let ana = ana?;

    let contract_end = ranks.iter().map(|o| o.init_done).max().expect("ranks");
    let sim_start = ranks.iter().map(|o| o.sim_start).min().expect("ranks");
    let tts = ana
        .model_at
        .saturating_duration_since(sim_start)
        .as_secs_f64();
    s.setup_s.push((contract_end - t0).as_secs_f64());
    s.contract_s.push(
        contract_end
            .saturating_duration_since(ana.contract_start)
            .as_secs_f64(),
    );
    s.tts_s.push(tts);
    s.sim_s.push(
        ranks
            .iter()
            .map(|o| (o.end - o.sim_start).as_secs_f64())
            .fold(0.0, f64::max),
    );
    s.tasks_per_s.push(ratio(ana.n_tasks as f64, tts));
    if cfg.trace {
        if traced {
            &mut s.traced_tts
        } else {
            &mut s.untraced_tts
        }
        .push(tts);
    }
    for o in &ranks {
        s.expose_s.extend(&o.expose_s);
        s.stencil_s += o.stencil_s;
        s.ghost_s += o.ghost_s;
    }
    // Per-step latency: from the moment the last rank starts handing step t
    // off to the moment its `partial_fit` has finished.
    let gy = GLOBAL.1 as i64;
    for &(at, seen) in timers.fits.lock().expect("fit log poisoned").iter() {
        let step = (seen / gy - 1) as usize;
        if let Some(handoff) = ranks
            .iter()
            .map(|o| o.expose_start.get(step).copied())
            .max()
            .flatten()
        {
            s.lag_s
                .push(at.saturating_duration_since(handoff).as_secs_f64());
        }
    }
    s.graph_build_s.push(ana.graph_build_s);
    s.submit_s.push(ana.submit_s);
    s.wait_s.push(ana.wait_s);
    r.check(match &ana.model {
        Ok(m) => compare(m, reference).map_err(|e| format!("pipeline {p}: {e}")),
        Err(e) => Err(format!("pipeline {p}: {e}")),
    });

    s.heap_mib.push(crate::heap::live_mib());
    // Everything the pipeline stored: the graph's keys plus the blocks.
    if p == 0 {
        s.resident = resident(&cluster);
    }
    let client = ana.adaptor.client();
    let mut keys = ana.graph_keys;
    keys.extend(client.external_keys());
    let t = Instant::now();
    TRACER.span("dtask.client", "release", pid, unit, || {
        client.release(keys)
    });
    s.release_s.push(t.elapsed().as_secs_f64());
    check_resident(r, &cluster, 0, &format!("pipeline {p} after release"));
    check_notifies(r, &cluster, &format!("pipeline {p}"));
    s.counters.add(&Counters::read(&cluster));
    TRACER.close(root);
    TRACER.set_on(false);
    drop(ana.adaptor);
    cluster.shutdown();
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut r = Report::default();
    let reference = reference(cfg.seed);
    let timers = OpTimers::new();
    let mut s = Series::default();
    let started = Instant::now();
    let mut p = 0;
    while p < MIN_PIPELINES || started.elapsed() < cfg.seconds {
        if let Err(e) = pipeline(cfg, p, &timers, &reference, &mut s, &mut r) {
            r.check(Err(e));
        }
        p += 1;
    }
    let n = s.tts_s.len() as u64;
    let lag = windowed(&s.lag_s, WINDOWS);
    r.put(
        "setup_s",
        median(&s.setup_s),
        "s",
        n,
        "median cluster start + connects + contract",
    );
    r.put(
        "heap_mib",
        median(&s.heap_mib),
        "MiB",
        n,
        "median live heap with the model in hand, before release",
    );
    r.put(
        "time_to_solution_s",
        median(&s.tts_s),
        "s",
        n,
        "median pipeline: simulation start to model in hand",
    );
    // Per step: the last rank starting its hand-off to partial_fit done.
    r.put_summary("step_latency", lag, "ms");
    r.put(
        "sim_time_s",
        median(&s.sim_s),
        "s",
        n,
        "median slowest rank, hand-off included",
    );
    let block_bytes = (GLOBAL.0 / PROCS.0 * GLOBAL.1 / PROCS.1 * 8) as u64;
    let expose = summarize(&s.expose_s);
    r.put(
        "publish_mib_s",
        mib_per_s(block_bytes, expose.p50),
        "MiB/s",
        expose.n as u64,
        "block bytes over the median PDI expose",
    );
    r.put(
        "tasks_per_s",
        median(&s.tasks_per_s),
        "1/s",
        n,
        "median graph tasks over time to solution",
    );

    let per_rank = ratio(1e3, (n as usize * PROCS.0 * PROCS.1) as f64);
    r.put(
        "heat2d.stencil_ms",
        s.stencil_s * per_rank,
        "ms",
        n,
        "per rank per pipeline",
    );
    r.put(
        "mpisim.ghost_exchange_ms",
        s.ghost_s * per_rank,
        "ms",
        n,
        "per rank per pipeline",
    );
    r.put_summary("pdi.expose", expose, "ms");
    r.put(
        "core.contract_setup_ms",
        median(&s.contract_s) * 1e3,
        "ms",
        n,
        "median adaptor contract to last Bridge::init",
    );
    r.put(
        "darray.graph_build_ms",
        median(&s.graph_build_s) * 1e3,
        "ms",
        n,
        "median per pipeline",
    );
    let per_pipe = |v: f64| ratio(v, n as f64);
    for (op, name) in [
        ("da.stack2d", "darray.stack2d_busy_ms"),
        ("da.assemble", "darray.assemble_busy_ms"),
        ("ml.partial_fit", "dml.partial_fit_busy_ms"),
    ] {
        let (ms, calls) = timers.get(op);
        r.put(name, per_pipe(ms), "ms", calls, "per pipeline, op wrapper");
    }
    let (_, fit_calls) = timers.get("ml.partial_fit");
    r.put(
        "dml.partial_fit_calls",
        per_pipe(fit_calls as f64),
        "count",
        n,
        "per pipeline",
    );
    r.put_client_calls(&s.submit_s, &s.wait_s, &s.release_s);
    s.counters.put_layers(&mut r, n, "pipeline");
    r.put(
        "dtask.store.resident_keys",
        s.resident.0 as f64,
        "count",
        1,
        "model in hand, before release",
    );
    r.put(
        "dtask.store.resident_bytes",
        s.resident.1 as f64,
        "bytes",
        1,
        "model in hand, before release",
    );
    r.put(
        "core.blocks_sent",
        per_pipe(s.counters.scatters as f64),
        "count",
        n,
        "per pipeline",
    );
    let offered = (STEPS * PROCS.0 * PROCS.1) as f64;
    r.put(
        "core.blocks_filtered",
        offered - per_pipe(s.counters.scatters as f64),
        "count",
        n,
        "per pipeline",
    );
    let (drift, base) = drift_ratio(&s.tts_s);
    r.put(
        "bench.drift_ratio",
        drift,
        "ratio",
        base as u64,
        "last-quarter over first-quarter median pipeline",
    );
    r.put_trace_overhead(&s.traced_tts, &s.untraced_tts);
    r
}
