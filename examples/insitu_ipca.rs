//! The paper's end-to-end workflow (Listing 2), at laptop scale.
//!
//! A Heat2D miniapp runs on 4 `mpisim` ranks, instrumented through PDI with
//! the deisa plugin (DEISA3: external tasks, no heartbeats). The analytics
//! client signs a contract for the full `G_temp` virtual array, builds the
//! **whole multi-timestep incremental-PCA graph ahead of time**, submits it
//! once, and fetches the fitted model when the simulation finishes.
//!
//! Run: `cargo run --example insitu_ipca`
//!
//! Set `IPCA_CHAOS=kill` for the fault-injected variant: liveness tracking
//! is switched on, a worker is killed after the last timestep, and the run
//! must end either with the fitted model (recovered) or with a clean
//! `[peer lost]`-attributed error — never a hang, never a bogus model.
//!
//! Set `IPCA_STORE=on` to route large control-path values through proxy
//! handles + the per-node object stores, or `IPCA_STORE=spill` to also cap
//! each store's memory so timestep blocks spill to disk — the fitted model
//! must be identical either way.
//!
//! Set `IPCA_POLICY=locality | blevel | random-stealing | mineft` to pick
//! the scheduling policy; the fitted model is identical under every one.
//!
//! Set `IPCA_TELEMETRY=on` to run with the live telemetry plane: the flight
//! recorder samples the whole in-transit run and the end-of-run summary
//! reports the per-interval task/wire rates it captured (the fitted model,
//! again, must not change).

use deisa_repro::darray;
use deisa_repro::deisa::plugin::DeisaPlugin;
use deisa_repro::deisa::{Adaptor, DeisaVersion, Selection};
use deisa_repro::dml::{self, InSituIncrementalPCA, SvdSolver};
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Counter, Datum, FaultConfig, HeartbeatInterval, PolicyConfig,
    StoreConfig, TelemetryConfig, TraceConfig, TransportConfig,
};
use deisa_repro::heat2d::{run_rank, HeatConfig};
use deisa_repro::mpisim::World;
use deisa_repro::pdi::{parse_yaml, Pdi};
use std::time::Duration;

/// The deisa plugin configuration — the Rust-side rendition of Listing 1.
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

fn main() {
    // Transport: `IPCA_TRANSPORT=framed | tcp` pushes every message through
    // the versioned wire format (tcp additionally over real loopback
    // sockets). The fitted model is identical on every backend.
    let transport = match std::env::var("IPCA_TRANSPORT").as_deref() {
        Ok("framed") => TransportConfig::Framed,
        Ok("tcp") => TransportConfig::Tcp,
        Ok("inproc") | Err(_) | Ok("") => TransportConfig::InProc,
        Ok(other) => panic!("IPCA_TRANSPORT={other}? use inproc | framed | tcp"),
    };
    let chaos = match std::env::var("IPCA_CHAOS").as_deref() {
        Ok("kill") => true,
        Err(_) | Ok("") | Ok("off") => false,
        Ok(other) => panic!("IPCA_CHAOS={other}? use kill | off"),
    };
    // DEISA3 semantics by default: no heartbeats, liveness off. Chaos mode
    // turns on fast worker pings and a short detection timeout.
    let fault = if chaos {
        FaultConfig {
            heartbeat_timeout: Some(Duration::from_millis(150)),
            worker_heartbeat: HeartbeatInterval::Every(Duration::from_millis(20)),
            max_retries: 5,
            retry_backoff: Duration::from_millis(5),
            ..FaultConfig::default()
        }
    } else {
        FaultConfig::default()
    };
    // Out-of-band data plane: `spill` caps each per-node store well below a
    // full 16x16 timestep (2048 B), so resident blocks spill to disk under
    // pressure and restore on access — the fitted model must not change.
    let store = match std::env::var("IPCA_STORE").as_deref() {
        Ok("spill") => StoreConfig {
            mem_budget: Some(1500),
            ..StoreConfig::proxies()
        },
        Ok("on") => StoreConfig::proxies(),
        Err(_) | Ok("") | Ok("off") => StoreConfig::default(),
        Ok(other) => panic!("IPCA_STORE={other}? use on | spill | off"),
    };
    // Scheduling policy: `IPCA_POLICY=locality | blevel | random-stealing |
    // mineft` (default locality). The fitted model is identical under every
    // policy — only placement moves.
    let policy = match std::env::var("IPCA_POLICY").as_deref() {
        Err(_) | Ok("") => PolicyConfig::default(),
        Ok(name) => PolicyConfig::from_name(name).unwrap_or_else(|| {
            panic!("IPCA_POLICY={name}? use locality | blevel | random-stealing | mineft")
        }),
    };
    // Live telemetry plane: sample fast enough that even this short run
    // leaves a multi-sample flight; the exporter is off (the quickstart
    // demonstrates the HTTP side, here we read the hub in-process).
    let telemetry = match std::env::var("IPCA_TELEMETRY").as_deref() {
        Ok("on") => TelemetryConfig {
            sample_every: Duration::from_millis(5),
            serve_http: false,
            ..TelemetryConfig::enabled()
        },
        Err(_) | Ok("") | Ok("off") => TelemetryConfig::default(),
        Ok(other) => panic!("IPCA_TELEMETRY={other}? use on | off"),
    };
    println!("policy: {}", policy.kind.name());
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 4,
        trace: TraceConfig::enabled(),
        transport,
        fault,
        store,
        policy,
        telemetry,
        ..ClusterConfig::default()
    });
    darray::register_array_ops(cluster.registry());
    dml::register_ml_ops(cluster.registry());
    let cfg = HeatConfig::new((16, 16), (2, 2), 6).unwrap();

    // ---- Analytics side (the paper's Listing 2) ------------------------
    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor::new(client);
            // Get data descriptors as deisa arrays (blocks until the
            // simulation's rank-0 bridge connects).
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            println!("analytics: simulation offers {:?}", arrays.names());
            let v = arrays.descriptor("G_temp").unwrap().clone();
            // gt = arrays["G_temp"][...]
            let gt = arrays
                .select_labeled("G_temp", Selection::all(&v), &["t", "X", "Y"])
                .unwrap();
            arrays.validate_contract().unwrap();
            // ipca = InSituIncrementalPCA(n_components=2, svd_solver='randomized')
            let ipca = InSituIncrementalPCA::new(2, SvdSolver::Randomized { seed: 42 });
            // ipca.fit(gt, ["t","X","Y"], ["X"], ["Y"]) — whole graph, one
            // submission, before any timestep exists.
            let mut g = darray::Graph::new("ipca");
            let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
            let n = g.submit(adaptor.client());
            println!("analytics: submitted the whole {n}-task IPCA graph ahead of time");
            if chaos {
                // Hold the fetch until the driver has injected the kill, so
                // the model gather always runs against a degraded cluster.
                adaptor.client().var_get("chaos-go").unwrap();
            }
            match fitted.fetch(adaptor.client()) {
                Ok(model) => {
                    println!(
                        "analytics: singular values  = {:?}",
                        model
                            .singular_values
                            .iter()
                            .map(|v| (v * 100.0).round() / 100.0)
                            .collect::<Vec<_>>()
                    );
                    println!(
                        "analytics: explained var    = {:?}",
                        model
                            .explained_variance
                            .iter()
                            .map(|v| (v * 100.0).round() / 100.0)
                            .collect::<Vec<_>>()
                    );
                    println!(
                        "analytics: samples consumed = {} ({} steps × Y={})",
                        model.n_samples_seen, v.shape[0], v.shape[2]
                    );
                    Some(model)
                }
                Err(e) => {
                    // The unrecoverable path: a clean, attributed error —
                    // never a hang, never a silently wrong model.
                    assert!(chaos, "fetch may only fail under fault injection: {e}");
                    assert!(
                        e.contains("[peer lost]"),
                        "the failure must carry the loss attribution: {e}"
                    );
                    println!("analytics: model lost with the killed worker: {e}");
                    None
                }
            }
        })
    };

    // ---- Simulation side: 4 MPI ranks through PDI ----------------------
    World::run(cfg.n_ranks(), |comm| {
        let yaml = parse_yaml(CONFIG).unwrap();
        let mut pdi = Pdi::new(yaml.clone());
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
        DeisaPlugin::from_yaml(&yaml, DeisaVersion::Deisa3, client)
            .unwrap()
            .install(&mut pdi);
        run_rank(comm, &cfg, &mut pdi).unwrap();
    })
    .unwrap();
    println!("simulation: all ranks finished");

    if chaos {
        println!("chaos: killing worker 1 with the fitted model still on the cluster");
        cluster.kill_worker(1);
        cluster.client().var_set("chaos-go", Datum::Null);
    }
    let model = analytics.join().unwrap();
    if let Some(model) = &model {
        assert_eq!(model.n_samples_seen, 6 * 16);
    }
    // Control-message accounting (paper §2.1): contract setup is 1 message
    // from rank 0 plus one wait per rank — no per-timestep metadata.
    let stats = cluster.stats();
    println!(
        "scheduler control messages: {} (variable ops {}, heartbeats {})",
        stats.scheduler_control_messages(),
        stats.count(deisa_repro::dtask::MsgClass::Variable),
        stats.count(deisa_repro::dtask::MsgClass::Heartbeat),
    );

    // Where did the makespan go? Export the lifecycle trace (load
    // results/TRACE_insitu_ipca.json in https://ui.perfetto.dev) and print
    // the critical-path phase attribution.
    let log = cluster.tracer().collect();
    std::fs::create_dir_all("results").unwrap();
    log.write_chrome("results/TRACE_insitu_ipca.json").unwrap();
    let report = log.phase_report();
    println!("{}", report.to_table());
    println!(
        "trace: results/TRACE_insitu_ipca.json ({} events across {} tracks)",
        log.n_events(),
        log.tracks.len()
    );
    // The phase attribution is an exact partition of the makespan; fail
    // loudly if it ever drifts past 5%.
    let total = report.phases_total_ns() as f64;
    let makespan = report.makespan_ns as f64;
    assert!(
        makespan > 0.0 && (total - makespan).abs() <= 0.05 * makespan,
        "phase totals ({total} ns) diverge from makespan ({makespan} ns)"
    );
    if chaos {
        // Give the liveness sweep time to attribute the kill before checking.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while stats.get(Counter::PeersLost) < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.get(Counter::InjectedKills), 1);
        assert_eq!(
            stats.get(Counter::PeersLost),
            1,
            "the kill must be attributed"
        );
        println!(
            "chaos: {} peer lost, {} external blocks lost, model {}",
            stats.get(Counter::PeersLost),
            stats.get(Counter::ExternalBlocksLost),
            if model.is_some() {
                "recovered"
            } else {
                "lost (clean error)"
            }
        );
    }
    // Telemetry mode: the flight recorder watched the whole in-transit run
    // from inside; summarize what it saw. The final sample is taken at
    // shutdown, but the cluster is still live here — ask the hub directly.
    if let Some(hub) = cluster.telemetry() {
        let flight = hub.flight();
        assert!(
            flight.len() >= 3,
            "a multi-timestep run must span several sampling intervals, got {}",
            flight.len()
        );
        let peak_tasks = flight.iter().map(|s| s.tasks_per_s).fold(0.0, f64::max);
        assert!(peak_tasks > 0.0, "the flight must have seen tasks complete");
        let peak_queue = flight.iter().map(|s| s.queue_depth_peak).max().unwrap_or(0);
        println!(
            "telemetry: {} flight samples, peak {:.0} tasks/s, \
             peak ready-queue depth {}, {} alerts",
            flight.len(),
            peak_tasks,
            peak_queue,
            hub.alerts_total()
        );
    }
    println!("insitu_ipca OK");
}
