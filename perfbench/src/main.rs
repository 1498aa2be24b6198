//! The repository's benchmark: three workloads over the unmodified program,
//! timed layer by layer from outside. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload graph-rounds --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run (`--trace 0`) or the per-layer metrics of a traced one
//! (`--trace 1`). The line before it is the full record of the run, which
//! is also written under `perfbench/out/`. A human-readable table goes to
//! standard error. Any failed output check makes the exit code 1.

mod calib;
mod heap;
mod insitu;
mod ops;
mod report;
mod rounds;
mod spans;
mod stats;
mod stream;

use dtask::{Cluster, Json};
use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <insitu-ipca|graph-rounds|stream-tcp> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Workload parameters taken from the command line.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl RunConfig {
    /// Whether work unit `unit` records spans: a traced run alternates
    /// blocks of `block` units with and without spans, so it can report
    /// what tracing itself costs.
    pub fn traced(&self, unit: u64, block: u64) -> bool {
        self.trace && (unit / block) % 2 == 1
    }
}

/// SplitMix64: the seeded generator behind every workload input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(keys, bytes)` stored over all workers, from `Cluster::worker_memory()`.
pub fn resident(cluster: &Cluster) -> (usize, u64) {
    let mem = spans::TRACER.span("dtask.store", "worker_memory", 0, 0, || {
        cluster.worker_memory()
    });
    (mem.iter().map(|m| m.0).sum(), mem.iter().map(|m| m.1).sum())
}

/// Leak guard: poll [`resident`] until exactly `keys` keys are stored (for
/// at most 30 s: releases are asynchronous, so one read could still see
/// keys on their way out), check that count, and return the last reading.
pub fn check_resident(r: &mut Report, cluster: &Cluster, keys: usize, what: &str) -> (usize, u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen = resident(cluster);
    while seen.0 != keys && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        seen = resident(cluster);
    }
    r.check(if seen.0 == keys {
        Ok(())
    } else {
        Err(format!("{what}: {} keys resident, expected {keys}", seen.0))
    });
    seen
}

/// Check that every client notification found its client.
pub fn check_notifies(r: &mut Report, cluster: &Cluster, what: &str) {
    let dropped = cluster.stats().notifies_dropped();
    r.check(if dropped == 0 {
        Ok(())
    } else {
        Err(format!("{what}: {dropped} notifications dropped"))
    });
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok((
        workload.ok_or("--workload is required")?,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds),
            trace,
        },
    ))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = heap::fix_thresholds() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let calibration = calib::Calibration::start();
    let started = Instant::now();
    let mut report: Report = match workload.as_str() {
        "insitu-ipca" => insitu::run(&cfg),
        "graph-rounds" => rounds::run(&cfg),
        "stream-tcp" => stream::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    spans::TRACER.set_on(false);
    let (speed, kernels) = calibration.finish();
    report.put(
        "bench.host_speed_factor",
        speed,
        "ratio",
        kernels as u64,
        &format!(
            "median calibration kernel time over {} us",
            calib::REFERENCE_S * 1e6
        ),
    );
    report.at_reference_speed(speed);
    report.put("peak_rss_mib", report::peak_rss_mib(), "MiB", 1, "VmHWM");
    report.put(
        "error_rate",
        stats::ratio(report.failed as f64, report.attempted as f64),
        "ratio",
        report.attempted,
        "failed over attempted",
    );
    report.spans = spans::TRACER.take();
    if cfg.trace {
        report.put_span_self_times();
    }

    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for &name in names {
        let m = report
            .get(name)
            .unwrap_or_else(|| panic!("{workload} did not report {name}"));
        metrics = metrics.set(name, Json::obj().set("value", m.value).set("unit", m.unit));
    }

    eprintln!(
        "{workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds.as_secs(),
        cfg.trace as u8
    );
    for m in &report.metrics {
        eprintln!(
            "  {:<36} {:>16.6} {:<6} n={:<8} {}",
            m.name, m.value, m.unit, m.n, m.note
        );
    }

    let record = Json::obj()
        .set("workload", workload.as_str())
        .set("seed", cfg.seed)
        .set("seconds", cfg.seconds.as_secs())
        .set("trace", cfg.trace)
        .set("wall_s", started.elapsed().as_secs_f64())
        .set("environment", report::environment())
        .set("attempted", report.attempted)
        .set("failed", report.failed)
        .set(
            "errors",
            Json::Arr(
                report
                    .errors
                    .iter()
                    .map(|e| Json::from(e.as_str()))
                    .collect(),
            ),
        )
        .set(
            "metrics",
            Json::Arr(
                report
                    .metrics
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .set("name", m.name.as_str())
                            .set("value", m.value)
                            .set("unit", m.unit)
                            .set("n", m.n)
                            .set("note", m.note.as_str())
                    })
                    .collect(),
            ),
        );
    let dir = out_dir();
    let stem = format!("{workload}-seed{}-trace{}", cfg.seed, cfg.trace as u8);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), record.to_string_pretty())?;
        if cfg.trace {
            std::fs::write(
                dir.join(format!("{stem}-spans.json")),
                spans::to_json(&report.spans).to_string_compact(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write the run record under {}: {e}",
            dir.display()
        );
    }

    let correct = report.failed == 0;
    println!("{}", record.to_string_compact());
    println!(
        "{}",
        Json::obj()
            .set("correct", correct)
            .set("attempted", report.attempted)
            .set("failed", report.failed)
            .set("metrics", metrics)
            .to_string_compact()
    );
    if !correct {
        std::process::exit(1);
    }
}
