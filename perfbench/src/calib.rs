//! The host's speed, measured alongside the workload.
//!
//! The benchmark runs on a shared virtual machine whose speed moves in
//! phases of a minute or more: every timing of a run goes up or down by
//! 15–30% together, so ten runs that straddle a phase change spread as
//! wide as the change. A calibration thread runs a fixed kernel of the
//! benchmark's own every [`PERIOD`] for the whole run (about 1% of one
//! core) and keeps the kernel's times. Their median over
//! [`REFERENCE_S`], the kernel's median on the host where the benchmark
//! was defined, is the run's speed factor: the end-to-end times are
//! divided by it and the rates multiplied by it, so each run reports what
//! it would have measured at the reference speed
//! ([`crate::report::Report::at_reference_speed`]).
//!
//! Over 18 runs of 15 s spread over three workloads, the factor followed
//! the workloads' timings (correlation 0.84–0.96 with the median round,
//! pipeline or step time); in two sets of ten 40 s runs per workload the
//! rescaled times and rates spread 11–47% less than the same runs'
//! figures as measured.
//! The kernel read the same under the lightly loaded `stream-tcp` as under
//! `insitu-ipca`, which keeps both cores busy, so the program's own load
//! moves it little.

use crate::stats::median;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two runs of the kernel.
pub const PERIOD: Duration = Duration::from_millis(40);
/// The kernel's median time on the reference host, a 2-vCPU virtual
/// machine on an Intel Xeon at 2.1 GHz.
pub const REFERENCE_S: f64 = 500e-6;

/// A running calibration thread.
pub struct Calibration {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

/// The fixed kernel: 20 smoothing sweeps over 4096 values, in cache.
fn kernel(buf: &mut [f64]) {
    for _ in 0..20 {
        for i in 1..buf.len() - 1 {
            buf[i] = 0.5 * buf[i] + 0.25 * (buf[i - 1] + buf[i + 1]) + 1e-9;
        }
    }
}

impl Calibration {
    pub fn start() -> Calibration {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut buf: Vec<f64> = (0..4096).map(f64::from).collect();
            let mut times = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let t = Instant::now();
                kernel(std::hint::black_box(&mut buf));
                times.push(t.elapsed().as_secs_f64());
            }
            times
        });
        Calibration { stop, thread }
    }

    /// Stop and join the thread; return the speed factor (median kernel
    /// time over [`REFERENCE_S`]) and the number of kernel runs behind it.
    pub fn finish(self) -> (f64, usize) {
        self.stop.store(true, Ordering::Relaxed);
        let times = self.thread.join().expect("calibration thread panicked");
        (median(&times) / REFERENCE_S, times.len())
    }
}
