//! DEISA1 vs DEISA3: the message-count argument of §2.1, measured live.
//!
//! Runs the same workload through the legacy per-timestep protocol (DEISA1:
//! classic scatter + per-rank queues + per-step graph submission) and the
//! external-task protocol (DEISA3: contract once, push blocks), then prints
//! the scheduler-message ledger for both. The paper's formulas:
//!
//! ```text
//! DEISA1 ≈ 2 · timesteps · ranks   (+ heartbeats)  metadata messages
//! DEISA3 =  1 + ranks                              (contract setup)
//! ```
//!
//! Run: `cargo run --example deisa_versions`

use deisa_repro::darray::{self, Graph};
use deisa_repro::deisa::deisa1::{Adaptor1, Bridge1};
use deisa_repro::deisa::{Adaptor, Bridge, DeisaVersion, Selection, VirtualArray};
use deisa_repro::dtask::{Cluster, MsgClass};
use deisa_repro::linalg::NDArray;

const STEPS: usize = 6;
const RANKS: usize = 4;

fn varray() -> VirtualArray {
    VirtualArray::new("G_temp", &[STEPS, 4, 8], &[1, 2, 4], 0).unwrap()
}

fn run_deisa1() -> (f64, u64, u64) {
    let cluster = Cluster::new(2);
    darray::register_array_ops(cluster.registry());
    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor1::new(client, RANKS);
            let v = varray();
            let mut total = 0.0;
            for _t in 0..STEPS {
                let metas = adaptor.collect_step().unwrap();
                let step = adaptor.step_array(&v, &metas).unwrap();
                // Per-step graph submission — the DEISA1 pattern.
                let mut g = Graph::new(format!("s{_t}"));
                let k = step.sum_all(&mut g);
                g.submit(adaptor.client());
                total += adaptor
                    .client()
                    .future(k)
                    .result()
                    .unwrap()
                    .as_f64()
                    .unwrap();
            }
            total
        })
    };
    let mut handles = Vec::new();
    for rank in 0..RANKS {
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa1.heartbeat());
        handles.push(std::thread::spawn(move || {
            let mut b = Bridge1::init(client, rank, vec![varray()]);
            for t in 0..STEPS {
                b.publish("G_temp", t, rank, NDArray::full(&[1, 2, 4], 1.0))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = analytics.join().unwrap();
    let stats = cluster.stats();
    (
        total,
        stats.readings().bridge_metadata_messages(),
        stats.count(MsgClass::GraphSubmit),
    )
}

fn run_deisa3() -> (f64, u64, u64) {
    let cluster = Cluster::new(2);
    darray::register_array_ops(cluster.registry());
    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor::new(client);
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            let v = arrays.descriptor("G_temp").unwrap().clone();
            let gt = arrays.select("G_temp", Selection::all(&v)).unwrap();
            arrays.validate_contract().unwrap();
            let mut g = Graph::new("whole");
            let k = gt.sum_all(&mut g);
            g.submit(adaptor.client());
            adaptor
                .client()
                .future(k)
                .result()
                .unwrap()
                .as_f64()
                .unwrap()
        })
    };
    let mut handles = Vec::new();
    for rank in 0..RANKS {
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
        handles.push(std::thread::spawn(move || {
            let mut b = Bridge::init(client, rank, vec![varray()]).unwrap();
            for t in 0..STEPS {
                b.publish("G_temp", t, rank, NDArray::full(&[1, 2, 4], 1.0))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = analytics.join().unwrap();
    let stats = cluster.stats();
    (
        total,
        stats.readings().bridge_metadata_messages(),
        stats.count(MsgClass::GraphSubmit),
    )
}

fn main() {
    let (t1, meta1, subs1) = run_deisa1();
    let (t3, meta3, subs3) = run_deisa3();
    assert_eq!(t1, t3, "both versions must compute the same result");
    println!("workload: {RANKS} ranks × {STEPS} timesteps, identical analytics\n");
    println!("DEISA1: {meta1:3} bridge metadata messages, {subs1} graph submissions");
    println!("DEISA3: {meta3:3} bridge metadata messages, {subs3} graph submission");
    println!(
        "\npaper formulas: DEISA1 ≈ 2·T·R = {}, DEISA3 ≈ 1 + R = {}",
        2 * STEPS * RANKS,
        1 + RANKS
    );
    assert!(meta1 >= (2 * STEPS * RANKS) as u64);
    assert!(meta3 <= (2 + RANKS + STEPS * RANKS) as u64); // contract + external updates
    println!("deisa_versions OK");
}
