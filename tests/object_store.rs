//! Out-of-band data plane suite: proxy handles + spillable object stores.
//!
//! The invariants under test are the data-plane contract of ISSUE 6:
//!
//! 1. **Identity**: a value published behind a proxy handle reads back
//!    exactly — through var get, through queue pop, and through a task that
//!    consumes the handle as a parameter. Spill/restore through h5lite is
//!    bit-exact, NaN and -0.0 included.
//! 2. **Out-of-band**: with proxies on, only a [`DatumRef`] handle rides the
//!    control path (`var_get_raw` shows it); the payload moves over the data
//!    lane and is accounted in `proxy_put_bytes` / `proxy_fetch_bytes`.
//! 3. **Bounded memory**: under a `mem_budget` the store LRU-spills to disk
//!    and restores transparently on access; concurrent readers of one
//!    spilled key trigger exactly one restore.
//! 4. **Fault visibility**: resolving a handle whose holder died yields a
//!    structured peer-lost error — never a hang, never a bogus value.

use deisa_repro::dtask::client::WaitError;
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Counter, Datum, DatumRef, ErrorCause, Key, ObjectStore, StoreConfig,
    TaskSpec,
};
use deisa_repro::linalg::NDArray;
use std::sync::Arc;
use std::time::Duration;

fn proxy_cluster(n_workers: usize, store: StoreConfig) -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers,
        slots_per_worker: 1,
        store,
        ..ClusterConfig::default()
    })
}

fn block(fill: f64, elems: usize) -> Datum {
    Datum::from(NDArray::full(&[elems], fill))
}

fn assert_bits_equal(a: &NDArray, b: &NDArray) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data().iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "payload must be bit-exact");
    }
}

#[test]
fn proxied_variable_round_trips_and_keeps_payload_off_the_control_path() {
    let cluster = proxy_cluster(2, StoreConfig::proxies());
    let setter = cluster.client();
    let getter = cluster.client();
    let payload = NDArray::from_fn(&[32, 32], |i| (i[0] * 37 + i[1]) as f64);
    setter.var_set("field", Datum::from(payload.clone()));
    // The control path carried only a handle...
    let raw = getter.var_get_raw("field").unwrap();
    let handle = raw.as_ref_handle().expect("control path holds a DatumRef");
    assert_eq!(handle.shape, vec![32, 32]);
    assert!(
        raw.nbytes() < 8 * 32 * 32 / 10,
        "handle must be far smaller than the payload"
    );
    // ...while the resolving read returns the exact payload.
    let got = getter.var_get("field").unwrap();
    assert_bits_equal(got.as_array().unwrap(), &payload);
    let stats = cluster.stats();
    assert_eq!(stats.get(Counter::ProxyPuts), 1);
    assert_eq!(stats.get(Counter::ProxyPutBytes), 8 * 32 * 32);
    // var_get_raw resolved nothing; var_get resolved once.
    assert_eq!(stats.get(Counter::ProxyFetches), 1);
    assert_eq!(stats.get(Counter::ProxyFetchBytes), 8 * 32 * 32);
}

#[test]
fn small_values_and_scalars_stay_inline_even_with_proxies_on() {
    let cluster = proxy_cluster(1, StoreConfig::proxies());
    let client = cluster.client();
    client.var_set("scalar", Datum::F64(0.5));
    client.var_set("small", block(1.0, 4)); // 32 B <= 256 B threshold
    assert!(client
        .var_get_raw("scalar")
        .unwrap()
        .as_ref_handle()
        .is_none());
    assert!(client
        .var_get_raw("small")
        .unwrap()
        .as_ref_handle()
        .is_none());
    assert_eq!(cluster.stats().get(Counter::ProxyPuts), 0);
}

#[test]
fn proxied_queue_items_resolve_on_pop_and_free_their_store_entry() {
    let cluster = proxy_cluster(2, StoreConfig::proxies());
    let producer = cluster.client();
    let consumer = cluster.client();
    producer.q_push("q", block(7.0, 256));
    producer.q_push("q", Datum::I64(42)); // inline item in the same queue
    let first = consumer.q_pop("q").unwrap();
    assert_eq!(first.as_array().unwrap().get(&[100]), 7.0);
    assert_eq!(consumer.q_pop("q").unwrap().as_i64(), Some(42));
    assert_eq!(cluster.stats().get(Counter::ProxyPuts), 1);
    assert_eq!(cluster.stats().get(Counter::ProxyFetches), 1);
    // Pop owns the payload: the store entry is deleted afterwards, so the
    // sum of worker memory drops back to zero once the delete lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let held: u64 = cluster.worker_memory().iter().map(|(_, b)| b).sum();
        if held == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "popped queue item must be deleted from its store, {held} B left"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn tasks_consume_proxy_handles_as_parameters() {
    let cluster = proxy_cluster(2, StoreConfig::proxies());
    cluster.registry().register("param_sum", |params, _| {
        let arr = params
            .as_array()
            .ok_or_else(|| "params must be an array".to_string())?;
        Ok(Datum::F64(arr.data().iter().sum()))
    });
    let client = cluster.client();
    client.var_set("weights", block(0.5, 512));
    // Fetch the *handle* and pass it as a task parameter: the executor must
    // resolve it (local store or Fetch to the holder) before running the op.
    let handle = client.var_get_raw("weights").unwrap();
    assert!(handle.as_ref_handle().is_some());
    client.submit(vec![TaskSpec::new("wsum", "param_sum", handle, vec![])]);
    let r = client.future("wsum").result().unwrap();
    assert_eq!(r.as_f64(), Some(256.0));
    assert_eq!(cluster.stats().get(Counter::ProxyPuts), 1);
}

#[test]
fn overwriting_and_deleting_proxied_variables_frees_store_entries() {
    let cluster = proxy_cluster(2, StoreConfig::proxies());
    let client = cluster.client();
    client.var_set("v", block(1.0, 256));
    client.var_set("v", block(2.0, 256)); // overwrite orphans the first payload
    assert_eq!(
        client.var_get("v").unwrap().as_array().unwrap().get(&[0]),
        2.0
    );
    client.var_del("v");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let held: u64 = cluster.worker_memory().iter().map(|(_, b)| b).sum();
        if held == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "overwritten + deleted proxy payloads must be dropped, {held} B left"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(cluster.stats().get(Counter::ProxyPuts), 2);
}

#[test]
fn spilled_entries_restore_bit_exact_through_the_full_stack() {
    // Budget far below one payload: every Put spills the previous entry.
    let cluster = proxy_cluster(
        1,
        StoreConfig {
            proxies: true,
            mem_budget: Some(1024),
            ..StoreConfig::default()
        },
    );
    let client = cluster.client();
    let weird = NDArray::from_fn(&[16, 16], |i| match (i[0] + i[1]) % 4 {
        0 => f64::NAN,
        1 => -0.0,
        2 => f64::INFINITY,
        _ => 1.0 / 3.0,
    });
    client.var_set("weird", Datum::from(weird.clone()));
    client.var_set("pressure", block(9.0, 512)); // push `weird` out of memory
    assert!(
        cluster.stats().get(Counter::StoreSpills) >= 1,
        "budget must have spilled"
    );
    let got = client.var_get("weird").unwrap();
    assert_bits_equal(got.as_array().unwrap(), &weird);
    assert!(cluster.stats().get(Counter::StoreRestores) >= 1);
    let pressure = client.var_get("pressure").unwrap();
    assert_eq!(pressure.as_array().unwrap().get(&[17]), 9.0);
}

#[test]
fn concurrent_readers_of_one_spilled_key_restore_exactly_once() {
    let store = Arc::new(ObjectStore::new(
        StoreConfig {
            mem_budget: Some(0),
            ..StoreConfig::default()
        },
        0,
        Arc::new(deisa_repro::dtask::SchedulerStats::new()),
        deisa_repro::dtask::TraceHandle::disabled(),
    ));
    store.insert(Key::new("shared"), block(4.0, 1024));
    store.insert(Key::new("force"), block(0.0, 4));
    assert!(store.is_spilled(&Key::new("shared")));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let v = store
                    .get(&Key::new("shared"))
                    .expect("spilled entry readable");
                assert_eq!(v.as_array().unwrap().get(&[512]), 4.0);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Restoration runs under the store lock: the disk read happened once,
    // every other reader hit the restored in-memory entry.
    // (The store's own stats object counted it.)
    assert!(!store.is_spilled(&Key::new("shared")));
}

#[test]
fn resolving_a_handle_from_a_killed_holder_reports_peer_lost() {
    let cluster = proxy_cluster(2, StoreConfig::proxies());
    let client = cluster.client();
    client.var_set("doomed", block(3.0, 512));
    let raw = client.var_get_raw("doomed").unwrap();
    let holder = raw.as_ref_handle().expect("proxied").holder;
    cluster.kill_worker(holder);
    // The transport cancels reply slots against the dead data server, so the
    // resolving read errors out instead of hanging.
    assert_eq!(client.var_get("doomed").unwrap_err(), WaitError::PeerLost);
}

#[test]
fn task_consuming_a_handle_from_a_killed_holder_errs_with_peer_lost() {
    let cluster = proxy_cluster(2, StoreConfig::proxies());
    cluster.registry().register("param_first", |params, _| {
        let arr = params
            .as_array()
            .ok_or_else(|| "params must be an array".to_string())?;
        Ok(Datum::F64(arr.get(&[0])))
    });
    let client = cluster.client();
    client.var_set("input", block(5.0, 512));
    let handle_datum = client.var_get_raw("input").unwrap();
    let handle: &DatumRef = handle_datum.as_ref_handle().unwrap();
    let holder = handle.holder;
    cluster.kill_worker(holder);
    // Pin the consumer away from the dead holder by scattering an anchor
    // dependency onto the survivor.
    let survivor = 1 - holder;
    client.scatter(vec![(Key::new("anchor"), Datum::F64(0.0))], Some(survivor));
    client.submit(vec![TaskSpec::new(
        "use-input",
        "param_first",
        handle_datum.clone(),
        vec!["anchor".into()],
    )]);
    let err = client
        .future("use-input")
        .result_timeout(Duration::from_secs(10))
        .unwrap_err();
    assert_eq!(err.cause, ErrorCause::PeerLost, "{err:?}");
}

#[test]
fn proxies_off_is_byte_identical_to_the_old_behavior() {
    let cluster = proxy_cluster(2, StoreConfig::default());
    let client = cluster.client();
    client.var_set("v", block(1.5, 4096));
    let raw = client.var_get_raw("v").unwrap();
    assert!(raw.as_ref_handle().is_none(), "no handles with proxies off");
    assert_eq!(
        client.var_get("v").unwrap().as_array().unwrap().get(&[7]),
        1.5
    );
    let stats = cluster.stats();
    assert_eq!(stats.get(Counter::ProxyPuts), 0);
    assert_eq!(stats.get(Counter::ProxyFetches), 0);
    assert_eq!(stats.get(Counter::StoreSpills), 0);
}
