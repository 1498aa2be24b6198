//! Golden snapshot: every counter, histogram and tenant the stats hold, set
//! to a distinct value and rendered whole. The JSON document and the
//! Prometheus exposition must match the checked-in fixtures byte for byte,
//! so a change to any key, family, help text, ordering or number format
//! shows up here as a one-line fixture diff.

use dtask::stats::{Counter, MsgClass, SchedulerStats, WireLane, COUNTERS};
use dtask::{EventKind, OptimizeReport, StatsSnapshot, TraceActor, TraceConfig, TraceRecorder};

const GOLDEN_JSON: &str = include_str!("fixtures/snapshot.json");
const GOLDEN_PROM: &str = include_str!("fixtures/snapshot.prom");

/// Apply `f` `n` times.
fn times(n: u64, mut f: impl FnMut(u64)) {
    for i in 0..n {
        f(i);
    }
}

fn golden_snapshot() -> StatsSnapshot {
    let s = SchedulerStats::new();

    // Per-class and per-lane traffic: distinct counts and byte volumes.
    for (i, &class) in MsgClass::ALL.iter().enumerate() {
        let i = i as u64;
        s.record_n(class, i + 1, 100 * (i + 1) + 7);
    }
    for (i, &lane) in WireLane::ALL.iter().enumerate() {
        let i = i as u64;
        times(i + 2, |j| s.record_wire(lane, 1_000 * (i + 1) + j));
    }

    // Multi-counter recorders (each also feeds a histogram).
    for (deps, wait_ns) in [(5, 3_000), (6, 40_000), (0, 70)] {
        s.record_gather(deps, wait_ns);
    }
    for ns in [90, 1_200, 2_500_000] {
        s.record_exec_busy(ns);
    }
    for ns in [300, 4_000, 4_100] {
        s.record_queue_delay(ns);
    }
    s.record_optimize(&OptimizeReport {
        tasks_in: 40,
        tasks_out: 21,
        culled: 4,
        fused_chain_lengths: vec![2, 3, 9, 17, 5],
    });
    for n in [1, 2, 4, 7, 12, 30] {
        s.record_burst(n);
    }
    for ns in [500, 900_000, 1_300, 64, 2_000_000, 77, 8_192] {
        s.record_assign_pass(ns);
    }
    s.record_assign(50, 8);
    s.record_assign(13, 1);
    times(27, |i| s.record_store_spill(100 + i));
    times(29, |i| s.record_proxy_put(1_000 + i));
    times(30, |i| s.record_proxy_fetch(2_000 + i));

    // Single-counter recorders.
    for (counter, n) in [
        (Counter::ExecIdleNs, 7_777_777),
        (Counter::PeersLost, 13),
        (Counter::PeersTracked, 14),
        (Counter::TasksResubmitted, 15),
        (Counter::RetriesExhausted, 16),
        (Counter::ExternalBlocksLost, 17),
        (Counter::Recomputes, 18),
        (Counter::InjectedDrops, 19),
        (Counter::InjectedKills, 20),
        (Counter::StealRequests, 22),
        (Counter::StealMisses, 23),
        (Counter::TasksStolen, 24),
        (Counter::StoreHits, 25),
        (Counter::StoreMisses, 26),
        (Counter::StoreRestores, 28),
        (Counter::StragglersFlagged, 31),
        (Counter::NotifiesDropped, 32),
    ] {
        s.add(counter, n);
    }

    // Two tenants; their admission rejections also sum into the cluster
    // counter (12 + 21 = 33).
    for (session, tasks, bytes, depth, rejections) in
        [(1, 101, 4_096, 3, 12), (2, 202, 8_192, 9, 21)]
    {
        s.record_tenant_tasks(session, tasks);
        s.record_tenant_bytes(session, bytes);
        s.set_tenant_queue_depth(session, depth);
        times(rejections, |_| s.record_admission_rejection(session));
    }

    // Trace drops: 36 instants into a 2-slot ring lose 34.
    let tracer = TraceRecorder::new(TraceConfig {
        enabled: true,
        capacity_per_actor: 2,
    });
    let h = tracer.register(TraceActor::Scheduler);
    times(36, |i| h.instant(EventKind::Submit, None, i));

    // Every registry counter holds a distinct non-zero value, so a swapped
    // key or family cannot go unnoticed.
    let mut values: Vec<u64> = COUNTERS.iter().map(|row| s.get(row.counter)).collect();
    values.sort_unstable();
    values.dedup();
    assert_eq!(
        values.len(),
        COUNTERS.len(),
        "counter values must be distinct"
    );
    assert!(values[0] > 0);

    StatsSnapshot::capture_with_tracer(&s, &tracer)
}

/// Line-oriented diff summary for a readable failure message.
fn first_difference(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}:\n  want {w:?}\n  got  {g:?}", i + 1);
        }
    }
    format!(
        "length differs: want {} lines, got {} lines",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn snapshot_json_matches_the_golden_fixture() {
    let got = golden_snapshot().to_json().to_string_pretty();
    assert!(
        got == GOLDEN_JSON,
        "snapshot JSON drifted from fixtures/snapshot.json: {}",
        first_difference(GOLDEN_JSON, &got)
    );
}

#[test]
fn prometheus_exposition_matches_the_golden_fixture() {
    let got = golden_snapshot().to_prometheus();
    assert!(
        got == GOLDEN_PROM,
        "Prometheus exposition drifted from fixtures/snapshot.prom: {}",
        first_difference(GOLDEN_PROM, &got)
    );
}
