//! Determinism and zero-observer-effect properties of the `mpisim::obs`
//! trace layer.
//!
//! The trace is specified to be a **pure function of `(program, seed,
//! fault seed)`**: its canonical text must be byte-identical across
//! cooperative worker counts and commit algorithms, and turning tracing
//! on must not change anything a program can observe — results, virtual
//! clocks, traffic, or the deterministic model counters.

use mpisim::{obs, recv_async, CommitAlgo, FaultPlan, SimConfig, Src, Time, Transport, Universe};
use proptest::prelude::*;

/// A trace-rich workload: a phase marker, a p2p ring exchange, and three
/// collectives (allreduce nests a reduce + bcast span), under message
/// jitter so fault events appear in the trace too.
async fn traced_workload(env: mpisim::ProcEnv, rounds: usize) -> u64 {
    let w = &env.world;
    let (r, p) = (w.rank(), w.size());
    let mut acc = 0u64;
    for round in 0..rounds {
        obs::mark(w.proc_state(), || format!("round {round}"));
        w.send(&[(r * 100 + round) as u64], (r + 1) % p, round as u64)
            .unwrap();
        let (v, _) = recv_async::<u64, _>(w, Src::Rank((r + p - 1) % p), round as u64)
            .await
            .unwrap();
        acc += v[0];
        acc += w.allreduce_async(&[r as u64], |a, b| a + b).await.unwrap()[0];
        acc += w.scan_async(&[1u64], |a, b| a + b).await.unwrap()[0];
        w.barrier_async().await.unwrap();
    }
    acc
}

fn traced_run(
    p: usize,
    rounds: usize,
    seed: u64,
    workers: usize,
    algo: CommitAlgo,
) -> (Vec<u64>, Vec<Time>, String) {
    let cfg = SimConfig::cooperative()
        .with_seed(seed)
        .with_workers(workers)
        .with_commit_algo(algo)
        .with_faults(
            FaultPlan::default()
                .with_perturb_seed(seed ^ 0x5eed)
                .with_jitter(Time::from_micros(3)),
        )
        .with_trace(true);
    let res = Universe::run_poll(p, cfg, move |env| traced_workload(env, rounds));
    let text = res.trace.expect("tracing was requested").to_text();
    (res.per_rank, res.clocks, text)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    // The canonical trace text is byte-identical for every
    // `(coop_workers, CommitAlgo)` combination — scheduling must never
    // leak into the trace.
    #[test]
    fn trace_identical_across_worker_counts(seed in 0u64..1_000) {
        let reference = traced_run(12, 2, seed, 1, CommitAlgo::Sharded);
        prop_assert!(!reference.2.is_empty(), "workload must produce events");
        for workers in [1usize, 4, 8] {
            for algo in [CommitAlgo::Sharded, CommitAlgo::Serial] {
                let got = traced_run(12, 2, seed, workers, algo);
                prop_assert_eq!(
                    &got.0, &reference.0,
                    "results differ at workers={} algo={:?}", workers, algo
                );
                prop_assert_eq!(
                    &got.1, &reference.1,
                    "clocks differ at workers={} algo={:?}", workers, algo
                );
                prop_assert_eq!(
                    &got.2, &reference.2,
                    "trace text differs at workers={} algo={:?}", workers, algo
                );
            }
        }
    }
}

/// Observer effect must be exactly zero: a traced run and an untraced run
/// of the same program agree on results, clocks, traffic, and every
/// deterministic model counter. Only `SimResult::trace` may differ.
#[test]
fn tracing_has_zero_observer_effect() {
    let run = |trace: bool| {
        let cfg = SimConfig::cooperative()
            .with_seed(11)
            .with_workers(4)
            .with_trace(trace);
        Universe::run_poll(16, cfg, move |env| traced_workload(env, 2))
    };
    let off = run(false);
    let on = run(true);
    assert!(off.trace.is_none(), "tracing off must collect no trace");
    assert!(on.trace.is_some_and(|t| !t.is_empty()));
    assert_eq!(off.per_rank, on.per_rank);
    assert_eq!(off.clocks, on.clocks);
    assert_eq!(off.traffic, on.traffic);
    assert_eq!(off.metrics, on.metrics);
}

/// The canonical text carries every event family the workload exercises,
/// in non-decreasing timestamp order.
#[test]
fn trace_text_covers_all_event_families() {
    let (_, _, text) = traced_run(12, 1, 3, 4, CommitAlgo::Sharded);
    for needle in [
        "mark round 0",
        "begin reduce allreduce",
        "begin bcast bcast",
        "begin scan scan",
        "begin barrier barrier",
        "end barrier",
        "send -> ",
        "deliver <- ",
        "fault-jitter +",
    ] {
        assert!(
            text.contains(needle),
            "trace text lacks {needle:?}:\n{text}"
        );
    }
    let stamps: Vec<u64> = text
        .lines()
        .map(|l| l.split(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "merged trace must be time-ordered"
    );
}

/// Chrome-trace export: structurally valid JSON (balanced outside string
/// literals) with one `thread_name` metadata record per participating
/// rank and one record per trace event.
#[test]
fn chrome_export_is_structurally_valid() {
    let p = 8;
    let cfg = SimConfig::cooperative().with_seed(5).with_trace(true);
    let res = Universe::run_poll(p, cfg, move |env| traced_workload(env, 1));
    let trace = res.trace.unwrap();
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));

    // Minimal structural validation without a JSON dependency: brackets
    // and braces must balance outside string literals, and strings must
    // terminate.
    let (mut depth_obj, mut depth_arr) = (0i64, 0i64);
    let (mut in_str, mut escaped) = (false, false);
    for c in json.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "unbalanced Chrome JSON");
    }
    assert!(
        !in_str && depth_obj == 0 && depth_arr == 0,
        "unterminated Chrome JSON"
    );

    let meta_records = json.matches("\"thread_name\"").count();
    assert_eq!(meta_records, p, "one thread_name record per rank");
    let records = json.matches("{\"ph\":").count();
    assert_eq!(
        records,
        p + trace.len(),
        "one record per event plus metadata"
    );
}
