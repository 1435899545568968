//! Cooperative-backend semantics: the scheduler must preserve every MPI
//! behaviour the thread backend exhibits, detect deadlocks exactly, and
//! deliver messages in an order that is a pure function of `(program,
//! seed)` — **for every worker count**: the epoch discipline commits
//! deliveries in global virtual-time order, so `coop_workers ∈ {1, 2, 4,
//! 8}` must produce bit-identical delivery logs, clocks, and sort outputs.
//! Rank bodies are async and run through `Universe::run_poll`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mpisim::nbcoll;
use mpisim::{coll, ops, recv_async, MpiError, SimConfig, Src, Time, Transport, Universe};
use proptest::prelude::*;

#[test]
fn coop_message_storm_all_to_one() {
    // Every rank floods rank 0 with small messages; wildcard receives must
    // drain them all. Under the cooperative backend each arriving message
    // wakes rank 0 exactly when a match exists.
    let p = 64;
    let per = 32;
    let res = Universe::run_poll(p, SimConfig::cooperative(), move |env| async move {
        let w = &env.world;
        if w.rank() == 0 {
            let mut total = 0u64;
            for _ in 0..(p - 1) * per {
                let (v, _) = recv_async::<u64, _>(w, Src::Any, 9).await.unwrap();
                total += v[0];
            }
            total
        } else {
            for i in 0..per {
                w.send(&[i as u64], 0, 9).unwrap();
            }
            0
        }
    });
    let expected: u64 = (0..per as u64).sum::<u64>() * (p as u64 - 1);
    assert_eq!(res.per_rank[0], expected);
}

#[test]
fn coop_nonblocking_collectives_progress() {
    // Nonblocking machines wait through `waitall_async`, which under the
    // scheduler must hand the worker to other ranks instead of spinning.
    let res = Universe::run_poll(12, SimConfig::cooperative(), |env| async move {
        let w = &env.world;
        let mut reqs: Vec<nbcoll::Request> = (0..4u64)
            .map(|k| {
                nbcoll::Request::new(
                    nbcoll::iallreduce(w, &[k + 1], 200 + 2 * k, ops::sum::<u64>()).unwrap(),
                )
            })
            .collect();
        nbcoll::waitall_async(&mut reqs).await.unwrap();
        true
    });
    assert!(res.per_rank.iter().all(|&ok| ok));
}

#[test]
fn coop_split_and_vendor_collectives() {
    // Native MPI_Comm_split (allgather + mask agreement) under the
    // scheduler: context agreement blocks and wakes across sub-groups.
    let res = Universe::run_poll(9, SimConfig::cooperative(), |env| async move {
        let w = &env.world;
        let c = w
            .split_async((w.rank() % 3) as u64, w.rank() as u64)
            .await
            .unwrap();
        c.allreduce_async(&[1u64], ops::sum::<u64>()).await.unwrap()[0]
    });
    assert_eq!(res.per_rank, vec![3, 3, 3, 3, 3, 3, 3, 3, 3]);
}

#[test]
fn coop_deadlock_is_poisoned_not_hung() {
    // Two ranks each receive from the other before sending: a textbook
    // deadlock. The cooperative detector must fire immediately (no
    // wall-clock wait) and surface MpiError::Timeout on every rank.
    let t0 = std::time::Instant::now();
    let res = Universe::run_poll(2, SimConfig::cooperative(), |env| async move {
        let w = &env.world;
        let other = 1 - w.rank();
        let got = recv_async::<u64, _>(w, Src::Rank(other), 1).await;
        got.err().map(|e| match e {
            MpiError::Timeout { rank, .. } => rank,
            other => panic!("expected Timeout, got {other:?}"),
        })
    });
    assert_eq!(res.per_rank, vec![Some(0), Some(1)]);
    // Exact detection: far below the 30 s thread-backend timeout.
    assert!(t0.elapsed() < std::time::Duration::from_secs(5));
}

#[test]
fn coop_clock_skew_barrier_still_correct() {
    let res = Universe::run_poll(9, SimConfig::cooperative(), |env| async move {
        let w = &env.world;
        env.state()
            .charge(Time::from_millis(w.rank() as u64 * w.rank() as u64));
        let s = coll::scan_async(w, &[w.rank() as u64], 7, ops::sum::<u64>())
            .await
            .unwrap()[0];
        coll::barrier_async(w, 9).await.unwrap();
        (s, env.now())
    });
    for (r, (s, t)) in res.per_rank.iter().enumerate() {
        let expect: u64 = (0..=r as u64).sum();
        assert_eq!(*s, expect);
        assert!(*t >= Time::from_millis(64), "rank {r} left barrier early");
    }
}

#[test]
fn coop_yield_fairness_under_polling() {
    // A rank that busy-polls (try_recv + yield) must not starve the rank
    // it is waiting on when both share the single worker.
    let res = Universe::run_poll(2, SimConfig::cooperative(), |env| async move {
        let w = &env.world;
        if w.rank() == 0 {
            let mut polls = 0u64;
            loop {
                if let Some((v, _)) = w.try_recv::<u64>(Src::Rank(1), 5).unwrap() {
                    return (v[0], polls);
                }
                polls += 1;
                mpisim::yield_now_async().await;
            }
        } else {
            // Let rank 0 poll a few times before satisfying it.
            for _ in 0..3 {
                mpisim::yield_now_async().await;
            }
            w.send(&[42u64], 0, 5).unwrap();
            (0, 0)
        }
    });
    assert_eq!(res.per_rank[0].0, 42);
}

/// Per-rank storm observation: the sequence of `(source, value)` pairs
/// the rank's wildcard receives matched, plus its final virtual clock.
type DeliveryLog = (Vec<(usize, u64)>, Time);

/// Per-run store for the wildcard delivery logs.
type LogStore = Arc<Mutex<Vec<Vec<(usize, u64)>>>>;

/// Observed delivery log of one run, one entry per rank.
fn storm_delivery_log(p: usize, per: usize, seed: u64, workers: usize) -> Vec<DeliveryLog> {
    let logs: LogStore = Arc::new(Mutex::new(vec![Vec::new(); p]));
    let logs2 = Arc::clone(&logs);
    let cfg = SimConfig::cooperative()
        .with_seed(seed)
        .with_workers(workers);
    let res = Universe::run_poll(p, cfg, move |env| {
        let logs2 = Arc::clone(&logs2);
        storm_rank(env, per, logs2)
    });
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    logs.into_iter().zip(res.clocks).collect()
}

/// One rank of the all-to-all storm; records its wildcard deliveries.
async fn storm_rank(env: mpisim::ProcEnv, per: usize, logs: LogStore) -> Time {
    let w = &env.world;
    // All-to-all storm: every rank sends `per` tagged messages to
    // every other rank, then wildcard-receives its share.
    for i in 0..per {
        for dst in 0..w.size() {
            if dst != w.rank() {
                w.send(&[(w.rank() * 1000 + i) as u64], dst, 7).unwrap();
            }
        }
    }
    let mut got = Vec::new();
    for _ in 0..(w.size() - 1) * per {
        let (v, st) = recv_async::<u64, _>(w, Src::Any, 7).await.unwrap();
        got.push((st.source, v[0]));
    }
    logs.lock().unwrap()[w.rank()] = got;
    env.now()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // The schedule is a pure function of the seed: two runs with the same
    // seed deliver every message to every rank in the identical order (and
    // reach identical virtual clocks).
    #[test]
    fn same_seed_same_delivery_order(
        p in 2usize..10,
        per in 1usize..5,
        seed in any::<u64>(),
    ) {
        let a = storm_delivery_log(p, per, seed, 1);
        let b = storm_delivery_log(p, per, seed, 1);
        prop_assert_eq!(a, b);
    }

    // The epoch discipline makes the worker count irrelevant to the
    // simulation: wildcard delivery order, per-rank clocks — everything —
    // must be bit-identical across coop_workers ∈ {1, 2, 4, 8}.
    #[test]
    fn any_worker_count_same_delivery_order(
        p in 2usize..10,
        per in 1usize..4,
        seed in any::<u64>(),
    ) {
        let serial = storm_delivery_log(p, per, seed, 1);
        for workers in [2usize, 4, 8] {
            let parallel = storm_delivery_log(p, per, seed, workers);
            prop_assert_eq!(&serial, &parallel, "workers = {}", workers);
        }
    }

    // Cooperative and thread backends agree on all value-level results
    // for deterministic programs (delivery order may differ; sums do not).
    #[test]
    fn coop_matches_threads_on_values(
        p in 1usize..10,
        seed in any::<u64>(),
    ) {
        let run = |cfg: SimConfig| {
            Universe::run_poll(p, cfg.with_seed(seed), |env| async move {
                let w = &env.world;
                let s = coll::allreduce_async(w, &[w.rank() as u64 + 1], 5, ops::sum::<u64>())
                    .await
                    .unwrap()[0];
                let sc = coll::scan_async(w, &[1u64], 7, ops::sum::<u64>())
                    .await
                    .unwrap()[0];
                (s, sc)
            })
            .per_rank
        };
        prop_assert_eq!(run(SimConfig::default()), run(SimConfig::cooperative()));
    }
}

#[test]
fn coop_many_sequential_universes() {
    // Scheduler state must not leak between runs (fresh slots and rank
    // bodies, thread-local CURRENT restored).
    let launches = Arc::new(AtomicUsize::new(0));
    for round in 0..10u64 {
        let launches = Arc::clone(&launches);
        let res = Universe::run_poll(8, SimConfig::cooperative().with_seed(round), move |env| {
            launches.fetch_add(1, Ordering::Relaxed);
            async move {
                let w = &env.world;
                coll::allreduce_async(w, &[round], 5, ops::sum::<u64>())
                    .await
                    .unwrap()[0]
            }
        });
        assert!(res.per_rank.iter().all(|&v| v == 8 * round));
    }
    assert_eq!(launches.load(Ordering::Relaxed), 80);
}
