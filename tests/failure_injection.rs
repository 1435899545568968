//! Failure injection: the simulator must fail loudly, not hang — and
//! every timeout or deadlock must carry a `RoundBlame` naming the ranks
//! the stalled operation was waiting on.

use std::time::Duration;

use mpisim::{
    nbcoll, ops, recv_async, CommitAlgo, FaultPlan, MpiError, RankHealth, SimConfig, Src, Time,
    Transport, Universe,
};
use rbc::RbcComm;

fn short_timeout() -> SimConfig {
    SimConfig::default().with_timeout(Duration::from_millis(80))
}

#[test]
fn unmatched_recv_times_out_with_context() {
    let res = Universe::run(2, short_timeout(), |env| {
        let w = &env.world;
        if w.rank() == 0 {
            w.recv::<u64>(Src::Rank(1), 42).err()
        } else {
            None
        }
    });
    match &res.per_rank[0] {
        Some(MpiError::Timeout {
            rank, waited_for, ..
        }) => {
            assert_eq!(*rank, 0);
            assert!(waited_for.contains("tag=42"), "got: {waited_for}");
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn mismatched_collective_times_out() {
    // Rank 1 never joins the barrier: rank 0's barrier must time out
    // instead of hanging forever.
    let res = Universe::run(2, short_timeout(), |env| {
        let w = &env.world;
        if w.rank() == 0 {
            w.barrier().err()
        } else {
            None
        }
    });
    assert!(matches!(res.per_rank[0], Some(MpiError::Timeout { .. })));
}

#[test]
fn type_mismatch_is_detected() {
    let res = Universe::run(2, short_timeout(), |env| {
        let w = &env.world;
        if w.rank() == 0 {
            w.send(&[1.5f64], 1, 7).unwrap();
            None
        } else {
            w.recv::<u32>(Src::Rank(0), 7).err()
        }
    });
    assert!(matches!(
        res.per_rank[1],
        Some(MpiError::TypeMismatch {
            expected: "u32",
            ..
        })
    ));
}

#[test]
fn invalid_rank_is_rejected_immediately() {
    let res = Universe::run_default(2, |env| {
        let w = &env.world;
        let send_err = w.send(&[1u64], 5, 0).err();
        let recv_err = w.recv::<u64>(Src::Rank(9), 0).err();
        (send_err, recv_err)
    });
    for (s, r) in res.per_rank {
        assert!(matches!(
            s,
            Some(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
        assert!(matches!(
            r,
            Some(MpiError::InvalidRank { rank: 9, size: 2 })
        ));
    }
}

#[test]
fn rbc_split_out_of_range_is_usage_error() {
    let res = Universe::run_default(4, |env| {
        let world = RbcComm::create(&env.world);
        let too_big = world.split(0, 9).err();
        let inverted = world.split(3, 1).err();
        let zero_stride = world.split_strided(0, 3, 0).err();
        (too_big, inverted, zero_stride)
    });
    for (a, b, c) in res.per_rank {
        assert!(matches!(a, Some(MpiError::Usage(_))));
        assert!(matches!(b, Some(MpiError::Usage(_))));
        assert!(matches!(c, Some(MpiError::Usage(_))));
    }
}

#[test]
#[should_panic(expected = "rank failure")]
fn rank_panic_propagates_to_harness() {
    Universe::run_default(3, |env| {
        if env.rank() == 2 {
            panic!("rank failure");
        }
    });
}

#[test]
fn nonblocking_wait_times_out_rather_than_spinning_forever() {
    // A receive whose sender never sends: wait() must give up.
    let res = Universe::run(2, short_timeout(), |env| {
        let w = &env.world;
        if w.rank() == 0 {
            let req = w.irecv::<u64>(Src::Rank(1), 3);
            // wait() falls back to the blocking path with the configured
            // simulator timeout.
            req.wait().err()
        } else {
            None
        }
    });
    assert!(matches!(res.per_rank[0], Some(MpiError::Timeout { .. })));
}

/// After an all-reduce, rank 0 of a 4-rank async program waits
/// (`Request::wait_async`) on a receive rank 1 never sends. Returns rank
/// 0's error: its full text (blame included) and the blamed ranks.
fn wedged_wait_error(workers: usize, timeout: Duration) -> (String, Vec<usize>) {
    let cfg = SimConfig::cooperative()
        .with_workers(workers)
        .with_timeout(timeout);
    let res = Universe::run_poll(4, cfg, |env| async move {
        let w = &env.world;
        w.allreduce_async(&[w.rank() as u64], ops::sum::<u64>())
            .await
            .unwrap();
        if w.rank() != 0 {
            return None;
        }
        let mut req = nbcoll::Request::new(w.irecv::<u64>(Src::Rank(1), 3));
        Some(req.wait_async().await.unwrap_err())
    });
    match res.per_rank[0].as_ref().expect("rank 0's wait must fail") {
        e @ MpiError::Timeout { rank: 0, blame, .. } => (e.to_string(), blame.ranks()),
        other => panic!("expected a Timeout on rank 0, got {other:?}"),
    }
}

#[test]
fn wedged_async_wait_fails_through_the_exact_deadlock_detector() {
    // The wait parks until an arrival that never comes; once every other
    // rank has finished, the scheduler's deadlock detector poisons it and
    // the next poll fails. No wall clock is involved: the same error
    // comes back at any worker count and with a one-hour receive timeout.
    let (text, blamed) = wedged_wait_error(1, Duration::from_secs(30));
    assert!(
        text.contains("tag=3") && text.contains("cooperative stall"),
        "got: {text}"
    );
    assert_eq!(blamed, vec![1], "blame must name the silent sender");
    for workers in [1usize, 4] {
        for timeout in [Duration::from_secs(30), Duration::from_secs(3600)] {
            assert_eq!(
                wedged_wait_error(workers, timeout),
                (text.clone(), blamed.clone()),
                "{workers} worker(s), timeout {timeout:?}"
            );
        }
    }
}

/// Run a 4-rank receive cycle (a textbook deadlock) under the cooperative
/// backend and return each rank's `(rank, waited_for)` diagnostics.
fn coop_deadlock_diagnostics(algo: CommitAlgo, workers: usize) -> Vec<Option<(usize, String)>> {
    let cfg = SimConfig::cooperative()
        .with_commit_algo(algo)
        .with_workers(workers);
    Universe::run_poll(4, cfg, |env| async move {
        let w = &env.world;
        let from = (w.rank() + 1) % 4;
        let got = recv_async::<u64, _>(w, Src::Rank(from), 42).await;
        got.err().map(|e| match e {
            MpiError::Timeout {
                rank, waited_for, ..
            } => (rank, waited_for),
            other => panic!("expected Timeout, got {other:?}"),
        })
    })
    .per_rank
}

#[test]
fn coop_deadlock_diagnostics_exact_under_sharded_commit() {
    // Deadlock poisoning moved behind the sharded commit's merge barrier;
    // the diagnostics must stay *exact*: same rank, same `waited_for`
    // text, for every worker count — byte-identical to the serial oracle.
    let oracle = coop_deadlock_diagnostics(CommitAlgo::Serial, 1);
    for (r, d) in oracle.iter().enumerate() {
        let (rank, text) = d.as_ref().expect("every rank deadlocks");
        assert_eq!(*rank, r);
        assert!(
            text.contains("tag=42") && text.contains("cooperative deadlock"),
            "got: {text}"
        );
    }
    for workers in [1usize, 4, 8] {
        assert_eq!(
            oracle,
            coop_deadlock_diagnostics(CommitAlgo::Sharded, workers),
            "deadlock diagnostics diverged at {workers} workers"
        );
    }
}

/// Run a 4-rank iallreduce with rank 2 crash-stopped from the start and
/// collect, per rank, `(reported rank, blamed ranks, all-crashed?)`.
/// Every rank — the victim itself *and* the transitively stalled peers
/// (whose receive pattern points at a live-but-stuck neighbour) — must
/// blame exactly the crashed rank, thanks to the crash-priority rule.
/// The async body runs on the poll scheduler or, under `cfg`'s thread
/// backend, on rank threads.
fn crash_mid_iallreduce_blame(cfg: SimConfig) -> Vec<Option<(usize, Vec<usize>, bool)>> {
    let cfg = cfg.with_faults(FaultPlan::default().with_crash(2, Time::ZERO));
    Universe::run_poll(4, cfg, |env| async move {
        let w = &env.world;
        let r = match nbcoll::iallreduce(w, &[w.rank() as u64 + 1], 500, ops::sum::<u64>()) {
            Ok(sm) => sm.wait_result_async().await,
            Err(e) => Err(e),
        };
        r.err().map(|e| match e {
            MpiError::Timeout { rank, blame, .. } => {
                let all_crashed = !blame.waiting_on.is_empty()
                    && blame
                        .waiting_on
                        .iter()
                        .all(|b| matches!(b.health, RankHealth::Crashed { .. }));
                (rank, blame.ranks(), all_crashed)
            }
            other => panic!("expected Timeout, got {other:?}"),
        })
    })
    .per_rank
}

#[test]
fn crash_mid_iallreduce_blames_exactly_the_crashed_rank_threaded() {
    for d in crash_mid_iallreduce_blame(short_timeout()) {
        let (rank, blamed, all_crashed) = d.expect("every rank must error");
        assert_eq!(blamed, vec![2], "rank {rank} blamed {blamed:?}");
        assert!(all_crashed, "rank {rank}: blame must report crashed health");
    }
}

#[test]
fn crash_mid_iallreduce_blames_exactly_the_crashed_rank_coop() {
    // The cooperative scheduler poisons the stalled ranks long before any
    // wall clock fires; diagnostics must be identical for every worker
    // count and commit algorithm.
    let oracle = crash_mid_iallreduce_blame(
        SimConfig::cooperative()
            .with_workers(1)
            .with_commit_algo(CommitAlgo::Serial),
    );
    for d in &oracle {
        let (rank, blamed, all_crashed) = d.as_ref().expect("every rank must error");
        assert_eq!(*blamed, vec![2], "rank {rank} blamed {blamed:?}");
        assert!(all_crashed, "rank {rank}: blame must report crashed health");
    }
    for workers in [4usize, 8] {
        let got = crash_mid_iallreduce_blame(
            SimConfig::cooperative()
                .with_workers(workers)
                .with_commit_algo(CommitAlgo::Sharded),
        );
        assert_eq!(oracle, got, "crash blame diverged at {workers} workers");
    }
}

/// Crash a rank mid-JQuick (50µs in — a few recursion messages deep at
/// α = 10µs) and require every failing rank's blame to name exactly the
/// victim, on both backends (one async body, as for the iallreduce case).
fn crash_mid_jquick_blame(cfg: SimConfig, victim: usize) -> Vec<Option<(Vec<usize>, bool)>> {
    let cfg = cfg.with_faults(FaultPlan::default().with_crash(victim, Time::from_micros(50)));
    let p = 8u64;
    let n = 64 * p;
    Universe::run_poll(p as usize, cfg, move |env| async move {
        let w = &env.world;
        let data: Vec<u64> = (0..64).map(|i| (w.rank() as u64 + 1) * 1000 + i).collect();
        let r = jquick::jquick_sort_async(
            &jquick::RbcBackend,
            w,
            data,
            n,
            &jquick::JQuickConfig::default(),
        )
        .await;
        r.err().map(|e| match e {
            MpiError::Timeout { blame, .. } => {
                let all_crashed = !blame.waiting_on.is_empty()
                    && blame
                        .waiting_on
                        .iter()
                        .all(|b| matches!(b.health, RankHealth::Crashed { .. }));
                (blame.ranks(), all_crashed)
            }
            other => panic!("expected Timeout, got {other:?}"),
        })
    })
    .per_rank
}

#[test]
fn crash_mid_jquick_blames_the_crashed_rank_threaded() {
    let diags = crash_mid_jquick_blame(short_timeout(), 5);
    let failed: Vec<_> = diags.iter().flatten().collect();
    assert!(!failed.is_empty(), "the crash must break the sort");
    for (blamed, all_crashed) in failed {
        assert_eq!(*blamed, vec![5], "blame must name exactly the victim");
        assert!(all_crashed, "blame must report crashed health");
    }
}

#[test]
fn crash_mid_jquick_blames_the_crashed_rank_coop() {
    let run = |workers: usize, algo: CommitAlgo| {
        crash_mid_jquick_blame(
            SimConfig::cooperative()
                .with_workers(workers)
                .with_commit_algo(algo),
            5,
        )
    };
    let oracle = run(1, CommitAlgo::Serial);
    let failed: Vec<_> = oracle.iter().flatten().collect();
    assert!(!failed.is_empty(), "the crash must break the sort");
    for (blamed, all_crashed) in failed {
        assert_eq!(*blamed, vec![5], "blame must name exactly the victim");
        assert!(all_crashed, "blame must report crashed health");
    }
    assert_eq!(
        oracle,
        run(8, CommitAlgo::Sharded),
        "jquick crash blame diverged under the sharded commit"
    );
}

#[test]
fn coop_timeout_after_real_traffic_identical_under_sharded_commit() {
    // Sharded commits with real deliveries happen first (a ring
    // exchange), *then* a rank waits forever: the poison must fire on
    // exactly the stuck ranks, with identical text under both commit
    // algorithms. Ranks 0 and 1 both wait on a tag nobody sends so the
    // poison pass wakes several blocked ranks in one commit.
    let run = |algo: CommitAlgo, workers: usize| {
        let cfg = SimConfig::cooperative()
            .with_commit_algo(algo)
            .with_workers(workers);
        Universe::run_poll(8, cfg, |env| async move {
            let w = &env.world;
            let next = (w.rank() + 1) % 8;
            let prev = (w.rank() + 7) % 8;
            w.send(&[w.rank() as u64], next, 1).unwrap();
            let (v, _) = recv_async::<u64, _>(w, Src::Rank(prev), 1).await.unwrap();
            assert_eq!(v[0] as usize, prev);
            if w.rank() < 2 {
                let got = recv_async::<u64, _>(w, Src::Any, 99).await;
                got.err().map(|e| match e {
                    MpiError::Timeout {
                        rank,
                        waited_for,
                        blame,
                        ..
                    } => (rank, waited_for, blame.ranks()),
                    other => panic!("expected Timeout, got {other:?}"),
                })
            } else {
                None
            }
        })
        .per_rank
    };
    let oracle = run(CommitAlgo::Serial, 1);
    for (r, d) in oracle.iter().enumerate() {
        if r < 2 {
            let (rank, text, blamed) = d.as_ref().expect("stuck ranks time out");
            assert_eq!(*rank, r);
            assert!(text.contains("tag=99"), "got: {text}");
            // No faults are armed, so a wildcard wait blames exactly the
            // other ranks of the communicator — no more, no fewer.
            let others: Vec<usize> = (0..8).filter(|&x| x != r).collect();
            assert_eq!(*blamed, others, "rank {r} blamed {blamed:?}");
        } else {
            assert!(d.is_none(), "rank {r} should have finished cleanly");
        }
    }
    for workers in [1usize, 4, 8] {
        assert_eq!(
            oracle,
            run(CommitAlgo::Sharded, workers),
            "timeout diagnostics diverged at {workers} workers"
        );
    }
}

#[test]
fn sort_with_wrong_global_count_fails_cleanly() {
    let res = Universe::run_default(3, |env| {
        let w = &env.world;
        // n says 30, but every rank passes only 5 elements (needs 10).
        jquick::jquick_sort(
            &jquick::RbcBackend,
            w,
            vec![1u64; 5],
            30,
            &jquick::JQuickConfig::default(),
        )
        .err()
    });
    for e in res.per_rank {
        assert!(matches!(e, Some(MpiError::Usage(_))));
    }
}
