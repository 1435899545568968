//! Stress tests: many ranks, contended mailboxes, message storms, and
//! adversarial polling patterns.

use std::sync::Arc;

use mpisim::mailbox::Mailbox;
use mpisim::msg::{ContextId, MatchPattern, Message, SrcFilter};
use mpisim::nbcoll;
use mpisim::{coll, ops, recv_async, CommitAlgo, SimConfig, Src, Time, Transport, Universe};

#[test]
fn mailbox_concurrent_producers_and_consumer() {
    // 8 producer threads push 500 messages each; one consumer claims them
    // all with per-source FIFO intact.
    let mb = Arc::new(Mailbox::new());
    let producers: Vec<_> = (0..8)
        .map(|src| {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    mb.push(Message::new::<u64>(
                        src,
                        1,
                        ContextId::WORLD,
                        vec![i],
                        Time::ZERO,
                        Time(i),
                    ));
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }
    // Drain per source, checking FIFO.
    for src in 0..8 {
        let pat = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(src),
            tag: 1,
        };
        for expect in 0..500u64 {
            let m = mb.try_claim(&pat).expect("message present");
            let (v, _) = m.take::<u64>().unwrap();
            assert_eq!(v[0], expect, "FIFO broken for src {src}");
        }
    }
    assert!(mb.is_empty());
}

#[test]
fn many_ranks_barrier_and_reduce() {
    // 512 simulated ranks: spawn, barrier, allreduce, verify.
    let p = 512;
    let res = Universe::run_default(p, move |env| {
        let w = &env.world;
        coll::barrier(w, 3).unwrap();
        coll::allreduce(w, &[1u64], 5, ops::sum::<u64>()).unwrap()[0]
    });
    assert!(res.per_rank.iter().all(|&s| s == p as u64));
    // Sanity on the model: the barrier + allreduce should cost O(log p)·α,
    // comfortably under one millisecond of virtual time.
    assert!(res.max_time() < Time::from_millis(2));
}

#[test]
fn message_storm_all_to_one() {
    // Every rank floods rank 0 with small messages; wildcard receives must
    // drain them all without loss (the min-arrival matching is exercised
    // under a large backlog).
    let p = 32;
    let per = 64;
    let res = Universe::run_default(p, move |env| {
        let w = &env.world;
        if w.rank() == 0 {
            let mut total = 0u64;
            for _ in 0..(p - 1) * per {
                let (v, _) = w.recv::<u64>(Src::Any, 9).unwrap();
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
fn interleaved_nonblocking_storm() {
    // Every rank runs 8 nonblocking collectives simultaneously with
    // distinct tags and polls them in a rotating order — an adversarial
    // schedule for the state machines.
    let res = Universe::run_default(12, |env| {
        let w = &env.world;
        let mut reqs: Vec<nbcoll::Request> = (0..8u64)
            .map(|k| {
                nbcoll::Request::new(
                    nbcoll::iallreduce(w, &[k + 1], 200 + 2 * k, ops::sum::<u64>()).unwrap(),
                )
            })
            .collect();
        let mut spin = 0usize;
        loop {
            let mut all = true;
            for i in 0..reqs.len() {
                let idx = (i + spin) % reqs.len();
                all &= reqs[idx].test().unwrap();
            }
            if all {
                break;
            }
            spin += 1;
            std::thread::yield_now();
        }
        true
    });
    assert!(res.per_rank.iter().all(|&ok| ok));
}

#[test]
fn repeated_universes_do_not_leak_state() {
    // Spinning universes up and down in a loop must stay correct (fresh
    // mailboxes, fresh context pools, fresh clocks).
    for round in 0..20 {
        let res = Universe::run(4, SimConfig::default().with_seed(round), move |env| {
            let w = &env.world;
            let c = w
                .split(u64::from(w.rank() % 2 == 0), w.rank() as u64)
                .unwrap();
            c.allreduce(&[round], ops::sum::<u64>()).unwrap()[0]
        });
        assert!(res.per_rank.iter().all(|&v| v == 2 * round));
    }
}

/// Order-sensitive FNV-style fold: two runs produce the same hash iff
/// they observed the identical delivery sequence.
fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100000001b3)
}

#[test]
fn commit_fan_in_all_to_one_4096() {
    // Every rank floods rank 0: the epoch commit carries ~16k entries in
    // ONE destination segment — the degenerate shape where sharding can't
    // parallelise (a single mailbox must be filled in order) and must
    // fall back to an in-order push without losing determinism. This is
    // exactly the fan-in the paper's 2^15-rank MPI_Comm_split produces at
    // its gather roots.
    let p = 1 << 12;
    let per = 4;
    let run = |algo: CommitAlgo, workers: usize| {
        let cfg = SimConfig::cooperative()
            .with_commit_algo(algo)
            .with_workers(workers);
        let res = Universe::run_poll(p, cfg, move |env| async move {
            let w = &env.world;
            if w.rank() == 0 {
                let mut acc = 0xcbf29ce484222325u64;
                for _ in 0..(p - 1) * per {
                    let (v, st) = recv_async::<u64, _>(w, Src::Any, 9).await.unwrap();
                    acc = fold(acc, (st.source as u64) << 32 | v[0]);
                }
                acc
            } else {
                for i in 0..per {
                    w.send(&[(w.rank() * per + i) as u64], 0, 9).unwrap();
                }
                0
            }
        });
        (res.per_rank[0], res.clocks)
    };
    let oracle = run(CommitAlgo::Serial, 1);
    for workers in [1usize, 4, 8] {
        assert_eq!(
            oracle,
            run(CommitAlgo::Sharded, workers),
            "all-to-one fan-in diverged at {workers} workers"
        );
    }
}

#[test]
fn commit_fan_in_leader_gather_4096() {
    // √p-leader gather storm: 64 leaders each drain their 64-member block
    // (two messages per member, wildcard), then report to rank 0 — 64
    // concurrent fan-in hotspots plus one final fan-in, so the commit has
    // many per-destination segments and genuinely shards. The commit
    // phase dominates: virtually all virtual time is message delivery.
    let p = 1 << 12;
    let b = 64; // block size = leader count = √p
    let run = |algo: CommitAlgo, workers: usize| {
        let cfg = SimConfig::cooperative()
            .with_commit_algo(algo)
            .with_workers(workers);
        let res = Universe::run_poll(p, cfg, move |env| async move {
            let w = &env.world;
            let r = w.rank();
            let leader = (r / b) * b;
            if r != leader {
                w.send(&[r as u64], leader, 5).unwrap();
                w.send(&[(r * r) as u64], leader, 5).unwrap();
                return 0;
            }
            // Leader: drain the block's storm in arrival order.
            let mut acc = 0xcbf29ce484222325u64;
            for _ in 0..(b - 1) * 2 {
                let (v, st) = recv_async::<u64, _>(w, Src::Any, 5).await.unwrap();
                acc = fold(acc, (st.source as u64) << 32 | v[0]);
            }
            if r != 0 {
                w.send(&[acc], 0, 6).unwrap();
                acc
            } else {
                for _ in 0..(p / b - 1) {
                    let (v, st) = recv_async::<u64, _>(w, Src::Any, 6).await.unwrap();
                    acc = fold(acc, st.source as u64 ^ v[0]);
                }
                acc
            }
        });
        (res.per_rank, res.clocks)
    };
    let oracle = run(CommitAlgo::Serial, 1);
    for workers in [1usize, 4, 8] {
        assert_eq!(
            oracle,
            run(CommitAlgo::Sharded, workers),
            "leader-gather fan-in diverged at {workers} workers"
        );
    }
}

#[test]
fn deep_nonuniform_clock_skew_still_correct() {
    // Ranks with wildly different virtual clocks keep exchanging; results
    // must be value-correct and the makespan must be governed by the
    // slowest participant.
    let res = Universe::run_default(9, |env| {
        let w = &env.world;
        env.state()
            .charge(Time::from_millis(w.rank() as u64 * w.rank() as u64));
        let s = coll::scan(w, &[w.rank() as u64], 7, ops::sum::<u64>()).unwrap()[0];
        coll::barrier(w, 9).unwrap();
        (s, env.now())
    });
    for (r, (s, t)) in res.per_rank.iter().enumerate() {
        let expect: u64 = (0..=r as u64).sum();
        assert_eq!(*s, expect);
        assert!(*t >= Time::from_millis(64), "rank {r} left barrier early");
    }
}
