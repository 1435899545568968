//! Epoch-commit oracle tests: the destination-sharded epoch commit must
//! deliver **byte-identically** — on delivery logs, per-rank results, and
//! virtual clocks — for every worker count. The storms here are built to
//! stress exactly the commit phase: wildcard receives (match order is
//! observable), colliding tags (several matching streams per mailbox),
//! heavy fan-in (long per-destination segments), and nonblocking
//! collectives (library-internal traffic interleaved with user traffic).
//!
//! The single-threaded serial commit that once served as the runtime
//! oracle survives as pinned data: digests of its 1-worker storm logs,
//! recorded before it was retired, which the one commit path must still
//! reproduce at every worker count.

use std::sync::{Arc, Mutex};

use mpisim::faults::splitmix64;
use mpisim::nbcoll;
use mpisim::{ops, recv_async, SchedProfile, SimConfig, Src, Time, Transport, Universe};
use proptest::prelude::*;

/// One rank's full observation of a storm run: the exact `(source, tag,
/// value)` sequence its wildcard receives matched, its iallreduce result,
/// and its final virtual clock.
type RankLog = (Vec<(usize, u64, u64)>, u64, Time);

/// Messages rank `r` sends per `(i, k)` step: 4 deterministic targets at
/// offsets {1, 4, 9, 16} with tags colliding in {0, 1, 2}. Every rank's
/// in-degree equals its out-degree, so receive counts are known exactly.
const FANOUT_OFFSETS: [usize; 4] = [1, 4, 9, 16];

fn tag_of(k: usize) -> u64 {
    (k % 3) as u64
}

/// Run the storm and capture every rank's observation, plus the
/// scheduler's wall-clock profile for multi-worker runs (its claim
/// counts show which commit phases ran; its timings are never
/// compared).
fn storm_log(
    p: usize,
    per: usize,
    seed: u64,
    workers: usize,
) -> (Vec<RankLog>, Option<SchedProfile>) {
    assert!(p > *FANOUT_OFFSETS.iter().max().unwrap());
    type LogStore = Arc<Mutex<Vec<Vec<(usize, u64, u64)>>>>;
    let logs: LogStore = Arc::new(Mutex::new(vec![Vec::new(); p]));
    let logs2 = Arc::clone(&logs);
    let cfg = SimConfig::cooperative()
        .with_seed(seed)
        .with_workers(workers)
        .with_sched_profile(workers > 1);
    let res = Universe::run_poll(p, cfg, move |env| {
        let logs2 = Arc::clone(&logs2);
        async move {
            let w = &env.world;
            let r = w.rank();
            // Fan-out storm with colliding tags.
            for i in 0..per {
                for (k, off) in FANOUT_OFFSETS.iter().enumerate() {
                    let dst = (r + off) % p;
                    w.send(&[(r * 1000 + i * 10 + k) as u64], dst, tag_of(k))
                        .unwrap();
                }
            }
            // A nonblocking collective runs concurrently with the storm, so
            // library-internal traffic shares the same epoch commits.
            let coll = nbcoll::iallreduce(w, &[r as u64 + 1], 300, ops::sum::<u64>()).unwrap();
            // Wildcard-drain each colliding tag stream: per tag t the rank's
            // in-degree is per * |{k : tag_of(k) == t}| (offsets are distinct
            // and nonzero mod p, so in-degree mirrors out-degree).
            let mut got = Vec::new();
            for t in 0..3u64 {
                let n = per
                    * (0..FANOUT_OFFSETS.len())
                        .filter(|&k| tag_of(k) == t)
                        .count();
                for _ in 0..n {
                    let (v, st) = recv_async::<u64, _>(w, Src::Any, t).await.unwrap();
                    got.push((st.source, t, v[0]));
                }
            }
            let sum = coll.wait_result_async().await.unwrap()[0];
            logs2.lock().unwrap()[r] = got;
            sum
        }
    });
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    let log = logs
        .into_iter()
        .zip(res.per_rank)
        .zip(res.clocks)
        .map(|((log, sum), clock)| (log, sum, clock))
        .collect();
    (log, res.sched_profile)
}

/// Summed `(shards, merge_runs)` claim counts of a profiled run.
fn claims(profile: &SchedProfile) -> (u64, u64) {
    profile
        .workers
        .iter()
        .fold((0, 0), |(s, m), w| (s + w.shards, m + w.merge_runs))
}

/// Assert the 4- and 8-worker storms reproduce the 1-worker run bit
/// for bit, and return each multi-worker run's `(shards, merge_runs)`.
fn assert_worker_invariant(p: usize, per: usize, seed: u64) -> Vec<(u64, u64)> {
    let (reference, _) = storm_log(p, per, seed, 1);
    [4usize, 8]
        .into_iter()
        .map(|workers| {
            let (got, profile) = storm_log(p, per, seed, workers);
            assert_eq!(reference, got, "commit diverged at {workers} workers");
            claims(&profile.expect("multi-worker runs are profiled"))
        })
        .collect()
}

/// Fold a storm's logs into one digest with `splitmix64`, which is
/// stable across Rust releases and platforms (unlike `DefaultHasher`).
fn digest(logs: &[RankLog]) -> u64 {
    let mut h = 0u64;
    let mut fold = |x: u64| h = splitmix64(h ^ x);
    for (got, sum, clock) in logs {
        fold(got.len() as u64);
        for &(src, tag, v) in got {
            fold(src as u64);
            fold(tag);
            fold(v);
        }
        fold(*sum);
        fold(clock.as_nanos());
    }
    h
}

/// Digests of the retired serial commit (one worker pushing every
/// message in global `(matchable, sender, seq)` order, ordered by a
/// global `sort_by_key`) on fixed `(p, per, seed)` storms, recorded
/// before that path was deleted.
const SERIAL_ORACLE_DIGESTS: [(usize, usize, u64, u64); 3] = [
    (64, 1, 1, 0x35b1_d36b_069f_06af),
    (64, 3, 2, 0x38d2_a633_0a48_1e6c),
    (1024, 2, 3, 0xc4e3_3aef_ca86_8b4d),
];

#[test]
fn commit_reproduces_the_pinned_serial_oracle() {
    for (p, per, seed, want) in SERIAL_ORACLE_DIGESTS {
        for workers in [1usize, 4, 8] {
            let (log, _) = storm_log(p, per, seed, workers);
            assert_eq!(
                digest(&log),
                want,
                "serial-oracle digest diverged (p={p}, per={per}, seed={seed}, workers={workers})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    // p = 64: dense storms; the fan-out epochs are wide enough to be cut
    // into several shards at 4 and 8 workers.
    #[test]
    fn commit_identical_across_workers_p64(
        per in 1usize..4,
        seed in any::<u64>(),
    ) {
        let claims = assert_worker_invariant(64, per, seed);
        prop_assert!(
            claims.iter().any(|&(shards, _)| shards > 1),
            "no multi-worker run committed more than one shard: {:?}", claims
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    // p = 1024: the paper-scale regime. per = 2 stages 8192 messages per
    // epoch wave — exactly the publish threshold — so the multi-worker
    // runs exercise the *published* chunked merge round, not just the
    // inline in-place sort.
    #[test]
    fn commit_identical_across_workers_p1024(seed in any::<u64>()) {
        let claims = assert_worker_invariant(1024, 2, seed);
        prop_assert!(
            claims.iter().any(|&(shards, _)| shards > 1),
            "no multi-worker run committed more than one shard: {:?}", claims
        );
        prop_assert!(
            claims.iter().all(|&(_, merge_runs)| merge_runs > 0),
            "a multi-worker run skipped the published merge round: {:?}", claims
        );
    }
}
