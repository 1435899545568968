//! The commit-path allocation contract (DESIGN.md §10), proven with a
//! counting global allocator:
//!
//! * **(a) The epoch machinery allocates nothing.** A steady-state storm
//!   of *zero-length* point-to-point messages — ring sends, `Src::Any`
//!   receives, and a barrier (whose messages carry no payload) — makes
//!   **exactly zero** heap allocations per iteration. Zero-length
//!   payloads own no buffer, so every allocation such a storm could make
//!   belongs to the scheduler itself: staging, commit ordering, mailbox
//!   push, wake-ups, and the mailbox indices.
//! * **(b) Payload allocations are exact and deterministic.** Message
//!   payloads are plain `Vec` allocations, freed on drop. A storm that
//!   carries data — ring point-to-point, a reduce, a scan, and a
//!   JQuick-style staged exchange (run-length encode → ship → decode) —
//!   makes the *same pinned count* of allocations in every steady-state
//!   iteration, derived below from the storm's payload-carrying buffers,
//!   and that count is identical for cold and warm runs, solo and in a
//!   fleet. Any allocation the epoch machinery adds shows up as
//!   a deviation from it.
//!
//! The measurement only holds at `workers = 1`: the scheduler then runs
//! its worker loop on the calling thread (no allocating thread spawns,
//! no `Arc`-published commit/merge phases — `shard_target` returns 1 and
//! the merge rounds stay inline). This file is its own integration-test
//! binary with a single `#[test]` so no concurrent test pollutes the
//! counter.
//!
//! `bcast`/`allreduce` publish through an `Arc` per call and are
//! deliberately excluded — the contract covers the epoch machinery and
//! the staged payload path, not every collective's internal rendezvous.

use std::alloc::{GlobalAlloc, Layout, System};
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};

use mpisim::{coll, distsort, ops, recv_async, SimConfig, Src, Transport, Universe};

/// Counts every allocation event (alloc, alloc_zeroed, and realloc —
/// a realloc that moves is a fresh allocation for our purposes); frees
/// are not interesting. Relaxed ordering suffices: at `workers = 1` the
/// counter is only read on the thread that does all the allocating.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const P: usize = 8;
/// Iterations per run.
const ITERS: usize = 40;
/// Iterations granted to a run to fill the scheduler's commit pools and
/// grow its mailbox tables and staging buffers (capacities only grow, so
/// reallocs die out once every buffer has reached its steady size). The
/// payload storm settles after 4 iterations, cold or warm, solo or in a
/// fleet; the zero-length storm after 1.
const WARMUP: usize = 8;
/// Elements per payload.
const CHUNK: usize = 16;

/// Allocations per payload-storm iteration, summed over all `P` ranks.
/// Every one is a payload-carrying buffer (a send's copy, a collective's
/// accumulator, or a staged-exchange frame); each is one allocation
/// because its final length is known up front:
///
/// | step                     | buffers per iteration         | count |
/// |--------------------------|-------------------------------|-------|
/// | ring `send`              | 1 copy per rank               | P     |
/// | `reduce`                 | 1 accumulator per rank        | P     |
/// | `scan` accumulator       | 1 per rank                    | P     |
/// | `scan` round sends       | Σ_{d=1,2,4} (P − d) copies    | 17    |
/// | `tagged` input           | 1 per rank                    | P     |
/// | `encode_runs`            | runs + values, per rank       | 2·P   |
/// | `send(&runs)`            | 1 copy per rank               | P     |
/// | `decode_runs` output     | 1 per rank                    | P     |
///
/// = 8·P + 17 = 81 at P = 8. Received payloads move out of the message
/// without copying, `send_vec` ships its buffer as is, and the barrier's
/// messages are empty, so none of them allocate.
const PAYLOAD_ALLOCS_PER_ITER: u64 = 81;

/// The zero-length storm, contract (a): every message it sends is empty,
/// so it exercises the whole epoch machinery without owning a payload
/// buffer. Each rank sends to both ring neighbours under one tag and
/// drains them with wildcard receives, so the commit orders several
/// messages per destination and the mailbox serves `Src::Any` matches.
async fn empty_storm_body(env: mpisim::ProcEnv) -> Vec<u64> {
    let w = &env.world;
    let r = w.rank();
    let p = w.size();
    let mut snaps = snapshots(r);
    for _ in 0..ITERS {
        w.send::<u64>(&[], (r + 1) % p, 100).unwrap();
        w.send::<u64>(&[], (r + p - 1) % p, 100).unwrap();
        for _ in 0..2 {
            let (v, _) = recv_async::<u64, _>(w, Src::Any, 100).await.unwrap();
            assert!(v.is_empty());
        }
        coll::barrier_async(w, 400).await.unwrap();
        snapshot(r, &mut snaps);
    }
    snaps
}

/// The payload storm, contract (b), as a plain `async fn` so the same
/// body (and thus the same allocation profile) runs both solo and under a
/// [`mpisim::Fleet`].
async fn payload_storm_body(env: mpisim::ProcEnv) -> Vec<u64> {
    let w = &env.world;
    let r = w.rank();
    let p = w.size();
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;
    let payload: [u64; CHUNK] = std::array::from_fn(|k| (r * CHUNK + k) as u64);
    let mut snaps = snapshots(r);
    for i in 0..ITERS {
        // Ring point-to-point.
        w.send(&payload, next, 100).unwrap();
        let (v, st) = recv_async::<u64, _>(w, Src::Rank(prev), 100).await.unwrap();
        assert_eq!((st.source, v.len()), (prev, CHUNK));
        // Binomial reduce to rank 0, then a Hillis–Steele inclusive scan.
        coll::reduce_async(w, &payload, 0, 200, ops::sum::<u64>())
            .await
            .unwrap();
        coll::scan_async(w, &payload, 300, ops::sum::<u64>())
            .await
            .unwrap();
        // JQuick-style staged exchange: tag a locally sorted chunk
        // with positions, run-length encode, ship both frames to
        // the ring neighbour, decode. This is exactly the wire format
        // of the sample sort's data exchange.
        let base = ((i * p + r) * CHUNK) as u64;
        let tagged: Vec<(u64, u64)> = payload.iter().copied().zip(base..).collect();
        let (runs, vals) = distsort::encode_runs(tagged);
        w.send(&runs, next, 500).unwrap();
        w.send_vec(vals, next, 501).unwrap();
        let (rruns, _) = recv_async::<(u64, u64), _>(w, Src::Rank(prev), 500)
            .await
            .unwrap();
        let (rvals, _) = recv_async::<u64, _>(w, Src::Rank(prev), 501).await.unwrap();
        assert_eq!(distsort::decode_runs(&rruns, rvals).len(), CHUNK);
        coll::barrier_async(w, 400).await.unwrap();
        snapshot(r, &mut snaps);
    }
    snaps
}

/// Rank 0's snapshot buffer, sized up front so recording never allocates.
fn snapshots(rank: usize) -> Vec<u64> {
    if rank == 0 {
        Vec::with_capacity(ITERS)
    } else {
        Vec::new()
    }
}

/// Record the global counter on rank 0 after an iteration's closing
/// barrier. With one worker everything — rank bodies and the commit
/// machinery — runs on one thread, so the read races with nothing.
fn snapshot(rank: usize, snaps: &mut Vec<u64>) {
    if rank == 0 {
        snaps.push(ALLOCS.load(Ordering::Relaxed));
    }
}

/// Every knob the measurement depends on, pinned: 1 worker (inline
/// commits, one thread).
fn storm_cfg(seed: u64) -> SimConfig {
    SimConfig::cooperative().with_seed(seed).with_workers(1)
}

/// A storm body: one of the two `async fn`s above.
trait Body<Fut>: Fn(mpisim::ProcEnv) -> Fut + Copy + Send + Sync + 'static {}
impl<F, Fut> Body<Fut> for F where F: Fn(mpisim::ProcEnv) -> Fut + Copy + Send + Sync + 'static {}

/// One full solo storm run. Returns rank 0's allocation-counter
/// snapshot after each iteration, plus the run's total count.
fn solo_run<Fut>(body: impl Body<Fut>) -> (Vec<u64>, u64)
where
    Fut: Future<Output = Vec<u64>> + Send + 'static,
{
    let before = ALLOCS.load(Ordering::Relaxed);
    let res = Universe::run_poll(P, storm_cfg(42), body);
    let total = ALLOCS.load(Ordering::Relaxed) - before;
    let snaps = res.per_rank.into_iter().next().unwrap();
    assert_eq!(snaps.len(), ITERS);
    (snaps, total)
}

/// The same storm admitted into a persistent single-worker fleet. The
/// rank bodies and the whole commit machinery run on the one fleet
/// worker thread, and the in-body counter snapshots still race with
/// nothing: the submitter blocks in `join` and the sweep's own
/// bookkeeping happens strictly outside the program body.
fn fleet_run<Fut>(fleet: &mpisim::Fleet, body: impl Body<Fut>) -> Vec<u64>
where
    Fut: Future<Output = Vec<u64>> + Send + 'static,
{
    let res = fleet.submit(P, storm_cfg(42), body).join();
    let snaps = res.per_rank.into_iter().next().unwrap();
    assert_eq!(snaps.len(), ITERS);
    snaps
}

/// Per-iteration allocation counts after the warm-up window.
fn steady_deltas(snaps: &[u64]) -> Vec<u64> {
    snaps
        .windows(2)
        .skip(WARMUP - 1)
        .map(|w| w[1] - w[0])
        .collect()
}

/// Check one storm (a or b) against `per_iter` across a cold solo run,
/// two warm solo runs, and a fleet's cold and two warm runs.
fn check_storm<Fut>(label: &str, body: impl Body<Fut>, per_iter: u64)
where
    Fut: Future<Output = Vec<u64>> + Send + 'static,
{
    let assert_steady = |run: &str, snaps: &[u64]| {
        let deltas = steady_deltas(snaps);
        assert!(
            deltas.iter().all(|&d| d == per_iter),
            "{label} {run}: expected exactly {per_iter} allocations per \
             steady-state iteration, got {deltas:?}"
        );
    };

    let (cold, _) = solo_run(body);
    assert_steady("cold solo run", &cold);

    // The whole-run totals of warm runs — universe setup included — must
    // match exactly: a warm run's allocation count is a pure function of
    // (program, seed).
    let (warm2, total2) = solo_run(body);
    let (warm3, total3) = solo_run(body);
    assert_eq!(
        total2, total3,
        "{label}: warm-run allocation totals diverged: {total2} vs {total3}"
    );
    assert_steady("warm solo run 2", &warm2);
    assert_steady("warm solo run 3", &warm3);

    // Fleet mode: the shared worker pool hands its `SchedPools` to every
    // admitted universe. Universe #1 starts on a cold worker thread;
    // universes #2 and #3 of the same shape reuse its pools. All three
    // must make the same per-iteration count as a solo run.
    let fleet = mpisim::Fleet::new(1, 1);
    for run in ["cold fleet run 1", "warm fleet run 2", "warm fleet run 3"] {
        assert_steady(run, &fleet_run(&fleet, body));
    }
}

#[test]
fn commit_path_allocations_are_pinned() {
    check_storm("zero-length storm", empty_storm_body, 0);
    check_storm("payload storm", payload_storm_body, PAYLOAD_ALLOCS_PER_ITER);
}
