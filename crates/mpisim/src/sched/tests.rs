//! The global-sort oracle of the epoch commit's ordering step. Every
//! way the scheduler orders an epoch's staged messages — the inline
//! in-place sort and the published merge round — must equal a global
//! stable `sort_by_key(CommitEntry::key)` of the whole epoch, stably
//! grouped by destination: each mailbox then receives exactly its
//! subsequence of the global key order (DESIGN.md §7, §10).

use super::*;
use crate::faults::splitmix64;
use crate::msg::ContextId;

/// A seeded random epoch: the tasks of one round in a seeded order,
/// each with its staged `(dest, message)` sends in program order.
/// Arrival times are drawn from a narrow range so the running-max
/// `matchable` times collide across senders and the `(src, seq)`
/// tie-breaks matter; some tasks stage nothing.
fn random_epoch(seed: u64) -> Vec<(usize, Vec<(usize, Message)>)> {
    let mut state = seed;
    let mut draw = move |m: u64| {
        state = splitmix64(state);
        state % m
    };
    let tasks = 1 + draw(48) as usize;
    let dests = 1 + draw(24) as usize;
    let mut order: Vec<usize> = (0..tasks).collect();
    for i in (1..tasks).rev() {
        order.swap(i, draw(i as u64 + 1) as usize);
    }
    order
        .into_iter()
        .map(|src| {
            let sends = (0..draw(12))
                .map(|_| {
                    let dest = draw(dests as u64) as usize;
                    let arrival = Time::from_nanos(draw(40));
                    let msg =
                        Message::new(src, 0, ContextId::WORLD, vec![0u64], Time::ZERO, arrival);
                    (dest, msg)
                })
                .collect();
            (src, sends)
        })
        .collect()
}

/// Gather an epoch into one flat buffer with per-task run bounds,
/// exactly as `Scheduler::finish_round` does.
fn gather(seed: u64) -> (Vec<CommitEntry>, Vec<(usize, usize)>) {
    let mut flat = Vec::new();
    let mut bounds = Vec::new();
    for (src, mut out) in random_epoch(seed) {
        bounds.extend(gather_run(&mut flat, src, &mut out));
        assert!(out.is_empty(), "gathering drains the staging buffer");
    }
    (flat, bounds)
}

fn keys(entries: &[CommitEntry]) -> Vec<(usize, Time, usize, u32)> {
    entries.iter().map(merge_key).collect()
}

/// The retired global-sort commit: sort the whole epoch by the global
/// key, then group it by destination with a stable sort.
fn oracle(seed: u64) -> Vec<(usize, Time, usize, u32)> {
    let (mut flat, _) = gather(seed);
    flat.sort_by_key(CommitEntry::key);
    flat.sort_by_key(|e| e.dest);
    keys(&flat)
}

/// The published merge round on `workers` workers, run sequentially:
/// every claim unit presorts its runs and merges them with
/// `merge_k_flat` (as `Scheduler::merge_unit`), then the finisher
/// merges the partial outputs with `merge_k` (as
/// `Scheduler::finish_merge`).
fn published_merge(seed: u64, workers: usize) -> Vec<(usize, Time, usize, u32)> {
    let (mut flat, bounds) = gather(seed);
    let ranges = merge_ranges(bounds.len(), workers);
    let mut covered = 0;
    for &(lo, hi) in &ranges {
        assert_eq!(lo, covered, "merge units tile the runs in order");
        assert!(lo < hi, "every merge unit is non-empty");
        covered = hi;
    }
    assert_eq!(covered, bounds.len(), "merge units cover every run");
    let (mut pos, mut heap) = (Vec::new(), Vec::new());
    let mut outputs: Vec<Vec<CommitEntry>> = Vec::new();
    for &(lo, hi) in &ranges {
        let chunk = &bounds[lo..hi];
        for &(s, e) in chunk {
            presort_run(&mut flat[s..e]);
        }
        let mut out = Vec::with_capacity(chunk.iter().map(|&(s, e)| e - s).sum());
        // Safety: the chunks are disjoint, so every entry is moved out
        // exactly once; `flat`'s length is reset below before the
        // moved-from entries could drop.
        unsafe { merge_k_flat(flat.as_mut_ptr(), chunk, &mut out, &mut pos, &mut heap) };
        outputs.push(out);
    }
    unsafe { flat.set_len(0) };
    let mut merged = Vec::with_capacity(outputs.iter().map(Vec::len).sum());
    merge_k(&mut outputs, &mut merged, &mut pos, &mut heap);
    keys(&merged)
}

#[test]
fn every_commit_ordering_equals_the_global_sort_oracle() {
    for seed in 0..300u64 {
        let want = oracle(seed);
        let (mut flat, _) = gather(seed);
        flat.sort_unstable_by_key(merge_key);
        assert_eq!(keys(&flat), want, "inline sort diverged (seed {seed})");
        for workers in [1usize, 2, 3, 4, 8] {
            assert_eq!(
                published_merge(seed, workers),
                want,
                "published merge diverged (seed {seed}, {workers} workers)"
            );
        }
    }
}
