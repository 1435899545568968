//! JQuick on the poll backend, whose wait loops park until the next
//! message arrives instead of re-polling every epoch (DESIGN.md §12).
//!
//! * Byte-identity: a seeded JQuick run under `Backend::Poll` produces
//!   exactly what the fiber backend produces — outputs, per-rank virtual
//!   clocks, traffic and scheduler counters, and every rank's
//!   `SortStats` — across process counts (non-powers of two included),
//!   input distributions and worker counts.
//! * Resumption budget: a parked rank costs no scheduler resumptions, so
//!   the resumption count stays within a small multiple of the wake-ups.

use jquick::{jquick_sort_async, workloads, Dist, JQuickConfig, Layout, RbcBackend, SortStats};
use mpisim::{Backend, SimConfig, SimResult, Transport, Universe};

/// Elements per process in every case below.
const N_PER: u64 = 8;

/// One seeded JQuick sort of `p · N_PER` elements drawn from `dist`. Each
/// rank returns its output (as bit patterns, so the comparison is exact)
/// and its statistics.
fn sort_run(
    p: usize,
    dist: Dist,
    seed: u64,
    workers: usize,
    backend: Backend,
) -> SimResult<(Vec<u64>, SortStats)> {
    let n = p as u64 * N_PER;
    let cfg = SimConfig::cooperative()
        .with_backend(backend)
        .with_workers(workers)
        .with_seed(seed);
    Universe::run_poll(p, cfg, move |env| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = workloads::generate(&layout, w.rank() as u64, seed, dist);
        let (out, stats) = jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
            .await
            .unwrap();
        (out.iter().map(|x| x.to_bits()).collect(), stats)
    })
}

#[test]
fn poll_jquick_matches_fiber_exactly() {
    for (i, p) in [3usize, 8, 13, 32].into_iter().enumerate() {
        for (j, dist) in Dist::ALL.into_iter().enumerate() {
            let seed = 1000 + 10 * i as u64 + j as u64;
            for workers in [1usize, 2] {
                let fiber = sort_run(p, dist, seed, workers, Backend::Cooperative);
                let poll = sort_run(p, dist, seed, workers, Backend::Poll);
                let case = format!("p = {p}, {dist:?}, seed {seed}, {workers} worker(s)");
                assert_eq!(fiber.per_rank, poll.per_rank, "outputs/stats: {case}");
                assert_eq!(fiber.clocks, poll.clocks, "clocks: {case}");
                assert_eq!(fiber.traffic, poll.traffic, "traffic: {case}");
                assert_eq!(fiber.metrics, poll.metrics, "model counters: {case}");
            }
        }
    }
}

/// Parking keeps scheduler resumptions proportional to the wake-ups: a
/// woken rank runs the passes that consume its messages plus one that
/// finds nothing new, and parks again (16,743 resumptions
/// for 7,281 wake-ups here). Re-polling every rank every epoch instead
/// costs 31,935 resumptions with no wake-ups at all, against a budget of
/// 768 — checked by making the wait loops yield instead of park.
#[test]
fn poll_jquick_resumptions_stay_within_budget() {
    let p = 256;
    let res = sort_run(p, Dist::Uniform, 7, 1, Backend::Poll);
    let m = res.metrics;
    assert!(
        m.switches <= 3 * (m.wakeups + p as u64),
        "{} resumptions for {} wake-ups at p = {p}: wait loops are re-polling \
         instead of parking",
        m.switches,
        m.wakeups
    );
}
