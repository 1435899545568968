//! Fleet-mode throughput (`fleet`): universes per second over one pool.
//!
//! Drives a fixed scenario mix — small JQuick sorts, wildcard-recv
//! collective storms, and a crash-faulted storm whose survivors report
//! `RoundBlame` — through a [`Fleet`] at admission windows of 1, 4 and
//! 16, and reports **universes per second** (wall clock: this measures
//! the host multiplexing, not the model). The table is written in unit
//! `per_s`, which the bench gate treats as higher-is-better: a
//! throughput *drop* beyond the tolerance fails CI.
//!
//! The figure also emits the fleet-vs-solo oracle artefacts CI
//! byte-diffs: `results/fleet_oracle_solo.txt` (a traced storm run solo
//! through [`Universe::run_poll`] at 1 worker) and
//! `results/fleet_oracle_fleet.txt` (the *same* universe co-scheduled in
//! an 8-worker fleet among different-seed decoys). Per DESIGN.md §11 the
//! two must be byte-identical — the run panics if they are not, and CI
//! `cmp`s the files as a second witness.
//!
//! Every universe's program returns a deterministic `u64` fingerprint
//! of what it observed (received payloads and sources, sorted output
//! bits, error text). The run asserts the fingerprint multiset is
//! identical at every admission window before reporting any throughput:
//! a fast-but-wrong fleet must never produce a table.

use std::future::Future;
use std::pin::Pin;
use std::time::Instant;

use jquick::{jquick_sort_async, workloads, JQuickConfig, Layout, RbcBackend};
use mpisim::{
    nbcoll, ops, recv_async, FaultPlan, Fleet, ProcEnv, SimConfig, Src, Time, Transport, Universe,
};

use crate::{quick_mode, write_bench_json, Table};

/// A boxed async rank program returning the rank's fingerprint.
type Program = Box<dyn Fn(ProcEnv) -> Pin<Box<dyn Future<Output = u64> + Send>> + Send + Sync>;

/// One admitted universe: its rank count, config, and program.
type Scenario = (usize, SimConfig, Program);

const SORT_P: usize = 12;
const SORT_NPER: u64 = 64;
const STORM_P: usize = 24;
const STORM_PER: usize = 2;
const FANOUT_OFFSETS: [usize; 4] = [1, 4, 9, 16];

/// FNV-1a — a stable fingerprint accumulator.
fn fnv(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100_0000_01b3)
}

/// A small perfectly-balanced quicksort over skewed input; fingerprints
/// the locally held slice of the sorted output.
fn sort_prog(seed: u64) -> Program {
    Box::new(move |env| {
        Box::pin(async move {
            let w = &env.world;
            let p = w.size() as u64;
            let n = SORT_NPER * p;
            let layout = Layout::new(n, p);
            let data = workloads::generate(&layout, w.rank() as u64, seed, workloads::Dist::Skewed);
            let (out, _) = jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
                .await
                .unwrap();
            out.iter()
                .fold(0xcbf2_9ce4_8422_2325, |a, x| fnv(a, x.to_bits()))
        })
    })
}

/// The wildcard-recv collective storm (same shape as the fault-scenario
/// tests); fingerprints every matched `(source, value)` pair plus the
/// nonblocking all-reduce result — or the full error display on faulted
/// runs, so `RoundBlame` text lands in the fingerprint too.
fn storm_prog(p: usize, per: usize) -> Program {
    Box::new(move |env| Box::pin(storm_rank(env, p, per)))
}

/// One rank of [`storm_prog`].
async fn storm_rank(env: ProcEnv, p: usize, per: usize) -> u64 {
    let w = &env.world;
    let r = w.rank();
    let body = async {
        for i in 0..per {
            for (k, off) in FANOUT_OFFSETS.iter().enumerate() {
                let tag = (k % 3) as u64;
                w.send(&[(r * 1000 + i * 10 + k) as u64], (r + off) % p, tag)?;
            }
        }
        let coll = nbcoll::iallreduce(w, &[r as u64 + 1], 300, ops::sum::<u64>())?;
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for t in 0..3u64 {
            let n = per
                * (0..FANOUT_OFFSETS.len())
                    .filter(|&k| (k % 3) as u64 == t)
                    .count();
            for _ in 0..n {
                let (v, st) = recv_async::<u64, _>(w, Src::Any, t).await?;
                acc = fnv(fnv(acc, st.source as u64), v[0]);
            }
        }
        mpisim::Result::Ok(fnv(acc, coll.wait_result_async().await?[0]))
    };
    match body.await {
        Ok(x) => x,
        Err(e) => format!("{e}").bytes().fold(0, |a, b| fnv(a, b as u64)),
    }
}

/// The fixed mix, `batches` times over: four sorts, two clean storms, a
/// jittered storm, and a crash-faulted storm per batch.
fn mix(batches: usize) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();
    for b in 0..batches as u64 {
        for s in 0..4 {
            out.push((
                SORT_P,
                SimConfig::cooperative().with_seed(b * 100 + s),
                sort_prog(b * 7 + s),
            ));
        }
        for s in 0..2 {
            out.push((
                STORM_P,
                SimConfig::cooperative().with_seed(b * 100 + 50 + s),
                storm_prog(STORM_P, STORM_PER),
            ));
        }
        out.push((
            STORM_P,
            SimConfig::cooperative()
                .with_seed(b * 100 + 60)
                .with_faults(
                    FaultPlan::default()
                        .with_perturb_seed(b + 1)
                        .with_slowdown(0.25, 4.0)
                        .with_jitter(Time::from_micros(5)),
                ),
            storm_prog(STORM_P, STORM_PER),
        ));
        out.push((
            STORM_P,
            SimConfig::cooperative()
                .with_seed(b * 100 + 70)
                .with_faults(
                    FaultPlan::default()
                        .with_perturb_seed(b + 1)
                        .with_crash((3 + 5 * b as usize) % STORM_P, Time::ZERO),
                ),
            storm_prog(STORM_P, STORM_PER),
        ));
    }
    out
}

/// Run the whole mix through one fleet; returns the per-universe
/// fingerprints (in submission order) and the wall-clock seconds.
fn run_mix(workers: usize, inflight: usize, batches: usize) -> (Vec<u64>, f64) {
    let fleet = Fleet::new(workers, inflight);
    let t0 = Instant::now();
    let handles: Vec<_> = mix(batches)
        .into_iter()
        .map(|(p, cfg, prog)| fleet.submit(p, cfg, prog))
        .collect();
    let prints: Vec<u64> = handles
        .into_iter()
        .map(|h| h.join().per_rank.into_iter().fold(0, fnv))
        .collect();
    drop(fleet);
    (prints, t0.elapsed().as_secs_f64())
}

/// Render a traced storm run as the oracle text artefact: per-rank
/// outcome and final virtual clock, then the full event trace.
fn oracle_text(res: &mpisim::SimResult<u64>) -> String {
    let mut out = String::new();
    for (r, (fp, clock)) in res.per_rank.iter().zip(&res.clocks).enumerate() {
        out.push_str(&format!(
            "rank {r}: fp={fp:016x} clock={}ns\n",
            clock.as_nanos()
        ));
    }
    out.push_str(&res.trace.as_ref().expect("probe runs traced").to_text());
    out
}

/// The probe universe CI byte-diffs: a traced clean storm.
fn probe_cfg() -> SimConfig {
    SimConfig::cooperative()
        .with_seed(0x0F1EE7)
        .with_workers(1)
        .with_trace(true)
}

/// Write both oracle artefacts and assert they are identical.
fn oracle_probe() {
    let solo = Universe::run_poll(STORM_P, probe_cfg(), storm_prog(STORM_P, STORM_PER));
    let solo_text = oracle_text(&solo);

    // The same universe inside a busy 8-worker fleet: decoys ahead of
    // and behind the probe, all with different seeds and fault plans.
    let fleet = Fleet::new(8, 4);
    let mut decoys = Vec::new();
    for (i, (p, cfg, prog)) in mix(1).into_iter().enumerate() {
        if i == 4 {
            decoys.push(fleet.submit(STORM_P, probe_cfg(), storm_prog(STORM_P, STORM_PER)));
        }
        decoys.push(fleet.submit(p, cfg.with_trace(false), prog));
    }
    let probe = decoys.remove(4);
    let fleet_text = oracle_text(&probe.join());
    for d in decoys {
        d.join();
    }
    drop(fleet);

    crate::write_artifact("results/fleet_oracle_solo.txt", &solo_text);
    crate::write_artifact("results/fleet_oracle_fleet.txt", &fleet_text);
    eprintln!("fleet: wrote results/fleet_oracle_{{solo,fleet}}.txt");
    assert_eq!(
        solo_text, fleet_text,
        "fleet-co-scheduled universe diverged from its solo run (DESIGN.md §11)"
    );
}

/// Regenerate the fleet throughput table, the oracle artefacts, and
/// `results/BENCH_fleet.json`.
pub fn run() -> Vec<Table> {
    let workers = SimConfig::cooperative().coop_workers;
    // Enough universes that each timed run is well past scheduler and
    // allocator warm-up: the gate diffs these wall-clock rates at ±30 %.
    let batches = if quick_mode() { 8 } else { 32 };
    let t_start = Instant::now();

    oracle_probe();

    let mut tbl = Table::with_unit(
        "Fleet throughput — mixed load (4 sorts + 4 storms per batch) over one worker pool",
        "inflight",
        &["universes_per_s"],
        "per_s",
    );
    let mut reference: Option<Vec<u64>> = None;
    for inflight in [1usize, 4, 16] {
        // Best-of-3: throughput is gated at ±30 %, and the *max* over
        // repetitions is far less noisy than any single wall-clock run.
        let mut best = 0.0f64;
        for _ in 0..3 {
            let (prints, secs) = run_mix(workers, inflight, batches);
            match &reference {
                None => reference = Some(prints),
                Some(r) => assert_eq!(
                    r, &prints,
                    "universe fingerprints changed with the admission window"
                ),
            }
            best = best.max((batches * 8) as f64 / secs);
        }
        eprintln!("fleet: inflight={inflight}: {best:.2} universes/s (best of 3)");
        tbl.push(inflight as u64, vec![best]);
    }
    tbl.print();
    tbl.write_csv("fleet_throughput");
    let tables = vec![tbl];
    write_bench_json("fleet", &tables, t_start.elapsed().as_secs_f64(), workers);
    tables
}
