//! Fleet-vs-solo oracle: a universe co-scheduled in a [`Fleet`] must be
//! **byte-identical** to the same `(program, config)` run solo through
//! [`Universe::run_poll`] — rank logs, outcome strings (`RoundBlame` text
//! included), virtual clocks, the exact metrics snapshot, and the event
//! trace — regardless of the fleet's worker count, its admission window,
//! the submission order, or what other universes it is co-scheduled
//! with. The storm shape is the fault-scenario harness (wildcard
//! receives, colliding tags, a concurrent nonblocking collective, an
//! optional fault plan) so the hardest-to-order paths are all exercised.

use std::sync::{Arc, Mutex};

use mpisim::{nbcoll, recv_async, FaultPlan, Fleet};
use mpisim::{ops, SimConfig, SimResult, Src, Time, Transport, Universe};
use proptest::prelude::*;

/// One rank's full observation: the `(source, tag, value)` sequence its
/// wildcard receives matched, its outcome (`ok:<sum>` or the full error
/// display, blame included), and its final virtual clock.
type RankLog = (Vec<(usize, u64, u64)>, String, Time);

/// Everything a universe's run observably produced: per-rank logs plus
/// the deterministic metrics snapshot and optional trace text.
type UniObservation = (Vec<RankLog>, String, Option<String>);

/// Same fan-out shape as the sharded-commit storms.
const FANOUT_OFFSETS: [usize; 4] = [1, 4, 9, 16];

fn tag_of(k: usize) -> u64 {
    (k % 3) as u64
}

/// One universe of the mixed fleet load.
#[derive(Clone, Debug)]
struct Scenario {
    p: usize,
    per: usize,
    seed: u64,
    plan: FaultPlan,
    trace: bool,
}

fn scenario_cfg(sc: &Scenario, workers: usize) -> SimConfig {
    SimConfig::cooperative()
        .with_seed(sc.seed)
        .with_workers(workers)
        .with_faults(sc.plan.clone())
        .with_trace(sc.trace)
}

type LogStore = Arc<Mutex<Vec<Vec<(usize, u64, u64)>>>>;

/// One rank of the storm program, owning everything it touches, so the
/// *same* body feeds both `Universe::run_poll` and `Fleet::submit`.
async fn storm_rank(env: mpisim::ProcEnv, p: usize, per: usize, logs: LogStore) -> String {
    let w = &env.world;
    let r = w.rank();
    let body = async {
        for i in 0..per {
            for (k, off) in FANOUT_OFFSETS.iter().enumerate() {
                let dst = (r + off) % p;
                w.send(&[(r * 1000 + i * 10 + k) as u64], dst, tag_of(k))?;
            }
        }
        let coll = nbcoll::iallreduce(w, &[r as u64 + 1], 300, ops::sum::<u64>())?;
        for t in 0..3u64 {
            let n = per
                * (0..FANOUT_OFFSETS.len())
                    .filter(|&k| tag_of(k) == t)
                    .count();
            for _ in 0..n {
                let (v, st) = recv_async::<u64, _>(w, Src::Any, t).await?;
                logs.lock().unwrap()[r].push((st.source, t, v[0]));
            }
        }
        mpisim::Result::Ok(coll.wait_result_async().await?[0])
    };
    match body.await {
        Ok(sum) => format!("ok:{sum}"),
        Err(e) => format!("{e}"),
    }
}

/// Fold a completed run into the comparable observation.
fn observe(res: SimResult<String>, logs: LogStore) -> UniObservation {
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    let ranklogs = logs
        .into_iter()
        .zip(res.per_rank)
        .zip(res.clocks)
        .map(|((log, outcome), clock)| (log, outcome, clock))
        .collect();
    let metrics = format!("{:?}", res.metrics);
    let trace = res.trace.map(|t| t.to_text());
    (ranklogs, metrics, trace)
}

/// The oracle: the scenario run solo at 1 worker.
fn solo_observation(sc: &Scenario) -> UniObservation {
    let logs: LogStore = Arc::new(Mutex::new(vec![Vec::new(); sc.p]));
    let (p, per, logs2) = (sc.p, sc.per, Arc::clone(&logs));
    let res = Universe::run_poll(p, scenario_cfg(sc, 1), move |env| {
        storm_rank(env, p, per, Arc::clone(&logs2))
    });
    observe(res, logs)
}

/// Run every scenario through one fleet, submitting in `order`, and
/// return the observations in *scenario* order.
fn fleet_observations(
    scenarios: &[Scenario],
    workers: usize,
    inflight: usize,
    order: &[usize],
) -> Vec<UniObservation> {
    let fleet = Fleet::new(workers, inflight);
    let mut handles: Vec<Option<_>> = (0..scenarios.len()).map(|_| None).collect();
    let mut stores: Vec<Option<LogStore>> = (0..scenarios.len()).map(|_| None).collect();
    for &i in order {
        let sc = &scenarios[i];
        let logs: LogStore = Arc::new(Mutex::new(vec![Vec::new(); sc.p]));
        let (p, per, logs2) = (sc.p, sc.per, Arc::clone(&logs));
        // `coop_workers` in the config is irrelevant here: the fleet's
        // own pool size applies (and must not matter for output).
        handles[i] = Some(fleet.submit(p, scenario_cfg(sc, 1), move |env| {
            storm_rank(env, p, per, Arc::clone(&logs2))
        }));
        stores[i] = Some(logs);
    }
    handles
        .into_iter()
        .zip(stores)
        .map(|(h, logs)| observe(h.unwrap().join(), logs.unwrap()))
        .collect()
}

/// A mixed scenario load: clean storms at varied sizes/seeds, a
/// straggler+jitter run, and a crash-stop run whose peers are poisoned
/// with `RoundBlame` diagnostics (error strings must survive the fleet
/// byte-for-byte). One clean universe records the event trace.
fn mixed_load(seed: u64, victim: usize) -> Vec<Scenario> {
    let clean = FaultPlan::default();
    let perturbed = FaultPlan::default()
        .with_perturb_seed(seed ^ 0xABCD)
        .with_slowdown(0.3, 4.0)
        .with_jitter(Time::from_micros(2));
    let crashed = FaultPlan::default()
        .with_perturb_seed(1)
        .with_crash(victim % 20, Time::ZERO);
    vec![
        Scenario {
            p: 20,
            per: 2,
            seed,
            plan: clean.clone(),
            trace: true,
        },
        Scenario {
            p: 24,
            per: 1,
            seed: seed.wrapping_add(1),
            plan: clean.clone(),
            trace: false,
        },
        Scenario {
            p: 17,
            per: 2,
            seed: seed.wrapping_add(2),
            plan: clean,
            trace: false,
        },
        Scenario {
            p: 24,
            per: 1,
            seed: seed.wrapping_add(3),
            plan: perturbed,
            trace: false,
        },
        Scenario {
            p: 20,
            per: 1,
            seed: seed.wrapping_add(4),
            plan: crashed,
            trace: false,
        },
    ]
}

/// Assert the whole (workers × inflight × submission order) matrix
/// reproduces the solo oracle for every universe of the load.
fn assert_fleet_matches_solo(scenarios: &[Scenario]) {
    let oracle: Vec<UniObservation> = scenarios.iter().map(solo_observation).collect();
    let n = scenarios.len();
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    for &(workers, inflight) in &[(1usize, 1usize), (4, 4), (8, 16)] {
        for order in [&forward, &reverse] {
            let got = fleet_observations(scenarios, workers, inflight, order);
            assert_eq!(
                oracle, got,
                "fleet run diverged from solo oracle \
                 (workers={workers}, inflight={inflight}, order={order:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    // The headline oracle: mixed loads — including faulted universes with
    // RoundBlame error text — are identical solo and co-scheduled, for
    // every worker count, admission window, and submission order.
    #[test]
    fn fleet_results_match_solo_oracle(
        seed in any::<u64>(),
        victim in 0usize..20,
    ) {
        assert_fleet_matches_solo(&mixed_load(seed, victim));
    }
}

/// Fixed-seed smoke of the same property (fast path for `cargo test`
/// without the proptest machinery dominating the runtime).
#[test]
fn fleet_matches_solo_fixed_seed() {
    assert_fleet_matches_solo(&mixed_load(0x5bc, 7));
}

/// A queue deeper than the window must drain in submission order without
/// deadlock, and duplicate submissions of one scenario must agree.
#[test]
fn window_of_one_serializes_without_divergence() {
    let sc = Scenario {
        p: 20,
        per: 1,
        seed: 99,
        plan: FaultPlan::default(),
        trace: false,
    };
    let scenarios = vec![sc.clone(), sc.clone(), sc];
    let obs = fleet_observations(&scenarios, 2, 1, &[0, 1, 2]);
    assert_eq!(obs[0], obs[1]);
    assert_eq!(obs[1], obs[2]);
}

/// A rank panic inside a fleet universe must resume at that universe's
/// `join` — and only there; co-scheduled universes are unaffected.
#[test]
fn rank_panic_resumes_at_join_only() {
    let fleet = Fleet::new(2, 2);
    let bad = fleet.submit(4, SimConfig::cooperative(), |env| async move {
        if env.rank() == 2 {
            panic!("boom in fleet");
        }
        env.rank()
    });
    let good = fleet.submit(4, SimConfig::cooperative(), |env| async move { env.rank() });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()))
        .expect_err("panic must propagate through join");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("boom in fleet"), "unexpected payload: {msg}");
    assert_eq!(good.join().per_rank, vec![0, 1, 2, 3]);
}
