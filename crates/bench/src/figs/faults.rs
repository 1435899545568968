//! Fault-injection sweep: straggler degradation of the §IV sorters.
//!
//! The paper's evaluation assumes a quiet machine; this extension asks
//! what happens when it isn't. A seeded straggler distribution (25 % of
//! ranks slowed by a factor drawn from [1, F]) is injected through
//! `mpisim::faults`, and JQuick, multi-level sample sort, and single-level
//! sample sort are measured at F ∈ {1, 2, 4, 8} on skewed input. Two
//! observables per point: virtual makespan (stragglers gate the critical
//! path differently depending on how many rounds each algorithm runs) and
//! max/avg output imbalance (which must stay at 1.0 for JQuick — perfect
//! balance is by construction, not by luck, so faults cannot break it).
//! Everything is deterministic in the perturbation seed, so these numbers
//! are exactly reproducible and CI-gateable.

use jquick::{
    imbalance_factor_async, jquick_sort_async, multilevel, samplesort, workloads, JQuickConfig,
    Layout, RbcBackend, SampleSortCfg,
};
use mpisim::{FaultPlan, SimConfig, Time, Transport};
use rbc::RbcComm;

use crate::figs::scale;
use crate::{measure_async, ms, reps, write_bench_json, Table};

/// Fraction of ranks slowed in every faulted configuration.
const STRAGGLER_FRAC: f64 = 0.25;

/// One data point: virtual makespan and max/avg output imbalance of
/// `algo` under a straggler plan capped at `max_factor`.
fn faulted_sort_time(algo: &'static str, p: usize, n_per: u64, max_factor: f64) -> (Time, f64) {
    let n = n_per * p as u64;
    let plan = if max_factor > 1.0 {
        FaultPlan::default()
            .with_perturb_seed(1)
            .with_slowdown(STRAGGLER_FRAC, max_factor)
    } else {
        FaultPlan::default()
    };
    let cfg = SimConfig::cooperative().with_faults(plan);
    let imb = std::sync::Mutex::new(1.0f64);
    let t = {
        let imb = &imb;
        measure_async(p, cfg, reps(3), move |env, rep| async move {
            let w = &env.world;
            let layout = Layout::new(n, p as u64);
            let data = workloads::generate(
                &layout,
                w.rank() as u64,
                rep as u64 * 13 + 1,
                workloads::Dist::Skewed,
            );
            w.barrier_async().await.unwrap();
            let t0 = env.now();
            let out = match algo {
                "jquick" => {
                    jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
                        .await
                        .unwrap()
                        .0
                }
                "samplesort" => samplesort::sample_sort_async(w, data, &SampleSortCfg::default())
                    .await
                    .unwrap(),
                _ => {
                    let world = RbcComm::create(w);
                    multilevel::multilevel_sample_sort_async(
                        &world,
                        data,
                        &multilevel::MultiLevelCfg::default(),
                    )
                    .await
                    .unwrap()
                    .0
                }
            };
            let dt = env.now() - t0;
            let f = imbalance_factor_async(w, out.len()).await.unwrap();
            if w.rank() == 0 {
                let mut g = imb.lock().unwrap();
                *g = g.max(f);
            }
            dt
        })
    };
    (t, imb.into_inner().unwrap())
}

/// Regenerate the straggler-degradation tables, write their CSVs and
/// `results/BENCH_faults.json`.
pub fn run() -> Vec<Table> {
    let workers = SimConfig::cooperative().coop_workers;
    let t_start = std::time::Instant::now();
    let p = scale::p_elems();
    let n_per = 64u64;
    let algos = [
        ("jquick", "JQuick (RBC)"),
        ("multilevel", "Multi-level (k=4)"),
        ("samplesort", "Sample sort"),
    ];
    let names: Vec<&str> = algos.iter().map(|&(_, n)| n).collect();
    let mut t = Table::new(
        &format!(
            "Faults — makespan under {:.0}% stragglers on {p} cores (n/p = {n_per}, skewed)",
            STRAGGLER_FRAC * 100.0
        ),
        "max_slowdown",
        &names,
    );
    let mut imb = Table::with_unit(
        &format!(
            "Faults — max/avg output size under {:.0}% stragglers on {p} cores (n/p = {n_per})",
            STRAGGLER_FRAC * 100.0
        ),
        "max_slowdown",
        &names,
        "ratio",
    );
    let mut degr = Table::with_unit(
        &format!("Faults — makespan degradation vs fault-free on {p} cores (n/p = {n_per})"),
        "max_slowdown",
        &names,
        "ratio",
    );
    let mut clean: Vec<f64> = Vec::new();
    for max_factor in [1u64, 2, 4, 8] {
        let mut times = Vec::new();
        let mut imbs = Vec::new();
        for &(algo, _) in &algos {
            let (dt, f) = faulted_sort_time(algo, p, n_per, max_factor as f64);
            times.push(ms(dt));
            imbs.push(f);
        }
        if max_factor == 1 {
            clean = times.clone();
        }
        degr.push(
            max_factor,
            times.iter().zip(&clean).map(|(t, c)| t / c).collect(),
        );
        t.push(max_factor, times);
        imb.push(max_factor, imbs);
        eprintln!("faults: finished max_slowdown = {max_factor}");
    }
    t.print();
    t.write_csv("faults_time");
    imb.print();
    imb.write_csv("faults_imbalance");
    degr.print();
    degr.write_csv("faults_degradation");
    let tables = vec![t, imb, degr];
    write_bench_json("faults", &tables, t_start.elapsed().as_secs_f64(), workers);
    tables
}
