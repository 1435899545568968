//! The three distributed sorts of the paper side by side (§IV, §VII):
//! Janus Quicksort (perfect balance, any p), hypercube quicksort (power of
//! two, imbalance), and single-level sample sort (one data exchange,
//! balance in expectation).
//!
//! Input is heavily skewed to expose the balance differences.
//!
//! Run with: `cargo run --release --example sorting_comparison [p] [n_per]`

use jquick::{
    hypercube, imbalance_factor, jquick_sort, multilevel, samplesort, verify_sorted, JQuickConfig,
    Layout, PivotCfg, RbcBackend, SampleSortCfg,
};
use mpisim::{Time, Transport, Universe};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rbc::RbcComm;

fn skewed(rank: u64, m: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(rank * 31 + 5);
    (0..m)
        .map(|_| {
            let x: f64 = rng.gen();
            x.powi(4) * 1e6
        })
        .collect()
}

mod common;

fn main() {
    let args = common::Args::parse("sorting_comparison [p] [n_per]", 2);
    let p: usize = args.positive(0, "p", 16);
    let n_per: usize = args.positive(1, "n_per", 2000);
    if !p.is_power_of_two() {
        args.fail(&format!(
            "p must be a power of two (hypercube quicksort), got {p}"
        ));
    }
    let n = (n_per * p) as u64;

    println!("sorting {n} skewed doubles on {p} processes\n");
    println!("algorithm   | virtual time | max/avg output size | sorted | permutation");
    println!("------------|--------------|---------------------|--------|------------");

    for algo in ["jquick", "hypercube", "samplesort", "multilevel"] {
        let res = Universe::run_default(p, move |env| {
            let w = &env.world;
            let me = w.rank() as u64;
            let layout = Layout::new(n, p as u64);
            let data = skewed(me, layout.cap(me) as usize);
            let fp = jquick::fingerprint(&data);
            w.barrier().unwrap();
            let t0 = env.now();
            let out = match algo {
                "jquick" => {
                    jquick_sort(&RbcBackend, w, data, n, &JQuickConfig::default())
                        .unwrap()
                        .0
                }
                "hypercube" => hypercube::hypercube_sort(w, data, &PivotCfg::default()).unwrap(),
                "samplesort" => {
                    samplesort::sample_sort(w, data, &SampleSortCfg { oversample: 8 }).unwrap()
                }
                _ => {
                    let world = RbcComm::create(&env.world);
                    multilevel::multilevel_sample_sort(
                        &world,
                        data,
                        &multilevel::MultiLevelCfg::default(),
                    )
                    .unwrap()
                    .0
                }
            };
            let dt = env.now() - t0;
            let rep = verify_sorted(w, &out, fp, out.len()).unwrap();
            let imb = imbalance_factor(w, out.len()).unwrap();
            (dt, imb, rep)
        });
        let max_t: Time = res.per_rank.iter().map(|(t, _, _)| *t).max().unwrap();
        let (_, imb, rep) = &res.per_rank[0];
        println!(
            "{algo:<11} | {max_t:>12} | {imb:>19.3} | {:>6} | {}",
            rep.locally_sorted && rep.globally_ordered,
            rep.permutation_preserved
        );
    }
    println!("\nJQuick's max/avg of 1.000 is the paper's 'perfectly balanced' guarantee;");
    println!("hypercube quicksort drifts far above 1 on skewed data (its motivation, §IV).");
}
