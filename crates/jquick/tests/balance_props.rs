//! The paper's headline property on adversarial inputs: Janus Quicksort's
//! output is **perfectly** balanced — max/avg output size exactly 1.0
//! whenever p divides n — on every input distribution, including all-equal,
//! few-valued, presorted, reversed, skewed, and Zipf keys.
//!
//! The cases are a seeded proptest stream (the vendored shim's
//! deterministic `Sampler`), drawn over `Dist::ALL` × p ∈ [2, 64] ×
//! n/p ∈ [1, 64] × seed. JQuick runs as a `Backend::Poll` rank body. As
//! contrasts that prove the balance assertion can fail, single-level and
//! multi-level sample sort sort the same inputs on the same backend, and
//! at least one generated case must leave each of them imbalanced.

use jquick::{
    fingerprint, imbalance_factor_async, jquick_sort_async, multilevel_sample_sort_async,
    sample_sort_async, verify_sorted_async, workloads, Dist, JQuickConfig, Layout, MultiLevelCfg,
    RbcBackend, SampleSortCfg,
};
use mpisim::{SimConfig, Transport, Universe};
use proptest::prelude::*;
use rbc::RbcComm;

const CASES: u32 = 96;

/// JQuick on `dist` under the poll backend; every rank's (imbalance
/// factor, verification verdict).
fn jquick_case(p: usize, n: u64, dist: Dist, seed: u64) -> Vec<(f64, bool)> {
    let cfg = SimConfig::cooperative()
        .with_backend(mpisim::Backend::Poll)
        .with_seed(seed);
    let res = Universe::run_poll(p, cfg, move |env| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = workloads::generate(&layout, w.rank() as u64, seed, dist);
        let fp = fingerprint(&data);
        let expected = data.len();
        let (out, _) = jquick_sort_async(&RbcBackend, w, data, n, &JQuickConfig::default())
            .await
            .unwrap();
        let report = verify_sorted_async(w, &out, fp, expected).await.unwrap();
        let imbalance = imbalance_factor_async(w, out.len()).await.unwrap();
        (imbalance, report.all_ok())
    });
    res.per_rank
}

/// The sample sorts JQuick is contrasted with.
#[derive(Clone, Copy, Debug)]
enum Contrast {
    /// Single-level sample sort ([`sample_sort_async`]).
    SingleLevel,
    /// Multi-level sample sort over RBC ([`multilevel_sample_sort_async`]).
    MultiLevel,
}

/// A contrast sort on the same input under the poll backend: rank 0's
/// imbalance factor, after checking the output is a sorted permutation.
fn contrast_imbalance(sorter: Contrast, p: usize, n: u64, dist: Dist, seed: u64) -> f64 {
    let cfg = SimConfig::cooperative()
        .with_backend(mpisim::Backend::Poll)
        .with_seed(seed);
    let res = Universe::run_poll(p, cfg, move |env| async move {
        let w = &env.world;
        let layout = Layout::new(n, p as u64);
        let data = workloads::generate(&layout, w.rank() as u64, seed, dist);
        let fp = fingerprint(&data);
        let out = match sorter {
            Contrast::SingleLevel => sample_sort_async(w, data, &SampleSortCfg::default())
                .await
                .unwrap(),
            Contrast::MultiLevel => {
                let world = RbcComm::create(w);
                multilevel_sample_sort_async(&world, data, &MultiLevelCfg::default())
                    .await
                    .unwrap()
                    .0
            }
        };
        let report = verify_sorted_async(w, &out, fp, out.len()).await.unwrap();
        assert!(
            report.all_ok(),
            "{sorter:?} sample sort must still sort: {report:?}"
        );
        imbalance_factor_async(w, out.len()).await.unwrap()
    });
    res.per_rank[0]
}

#[test]
fn jquick_is_perfectly_balanced_where_sample_sort_is_not() {
    let sorters = [Contrast::SingleLevel, Contrast::MultiLevel];
    let mut contrast: [Option<String>; 2] = [None, None];
    for case in 0..CASES {
        let mut s = Sampler::for_case("jquick_perfect_balance", case);
        let dist = Dist::ALL[(0..Dist::ALL.len()).sample(&mut s)];
        let p = (2usize..=64).sample(&mut s);
        let n_per = (1u64..=64).sample(&mut s);
        let seed = any::<u64>().sample(&mut s);
        let n = n_per * p as u64;
        let what = format!("case {case}: {dist:?}, p = {p}, n/p = {n_per}, seed = {seed}");

        for (rank, (imbalance, ok)) in jquick_case(p, n, dist, seed).into_iter().enumerate() {
            assert!(
                ok,
                "{what}: JQuick output failed verification on rank {rank}"
            );
            assert_eq!(imbalance, 1.0, "{what}: JQuick max/avg on rank {rank}");
        }
        for (sorter, found) in sorters.iter().zip(&mut contrast) {
            let imbalance = contrast_imbalance(*sorter, p, n, dist, seed);
            if imbalance > 1.0 && found.is_none() {
                *found = Some(format!("{what}: {sorter:?} max/avg = {imbalance}"));
            }
        }
    }
    for (sorter, found) in sorters.iter().zip(contrast) {
        let found = found.unwrap_or_else(|| panic!("no generated case left {sorter:?} imbalanced"));
        eprintln!("contrast: {found}");
    }
}
