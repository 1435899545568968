//! Small-p smoke runs of every workload: clean runs pass every check, a
//! deliberately corrupted output is counted as a failed operation, and the
//! deterministic digest repeats across runs and under tracing.

use hostbench::report::{end_to_end, per_layer, Reference};
use hostbench::{run, Spec, Workload};

fn small(workload: Workload, seed: u64) -> Spec {
    Spec {
        p: 64,
        ..Spec::new(workload, seed)
    }
}

#[test]
fn clean_runs_attempt_every_step_and_fail_none() {
    for w in Workload::ALL {
        let o = run(&small(w, 7));
        assert_eq!(o.attempted, 64 * w.steps_per_rank(), "{w:?}");
        assert_eq!(o.failed, 0, "{w:?}: {:?}", o.errors);
        assert!(o.errors.is_empty(), "{w:?}: {:?}", o.errors);
        assert!(
            o.wall_s > 0.0 && o.setup_s > 0.0 && o.makespan_us > 0.0,
            "{w:?}"
        );
        assert!(o.setup_s < o.wall_s, "{w:?}");
    }
}

#[test]
fn a_corrupted_output_is_counted_as_a_failed_operation() {
    for w in Workload::ALL {
        let spec = Spec {
            corrupt: true,
            ..small(w, 7)
        };
        let o = run(&spec);
        assert_eq!(o.failed, 1, "{w:?}: exactly rank 0's corrupted step fails");
        assert!(o.errors[0].starts_with("rank 0: "), "{w:?}: {:?}", o.errors);
    }
}

#[test]
fn digests_repeat_per_seed_and_survive_tracing() {
    for w in Workload::ALL {
        let plain = run(&small(w, 3));
        let again = run(&small(w, 3));
        let traced = run(&Spec {
            traced: true,
            workers: 2,
            ..small(w, 3)
        });
        let other = run(&small(w, 4));
        assert_eq!(plain.digest, again.digest, "{w:?}");
        assert_eq!(
            plain.digest, traced.digest,
            "{w:?}: tracing must not change results"
        );
        assert_eq!(plain.metrics, traced.metrics, "{w:?}");
        assert_ne!(
            plain.digest, other.digest,
            "{w:?}: the seed must change the inputs"
        );
        assert!(plain.profile.is_none() && traced.profile.is_some(), "{w:?}");
    }
}

#[test]
fn every_metric_is_named_once_with_a_unit() {
    let o = run(&Spec {
        traced: true,
        ..small(Workload::CommCreate, 1)
    });
    let reference = Reference {
        wall_s: o.wall_s,
        peak_rss_kb_per_rank: 1.0,
    };
    let mut names: Vec<String> = end_to_end(&o, 64)
        .into_iter()
        .chain(per_layer(&o, 64, &reference))
        .map(|m| {
            assert!(!m.unit.is_empty() && m.value.is_finite(), "{m:?}");
            m.name
        })
        .collect();
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n, "duplicate metric names");
}

#[test]
fn traced_profile_closes_against_workers_times_wall() {
    let o = run(&Spec {
        traced: true,
        workers: 2,
        ..small(Workload::WildcardStorm, 5)
    });
    assert_eq!(o.failed, 0, "{:?}", o.errors);
    let layers = per_layer(&o, 1, &Reference::default());
    let get = |name: &str| layers.iter().find(|m| m.name == name).unwrap().value;
    // The timed worker time cannot exceed workers × wall.
    assert!(get("sched.unattributed_ns") >= 0.0);
    let total = get("sched.run_ns")
        + get("sched.commit_ns")
        + get("sched.merge_ns")
        + get("sched.idle_ns")
        + get("sched.unattributed_ns");
    let expected = 2.0 * o.wall_s * 1e9;
    assert!(
        (total - expected).abs() <= 1e-6 * expected,
        "{total} vs {expected}"
    );
    assert_eq!(get("sched.workers"), 2.0);
}
