//! The metrics of one run, by name and unit, and their JSON line.
//!
//! End-to-end metrics come from every run. Per-layer metrics come from a
//! traced run: the scheduler profile exists only there. A few per-layer
//! metrics compare against the untraced runs of the same seed, which the
//! caller passes in as a [`Reference`].

use mpisim::{OpClass, SchedProfile};

use crate::timing::{percentile, ratio};
use crate::Outcome;

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Medians of the untraced runs of the same seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reference {
    /// Median `wall_s`; 0 if unknown.
    pub wall_s: f64,
    /// Median `peak_rss_kb_per_rank`; 0 if unknown.
    pub peak_rss_kb_per_rank: f64,
}

/// The scheduler profile summed over workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Workers in the profile.
    pub workers: u64,
    /// Nanoseconds resuming rank bodies.
    pub run_ns: u64,
    /// Nanoseconds in published commit shards.
    pub commit_ns: u64,
    /// Nanoseconds in published merge rounds.
    pub merge_ns: u64,
    /// Nanoseconds parked on the epoch gate.
    pub idle_ns: u64,
    /// Commit shards claimed.
    pub shards: u64,
    /// Pre-sorted runs consumed by merge rounds.
    pub merge_runs: u64,
}

impl SchedTotals {
    /// Sum a profile over its workers.
    pub fn of(profile: &SchedProfile) -> SchedTotals {
        profile
            .workers
            .iter()
            .fold(SchedTotals::default(), |t, w| SchedTotals {
                workers: t.workers + 1,
                run_ns: t.run_ns + w.run_ns,
                commit_ns: t.commit_ns + w.commit_ns,
                merge_ns: t.merge_ns + w.merge_ns,
                idle_ns: t.idle_ns + w.idle_ns,
                shards: t.shards + w.shards,
                merge_runs: t.merge_runs + w.merge_runs,
            })
    }

    /// Worker time no profile timer covers: `workers × wall` minus run,
    /// commit, merge and idle. Negative if the timers overlap.
    pub fn unattributed_ns(&self, wall_ns: f64) -> f64 {
        let timed = self.run_ns + self.commit_ns + self.merge_ns + self.idle_ns;
        self.workers as f64 * wall_ns - timed as f64
    }
}

/// Why a scheduler profile does not close against `workers × wall_ns`:
/// its timers cover more worker time than the universe had, so they
/// overlap or time the wrong span. `None` when the gap is not negative.
pub fn closure_error(profile: &SchedProfile, wall_ns: f64) -> Option<String> {
    let gap = SchedTotals::of(profile).unattributed_ns(wall_ns);
    (gap < 0.0).then(|| {
        format!(
            "scheduler profile times {:.0} ns more than workers × wall",
            -gap
        )
    })
}

/// The end-to-end metrics of a run; `peak_rss_kb` is the process's
/// `VmHWM`.
pub fn end_to_end(o: &Outcome, peak_rss_kb: u64) -> Vec<Metric> {
    vec![
        metric("wall_s", o.wall_s, "s"),
        metric("setup_s", o.setup_s, "s"),
        metric(
            "peak_rss_kb_per_rank",
            peak_rss_kb as f64 / o.spec.p as f64,
            "kB",
        ),
        metric("virtual_makespan_us", o.makespan_us, "us"),
    ]
}

/// The per-layer metrics of a (traced) run.
pub fn per_layer(o: &Outcome, peak_rss_kb: u64, reference: &Reference) -> Vec<Metric> {
    let m = &o.metrics;
    let profile = o.profile.clone().unwrap_or_default();
    let t = SchedTotals::of(&profile);
    let wall_ns = o.wall_s * 1e9;
    let unattributed = t.unattributed_ns(wall_ns);
    // The ns-per-unit headlines divide the untraced wall clock when it is
    // known, so tracing overhead does not inflate them.
    let headline_ns = if reference.wall_s > 0.0 {
        reference.wall_s * 1e9
    } else {
        wall_ns
    };
    let rss_per_rank = peak_rss_kb as f64 / o.spec.p as f64;
    let probe = &o.probes;
    let splits = &probe.rbc_split_host_ns;
    let mut v = vec![
        metric("universe.teardown_s", o.teardown_s, "s"),
        metric("sched.workers", t.workers as f64, "count"),
        metric("sched.run_ns", t.run_ns as f64, "ns"),
        metric("sched.commit_ns", t.commit_ns as f64, "ns"),
        metric("sched.merge_ns", t.merge_ns as f64, "ns"),
        metric("sched.idle_ns", t.idle_ns as f64, "ns"),
        metric("sched.unattributed_ns", unattributed, "ns"),
        metric(
            "sched.unattributed_share",
            ratio(unattributed, t.workers as f64 * wall_ns),
            "ratio",
        ),
        metric("sched.shards", t.shards as f64, "count"),
        metric("sched.merge_runs", t.merge_runs as f64, "count"),
        metric("sched.epochs", m.epochs as f64, "count"),
        metric("sched.resumptions", m.switches as f64, "count"),
        metric("sched.wakeups", m.wakeups as f64, "count"),
        metric(
            "sched.useful_resumption_ratio",
            ratio(m.wakeups as f64, m.switches as f64),
            "ratio",
        ),
        metric(
            "sched.ns_per_resumption",
            ratio(headline_ns, m.switches as f64),
            "ns",
        ),
        metric(
            "sched.ns_per_msg",
            ratio(headline_ns, m.messages as f64),
            "ns",
        ),
        metric("pool.payload_hits", profile.payload_hits as f64, "count"),
        metric(
            "pool.payload_misses",
            profile.payload_misses as f64,
            "count",
        ),
        metric(
            "pool.payload_overflow",
            profile.payload_overflow as f64,
            "count",
        ),
        metric(
            "pool.payload_hit_ratio",
            ratio(
                profile.payload_hits as f64,
                (profile.payload_hits + profile.payload_misses) as f64,
            ),
            "ratio",
        ),
        metric("pool.entry_hits", profile.pool_hits as f64, "count"),
        metric("pool.entry_misses", profile.pool_misses as f64, "count"),
        metric("mailbox.scans", m.mailbox_scans as f64, "count"),
        metric(
            "mailbox.scans_per_msg",
            ratio(m.mailbox_scans as f64, m.messages as f64),
            "ratio",
        ),
        metric("traffic.msgs", m.messages as f64, "count"),
        metric("traffic.bytes", m.bytes as f64, "B"),
    ];
    for c in OpClass::ALL {
        let i = c as usize;
        v.push(metric(
            format!("traffic.msgs.{}", c.name()),
            m.class_msgs[i] as f64,
            "count",
        ));
        v.push(metric(
            format!("traffic.max_rank_msgs.{}", c.name()),
            m.class_max_rank_msgs[i] as f64,
            "count",
        ));
    }
    v.extend([
        metric("comm.split_host_s", probe.comm_split_host_s, "s"),
        metric(
            "comm.create_group_host_s",
            probe.comm_create_group_host_s,
            "s",
        ),
        metric("comm.allreduce_host_s", probe.comm_allreduce_host_s, "s"),
        metric("comm.split_us", probe.comm_split_us, "us"),
        metric("comm.create_group_us", probe.comm_create_group_us, "us"),
        metric("comm.allreduce_us", probe.comm_allreduce_us, "us"),
        metric("rbc.split_calls", splits.len() as f64, "count"),
        metric(
            "rbc.split_host_ns_p50",
            percentile(splits, 0.50) as f64,
            "ns",
        ),
        metric(
            "rbc.split_host_ns_p99",
            percentile(splits, 0.99) as f64,
            "ns",
        ),
        metric("rbc.allreduce_host_s", probe.rbc_allreduce_host_s, "s"),
        metric("rbc.split_us", probe.rbc_split_us, "us"),
        metric("rbc.allreduce_us", probe.rbc_allreduce_us, "us"),
        metric(
            "rbc.creation_speedup",
            ratio(probe.comm_split_us, probe.rbc_split_us),
            "ratio",
        ),
        metric("jquick.generate_host_s", probe.jquick_generate_host_s, "s"),
        metric("jquick.sort_host_s", probe.jquick_sort_host_s, "s"),
        metric("jquick.verify_host_s", probe.jquick_verify_host_s, "s"),
        metric("jquick.sort_us", probe.jquick_sort_us, "us"),
        metric("jquick.distributed_us", probe.jquick_distributed_us, "us"),
        metric("jquick.max_level", probe.jquick_max_level as f64, "count"),
        metric(
            "jquick.comm_creations",
            probe.jquick_comm_creations as f64,
            "count",
        ),
        metric(
            "jquick.stuck_retries",
            probe.jquick_stuck_retries as f64,
            "count",
        ),
        metric("trace.wall_s", o.wall_s, "s"),
        metric("trace.peak_rss_kb_per_rank", rss_per_rank, "kB"),
        metric(
            "trace.wall_ratio",
            ratio(o.wall_s, reference.wall_s),
            "ratio",
        ),
        metric(
            "trace.rss_ratio",
            ratio(rss_per_rank, reference.peak_rss_kb_per_rank),
            "ratio",
        ),
    ]);
    v
}

/// The run as one JSON line: identity, operation counts, the
/// determinism digest, the end-to-end metrics, and the per-layer metrics
/// when `layers` is given.
pub fn to_json(o: &Outcome, peak_rss_kb: u64, layers: Option<&Reference>) -> String {
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"p\":{},\"workers\":{},\"traced\":{},\
         \"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\"errors\":[{}],\
         \"end_to_end\":{}",
        o.spec.workload.name(),
        o.spec.seed,
        o.spec.p,
        o.spec.workers,
        o.spec.traced,
        o.attempted,
        o.failed,
        o.digest,
        o.errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(","),
        metrics_json(&end_to_end(o, peak_rss_kb)),
    );
    if let Some(reference) = layers {
        s.push_str(",\"per_layer\":");
        s.push_str(&metrics_json(&per_layer(o, peak_rss_kb, reference)));
    }
    s.push('}');
    s
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "{}:{{\"value\":{},\"unit\":\"{}\"}}",
                json_str(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::WorkerProfile;

    fn worker(run_ns: u64, commit_ns: u64, merge_ns: u64, idle_ns: u64) -> WorkerProfile {
        WorkerProfile {
            run_ns,
            commit_ns,
            merge_ns,
            idle_ns,
            ..WorkerProfile::default()
        }
    }

    #[test]
    fn unattributed_closes_the_profile_against_workers_times_wall() {
        let profile = SchedProfile {
            workers: vec![worker(600, 50, 20, 100), worker(500, 40, 30, 300)],
            ..SchedProfile::default()
        };
        let t = SchedTotals::of(&profile);
        assert_eq!(t.workers, 2);
        let wall_ns = 1_000.0;
        let unattributed = t.unattributed_ns(wall_ns);
        assert_eq!(unattributed, 2_000.0 - 1_640.0);
        let timed = (t.run_ns + t.commit_ns + t.merge_ns + t.idle_ns) as f64;
        assert_eq!(timed + unattributed, 2.0 * wall_ns);
    }

    #[test]
    fn unattributed_of_an_empty_profile_is_zero() {
        let t = SchedTotals::of(&SchedProfile::default());
        assert_eq!(t.unattributed_ns(5_000.0), 0.0);
    }

    #[test]
    fn overlapping_timers_give_a_negative_gap() {
        let profile = SchedProfile {
            workers: vec![worker(900, 200, 0, 0)],
            ..SchedProfile::default()
        };
        assert_eq!(SchedTotals::of(&profile).unattributed_ns(1_000.0), -100.0);
        assert!(closure_error(&profile, 1_000.0).is_some());
        assert_eq!(closure_error(&profile, 1_100.0), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\u000ad\"");
    }
}
