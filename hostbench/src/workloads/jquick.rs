//! `jquick`: one Janus Quicksort over RBC communicators — the paper's
//! headline algorithm on its input (uniform doubles), p = 4096, n/p = 8.
//!
//! Every rank generates its input, sorts, and checks the output: locally
//! sorted, ordered against its predecessor, a permutation of the input
//! (global fingerprint), and perfectly balanced (max/avg = 1.0 exactly).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use jquick::{
    fingerprint, generate_workload, jquick_sort_async, Backend, Dist, JQuickConfig, Layout,
    RbcBackend,
};
use mpisim::model::CollScales;
use mpisim::{recv_async, Comm, ProcEnv, Result, Src, Tag, Transport};
use rbc::RbcComm;

use super::rbc_split;
use crate::timing::{timed, Clock, Samples, Span};
use crate::{launch, Launch, Probes, RankOut, Spec};

/// Elements per rank.
const N_PER: u64 = 8;
/// Tag of the output check's boundary exchange.
const TAG_BOUNDARY: Tag = 900;

/// RBC, JQuick's communicator backend, with a host timer around every
/// split the sort makes.
#[derive(Default)]
struct TimedRbc {
    host_ns: Mutex<Vec<u64>>,
    virt_max: AtomicU64,
}

impl Backend for TimedRbc {
    type C = RbcComm;

    fn world(&self, world: &Comm) -> Result<RbcComm> {
        RbcBackend.world(world)
    }

    fn split_range(&self, parent: &RbcComm, f: usize, l: usize, _tag: Tag) -> Result<RbcComm> {
        let (comm, host, virt) = rbc_split(parent, f, l);
        self.host_ns.lock().unwrap().push(host);
        self.virt_max.fetch_max(virt, Relaxed);
        comm
    }

    async fn split_range_async(
        &self,
        parent: &RbcComm,
        f: usize,
        l: usize,
        tag: Tag,
    ) -> Result<RbcComm> {
        self.split_range(parent, f, l, tag)
    }

    fn coll_scales(&self, c: &RbcComm) -> CollScales {
        RbcBackend.coll_scales(c)
    }

    fn name(&self) -> &'static str {
        RbcBackend.name()
    }
}

/// Timers shared by all ranks.
struct Ctx<'a> {
    spec: &'a Spec,
    clock: &'a Clock,
    n: u64,
    generate_ns: AtomicU64,
    sort: Span,
    verify: Span,
    distributed_ns: AtomicU64,
    max_level: AtomicU64,
    comm_creations: AtomicU64,
    stuck_retries: AtomicU64,
    splits: Samples,
}

pub(crate) fn run(spec: &Spec, clock: &Clock) -> (Launch, Probes) {
    let cx = Ctx {
        spec,
        clock,
        n: N_PER * spec.p as u64,
        generate_ns: AtomicU64::new(0),
        sort: Span::default(),
        verify: Span::default(),
        distributed_ns: AtomicU64::new(0),
        max_level: AtomicU64::new(0),
        comm_creations: AtomicU64::new(0),
        stuck_retries: AtomicU64::new(0),
        splits: Samples::default(),
    };
    let launch = launch(spec, clock, |env| rank(env, &cx));
    let probes = Probes {
        rbc_split_host_ns: cx.splits.sorted(),
        rbc_split_us: cx.splits.virt_max_ns() as f64 / 1e3,
        jquick_generate_host_s: cx.generate_ns.into_inner() as f64 / 1e9,
        jquick_sort_host_s: cx.sort.host_ns() as f64 / 1e9,
        jquick_verify_host_s: cx.verify.host_ns() as f64 / 1e9,
        jquick_sort_us: cx.sort.virt_ns() as f64 / 1e3,
        jquick_distributed_us: cx.distributed_ns.into_inner() as f64 / 1e3,
        jquick_max_level: cx.max_level.into_inner(),
        jquick_comm_creations: cx.comm_creations.into_inner(),
        jquick_stuck_retries: cx.stuck_retries.into_inner(),
        ..Probes::default()
    };
    (launch, probes)
}

async fn rank(env: ProcEnv, cx: &Ctx<'_>) -> RankOut {
    let mut out = RankOut::default();
    let w = &env.world;
    let layout = Layout::new(cx.n, w.size() as u64);
    let h0 = cx.clock.ns();
    let data = generate_workload(&layout, w.rank() as u64, cx.spec.seed, Dist::Uniform);
    cx.generate_ns.fetch_add(cx.clock.ns() - h0, Relaxed);
    let expected_len = data.len();
    let fp_in = fingerprint(&data);

    let backend = TimedRbc::default();
    let v0 = env.now();
    let config = JQuickConfig::default();
    let sort = jquick_sort_async(&backend, w, data, cx.n, &config);
    let sorted = timed(&cx.sort, cx.clock, env.state(), sort).await;
    cx.splits.extend(
        &backend.host_ns.lock().unwrap(),
        backend.virt_max.load(Relaxed),
    );
    let (mut output, stats) = match sorted {
        Ok(v) => v,
        Err(e) => {
            out.fail(format!("sort: {e}"));
            return out;
        }
    };
    cx.distributed_ns
        .fetch_max((stats.distributed_end - v0).as_nanos(), Relaxed);
    cx.max_level.fetch_max(u64::from(stats.max_level), Relaxed);
    cx.comm_creations
        .fetch_max(stats.comm_creations as u64, Relaxed);
    cx.stuck_retries
        .fetch_max(u64::from(stats.stuck_retries), Relaxed);

    if cx.spec.corrupt && w.rank() == 0 && output.len() >= 2 {
        let last = output.len() - 1;
        output.swap(0, last);
    }
    let verify = check(w, &output, fp_in, expected_len);
    match timed(&cx.verify, cx.clock, env.state(), verify).await {
        Ok(None) => {}
        Ok(Some(why)) => out.fail(why),
        Err(e) => out.fail(format!("check: {e}")),
    }
    out
}

/// Check one rank's sorted output; `Some(reason)` if it is wrong.
async fn check(w: &Comm, out: &[f64], fp_in: u64, expected_len: usize) -> Result<Option<String>> {
    let (p, r) = (w.size(), w.rank());
    if r + 1 < p {
        let last: Vec<f64> = out.last().copied().into_iter().collect();
        w.send_vec(last, r + 1, TAG_BOUNDARY)?;
    }
    let mut ordered = true;
    if r > 0 {
        let (prev, _) = recv_async::<f64, _>(w, Src::Rank(r - 1), TAG_BOUNDARY).await?;
        if let (Some(a), Some(b)) = (prev.first(), out.first()) {
            ordered = a <= b;
        }
    }
    let len = out.len() as u64;
    let sums = w
        .allreduce_async(&[fp_in, fingerprint(out), len], |a: &u64, b: &u64| {
            a.wrapping_add(*b)
        })
        .await?;
    let max = w
        .allreduce_async(&[len], |a: &u64, b: &u64| *a.max(b))
        .await?[0];
    Ok(if !out.windows(2).all(|x| x[0] <= x[1]) {
        Some("output is not locally sorted".into())
    } else if !ordered {
        Some("output is not ordered after the predecessor's".into())
    } else if sums[0] != sums[1] {
        Some("output is not a permutation of the input".into())
    } else if max * p as u64 != sums[2] {
        Some(format!("imbalance: max {max}, total {}", sums[2]))
    } else if out.len() != expected_len {
        Some(format!(
            "holds {} elements, expected {expected_len}",
            out.len()
        ))
    } else {
        None
    })
}
