//! `comm_create`: the paper's two communicator-creation claims side by
//! side. Each round splits the world into halves three ways, each
//! followed by an all-reduce over the new communicator, with barriers
//! between the phases:
//!
//! 1. RBC `split` (local, O(1)) and an RBC `iallreduce`, polled with
//!    `yield_now_async`;
//! 2. native `split_async` with seeded keys, then `allreduce_async`;
//! 3. native `create_group_async`, then `allreduce_async`.
//!
//! Every rank checks its new communicator's size and rank, and each
//! all-reduce sum against its closed form.

use mpisim::{yield_now_async, Comm, Group, ProcEnv, Result, Tag, Transport};
use rbc::RbcComm;

use super::rbc_split;
use crate::timing::{host_s, mean_virt_us, timed, Clock, Samples, Span};
use crate::{hash, launch, Launch, Probes, RankOut, Spec};

/// Rounds per universe.
pub(crate) const ROUNDS: usize = 4;
/// Tag of the RBC iallreduce (its broadcast phase uses the next tag).
const TAG_RBC_ALLREDUCE: Tag = 910;
/// Tag of round `i`'s `create_group` is this plus `i`.
const TAG_CREATE: Tag = 920;

/// Timers shared by all ranks, one span per round and call.
struct Ctx<'a> {
    spec: &'a Spec,
    clock: &'a Clock,
    rbc_allreduce: [Span; ROUNDS],
    split: [Span; ROUNDS],
    create_group: [Span; ROUNDS],
    allreduce: [Span; 2 * ROUNDS],
    splits: Samples,
}

pub(crate) fn run(spec: &Spec, clock: &Clock) -> (Launch, Probes) {
    let cx = Ctx {
        spec,
        clock,
        rbc_allreduce: Default::default(),
        split: Default::default(),
        create_group: Default::default(),
        allreduce: Default::default(),
        splits: Samples::default(),
    };
    let launch = launch(spec, clock, |env| rank(env, &cx));
    let probes = Probes {
        comm_split_host_s: host_s(&cx.split),
        comm_create_group_host_s: host_s(&cx.create_group),
        comm_allreduce_host_s: host_s(&cx.allreduce),
        comm_split_us: mean_virt_us(&cx.split),
        comm_create_group_us: mean_virt_us(&cx.create_group),
        comm_allreduce_us: mean_virt_us(&cx.allreduce),
        rbc_split_host_ns: cx.splits.sorted(),
        rbc_allreduce_host_s: host_s(&cx.rbc_allreduce),
        rbc_split_us: cx.splits.virt_max_ns() as f64 / 1e3,
        rbc_allreduce_us: mean_virt_us(&cx.rbc_allreduce),
        ..Probes::default()
    };
    (launch, probes)
}

/// Round `round`'s all-reduce input of a rank: `[a·rank + b, rank]` with
/// seeded `a`, `b`, so the sums over any contiguous range of ranks have a
/// closed form.
fn input(seed: u64, round: usize, rank: usize) -> [u64; 2] {
    let (a, b) = coefficients(seed, round);
    [a.wrapping_mul(rank as u64).wrapping_add(b), rank as u64]
}

fn coefficients(seed: u64, round: usize) -> (u64, u64) {
    (
        hash(seed, &[round as u64, 1]),
        hash(seed, &[round as u64, 2]),
    )
}

/// The closed-form sums of [`input`] over ranks `f..f + len`.
fn expected_sums(seed: u64, round: usize, f: usize, len: usize) -> [u64; 2] {
    let (a, b) = coefficients(seed, round);
    let (f, len) = (f as u64, len as u64);
    let ranks = len
        .wrapping_mul(f)
        .wrapping_add(len * len.saturating_sub(1) / 2);
    [
        a.wrapping_mul(ranks).wrapping_add(b.wrapping_mul(len)),
        ranks,
    ]
}

/// The native split's key of the member at offset `i` of a half of
/// `len` ranks: a seeded bijection of `0..len`, so the new rank of that
/// member is exactly its key.
fn split_key(seed: u64, round: usize, i: usize, len: usize) -> usize {
    let h = hash(seed, &[round as u64, 3]);
    let mut a = (h as usize % len) | 1;
    while gcd(a, len) != 1 {
        a += 1;
    }
    (a * i + (h >> 32) as usize) % len
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One rank's check of a new communicator and its all-reduce result.
fn verdict(
    what: &str,
    size: usize,
    rank: usize,
    want: (usize, usize),
    sums: &[u64],
    want_sums: [u64; 2],
) -> Option<String> {
    if (size, rank) != want {
        Some(format!(
            "{what}: size/rank ({size}, {rank}), expected {want:?}"
        ))
    } else if sums != want_sums {
        Some(format!("{what}: sums {sums:?}, expected {want_sums:?}"))
    } else {
        None
    }
}

async fn rank(env: ProcEnv, cx: &Ctx<'_>) -> RankOut {
    let mut out = RankOut::default();
    let (w, st, clock) = (&env.world, env.state(), cx.clock);
    let (p, r, seed) = (w.size(), w.rank(), cx.spec.seed);
    let half = p / 2;
    let (f, len) = if r < half {
        (0, half)
    } else {
        (half, p - half)
    };
    let color = u64::from(r >= half);
    let world = RbcComm::create(w);
    let (mut split_host, mut split_virt) = (Vec::with_capacity(ROUNDS), 0);

    for round in 0..ROUNDS {
        let data = input(seed, round, r);
        let want_sums = expected_sums(seed, round, f, len);

        // 1. RBC split + iallreduce.
        let rbc = async {
            w.barrier_async().await?;
            let (sub, host, virt) = rbc_split(&world, f, f + len - 1);
            split_host.push(host);
            split_virt = split_virt.max(virt);
            let sub = sub?;
            let mut sums = timed(
                &cx.rbc_allreduce[round],
                clock,
                st,
                rbc_allreduce(&sub, &data),
            )
            .await?;
            if cx.spec.corrupt && r == 0 && round == 0 {
                sums[0] ^= 1;
            }
            let want = (len, r - f);
            Ok(verdict(
                "rbc",
                sub.size(),
                sub.rank(),
                want,
                &sums,
                want_sums,
            ))
        };
        record(&mut out, rbc.await);

        // 2. Native split + allreduce.
        let key = split_key(seed, round, r - f, len);
        let native = async {
            w.barrier_async().await?;
            let split = w.split_async(color, key as u64);
            let sub = timed(&cx.split[round], clock, st, split).await?;
            let sums = timed(&cx.allreduce[2 * round], clock, st, allreduce(&sub, &data)).await?;
            let want = (len, key);
            Ok(verdict(
                "split",
                sub.size(),
                sub.rank(),
                want,
                &sums,
                want_sums,
            ))
        };
        record(&mut out, native.await);

        // 3. Native create_group + allreduce.
        let group = async {
            w.barrier_async().await?;
            let members = Group::range(f, 1, len);
            let create = w.create_group_async(&members, TAG_CREATE + round as u64);
            let sub = timed(&cx.create_group[round], clock, st, create).await?;
            let reduce = allreduce(&sub, &data);
            let sums = timed(&cx.allreduce[2 * round + 1], clock, st, reduce).await?;
            let want = (len, r - f);
            Ok(verdict(
                "create_group",
                sub.size(),
                sub.rank(),
                want,
                &sums,
                want_sums,
            ))
        };
        record(&mut out, group.await);
    }
    cx.splits.extend(&split_host, split_virt);
    out
}

/// Count a step's verdict: an error or a wrong result is one failure.
fn record(out: &mut RankOut, step: Result<Option<String>>) {
    match step {
        Ok(None) => {}
        Ok(Some(why)) => out.fail(why),
        Err(e) => out.fail(e.to_string()),
    }
}

async fn rbc_allreduce(comm: &RbcComm, data: &[u64]) -> Result<Vec<u64>> {
    let add = |a: &u64, b: &u64| a.wrapping_add(*b);
    let mut req = comm.iallreduce(data, add, Some(TAG_RBC_ALLREDUCE))?;
    while !rbc::test(&mut req)? {
        yield_now_async().await;
    }
    Ok(req
        .result()
        .expect("a completed iallreduce has a result")
        .to_vec())
}

async fn allreduce(comm: &Comm, data: &[u64]) -> Result<Vec<u64>> {
    comm.allreduce_async(data, |a: &u64, b: &u64| a.wrapping_add(*b))
        .await
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_the_direct_sum() {
        for (f, len) in [(0, 1), (0, 32), (32, 32), (7, 13)] {
            let mut direct = [0u64; 2];
            for r in f..f + len {
                let v = input(11, 2, r);
                direct[0] = direct[0].wrapping_add(v[0]);
                direct[1] = direct[1].wrapping_add(v[1]);
            }
            assert_eq!(direct, expected_sums(11, 2, f, len), "f={f} len={len}");
        }
    }

    #[test]
    fn split_keys_are_a_bijection() {
        for len in [1, 2, 32, 2048, 45] {
            let mut keys: Vec<usize> = (0..len).map(|i| split_key(5, 1, i, len)).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..len).collect::<Vec<_>>(), "len={len}");
        }
    }
}
