//! `wildcard_storm`: in each round every rank sends one-word messages to
//! the ranks `r + k²` (k = 1..8, modulo p) on three tags, in a seeded
//! order, receives its eight with `Src::Any`, and joins a barrier. No
//! communicator is created and nothing is sorted; the load is the
//! scheduler's commit and the wildcard mailbox.
//!
//! Every rank checks that a round delivered exactly the expected
//! multiset of (source, value) pairs.

use mpisim::{recv_async, ProcEnv, Src, Tag, Transport};

use crate::timing::Clock;
use crate::{hash, launch, Launch, Probes, RankOut, Spec};

/// Rounds per universe.
pub(crate) const ROUNDS: usize = 8;
/// Destination offsets: the squares 1..64.
const OFFSETS: [usize; 8] = [1, 4, 9, 16, 25, 36, 49, 64];
/// The three tags a round's messages are spread over.
const TAGS: [Tag; 3] = [930, 931, 932];

pub(crate) fn run(spec: &Spec, clock: &Clock) -> (Launch, Probes) {
    let launch = launch(spec, clock, |env| rank(env, spec));
    (launch, Probes::default())
}

/// The message `src` sends to `src + OFFSETS[k]` in `round`: its tag's
/// index and its one-word value.
fn message(seed: u64, round: usize, src: usize, k: usize) -> (usize, u64) {
    let v = hash(seed, &[round as u64, src as u64, k as u64]);
    ((v % 3) as usize, v)
}

async fn rank(env: ProcEnv, spec: &Spec) -> RankOut {
    let mut out = RankOut::default();
    let w = &env.world;
    let (p, r, seed) = (w.size(), w.rank(), spec.seed);
    for round in 0..ROUNDS {
        let step = async {
            let first = hash(seed, &[round as u64, r as u64, 0xd0]) as usize;
            for i in 0..OFFSETS.len() {
                let k = (first + i) % OFFSETS.len();
                let (tag, value) = message(seed, round, r, k);
                w.send_vec(vec![value], (r + OFFSETS[k]) % p, TAGS[tag])?;
            }
            let mut want = Vec::with_capacity(OFFSETS.len());
            let mut per_tag = [0usize; TAGS.len()];
            for (k, off) in OFFSETS.iter().enumerate() {
                let src = (r + p - off % p) % p;
                let (tag, value) = message(seed, round, src, k);
                per_tag[tag] += 1;
                want.push((src, value));
            }
            let mut got = Vec::with_capacity(OFFSETS.len());
            for (tag, &count) in TAGS.iter().zip(&per_tag) {
                for _ in 0..count {
                    let (data, status) = recv_async::<u64, _>(w, Src::Any, *tag).await?;
                    got.push((status.source, data.first().copied().unwrap_or(u64::MAX)));
                }
            }
            if spec.corrupt && r == 0 && round == 0 {
                got[0].1 ^= 1;
            }
            w.barrier_async().await?;
            want.sort_unstable();
            got.sort_unstable();
            Ok::<_, mpisim::MpiError>(
                (got != want).then(|| format!("round {round} received {got:?}, expected {want:?}")),
            )
        };
        match step.await {
            Ok(None) => {}
            Ok(Some(why)) => out.fail(why),
            Err(e) => {
                // A failed send, receive or barrier leaves the rest of
                // this rank's rounds undone: count them all.
                for _ in round..ROUNDS {
                    out.fail(format!("round {round}: {e}"));
                }
                break;
            }
        }
    }
    out
}
