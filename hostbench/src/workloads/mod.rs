//! The three workloads. Each builds its shared timers, launches one
//! universe through [`crate::launch`], and reads the timers back into
//! [`crate::Probes`].

use std::time::Instant;

use mpisim::{Result, Transport};
use rbc::RbcComm;

pub(crate) mod comm_create;
pub(crate) mod jquick;
pub(crate) mod storm;

/// One RBC split with host timestamps tightly around it. The call is
/// local and never suspends, so the pair measures its exact self time.
/// Returns the new communicator, the host nanoseconds and the virtual
/// nanoseconds it cost.
pub(crate) fn rbc_split(comm: &RbcComm, f: usize, l: usize) -> (Result<RbcComm>, u64, u64) {
    let v0 = comm.now();
    let t = Instant::now();
    let out = comm.split(f, l);
    let host = t.elapsed().as_nanos() as u64;
    (out, host, (comm.now() - v0).as_nanos())
}
