//! The reference kernel: a fixed amount of simulator-shaped host work that
//! uses no `emx` code, so no change to the simulator can move it.
//!
//! On a shared host the speed of a core drifts: by tens of percent from
//! one second to the next, and by up to 2x between quiet and busy hours.
//! CPU time tracks wall time, so the drift is the core's and not the
//! scheduler's. `run.py` runs this kernel in its own process before
//! the first and after every execution of a workload, and scales the run's
//! times by how far the kernel's median ran from [`REF_S`]. A change to
//! the simulator moves the executions and not the kernel; host drift moves
//! both.
//!
//! The kernel is a small discrete-event loop shaped like the simulator's
//! hot path: a binary-heap calendar, dependent reads and writes into a
//! state array, a small heap allocation on every other event, and a
//! formatted hex string hashed on every fourth. The state fits in L2: a
//! state array in the shared L3 made the kernel drift with the
//! neighbours' cache use while the workloads did not.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::json::Obj;

/// Nominal seconds of one kernel, about its median on the 2-core Xeon VM
/// the benchmark was calibrated on while that host was quiet. Scaled times
/// are in seconds of a host on which the kernel takes this long.
pub const REF_S: f64 = 0.5;

/// Events per kernel.
const EVENTS: u64 = 3_200_000;
/// Pending events in the calendar.
const PENDING: u64 = 16_384;
/// Words of state: 1 MiB, inside L2.
const WORDS: usize = 1 << 17;
/// Live allocations kept at once.
const SLOTS: usize = 4096;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One kernel; returns its checksum, the same on every host.
pub fn kernel() -> u64 {
    let mut state: Vec<u64> = (0..WORDS as u64).collect();
    let mut slots: Vec<Vec<u64>> = vec![Vec::new(); SLOTS];
    let mut calendar = BinaryHeap::with_capacity(PENDING as usize);
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    for id in 0..PENDING {
        calendar.push(Reverse((xorshift(&mut rng) % 1024, id)));
    }
    let mut sum = 0u64;
    for k in 0..EVENTS {
        let Reverse((at, id)) = calendar.pop().expect("the calendar never drains");
        let r = xorshift(&mut rng);
        let i = (r as usize ^ id as usize) % WORDS;
        state[i] = state[i].wrapping_add(at);
        let j = (state[i] as usize).wrapping_mul(7) % WORDS;
        sum = sum.wrapping_add(state[j]);
        if k % 2 == 0 {
            let len = 1 + (r >> 32) as usize % 16;
            slots[(r >> 48) as usize % SLOTS] = vec![sum; len];
        }
        if k % 4 == 0 {
            let s = format!("{id}:{at}:{sum:x}");
            sum = s
                .bytes()
                .fold(sum, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        }
        calendar.push(Reverse((at + 1 + (r >> 40) % 256, id)));
    }
    sum ^ slots.iter().map(Vec::len).sum::<usize>() as u64
}

/// Entry point of `perfbench --calibrate`: run the kernel once and print
/// its wall seconds, the nominal seconds and the checksum.
pub fn main() {
    let t0 = Instant::now();
    let sum = kernel();
    let secs = t0.elapsed().as_secs_f64();
    let mut o = Obj::new();
    o.num("calib_s", secs);
    o.num("ref_s", REF_S);
    o.str("checksum", &format!("{sum:016x}"));
    println!("{}", o.render());
}
