//! A fixed reference computation that gauges how fast the host runs at
//! the moment it is timed.
//!
//! On a shared host the speed of one core drifts by up to a third over
//! minutes, with no steal time or throttling visible inside the VM, and
//! a spell can cover a whole run. The end-to-end host metrics therefore
//! time the reference before and after each cell and report the cell's
//! time as a multiple of it, rescaled by [`NOMINAL_S`] to host seconds on
//! the machine the benchmark was calibrated on. The reference
//! uses none of the repository's code, so a change to the simulator
//! moves the cell's time and not the reference's.
//!
//! The kernel is a small discrete-event loop shaped like the simulator's
//! hot path: a binary heap of 112-byte events held at about 2000
//! entries, random reads and writes into a 1 MiB table, and a short-lived
//! heap allocation per event. So it loses speed to the same kinds of
//! contention (caches, memory, the allocator) as the cells do.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one reference run takes on the calibration machine (a
/// 2-vCPU Intel Xeon VM at 2.1 GHz) in a quiet spell.
pub const NOMINAL_S: f64 = 0.020;

/// Events one reference run handles.
const STEPS: u64 = 120_000;
/// Events in flight: about the queue length of the 50-peer worlds.
const IN_FLIGHT: u64 = 2_000;
const NODES: u64 = 64;
const TABLE_SLOTS: usize = 1 << 17;

/// An event: due time, target node and a payload the size of the
/// simulator's message bodies (8 + 8 + 96 = 112 bytes).
type Event = Reverse<(u64, u64, [u64; 12])>;

fn next(state: &mut u64) -> u64 {
    // xorshift64*
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The reference kernel; returns a checksum so no work is elided.
fn kernel(steps: u64) -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut table = vec![0u64; TABLE_SLOTS];
    let mut heap: BinaryHeap<Event> = BinaryHeap::with_capacity(IN_FLIGHT as usize + 1);
    for _ in 0..IN_FLIGHT {
        let at = next(&mut rng) % 1_000_000;
        heap.push(Reverse((at, next(&mut rng) % NODES, [at; 12])));
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let Reverse((at, node, mut payload)) = heap.pop().expect("the heap never empties");
        let slot = (at ^ node.wrapping_mul(0x9E37_79B9)) as usize % TABLE_SLOTS;
        table[slot] = table[slot].wrapping_add(payload[0]);
        acc = acc.rotate_left(5) ^ table[slot];
        // A frame copy per event, as the stack clones one per neighbour.
        let copy: Vec<u64> = payload[..(1 + (acc % 12) as usize)].to_vec();
        acc ^= black_box(copy).iter().fold(0u64, |a, &x| a ^ x);
        payload[(node % 12) as usize] ^= acc;
        let r = next(&mut rng);
        heap.push(Reverse((at + 1 + r % 2_000, r % NODES, payload)));
    }
    acc ^ table.iter().fold(0u64, |a, &x| a.wrapping_add(x))
}

/// Runs the reference once and returns its host seconds.
pub fn time() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(STEPS)));
    t.elapsed().as_secs_f64()
}
