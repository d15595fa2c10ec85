//! Host-speed calibration: what turns wall time on a shared host into a
//! number that repeats.
//!
//! The host this benchmark was sized on changes speed by ±30 % for minutes
//! at a time (a neighbour on the sibling hyperthread, frequency steps): the
//! same binary ran `svc_steady` at 8.5 k, 10 k and 13 k decisions/s within
//! one hour, and no estimator over the blocks of a 20 s run can see that.
//! A fixed compute kernel timed next to each block does: across those
//! regimes its time and the blocks' time per operation moved together
//! (log-log slope 0.8–1.4 on four workloads, 0.5 on `ext_bulk`), and dividing
//! one by the other took the seed-to-seed spread of the timing metrics from
//! 4–10 % to 1–5 % and their range from 10–37 % to 5–20 % (12 seeds, all five
//! workloads). A memory-latency kernel and an allocate-and-stream kernel
//! tried beside it tracked worse and are not used.
//!
//! So every measured block is bracketed by two executions of the kernel, and
//! its rates and latencies are reported **at reference host speed**: scaled by
//! `REFERENCE_NS / kernel time`. The kernel is this file's own code and data —
//! nothing from the crates under test, so a change to them cannot move the
//! reference — and it never changes: the numbers of two commits are only
//! comparable through the same kernel and the same `REFERENCE_NS`.

use std::hint::black_box;
use std::time::Instant;

/// Host speed 1 means "runs the kernel in exactly this long". The sizing
/// host in its usual regime takes 1.92–1.98 ms.
pub const REFERENCE_NS: f64 = 2_000_000.0;

/// Bytes the kernel hashes per pass: resident in L1/L2, so the kernel is
/// compute-bound like the protocol code it stands in for.
const BUFFER_LEN: usize = 64 * 1024;
/// Passes per execution (≈ 2 ms at reference speed).
const PASSES: usize = 600;
/// Executions per sample. Interference is one-sided and a regime outlasts
/// them, so the fastest one is the regime's speed.
const EXECUTIONS: usize = 3;

pub struct Calibrator {
    buffer: Vec<u8>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // xorshift64: fixed, seedless contents.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let buffer = (0..BUFFER_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        Calibrator { buffer }
    }

    /// One execution: four independent multiply-rotate chains over the
    /// buffer, `PASSES` times. Returns the folded state so the work has a
    /// consumer (and a unit test a value to pin).
    fn kernel(&self) -> u64 {
        let mut lanes = [1u64, 2, 3, 4];
        for _ in 0..PASSES {
            for chunk in black_box(&self.buffer[..]).chunks_exact(32) {
                for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
                    let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                    *lane = (*lane ^ word)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(31);
                }
            }
        }
        lanes.iter().fold(0, |acc, lane| acc.rotate_left(16) ^ lane)
    }

    /// Nanoseconds the kernel takes right now: the fastest of
    /// [`EXECUTIONS`] back-to-back executions.
    pub fn sample(&self) -> u64 {
        (0..EXECUTIONS)
            .map(|_| {
                let start = Instant::now();
                black_box(self.kernel());
                start.elapsed().as_nanos() as u64
            })
            .min()
            .expect("at least one execution")
    }
}

/// Host speed over a span bracketed by two kernel samples, relative to the
/// reference: above 1 the host is faster than the reference, below slower.
pub fn host_speed(before_ns: u64, after_ns: u64) -> f64 {
    REFERENCE_NS / ((before_ns + after_ns) as f64 / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_fixed_function() {
        let calibrator = Calibrator::new();
        assert_eq!(calibrator.kernel(), calibrator.kernel());
        assert_eq!(calibrator.kernel(), Calibrator::new().kernel());
        assert!(calibrator.sample() > 0);
    }

    #[test]
    fn speed_is_relative_to_the_reference() {
        let reference = REFERENCE_NS as u64;
        assert_eq!(host_speed(reference, reference), 1.0);
        assert_eq!(host_speed(reference * 2, reference * 2), 0.5);
        assert_eq!(host_speed(reference / 2, reference / 2), 2.0);
        // A regime change between the two samples: the block saw the mean.
        assert_eq!(host_speed(reference, reference * 3), 0.5);
    }
}
