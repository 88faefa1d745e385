//! Host-speed reference: a fixed integer kernel timed between the ops.
//!
//! The benchmark box is shared, and its speed drifts by tens of percent
//! within a minute. Every end-to-end host time is therefore reported at
//! the box's reference speed: `raw × REFERENCE_NOMINAL_NS / reference`,
//! where `reference` is the median time of the kernel over the samples
//! taken in the same phase of the run (before each set-up sample, or
//! next to each op of a pass). The correction tracks the box's compute
//! speed well and its memory speed less well: a random walk through an
//! 8 MiB table, timed the same way, varied too much from sample to
//! sample to serve as a second reference.

use std::sync::Mutex;
use std::time::Instant;

use crate::bench::{median, SplitMix};

/// The reference's time on the 2-core box the benchmark was sized on.
pub const REFERENCE_NOMINAL_NS: f64 = 700_000.0;

const SAMPLES: usize = 5;
const ITERS_PER_SAMPLE: u32 = 80_000;

/// The kernel's times (ns) since the last [`take_samples`].
static LOG: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Times the kernel: the median of five timed runs, scaled to their
/// total.
pub fn sample() {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut rng = SplitMix(0x5eed);
            let mut acc = 0u64;
            for _ in 0..ITERS_PER_SAMPLE {
                acc ^= rng.next();
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let ns = median(&samples) * SAMPLES as f64;
    LOG.lock().expect("reference log poisoned").push(ns);
}

/// The samples of the phase just ended; it starts a new phase.
pub fn take_samples() -> Vec<f64> {
    std::mem::take(&mut *LOG.lock().expect("reference log poisoned"))
}

/// The factor that brings a phase's host times to the reference speed,
/// from its samples. With no sample it is 1.
pub fn speed_factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        REFERENCE_NOMINAL_NS / median(samples)
    }
}
