//! What every workload hands back to the run loop in `main.rs`.

use std::collections::BTreeMap;

use serde::Deserialize;

use crate::spans::{Span, Tracer};

/// One timed pass over a workload's inputs.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Host seconds of the pass (its timed part: runs and export).
    pub wall_s: f64,
    /// Host milliseconds of each op in the pass.
    pub op_ms: Vec<f64>,
    /// The host-speed samples taken during the pass (see `calib`).
    pub reference_ns: Vec<f64>,
    /// Work units completed: grid points, or kernel events.
    pub work: u64,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
    /// Per-layer counts and ratios of this pass, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Simulated-quality fraction (see `BENCHMARK.json`).
    pub sim_frac: f64,
    /// Digest of the pass's deterministic outputs.
    pub digest: String,
    /// Workload-specific headline numbers for the log, with units.
    pub named: Vec<(&'static str, f64, &'static str)>,
}

impl PassOut {
    pub fn fail(&mut self, mut why: Vec<String>) {
        if !why.is_empty() {
            self.failed += 1;
            self.failures.append(&mut why);
        }
    }
}

/// A benchmark workload: set-up once per repetition, then timed passes.
pub trait Workload {
    /// Builds the inputs and engines. Runs several times; the last
    /// repetition's state is the one the passes use.
    fn setup(&mut self, tracer: &Tracer) -> Result<(), String>;

    /// Untimed work between set-up and the first timed pass, such as
    /// filling plan caches that a long-lived process would have warm.
    fn warm_up(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs every op of the workload once and checks its outputs.
    fn pass(&mut self, tracer: &Tracer) -> Result<PassOut, String>;

    /// Extra traced-run measurements taken outside the passes.
    fn probe(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        Ok(BTreeMap::new())
    }

    /// Set-up samples per run (`setup_s` is their median).
    fn setup_reps(&self) -> usize;

    /// Set-ups timed together as one sample, for a set-up too short to
    /// time steadily on its own.
    fn setup_batch(&self) -> usize {
        1
    }
}

/// Sets `w` up once and runs one untraced pass.
pub fn one_pass(mut w: Box<dyn Workload>) -> Result<PassOut, String> {
    let off = Tracer::new(false);
    w.setup(&off)?;
    w.pass(&off)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// splitmix64: the benchmark's own seeded generator for sampling inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Reads a pin file: a JSON object of string keys to digests (or, for
/// the static-gap list, to ratios). A missing file reads as empty, so
/// every output reports "no pinned digest" until `--pin` records one.
pub fn load_pins<V: Deserialize>(name: &str) -> Result<BTreeMap<String, V>, String> {
    let path = pin_path(name);
    match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{path}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

pub fn save_pins(name: &str, pins: &BTreeMap<String, String>) -> Result<(), String> {
    let path = pin_path(name);
    let text = serde_json::to_string_pretty(pins).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{path}: {e}"))
}

fn pin_path(name: &str) -> String {
    format!("{}/pins/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            SplitMix(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(3), shuffled(3));
        assert_ne!(shuffled(3), shuffled(4));
    }
}
