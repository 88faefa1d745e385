//! # elk-serve — request-level serving simulation over compiled Elk plans
//!
//! The paper evaluates Elk on steady-state per-batch latency (§6,
//! Fig. 17). This crate layers request-level dynamics on top of the
//! compiler and chip simulator: arrivals, queueing, prefill/decode
//! interleaving, and tail latency — the quantities a serving system is
//! actually judged on.
//!
//! ## Data flow
//!
//! ```text
//! trace (TraceConfig / RequestTrace)          requests with arrival,
//!        |                                    prompt_len, output_len
//!        v
//! batcher (BatchConfig)                       iteration-level continuous
//!        |                                    batching: prefill | decode
//!        v
//! plan cache (PlanCache)                      one Elk compile + simulate
//!        |                                    per bucketed (model, design,
//!        v                                    phase, batch, seq) signature
//! chip simulator (elk-sim SimReport)          step latency
//!        |
//!        v
//! metrics (ServingReport)                     TTFT / TPOT / e2e
//!                                             percentiles, goodput,
//!                                             queue depth
//! ```
//!
//! The batcher, step pricing and metrics meet in the group core
//! ([`Group`], [`PoolSummary`], [`RequestSummary`], [`record_requests`]).
//! [`ServingSim`] and the `elk-cluster` engines all run on it.
//!
//! ## Knobs
//!
//! | knob | where | meaning |
//! |---|---|---|
//! | `seed`, `requests` | [`TraceConfig`] | deterministic trace size/stream |
//! | `arrivals` | [`ArrivalProcess`] | `Poisson { rate_rps }` or on/off `Bursty { burst_factor, period_s, duty }` |
//! | `prompt_len`, `output_len` | [`LengthDist`] | `Fixed`, `Uniform`, or `Bimodal` token counts |
//! | `max_batch` | [`BatchConfig`] | concurrent requests per replica |
//! | `max_prefill_tokens` | [`BatchConfig`] | prompt-token budget per prefill step |
//! | `seq_buckets` | [`BatchConfig`] | pow-2 context bucketing for plan-cache keys |
//! | `bucket_batch` | [`BatchConfig`] | round batch shapes to powers of two |
//! | `shards` | [`ServeConfig`] | tensor-parallel chips per replica |
//! | `replicas` | [`ServeConfig`] | independent chip groups (round-robin routing) |
//! | `threads` | [`ServeConfig`] | worker pool: concurrent replica loops + single-flight compile fan-out (`1` = sequential, `0` = all cores) |
//! | `slo` | [`SloConfig`] | TTFT/TPOT bounds scored by goodput |
//! | `sim` | [`ServeConfig`] | chip-simulator noise/trace options |
//!
//! ## Example
//!
//! ```
//! use elk_serve::{ArrivalProcess, LengthDist, ServeConfig, ServingSim, TraceConfig};
//! use elk_baselines::Design;
//! use elk_hw::presets;
//! use elk_model::zoo;
//!
//! # fn main() -> Result<(), elk_core::CompileError> {
//! let trace = TraceConfig {
//!     seed: 7,
//!     requests: 10,
//!     arrivals: ArrivalProcess::Poisson { rate_rps: 100.0 },
//!     prompt_len: LengthDist::Uniform { lo: 100, hi: 400 },
//!     output_len: LengthDist::Fixed(4),
//! }
//! .generate();
//!
//! let mut model = zoo::llama2_13b();
//! model.layers = 2; // doctest-sized
//! let mut sim = ServingSim::new(presets::ipu_pod4(), ServeConfig::new(model, 4));
//! let report = sim.run(Design::ElkFull, &trace)?;
//! assert_eq!(report.completed, 10);
//! assert!(report.ttft.p99 >= report.ttft.p50);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batcher;
mod cache;
mod engine;
mod group;
mod metrics;
mod report;
mod router;
mod tenancy;
mod trace;

pub use batcher::{next_step, BatchConfig, StepPlan};
pub use cache::{CacheStats, PlanCache, PlanKey};
pub use engine::{ServeConfig, ServingSim};
pub use group::{
    finish_decode, infeasible, record_requests, record_requests_with, split_latency, Group,
    GroupStats, InFlight, PoolSummary, RequestSummary,
};
pub use metrics::{percentile, LatencyStats, RequestOutcome, SloConfig};
pub use report::ServingReport;
pub use router::{Router, RouterPolicy};
pub use tenancy::{
    jain_index, ShedPolicy, TenancyConfig, TenantClass, TenantReport, TokenBucket,
    MAX_CLASS_PRIORITY,
};
pub use trace::{ArrivalProcess, LengthDist, Request, RequestTrace, TraceConfig};
