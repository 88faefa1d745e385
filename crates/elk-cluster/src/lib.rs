//! # elk-cluster — multi-chip parallelism planning for the Elk reproduction
//!
//! The paper evaluates Elk on an IPU-POD4, but a single compiled plan
//! only ever spans one tensor-parallel group. This crate plans and
//! prices model execution across the **whole pod**:
//!
//! * [`ParallelismPlan`] — tensor × pipeline × data degrees
//!   (`tp · pp · dp ≤ chips`) with structural validation, per-stage
//!   sharded graph derivation (TP splits heads/FFN columns, PP splits
//!   the layer stack), and the deterministic search grid;
//! * [`ClusterEstimator`] — composes the existing per-group
//!   `DesignRunner` → `SimReport` path with
//!   [`CollectiveModel`](elk_hw::CollectiveModel)-priced stage
//!   boundaries and GPipe-style bubble accounting into a
//!   [`ClusterReport`] (per-stage timeline, bubble fraction, scaling
//!   efficiency), plus an auto-parallelism [`search`] over the grid;
//! * [`ClusterServingSim`] — request-level serving across `dp` replica
//!   groups, each running the `(tp, pp)` pipeline, with pluggable
//!   [`RouterPolicy`](elk_serve::RouterPolicy) dispatch and the shared
//!   single-flight plan cache;
//! * [`AutoscaleServingSim`] — the same replay with an elastic group
//!   fleet: a controller grows/shrinks the ready set against
//!   time-weighted queue depth and windowed SLO attainment, and each
//!   spin-up pays a cold start equal to its plan-compilation cost
//!   priced through the shared cache;
//! * [`DisaggServingSim`] — disaggregated prefill/decode serving: two
//!   chip pools with independent plans on one event timeline, KV-cache
//!   handoff priced via `CollectiveModel::p2p`, chunked prefill, and a
//!   `shared_chips` degenerate mode that reproduces the colocated
//!   engine bit-for-bit (pinned by a differential test);
//! * [`TenantServingSim`] — multi-tenant serving on top of the routed
//!   replay: per-tenant SLO classes with token-bucket admission
//!   control, load shedding (reject or one-shot defer), class-priority
//!   scheduling in the kernel's event ordering, multi-model pods over
//!   one shared plan cache, and per-tenant goodput/fairness reporting.
//!   A single-default-class config reproduces [`ClusterServingSim`]
//!   bit-for-bit (also pinned by a differential test).
//!
//! The four serving engines share two pieces. Every engine prices steps
//! through one `StepPricer` per layout (the per-stage pipeline path plus
//! the micro-batch fallback). The colocated engines run
//! [`elk_serve::Group`]s, the group core that owns step dispatch, step
//! completion, pooled queue statistics, the request summary and the
//! request lanes. Disaggregation keeps its own two-pool groups but uses
//! the core's decode completion, pooling, summary and lanes. What stays
//! in each engine is what differs: arrival routing and admission,
//! tenancy's priority insertion and shedding, the autoscaler's fleet
//! lifecycle, and disaggregation's chunked prefill and KV handoff.
//!
//! Everything is deterministic: searches fan over [`elk_par`] with
//! index-ordered merging and the serving event loop is sequential in
//! global arrival order, so every report is byte-identical at any
//! thread count.
//!
//! [`search`]: ClusterEstimator::search
//!
//! ## Example
//!
//! ```
//! use elk_cluster::{ClusterEstimator, ClusterOptions, ParallelismPlan};
//! use elk_baselines::Design;
//! use elk_hw::presets;
//! use elk_model::{zoo, Workload};
//! use elk_sim::SimOptions;
//!
//! # fn main() -> Result<(), elk_cluster::ClusterError> {
//! let mut model = zoo::llama2_13b();
//! model.layers = 2; // doctest-sized
//! let est = ClusterEstimator::new(presets::ipu_pod4(), ClusterOptions::default());
//! let outcome = est.search(
//!     &model,
//!     Workload::decode(16, 512),
//!     Design::ElkFull,
//!     &SimOptions::default(),
//! )?;
//! let plan: ParallelismPlan = outcome.best.plan;
//! assert!(plan.chips_used() <= 4);
//! assert!(outcome.best.step_total.as_secs() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod autoscale;
mod disagg;
mod estimate;
mod plan;
mod pricing;
mod serve;
mod tenancy;

pub use autoscale::{
    AutoscaleConfig, AutoscaleReport, AutoscaleServingSim, ScaleEvent, ScaleEventKind,
};
pub use disagg::{
    kv_handoff_bytes, DisaggConfig, DisaggServingReport, DisaggServingSim, HandoffRecord,
};
pub use estimate::{
    ClusterEstimator, ClusterOptions, ClusterReport, PlanCandidate, SearchOutcome, StageReport,
};
pub use plan::{ParallelismPlan, StageSpan};
pub use serve::{ClusterServeConfig, ClusterServingReport, ClusterServingSim};
pub use tenancy::{TenancyServingReport, TenantServingSim};

use std::fmt;

/// Why a cluster plan could not be estimated or served.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The plan violates a structural or capacity constraint
    /// (degrees, divisibility, chip budget, HBM capacity).
    Invalid(String),
    /// A pipeline stage has no feasible on-chip plan.
    Compile {
        /// The failing stage's index.
        stage: usize,
        /// The compiler's error.
        source: elk_core::CompileError,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Invalid(msg) => write!(f, "invalid cluster plan: {msg}"),
            ClusterError::Compile { stage, source } => {
                write!(f, "stage {stage}: {source}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}
