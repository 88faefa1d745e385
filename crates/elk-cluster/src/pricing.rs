//! Shared step pricing for the cluster serving engines: one bucketed
//! workload step through a `(tp, pp)` pipeline, compiled per stage
//! through the single-flight [`PlanCache`] and composed with the
//! stage-boundary collective cost.
//!
//! All four cluster engines — [`ClusterServingSim`](crate::ClusterServingSim),
//! [`TenantServingSim`](crate::TenantServingSim),
//! [`AutoscaleServingSim`](crate::AutoscaleServingSim) and both pools of
//! [`DisaggServingSim`](crate::DisaggServingSim) — price steps here, so
//! equal layouts price equal shapes to the same latency.

use std::sync::Arc;

use elk_baselines::{Design, DesignRunner};
use elk_hw::{CollectiveModel, SystemConfig};
use elk_model::{TransformerConfig, Workload};
use elk_serve::{infeasible, split_latency, CacheStats, PlanCache};
use elk_sim::SimOptions;
use elk_units::Seconds;

use crate::plan::{ParallelismPlan, StageSpan};
use crate::ClusterError;

/// Prices pipeline steps for one `(pod, model, tp, pp)` layout. Owns
/// the group-level [`DesignRunner`] (fitted cost model) and a handle on
/// the shared single-flight [`PlanCache`]; `dp` does not enter pricing
/// — every replica group runs the identical pipeline.
#[derive(Debug)]
pub(crate) struct StepPricer {
    runner: DesignRunner,
    cache: Arc<PlanCache>,
    stages: Vec<StageSpan>,
    links: CollectiveModel,
    model: TransformerConfig,
    plan: ParallelismPlan,
    sim: SimOptions,
}

impl StepPricer {
    /// Builds the pricer: group subpod runner, stage spans, and
    /// boundary collective model. `threads` sizes the cache's compile
    /// worker pool only — priced latencies are byte-identical at any
    /// setting.
    pub fn new(
        system: &SystemConfig,
        model: TransformerConfig,
        plan: ParallelismPlan,
        sim: SimOptions,
        threads: usize,
    ) -> Self {
        let cache = Arc::new(PlanCache::new().with_threads(threads));
        StepPricer::with_cache(system, model, plan, sim, cache)
    }

    /// [`new`](Self::new) against an externally owned cache: pricers
    /// for different plans of the same model (the disaggregated pools)
    /// share one single-flight cache, so a stage shape compiled for one
    /// pool is a hit for the other. Cache keys carry the tp degree and
    /// the workload phase, so distinct layouts never collide.
    pub fn with_cache(
        system: &SystemConfig,
        model: TransformerConfig,
        plan: ParallelismPlan,
        sim: SimOptions,
        cache: Arc<PlanCache>,
    ) -> Self {
        StepPricer {
            runner: DesignRunner::new(system.subpod(plan.tp)).with_threads(1),
            cache,
            stages: plan.stages(model.layers),
            links: plan.tp_links(system),
            model,
            plan,
            sim,
        }
    }

    /// Cumulative plan-cache counters (across all runs so far). Not
    /// part of any emitted report — the hit/miss split shifts with the
    /// compile worker count.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Latency of one bucketed `wl` step through the whole `(tp, pp)`
    /// pipeline: every stage in sequence plus stage-boundary transfers.
    fn pipeline_step(&self, design: Design, wl: Workload) -> Result<Seconds, ClusterError> {
        let model = &self.model;
        let mut total = Seconds::ZERO;
        // The exact boundary formula the estimator uses.
        let boundary = self.plan.boundary_time(&self.links, model, wl);
        for span in &self.stages {
            let key = span.cache_key(&model.name, self.plan.tp);
            total += self
                .cache
                .step_latency_for(
                    &self.runner,
                    &key,
                    self.plan.tp,
                    design,
                    wl,
                    &self.sim,
                    |w, s| model.build_stage(w, s, span.layers.clone(), span.embed, span.head),
                )
                .map_err(|source| ClusterError::Compile {
                    stage: span.index,
                    source,
                })?;
            if span.index + 1 != self.stages.len() {
                total += boundary;
            }
        }
        Ok(total)
    }

    /// [`pipeline_step`](Self::pipeline_step) with the serving layer's
    /// micro-batch fallback ([`split_latency`]).
    pub fn split_step(&self, design: Design, wl: Workload) -> Result<Seconds, ClusterError> {
        split_latency(
            wl,
            &|wl| self.pipeline_step(design, wl),
            |e| matches!(e, ClusterError::Compile { source, .. } if infeasible(source)),
        )
    }
}
