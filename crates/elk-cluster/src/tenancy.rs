//! Multi-tenant cluster serving: SLO classes, admission control, and
//! priority-aware scheduling over the routed replay engine.
//!
//! [`TenantServingSim`] runs the routed loop of
//! [`ClusterServingSim`] with three tenancy layers in front of it:
//!
//! * **Admission control at the router** — each tenant draws from a
//!   deterministic [`TokenBucket`] parameterized by its class
//!   (`rate_rps`, `burst`); an empty bucket rejects the arrival before
//!   it touches any queue. Behind the bucket, a load shedder watches
//!   the run's time-weighted mean waiting depth (all groups pooled) and
//!   past the threshold either rejects sheddable arrivals or defers
//!   them once by a fixed delay.
//! * **Priority-aware scheduling** — arrivals enter the shared kernel
//!   timeline at their class priority (`0..=63`; step completions fire
//!   at a reserved higher band), and the waiting queue is kept sorted
//!   by class priority with FIFO order inside a class. A
//!   single-default-class config therefore reproduces the plain
//!   engine's event ordering bit for bit — pinned by a differential
//!   test below.
//! * **Multi-model pods** — a class may name a model-zoo alias; the
//!   pod's `dp` groups are partitioned round-robin across the distinct
//!   models, each model gets its own router over its groups, and all
//!   per-model pricers share one single-flight
//!   [`PlanCache`](elk_serve::PlanCache) (cache keys carry the model
//!   name, so entries never collide).
//!
//! Every disposition is terminal and disjoint — `admitted + rejected +
//! deferred == arrivals`, per tenant — and the emitted report stays
//! byte-identical at any thread count.

use std::collections::BTreeSet;

use serde::Serialize;

use elk_baselines::Design;
use elk_hw::SystemConfig;
use elk_model::{zoo, TransformerConfig};
use elk_obs::Obs;
use elk_serve::{
    jain_index, record_requests, Group, RequestOutcome, RequestSummary, RequestTrace, RouterPolicy,
    ShedPolicy, TenancyConfig, TenantReport, TokenBucket, MAX_CLASS_PRIORITY,
};
use elk_sim_core::QueueStat;
use elk_units::Seconds;

use crate::serve::{ClusterServeConfig, ClusterServingReport, ClusterServingSim, Ev, Front, Queue};
use crate::ClusterError;

/// Aggregated result of one multi-tenant cluster serving run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenancyServingReport {
    /// The whole-run aggregate in the plain cluster-report shape. For a
    /// single-default-class config this serializes byte-identically to
    /// the plain engine's report on the same inputs.
    pub base: ClusterServingReport,
    /// Requests admitted directly at first offer.
    pub admitted: usize,
    /// Requests dropped by the rate limiter or the load shedder.
    pub rejected: usize,
    /// Requests deferred once by the load shedder (these complete).
    pub deferred: usize,
    /// Per-tenant slices, in first-appearance order of the trace's
    /// tenant ids.
    pub tenants: Vec<TenantReport>,
    /// Jain fairness index over the per-tenant goodput shares.
    pub jain_fairness: f64,
}

/// Terminal admission disposition of one request.
#[derive(Clone, Copy, PartialEq)]
enum Disposition {
    Admitted,
    Rejected,
    Deferred,
}

/// Tenancy's front-end on the routed loop, for one run.
struct Admission<'a> {
    tenancy: &'a TenancyConfig,
    /// For each class, the model serving it.
    class_model: &'a [usize],
    /// Each request's tenant index.
    tix: Vec<usize>,
    /// Each tenant's class index.
    tenant_class: Vec<usize>,
    /// Each request's class priority.
    req_prio: Vec<u8>,
    /// Per-tenant token buckets (`None` = the class is unlimited).
    buckets: Vec<Option<TokenBucket>>,
    /// Each request's disposition, once it first arrived.
    disposition: Vec<Option<Disposition>>,
    /// Pooled waiting depth for the load shedder: a time-weighted
    /// integral over every group's waiting queue together.
    shed_depth: QueueStat,
}

impl Front for Admission<'_> {
    /// A shed-deferred request is re-offered.
    type Event = usize;
    const TRACK: &'static str = "tenancy/kernel";
    /// Strictly above every admissible class priority, so an arrival
    /// can never overtake a completion at the same instant (mirroring
    /// the plain engine's `PRIO_ARRIVAL < PRIO_STEP_DONE` ordering).
    const STEP_DONE: u8 = MAX_CLASS_PRIORITY + 1;

    /// Every admissible class priority dispatches as an "arrival"
    /// (deferred re-offers included); only the reserved band above
    /// them is a step completion.
    fn classes(&self) -> Vec<(u8, &'static str)> {
        let arrivals: BTreeSet<u8> = self.req_prio.iter().copied().collect();
        let mut classes: Vec<_> = arrivals.into_iter().map(|p| (p, "arrival")).collect();
        classes.push((Self::STEP_DONE, "step_done"));
        classes
    }

    fn priority(&self, idx: usize) -> u8 {
        self.req_prio[idx]
    }

    fn model(&self, idx: usize) -> usize {
        self.class_model[self.tenant_class[self.tix[idx]]]
    }

    fn admit(&mut self, q: &mut Queue<Self>, idx: usize) -> bool {
        let (tenancy, now) = (self.tenancy, q.now());
        let class = &tenancy.classes[self.tenant_class[self.tix[idx]]];
        let shed = tenancy.shed_queue_depth.and_then(|threshold| {
            if !class.sheddable || now.as_secs() <= 0.0 {
                return None;
            }
            let mean = self.shed_depth.area_until(now) / now.as_secs();
            (mean > threshold).then_some(tenancy.shed_policy)
        });
        let admitted_by_bucket = self.buckets[self.tix[idx]]
            .as_mut()
            .is_none_or(|b| b.try_take(now));
        let d = match shed {
            _ if !admitted_by_bucket => Disposition::Rejected,
            Some(ShedPolicy::Reject) => Disposition::Rejected,
            Some(ShedPolicy::Defer) => {
                let delay = Seconds::new(tenancy.defer_s);
                q.schedule_after(delay, self.req_prio[idx], Ev::Front(idx));
                Disposition::Deferred
            }
            None => Disposition::Admitted,
        };
        self.disposition[idx] = Some(d);
        d == Disposition::Admitted
    }

    /// One-shot backpressure: the re-offer is served unconditionally
    /// (its disposition stays Deferred).
    fn handle(&mut self, _: &mut Queue<Self>, _: &[Group], idx: usize) -> Option<usize> {
        Some(idx)
    }

    fn waiting(&mut self, now: Seconds, waiting: usize) {
        self.shed_depth.record(now, waiting);
    }
}

/// Trace-driven multi-tenant serving simulator for one pod.
///
/// Owns one `StepPricer` per distinct class model, all sharing a
/// single-flight [`PlanCache`](elk_serve::PlanCache), so runs across
/// designs, policies, and models reuse compiled stages.
#[derive(Debug)]
pub struct TenantServingSim {
    sim: ClusterServingSim,
    tenancy: TenancyConfig,
    /// Distinct models served by the pod; index 0 is the base model.
    models: Vec<TransformerConfig>,
    /// For each class, the index into `models` it is served by.
    class_model: Vec<usize>,
}

impl TenantServingSim {
    /// Creates a simulator for `config` + `tenancy` on the pod `system`.
    ///
    /// Class model aliases resolve through [`elk_model::zoo::by_name`]
    /// and inherit the base model's layer count, so every model passes
    /// the same structural plan validation the pod was sized for.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when the tenancy config is
    /// inconsistent, an alias is unknown, the plan does not fit some
    /// class model, or `dp` is smaller than the distinct model count.
    pub fn new(
        system: SystemConfig,
        config: ClusterServeConfig,
        tenancy: TenancyConfig,
    ) -> Result<Self, ClusterError> {
        config.batch.validate();
        tenancy.validate().map_err(ClusterError::Invalid)?;

        let mut models = vec![config.model.clone()];
        let mut class_model = Vec::with_capacity(tenancy.classes.len());
        for class in &tenancy.classes {
            let idx = match &class.model {
                None => 0,
                Some(alias) => {
                    let mut resolved = zoo::by_name(alias).map_err(ClusterError::Invalid)?;
                    resolved.layers = config.model.layers;
                    let known = models.iter().position(|m| m.name == resolved.name);
                    known.unwrap_or_else(|| {
                        models.push(resolved);
                        models.len() - 1
                    })
                }
            };
            class_model.push(idx);
        }
        if (config.plan.dp as usize) < models.len() {
            return Err(ClusterError::Invalid(format!(
                "plan dp {} cannot host {} distinct models (need dp >= models)",
                config.plan.dp,
                models.len()
            )));
        }
        Ok(TenantServingSim {
            sim: ClusterServingSim::serving(&system, config, &models)?,
            tenancy,
            models,
            class_model,
        })
    }

    /// Attaches an observation handle: kernel dispatch spans, admitted
    /// request lanes (via the shared cluster summary), and
    /// tenant-tagged disposition markers (admitted / rejected /
    /// deferred) on each sampled request's lane.
    pub fn set_obs(&mut self, obs: Obs) {
        self.sim.set_obs(obs);
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterServeConfig {
        self.sim.config()
    }

    /// The tenancy policy.
    #[must_use]
    pub fn tenancy(&self) -> &TenancyConfig {
        &self.tenancy
    }

    /// Distinct models served by the pod (index 0 is the base model).
    #[must_use]
    pub fn models(&self) -> &[TransformerConfig] {
        &self.models
    }

    /// Cumulative plan-cache counters (across all runs and models).
    #[must_use]
    pub fn cache_stats(&self) -> elk_serve::CacheStats {
        self.sim.cache_stats()
    }

    /// Serves `trace` under `design`, dispatching each model's share of
    /// the pod with `policy`. `tenants` names the tenant of each
    /// request, indexed by trace position (the side channel
    /// [`elk_trace::TraceFile::tenant_assignments`] produces); an empty
    /// slice puts every request under the `"default"` tenant.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when `tenants` is non-empty but does
    /// not match the trace length; compile failures propagate as
    /// [`ClusterError::Compile`].
    ///
    /// [`elk_trace::TraceFile::tenant_assignments`]:
    /// https://docs.rs/elk-trace
    pub fn run(
        &mut self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
        tenants: &[String],
    ) -> Result<TenancyServingReport, ClusterError> {
        if !tenants.is_empty() && tenants.len() != trace.len() {
            return Err(ClusterError::Invalid(format!(
                "tenant assignments ({}) do not match the trace ({} requests)",
                tenants.len(),
                trace.len()
            )));
        }
        // Distinct tenants in first-appearance order, plus each
        // request's tenant index. Untagged traces collapse to one
        // "default" tenant.
        let mut tenant_ids: Vec<String> = Vec::new();
        let tix: Vec<usize> = (0..trace.len())
            .map(|i| {
                let name = tenants.get(i).map_or("default", String::as_str);
                tenant_ids
                    .iter()
                    .position(|t| t == name)
                    .unwrap_or_else(|| {
                        tenant_ids.push(name.to_string());
                        tenant_ids.len() - 1
                    })
            })
            .collect();
        let classes = &self.tenancy.classes;
        let tenant_class: Vec<usize> = tenant_ids
            .iter()
            .map(|t| self.tenancy.class_index_of(t))
            .collect();
        let mut front = Admission {
            tenancy: &self.tenancy,
            class_model: &self.class_model,
            req_prio: tix
                .iter()
                .map(|&t| classes[tenant_class[t]].priority)
                .collect(),
            buckets: tenant_class
                .iter()
                .map(|&c| {
                    classes[c]
                        .rate_rps
                        .map(|r| TokenBucket::new(r, classes[c].burst))
                })
                .collect(),
            disposition: vec![None; trace.len()],
            shed_depth: QueueStat::new(),
            tix,
            tenant_class,
        };
        let mut run = self.sim.replay(&mut front, design, policy, trace)?;

        // Fold the run into the base aggregate plus per-tenant slices
        // and the fairness index.
        let reqs = &trace.requests;
        let obs = &self.sim.obs;
        let outcomes = &std::mem::take(&mut run.outcomes);
        let (tix, disposition) = (&front.tix, &front.disposition);
        let tenant_ids = &tenant_ids;
        let class_of = |t: usize| &self.tenancy.classes[front.tenant_class[t]];
        if obs.enabled() {
            // Tenant-tagged disposition markers on each sampled
            // request's lane: the arrival→admission leg of the path.
            for (idx, d) in disposition.iter().enumerate() {
                let Some(d) = *d else { continue };
                let name = match d {
                    Disposition::Admitted => "admitted",
                    Disposition::Rejected => "rejected",
                    Disposition::Deferred => "deferred",
                };
                obs.counter(&format!("tenancy.{name}"), 1);
                if !obs.sampled(idx) {
                    continue;
                }
                let t = tix[idx];
                let args = [
                    ("tenant", tenant_ids[t].clone()),
                    ("class", class_of(t).name.clone()),
                ];
                obs.instant(
                    &format!("req/{}", reqs[idx].id),
                    name,
                    reqs[idx].arrival,
                    &args,
                );
            }
        }
        for (d, o) in disposition.iter().zip(outcomes) {
            let d = d.expect("every arrival fired");
            debug_assert_eq!(o.is_some(), d != Disposition::Rejected);
        }
        let completed: Vec<RequestOutcome> = outcomes.iter().filter_map(|o| *o).collect();
        record_requests(obs, "cluster", "group", &completed);
        let base = self.sim.summarize(design, policy, trace, run, completed);

        let count = |t: usize, want: Disposition| {
            disposition
                .iter()
                .enumerate()
                .filter(|&(idx, &d)| tix[idx] == t && d == Some(want))
                .count()
        };
        let tenants: Vec<TenantReport> = tenant_ids
            .iter()
            .enumerate()
            .map(|(t, tenant)| {
                let class = class_of(t);
                let done: Vec<RequestOutcome> = outcomes
                    .iter()
                    .enumerate()
                    .filter(|&(idx, _)| tix[idx] == t)
                    .filter_map(|(_, o)| *o)
                    .collect();
                let s = RequestSummary::of(&done, class.slo, base.makespan);
                TenantReport {
                    tenant: tenant.clone(),
                    class: class.name.clone(),
                    arrivals: tix.iter().filter(|&&x| x == t).count(),
                    admitted: count(t, Disposition::Admitted),
                    rejected: count(t, Disposition::Rejected),
                    deferred: count(t, Disposition::Deferred),
                    completed: done.len(),
                    slo_attainment: s.slo_attainment,
                    goodput_rps: s.goodput_rps,
                    ttft: s.ttft,
                    tpot: s.tpot,
                    e2e: s.e2e,
                }
            })
            .collect();
        let shares: Vec<f64> = tenants.iter().map(|t| t.goodput_rps).collect();
        Ok(TenancyServingReport {
            admitted: tenants.iter().map(|t| t.admitted).sum(),
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            deferred: tenants.iter().map(|t| t.deferred).sum(),
            jain_fairness: jain_index(&shares),
            tenants,
            base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ParallelismPlan;
    use crate::serve::ClusterServingSim;
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{ArrivalProcess, BatchConfig, LengthDist, SloConfig, TenantClass, TraceConfig};

    fn tiny_config(plan: ParallelismPlan) -> ClusterServeConfig {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        ClusterServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_prefill_tokens: 2048,
                seq_buckets: SeqBuckets::new(256, 2048),
                bucket_batch: true,
            },
            ..ClusterServeConfig::new(model, plan)
        }
    }

    fn tiny_trace(requests: usize) -> RequestTrace {
        TraceConfig {
            seed: 11,
            requests,
            arrivals: ArrivalProcess::Poisson { rate_rps: 200.0 },
            prompt_len: LengthDist::Uniform { lo: 200, hi: 700 },
            output_len: LengthDist::Uniform { lo: 2, hi: 12 },
        }
        .generate()
    }

    fn cycle_tenants(trace: &RequestTrace, ids: &[&str]) -> Vec<String> {
        (0..trace.len())
            .map(|i| ids[i % ids.len()].to_string())
            .collect()
    }

    #[test]
    fn trivial_tenancy_reproduces_the_plain_engine_bit_for_bit() {
        let trace = tiny_trace(12);
        let plan = ParallelismPlan::new(2, 1, 2);
        let mut plain = ClusterServingSim::new(presets::ipu_pod4(), tiny_config(plan)).unwrap();
        let mut tenanted = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(plan),
            TenancyConfig::default(),
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let a = plain.run(Design::ElkFull, policy, &trace).unwrap();
            let b = tenanted.run(Design::ElkFull, policy, &trace, &[]).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b.base).unwrap(),
                "{policy}: a trivial tenancy layer must not perturb the engine"
            );
            assert_eq!(b.rejected, 0);
            assert_eq!(b.deferred, 0);
            assert_eq!(b.admitted, trace.len());
            assert_eq!(b.jain_fairness, 1.0, "one tenant is trivially fair");
        }
    }

    #[test]
    fn token_bucket_rejections_conserve_and_skip_the_queues() {
        let trace = tiny_trace(16);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass {
                    rate_rps: Some(1.0),
                    burst: 2,
                    ..TenantClass::named("limited")
                },
                TenantClass::named("free"),
            ],
            tenants: vec![("t0".to_string(), "limited".to_string())],
            default_class: "free".to_string(),
            ..TenancyConfig::default()
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2)),
            tenancy,
        )
        .unwrap();
        let tenants = cycle_tenants(&trace, &["t0", "t1"]);
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert!(
            r.rejected > 0,
            "a 1 rps bucket must reject a 200 rps tenant"
        );
        for t in &r.tenants {
            assert_eq!(
                t.arrivals,
                t.admitted + t.rejected + t.deferred,
                "{}",
                t.tenant
            );
            assert_eq!(t.completed, t.admitted + t.deferred, "{}", t.tenant);
        }
        let free = r.tenants.iter().find(|t| t.tenant == "t1").unwrap();
        assert_eq!(free.rejected, 0, "the unlimited class never sheds");
        assert_eq!(
            r.base.completed,
            r.admitted + r.deferred,
            "rejected requests never reach a step"
        );
        assert_eq!(
            r.base.per_group_requests.iter().sum::<usize>(),
            r.base.completed,
            "groups only ever saw admitted requests"
        );
        assert!(
            r.jain_fairness < 1.0,
            "throttling one tenant shows up in fairness"
        );
    }

    #[test]
    fn priority_classes_reorder_equal_time_queues() {
        // Two tenants, premium priority 0 vs bulk priority 9. Large
        // prompts cap each prefill at 2 requests, so the queue drains
        // over several steps and priority insertion is observable: the
        // late-arriving vip pair must prefill before bulk requests that
        // arrived earlier (under FIFO they would go last).
        let mut requests = Vec::new();
        for i in 0..8u64 {
            requests.push(elk_serve::Request {
                id: i,
                arrival: Seconds::from_millis(0.5 * i as f64),
                prompt_len: 1024,
                output_len: 2,
            });
        }
        let trace = RequestTrace::from_requests(requests);
        let tenants: Vec<String> = (0..8)
            .map(|i| if i < 6 { "bulk" } else { "vip" }.to_string())
            .collect();
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("premium"),
                TenantClass {
                    priority: 9,
                    ..TenantClass::named("bulk_class")
                },
            ],
            tenants: vec![("vip".to_string(), "premium".to_string())],
            default_class: "bulk_class".to_string(),
            ..TenancyConfig::default()
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 1)),
            tenancy,
        )
        .unwrap();
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        let vip = r.tenants.iter().find(|t| t.tenant == "vip").unwrap();
        assert_eq!(vip.class, "premium");
        let first_token = |id: u64| {
            r.base
                .outcomes
                .iter()
                .find(|o| o.id == id)
                .unwrap()
                .first_token
        };
        let vip_last = first_token(6).max(first_token(7));
        let overtaken = (0..6).filter(|&id| first_token(id) > vip_last).count();
        assert!(
            overtaken >= 2,
            "priority must move the vip pair ahead of earlier bulk arrivals \
             (only {overtaken} bulk requests prefilled after them)"
        );
    }

    #[test]
    fn defer_policy_delays_but_completes_everything() {
        let trace = tiny_trace(16);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("premium"),
                TenantClass {
                    priority: 5,
                    sheddable: true,
                    ..TenantClass::named("best_effort")
                },
            ],
            tenants: vec![("t0".to_string(), "premium".to_string())],
            default_class: "best_effort".to_string(),
            shed_queue_depth: Some(0.05),
            shed_policy: ShedPolicy::Defer,
            defer_s: 0.2,
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 1)),
            tenancy,
        )
        .unwrap();
        let tenants = cycle_tenants(&trace, &["t0", "t1"]);
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert!(r.deferred > 0, "pressure must defer some best-effort work");
        assert_eq!(r.rejected, 0, "defer policy never drops");
        assert_eq!(
            r.base.completed,
            trace.len(),
            "deferred work still completes"
        );
        let premium = r.tenants.iter().find(|t| t.tenant == "t0").unwrap();
        assert_eq!(
            premium.deferred, 0,
            "non-sheddable classes are never deferred"
        );
    }

    #[test]
    fn mixed_models_share_one_pod_and_one_cache() {
        let trace = tiny_trace(10);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("default"),
                TenantClass {
                    model: Some("opt30".to_string()),
                    ..TenantClass::named("opt_class")
                },
            ],
            tenants: vec![("t1".to_string(), "opt_class".to_string())],
            ..TenancyConfig::default()
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2)),
            tenancy,
        )
        .unwrap();
        assert_eq!(sim.models().len(), 2);
        assert_eq!(sim.models()[1].name, "OPT-30B");
        assert_eq!(
            sim.models()[1].layers,
            sim.models()[0].layers,
            "class models inherit the pod-sized layer count"
        );
        let tenants = cycle_tenants(&trace, &["t0", "t1"]);
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert_eq!(r.base.completed, 10);
        // The llama tenant lands only on even groups, the OPT tenant
        // only on odd ones (round-robin model partition).
        for o in &r.base.outcomes {
            let t = &tenants[o.id as usize];
            assert_eq!(o.replica % 2, usize::from(t == "t1"), "request {}", o.id);
        }
        let misses = sim.cache_stats().misses;
        let r2 = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert_eq!(
            sim.cache_stats().misses,
            misses,
            "second run is fully cached"
        );
        assert_eq!(r.base.outcomes, r2.base.outcomes, "replay is deterministic");
    }

    #[test]
    fn dp_must_cover_the_distinct_models() {
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("default"),
                TenantClass {
                    model: Some("opt30".to_string()),
                    ..TenantClass::named("opt_class")
                },
            ],
            ..TenancyConfig::default()
        };
        let e = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 1)),
            tenancy,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(e.to_string().contains("distinct models"), "{e}");
    }

    #[test]
    fn thread_count_does_not_change_tenancy_outcomes() {
        let trace = tiny_trace(10);
        let plan = ParallelismPlan::new(2, 1, 2);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("premium"),
                TenantClass {
                    priority: 7,
                    sheddable: true,
                    rate_rps: Some(50.0),
                    burst: 4,
                    ..TenantClass::named("best_effort")
                },
            ],
            tenants: vec![("t0".to_string(), "premium".to_string())],
            default_class: "best_effort".to_string(),
            shed_queue_depth: Some(0.5),
            shed_policy: ShedPolicy::Reject,
            ..TenancyConfig::default()
        };
        let tenants = cycle_tenants(&trace, &["t0", "t1", "t2"]);
        let mut seq =
            TenantServingSim::new(presets::ipu_pod4(), tiny_config(plan), tenancy.clone()).unwrap();
        let mut par = TenantServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                threads: 4,
                ..tiny_config(plan)
            },
            tenancy,
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let a = seq.run(Design::ElkFull, policy, &trace, &tenants).unwrap();
            let b = par.run(Design::ElkFull, policy, &trace, &tenants).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{policy}: tenancy reports must be byte-identical across threads"
            );
        }
    }

    #[test]
    fn admission_control_protects_premium_goodput_under_overload() {
        // Saturating burst: one group, everyone piles in at once. With
        // admission control the best-effort firehose is shed, so the
        // premium tenant's requests clear faster and meet a tight SLO.
        let trace = TraceConfig {
            seed: 5,
            requests: 40,
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 400.0,
                burst_factor: 4.0,
                period_s: 0.5,
                duty: 0.2,
            },
            prompt_len: LengthDist::Uniform { lo: 200, hi: 600 },
            output_len: LengthDist::Uniform { lo: 2, hi: 8 },
        }
        .generate();
        let tenants = cycle_tenants(&trace, &["prem", "be", "be", "be"]);
        let slo = SloConfig {
            ttft: Seconds::from_millis(400.0),
            tpot: Seconds::from_millis(60.0),
        };
        let classes = |limit: bool| TenancyConfig {
            classes: vec![
                TenantClass {
                    slo,
                    ..TenantClass::named("premium")
                },
                TenantClass {
                    priority: 9,
                    sheddable: true,
                    rate_rps: limit.then_some(30.0),
                    burst: 4,
                    slo,
                    ..TenantClass::named("best_effort")
                },
            ],
            tenants: vec![("prem".to_string(), "premium".to_string())],
            default_class: "best_effort".to_string(),
            shed_queue_depth: limit.then_some(2.0),
            shed_policy: ShedPolicy::Reject,
            ..TenancyConfig::default()
        };
        let run = |tenancy: TenancyConfig| {
            let mut sim = TenantServingSim::new(
                presets::ipu_pod4(),
                tiny_config(ParallelismPlan::new(1, 1, 1)),
                tenancy,
            )
            .unwrap();
            sim.run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
                .unwrap()
        };
        let open = run(classes(false));
        let managed = run(classes(true));
        assert!(
            managed.rejected > 0,
            "overload must trigger admission control"
        );
        let prem = |r: &TenancyServingReport| {
            r.tenants
                .iter()
                .find(|t| t.tenant == "prem")
                .unwrap()
                .goodput_rps
        };
        assert!(
            prem(&managed) > prem(&open),
            "admission control must protect premium goodput ({} vs {})",
            prem(&managed),
            prem(&open)
        );
    }
}
