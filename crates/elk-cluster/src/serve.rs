//! Cluster-level serving: routed request replay over `dp` replica
//! groups, each running a `(tp, pp)` pipeline plan.
//!
//! Where [`elk_serve::ServingSim`] pre-partitions its trace round-robin
//! so replicas can simulate independently, the cluster engine routes
//! **dynamically**: all groups share one [`elk_sim_core`] event queue,
//! so arrivals and step completions interleave in global time order and
//! a [`Router`] picks each arrival's group from the outstanding counts
//! observable *at that instant* — never from steps that only finish
//! later. This makes load-aware policies (least-outstanding,
//! power-of-two choices) meaningful, at the cost of a sequential event
//! loop — worker threads still accelerate the compile side through the
//! shared single-flight [`PlanCache`], and because cached step
//! latencies are deterministic the emitted report is byte-identical at
//! any thread count.
//!
//! A group's step latency is the pipeline composition of its stages:
//! each stage's sub-graph is compiled and simulated through the exact
//! `DesignRunner` path (cached per stage *shape*, so equal-sized
//! interior stages compile once), plus the stage-boundary transfer
//! priced on the [`CollectiveModel`].
//!
//! The event loop here is the only one the routed colocated engines
//! have: [`TenantServingSim`](crate::TenantServingSim) and
//! [`AutoscaleServingSim`](crate::AutoscaleServingSim) run it through a
//! [`Front`] that adds only what differs — admission and priorities,
//! or the fleet lifecycle.
//!
//! [`PlanCache`]: elk_serve::PlanCache
//! [`CollectiveModel`]: elk_hw::CollectiveModel

use std::sync::Arc;

use serde::Serialize;

use elk_baselines::Design;
use elk_hw::SystemConfig;
use elk_model::TransformerConfig;
use elk_obs::Obs;
use elk_serve::{
    record_requests, BatchConfig, Group, LatencyStats, PlanCache, PoolSummary, RequestOutcome,
    RequestSummary, RequestTrace, Router, RouterPolicy, SloConfig,
};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, PRIO_ARRIVAL, PRIO_STEP_DONE};
use elk_units::Seconds;

use crate::plan::ParallelismPlan;
use crate::pricing::StepPricer;
use crate::ClusterError;

/// Everything cluster serving is parameterized by (except the design
/// and router policy, which are per-run so runs share one engine and
/// cache).
#[derive(Debug, Clone)]
pub struct ClusterServeConfig {
    /// Model to serve (dense transformers only, like [`elk_serve`]).
    pub model: TransformerConfig,
    /// The `(tp, pp, dp)` layout; `dp` is the replica-group count.
    pub plan: ParallelismPlan,
    /// Continuous-batching knobs, applied per group.
    pub batch: BatchConfig,
    /// Latency SLO for goodput accounting.
    pub slo: SloConfig,
    /// Chip-simulator options used when a plan is compiled.
    pub sim: SimOptions,
    /// Compile worker threads (`0` = all cores): accelerates plan-cache
    /// warming only; the event loop itself is sequential and outputs
    /// are byte-identical at any setting.
    pub threads: usize,
}

impl ClusterServeConfig {
    /// A config serving `model` under `plan` with default batching, SLO,
    /// and simulator knobs.
    #[must_use]
    pub fn new(model: TransformerConfig, plan: ParallelismPlan) -> Self {
        ClusterServeConfig {
            model,
            plan,
            batch: BatchConfig::default(),
            slo: SloConfig::default(),
            sim: SimOptions::default(),
            threads: 1,
        }
    }
}

/// Aggregated result of one routed cluster serving run.
///
/// Unlike [`elk_serve::ServingReport`] this report carries no cache
/// hit/miss split — the split legitimately shifts with the compile
/// worker count, and cluster reports are byte-identical across
/// `--threads` settings by contract.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterServingReport {
    /// The design that served the trace.
    pub design: Design,
    /// The router policy requests were dispatched with.
    pub policy: RouterPolicy,
    /// The `(tp, pp, dp)` layout.
    pub plan: ParallelismPlan,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion (the loop drains every queue).
    pub completed: usize,
    /// Trace start to the last token of the last request.
    pub makespan: Seconds,
    /// Time-to-first-token summary.
    pub ttft: LatencyStats,
    /// Time-per-output-token summary (multi-token requests only).
    pub tpot: LatencyStats,
    /// End-to-end latency summary.
    pub e2e: LatencyStats,
    /// The SLO the run was scored against.
    pub slo: SloConfig,
    /// Fraction of completed requests meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second of makespan.
    pub goodput_rps: f64,
    /// All completions per second of makespan.
    pub throughput_rps: f64,
    /// Generated tokens per second of makespan (all groups).
    pub tokens_per_sec: f64,
    /// Prefill iterations across all groups.
    pub prefill_steps: u64,
    /// Decode iterations across all groups.
    pub decode_steps: u64,
    /// Requests dispatched to each replica group, in group order.
    pub per_group_requests: Vec<usize>,
    /// Time-weighted mean waiting-queue depth: total depth×time area
    /// over total simulated group-time (same contract as
    /// [`elk_serve::ServingReport`]).
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed on any group at any instant.
    pub max_queue_depth: usize,
    /// `(time, waiting)` depth transitions, all groups interleaved in
    /// time order — the same timestamped shape `elk-serve` reports.
    pub queue_depth: Vec<(Seconds, usize)>,
    /// Simulation-kernel events fired (arrivals + step completions).
    pub sim_events: u64,
    /// Largest future-event heap the shared kernel held at once — the
    /// memory-pressure proxy matching `sim_events`' throughput one.
    pub peak_event_queue_len: usize,
    /// Per-request timelines, in trace order (`replica` is the group).
    pub outcomes: Vec<RequestOutcome>,
}

/// Typed events on the shared routed timeline: the two every front-end
/// fires, plus the front-end's own.
pub(crate) enum Ev<X> {
    /// The request at this trace index reaches the front-end router.
    Arrival(usize),
    /// This group's in-flight scheduler step completes.
    StepDone(usize),
    /// An event of the front-end (see [`Front::Event`]).
    Front(X),
}

/// The kernel a front-end `F` schedules on.
pub(crate) type Queue<F> = EventQueue<Ev<<F as Front>::Event>>;

/// What a front-end adds to the shared routed loop. Every provided
/// hook is the plain engine's behaviour, so [`Open`] overrides none.
pub(crate) trait Front {
    /// The front-end's own events.
    type Event;
    /// The kernel track the loop's dispatch spans land on.
    const TRACK: &'static str;
    /// The priority step completions fire at.
    const STEP_DONE: u8 = PRIO_STEP_DONE;

    /// Dispatch labels of the kernel's priority levels.
    fn classes(&self) -> Vec<(u8, &'static str)> {
        vec![(PRIO_ARRIVAL, "arrival"), (Self::STEP_DONE, "step_done")]
    }

    /// The priority request `idx` arrives at and queues by: a group's
    /// waiting queue stays sorted by it, FIFO among equals.
    fn priority(&self, _idx: usize) -> u8 {
        PRIO_ARRIVAL
    }

    /// The model (pricer index) serving request `idx`.
    fn model(&self, _idx: usize) -> usize {
        0
    }

    /// Schedules the front-end's opening events, after every arrival.
    fn open(&mut self, _q: &mut Queue<Self>) {}

    /// Whether request `idx`, first offered at `q.now()`, is routed
    /// now.
    fn admit(&mut self, _q: &mut Queue<Self>, _idx: usize) -> bool {
        true
    }

    /// Handles a front-end event at `q.now()`; `Some(idx)` routes
    /// request `idx`.
    fn handle(&mut self, _: &mut Queue<Self>, _: &[Group], _: Self::Event) -> Option<usize> {
        None
    }

    /// Whether group `gid` takes new arrivals. The loop masks the
    /// others out of the router's outstanding counts, which is exact
    /// for [`RouterPolicy::LeastOutstanding`].
    fn routable(&self, _gid: usize) -> bool {
        true
    }

    /// The total waiting depth over all groups changed to `waiting`.
    fn waiting(&mut self, _now: Seconds, _waiting: usize) {}

    /// A request finished.
    fn completed(&mut self, _outcome: &RequestOutcome) {}

    /// Group `gid` had no step to start at `now`.
    fn idle(&mut self, _gid: usize, _now: Seconds, _group: &Group) {}
}

/// The plain routed engine's front-end: every arrival is admitted.
pub(crate) struct Open;

impl Front for Open {
    type Event = std::convert::Infallible;
    const TRACK: &'static str = "cluster/kernel";
}

/// What the shared loop leaves for a front-end to summarize.
pub(crate) struct Replay {
    pub groups: Vec<Group>,
    /// In trace order; `None` for a request that never ran.
    pub outcomes: Vec<Option<RequestOutcome>>,
    /// Kernel events fired and the peak heap length.
    pub kernel: (u64, usize),
}

impl Replay {
    /// The outcomes of a run that drains every request.
    pub fn all_outcomes(&mut self) -> Vec<RequestOutcome> {
        let outcomes = std::mem::take(&mut self.outcomes).into_iter();
        outcomes
            .map(|o| o.expect("the drain completes every request"))
            .collect()
    }
}

/// Trace-driven cluster serving simulator for one (pod, model, plan).
///
/// Owns the group-level `DesignRunner` (fitted cost model) and the
/// shared single-flight `PlanCache`, so consecutive runs — across
/// designs and router policies — reuse stage catalogs and compiled
/// plans.
#[derive(Debug)]
pub struct ClusterServingSim {
    config: ClusterServeConfig,
    /// One pricer per served model, all over one plan cache.
    pub(crate) pricers: Vec<StepPricer>,
    pub(crate) obs: Obs,
}

impl ClusterServingSim {
    /// Creates a simulator for `config` on the pod `system`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when the plan does not fit the pod or
    /// the model. Only the structural constraints apply — step batches
    /// are dynamic, and a `dp` beyond a short trace's request count
    /// merely leaves the extra groups idle.
    pub fn new(system: SystemConfig, config: ClusterServeConfig) -> Result<Self, ClusterError> {
        config.batch.validate();
        let model = [config.model.clone()];
        ClusterServingSim::serving(&system, config, &model)
    }

    /// A simulator serving `models` (index 0 first) on `config.plan`'s
    /// groups, after checking the plan fits each. Pricers share one
    /// single-flight cache: keys carry the model name, so distinct
    /// models share compile work without collisions.
    pub(crate) fn serving(
        system: &SystemConfig,
        config: ClusterServeConfig,
        models: &[TransformerConfig],
    ) -> Result<Self, ClusterError> {
        for model in models {
            config
                .plan
                .validate_structure(system, model)
                .map_err(ClusterError::Invalid)?;
        }
        let cache = Arc::new(PlanCache::new().with_threads(config.threads));
        let pricers = models
            .iter()
            .map(|m| {
                let cache = Arc::clone(&cache);
                StepPricer::with_cache(system, m.clone(), config.plan, config.sim, cache)
            })
            .collect();
        Ok(ClusterServingSim {
            config,
            pricers,
            obs: Obs::null(),
        })
    }

    /// Attaches an observation handle: kernel dispatch spans on the
    /// shared timeline, per-request lanes tagged with their group, and
    /// latency histograms. The event loop is sequential, so recording
    /// goes straight to the shared sink and stays deterministic.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterServeConfig {
        &self.config
    }

    /// Cumulative plan-cache counters (across all runs so far). Not part
    /// of any emitted report — the hit/miss split shifts with the
    /// compile worker count.
    #[must_use]
    pub fn cache_stats(&self) -> elk_serve::CacheStats {
        self.pricers[0].cache_stats()
    }

    /// Serves `trace` under `design`, dispatching with `policy`, and
    /// reports request-level metrics. The plan cache persists across
    /// calls, so a second design or policy reuses compiled stages.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`].
    pub fn run(
        &mut self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
    ) -> Result<ClusterServingReport, ClusterError> {
        let stats_before = self.cache_stats();
        let mut run = self.replay(&mut Open, design, policy, trace)?;
        let outcomes = run.all_outcomes();
        if self.obs.enabled() {
            let d = self.cache_stats().since(stats_before);
            self.obs.counter("cluster.cache.lookups", d.hits + d.misses);
        }
        record_requests(&self.obs, "cluster", "group", &outcomes);
        Ok(self.summarize(design, policy, trace, run, outcomes))
    }

    /// The routed loop every colocated cluster front-end runs: one
    /// shared kernel timeline on which arrivals and every group's step
    /// completions interleave in global `(time, priority, seq)` order,
    /// so the router observes exactly the state a front-end would see
    /// at the arrival instant. Groups are partitioned round-robin
    /// across the served models, with one `policy` router per model.
    pub(crate) fn replay<F: Front>(
        &self,
        front: &mut F,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
    ) -> Result<Replay, ClusterError> {
        let reqs = &trace.requests;
        let dp = self.config.plan.dp as usize;
        let models = self.pricers.len();
        let model_groups: Vec<Vec<usize>> = (0..models)
            .map(|m| (0..dp).filter(|g| g % models == m).collect())
            .collect();
        let mut routers: Vec<Router> = model_groups
            .iter()
            .map(|gs| Router::new(policy, gs.len()))
            .collect();
        let mut groups: Vec<Group> = (0..dp).map(|_| Group::default()).collect();
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; reqs.len()];
        let mut outstanding: Vec<usize> = Vec::with_capacity(dp);
        let mut waiting = 0usize;

        let mut q: Queue<F> = EventQueue::new();
        q.observe(self.obs.clone(), F::TRACK, &front.classes());
        for (idx, req) in reqs.iter().enumerate() {
            q.schedule(req.arrival, front.priority(idx), Ev::Arrival(idx));
        }
        front.open(&mut q);

        while let Some(fired) = q.pop() {
            let now = q.now();
            let offered = match fired.event {
                Ev::Arrival(idx) => front.admit(&mut q, idx).then_some(idx),
                Ev::StepDone(gid) => {
                    groups[gid].finish_step(gid, now, reqs, &mut outcomes, |o| front.completed(o));
                    None
                }
                Ev::Front(event) => front.handle(&mut q, &groups, event),
            };
            if let Some(idx) = offered {
                let m = front.model(idx);
                let load = |g: usize| front.routable(g).then(|| groups[g].outstanding());
                outstanding.clear();
                outstanding.extend(
                    model_groups[m]
                        .iter()
                        .map(|&g| load(g).unwrap_or(usize::MAX)),
                );
                let gid = model_groups[m][routers[m].route(&outstanding)];
                debug_assert!(front.routable(gid), "routed to a masked group");
                let prio = front.priority(idx);
                groups[gid].enqueue_before(now, idx, |w| front.priority(w) > prio);
                waiting += 1;
                front.waiting(now, waiting);
            }
            // Defer dispatch until every event at this instant has
            // fired, then scan groups in index order (deterministic).
            if q.peek_time() == Some(now) {
                continue;
            }
            for (gid, group) in groups.iter_mut().enumerate() {
                let price = |wl| self.pricers[gid % models].split_step(design, wl);
                match group.start_step(now, &self.config.batch, reqs, price)? {
                    Some((latency, admitted)) => {
                        if admitted > 0 {
                            waiting -= admitted;
                            front.waiting(now, waiting);
                        }
                        q.schedule_after(latency, F::STEP_DONE, Ev::StepDone(gid));
                    }
                    None => front.idle(gid, now, group),
                }
            }
        }
        Ok(Replay {
            groups,
            outcomes,
            kernel: (q.events_processed(), q.peak_len()),
        })
    }

    /// Folds a routed run into the cluster report. `outcomes` are the
    /// completed requests: fewer than the trace's when some were
    /// rejected.
    pub(crate) fn summarize(
        &self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
        run: Replay,
        outcomes: Vec<RequestOutcome>,
    ) -> ClusterServingReport {
        let config = &self.config;
        let pool = PoolSummary::of(run.groups.into_iter().map(|g| g.stats));
        let (sim_events, peak_event_queue_len) = run.kernel;
        let summary = RequestSummary::of(&outcomes, config.slo, pool.makespan);
        ClusterServingReport {
            design,
            policy,
            plan: config.plan,
            requests: trace.len(),
            completed: outcomes.len(),
            makespan: pool.makespan,
            ttft: summary.ttft,
            tpot: summary.tpot,
            e2e: summary.e2e,
            slo: summary.slo,
            slo_attainment: summary.slo_attainment,
            goodput_rps: summary.goodput_rps,
            throughput_rps: summary.throughput_rps,
            tokens_per_sec: summary.tokens_per_sec,
            prefill_steps: pool.prefill_steps,
            decode_steps: pool.decode_steps,
            per_group_requests: pool.per_group_requests,
            mean_queue_depth: pool.mean_queue_depth,
            max_queue_depth: pool.max_queue_depth,
            queue_depth: pool.queue_depth,
            sim_events,
            peak_event_queue_len,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{ArrivalProcess, LengthDist, TraceConfig};

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

    #[test]
    fn recorded_timeline_is_byte_identical_across_thread_counts() {
        use elk_obs::export::{chrome_trace, metrics};
        use elk_obs::MemRecorder;
        use std::sync::Arc;

        let trace = tiny_trace(14);
        let run = |threads: usize| {
            let mut sim = ClusterServingSim::new(
                presets::ipu_pod4(),
                ClusterServeConfig {
                    threads,
                    ..tiny_config(ParallelismPlan::new(2, 1, 2))
                },
            )
            .unwrap();
            let rec = Arc::new(MemRecorder::new());
            sim.set_obs(Obs::new(rec.clone(), 64));
            sim.run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
                .unwrap();
            let buf = rec.take_buf();
            (
                serde_json::to_string(&chrome_trace(&buf)).unwrap(),
                serde_json::to_string(&metrics(&buf)).unwrap(),
            )
        };
        let (t1_trace, t1_metrics) = run(1);
        let (t4_trace, t4_metrics) = run(4);
        assert_eq!(t1_trace, t4_trace, "timeline must not depend on threads");
        assert_eq!(t1_metrics, t4_metrics, "metrics must not depend on threads");
        assert!(t1_trace.contains("req/"), "per-request lanes recorded");
        assert!(t1_trace.contains("cluster/kernel"), "kernel track recorded");
        assert!(t1_metrics.contains("cluster.cache.lookups"));
        assert!(t1_metrics.contains("cluster.ttft"));
    }

    #[test]
    fn every_request_completes_under_every_policy() {
        let trace = tiny_trace(14);
        let mut sim = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(2, 1, 2)),
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let r = sim.run(Design::ElkFull, policy, &trace).unwrap();
            assert_eq!(r.completed, 14, "{policy}");
            assert_eq!(r.per_group_requests.iter().sum::<usize>(), 14);
            for o in &r.outcomes {
                assert!(o.first_token > o.arrival, "{policy}");
                assert!(o.completion >= o.first_token);
                assert!(o.replica < 2);
            }
        }
    }

    #[test]
    fn least_outstanding_steers_around_a_busy_group() {
        // One giant request arrives first and monopolizes whichever
        // group receives it; the rest trickle in afterwards. A blind
        // round-robin keeps alternating onto the busy group; the
        // load-aware policy routes everything else to the idle one.
        let mut requests = vec![elk_serve::Request {
            id: 0,
            arrival: Seconds::ZERO,
            prompt_len: 512,
            output_len: 4000,
        }];
        for i in 1..9u64 {
            requests.push(elk_serve::Request {
                id: i,
                arrival: Seconds::from_millis(10.0 * i as f64),
                prompt_len: 256,
                output_len: 2,
            });
        }
        let trace = RequestTrace::from_requests(requests);
        let mut sim = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2)),
        )
        .unwrap();
        let rr = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
            .unwrap();
        let lo = sim
            .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
            .unwrap();
        assert_eq!(rr.completed, lo.completed);
        let busy = lo.outcomes[0].replica;
        let sent_to_busy = |r: &ClusterServingReport, g: usize| {
            r.outcomes[1..].iter().filter(|o| o.replica == g).count()
        };
        assert!(
            sent_to_busy(&lo, busy) < sent_to_busy(&rr, rr.outcomes[0].replica),
            "least-outstanding must send fewer trailing requests to the busy group \
             ({} vs {})",
            sent_to_busy(&lo, busy),
            sent_to_busy(&rr, rr.outcomes[0].replica)
        );
        assert!(lo.e2e.mean <= rr.e2e.mean, "steering must pay off here");
    }

    #[test]
    fn pipeline_plan_serves_and_reuses_the_stage_cache() {
        let trace = tiny_trace(6);
        let mut sim = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 2, 2)),
        )
        .unwrap();
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
            .unwrap();
        assert_eq!(r.completed, 6);
        let after_first = sim.cache_stats();
        assert!(after_first.misses > 0);
        // Same design again: everything cached.
        let r2 = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
            .unwrap();
        assert_eq!(sim.cache_stats().misses, after_first.misses);
        assert_eq!(r.outcomes, r2.outcomes, "replay is deterministic");
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let trace = tiny_trace(10);
        let plan = ParallelismPlan::new(2, 2, 1);
        let mut seq = ClusterServingSim::new(presets::ipu_pod4(), tiny_config(plan)).unwrap();
        let mut par = ClusterServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                threads: 4,
                ..tiny_config(plan)
            },
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let a = seq.run(Design::ElkFull, policy, &trace).unwrap();
            let b = par.run(Design::ElkFull, policy, &trace).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{policy}: cluster serving must be byte-identical across thread counts"
            );
        }
    }

    #[test]
    fn oversized_plan_is_rejected_up_front() {
        let e = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(4, 1, 2)),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(e.to_string().contains("chips"), "{e}");
    }
}
