//! The serving engine: replays a request trace against compiled plans.
//!
//! Each replica is an event source on the [`elk_sim_core`] kernel:
//! arrivals and step completions are typed events on one total-ordered
//! queue, and the simulation clock only moves when an event fires. A
//! scheduler step compiles (or cache-hits) the Elk plan for its
//! bucketed workload signature and schedules its completion at the
//! simulated step latency from [`elk_sim`]'s `SimReport`. Requests are
//! routed round-robin across `replicas` independent chip groups that
//! share one plan cache.

use std::sync::Arc;

use crate::batcher::BatchConfig;
use crate::cache::PlanCache;
use crate::group::{
    infeasible, record_requests, split_latency, Group, GroupStats, PoolSummary, RequestSummary,
};
use crate::metrics::{RequestOutcome, SloConfig};
use crate::report::ServingReport;
use crate::trace::RequestTrace;
use elk_baselines::{Design, DesignRunner};
use elk_core::CompileError;
use elk_hw::SystemConfig;
use elk_model::TransformerConfig;
use elk_obs::{MemRecorder, Obs, ObsBuf};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, PRIO_ARRIVAL, PRIO_STEP_DONE};

/// Everything a serving run is parameterized by (except the design,
/// which is per-run so designs can share one engine and cache).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Model to serve.
    pub model: TransformerConfig,
    /// Tensor-parallel shard count per replica (chips per chip group).
    pub shards: u64,
    /// Independent chip-group replicas; requests are routed round-robin.
    pub replicas: usize,
    /// Continuous-batching knobs.
    pub batch: BatchConfig,
    /// Latency SLO for goodput accounting.
    pub slo: SloConfig,
    /// Chip-simulator options used when a plan is compiled.
    pub sim: SimOptions,
    /// Worker threads (`1` = fully sequential, `0` = all available
    /// cores). With more than one worker, replica event loops run
    /// concurrently against the shared plan cache and a cache miss
    /// compiles all five designs' plans for the new signature at once
    /// (single-flight deduplicated). Request outcomes and latencies are
    /// identical at any setting; only wall-clock and the hit/miss split
    /// can shift.
    pub threads: usize,
}

impl ServeConfig {
    /// A config serving `model` on `shards`-way tensor parallelism with
    /// one replica and default batching/SLO/simulator knobs.
    #[must_use]
    pub fn new(model: TransformerConfig, shards: u64) -> Self {
        ServeConfig {
            model,
            shards,
            replicas: 1,
            batch: BatchConfig::default(),
            slo: SloConfig::default(),
            sim: SimOptions::default(),
            threads: 1,
        }
    }

    /// Spreads the trace over `n` independent chip-group replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_replicas(mut self, n: usize) -> Self {
        assert!(n > 0, "replica count must be > 0");
        self.replicas = n;
        self
    }

    /// Sets the worker-thread count (`0` = all available cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Trace-driven serving simulator for one (system, model) pair.
///
/// Owns the [`DesignRunner`] (fitted cost model) and the [`PlanCache`],
/// so consecutive [`run`](ServingSim::run) calls — across designs,
/// traces, and replicas — reuse catalogs and compiled plans.
#[derive(Debug)]
pub struct ServingSim {
    runner: DesignRunner,
    config: ServeConfig,
    cache: PlanCache,
    obs: Obs,
}

/// Typed events on a replica's simulation timeline.
enum Ev {
    /// The request at this trace index joins the waiting queue.
    Arrival(usize),
    /// The in-flight scheduler step completes.
    StepDone,
}

/// One replica's event-loop output, merged deterministically by
/// [`ServingSim::run`].
struct ReplicaRun {
    /// `(trace index, outcome)` for every request this replica served.
    outcomes: Vec<(usize, RequestOutcome)>,
    /// The replica's pooled counters.
    stats: GroupStats,
    /// Kernel events fired by this replica's timeline.
    events: u64,
    /// Peak future-event heap size on this replica's kernel.
    peak: usize,
    /// Locally recorded observations, absorbed in replica order by the
    /// parent so the merged stream is thread-schedule independent.
    obs: Option<ObsBuf>,
}

impl ServingSim {
    /// Creates a simulator for `config` on `system`, fitting the
    /// runner's cost model once.
    ///
    /// # Panics
    ///
    /// Panics if `config` is ill-formed (zero batch caps, zero shards
    /// or replicas).
    #[must_use]
    pub fn new(system: SystemConfig, config: ServeConfig) -> Self {
        config.batch.validate();
        assert!(config.shards > 0, "shards must be > 0");
        assert!(config.replicas > 0, "replicas must be > 0");
        let threads = config.threads;
        // The serving pool already parallelizes across replicas and
        // across designs on a cache miss; keep the nested compiler
        // pools sequential so worker counts do not multiply
        // (replicas × designs × candidate orders).
        ServingSim {
            runner: DesignRunner::new(system).with_threads(1),
            config,
            cache: PlanCache::new().with_threads(threads),
            obs: Obs::null(),
        }
    }

    /// Attaches an observation handle: per-replica kernel dispatch
    /// spans, per-request lanes (sampled by trace index), TTFT/TPOT
    /// histograms, and plan-cache counters. Only thread-invariant
    /// quantities are recorded — the raw hit/miss split is not — so
    /// recorded output stays byte-identical at any thread count.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Cumulative plan-cache counters (across all runs so far).
    #[must_use]
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Serves `trace` under `design` and reports request-level metrics.
    /// The plan cache persists across calls, so running a second design
    /// (or the same trace again) reuses catalogs and plans.
    ///
    /// With [`ServeConfig::threads`] > 1, replica event loops run
    /// concurrently on a scoped pool, sharing the single-flight plan
    /// cache; per-replica results merge in replica order, so the
    /// reported outcomes and latencies are identical at any thread
    /// count (replicas are independent given the — deterministic —
    /// cached step latencies).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] if any step shape has no feasible
    /// plan.
    pub fn run(
        &mut self,
        design: Design,
        trace: &RequestTrace,
    ) -> Result<ServingReport, CompileError> {
        let stats_before = self.cache.stats();
        let catalogs_before = self.cache.catalogs();
        // Round-robin request routing: replica r serves indices
        // r, r + R, r + 2R, ... in arrival order.
        let replicas: Vec<usize> = (0..self.config.replicas).collect();
        let this = &*self;
        let runs = elk_par::try_par_map(
            this.config.threads.min(replicas.len()),
            &replicas,
            |_, &replica| this.run_replica(design, trace, replica),
        )?;

        // Deterministic merge in replica order (the same order the
        // sequential loop produced).
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
        let mut stats = Vec::with_capacity(runs.len());
        let mut sim_events = 0u64;
        let mut peak_event_queue_len = 0usize;
        for run in runs {
            for (idx, outcome) in run.outcomes {
                outcomes[idx] = Some(outcome);
            }
            stats.push(run.stats);
            sim_events += run.events;
            peak_event_queue_len = peak_event_queue_len.max(run.peak);
            // Replica buffers fold in replica index order — the same
            // order the sequential loop records in.
            if let Some(buf) = run.obs {
                self.obs.absorb(buf);
            }
        }
        if self.obs.enabled() {
            // Only thread-invariant cache quantities: total lookups and
            // distinct compiled signatures. The hit/miss split (and the
            // per-design plan count) shifts with design warming, so it
            // stays out of the recorded stream.
            let d = self.cache.stats().since(stats_before);
            self.obs.counter("serve.cache.lookups", d.hits + d.misses);
            self.obs.counter(
                "serve.cache.signatures",
                (self.cache.catalogs() - catalogs_before) as u64,
            );
        }

        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every request completes"))
            .collect();
        record_requests(&self.obs, "serve", "replica", &outcomes);
        let pool = PoolSummary::of(stats);
        let summary = RequestSummary::of(&outcomes, self.config.slo, pool.makespan);
        Ok(ServingReport {
            design,
            replicas: self.config.replicas,
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
            mean_queue_depth: pool.mean_queue_depth,
            max_queue_depth: pool.max_queue_depth,
            queue_depth: pool.queue_depth,
            sim_events,
            peak_event_queue_len,
            cache: self.cache.stats().since(stats_before),
            outcomes,
        })
    }

    /// Runs one replica as an event source on the simulation kernel.
    ///
    /// Arrivals fire at class [`PRIO_ARRIVAL`] and step completions at
    /// [`PRIO_STEP_DONE`], so a step finishing at the same instant a
    /// request arrives observes that arrival in its scheduling
    /// decision. Scheduling decisions are deferred until every event at
    /// the current instant has fired.
    fn run_replica(
        &self,
        design: Design,
        trace: &RequestTrace,
        replica: usize,
    ) -> Result<ReplicaRun, CompileError> {
        let assigned: Vec<usize> = (replica..trace.len())
            .step_by(self.config.replicas)
            .collect();
        let reqs = &trace.requests;
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
        let mut group = Group::default();

        // A replica-local recorder: worker threads never write to the
        // shared sink directly, so the merged stream only depends on
        // the (deterministic) absorb order in `run`.
        let rec = self.obs.enabled().then(|| Arc::new(MemRecorder::new()));
        let mut q: EventQueue<Ev> = EventQueue::new();
        if let Some(rec) = &rec {
            q.observe(
                Obs::new(rec.clone(), self.obs.sample()),
                &format!("serve/replica{replica}"),
                &[(PRIO_ARRIVAL, "arrival"), (PRIO_STEP_DONE, "step_done")],
            );
        }
        for &idx in &assigned {
            q.schedule(reqs[idx].arrival, PRIO_ARRIVAL, Ev::Arrival(idx));
        }

        while let Some(fired) = q.pop() {
            let now = q.now();
            match fired.event {
                Ev::Arrival(idx) => group.enqueue(now, idx),
                Ev::StepDone => group.finish_step(replica, now, reqs, &mut outcomes, |_| {}),
            }
            // Defer the scheduling decision until everything at this
            // instant has fired (all simultaneous arrivals admitted,
            // the step completion applied). With no step to run the
            // clock next moves at the following arrival event.
            if q.peek_time() == Some(now) {
                continue;
            }
            let price = |wl| {
                split_latency(
                    wl,
                    &|wl| {
                        self.cache.step_latency(
                            &self.runner,
                            &self.config.model,
                            self.config.shards,
                            design,
                            wl,
                            &self.config.sim,
                        )
                    },
                    infeasible,
                )
            };
            if let Some((latency, _)) = group.start_step(now, &self.config.batch, reqs, price)? {
                q.schedule_after(latency, PRIO_STEP_DONE, Ev::StepDone);
            }
        }
        Ok(ReplicaRun {
            outcomes: assigned
                .iter()
                .map(|&i| (i, outcomes[i].take().expect("assigned request completed")))
                .collect(),
            stats: group.stats,
            events: q.events_processed(),
            peak: q.peak_len(),
            obs: rec.map(|r| r.take_buf()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArrivalProcess, LengthDist, TraceConfig};
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_units::Seconds;

    fn tiny_config() -> ServeConfig {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        ServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_prefill_tokens: 2048,
                seq_buckets: SeqBuckets::new(256, 2048),
                bucket_batch: true,
            },
            ..ServeConfig::new(model, 4)
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
    fn every_request_completes_in_order_consistent_state() {
        let mut sim = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let trace = tiny_trace(20);
        let r = sim.run(Design::ElkFull, &trace).unwrap();
        assert_eq!(r.completed, 20);
        assert_eq!(r.outcomes.len(), 20);
        for o in &r.outcomes {
            assert!(o.first_token > o.arrival);
            assert!(o.completion >= o.first_token);
            if o.output_len > 1 {
                assert!(o.completion > o.first_token);
            }
        }
        assert!(r.makespan >= trace.duration());
        assert!(r.prefill_steps > 0 && r.decode_steps > 0);
    }

    #[test]
    fn empty_trace_yields_zero_report() {
        let mut sim = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let trace = RequestTrace::from_requests(vec![]);
        let r = sim.run(Design::Basic, &trace).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.makespan, Seconds::ZERO);
        assert_eq!(r.throughput_rps, 0.0);
        assert_eq!(r.ttft.n, 0);
    }

    #[test]
    fn replicas_split_the_load() {
        let trace = tiny_trace(16);
        let mut one = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let mut two = ServingSim::new(presets::ipu_pod4(), tiny_config().with_replicas(2));
        let r1 = one.run(Design::ElkFull, &trace).unwrap();
        let r2 = two.run(Design::ElkFull, &trace).unwrap();
        assert_eq!(r2.completed, 16);
        assert_eq!(r2.replicas, 2);
        // Twice the hardware under the same load should not be slower.
        assert!(r2.e2e.mean <= r1.e2e.mean * 1.01);
        let replicas_used: std::collections::HashSet<usize> =
            r2.outcomes.iter().map(|o| o.replica).collect();
        assert_eq!(replicas_used.len(), 2);
    }

    #[test]
    fn parallel_replicas_match_sequential_byte_for_byte() {
        let trace = tiny_trace(16);
        let mut seq = ServingSim::new(presets::ipu_pod4(), tiny_config().with_replicas(2));
        let mut par = ServingSim::new(
            presets::ipu_pod4(),
            tiny_config().with_replicas(2).with_threads(4),
        );
        for design in [Design::ElkFull, Design::Basic] {
            let mut a = seq.run(design, &trace).unwrap();
            let mut b = par.run(design, &trace).unwrap();
            // Outcomes and latencies are thread-count invariant; only
            // the hit/miss split may shift (warming), so blank it for
            // the whole-report comparison.
            a.cache = crate::cache::CacheStats::default();
            b.cache = crate::cache::CacheStats::default();
            assert_eq!(a, b, "{design}: parallel run diverged");
        }
    }

    #[test]
    fn recorded_timeline_is_byte_identical_across_thread_counts() {
        use elk_obs::{export, MemRecorder};

        let trace = tiny_trace(16);
        let run = |threads: usize| {
            let rec = Arc::new(MemRecorder::new());
            let mut sim = ServingSim::new(
                presets::ipu_pod4(),
                tiny_config().with_replicas(2).with_threads(threads),
            );
            sim.set_obs(Obs::new(rec.clone(), 64));
            sim.run(Design::ElkFull, &trace).unwrap();
            let buf = rec.take_buf();
            (
                serde_json::to_string(&export::chrome_trace(&buf)).unwrap(),
                serde_json::to_string(&export::metrics(&buf)).unwrap(),
            )
        };
        let (trace1, metrics1) = run(1);
        let (trace4, metrics4) = run(4);
        assert_eq!(trace1, trace4, "timeline must not depend on thread count");
        assert_eq!(
            metrics1, metrics4,
            "metrics must not depend on thread count"
        );
        assert!(trace1.contains("req/"), "request lanes recorded");
        assert!(trace1.contains("serve/replica1"), "kernel track recorded");
        assert!(metrics1.contains("serve.cache.lookups"));
        assert!(metrics1.contains("serve.cache.signatures"));
    }

    #[test]
    fn cache_hits_accumulate_across_runs() {
        let mut sim = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let trace = tiny_trace(12);
        let first = sim.run(Design::ElkFull, &trace).unwrap();
        let second = sim.run(Design::ElkFull, &trace).unwrap();
        assert!(first.cache.misses > 0);
        assert!(first.cache.hits > 0, "repeated shapes must hit in-run");
        assert_eq!(second.cache.misses, 0, "second run must be fully cached");
        assert!(second.cache.hits > 0);
    }
}
