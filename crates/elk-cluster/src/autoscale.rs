//! Autoscaling cluster serving: an elastic `dp` fleet on the shared
//! deterministic event kernel.
//!
//! [`AutoscaleServingSim`] replays a request trace like
//! [`ClusterServingSim`](crate::ClusterServingSim), but the number of
//! live replica groups is controlled at runtime: a periodic controller
//! compares the **time-weighted waiting-queue depth** per ready group
//! and the **windowed SLO attainment** against thresholds and grows or
//! shrinks the ready set between `min_groups` and `max_groups`.
//!
//! Spinning up a group is not free: the group must compile its stage
//! plans, so its cold start equals its plan-compilation cost —
//! [`AutoscaleConfig::cold_start_steps`] warm-up step latencies priced
//! through the same single-flight `PlanCache` the serving steps use.
//! Once the fleet has compiled the warm-up shapes, later spin-ups are
//! warm starts (the cache already holds the plans) and become ready
//! immediately — the cold/warm-start dynamic FaaS simulators model for
//! containers, with plan compilation as the cold path.
//!
//! Everything runs on the [`elk_sim_core`] kernel in one global event
//! order, the controller included, so reports are byte-identical at
//! any compile-thread count. No wall-clock quantity may be added to
//! [`AutoscaleReport`] — see the `PlanSearchStats` convention in
//! `elk-spec`.

use serde::Serialize;

use elk_baselines::Design;
use elk_hw::SystemConfig;
use elk_model::Phase;
use elk_obs::Obs;
use elk_serve::{
    record_requests, Group, LatencyStats, PoolSummary, RequestOutcome, RequestSummary,
    RequestTrace, SloConfig,
};
use elk_sim_core::{EventQueue, PRIO_ARRIVAL, PRIO_STEP_DONE};
use elk_units::Seconds;

use crate::plan::ParallelismPlan;
use crate::pricing::StepPricer;
use crate::serve::ClusterServeConfig;
use crate::ClusterError;

/// Controller events fire after every arrival and step completion at
/// the same instant, so scaling decisions see settled state.
const PRIO_CONTROL: u8 = 2;

/// Autoscaling controller policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutoscaleConfig {
    /// Groups provisioned at trace start and the floor the controller
    /// never shrinks below (`>= 1`).
    pub min_groups: u64,
    /// Ceiling on simultaneously provisioned groups; `tp * pp *
    /// max_groups` must fit the pod.
    pub max_groups: u64,
    /// Controller decision cadence (simulated seconds).
    pub interval: Seconds,
    /// Scale up when the window's time-weighted waiting depth per
    /// ready group exceeds this.
    pub up_queue_depth: f64,
    /// Scale down when the per-group depth falls below this (and the
    /// SLO target holds).
    pub down_queue_depth: f64,
    /// Windowed SLO-attainment floor: attainment below this also
    /// triggers a scale-up, and blocks scale-downs.
    pub slo_target: f64,
    /// Cold-start size: warm-up step latencies a fresh group pays
    /// before it can serve, priced through the plan cache.
    pub cold_start_steps: f64,
}

impl Default for AutoscaleConfig {
    /// One always-on group, up to four, quarter-second decisions.
    fn default() -> Self {
        AutoscaleConfig {
            min_groups: 1,
            max_groups: 4,
            interval: Seconds::new(0.25),
            up_queue_depth: 4.0,
            down_queue_depth: 0.5,
            slo_target: 0.9,
            cold_start_steps: 25.0,
        }
    }
}

impl AutoscaleConfig {
    fn validate(&self) -> Result<(), ClusterError> {
        let fail = |msg: String| Err(ClusterError::Invalid(msg));
        if self.min_groups < 1 {
            return fail("autoscale min_groups must be >= 1".into());
        }
        if self.max_groups < self.min_groups {
            return fail(format!(
                "autoscale max_groups ({}) must be >= min_groups ({})",
                self.max_groups, self.min_groups
            ));
        }
        if self.interval.as_secs() <= 0.0 {
            return fail("autoscale interval must be > 0".into());
        }
        if !(self.down_queue_depth >= 0.0 && self.up_queue_depth > self.down_queue_depth) {
            return fail(format!(
                "autoscale thresholds need up_queue_depth ({}) > down_queue_depth ({}) >= 0",
                self.up_queue_depth, self.down_queue_depth
            ));
        }
        if !(0.0..=1.0).contains(&self.slo_target) {
            return fail(format!(
                "autoscale slo_target must be in [0, 1], got {}",
                self.slo_target
            ));
        }
        if self.cold_start_steps < 0.0 {
            return fail("autoscale cold_start_steps must be >= 0".into());
        }
        Ok(())
    }
}

/// A fleet transition, in controller order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScaleEventKind {
    /// The controller provisioned the group (it starts warming, or is
    /// ready at once on a warm start).
    Up,
    /// The group finished its cold start and joined the ready set.
    Ready,
    /// The controller marked the group draining: no new requests, and
    /// it leaves once its queue empties.
    Down,
    /// A drained group released its chips.
    Off,
}

/// One entry of the fleet transition log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScaleEvent {
    /// Simulated time of the transition.
    pub time: Seconds,
    /// What happened.
    pub kind: ScaleEventKind,
    /// The group it happened to.
    pub group: usize,
    /// Ready groups immediately after the transition.
    pub ready: usize,
    /// Cold-start delay paid (`Up` only; zero on warm starts and
    /// reactivations).
    pub cold_start: Seconds,
}

/// Aggregated result of one autoscaled serving run. Deterministic: no
/// wall-clock fields, byte-identical at any `threads` setting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AutoscaleReport {
    /// The design that served the trace.
    pub design: Design,
    /// Group shape and fleet ceiling: `(tp, pp, max_groups)`.
    pub plan: ParallelismPlan,
    /// Fleet floor.
    pub min_groups: u64,
    /// Fleet ceiling.
    pub max_groups: u64,
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
    /// Requests dispatched to each group slot, in slot order.
    pub per_group_requests: Vec<usize>,
    /// Time-weighted mean waiting-queue depth (same contract as
    /// [`ClusterServingReport`](crate::ClusterServingReport)).
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed on any group at any instant.
    pub max_queue_depth: usize,
    /// `(time, waiting)` depth transitions, all groups interleaved.
    pub queue_depth: Vec<(Seconds, usize)>,
    /// Up transitions the controller issued (initial provisioning
    /// included).
    pub scale_ups: u64,
    /// Down transitions the controller issued.
    pub scale_downs: u64,
    /// Spin-ups that paid a fresh plan compile (the rest were warm).
    pub cold_starts: u64,
    /// Total simulated seconds spent in cold starts.
    pub cold_start_total: Seconds,
    /// Provisioned chip-time: Σ over groups of (time from `Up` to
    /// `Off` or makespan) × `tp` × `pp`, in chip-seconds. The
    /// autoscaler's cost side; compare against `dp × tp × pp ×
    /// makespan` for a static fleet.
    pub chip_seconds: f64,
    /// Most groups simultaneously provisioned (warming included).
    pub peak_groups: usize,
    /// The fleet transition log, time-monotone.
    pub transitions: Vec<ScaleEvent>,
    /// Simulation-kernel events fired (arrivals, step completions,
    /// controller ticks, ready events).
    pub sim_events: u64,
    /// Per-request timelines, in trace order (`replica` is the group).
    pub outcomes: Vec<RequestOutcome>,
}

/// Lifecycle of a group slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum GroupState {
    /// Released: no chips held, receives nothing.
    #[default]
    Off,
    /// Provisioned, compiling its plans; receives nothing yet.
    Warming,
    /// Serving and eligible for new arrivals.
    Ready,
    /// Finishing its queue; receives no new arrivals.
    Draining,
}

/// Events on the autoscaled fleet's shared timeline.
enum Ev {
    /// The request at this trace index reaches the front-end router.
    Arrival(usize),
    /// This group's in-flight scheduler step completes.
    StepDone {
        /// Index of the group whose step finished.
        gid: usize,
    },
    /// This group's cold start finishes.
    GroupReady {
        /// Index of the group that finished warming.
        gid: usize,
    },
    /// Periodic controller decision point.
    ScaleTick,
}

/// One group slot: the colocated group plus its fleet lifecycle.
#[derive(Default)]
struct Slot {
    group: Group,
    state: GroupState,
    /// When the slot was last provisioned (None while off).
    on_since: Option<Seconds>,
    /// Accumulated provisioned time from finished on-intervals.
    on_time: Seconds,
}

/// Trace-driven serving simulator with an elastic group fleet.
///
/// Owns the same `StepPricer` machinery as
/// [`ClusterServingSim`](crate::ClusterServingSim): stage plans live in
/// one single-flight cache, so serving steps and cold-start warm-ups
/// price identically and consecutive runs reuse compiled stages.
#[derive(Debug)]
pub struct AutoscaleServingSim {
    config: ClusterServeConfig,
    auto: AutoscaleConfig,
    pricer: StepPricer,
    obs: Obs,
}

impl AutoscaleServingSim {
    /// Creates a simulator on the pod `system`. The `(tp, pp)` of
    /// `config.plan` shapes every group; its `dp` is ignored — the
    /// fleet runs between `auto.min_groups` and `auto.max_groups`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when the controller config is
    /// ill-formed or `tp * pp * max_groups` does not fit the pod.
    pub fn new(
        system: SystemConfig,
        config: ClusterServeConfig,
        auto: AutoscaleConfig,
    ) -> Result<Self, ClusterError> {
        config.batch.validate();
        auto.validate()?;
        let plan = ParallelismPlan::new(config.plan.tp, config.plan.pp, auto.max_groups);
        plan.validate_structure(&system, &config.model)
            .map_err(ClusterError::Invalid)?;
        let config = ClusterServeConfig { plan, ..config };
        let pricer = StepPricer::new(
            &system,
            config.model.clone(),
            config.plan,
            config.sim,
            config.threads,
        );
        Ok(AutoscaleServingSim {
            config,
            auto,
            pricer,
            obs: Obs::null(),
        })
    }

    /// Attaches a recorder: subsequent runs emit kernel dispatch spans,
    /// per-request lanes, fleet-transition instants on the `fleet`
    /// track, and `autoscale.*` metrics. All recorded quantities are
    /// sim-time only and byte-identical across `threads` settings.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration (with `plan.dp` set to `max_groups`).
    #[must_use]
    pub fn config(&self) -> &ClusterServeConfig {
        &self.config
    }

    /// The controller policy.
    #[must_use]
    pub fn autoscale_config(&self) -> &AutoscaleConfig {
        &self.auto
    }

    /// The cold-start delay a fresh (cache-cold) group pays under
    /// `design` for a trace whose longest prompt is `prompt_hint`
    /// tokens: [`AutoscaleConfig::cold_start_steps`] × the warm-up
    /// shape set's step latencies, priced through the plan cache.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`].
    pub fn cold_start_cost(
        &self,
        design: Design,
        prompt_hint: u64,
    ) -> Result<Seconds, ClusterError> {
        let batch = &self.config.batch;
        let warmup = [
            batch.step_workload(Phase::Prefill, 1, prompt_hint),
            batch.step_workload(Phase::Decode, batch.max_batch, prompt_hint),
        ];
        let mut total = Seconds::ZERO;
        for wl in warmup {
            total += self.pricer.split_step(design, wl)?;
        }
        Ok(Seconds::new(total.as_secs() * self.auto.cold_start_steps))
    }

    /// Serves `trace` under `design` with the elastic fleet and
    /// reports request-level metrics plus the scale transition log.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`].
    pub fn run(
        &mut self,
        design: Design,
        trace: &RequestTrace,
    ) -> Result<AutoscaleReport, ClusterError> {
        let max = self.auto.max_groups as usize;
        let min = self.auto.min_groups as usize;
        let reqs = &trace.requests;
        let mut slots: Vec<Slot> = (0..max).map(|_| Slot::default()).collect();
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
        let mut transitions: Vec<ScaleEvent> = Vec::new();
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.observe(
            self.obs.clone(),
            "autoscale/kernel",
            &[
                (PRIO_ARRIVAL, "arrival"),
                (PRIO_STEP_DONE, "step_done"),
                (PRIO_CONTROL, "control"),
            ],
        );

        // The warm-up shape set prices against the trace's worst-case
        // prompt, so the cold start covers the plans the group will
        // actually need.
        let prompt_hint = reqs.iter().map(|r| r.prompt_len).max().unwrap_or(1);
        let cold_cost = self.cold_start_cost(design, prompt_hint)?;
        // `true` once any group's spin-up has compiled the warm-up
        // shapes this run: later spin-ups hit the shared cache and
        // start warm. Deliberately NOT read from PlanCache counters —
        // those shift with the compile worker count.
        let mut fleet_warm = false;

        let ready_count = |slots: &[Slot]| {
            slots
                .iter()
                .filter(|s| s.state == GroupState::Ready)
                .count()
        };

        // The floor fleet is provisioned before the trace window opens.
        for (gid, slot) in slots.iter_mut().enumerate().take(min) {
            slot.state = GroupState::Ready;
            slot.on_since = Some(Seconds::ZERO);
            transitions.push(ScaleEvent {
                time: Seconds::ZERO,
                kind: ScaleEventKind::Up,
                group: gid,
                ready: gid,
                cold_start: Seconds::ZERO,
            });
            transitions.push(ScaleEvent {
                time: Seconds::ZERO,
                kind: ScaleEventKind::Ready,
                group: gid,
                ready: gid + 1,
                cold_start: Seconds::ZERO,
            });
        }

        for (idx, req) in reqs.iter().enumerate() {
            q.schedule(req.arrival, PRIO_ARRIVAL, Ev::Arrival(idx));
        }
        if !trace.is_empty() {
            q.schedule(self.auto.interval, PRIO_CONTROL, Ev::ScaleTick);
        }

        let mut completed = 0usize;
        let mut window_completed = 0usize;
        let mut window_met = 0usize;
        let mut area_prev = 0.0f64;
        let mut scale_ups = min as u64;
        let mut scale_downs = 0u64;
        let mut cold_starts = 0u64;
        let mut cold_start_total = Seconds::ZERO;
        let mut on_now = min;
        let mut peak_groups = min;

        while let Some(fired) = q.pop() {
            let now = q.now();
            match fired.event {
                Ev::Arrival(idx) => {
                    // Least-outstanding over the ready set, lowest
                    // index on ties — deterministic, and requests are
                    // never routed to warming or draining groups.
                    let pick = slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.state == GroupState::Ready)
                        .min_by_key(|(gid, s)| (s.group.outstanding(), *gid))
                        .map(|(gid, _)| gid)
                        .expect("the fleet floor keeps >= 1 group ready");
                    slots[pick].group.enqueue(now, idx);
                }
                Ev::StepDone { gid } => {
                    let slo = self.config.slo;
                    slots[gid]
                        .group
                        .finish_step(gid, now, reqs, &mut outcomes, |o| {
                            completed += 1;
                            window_completed += 1;
                            window_met += usize::from(o.meets(&slo));
                        });
                }
                Ev::GroupReady { gid } => {
                    let slot = &mut slots[gid];
                    debug_assert_eq!(slot.state, GroupState::Warming);
                    slot.state = GroupState::Ready;
                    transitions.push(ScaleEvent {
                        time: now,
                        kind: ScaleEventKind::Ready,
                        group: gid,
                        ready: ready_count(&slots),
                        cold_start: Seconds::ZERO,
                    });
                }
                Ev::ScaleTick => {
                    let ready = ready_count(&slots);
                    let area_now: f64 = slots
                        .iter()
                        .map(|s| s.group.stats.queue.area_until(now))
                        .sum();
                    let depth =
                        (area_now - area_prev) / self.auto.interval.as_secs() / ready.max(1) as f64;
                    area_prev = area_now;
                    let attainment = if window_completed > 0 {
                        window_met as f64 / window_completed as f64
                    } else {
                        1.0
                    };
                    window_completed = 0;
                    window_met = 0;
                    let warming = slots.iter().any(|s| s.state == GroupState::Warming);
                    let overloaded =
                        depth > self.auto.up_queue_depth || attainment < self.auto.slo_target;
                    let idle =
                        depth < self.auto.down_queue_depth && attainment >= self.auto.slo_target;
                    // One transition per tick, and none while a group
                    // warms — a cooldown so the controller waits for
                    // ordered capacity before ordering more.
                    if !warming && overloaded && ready < max {
                        scale_ups += 1;
                        if let Some(gid) =
                            slots.iter().position(|s| s.state == GroupState::Draining)
                        {
                            // Cheapest capacity first: a draining group
                            // is still warm and running — reactivate.
                            slots[gid].state = GroupState::Ready;
                            transitions.push(ScaleEvent {
                                time: now,
                                kind: ScaleEventKind::Up,
                                group: gid,
                                ready: ready_count(&slots),
                                cold_start: Seconds::ZERO,
                            });
                            transitions.push(ScaleEvent {
                                time: now,
                                kind: ScaleEventKind::Ready,
                                group: gid,
                                ready: ready_count(&slots),
                                cold_start: Seconds::ZERO,
                            });
                        } else if let Some(gid) =
                            slots.iter().position(|s| s.state == GroupState::Off)
                        {
                            let cold = if fleet_warm { Seconds::ZERO } else { cold_cost };
                            fleet_warm = true;
                            if cold > Seconds::ZERO {
                                cold_starts += 1;
                                cold_start_total += cold;
                            }
                            let slot = &mut slots[gid];
                            slot.state = GroupState::Warming;
                            slot.on_since = Some(now);
                            on_now += 1;
                            peak_groups = peak_groups.max(on_now);
                            transitions.push(ScaleEvent {
                                time: now,
                                kind: ScaleEventKind::Up,
                                group: gid,
                                ready,
                                cold_start: cold,
                            });
                            q.schedule_after(cold, PRIO_CONTROL, Ev::GroupReady { gid });
                        }
                    } else if !warming && idle && ready > min {
                        // Drain the highest-index ready group: lowest
                        // indices stay the stable core of the fleet.
                        let gid = slots
                            .iter()
                            .rposition(|s| s.state == GroupState::Ready)
                            .expect("ready > min >= 1");
                        scale_downs += 1;
                        slots[gid].state = GroupState::Draining;
                        transitions.push(ScaleEvent {
                            time: now,
                            kind: ScaleEventKind::Down,
                            group: gid,
                            ready: ready_count(&slots),
                            cold_start: Seconds::ZERO,
                        });
                    }
                    if completed < trace.len() {
                        q.schedule_after(self.auto.interval, PRIO_CONTROL, Ev::ScaleTick);
                    }
                }
            }
            // Defer dispatch until every event at this instant has
            // fired, then scan slots in index order (deterministic).
            if q.peek_time() == Some(now) {
                continue;
            }
            for gid in 0..slots.len() {
                let slot = &mut slots[gid];
                if !matches!(slot.state, GroupState::Ready | GroupState::Draining) {
                    continue;
                }
                let price = |wl| self.pricer.split_step(design, wl);
                if let Some((latency, _)) =
                    slot.group
                        .start_step(now, &self.config.batch, reqs, price)?
                {
                    q.schedule_after(latency, PRIO_STEP_DONE, Ev::StepDone { gid });
                } else if slot.state == GroupState::Draining && slot.group.is_drained() {
                    // An idle draining group releases its chips.
                    slot.state = GroupState::Off;
                    if let Some(since) = slot.on_since.take() {
                        slot.on_time += now - since;
                    }
                    on_now -= 1;
                    transitions.push(ScaleEvent {
                        time: now,
                        kind: ScaleEventKind::Off,
                        group: gid,
                        ready: ready_count(&slots),
                        cold_start: Seconds::ZERO,
                    });
                }
            }
        }

        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("the drain completes every request"))
            .collect();
        let sim_events = q.events_processed();
        Ok(self.summarize(
            design,
            trace,
            slots,
            outcomes,
            transitions,
            Summing {
                sim_events,
                scale_ups,
                scale_downs,
                cold_starts,
                cold_start_total,
                peak_groups,
            },
        ))
    }

    /// Folds per-request outcomes into the aggregate report.
    fn summarize(
        &self,
        design: Design,
        trace: &RequestTrace,
        slots: Vec<Slot>,
        outcomes: Vec<RequestOutcome>,
        transitions: Vec<ScaleEvent>,
        extra: Summing,
    ) -> AutoscaleReport {
        if self.obs.enabled() {
            self.obs.counter("autoscale.scale_ups", extra.scale_ups);
            self.obs.counter("autoscale.scale_downs", extra.scale_downs);
            self.obs.counter("autoscale.cold_starts", extra.cold_starts);
            for ev in &transitions {
                let name = match ev.kind {
                    ScaleEventKind::Up => "up",
                    ScaleEventKind::Ready => "ready",
                    ScaleEventKind::Down => "down",
                    ScaleEventKind::Off => "off",
                };
                self.obs.instant(
                    "fleet",
                    name,
                    ev.time,
                    &[
                        ("group", ev.group.to_string()),
                        ("ready", ev.ready.to_string()),
                    ],
                );
                self.obs
                    .gauge("fleet", "ready_groups", ev.time, ev.ready as f64);
            }
        }
        record_requests(&self.obs, "autoscale", "group", &outcomes);
        // Groups still provisioned at the end bill until the makespan.
        let lifecycles: Vec<(Seconds, Option<Seconds>)> =
            slots.iter().map(|s| (s.on_time, s.on_since)).collect();
        let pool = PoolSummary::of(slots.into_iter().map(|s| s.group.stats));
        let summary = RequestSummary::of(&outcomes, self.config.slo, pool.makespan);
        let group_chips = (self.config.plan.tp * self.config.plan.pp) as f64;
        let chip_seconds: f64 = lifecycles
            .into_iter()
            .map(|(mut on, since)| {
                if let Some(since) = since {
                    if pool.makespan > since {
                        on += pool.makespan - since;
                    }
                }
                on.as_secs() * group_chips
            })
            .sum();
        AutoscaleReport {
            design,
            plan: self.config.plan,
            min_groups: self.auto.min_groups,
            max_groups: self.auto.max_groups,
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
            scale_ups: extra.scale_ups,
            scale_downs: extra.scale_downs,
            cold_starts: extra.cold_starts,
            cold_start_total: extra.cold_start_total,
            chip_seconds,
            peak_groups: extra.peak_groups,
            transitions,
            sim_events: extra.sim_events,
            outcomes,
        }
    }
}

/// Controller counters threaded from the event loop to the report.
struct Summing {
    sim_events: u64,
    scale_ups: u64,
    scale_downs: u64,
    cold_starts: u64,
    cold_start_total: Seconds,
    peak_groups: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{BatchConfig, Request, RouterPolicy};
    use elk_units::Seconds;

    fn tiny_config() -> ClusterServeConfig {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        ClusterServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_prefill_tokens: 2048,
                seq_buckets: SeqBuckets::new(256, 2048),
                bucket_batch: true,
            },
            ..ClusterServeConfig::new(model, ParallelismPlan::new(1, 1, 1))
        }
    }

    /// A front-loaded burst: `n` requests in a tight opening volley,
    /// then a sparse tail, so the controller first grows then shrinks.
    fn burst_trace(n: usize) -> RequestTrace {
        let mut requests: Vec<Request> = (0..n as u64)
            .map(|i| Request {
                id: i,
                arrival: Seconds::from_millis(2.0 * i as f64),
                prompt_len: 300 + 37 * (i % 5),
                output_len: 2 + i % 6,
            })
            .collect();
        for i in 0..6u64 {
            requests.push(Request {
                id: n as u64 + i,
                arrival: Seconds::new(3.0 + 0.5 * i as f64),
                prompt_len: 256,
                output_len: 2,
            });
        }
        RequestTrace::from_requests(requests)
    }

    fn sim(auto: AutoscaleConfig) -> AutoscaleServingSim {
        AutoscaleServingSim::new(presets::ipu_pod4(), tiny_config(), auto).expect("valid config")
    }

    fn busy_auto() -> AutoscaleConfig {
        AutoscaleConfig {
            interval: Seconds::new(0.1),
            up_queue_depth: 1.0,
            down_queue_depth: 0.25,
            ..AutoscaleConfig::default()
        }
    }

    #[test]
    fn burst_scales_up_then_back_down() {
        let report = sim(busy_auto())
            .run(Design::ElkFull, &burst_trace(40))
            .expect("runs");
        assert_eq!(report.completed, report.requests);
        assert!(report.scale_ups > 1, "the burst must trigger a spin-up");
        assert!(
            report.scale_downs >= 1,
            "the sparse tail must trigger a drain: {:?}",
            report.transitions
        );
        assert_eq!(report.cold_starts, 1, "first spin-up pays, later are warm");
        assert!(report.cold_start_total > Seconds::ZERO);
        assert!(report.peak_groups > 1);
        assert!(report.chip_seconds > 0.0);
        // The fleet never exceeds its bounds.
        assert!(report.peak_groups <= report.max_groups as usize);
    }

    #[test]
    fn transitions_are_time_monotone_and_consistent() {
        let report = sim(busy_auto())
            .run(Design::ElkFull, &burst_trace(40))
            .expect("runs");
        let mut last = Seconds::ZERO;
        for ev in &report.transitions {
            assert!(ev.time >= last, "transition log must be time-sorted");
            last = ev.time;
        }
        let ups = report
            .transitions
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Up)
            .count() as u64;
        assert_eq!(ups, report.scale_ups);
        // Every Up is eventually matched by a Ready for that group.
        for ev in &report.transitions {
            if ev.kind == ScaleEventKind::Up {
                assert!(
                    report
                        .transitions
                        .iter()
                        .any(|e| e.kind == ScaleEventKind::Ready
                            && e.group == ev.group
                            && e.time >= ev.time),
                    "group {} went up but never ready",
                    ev.group
                );
            }
        }
    }

    #[test]
    fn static_floor_matches_fixed_fleet() {
        // min == max disables scaling: the run must match the plain
        // cluster engine with the same dp and router, event for event.
        let auto = AutoscaleConfig {
            min_groups: 2,
            max_groups: 2,
            ..AutoscaleConfig::default()
        };
        let trace = burst_trace(20);
        let a = sim(auto).run(Design::ElkFull, &trace).expect("autoscaled");
        let mut fixed = crate::ClusterServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                ..ClusterServeConfig {
                    plan: ParallelismPlan::new(1, 1, 2),
                    ..tiny_config()
                }
            },
        )
        .expect("fixed fleet");
        let b = fixed
            .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
            .expect("fixed run");
        assert_eq!(a.outcomes, b.outcomes, "same routing, same timelines");
        assert_eq!(a.prefill_steps, b.prefill_steps);
        assert_eq!(a.decode_steps, b.decode_steps);
        assert_eq!(a.scale_ups, 2, "only the initial provisioning");
        assert_eq!(a.scale_downs, 0);
        assert_eq!(a.cold_starts, 0);
    }

    #[test]
    fn no_request_lands_on_an_unready_group() {
        let report = sim(busy_auto())
            .run(Design::ElkFull, &burst_trace(40))
            .expect("runs");
        // Reconstruct each group's ready intervals from the log and
        // check every outcome's arrival fell inside one.
        for o in &report.outcomes {
            let mut ready_at: Option<Seconds> = None;
            let mut covered = false;
            for ev in &report.transitions {
                if ev.group != o.replica || ev.time > o.arrival {
                    continue;
                }
                match ev.kind {
                    ScaleEventKind::Ready | ScaleEventKind::Up
                        if ev.kind == ScaleEventKind::Ready =>
                    {
                        ready_at = Some(ev.time);
                    }
                    ScaleEventKind::Down | ScaleEventKind::Off => ready_at = None,
                    _ => {}
                }
                covered = ready_at.is_some();
            }
            assert!(
                covered,
                "request {} arrived at {} on group {} outside a ready interval",
                o.id, o.arrival, o.replica
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let trace = burst_trace(30);
        let mut seq = sim(busy_auto());
        let mut par = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                threads: 8,
                ..tiny_config()
            },
            busy_auto(),
        )
        .expect("valid config");
        let a = seq.run(Design::ElkFull, &trace).expect("t1");
        let b = par.run(Design::ElkFull, &trace).expect("t8");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "autoscaled serving must be byte-identical across thread counts"
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        let err = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            tiny_config(),
            AutoscaleConfig {
                min_groups: 0,
                ..AutoscaleConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("min_groups"), "{err}");
        let err = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            tiny_config(),
            AutoscaleConfig {
                max_groups: 8,
                ..AutoscaleConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("chips"), "{err}");
        let err = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            tiny_config(),
            AutoscaleConfig {
                up_queue_depth: 0.1,
                down_queue_depth: 0.5,
                ..AutoscaleConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("up_queue_depth"), "{err}");
    }
}
