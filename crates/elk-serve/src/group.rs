//! The colocated group core every request-level engine runs on.
//!
//! A [`Group`] is one chip group's continuous-batching state: a FIFO of
//! waiting trace indices, the decoding set, and at most one scheduler
//! step in flight. Engines keep their own event loop and everything
//! that genuinely differs between them — arrival routing, admission,
//! fleet lifecycle — while the group owns step dispatch
//! ([`Group::start_step`]) and step completion ([`Group::finish_step`]).
//! [`PoolSummary`] and [`RequestSummary`] fold finished groups and
//! request outcomes into the fields every serving report shares, and
//! [`record_requests`] draws the per-request lanes and latency
//! histograms, so each of those exists exactly once.

use elk_core::CompileError;
use elk_model::{Phase, Workload};
use elk_obs::Obs;
use elk_sim_core::QueueStat;
use elk_units::Seconds;

use crate::batcher::{next_step, BatchConfig, StepPlan};
use crate::metrics::{LatencyStats, RequestOutcome, SloConfig};
use crate::trace::Request;

/// A request in a group's decoding set.
#[derive(Debug)]
pub struct InFlight {
    /// Index into the trace's request vector.
    pub idx: usize,
    /// Tokens generated so far (1 after prefill).
    pub generated: u64,
}

/// What a group's in-flight step does when it completes.
#[derive(Debug)]
enum PendingStep {
    /// Prefill of these trace indices; each emits its first token at
    /// completion.
    Prefill {
        /// Trace indices admitted into the step.
        batch: Vec<usize>,
    },
    /// One decode iteration over the whole active set.
    Decode,
}

/// The per-group counters every serving report pools.
#[derive(Debug, Default)]
pub struct GroupStats {
    /// Prefill steps executed.
    pub prefill_steps: u64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Waiting-queue depth trace (transitions + time-weighted area).
    pub queue: QueueStat,
    /// Requests routed to the group.
    pub served: usize,
    /// Completion time of the group's last step.
    pub end: Seconds,
}

/// One colocated chip group's live scheduler state.
#[derive(Debug, Default)]
pub struct Group {
    /// Waiting queue, trace indices in admission order.
    waiting: Vec<usize>,
    /// Active (decoding) requests.
    active: Vec<InFlight>,
    /// The step currently running on the group's chips, if any.
    pending: Option<PendingStep>,
    /// Pooled counters.
    pub stats: GroupStats,
}

impl Group {
    /// Queued + in-flight requests, as a front-end router observes them:
    /// requests inside an unfinished prefill step still count.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        let in_step = match &self.pending {
            Some(PendingStep::Prefill { batch }) => batch.len(),
            _ => 0,
        };
        self.waiting.len() + self.active.len() + in_step
    }

    /// `true` when nothing is waiting, decoding, or in flight.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.waiting.is_empty() && self.active.is_empty() && self.pending.is_none()
    }

    /// Appends trace index `idx` to the waiting queue at `now`.
    pub fn enqueue(&mut self, now: Seconds, idx: usize) {
        self.insert(now, self.waiting.len(), idx);
    }

    /// Inserts trace index `idx` into the waiting queue at `now`, before
    /// the first waiting index `before` accepts (at the back if none).
    pub fn enqueue_before(&mut self, now: Seconds, idx: usize, before: impl Fn(usize) -> bool) {
        let pos = self
            .waiting
            .iter()
            .position(|&w| before(w))
            .unwrap_or(self.waiting.len());
        self.insert(now, pos, idx);
    }

    fn insert(&mut self, now: Seconds, pos: usize, idx: usize) {
        self.waiting.insert(pos, idx);
        self.stats.served += 1;
        self.stats.queue.record(now, self.waiting.len());
    }

    /// Applies the in-flight step's completion at `now`: a prefill emits
    /// each admitted request's first token (tagged with `replica`) and
    /// moves multi-token requests into the decoding set; a decode adds
    /// one token to every active request. `done` sees each request that
    /// finished with this step.
    ///
    /// # Panics
    ///
    /// Panics if no step is in flight.
    pub fn finish_step(
        &mut self,
        replica: usize,
        now: Seconds,
        reqs: &[Request],
        outcomes: &mut [Option<RequestOutcome>],
        mut done: impl FnMut(&RequestOutcome),
    ) {
        match self
            .pending
            .take()
            .expect("a step completion implies a step")
        {
            PendingStep::Prefill { batch } => {
                self.stats.prefill_steps += 1;
                for idx in batch {
                    let req = &reqs[idx];
                    let outcome = RequestOutcome {
                        id: req.id,
                        replica,
                        arrival: req.arrival,
                        first_token: now,
                        completion: now,
                        output_len: req.output_len,
                    };
                    if req.output_len > 1 {
                        self.active.push(InFlight { idx, generated: 1 });
                    } else {
                        done(&outcome);
                    }
                    outcomes[idx] = Some(outcome);
                }
            }
            PendingStep::Decode => {
                self.stats.decode_steps += 1;
                finish_decode(&mut self.active, now, reqs, outcomes, done);
            }
        }
        self.stats.end = now;
    }

    /// Starts the group's next step at `now`, if it is idle and has
    /// work: runs [`next_step`], drains the admitted prefill batch from
    /// the waiting queue (recording the new depth), and prices the
    /// bucketed step workload through `price`. Returns the step latency
    /// and the number of requests admitted from the queue (`0` for a
    /// decode step), or `None` when the group is busy or idle.
    ///
    /// # Errors
    ///
    /// Whatever `price` returns; the group is then left without a step.
    pub fn start_step<E>(
        &mut self,
        now: Seconds,
        batch: &BatchConfig,
        reqs: &[Request],
        price: impl FnOnce(Workload) -> Result<Seconds, E>,
    ) -> Result<Option<(Seconds, usize)>, E> {
        if self.pending.is_some() {
            return Ok(None);
        }
        // next_step never admits more than max_batch requests, so a
        // deep waiting queue need not be materialized in full.
        let prompts: Vec<u64> = self
            .waiting
            .iter()
            .take(batch.max_batch as usize)
            .map(|&i| reqs[i].prompt_len)
            .collect();
        let Some(step) = next_step(batch, &prompts, self.active.len()) else {
            return Ok(None);
        };
        let (wl, pending, admitted) = match step {
            StepPlan::Prefill { admit } => {
                let step_batch: Vec<usize> = self.waiting.drain(..admit).collect();
                self.stats.queue.record(now, self.waiting.len());
                let longest = step_batch
                    .iter()
                    .map(|&i| reqs[i].prompt_len)
                    .max()
                    .expect("prefill admits >= 1");
                let wl = batch.step_workload(Phase::Prefill, step_batch.len() as u64, longest);
                (wl, PendingStep::Prefill { batch: step_batch }, admit)
            }
            StepPlan::Decode => {
                let deepest = self
                    .active
                    .iter()
                    .map(|a| reqs[a.idx].prompt_len + a.generated)
                    .max()
                    .expect("decode requires >= 1 active");
                let wl = batch.step_workload(Phase::Decode, self.active.len() as u64, deepest);
                (wl, PendingStep::Decode, 0)
            }
        };
        let latency = price(wl)?;
        self.pending = Some(pending);
        Ok(Some((latency, admitted)))
    }
}

/// One decode iteration over `active` completing at `now`: every
/// request gains a token and its outcome's completion moves to `now`;
/// requests that reached their output length leave the set and are
/// passed to `done`.
///
/// # Panics
///
/// Panics if an active request has no outcome (it never prefilled).
pub fn finish_decode(
    active: &mut Vec<InFlight>,
    now: Seconds,
    reqs: &[Request],
    outcomes: &mut [Option<RequestOutcome>],
    mut done: impl FnMut(&RequestOutcome),
) {
    active.retain_mut(|a| {
        a.generated += 1;
        let outcome = outcomes[a.idx].as_mut().expect("prefilled");
        outcome.completion = now;
        let live = a.generated < reqs[a.idx].output_len;
        if !live {
            done(outcome);
        }
        live
    });
}

/// `true` for the compile failures a smaller batch can cure.
#[must_use]
pub fn infeasible(e: &CompileError) -> bool {
    matches!(
        e,
        CompileError::NoFeasiblePlan { .. } | CompileError::CapacityExceeded { .. }
    )
}

/// Latency of one `wl` step priced by `price`, falling back to
/// sequential micro-batches when the full batch shape has no feasible
/// on-chip plan (prefill attention is quadratic in sequence length, so
/// long-context steps can exceed SRAM at batch sizes the decode path
/// handles fine). Splitting halves the batch while `retry` accepts the
/// error; a batch-1 failure is a genuine error — the request cannot run
/// on this chip.
///
/// # Errors
///
/// The first error `retry` rejects, or any error at batch 1.
pub fn split_latency<E>(
    wl: Workload,
    price: &impl Fn(Workload) -> Result<Seconds, E>,
    retry: fn(&E) -> bool,
) -> Result<Seconds, E> {
    match price(wl) {
        Err(e) if wl.batch > 1 && retry(&e) => {
            let lo = Workload {
                batch: wl.batch / 2,
                ..wl
            };
            let hi = Workload {
                batch: wl.batch - wl.batch / 2,
                ..wl
            };
            let a = split_latency(lo, price, retry)?;
            let b = if hi.batch == lo.batch {
                a
            } else {
                split_latency(hi, price, retry)?
            };
            Ok(a + b)
        }
        result => result,
    }
}

/// Group statistics pooled over a set of groups.
#[derive(Debug, Default)]
pub struct PoolSummary {
    /// The latest group end: trace start to the last retired step.
    pub makespan: Seconds,
    /// Prefill steps across all groups.
    pub prefill_steps: u64,
    /// Decode steps across all groups.
    pub decode_steps: u64,
    /// Requests routed to each group, in group order.
    pub per_group_requests: Vec<usize>,
    /// Time-weighted mean waiting depth: each group's depth integrated
    /// over its own timeline, pooled over total simulated group-time,
    /// so a long prefill stall weighs by its duration.
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed on any group at any instant.
    pub max_queue_depth: usize,
    /// `(time, waiting)` depth transitions, all groups interleaved in
    /// time order (group order among equal times).
    pub queue_depth: Vec<(Seconds, usize)>,
}

impl PoolSummary {
    /// Pools `groups`, in group order.
    #[must_use]
    pub fn of(groups: impl IntoIterator<Item = GroupStats>) -> Self {
        let mut pool = PoolSummary::default();
        let mut depth_area = 0.0;
        let mut sim_time = 0.0;
        for g in groups {
            pool.makespan = pool.makespan.max(g.end);
            pool.prefill_steps += g.prefill_steps;
            pool.decode_steps += g.decode_steps;
            pool.per_group_requests.push(g.served);
            depth_area += g.queue.area_until(g.end);
            sim_time += g.end.as_secs();
            pool.max_queue_depth = pool.max_queue_depth.max(g.queue.max_depth());
            pool.queue_depth.extend(g.queue.into_samples());
        }
        pool.queue_depth.sort_by_key(|&(t, _)| t);
        if sim_time > 0.0 {
            pool.mean_queue_depth = depth_area / sim_time;
        }
        pool
    }
}

/// The request-level half of every serving report, in report field
/// order.
#[derive(Debug)]
pub struct RequestSummary {
    /// Time-to-first-token summary.
    pub ttft: LatencyStats,
    /// Time-per-output-token summary (multi-token requests only).
    pub tpot: LatencyStats,
    /// End-to-end latency summary.
    pub e2e: LatencyStats,
    /// The SLO the outcomes were scored against.
    pub slo: SloConfig,
    /// Fraction of outcomes meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second of makespan.
    pub goodput_rps: f64,
    /// All completions per second of makespan.
    pub throughput_rps: f64,
    /// Generated tokens per second of makespan.
    pub tokens_per_sec: f64,
}

impl RequestSummary {
    /// Summarizes completed `outcomes` against `slo`, with rates over
    /// `makespan` (all zero for a zero makespan).
    #[must_use]
    pub fn of(outcomes: &[RequestOutcome], slo: SloConfig, makespan: Seconds) -> Self {
        let ttft: Vec<Seconds> = outcomes.iter().map(RequestOutcome::ttft).collect();
        let tpot: Vec<Seconds> = outcomes.iter().filter_map(RequestOutcome::tpot).collect();
        let e2e: Vec<Seconds> = outcomes.iter().map(RequestOutcome::e2e).collect();
        let met = outcomes.iter().filter(|o| o.meets(&slo)).count();
        let tokens: u64 = outcomes.iter().map(|o| o.output_len).sum();
        let span = makespan.as_secs();
        let per_sec = |x: f64| if span > 0.0 { x / span } else { 0.0 };
        RequestSummary {
            ttft: LatencyStats::of(&ttft),
            tpot: LatencyStats::of(&tpot),
            e2e: LatencyStats::of(&e2e),
            slo,
            slo_attainment: if outcomes.is_empty() {
                0.0
            } else {
                met as f64 / outcomes.len() as f64
            },
            goodput_rps: per_sec(met as f64),
            throughput_rps: per_sec(outcomes.len() as f64),
            tokens_per_sec: per_sec(tokens as f64),
        }
    }
}

/// Records `<prefix>.ttft`/`.tpot`/`.e2e` histograms for every outcome
/// and, for sampled positions, a `req/<id>` lane with a `prefill` span
/// (arrival to first token) and a `decode` span (first to last token),
/// both tagged `group_key = replica`. Lanes derive from the final
/// outcome list, so they are deterministic by construction.
pub fn record_requests(obs: &Obs, prefix: &str, group_key: &str, outcomes: &[RequestOutcome]) {
    record_requests_with(obs, prefix, group_key, outcomes, |track, o| {
        obs.span(
            track,
            "prefill",
            o.arrival,
            o.first_token - o.arrival,
            &[(group_key, o.replica.to_string())],
        );
    });
}

/// [`record_requests`] with a caller-drawn lead: `lead(track, outcome)`
/// records everything on a sampled lane before its `decode` span.
pub fn record_requests_with(
    obs: &Obs,
    prefix: &str,
    group_key: &str,
    outcomes: &[RequestOutcome],
    mut lead: impl FnMut(&str, &RequestOutcome),
) {
    if !obs.enabled() {
        return;
    }
    let [ttft, tpot, e2e] = ["ttft", "tpot", "e2e"].map(|m| format!("{prefix}.{m}"));
    for (i, o) in outcomes.iter().enumerate() {
        obs.histogram(&ttft, o.ttft());
        if let Some(t) = o.tpot() {
            obs.histogram(&tpot, t);
        }
        obs.histogram(&e2e, o.e2e());
        if !obs.sampled(i) {
            continue;
        }
        let track = format!("req/{}", o.id);
        lead(&track, o);
        if o.completion > o.first_token {
            obs.span(
                &track,
                "decode",
                o.first_token,
                o.completion - o.first_token,
                &[(group_key, o.replica.to_string())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_units::Bytes;

    fn req(id: u64, prompt_len: u64, output_len: u64) -> Request {
        Request {
            id,
            arrival: Seconds::ZERO,
            prompt_len,
            output_len,
        }
    }

    #[test]
    fn split_latency_halves_until_the_shape_compiles() {
        let no_plan = || CompileError::NoFeasiblePlan {
            op: "attn".into(),
            capacity: Bytes::ZERO,
        };
        // Batches above 2 have no feasible plan; each feasible step
        // costs 1 ms per request.
        let price = |wl: Workload| {
            if wl.batch > 2 {
                Err(no_plan())
            } else {
                Ok(Seconds::from_millis(wl.batch as f64))
            }
        };
        let ms = Seconds::from_millis;
        // 5 -> 2 + 3, 3 -> 1 + 2.
        assert_eq!(
            split_latency(Workload::prefill(5, 256), &price, infeasible),
            Ok(ms(2.0) + (ms(1.0) + ms(2.0)))
        );
        // A rejected error, or a batch-1 failure, is not retried.
        assert!(split_latency(Workload::prefill(5, 256), &price, |_| false).is_err());
        let always = |_: Workload| Err::<Seconds, _>(no_plan());
        assert!(split_latency(Workload::prefill(1, 256), &always, infeasible).is_err());
    }

    #[test]
    fn a_group_prefills_then_decodes_to_completion() {
        let reqs = [req(0, 300, 3), req(1, 200, 1)];
        let batch = BatchConfig::default();
        let mut outcomes = vec![None; reqs.len()];
        let mut group = Group::default();
        group.enqueue(Seconds::ZERO, 0);
        group.enqueue(Seconds::ZERO, 1);
        assert_eq!(group.outstanding(), 2);

        let step = Seconds::from_millis(5.0);
        let price = |_| Ok::<_, CompileError>(step);
        let mut now = Seconds::ZERO;
        let mut finished = Vec::new();
        while let Some((latency, admitted)) = group.start_step(now, &batch, &reqs, price).unwrap() {
            assert_eq!(group.outstanding(), 2 - finished.len());
            assert!(group
                .start_step(now, &batch, &reqs, price)
                .unwrap()
                .is_none());
            assert_eq!(admitted, if now == Seconds::ZERO { 2 } else { 0 });
            now += latency;
            group.finish_step(7, now, &reqs, &mut outcomes, |o| finished.push(o.id));
        }
        assert!(group.is_drained());
        assert_eq!(finished, [1, 0], "the 1-token request finishes at prefill");
        assert_eq!(
            (group.stats.prefill_steps, group.stats.decode_steps),
            (1, 2)
        );
        assert_eq!(group.stats.served, 2);
        assert_eq!(group.stats.end, now);
        let done = outcomes[0].unwrap();
        assert_eq!(
            (done.replica, done.first_token, done.completion),
            (7, step, now)
        );

        let pool = PoolSummary::of([group.stats, GroupStats::default()]);
        assert_eq!(pool.makespan, now);
        assert_eq!(pool.per_group_requests, [2, 0]);
        assert_eq!(pool.queue_depth.first(), Some(&(Seconds::ZERO, 1)));
        assert_eq!(pool.queue_depth.last(), Some(&(Seconds::ZERO, 0)));
    }

    #[test]
    fn empty_runs_summarize_to_zero() {
        let pool = PoolSummary::of([]);
        assert_eq!(pool.makespan, Seconds::ZERO);
        assert_eq!(pool.mean_queue_depth, 0.0);
        let s = RequestSummary::of(&[], SloConfig::default(), pool.makespan);
        assert_eq!(s.ttft.n, 0);
        assert_eq!(s.slo_attainment, 0.0);
        assert_eq!(s.tokens_per_sec, 0.0);
    }
}
