//! Output checks: digests of deterministic outputs, the paper's design
//! relations, capacity, and request conservation and causality.
//!
//! Every check returns the list of violations it found; an empty list
//! means the output passed.

use serde::{Serialize, Value};

use elk::baselines::Design;
use elk::cluster::{
    AutoscaleReport, ClusterServingReport, DisaggServingReport, TenancyServingReport,
};
use elk::serve::{RequestOutcome, RequestTrace, ServingReport};
use elk::spec::SimulateReport;
use elk::units::Seconds;

/// Keys left out of every digest because their values vary from run to
/// run: `compile_seconds` is wall clock, and `cache` (the plan-cache
/// hit/miss split) depends on the thread count.
pub const RUN_VARYING_KEYS: [&str; 2] = ["compile_seconds", "cache"];

/// 64-bit FNV-1a over a canonical encoding of outputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds in a serialized value, skipping [`RUN_VARYING_KEYS`].
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.tag(0),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::U64(x) => {
                self.tag(2);
                self.u64(*x);
            }
            Value::I64(x) => {
                self.tag(3);
                self.bytes(&x.to_le_bytes());
            }
            Value::F64(x) => {
                self.tag(4);
                self.f64(*x);
            }
            Value::Str(s) => {
                self.tag(5);
                self.str(s);
            }
            Value::Seq(items) => {
                self.tag(6);
                self.u64(items.len() as u64);
                items.iter().for_each(|i| self.value(i));
            }
            Value::Map(entries) => {
                self.tag(7);
                for (k, v) in entries {
                    if !RUN_VARYING_KEYS.contains(&k.as_str()) {
                        self.str(k);
                        self.value(v);
                    }
                }
                self.tag(8);
            }
        }
    }

    pub fn serialized<T: Serialize + ?Sized>(&mut self, v: &T) {
        self.value(&v.to_value());
    }

    /// Folds in per-request vectors field by field, without building a
    /// value tree (a million-request report would need gigabytes).
    pub fn bulk(&mut self, bulk: &Bulk) {
        self.tag(9);
        self.u64(bulk.outcomes.len() as u64);
        for o in &bulk.outcomes {
            self.u64(o.id);
            self.u64(o.replica as u64);
            self.f64(o.arrival.as_secs());
            self.f64(o.first_token.as_secs());
            self.f64(o.completion.as_secs());
            self.u64(o.output_len);
        }
        self.u64(bulk.queue_depth.len() as u64);
        for &(t, d) in &bulk.queue_depth {
            self.f64(t.as_secs());
            self.u64(d as u64);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The per-request vectors of a serving report.
#[derive(Debug, Default)]
pub struct Bulk {
    pub outcomes: Vec<RequestOutcome>,
    pub queue_depth: Vec<(Seconds, usize)>,
}

/// A serving report whose per-request vectors can be moved out, leaving
/// the summary a user exports.
pub trait SplitBulk: Serialize {
    fn take_bulk(&mut self) -> Bulk;
}

macro_rules! split_bulk {
    ($($t:ty),*) => {$(
        impl SplitBulk for $t {
            fn take_bulk(&mut self) -> Bulk {
                Bulk {
                    outcomes: std::mem::take(&mut self.outcomes),
                    queue_depth: std::mem::take(&mut self.queue_depth),
                }
            }
        }
    )*};
}

split_bulk!(
    ServingReport,
    ClusterServingReport,
    DisaggServingReport,
    AutoscaleReport
);

impl SplitBulk for TenancyServingReport {
    fn take_bulk(&mut self) -> Bulk {
        self.base.take_bulk()
    }
}

/// Slack on the paper relations, as in `elk-baselines`' own ordering
/// test.
const SLACK: f64 = 1.02;

/// Simulated step time of `design` in a point's report.
pub fn total_ms(r: &SimulateReport, design: Design) -> Option<f64> {
    r.designs
        .iter()
        .find(|x| x.design == design)
        .map(|x| x.total_ms)
}

/// Paper relations per grid point and zero capacity violations for
/// every design except Ideal. `static_gap_cap` is the ELK-Full / Static
/// ratio recorded at the seed commit for a point that already broke
/// `ELK-Full <= Static` there: on such a point the ratio may not grow
/// past it. Every other point must satisfy the relation.
pub fn check_point(r: &SimulateReport, static_gap_cap: Option<f64>) -> Vec<String> {
    let t = |d| total_ms(r, d);
    let (Some(ideal), Some(full), Some(dyn_), Some(basic), Some(stat)) = (
        t(Design::Ideal),
        t(Design::ElkFull),
        t(Design::ElkDyn),
        t(Design::Basic),
        t(Design::Static),
    ) else {
        return vec![format!("{}: not all five designs reported", r.scenario)];
    };
    let mut bad = Vec::new();
    let mut rel = |a: f64, b: f64, what: &str| {
        if a > b * SLACK {
            bad.push(format!(
                "{}: {what} violated ({a} ms vs {b} ms)",
                r.scenario
            ));
        }
    };
    rel(ideal, full, "Ideal <= ELK-Full");
    rel(full, dyn_, "ELK-Full <= ELK-Dyn");
    rel(dyn_, basic, "ELK-Dyn <= Basic");
    match static_gap_cap {
        None => rel(full, stat, "ELK-Full <= Static"),
        Some(cap) if full / stat > cap => bad.push(format!(
            "{}: ELK-Full / Static grew to {} from {cap} at the seed commit",
            r.scenario,
            full / stat
        )),
        Some(_) => {}
    }
    for d in &r.designs {
        if d.design != Design::Ideal && d.capacity_violations != 0 {
            bad.push(format!(
                "{}: {} has {} capacity violations",
                r.scenario, d.design, d.capacity_violations
            ));
        }
    }
    bad
}

/// ELK-Full / Static simulated latency, when ELK-Full is slower than
/// Static beyond the slack.
pub fn static_gap(r: &SimulateReport) -> Option<f64> {
    match (total_ms(r, Design::ElkFull), total_ms(r, Design::Static)) {
        (Some(f), Some(s)) if f > s * SLACK => Some(f / s),
        _ => None,
    }
}

/// Conservation and causality of one engine run. `completed` is how
/// many requests the engine must have completed (all of them, except
/// under admission control).
pub fn check_requests(
    engine: &str,
    trace: &RequestTrace,
    outcomes: &[RequestOutcome],
    completed: usize,
) -> Vec<String> {
    let mut bad = Vec::new();
    if outcomes.len() != completed {
        bad.push(format!(
            "{engine}: {} outcomes for {completed} completed requests",
            outcomes.len()
        ));
    }
    // Ids are assigned in arrival order, so a window of a trace holds
    // consecutive ids from its first request's.
    let first = trace.requests.first().map_or(0, |r| r.id);
    let mut seen = vec![false; trace.requests.len()];
    for o in outcomes {
        let Some((i, req)) =
            o.id.checked_sub(first)
                .and_then(|i| usize::try_from(i).ok())
                .and_then(|i| Some((i, trace.requests.get(i)?)))
                .filter(|(_, req)| req.id == o.id)
        else {
            bad.push(format!("{engine}: outcome for unknown request {}", o.id));
            continue;
        };
        if std::mem::replace(&mut seen[i], true) {
            bad.push(format!("{engine}: request {} completed twice", o.id));
        }
        if o.arrival != req.arrival {
            bad.push(format!("{engine}: request {} arrival moved", o.id));
        }
        if !(o.arrival <= o.first_token && o.first_token <= o.completion) {
            bad.push(format!(
                "{engine}: request {} violates arrival <= first token <= completion",
                o.id
            ));
        }
        if o.output_len != req.output_len {
            bad.push(format!("{engine}: request {} output length changed", o.id));
        }
        if bad.len() > 8 {
            bad.push(format!("{engine}: further violations not listed"));
            break;
        }
    }
    bad
}

/// Admission bookkeeping of a tenancy run: every arrival is admitted,
/// rejected or deferred, as many complete as were admitted or deferred,
/// and every request whose class may not be shed (`protected`, by
/// request id) is among the completed `outcomes`.
pub fn check_tenancy(
    r: &TenancyServingReport,
    outcomes: &[RequestOutcome],
    protected: &[bool],
) -> Vec<String> {
    let mut bad = Vec::new();
    let arrivals = protected.len();
    if r.admitted + r.rejected + r.deferred != arrivals {
        bad.push(format!(
            "tenancy: admitted {} + rejected {} + deferred {} != {arrivals} arrivals",
            r.admitted, r.rejected, r.deferred
        ));
    }
    if r.base.completed != r.admitted + r.deferred {
        bad.push(format!(
            "tenancy: {} completed but {} admitted + {} deferred",
            r.base.completed, r.admitted, r.deferred
        ));
    }
    let mut done = vec![false; arrivals];
    for o in outcomes {
        if let Some(d) = usize::try_from(o.id).ok().and_then(|i| done.get_mut(i)) {
            *d = true;
        }
    }
    let lost = (0..arrivals).filter(|&i| protected[i] && !done[i]);
    if let Some(first) = lost.clone().next() {
        bad.push(format!(
            "tenancy: {} requests of unsheddable classes did not complete (first: {first})",
            lost.count()
        ));
    }
    bad
}
