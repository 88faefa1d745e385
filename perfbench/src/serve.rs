//! The serving workloads.
//!
//! * `serve_scale`: about a million Poisson arrivals through round-robin
//!   `ClusterServingSim` on tp1·pp1·dp4; one engine, reused across
//!   passes, so `PlanCache` lookups are nearly all hits.
//! * `serve_engines_mix`: one bursty, heavy-tailed four-tenant trace
//!   replayed through `ServingSim` and the disaggregated, tenancy and
//!   autoscaled engines, each called through its public `run`.
//!
//! Both read a scenario from `scenarios/`, with the trace seed taken
//! from the run's seed.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Value};

use elk::baselines::{Design, DesignRunner};
use elk::cluster::{
    AutoscaleServingSim, ClusterEstimator, ClusterOptions, ClusterServeConfig,
    ClusterServingReport, ClusterServingSim, DisaggConfig, DisaggServingSim, ParallelismPlan,
    TenancyServingReport, TenantServingSim,
};
use elk::hw::SystemConfig;
use elk::model::{TransformerConfig, Workload as Step};
use elk::serve::{CacheStats, PlanCache, RequestTrace, RouterPolicy, ServeConfig, ServingSim};
use elk::sim::SimOptions;
use elk::spec::spec::ClusterSpec;
use elk::spec::sweep::set_path;
use elk::spec::{runner, ScenarioSpec};

use crate::bench::{load_pins, PassOut, Workload};
use crate::calib;
use crate::check::{check_requests, check_tenancy, Bulk, Digest, SplitBulk};
use crate::spans::{LayerTimes, Tracer};

/// Trace seeds the serving workloads draw from: a run's trace seed is
/// its `--seed` modulo this, so every run's outputs have a pinned digest.
pub const SEED_CLASSES: u64 = 32;

/// Everything a serving pass needs, built by set-up.
struct Ready {
    system: SystemConfig,
    model: TransformerConfig,
    sim: SimOptions,
    serve: ServeConfig,
    cluster: ClusterSpec,
    spec: ScenarioSpec,
    plan: ParallelismPlan,
    trace: RequestTrace,
    tenants: Vec<String>,
}

impl Ready {
    fn build(
        text: &str,
        seed: u64,
        threads: usize,
        limit: Option<usize>,
        tracer: &Tracer,
    ) -> Result<Ready, String> {
        let e = |e: elk::spec::SpecError| e.to_string();
        let spec = tracer.span("elk-spec.parse", 0, || -> Result<ScenarioSpec, String> {
            let mut doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
            set_path(&mut doc, "workload.trace.generate.seed", Value::U64(seed)).map_err(e)?;
            ScenarioSpec::from_value(&doc).map_err(|e| e.to_string())
        })?;
        let cluster = spec
            .cluster
            .clone()
            .ok_or("serving scenario needs a cluster section")?;
        let system = spec
            .system
            .to_system()
            .map_err(e)?
            .with_inter_chip_topology(cluster.to_interconnect().map_err(e)?);
        let model = spec.model.as_transformer().map_err(e)?;
        let workload = spec.workload.to_workload().map_err(e)?;
        let sim = spec.sim.to_options().map_err(e)?;
        let (mut trace, mut tenants) = tracer
            .span("elk-trace.gen", 0, || {
                runner::resolve_trace_with_tenants(&spec)
            })
            .map_err(e)?;
        if let Some(n) = limit {
            trace.requests.truncate(n);
            tenants.truncate(n);
        }
        let estimate = tracer.span("elk-cluster.search", 0, || -> Result<_, String> {
            let options = ClusterOptions {
                threads,
                ..cluster.to_options().map_err(e)?
            };
            let estimator = ClusterEstimator::new(system.clone(), options);
            let err = |x: elk::cluster::ClusterError| x.to_string();
            match cluster.to_plan() {
                Some(plan) => estimator
                    .estimate(&model, workload, Design::ElkFull, &sim, plan)
                    .map_err(err),
                None => Ok(estimator
                    .search(&model, workload, Design::ElkFull, &sim)
                    .map_err(err)?
                    .best),
            }
        })?;
        let serve = spec
            .serving
            .to_config(model.clone(), estimate.plan.tp, sim)
            .map_err(e)?
            .with_threads(threads);
        Ok(Ready {
            plan: estimate.plan,
            system,
            model,
            sim,
            serve,
            cluster,
            spec,
            trace,
            tenants,
        })
    }

    fn cluster_config(&self) -> ClusterServeConfig {
        ClusterServeConfig {
            model: self.model.clone(),
            plan: self.plan,
            batch: self.serve.batch,
            slo: self.serve.slo,
            sim: self.sim,
            threads: self.serve.threads,
        }
    }

    fn router(&self) -> RouterPolicy {
        self.cluster
            .router
            .first()
            .copied()
            .unwrap_or(RouterPolicy::RoundRobin)
    }

    /// Times cold and warmed `PlanCache::step_latency` calls on this
    /// workload's own step shapes.
    fn probe_plan_cache(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let runner = DesignRunner::new(self.system.clone()).with_threads(1);
        let cache = PlanCache::new();
        let buckets = self.serve.batch.seq_buckets;
        let shapes = [
            Step::decode(
                self.serve.batch.max_batch,
                buckets.bucket(self.spec.workload.seq_len),
            ),
            Step::prefill(1, buckets.bucket(self.spec.workload.seq_len)),
        ];
        let lookup = |wl: Step| {
            cache
                .step_latency(
                    &runner,
                    &self.model,
                    self.plan.tp,
                    Design::ElkFull,
                    wl,
                    &self.sim,
                )
                .map_err(|e| e.to_string())
        };
        let t0 = Instant::now();
        for &wl in &shapes {
            lookup(wl)?;
        }
        let miss_ms = t0.elapsed().as_secs_f64() * 1e3 / shapes.len() as f64;
        const HITS: usize = 20_000;
        let t0 = Instant::now();
        for i in 0..HITS {
            std::hint::black_box(lookup(shapes[i % shapes.len()])?);
        }
        let hit_ns = t0.elapsed().as_secs_f64() * 1e9 / HITS as f64;
        Ok(BTreeMap::from([
            ("elk-serve.plancache_miss_ms", miss_ms),
            ("elk-serve.plancache_hit_ns", hit_ns),
        ]))
    }
}

/// A run's report split into the summary a user exports and its
/// per-request vectors.
struct Exported<R> {
    report: R,
    bulk: Bulk,
    bytes: usize,
}

/// Serializes the summary of `report` (the timed export step).
fn export<R: SplitBulk>(mut report: R, tracer: &Tracer) -> Exported<R> {
    let bulk = report.take_bulk();
    let bytes = tracer.span("export.serialize", 0, || {
        serde_json::to_string(&report).map_or(0, |s| s.len())
    });
    Exported {
        report,
        bulk,
        bytes,
    }
}

impl<R: SplitBulk> Exported<R> {
    /// Folds the outputs into `digest` and checks conservation and
    /// causality against the `completed` requests the engine must have
    /// finished.
    fn check(
        &self,
        engine: &str,
        trace: &RequestTrace,
        completed: usize,
        digest: &mut Digest,
    ) -> Vec<String> {
        digest.serialized(&self.report);
        digest.bulk(&self.bulk);
        check_requests(engine, trace, &self.bulk.outcomes, completed)
    }
}

/// Compares a pass's digest with the one pinned for its seed class;
/// trimmed self-test traces have no pin.
fn check_digest(
    pins: &BTreeMap<String, String>,
    class: u64,
    limit: Option<usize>,
    digest: &Digest,
) -> Vec<String> {
    if limit.is_some() {
        return Vec::new();
    }
    match pins.get(&class.to_string()) {
        Some(pin) if *pin == digest.hex() => Vec::new(),
        Some(pin) => vec![format!(
            "seed class {class}: digest {} != pinned {pin}",
            digest.hex()
        )],
        None => vec![format!("seed class {class}: no pinned digest")],
    }
}

fn cache_counters(pass: &mut PassOut, stats: CacheStats) {
    pass.counters
        .insert("elk-serve.plancache_hit_ratio", stats.hit_rate());
    pass.counters
        .insert("elk-serve.plancache_misses", stats.misses as f64);
}

/// Self ns of `span` per kernel event of its engine.
fn ns_per_event(spans: &LayerTimes, span: &str, events: u64) -> f64 {
    spans.ms(span) * 1e6 / events.max(1) as f64
}

/// `serve_scale` runs its trace as this many consecutive windows, one
/// engine run each: the windows are its ops.
const WINDOWS: usize = 8;

pub struct ServeScale {
    class: u64,
    threads: usize,
    /// `Some(n)` keeps only the first `n` requests (self-tests; no pin).
    limit: Option<usize>,
    pins: BTreeMap<String, String>,
    ready: Option<(Ready, Vec<RequestTrace>, ClusterServingSim)>,
}

impl ServeScale {
    pub fn new(seed: u64, threads: usize, limit: Option<usize>) -> Result<Self, String> {
        Ok(ServeScale {
            class: seed % SEED_CLASSES,
            threads,
            limit,
            pins: load_pins("serve_scale")?,
            ready: None,
        })
    }
}

impl Workload for ServeScale {
    fn setup_reps(&self) -> usize {
        5
    }

    fn setup(&mut self, tracer: &Tracer) -> Result<(), String> {
        self.ready = None; // free the previous repetition's trace first
        let mut ready = Ready::build(
            include_str!("../scenarios/serve_scale.json"),
            self.class,
            self.threads,
            self.limit,
            tracer,
        )?;
        let requests = std::mem::take(&mut ready.trace.requests);
        let windows = requests
            .chunks(requests.len().div_ceil(WINDOWS).max(1))
            .map(|w| RequestTrace {
                requests: w.to_vec(),
            })
            .collect();
        let engine = tracer
            .span("elk-cluster.new", 0, || {
                ClusterServingSim::new(ready.system.clone(), ready.cluster_config())
            })
            .map_err(|e| e.to_string())?;
        self.ready = Some((ready, windows, engine));
        Ok(())
    }

    /// Runs the first window once, so that the timed passes see the
    /// warm plan cache this workload is meant to measure.
    fn warm_up(&mut self) -> Result<(), String> {
        let (ready, windows, engine) = self.ready.as_mut().ok_or("not set up")?;
        if let Some(first) = windows.first() {
            engine
                .run(Design::ElkFull, ready.router(), first)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<PassOut, String> {
        let (ready, windows, engine) = self.ready.as_mut().ok_or("not set up")?;
        let n: usize = windows.iter().map(RequestTrace::len).sum();
        let mut pass = PassOut::default();
        let mut digest = Digest::default();
        let mut bad = Vec::new();
        let (mut met, mut goodput, mut bytes, mut peak_queue) = (0.0, 0.0, 0, 0);
        for window in windows.iter() {
            calib::sample();
            let t0 = Instant::now();
            let report = tracer
                .span("elk-cluster.serve_run", 0, || {
                    engine.run(Design::ElkFull, ready.router(), window)
                })
                .map_err(|e| e.to_string())?;
            let out = export(report, tracer);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            pass.op_ms.push(ms);

            let r = &out.report;
            bad.extend(out.check("cluster", window, window.len(), &mut digest));
            if r.completed != window.len() {
                bad.push(format!(
                    "cluster: {} of {} requests completed",
                    r.completed,
                    window.len()
                ));
            }
            pass.work += r.sim_events;
            met += r.slo_attainment * r.completed as f64;
            goodput += r.goodput_rps * r.completed as f64;
            bytes += out.bytes;
            peak_queue = peak_queue.max(r.peak_event_queue_len);
        }
        pass.wall_s = pass.op_ms.iter().sum::<f64>() / 1e3;
        pass.sim_frac = met / n as f64;
        pass.spans = tracer.take();
        bad.extend(check_digest(&self.pins, self.class, self.limit, &digest));
        pass.fail(bad);
        pass.digest = digest.hex();
        pass.named = vec![
            ("events_per_s", pass.work as f64 / pass.wall_s, "1/s"),
            ("sim_goodput_rps", goodput / n as f64, "1/s"),
        ];
        let layers = LayerTimes::of(&pass.spans);
        pass.counters = BTreeMap::from([
            ("export.bytes", bytes as f64),
            ("elk-sim-core.events", pass.work as f64),
            ("elk-sim-core.peak_queue_len", peak_queue as f64),
            (
                "elk-cluster.serve_ns_per_event",
                ns_per_event(&layers, "elk-cluster.serve_run", pass.work),
            ),
        ]);
        // Cumulative since the engine was built, warm-up included.
        cache_counters(&mut pass, engine.cache_stats());
        Ok(pass)
    }

    fn probe(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        self.ready
            .as_ref()
            .ok_or("not set up")?
            .0
            .probe_plan_cache()
    }
}

/// The mix's engines. Each keeps its plan cache across passes, so the
/// cold compiles fall in the first pass.
struct Engines {
    plain: ServingSim,
    disagg: DisaggServingSim,
    tenancy: TenantServingSim,
    autoscale: AutoscaleServingSim,
    /// Per request: whether its tenancy class must not be shed (every
    /// class but best-effort).
    protected: Vec<bool>,
}

pub struct EnginesMix {
    class: u64,
    threads: usize,
    /// `Some(n)` keeps only the first `n` requests (self-tests; no pin).
    limit: Option<usize>,
    pins: BTreeMap<String, String>,
    ready: Option<(Ready, Engines)>,
}

impl EnginesMix {
    pub fn new(seed: u64, threads: usize, limit: Option<usize>) -> Result<Self, String> {
        Ok(EnginesMix {
            class: seed % SEED_CLASSES,
            threads,
            limit,
            pins: load_pins("serve_engines_mix")?,
            ready: None,
        })
    }

    /// The four engines, built from the set-up state.
    fn engines(ready: &Ready, tracer: &Tracer) -> Result<Engines, String> {
        let e = |e: elk::spec::SpecError| e.to_string();
        let c = |e: elk::cluster::ClusterError| e.to_string();
        let cluster = &ready.cluster;
        let disagg = cluster
            .disaggregate
            .as_ref()
            .ok_or("mix scenario needs cluster.disaggregate")?;
        let tenants = cluster
            .tenants
            .as_ref()
            .ok_or("mix scenario needs cluster.tenants")?;
        let auto = cluster
            .autoscale
            .as_ref()
            .ok_or("mix scenario needs cluster.autoscale")?;
        tracer.span("engines.new", 0, || {
            let (prefill, decode) = disagg.to_plans().map_err(e)?;
            let tenancy = tenants.to_config().map_err(e)?;
            let protected = (0..ready.trace.len())
                .map(|i| {
                    let tenant = ready.tenants.get(i).map_or("", String::as_str);
                    tenancy.class_of(tenant).name != "best_effort"
                })
                .collect();
            Ok(Engines {
                plain: ServingSim::new(ready.system.clone(), ready.serve.clone()),
                disagg: DisaggServingSim::new(
                    ready.system.clone(),
                    DisaggConfig {
                        batch: ready.serve.batch,
                        slo: ready.serve.slo,
                        sim: ready.sim,
                        threads: ready.serve.threads,
                        chunk_tokens: disagg.chunk_tokens,
                        shared_chips: disagg.shared_chips,
                        ..DisaggConfig::new(ready.model.clone(), prefill, decode)
                    },
                )
                .map_err(c)?,
                tenancy: TenantServingSim::new(
                    ready.system.clone(),
                    ready.cluster_config(),
                    tenancy,
                )
                .map_err(c)?,
                autoscale: AutoscaleServingSim::new(
                    ready.system.clone(),
                    ready.cluster_config(),
                    auto.to_config().map_err(e)?,
                )
                .map_err(c)?,
                protected,
            })
        })
    }
}

impl Workload for EnginesMix {
    fn setup_reps(&self) -> usize {
        5
    }

    fn setup(&mut self, tracer: &Tracer) -> Result<(), String> {
        let ready = Ready::build(
            include_str!("../scenarios/serve_engines_mix.json"),
            self.class,
            self.threads,
            self.limit,
            tracer,
        )?;
        self.ready = None;
        let engines = Self::engines(&ready, tracer)?;
        self.ready = Some((ready, engines));
        Ok(())
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<PassOut, String> {
        let (ready, e) = self.ready.as_mut().ok_or("not set up")?;
        let (trace, router) = (&ready.trace, ready.router());
        let c = |e: elk::cluster::ClusterError| e.to_string();
        // The host speed is sampled between ops.
        let mut op_ms = Vec::new();
        calib::sample();
        let mut lap = Instant::now();
        let mut time_op = || {
            op_ms.push(lap.elapsed().as_secs_f64() * 1e3);
            calib::sample();
            lap = Instant::now();
        };
        let r1 = tracer
            .span("elk-serve.replica_run", 0, || {
                e.plain.run(Design::ElkFull, trace)
            })
            .map_err(|e| e.to_string())?;
        let r1 = export(r1, tracer);
        time_op();
        let r2 = tracer
            .span("elk-cluster.disagg_run", 0, || {
                e.disagg.run(Design::ElkFull, router, trace)
            })
            .map_err(c)?;
        let r2 = export(r2, tracer);
        time_op();
        let r3 = tracer
            .span("elk-cluster.tenancy_run", 0, || {
                e.tenancy
                    .run(Design::ElkFull, router, trace, &ready.tenants)
            })
            .map_err(c)?;
        let r3 = export(r3, tracer);
        time_op();
        let r4 = tracer
            .span("elk-cluster.autoscale_run", 0, || {
                e.autoscale.run(Design::ElkFull, trace)
            })
            .map_err(c)?;
        let r4 = export(r4, tracer);
        time_op();
        let wall_s = op_ms.iter().sum::<f64>() / 1e3;

        let n = trace.len();
        let t = &r3.report;
        let events = [
            r1.report.sim_events,
            r2.report.sim_events,
            t.base.sim_events,
            r4.report.sim_events,
        ];
        // Share of all arrivals that completed within the SLO.
        let met = |attainment: f64, completed: usize| attainment * completed as f64 / n as f64;
        let attainment = [
            met(r1.report.slo_attainment, r1.report.completed),
            met(r2.report.slo_attainment, r2.report.completed),
            met(t.base.slo_attainment, t.base.completed),
            met(r4.report.slo_attainment, r4.report.completed),
        ];
        let mut pass = PassOut {
            wall_s,
            op_ms,
            work: events.iter().sum(),
            sim_frac: attainment.iter().sum::<f64>() / attainment.len() as f64,
            spans: tracer.take(),
            ..PassOut::default()
        };
        let mut digest = Digest::default();
        let mut bad = r1.check("serving", trace, n, &mut digest);
        bad.extend(r2.check("disagg", trace, n, &mut digest));
        bad.extend(r3.check("tenancy", trace, t.admitted + t.deferred, &mut digest));
        bad.extend(check_tenancy(t, &r3.bulk.outcomes, &e.protected));
        // The rates are sized so that only the best-effort class runs
        // past its token bucket.
        for tenant in t.tenants.iter().filter(|x| x.class != "best_effort") {
            if tenant.rejected + tenant.deferred > 0 {
                bad.push(format!("tenancy: class {} shed requests", tenant.class));
            }
        }
        bad.extend(r4.check("autoscale", trace, n, &mut digest));
        for (engine, completed) in [
            ("serving", r1.report.completed),
            ("disagg", r2.report.completed),
            ("autoscale", r4.report.completed),
        ] {
            if completed != n {
                bad.push(format!("{engine}: {completed} of {n} requests completed"));
            }
        }
        bad.extend(check_digest(&self.pins, self.class, self.limit, &digest));
        pass.fail(bad);
        pass.digest = digest.hex();
        pass.named = vec![
            ("events_per_s", pass.work as f64 / wall_s, "1/s"),
            ("serving_slo_frac", attainment[0], "frac"),
            ("disagg_slo_frac", attainment[1], "frac"),
            ("tenancy_slo_frac", attainment[2], "frac"),
            ("autoscale_slo_frac", attainment[3], "frac"),
            ("serving_ttft_p99_ms", r1.report.ttft.p99.as_millis(), "ms"),
            ("disagg_ttft_p99_ms", r2.report.ttft.p99.as_millis(), "ms"),
            ("tenancy_ttft_p99_ms", t.base.ttft.p99.as_millis(), "ms"),
            (
                "autoscale_ttft_p99_ms",
                r4.report.ttft.p99.as_millis(),
                "ms",
            ),
            ("tenancy_rejected", t.rejected as f64, "count"),
            ("tenancy_deferred", t.deferred as f64, "count"),
        ];
        let layers = LayerTimes::of(&pass.spans);
        let bytes = r1.bytes + r2.bytes + r3.bytes + r4.bytes;
        pass.counters = BTreeMap::from([
            ("export.bytes", bytes as f64),
            ("elk-sim-core.events", pass.work as f64),
            (
                "elk-sim-core.peak_queue_len",
                r1.report
                    .peak_event_queue_len
                    .max(t.base.peak_event_queue_len) as f64,
            ),
        ]);
        for (span, metric, ev) in [
            (
                "elk-serve.replica_run",
                "elk-serve.replica_ns_per_event",
                events[0],
            ),
            (
                "elk-cluster.disagg_run",
                "elk-cluster.disagg_ns_per_event",
                events[1],
            ),
            (
                "elk-cluster.tenancy_run",
                "elk-cluster.tenancy_ns_per_event",
                events[2],
            ),
            (
                "elk-cluster.autoscale_run",
                "elk-cluster.autoscale_ns_per_event",
                events[3],
            ),
        ] {
            pass.counters
                .insert(metric, ns_per_event(&layers, span, ev));
        }
        // Cumulative since the engines were built: the first pass's cold
        // compiles are the misses.
        let (s1, s2, s3) = (
            e.plain.cache_stats(),
            e.disagg.cache_stats(),
            e.tenancy.cache_stats(),
        );
        cache_counters(
            &mut pass,
            CacheStats {
                hits: s1.hits + s2.hits + s3.hits,
                misses: s1.misses + s2.misses + s3.misses,
            },
        );
        Ok(pass)
    }

    fn probe(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        self.ready
            .as_ref()
            .ok_or("not set up")?
            .0
            .probe_plan_cache()
    }
}

/// A short run of the mix trace through the round-robin cluster engine
/// and the tenancy engine: sample outputs for the self-tests.
pub fn sample_runs(
    requests: usize,
) -> Result<
    (
        RequestTrace,
        ClusterServingReport,
        TenancyServingReport,
        Vec<bool>,
    ),
    String,
> {
    let off = Tracer::new(false);
    let ready = Ready::build(
        include_str!("../scenarios/serve_engines_mix.json"),
        0,
        1,
        Some(requests),
        &off,
    )?;
    let c = |e: elk::cluster::ClusterError| e.to_string();
    let mut cluster =
        ClusterServingSim::new(ready.system.clone(), ready.cluster_config()).map_err(c)?;
    let plain = cluster
        .run(Design::ElkFull, ready.router(), &ready.trace)
        .map_err(c)?;
    let mut engines = EnginesMix::engines(&ready, &off)?;
    let tenancy = engines
        .tenancy
        .run(
            Design::ElkFull,
            ready.router(),
            &ready.trace,
            &ready.tenants,
        )
        .map_err(c)?;
    Ok((ready.trace, plain, tenancy, engines.protected))
}
