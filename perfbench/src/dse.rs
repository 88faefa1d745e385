//! `dse_sweep`: a seeded sample of a chip × model × shape grid, every
//! point a plain scenario run through `elk::spec::runner::run_simulate`
//! with all five designs.
//!
//! The traced pass rebuilds each point from the layers' public entry
//! points instead (fit → catalog → candidate orders → schedule → lower
//! → estimate → simulate, and the baselines through `DesignRunner::run`)
//! and must reproduce the untraced report byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Value};

use elk::baselines::{Design, DesignRunner};
use elk::compiler::{
    candidate_orders, evaluate, Catalog, CompileError, CompilerOptions, DeviceProgram, Scheduler,
};
use elk::cost::{AnalyticDevice, LearnedCostModel, ProfileConfig};
use elk::model::OpId;
use elk::partition::Partitioner;
use elk::sim::{simulate, SimReport};
use elk::spec::report::DesignSimRow;
use elk::spec::sweep::set_path;
use elk::spec::{runner, ScenarioSpec, SimulateReport, SpecError};

use crate::bench::{load_pins, PassOut, SplitMix, Workload};
use crate::calib;
use crate::check::{check_point, static_gap, total_ms, Digest};
use crate::spans::Tracer;

const BASE: &str = include_str!("../scenarios/dse_sweep.json");
/// Grid points per pass: enough that p90 has ten samples beyond it.
pub const POINTS: usize = 100;
/// Traced points whose ELK-Full program is also compared against
/// `DesignRunner::run`, per traced pass.
const PROGRAM_CHECKS: usize = 2;

/// The pin file of the seed commit's ELK-Full / Static gaps. It is
/// written by hand, never by `--pin`.
pub const STATIC_GAP_PINS: &str = "dse_sweep_static_gap";

/// One grid point's `(path, value)` per axis.
pub type Overrides = Vec<(String, Value)>;

/// A point's report, or its typed error as text.
pub type PointResult = Result<SimulateReport, String>;

/// One grid point: its axis values, named `key`, and its scenario.
struct Point {
    key: String,
    spec: ScenarioSpec,
}

pub struct DseSweep {
    seed: u64,
    threads: usize,
    /// `Some(n)` limits the grid to its first `n` points (self-tests).
    limit: Option<usize>,
    points: Vec<Point>,
    pins: BTreeMap<String, String>,
    /// ELK-Full / Static ratio of each point where the seed commit
    /// already had ELK-Full slower than Static beyond the slack (see the
    /// benchmark doc).
    pub static_gap_caps: BTreeMap<String, f64>,
    /// Exported report of each point from the latest untraced pass.
    untraced: HashMap<String, String>,
    /// Fitted runners by chip, for the traced baselines.
    runners: Mutex<HashMap<String, Arc<DesignRunner>>>,
}

/// The whole axis grid of the base scenario: (key, overrides) per point,
/// in row-major order.
pub fn full_grid() -> Result<(Value, Vec<(String, Overrides)>), String> {
    let doc: Value = serde_json::from_str(BASE).map_err(|e| e.to_string())?;
    let spec = ScenarioSpec::from_value(&doc).map_err(|e| e.to_string())?;
    let sweep = spec.sweep.ok_or("dse_sweep.json has no sweep section")?;
    let mut grid: Vec<(String, Overrides)> = vec![(String::new(), Vec::new())];
    for axis in &sweep.axes {
        let short = axis.path.rsplit('.').next().unwrap_or(&axis.path);
        grid = grid
            .into_iter()
            .flat_map(|(key, ov)| {
                axis.values.iter().map(move |v| {
                    let sep = if key.is_empty() { "" } else { "," };
                    let text = serde_json::to_string(v).unwrap_or_default();
                    let mut ov = ov.clone();
                    ov.push((axis.path.clone(), v.clone()));
                    (format!("{key}{sep}{short}={}", text.trim_matches('"')), ov)
                })
            })
            .collect();
    }
    let Value::Map(entries) = doc else {
        return Err("dse_sweep.json is not an object".into());
    };
    let base = Value::Map(entries.into_iter().filter(|(k, _)| k != "sweep").collect());
    Ok((base, grid))
}

/// The first `n` points of the shuffled grid, taken from each model in
/// turn: point costs depend mostly on the model, so an equal share per
/// model keeps the pass's work nearly the same for every seed.
fn stratified<T>(grid: Vec<(String, T)>, n: usize) -> Vec<(String, T)> {
    let model = |key: &str| {
        key.split(',')
            .find(|kv| kv.starts_with("zoo="))
            .map(str::to_string)
    };
    let mut groups: BTreeMap<Option<String>, std::collections::VecDeque<(String, T)>> =
        BTreeMap::new();
    for point in grid {
        groups.entry(model(&point.0)).or_default().push_back(point);
    }
    let mut out = Vec::new();
    while out.len() < n && groups.values().any(|g| !g.is_empty()) {
        for g in groups.values_mut() {
            if out.len() < n {
                out.extend(g.pop_front());
            }
        }
    }
    out
}

/// Parses one grid point as a plain (sweepless) scenario.
pub fn point_spec(
    base: &Value,
    key: &str,
    overrides: &[(String, Value)],
) -> Result<ScenarioSpec, String> {
    let mut doc = base.clone();
    for (path, value) in overrides {
        set_path(&mut doc, path, value.clone()).map_err(|e| e.to_string())?;
    }
    let mut spec = ScenarioSpec::from_value(&doc).map_err(|e| format!("{key}: {e}"))?;
    spec.name = format!("dse_sweep[{key}]");
    Ok(spec)
}

/// The digest of one point's outcome: its report, or its typed error.
pub fn point_digest(result: &PointResult) -> String {
    let mut d = Digest::default();
    match result {
        Ok(report) => d.serialized(report),
        Err(e) => d.bytes(format!("error: {e}").as_bytes()),
    }
    d.hex()
}

impl DseSweep {
    pub fn new(seed: u64, threads: usize, limit: Option<usize>) -> Result<Self, String> {
        Ok(DseSweep {
            seed,
            threads,
            limit,
            points: Vec::new(),
            pins: load_pins("dse_sweep")?,
            static_gap_caps: load_pins(STATIC_GAP_PINS)?,
            untraced: HashMap::new(),
            runners: Mutex::new(HashMap::new()),
        })
    }

    /// A fitted runner for `system`'s chip, shared across points.
    fn runner_for(
        &self,
        system: &elk::hw::SystemConfig,
        tracer: &Tracer,
        worker: usize,
    ) -> Arc<DesignRunner> {
        let key = format!("{:?}", system.chip);
        if let Some(r) = self.runners.lock().expect("runner map poisoned").get(&key) {
            return Arc::clone(r);
        }
        let r = Arc::new(tracer.span("elk-cost.fit", worker, || {
            DesignRunner::new(system.clone()).with_threads(1)
        }));
        self.runners
            .lock()
            .expect("runner map poisoned")
            .entry(key)
            .or_insert(r)
            .clone()
    }

    /// Runs every point on `threads` workers; `f` runs one point. Each
    /// result comes with the point's host ms. The host speed is sampled
    /// on the same worker just before each point.
    fn fan_out<T: Send>(&self, f: impl Fn(usize, &Point) -> T + Sync) -> Vec<(T, f64)> {
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<(T, f64)>>> =
            Mutex::new((0..self.points.len()).map(|_| None).collect());
        std::thread::scope(|s| {
            for worker in 0..self.threads.max(1) {
                let (next, results, f) = (&next, &results, &f);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = self.points.get(i) else {
                        break;
                    };
                    calib::sample();
                    let t0 = Instant::now();
                    let out = f(worker, point);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    results.lock().expect("results poisoned")[i] = Some((out, ms));
                });
            }
        });
        results
            .into_inner()
            .expect("results poisoned")
            .into_iter()
            .map(|r| r.expect("every point ran"))
            .collect()
    }
}

/// Per-point counts of the traced decomposition.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    signatures: usize,
    plans: usize,
    orders_considered: usize,
    orders_feasible: usize,
}

/// What one traced point produced.
struct Traced {
    result: PointResult,
    counts: Counts,
    /// ELK-Full's program and simulator report, for the program check.
    full: Option<(DeviceProgram, SimReport)>,
}

impl DseSweep {
    /// One point rebuilt from the layers' entry points, mirroring
    /// `run_simulate` → `run_compile` → `DesignRunner::run` →
    /// `Compiler::compile_with_catalog`.
    fn decompose(&self, spec: &ScenarioSpec, tracer: &Tracer, worker: usize) -> Traced {
        let mut counts = Counts::default();
        let mut full = None;
        let result = (|| -> Result<SimulateReport, SpecError> {
            let system = spec.system.to_system()?;
            let model = spec.model.resolve()?;
            let workload = spec.workload.to_workload()?;
            let shards = spec.workload.shards_for(&system)?;
            let sim = spec.sim.to_options()?;
            let graph = tracer.span("elk-model.build", worker, || model.build(workload, shards));
            let runner = self.runner_for(&system, tracer, worker);
            let cost = tracer.span("elk-cost.fit", worker, || {
                let device = AnalyticDevice::of_chip(&system.chip).with_noise(0.05);
                LearnedCostModel::fit(&device, &ProfileConfig::default())
            });
            let catalog = tracer.span("elk-core.catalog", worker, || {
                let partitioner = Partitioner::new(&system.chip, &cost);
                Catalog::build_par(&graph, &partitioner, spec.compiler.threads)
            })?;
            counts.signatures += catalog.distinct_signatures();
            counts.plans += (0..catalog.len())
                .map(|i| catalog.op(OpId(i)).plans.len())
                .sum::<usize>();

            let mut reports: Vec<(Design, SimReport)> = Vec::new();
            for &design in &spec.compiler.design {
                let report = match design {
                    Design::ElkDyn | Design::ElkFull => {
                        let mut opts = CompilerOptions::default();
                        opts.reorder.enable = design == Design::ElkFull;
                        let capacity = opts
                            .schedule
                            .capacity_override
                            .unwrap_or_else(|| system.chip.usable_sram_per_core());
                        let candidates = tracer.span("elk-core.orders", worker, || {
                            candidate_orders(&graph, &catalog, capacity, &opts.reorder)
                        });
                        let scheduler = Scheduler::new(&graph, &catalog, &system, opts.schedule);
                        let scores: Vec<_> = candidates
                            .iter()
                            .map(|cand| {
                                let sched = tracer.span("elk-core.schedule", worker, || {
                                    scheduler.schedule(&cand.order)
                                });
                                sched.ok().map(|sched| {
                                    let prog = tracer.span("elk-core.lower", worker, || {
                                        DeviceProgram::lower(&graph, &catalog, &sched)
                                    });
                                    let est = tracer.span("elk-core.estimate", worker, || {
                                        evaluate(&prog, capacity)
                                    });
                                    (est.total, est.capacity_violations)
                                })
                            })
                            .collect();
                        counts.orders_considered += candidates.len();
                        counts.orders_feasible += scores.iter().flatten().count();
                        let best = scores
                            .iter()
                            .enumerate()
                            .filter_map(|(idx, s)| {
                                s.map(|(total, violations)| (idx, total, violations))
                            })
                            .min_by(|a, b| (a.2, a.1).cmp(&(b.2, b.1)))
                            .map(|(idx, _, _)| idx)
                            .ok_or_else(|| CompileError::InvalidPreloadOrder {
                                reason: "no candidate preload order scheduled feasibly".to_string(),
                            })?;
                        let schedule = tracer.span("elk-core.schedule", worker, || {
                            scheduler.schedule(&candidates[best].order)
                        })?;
                        let program = tracer.span("elk-core.lower", worker, || {
                            DeviceProgram::lower(&graph, &catalog, &schedule)
                        });
                        tracer.span("elk-core.estimate", worker, || evaluate(&program, capacity));
                        let report = tracer.span("elk-sim.simulate", worker, || {
                            simulate(&program, &system, &sim)
                        });
                        if design == Design::ElkFull {
                            full = Some((program, report.clone()));
                        }
                        report
                    }
                    Design::Basic | Design::Static | Design::Ideal => {
                        let runner = runner.with_system(system.clone());
                        tracer
                            .span("elk-baselines.plan", worker, || {
                                runner.run(design, &graph, &catalog, &sim)
                            })?
                            .report
                    }
                };
                reports.push((design, report));
            }
            let basic_total = reports
                .iter()
                .find(|(d, _)| *d == Design::Basic)
                .map(|(_, r)| r.total);
            Ok(SimulateReport {
                scenario: spec.name.clone(),
                system: system.chip.name.clone(),
                model: model.name().to_string(),
                workload,
                shards,
                designs: reports
                    .into_iter()
                    .map(|(design, r)| DesignSimRow {
                        design,
                        total_ms: r.total.as_millis(),
                        speedup_vs_basic: basic_total.map(|b| b / r.total),
                        buckets: r.buckets,
                        hbm_util: r.hbm_util,
                        noc_util: r.noc_util,
                        achieved_tflops: r.achieved.as_tera(),
                        overlap_fraction: r.overlap_fraction(),
                        capacity_violations: r.capacity_violations,
                    })
                    .collect(),
            })
        })();
        Traced {
            result: result.map_err(|e| e.to_string()),
            counts,
            full,
        }
    }

    /// Compiles ELK-Full through `DesignRunner::run`, the path
    /// `run_simulate` takes, for comparison with a traced program.
    fn untraced_full(spec: &ScenarioSpec) -> Result<(DeviceProgram, SimReport), String> {
        let e = |e: SpecError| e.to_string();
        let system = spec.system.to_system().map_err(e)?;
        let model = spec.model.resolve().map_err(e)?;
        let graph = model.build(
            spec.workload.to_workload().map_err(e)?,
            spec.workload.shards_for(&system).map_err(e)?,
        );
        let runner = DesignRunner::new(system).with_threads(spec.compiler.threads);
        let catalog = runner.catalog(&graph).map_err(|x| x.to_string())?;
        let out = runner
            .run(
                Design::ElkFull,
                &graph,
                &catalog,
                &spec.sim.to_options().map_err(e)?,
            )
            .map_err(|x| x.to_string())?;
        Ok((out.program, out.report))
    }
}

/// Runs every point of the grid through `run_simulate` (for pinning).
pub fn run_full_grid(threads: usize) -> Result<Vec<(String, PointResult)>, String> {
    let mut sweep = DseSweep::new(0, threads, Some(usize::MAX))?;
    let (base, grid) = full_grid()?;
    sweep.points = grid
        .into_iter()
        .map(|(key, overrides)| {
            Ok(Point {
                spec: point_spec(&base, &key, &overrides)?,
                key,
            })
        })
        .collect::<Result<_, String>>()?;
    let results = sweep.fan_out(|_, p| runner::run_simulate(&p.spec).map_err(|e| e.to_string()));
    Ok(sweep
        .points
        .into_iter()
        .zip(results)
        .map(|(p, (r, _))| (p.key, r))
        .collect())
}

impl Workload for DseSweep {
    fn setup_reps(&self) -> usize {
        21
    }

    fn setup_batch(&self) -> usize {
        10
    }

    /// Parses every point of the grid, as a DSE run would, then keeps
    /// the run's seeded sample.
    fn setup(&mut self, tracer: &Tracer) -> Result<(), String> {
        let (base, grid) = full_grid()?;
        let mut points = grid
            .into_iter()
            .map(|(key, overrides)| {
                let spec =
                    tracer.span("elk-spec.parse", 0, || point_spec(&base, &key, &overrides))?;
                Ok((key, spec))
            })
            .collect::<Result<Vec<_>, String>>()?;
        SplitMix(self.seed).shuffle(&mut points);
        self.points = stratified(points, self.limit.unwrap_or(POINTS))
            .into_iter()
            .map(|(key, spec)| Point { key, spec })
            .collect();
        Ok(())
    }

    fn pass(&mut self, tracer: &Tracer) -> Result<PassOut, String> {
        let traced = tracer.enabled();
        let t0 = Instant::now();
        let results = self.fan_out(|worker, point| {
            let out = if traced {
                self.decompose(&point.spec, tracer, worker)
            } else {
                Traced {
                    result: runner::run_simulate(&point.spec).map_err(|e| e.to_string()),
                    counts: Counts::default(),
                    full: None,
                }
            };
            let json = out.result.as_ref().ok().map(|r| {
                tracer.span("export.serialize", worker, || {
                    serde_json::to_string(r).unwrap_or_default()
                })
            });
            (out, json)
        });
        let wall_s = t0.elapsed().as_secs_f64();

        let mut pass = PassOut {
            wall_s,
            spans: tracer.take(),
            ..PassOut::default()
        };
        let (mut log_ratio, mut feasible, mut gaps, mut bytes) = (0.0, 0u64, 0u64, 0usize);
        let mut counts = Counts::default();
        let mut program_checks = 0;
        let mut all = Digest::default();
        for (point, ((out, json), ms)) in self.points.iter().zip(results) {
            let digest = point_digest(&out.result);
            all.bytes(digest.as_bytes());
            pass.op_ms.push(ms);
            pass.work += 1;
            let mut bad = Vec::new();
            match self.pins.get(&point.key) {
                Some(pin) if *pin == digest => {}
                Some(pin) => bad.push(format!("{}: digest {digest} != pinned {pin}", point.key)),
                None => bad.push(format!("{}: no pinned digest", point.key)),
            }
            if let Ok(report) = &out.result {
                let cap = self.static_gap_caps.get(&point.key).copied();
                bad.extend(check_point(report, cap));
                gaps += u64::from(static_gap(report).is_some());
                if let (Some(ideal), Some(full)) = (
                    total_ms(report, Design::Ideal),
                    total_ms(report, Design::ElkFull),
                ) {
                    log_ratio += (ideal / full).ln();
                    feasible += 1;
                }
            }
            if let Some(json) = &json {
                bytes += json.len();
                if traced {
                    if let Some(plain) = self.untraced.get(&point.key) {
                        if plain != json {
                            bad.push(format!(
                                "{}: traced decomposition differs from run_simulate",
                                point.key
                            ));
                        }
                    }
                } else {
                    self.untraced.insert(point.key.clone(), json.clone());
                }
            }
            if let (Some(decomposed), true) = (&out.full, program_checks < PROGRAM_CHECKS) {
                program_checks += 1;
                match Self::untraced_full(&point.spec) {
                    Ok(plain) if plain == *decomposed => {}
                    Ok(_) => bad.push(format!(
                        "{}: traced ELK-Full program or SimReport differs",
                        point.key
                    )),
                    Err(e) => bad.push(format!("{}: {e}", point.key)),
                }
            }
            let c = out.counts;
            counts.signatures += c.signatures;
            counts.plans += c.plans;
            counts.orders_considered += c.orders_considered;
            counts.orders_feasible += c.orders_feasible;
            pass.fail(bad);
        }
        pass.digest = all.hex();
        pass.sim_frac = if feasible > 0 {
            (log_ratio / feasible as f64).exp()
        } else {
            0.0
        };
        let n = self.points.len() as f64;
        pass.named = vec![
            ("points_per_s", n / wall_s, "1/s"),
            ("roofline_frac", pass.sim_frac, "frac"),
            ("feasible_points", feasible as f64, "count"),
            ("static_gap_points", gaps as f64, "count"),
        ];
        pass.counters.insert("export.bytes", bytes as f64);
        if traced {
            pass.counters
                .insert("elk-core.catalog_signatures", counts.signatures as f64);
            pass.counters
                .insert("elk-core.catalog_plans", counts.plans as f64);
            pass.counters.insert(
                "elk-core.orders_considered",
                counts.orders_considered as f64,
            );
            pass.counters.insert(
                "elk-core.orders_feasible_ratio",
                counts.orders_feasible as f64 / (counts.orders_considered.max(1)) as f64,
            );
        }
        Ok(pass)
    }
}
