//! The Elk benchmark runner. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <dse_sweep|serve_scale|serve_engines_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin <workload>     # record the output digests of this commit
//! perfbench --self-test          # show every output check can fail
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod bench;
mod calib;
mod check;
mod dse;
mod selftest;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Serialize, Value};

use bench::{median, quantile, PassOut, Workload};
use spans::{LayerTimes, Span, Tracer};

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("sim_frac", "frac"),
];

/// Per-layer metrics (traced runs): (metric, unit, where it comes from).
/// `Span` metrics are the self time of the span named after the metric
/// minus its unit suffix; `Calls` count those spans.
enum Source {
    Span(f64),
    SetupSpan,
    Calls(&'static str),
    Counter,
    Probe,
    Trace,
}

const PER_LAYER: [(&str, &str, Source); 40] = [
    ("elk-spec.parse_ms", "ms", Source::SetupSpan),
    ("elk-trace.gen_ms", "ms", Source::SetupSpan),
    ("elk-cluster.search_ms", "ms", Source::SetupSpan),
    ("elk-cost.fit_ms", "ms", Source::Span(1.0)),
    ("elk-cost.fit_calls", "count", Source::Calls("elk-cost.fit")),
    ("elk-core.catalog_ms", "ms", Source::Span(1.0)),
    ("elk-core.catalog_signatures", "count", Source::Counter),
    ("elk-core.catalog_plans", "count", Source::Counter),
    ("elk-core.orders_ms", "ms", Source::Span(1.0)),
    ("elk-core.orders_considered", "count", Source::Counter),
    ("elk-core.orders_feasible_ratio", "frac", Source::Counter),
    ("elk-core.schedule_ms", "ms", Source::Span(1.0)),
    ("elk-core.lower_ms", "ms", Source::Span(1.0)),
    ("elk-core.estimate_ms", "ms", Source::Span(1.0)),
    ("elk-baselines.plan_ms", "ms", Source::Span(1.0)),
    ("elk-sim.simulate_ms", "ms", Source::Span(1.0)),
    ("elk-sim.calls", "count", Source::Calls("elk-sim.simulate")),
    ("elk-cluster.serve_run_s", "s", Source::Span(1e-3)),
    ("elk-cluster.serve_ns_per_event", "ns", Source::Counter),
    ("elk-serve.replica_run_s", "s", Source::Span(1e-3)),
    ("elk-serve.replica_ns_per_event", "ns", Source::Counter),
    ("elk-cluster.disagg_run_s", "s", Source::Span(1e-3)),
    ("elk-cluster.disagg_ns_per_event", "ns", Source::Counter),
    ("elk-cluster.tenancy_run_s", "s", Source::Span(1e-3)),
    ("elk-cluster.tenancy_ns_per_event", "ns", Source::Counter),
    ("elk-cluster.autoscale_run_s", "s", Source::Span(1e-3)),
    ("elk-cluster.autoscale_ns_per_event", "ns", Source::Counter),
    ("elk-sim-core.events", "count", Source::Counter),
    ("elk-sim-core.peak_queue_len", "count", Source::Counter),
    ("elk-serve.plancache_hit_ratio", "frac", Source::Counter),
    ("elk-serve.plancache_misses", "count", Source::Counter),
    ("elk-serve.plancache_hit_ns", "ns", Source::Probe),
    ("elk-serve.plancache_miss_ms", "ms", Source::Probe),
    ("export.serialize_ms", "ms", Source::Span(1.0)),
    ("export.bytes", "bytes", Source::Counter),
    ("trace.wall_s", "s", Source::Trace),
    ("trace.untraced_wall_s", "s", Source::Trace),
    ("trace.overhead_s", "s", Source::Trace),
    ("trace.overhead_frac", "frac", Source::Trace),
    ("trace.uncovered_frac", "frac", Source::Trace),
];

/// Layer work that runs inside an engine's `run` and has no public
/// entry point, so no span from outside can time it.
const NOT_MEASURABLE: [(&str, &str); 4] = [
    (
        "elk-sim-core.dispatch",
        "kernel event dispatch runs inside each engine's run",
    ),
    (
        "elk-serve.plancache_lookup",
        "key building and lookups run inside each engine's run; only the probe times them",
    ),
    (
        "elk-serve.summarize",
        "per-step and final report summarizing run inside each engine's run",
    ),
    (
        "elk-obs",
        "the engines run with observability off; its cost is not on this path",
    ),
];

/// Worker threads of every run: one per core, at most two.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<(String, Args), String> {
    let mut mode = "run".to_string();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: threads(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = num(value()?)? as f64,
            "--trace" => args.trace = num(value()?)? != 0,
            "--pin" => {
                mode = "pin".into();
                args.workload = value()?;
            }
            "--self-test" => mode = "self-test".into(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((mode, args))
}

fn make(name: &str, seed: u64, threads: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "dse_sweep" => Box::new(dse::DseSweep::new(seed, threads, None)?),
        "serve_scale" => Box::new(serve::ServeScale::new(seed, threads, None)?),
        "serve_engines_mix" => Box::new(serve::EnginesMix::new(seed, threads, None)?),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

fn peak_rss_now_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Everything one run measured. Host times are raw.
struct Run {
    setup_s: Vec<f64>,
    setup_layers: LayerTimes,
    passes: Vec<(bool, PassOut)>,
    probe: BTreeMap<&'static str, f64>,
    peak_rss_mib: f64,
    /// The host-speed samples taken during set-up (see `calib`).
    setup_reference_ns: Vec<f64>,
}

fn run(args: &Args) -> Result<Run, String> {
    let mut w = make(&args.workload, args.seed, args.threads)?;
    let off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let batch = w.setup_batch();
    for _ in 0..w.setup_reps() {
        calib::sample();
        let t0 = Instant::now();
        for _ in 0..batch {
            w.setup(&off)?;
        }
        setup_s.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    let setup_reference_ns = calib::take_samples();
    let mut setup_layers = LayerTimes::default();
    if args.trace {
        let tracer = Tracer::new(true);
        w.setup(&tracer)?;
        setup_layers = LayerTimes::of(&tracer.take());
    }
    w.warm_up()?;

    // Passes back to back until the time is up. A traced run alternates
    // untraced and traced passes, starting untraced: the untraced ones
    // are the base of the tracing overhead.
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let mut pass = w.pass(&Tracer::new(traced))?;
        pass.reference_ns = calib::take_samples();
        passes.push((traced, pass));
        // The peak after set-up, warm-up and one pass: later passes only
        // add heap fragmentation, and how many there are depends on the
        // box.
        if passes.len() == 1 {
            peak_rss_mib = peak_rss_now_mib();
        }
        let done = started.elapsed().as_secs_f64() >= args.seconds;
        if done && (!args.trace || passes.len() >= 2) {
            break;
        }
    }
    let probe = if args.trace {
        w.probe()?
    } else {
        BTreeMap::new()
    };
    Ok(Run {
        setup_s,
        setup_layers,
        passes,
        probe,
        peak_rss_mib,
        setup_reference_ns,
    })
}

/// The span a `…_ms` / `…_s` metric times: its name minus the suffix.
fn span_of(metric: &str) -> &str {
    metric.rsplit_once('_').map_or(metric, |(head, _)| head)
}

fn metrics(args: &Args, r: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let pick = |traced: bool| {
        r.passes
            .iter()
            .filter(move |(t, _)| *t == traced)
            .map(|(_, p)| p)
    };
    // End-to-end host times are at the reference speed.
    let speed = |p: &PassOut| calib::speed_factor(&p.reference_ns);
    let plain: Vec<&PassOut> = pick(false).collect();
    let wall: Vec<f64> = plain.iter().map(|p| p.wall_s * speed(p)).collect();
    if !args.trace {
        let ops: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.op_ms.iter().map(move |ms| ms * speed(p)))
            .collect();
        let throughput: Vec<f64> = plain
            .iter()
            .zip(&wall)
            .map(|(p, w)| p.work as f64 / w)
            .collect();
        let value = |name: &str| match name {
            "setup_s" => median(&r.setup_s) * calib::speed_factor(&r.setup_reference_ns),
            "wall_s" => median(&wall),
            "peak_rss_mib" => r.peak_rss_mib,
            "ops_per_s" => median(&throughput),
            "op_p50_ms" => quantile(&ops, 0.5),
            "op_p90_ms" => quantile(&ops, 0.9),
            "sim_frac" => median(&plain.iter().map(|p| p.sim_frac).collect::<Vec<_>>()),
            _ => unreachable!("every end-to-end metric has a value"),
        };
        return END_TO_END.iter().map(|&(n, u)| (n, value(n), u)).collect();
    }

    let traced: Vec<&PassOut> = pick(true).collect();
    let layers: Vec<LayerTimes> = traced.iter().map(|p| LayerTimes::of(&p.spans)).collect();
    let over = |f: &dyn Fn(usize) -> f64| median(&(0..traced.len()).map(f).collect::<Vec<_>>());
    let traced_wall = over(&|i| traced[i].wall_s * speed(traced[i]));
    let plain_wall = median(&wall);
    let uncovered = over(&|i| {
        let workers = traced[i]
            .spans
            .iter()
            .map(|s| s.worker + 1)
            .max()
            .unwrap_or(1);
        1.0 - layers[i].covered_ns as f64 / 1e9 / (traced[i].wall_s * workers as f64)
    });
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let v = match source {
                Source::Span(scale) => over(&|i| layers[i].ms(span_of(name)) * scale),
                Source::SetupSpan => r.setup_layers.ms(span_of(name)),
                Source::Calls(span) => over(&|i| layers[i].calls(span) as f64),
                Source::Counter => over(&|i| traced[i].counters.get(name).copied().unwrap_or(0.0)),
                Source::Probe => r.probe.get(name).copied().unwrap_or(0.0),
                Source::Trace => match *name {
                    "trace.wall_s" => traced_wall,
                    "trace.untraced_wall_s" => plain_wall,
                    "trace.overhead_s" => traced_wall - plain_wall,
                    "trace.overhead_frac" => (traced_wall - plain_wall) / plain_wall,
                    _ => uncovered,
                },
            };
            (*name, v, *unit)
        })
        .collect()
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn spans_value(passes: &[(bool, PassOut)]) -> Value {
    let span = |pass: usize, s: &Span| {
        obj(vec![
            ("pass", pass.to_value()),
            ("name", s.name.to_value()),
            ("worker", s.worker.to_value()),
            ("start_ns", s.start_ns.to_value()),
            ("end_ns", s.end_ns.to_value()),
            ("parent", s.parent.to_value()),
        ])
    };
    Value::Seq(
        passes
            .iter()
            .enumerate()
            .flat_map(|(i, (_, p))| p.spans.iter().map(move |s| span(i, s)))
            .collect(),
    )
}

fn run_mode(args: &Args) -> Result<bool, String> {
    let r = run(args)?;
    let metrics = metrics(args, &r);
    let attempted: u64 = r.passes.iter().map(|(_, p)| p.op_ms.len() as u64).sum();
    let failed: u64 = r.passes.iter().map(|(_, p)| p.failed).sum();
    let failures: Vec<&String> = r.passes.iter().flat_map(|(_, p)| &p.failures).collect();

    // The launcher's part (git sha, tree digest, nproc, rustc -V) plus
    // this run's seed and thread count.
    let mut meta: BTreeMap<String, Value> = std::env::var("PERFBENCH_META")
        .ok()
        .and_then(|m| serde_json::from_str(&m).ok())
        .unwrap_or_default();
    meta.insert("seed".into(), args.seed.to_value());
    meta.insert("threads".into(), args.threads.to_value());
    let meta = Value::Map(meta.into_iter().collect());
    println!("meta {}", serde_json::to_string(&meta).unwrap_or_default());
    println!(
        "workload {} seed {} threads {} passes {} ops {attempted} failed {failed}",
        args.workload,
        args.seed,
        args.threads,
        r.passes.len()
    );
    if let Some((_, last)) = r.passes.last() {
        for (name, v, unit) in &last.named {
            println!("  {name:<34} {v:>16.4} {unit}");
        }
    }
    for (name, v, unit) in &metrics {
        println!("  {name:<34} {v:>16.4} {unit}");
    }
    if args.trace {
        for (layer, why) in NOT_MEASURABLE {
            println!("  not measurable from outside: {layer}: {why}");
        }
    }
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
        eprintln!("FAILED {f}");
    }

    let metric_map = |m: &[(&str, f64, &str)]| {
        obj(m
            .iter()
            .map(|&(n, v, u)| {
                (
                    n,
                    obj(vec![("value", v.to_value()), ("unit", u.to_value())]),
                )
            })
            .collect())
    };
    let mut record = vec![
        ("meta", meta),
        ("workload", args.workload.to_value()),
        ("seed", args.seed.to_value()),
        ("threads", args.threads.to_value()),
        ("seconds", args.seconds.to_value()),
        ("trace", args.trace.to_value()),
        ("setup_s_raw", r.setup_s.to_value()),
        (
            "pass_wall_s_raw",
            r.passes
                .iter()
                .map(|(_, p)| p.wall_s)
                .collect::<Vec<_>>()
                .to_value(),
        ),
        ("setup_reference_ns", r.setup_reference_ns.to_value()),
        (
            "pass_op_ms_raw",
            r.passes
                .iter()
                .map(|(_, p)| p.op_ms.clone())
                .collect::<Vec<_>>()
                .to_value(),
        ),
        (
            "pass_reference_ns",
            r.passes
                .iter()
                .map(|(_, p)| p.reference_ns.clone())
                .collect::<Vec<_>>()
                .to_value(),
        ),
        ("metrics", metric_map(&metrics)),
        ("failures", failures.to_value()),
    ];
    if args.trace {
        record.push((
            "not_measurable",
            obj(NOT_MEASURABLE
                .iter()
                .map(|&(k, v)| (k, v.to_value()))
                .collect()),
        ));
    }
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(out).map_err(|e| format!("{out}: {e}"))?;
    let stem = format!(
        "{out}/{}.seed{}.trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let write = |path: String, v: &Value| {
        std::fs::write(&path, serde_json::to_string(v).unwrap_or_default() + "\n")
            .map_err(|e| format!("{path}: {e}"))
    };
    write(format!("{stem}.json"), &obj(record))?;
    if args.trace {
        write(format!("{stem}.spans.json"), &spans_value(&r.passes))?;
    }

    let result = obj(vec![
        ("correct", (failed == 0).to_value()),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
        ("metrics", metric_map(&metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    Ok(failed == 0)
}

fn main() {
    let outcome = parse_args().and_then(|(mode, args)| match mode.as_str() {
        "pin" => pin(&args).map(|()| true),
        "self-test" => selftest::run(),
        _ => run_mode(&args),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Records the digests of this commit's outputs: every grid point of
/// `dse_sweep`, or every seed class of a serving workload. On
/// `dse_sweep` it records nothing, and lists the points, when a point
/// breaks ELK-Full <= Static beyond the seed commit's gaps.
fn pin(args: &Args) -> Result<(), String> {
    let mut pins = BTreeMap::new();
    match args.workload.as_str() {
        "dse_sweep" => {
            let caps = dse::DseSweep::new(0, args.threads, None)?.static_gap_caps;
            let mut broken = Vec::new();
            for (key, result) in dse::run_full_grid(args.threads)? {
                if let Some(ratio) = result.as_ref().ok().and_then(check::static_gap) {
                    if caps.get(&key).is_none_or(|&cap| ratio > cap) {
                        broken.push(format!("  \"{key}\": {ratio},"));
                    }
                }
                pins.insert(key, dse::point_digest(&result));
            }
            if !broken.is_empty() {
                return Err(format!(
                    "{} points break ELK-Full <= Static beyond pins/{}.json \
                     (ELK-Full / Static per point); nothing pinned:\n{}",
                    broken.len(),
                    dse::STATIC_GAP_PINS,
                    broken.join("\n")
                ));
            }
        }
        "serve_scale" | "serve_engines_mix" => {
            for class in 0..serve::SEED_CLASSES {
                let digest = bench::one_pass(make(&args.workload, class, args.threads)?)?.digest;
                eprintln!("{} class {class}: {digest}", args.workload);
                pins.insert(class.to_string(), digest);
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    bench::save_pins(&args.workload, &pins)
}
