//! Golden guarantees of the cluster layer (acceptance checks of the
//! elk-cluster PR):
//!
//! 1. `scenarios/pod4_llama_tp_pp.json` (shrunk to test size via the
//!    sweep override machinery) auto-selects a `(tp, pp, dp)` plan and
//!    produces a `ClusterRunReport` with a per-stage timeline, bubble
//!    fraction, and scaling efficiency;
//! 2. the whole report — search included — is byte-identical at
//!    `threads = 1` vs `8`;
//! 3. a pinned `tp = pp = dp = 1` plan reproduces the single-chip
//!    `SimReport` total bit for bit (the cluster layer adds no drift);
//! 4. the router-comparison scenario serves every request under every
//!    policy, byte-identically across thread counts.

use elk::baselines::{Design, DesignRunner};
use elk::cluster::ParallelismPlan;
use elk::prelude::*;
use elk::spec::sweep::set_path;
use elk::spec::{runner, ScenarioSpec};

fn scenario_doc(name: &str) -> serde::Value {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).expect("valid scenario JSON")
}

fn shrunk_pod4(threads: u64) -> ScenarioSpec {
    let mut doc = scenario_doc("pod4_llama_tp_pp.json");
    set_path(&mut doc, "model.layers", serde::Value::U64(2)).unwrap();
    set_path(&mut doc, "workload.batch", serde::Value::U64(8)).unwrap();
    set_path(&mut doc, "workload.seq_len", serde::Value::U64(512)).unwrap();
    set_path(&mut doc, "cluster.threads", serde::Value::U64(threads)).unwrap();
    serde::Deserialize::from_value(&doc).expect("still a valid scenario")
}

#[test]
fn pod4_scenario_auto_selects_a_plan_with_full_reporting() {
    let report = runner::run_cluster(&shrunk_pod4(1)).expect("cluster run succeeds");
    assert!(report.auto, "no pinned plan: the search must have run");
    let candidates = report.candidates.as_ref().expect("grid recorded");
    assert!(
        candidates.iter().filter(|c| c.step_total.is_some()).count() >= 4,
        "pod4 has several feasible layouts"
    );

    let e = &report.estimate;
    assert!(e.plan.chips_used() <= 4);
    assert_eq!(
        e.stages.len(),
        e.plan.pp as usize,
        "one timeline row per stage"
    );
    assert!(e.stages[0].start.is_zero());
    assert_eq!(
        e.stages.last().unwrap().end,
        e.step_total,
        "the timeline closes the step"
    );
    assert!((0.0..1.0).contains(&e.bubble_fraction));
    let eff = e.scaling_efficiency.expect("single-chip baseline feasible");
    assert!(eff > 0.0, "efficiency must be positive, got {eff}");
    // The winner is at least as fast as every feasible candidate.
    for c in candidates {
        if let Some(t) = c.step_total {
            assert!(e.step_total <= t, "{:?} beat the chosen plan", c.plan);
        }
    }
}

#[test]
fn cluster_reports_are_byte_identical_across_thread_counts() {
    let seq = runner::run_cluster(&shrunk_pod4(1)).expect("threads=1");
    let par = runner::run_cluster(&shrunk_pod4(8)).expect("threads=8");
    assert_eq!(
        serde_json::to_string(&seq).expect("serialize"),
        serde_json::to_string(&par).expect("serialize"),
        "auto-search report must be byte-identical at any thread count"
    );
}

/// The tp=pp=dp=1 equivalence: the cluster estimate of the trivial plan
/// *is* the single-chip SimReport — same engine path, zero collective
/// and pipeline overhead, efficiency exactly 1.
#[test]
fn unit_plan_pins_to_the_single_chip_sim_report() {
    let mut doc = scenario_doc("pod4_llama_tp_pp.json");
    set_path(&mut doc, "model.layers", serde::Value::U64(2)).unwrap();
    set_path(&mut doc, "workload.batch", serde::Value::U64(8)).unwrap();
    set_path(&mut doc, "workload.seq_len", serde::Value::U64(512)).unwrap();
    set_path(
        &mut doc,
        "cluster.plan",
        serde_json::from_str(r#"{"tp": 1, "pp": 1, "dp": 1}"#).unwrap(),
    )
    .unwrap();
    let spec: ScenarioSpec = serde::Deserialize::from_value(&doc).expect("valid");
    let report = runner::run_cluster(&spec).expect("unit plan runs");
    assert!(!report.auto);
    assert_eq!(report.estimate.plan, ParallelismPlan::unit());

    // Reference: the same engine calls on a 1-chip carve of the pod.
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 2;
    let graph = cfg.build(Workload::decode(8, 512), 1);
    let runner_hw = DesignRunner::new(presets::ipu_pod4().subpod(1)).with_threads(1);
    let catalog = runner_hw.catalog(&graph).expect("catalog");
    let outcome = runner_hw
        .run(Design::ElkFull, &graph, &catalog, &SimOptions::default())
        .expect("single-chip compile");

    assert_eq!(
        report.estimate.step_total, outcome.report.total,
        "ClusterReport total must pin to the single-chip SimReport"
    );
    assert_eq!(report.estimate.scaling_efficiency, Some(1.0));
    assert_eq!(report.estimate.bubble_fraction, 0.0);
}

/// The two disaggregation scenarios pin their latency arithmetic
/// exactly: TTFT/TPOT percentiles to the last f64 bit, plus the event
/// count the kernel processed. These constants are history — a change
/// means the disaggregated engine's arithmetic changed, which must be
/// a conscious decision. The same runs are diffed `--threads 1` vs
/// `8` (byte-identical), mirroring the CI determinism step.
#[test]
fn disagg_scenarios_pin_percentiles_and_event_counts() {
    struct Pin {
        scenario: &'static str,
        completed: usize,
        ttft_p50: f64,
        ttft_p99: f64,
        tpot_mean: f64,
        tpot_p99: f64,
        sim_events: u64,
        prefill_tokens: u64,
        kv_moved: u64,
    }
    let pins = [
        Pin {
            scenario: "disagg_longprompt.json",
            completed: 48,
            ttft_p50: 0.140_117_256_739_309_5,
            ttft_p99: 0.383_279_313_720_312_4,
            tpot_mean: 4.717_195_106_947_954_3e-4,
            tpot_p99: 5.146_112_732_666_96e-4,
            sim_events: 1501,
            prefill_tokens: 17_790,
            kv_moved: 364_339_200,
        },
        Pin {
            scenario: "disagg_chat.json",
            completed: 64,
            ttft_p50: 0.036_213_996_757_350_3,
            ttft_p99: 0.080_502_287_511_067_67,
            tpot_mean: 5.112_317_365_324_883e-4,
            tpot_p99: 7.084_633_093_149_092e-4,
            sim_events: 824,
            prefill_tokens: 10_792,
            kv_moved: 221_020_160,
        },
    ];
    for pin in pins {
        let doc = scenario_doc(pin.scenario);
        let spec: ScenarioSpec = serde::Deserialize::from_value(&doc).expect("valid scenario");
        let report = runner::run_cluster(&spec).expect("disagg scenario runs");
        let rows = report.disagg.as_ref().expect("cluster.disaggregate is on");
        assert_eq!(rows.len(), 1, "one design x one policy");
        let r = &rows[0];
        let ctx = pin.scenario;
        assert_eq!(r.completed, pin.completed, "{ctx}");
        assert_eq!(r.ttft.p50.as_secs(), pin.ttft_p50, "{ctx}: ttft p50");
        assert_eq!(r.ttft.p99.as_secs(), pin.ttft_p99, "{ctx}: ttft p99");
        assert_eq!(r.tpot.mean.as_secs(), pin.tpot_mean, "{ctx}: tpot mean");
        assert_eq!(r.tpot.p99.as_secs(), pin.tpot_p99, "{ctx}: tpot p99");
        assert_eq!(r.sim_events, pin.sim_events, "{ctx}: kernel event count");
        assert_eq!(r.prefill_tokens, pin.prefill_tokens, "{ctx}");
        assert_eq!(r.kv_moved.get(), pin.kv_moved, "{ctx}: KV bytes moved");

        let mut doc8 = doc.clone();
        set_path(&mut doc8, "cluster.threads", serde::Value::U64(8)).unwrap();
        let spec8: ScenarioSpec = serde::Deserialize::from_value(&doc8).expect("valid");
        let par = runner::run_cluster(&spec8).expect("threads=8");
        assert_eq!(
            serde_json::to_string(&report).expect("serialize"),
            serde_json::to_string(&par).expect("serialize"),
            "{ctx}: disagg report must be byte-identical at any thread count"
        );
    }
}

/// The degenerate differential on the checked-in golden trace: the
/// disaggregated engine with handoff bytes zeroed (`shared_chips`),
/// chunking off, and identical pool plans must reproduce the colocated
/// engine bit for bit — same outcomes, same percentiles — on a trace
/// whose bytes are themselves pinned by `trace_golden.rs`.
#[test]
fn degenerate_disagg_reproduces_colocated_on_the_golden_trace() {
    use elk::cluster::{ClusterServeConfig, ClusterServingSim, DisaggConfig, DisaggServingSim};
    use elk::serve::RouterPolicy;
    use elk::trace::TraceFile;

    let text = std::fs::read_to_string(format!(
        "{}/traces/golden_small.jsonl",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("golden trace exists");
    let trace = TraceFile::parse(&text)
        .expect("golden trace parses")
        .to_request_trace();

    let mut model = zoo::llama2_13b();
    model.layers = 2;
    let plan = ParallelismPlan::new(1, 1, 2);
    let batch = BatchConfig {
        max_batch: 8,
        max_prefill_tokens: 2048,
        seq_buckets: SeqBuckets::new(256, 2048),
        bucket_batch: true,
    };

    let mut colo = ClusterServingSim::new(
        presets::ipu_pod4(),
        ClusterServeConfig {
            batch,
            ..ClusterServeConfig::new(model.clone(), plan)
        },
    )
    .expect("colocated config");
    let mut disagg = DisaggServingSim::new(
        presets::ipu_pod4(),
        DisaggConfig {
            batch,
            shared_chips: true,
            ..DisaggConfig::new(model, plan, plan)
        },
    )
    .expect("degenerate disagg config");

    for policy in RouterPolicy::all() {
        let c = colo
            .run(Design::ElkFull, policy, &trace)
            .expect("colocated");
        let d = disagg.run(Design::ElkFull, policy, &trace).expect("disagg");
        assert_eq!(
            d.outcomes, c.outcomes,
            "{policy}: outcomes must be bit-identical"
        );
        assert_eq!(
            serde_json::to_string(&d.ttft).unwrap(),
            serde_json::to_string(&c.ttft).unwrap(),
            "{policy}: TTFT stats must serialize identically"
        );
        assert_eq!(
            serde_json::to_string(&d.tpot).unwrap(),
            serde_json::to_string(&c.tpot).unwrap(),
            "{policy}: TPOT stats must serialize identically"
        );
        assert_eq!(d.makespan, c.makespan, "{policy}");
        assert_eq!(d.prefill_steps, c.prefill_steps, "{policy}");
        assert_eq!(d.decode_steps, c.decode_steps, "{policy}");
        assert!(d.kv_moved.is_zero(), "{policy}: shared chips move no KV");
    }
}

#[test]
fn router_scenario_serves_every_request_under_every_policy() {
    let mut doc = scenario_doc("cluster_router_burst.json");
    set_path(&mut doc, "serving.trace.requests", serde::Value::U64(8)).unwrap();
    let spec: ScenarioSpec = serde::Deserialize::from_value(&doc).expect("valid");
    let report = runner::run_cluster(&spec).expect("router scenario runs");
    let rows = report.serving.as_ref().expect("cluster.serve is on");
    assert_eq!(rows.len(), 3, "three router policies compared");
    let mut names: Vec<&str> = rows.iter().map(|r| r.policy.name()).collect();
    names.dedup();
    assert_eq!(names, ["round_robin", "least_outstanding", "power_of_two"]);
    for row in rows {
        assert_eq!(row.completed, 8, "{}", row.policy);
        assert_eq!(row.per_group_requests.iter().sum::<usize>(), 8);
        assert_eq!(row.plan, ParallelismPlan::new(2, 1, 2));
        // All 8 arrivals are scheduled up front, so the heap peaks at
        // the full trace before the first dispatch drains it.
        assert_eq!(row.peak_event_queue_len, 8, "{}", row.policy);
    }

    // Thread-count invariance holds for the serving rows too.
    set_path(&mut doc, "cluster.threads", serde::Value::U64(8)).unwrap();
    let spec8: ScenarioSpec = serde::Deserialize::from_value(&doc).expect("valid");
    let par = runner::run_cluster(&spec8).expect("threads=8");
    assert_eq!(
        serde_json::to_string(&report).expect("serialize"),
        serde_json::to_string(&par).expect("serialize"),
        "routed serving must be byte-identical at any thread count"
    );
}

/// The flat-pool differential: `ServingSim` with one replica sharded
/// over the whole pod and `ClusterServingSim` with `tp` = pod chips,
/// `pp = dp = 1`, round-robin, replay the golden trace identically for
/// every design — outcomes, latency summaries, step counts, queue
/// statistics, and kernel event counts. Below `tp` = chips the two
/// engines diverge (the cluster engine prices on a `tp`-chip subpod,
/// `ServingSim` on the whole pod), so the check stays at the full-pod
/// layout.
#[test]
fn serving_sim_matches_the_cluster_engine_at_full_pod_tp() {
    use elk::cluster::{ClusterServeConfig, ClusterServingSim};
    use elk::serve::RouterPolicy;

    let text = std::fs::read_to_string(format!(
        "{}/traces/golden_small.jsonl",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("golden trace exists");
    let trace = TraceFile::parse(&text)
        .expect("golden trace parses")
        .to_request_trace();

    let pod = presets::ipu_pod4();
    let mut model = zoo::llama2_13b();
    model.layers = 2;
    let batch = BatchConfig {
        max_batch: 8,
        max_prefill_tokens: 2048,
        seq_buckets: SeqBuckets::new(256, 2048),
        bucket_batch: true,
    };
    let mut flat = ServingSim::new(
        pod.clone(),
        ServeConfig {
            batch,
            ..ServeConfig::new(model.clone(), pod.chips)
        },
    );
    let mut cluster = ClusterServingSim::new(
        pod.clone(),
        ClusterServeConfig {
            batch,
            ..ClusterServeConfig::new(model, ParallelismPlan::new(pod.chips, 1, 1))
        },
    )
    .expect("full-pod tp plan fits");

    for design in Design::ALL {
        let s = flat.run(design, &trace).expect("flat pool serves");
        let c = cluster
            .run(design, RouterPolicy::RoundRobin, &trace)
            .expect("cluster serves");
        assert_eq!(s.completed, trace.len(), "{design}");
        assert_eq!(s.outcomes, c.outcomes, "{design}: outcomes");
        assert_eq!(s.ttft, c.ttft, "{design}: TTFT stats");
        assert_eq!(s.tpot, c.tpot, "{design}: TPOT stats");
        assert_eq!(s.e2e, c.e2e, "{design}: e2e stats");
        assert_eq!(s.prefill_steps, c.prefill_steps, "{design}");
        assert_eq!(s.decode_steps, c.decode_steps, "{design}");
        assert_eq!(s.mean_queue_depth, c.mean_queue_depth, "{design}");
        assert_eq!(s.max_queue_depth, c.max_queue_depth, "{design}");
        assert_eq!(s.queue_depth, c.queue_depth, "{design}");
        assert_eq!(s.sim_events, c.sim_events, "{design}");
        assert_eq!(s.peak_event_queue_len, c.peak_event_queue_len, "{design}");
    }
}
