//! Grid sweeps over scenario fields: the design-space-exploration
//! driver behind `elk sweep`.
//!
//! A sweep works on the scenario's *JSON document*, not its parsed
//! struct: each axis names a dotted path (`"workload.batch"`,
//! `"system.chip.cores"`, `"compiler.design"`), and every grid point
//! clones the document, substitutes one value per axis, and re-parses.
//! Any spec field — including ones the base file left to defaults — is
//! sweepable, and every axis path is checked up front against the
//! scenario's key tree ([`ScenarioSpec`]'s derived `schema()`), so a
//! typo fails before any grid point runs.
//!
//! Points fan out over an [`elk_par`] work pool and merge in grid
//! order, so the report is byte-identical at any `--threads` setting.

use serde::{Deserialize, Schema, Serialize, Value};

use crate::report::{SweepPoint, SweepReport};
use crate::spec::{ScenarioSpec, SweepCommand};
use crate::{runner, SpecError};

/// Substitutes `new` at dotted `path` inside `root`, creating missing
/// intermediate objects (strict re-parsing catches paths that create
/// keys the schema does not know).
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] when a path segment lands on a
/// non-object value (e.g. `"name.x"`).
pub fn set_path(root: &mut Value, path: &str, new: Value) -> Result<(), SpecError> {
    let mut cur = root;
    let mut segments = path.split('.').peekable();
    while let Some(seg) = segments.next() {
        let Value::Map(entries) = cur else {
            return Err(SpecError::Invalid(format!(
                "sweep path `{path}`: segment `{seg}` lands inside a non-object value"
            )));
        };
        let idx = match entries.iter().position(|(k, _)| k == seg) {
            Some(idx) => idx,
            None => {
                entries.push((seg.to_string(), Value::Map(Vec::new())));
                entries.len() - 1
            }
        };
        if segments.peek().is_none() {
            entries[idx].1 = new;
            return Ok(());
        }
        cur = &mut entries[idx].1;
    }
    unreachable!("split('.') yields at least one segment")
}

/// Checks a dotted sweep path against the scenario's key tree. On an
/// unknown key the error lists every valid key at that level;
/// descending *into* a leaf value is also an error.
fn validate_path(path: &str) -> Result<(), String> {
    if path.split('.').any(str::is_empty) {
        return Err("malformed path".to_string());
    }
    let mut node = ScenarioSpec::schema();
    let mut walked: Vec<&str> = Vec::new();
    for seg in path.split('.') {
        let Schema::Map(entries) = node else {
            return Err(format!(
                "`{}` is a value, not an object — cannot descend into `{seg}`",
                walked.join(".")
            ));
        };
        let Some((_, child)) = entries.iter().find(|(k, _)| *k == seg) else {
            let valid: Vec<&str> = entries.iter().map(|(k, _)| *k).collect();
            let at = if walked.is_empty() {
                "the scenario root".to_string()
            } else {
                format!("`{}`", walked.join("."))
            };
            return Err(format!(
                "unknown key `{seg}` at {at}; valid keys: {}",
                valid.join(", ")
            ));
        };
        node = child();
        walked.push(seg);
    }
    Ok(())
}

/// One grid point's overrides: `(path, value)` per axis, in axis order.
type Overrides = Vec<(String, Value)>;

/// Expands the axes' cartesian product in row-major order (the last
/// axis varies fastest).
fn grid(axes: &[crate::spec::SweepAxis]) -> Vec<Overrides> {
    let mut points: Vec<Overrides> = vec![Vec::new()];
    for axis in axes {
        points = points
            .into_iter()
            .flat_map(|point| {
                axis.values.iter().map(move |v| {
                    let mut next = point.clone();
                    next.push((axis.path.clone(), v.clone()));
                    next
                })
            })
            .collect();
    }
    points
}

/// Runs the sweep described by the scenario document `doc`, fanning
/// grid points across `threads` workers (`0` = all available cores).
/// The merged report is in grid order and byte-identical at any thread
/// count.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] when the document has no `sweep`
/// section or an override produces an ill-formed scenario, and
/// propagates the first failing point's error (in grid order).
pub fn run_sweep(doc: &Value, threads: usize) -> Result<SweepReport, SpecError> {
    let spec = ScenarioSpec::from_value(doc).map_err(SpecError::from)?;
    let Some(sweep) = spec.sweep else {
        return Err(SpecError::Invalid(format!(
            "scenario `{}` has no `sweep` section",
            spec.name
        )));
    };
    // Fail a typo'd axis up front, with the valid keys at that level —
    // not as an unknown-field parse error inside the first grid point.
    for axis in &sweep.axes {
        validate_path(&axis.path)
            .map_err(|e| SpecError::Invalid(format!("sweep axis `{}`: {e}", axis.path)))?;
    }

    // The base document is the scenario without its sweep section, so a
    // point's overrides re-parse as a plain (sweepless) scenario.
    let Value::Map(entries) = doc else {
        unreachable!("from_value above only accepts objects");
    };
    let base = Value::Map(
        entries
            .iter()
            .filter(|(k, _)| k != "sweep")
            .cloned()
            .collect(),
    );

    let points = grid(&sweep.axes);
    let results = elk_par::try_par_map(threads, &points, |_, overrides| {
        run_point(&base, &spec.name, sweep.command, overrides)
    })?;

    Ok(SweepReport {
        scenario: spec.name,
        command: sweep.command.name().to_string(),
        axes: sweep.axes.iter().map(|a| a.path.clone()).collect(),
        points: results,
    })
}

/// Applies one point's overrides and runs it through `command`.
fn run_point(
    base: &Value,
    base_name: &str,
    command: SweepCommand,
    overrides: &Overrides,
) -> Result<SweepPoint, SpecError> {
    let mut doc = base.clone();
    for (path, value) in overrides {
        set_path(&mut doc, path, value.clone())?;
    }
    let mut point_spec = ScenarioSpec::from_value(&doc)
        .map_err(|e| SpecError::Invalid(format!("sweep point {}: {e}", describe(overrides))))?;
    point_spec.name = format!("{base_name}[{}]", describe(overrides));

    let report = match command {
        SweepCommand::Compile => runner::run_compile(&point_spec)?.to_value(),
        SweepCommand::Simulate => runner::run_simulate(&point_spec)?.to_value(),
        SweepCommand::Serve => runner::run_serve(&point_spec)?.to_value(),
    };
    Ok(SweepPoint {
        name: point_spec.name,
        overrides: Value::Map(
            overrides
                .iter()
                .map(|(path, v)| (path.clone(), v.clone()))
                .collect(),
        ),
        report,
    })
}

/// `path=value` pairs, comma-joined — the point's display name.
fn describe(overrides: &Overrides) -> String {
    overrides
        .iter()
        .map(|(path, v)| {
            format!(
                "{path}={}",
                serde_json::to_string(v).expect("value serialization is infallible")
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(json: &str) -> Value {
        serde_json::from_str(json).expect("valid test JSON")
    }

    #[test]
    fn set_path_replaces_and_creates() {
        let mut v = doc(r#"{"workload": {"batch": 32}}"#);
        set_path(&mut v, "workload.batch", Value::U64(8)).unwrap();
        assert_eq!(
            v.get("workload").unwrap().get("batch"),
            Some(&Value::U64(8))
        );
        // Creating a section the base omitted.
        set_path(&mut v, "compiler.threads", Value::U64(2)).unwrap();
        assert_eq!(
            v.get("compiler").unwrap().get("threads"),
            Some(&Value::U64(2))
        );
        // Descending into a scalar is an error.
        let e = set_path(&mut v, "workload.batch.x", Value::U64(1)).unwrap_err();
        assert!(e.to_string().contains("non-object"), "{e}");
    }

    #[test]
    fn grid_is_row_major_with_last_axis_fastest() {
        let axes = vec![
            crate::spec::SweepAxis {
                path: "a".into(),
                values: vec![Value::U64(1), Value::U64(2)],
            },
            crate::spec::SweepAxis {
                path: "b".into(),
                values: vec![Value::U64(10), Value::U64(20)],
            },
        ];
        let points = grid(&axes);
        let flat: Vec<(u64, u64)> = points
            .iter()
            .map(|p| {
                let a = u64::from_value(&p[0].1).unwrap();
                let b = u64::from_value(&p[1].1).unwrap();
                (a, b)
            })
            .collect();
        assert_eq!(flat, vec![(1, 10), (1, 20), (2, 10), (2, 20)]);
    }

    #[test]
    fn sweep_runs_and_merges_deterministically() {
        let scenario = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "workload": {"batch": 16, "seq_len": 512},
              "sweep": {"command": "compile",
                        "axes": [{"path": "workload.batch", "values": [8, 16]}]}
            }"#);
        let seq = run_sweep(&scenario, 1).unwrap();
        let par = run_sweep(&scenario, 8).unwrap();
        assert_eq!(seq.points.len(), 2);
        assert_eq!(seq.points[0].name, r#"s[workload.batch=8]"#);
        assert_eq!(
            serde_json::to_string(&seq).unwrap(),
            serde_json::to_string(&par).unwrap(),
            "sweep must be byte-identical at any thread count"
        );
    }

    #[test]
    fn sweep_without_section_is_an_error() {
        let scenario = doc(r#"{"name": "s", "model": {"zoo": "llama13"}}"#);
        let e = run_sweep(&scenario, 1).unwrap_err();
        assert!(e.to_string().contains("no `sweep` section"), "{e}");
    }

    #[test]
    fn typo_in_a_swept_path_fails_up_front_with_valid_keys() {
        let scenario = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "sweep": {"axes": [{"path": "workload.bach", "values": [8]}]}
            }"#);
        let e = run_sweep(&scenario, 1).unwrap_err().to_string();
        assert!(e.contains("bach"), "{e}");
        assert!(
            e.contains("valid keys") && e.contains("batch") && e.contains("seq_len"),
            "the error must list the valid keys at that level: {e}"
        );

        // Deeper typo: the chip level's keys are listed.
        let scenario = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "sweep": {"axes": [{"path": "system.chip.coers", "values": [64]}]}
            }"#);
        let e = run_sweep(&scenario, 1).unwrap_err().to_string();
        assert!(e.contains("`coers` at `system.chip`"), "{e}");
        assert!(e.contains("cores"), "{e}");
    }

    #[test]
    fn known_paths_validate() {
        for path in [
            "workload.batch",
            "system.chip.cores",
            "system.chip.topology.mesh.total_gib_s",
            "system.hbm.capacity_gib",
            "model.layers",
            "model.transformer.hidden",
            "serving.trace.arrivals.Bursty.burst_factor",
            "serving.slo.tpot_ms",
            "workload.trace.file",
            "workload.trace.generate.rate.BurstTrain.burst_rps",
            "workload.trace.generate.prompt_len.HeavyTail.alpha",
            "cluster.plan.tp",
            "cluster.autoscale.max_groups",
            "cluster.autoscale.cold_start_steps",
            "cluster.disaggregate.prefill.tp",
            "cluster.disaggregate.decode.dp",
            "cluster.disaggregate.chunk_tokens",
            "cluster.disaggregate.shared_chips",
            "serving.tenants.shed_queue_depth",
            "serving.tenants.classes",
            "cluster.tenants.shed_policy",
            "cluster.tenants.defer_ms",
            "observe.enable",
            "observe.timeline",
            "observe.sample",
            "compiler.design",
            "system",
        ] {
            validate_path(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
    }

    #[test]
    fn typos_list_the_valid_keys_at_that_level() {
        let e = validate_path("system.chip.coers").unwrap_err();
        assert!(e.contains("unknown key `coers` at `system.chip`"), "{e}");
        assert!(
            e.contains("cores") && e.contains("sram_per_core_kib"),
            "{e}"
        );

        let e = validate_path("wrokload.batch").unwrap_err();
        assert!(e.contains("the scenario root"), "{e}");
        assert!(e.contains("workload") && e.contains("cluster"), "{e}");
    }

    #[test]
    fn descending_into_a_leaf_is_an_error() {
        let e = validate_path("workload.batch.x").unwrap_err();
        assert!(e.contains("value, not an object"), "{e}");
        assert!(e.contains("workload.batch"), "{e}");
    }

    /// Scenarios with every `Option` set; across the set, each enum
    /// takes every variant (variant `k mod n` of spec `k`, or of the
    /// `k`-th spec that reaches it). `tenants.map` stays empty: its keys
    /// are tenant ids, data rather than schema.
    fn maximal_specs() -> Vec<ScenarioSpec> {
        use crate::spec::*;
        use elk_serve::{ArrivalProcess, LengthDist, RouterPolicy};
        use elk_trace::{LengthModel, RateShape};

        let plan = PlanSpec {
            tp: 1,
            pp: 1,
            dp: 1,
        };
        let length_model = |k: usize| match k % 3 {
            0 => LengthModel::Fixed { tokens: 8 },
            1 => LengthModel::Uniform { lo: 1, hi: 8 },
            _ => LengthModel::HeavyTail {
                lo: 1,
                alpha: 1.2,
                cap: 64,
            },
        };
        let length_dist = |k: usize| match k % 3 {
            0 => LengthDist::Fixed(8),
            1 => LengthDist::Uniform { lo: 1, hi: 8 },
            _ => LengthDist::Bimodal {
                short: (1, 8),
                long: (64, 128),
                long_weight: 0.1,
            },
        };
        let tenants = TenancySpec {
            classes: vec![TenantClassSpec {
                rate_rps: Some(10.0),
                model: Some("opt30".into()),
                ..TenantClassSpec::default()
            }],
            shed_queue_depth: Some(2.0),
            ..TenancySpec::default()
        };
        (0..12)
            .map(|k| ScenarioSpec {
                name: format!("max-{k}"),
                system: if k % 2 == 0 {
                    SystemSpec::Preset("ipu_pod4".into())
                } else {
                    SystemSpec::Custom {
                        chip: ChipSpec {
                            name: "chip".into(),
                            cores: 64,
                            sram_per_core_kib: 624,
                            io_buffer_per_core_kib: 8,
                            matmul_tflops: 10.0,
                            vector_tflops: 1.0,
                            sram_bw_gb_s: 21.3,
                            sram_contention: "blocking".into(),
                            topology: if k / 2 % 2 == 0 {
                                TopologySpec::AllToAll {
                                    core_link_gib_s: 5.5,
                                }
                            } else {
                                TopologySpec::Mesh { total_gib_s: 512.0 }
                            },
                        },
                        chips: 4,
                        hbm: HbmSpec::default(),
                        inter_chip_bw_gib_s: 640.0,
                    }
                },
                model: match k % 4 {
                    0 => ModelSpec::Zoo {
                        zoo: "llama13".into(),
                        layers: Some(2),
                    },
                    1 => ModelSpec::Transformer(elk_model::zoo::llama2_13b()),
                    2 => ModelSpec::Moe(elk_model::zoo::mixtral_8x7b()),
                    _ => ModelSpec::Dit(elk_model::zoo::dit_xl()),
                },
                workload: WorkloadSpec {
                    shards: Some(4),
                    trace: Some(if k % 2 == 0 {
                        TraceSourceSpec::File("trace.jsonl".into())
                    } else {
                        TraceSourceSpec::Generate(TraceGenSpec {
                            rate: match k % 3 {
                                0 => RateShape::Constant { rate_rps: 10.0 },
                                1 => RateShape::Diurnal {
                                    mean_rps: 10.0,
                                    amplitude: 0.5,
                                    period_s: 1.0,
                                },
                                _ => RateShape::BurstTrain {
                                    base_rps: 10.0,
                                    burst_rps: 50.0,
                                    period_s: 1.0,
                                    burst_s: 0.2,
                                },
                            },
                            prompt_len: length_model(k),
                            output_len: length_model(k + 1),
                            ..TraceGenSpec::default()
                        })
                    }),
                    ..WorkloadSpec::default()
                },
                compiler: CompilerSpec {
                    design: elk_baselines::Design::ALL.to_vec(),
                    threads: 1,
                },
                sim: SimSpec::default(),
                serving: ServingSpec {
                    trace: TraceSpec {
                        arrivals: if k % 2 == 0 {
                            ArrivalProcess::Poisson { rate_rps: 10.0 }
                        } else {
                            ArrivalProcess::Bursty {
                                rate_rps: 10.0,
                                burst_factor: 2.0,
                                period_s: 1.0,
                                duty: 0.2,
                            }
                        },
                        prompt_len: length_dist(k),
                        output_len: length_dist(k + 1),
                        ..TraceSpec::default()
                    },
                    tenants: Some(tenants.clone()),
                    ..ServingSpec::default()
                },
                observe: ObserveSpec {
                    timeline: Some("timeline.json".into()),
                    ..ObserveSpec::default()
                },
                cluster: Some(ClusterSpec {
                    plan: Some(plan),
                    microbatches: Some(2),
                    router: RouterPolicy::all().to_vec(),
                    autoscale: Some(AutoscaleSpec::default()),
                    disaggregate: Some(DisaggSpec {
                        prefill: plan,
                        decode: plan,
                        chunk_tokens: 64,
                        shared_chips: true,
                    }),
                    tenants: Some(tenants.clone()),
                    ..ClusterSpec::default()
                }),
                sweep: Some(SweepSpec {
                    command: [
                        SweepCommand::Compile,
                        SweepCommand::Simulate,
                        SweepCommand::Serve,
                    ][k % 3],
                    axes: vec![crate::spec::SweepAxis {
                        path: "workload.batch".into(),
                        values: vec![Value::U64(8)],
                    }],
                }),
            })
            .collect()
    }

    /// Every dotted key path into an object of `v`, depth first.
    fn key_paths(v: &Value, prefix: &str, out: &mut Vec<String>) {
        if let Value::Map(entries) = v {
            for (key, child) in entries {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                key_paths(child, &path, out);
                out.push(path);
            }
        }
    }

    /// Drift guard: the key tree sweeps validate against must cover
    /// every key the spec serializes, including the hand-written
    /// sections' own `schema()`s.
    #[test]
    fn every_key_of_a_maximal_spec_is_a_sweep_path() {
        let mut paths = Vec::new();
        for spec in maximal_specs() {
            let doc = spec.to_value();
            assert_eq!(ScenarioSpec::from_value(&doc).unwrap(), spec, "round trip");
            key_paths(&doc, "", &mut paths);
        }
        paths.sort();
        paths.dedup();
        for path in &paths {
            validate_path(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
        assert!(paths.contains(&"system.chip.topology.mesh.total_gib_s".to_string()));
        assert!(paths.contains(&"model.dit.mlp_ratio".to_string()));
        assert!(paths.contains(&"workload.trace.generate.output_len.Fixed".to_string()));
        assert!(paths.contains(&"serving.trace.output_len.Bimodal.long".to_string()));
    }
}
