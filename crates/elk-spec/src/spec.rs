//! The scenario schema: serde-backed spec types mirroring the engine's
//! configuration surface in hand-authorable JSON.
//!
//! Every section except `name` and `model` is optional and defaults to
//! the paper's evaluation setup (§6.1), so the smallest valid scenario
//! is:
//!
//! ```json
//! { "name": "smallest", "model": { "zoo": "llama13" } }
//! ```
//!
//! Unknown or repeated keys anywhere in the spec are parse errors that
//! name the dotted path to the offending object, so a typo'd knob never
//! silently runs with defaults. The derived `schema()` of
//! [`ScenarioSpec`] is the same key tree, which `elk sweep` checks its
//! axis paths against.

use serde::{Deserialize, Error, Schema, Serialize, Value};

use elk_baselines::Design;
use elk_model::dit::DitConfig;
use elk_model::moe::MoeConfig;
use elk_model::{Phase, TransformerConfig};
use elk_serve::{ArrivalProcess, LengthDist, RouterPolicy};
use elk_trace::{LengthModel, RateShape};

use crate::de::MapReader;
use crate::SpecError;

/// One fully-described experiment: chip, model, workload, compiler,
/// simulator, and serving configuration, plus an optional sweep grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, rename = "scenario")]
pub struct ScenarioSpec {
    /// Scenario name — the stem of every report file it produces.
    #[serde(with = "nonblank")]
    pub name: String,
    /// Target system (preset or custom chip description).
    #[serde(default)]
    pub system: SystemSpec,
    /// Model under test.
    pub model: ModelSpec,
    /// Steady-state workload for `compile` / `simulate`.
    #[serde(default)]
    pub workload: WorkloadSpec,
    /// Compiler options: designs to run and worker threads.
    #[serde(default)]
    pub compiler: CompilerSpec,
    /// Chip-simulator options.
    #[serde(default)]
    pub sim: SimSpec,
    /// Request-level serving configuration for `serve`.
    #[serde(default)]
    pub serving: ServingSpec,
    /// Deterministic observability: timeline/metrics export knobs.
    #[serde(default)]
    pub observe: ObserveSpec,
    /// Optional multi-chip parallelism section for `elk cluster`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster: Option<ClusterSpec>,
    /// Optional sweep grid for `elk sweep`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sweep: Option<SweepSpec>,
}

impl ScenarioSpec {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed JSON, a missing
    /// required field, an unknown key, or a type mismatch.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        serde_json::from_str(json).map_err(SpecError::from)
    }

    /// Renders the spec as canonical pretty JSON (all fields explicit).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }
}

/// `with` module for values that must not be blank: names and paths
/// (non-empty after trimming) and lists (non-empty).
mod nonblank {
    use serde::{Deserialize, Error, Serialize, Value};

    pub(super) fn to_value<T: Serialize>(v: &T) -> Value {
        v.to_value()
    }

    pub(super) fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
        match v {
            Value::Str(s) if s.trim().is_empty() => Err(Error::msg("must be non-empty")),
            Value::Seq(items) if items.is_empty() => Err(Error::msg("must be non-empty")),
            _ => T::from_value(v),
        }
    }
}

// ---- system ----

/// Target system: a named preset or an explicit chip/pod description.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemSpec {
    /// One of the paper's evaluation platforms by name
    /// (`ipu_pod4`, `ipu_pod4_mesh`, `single_chip`).
    Preset(String),
    /// A custom design point — the design-space-exploration path.
    Custom {
        /// Chip description.
        chip: ChipSpec,
        /// Chips in the pod.
        chips: u64,
        /// Per-chip HBM.
        hbm: HbmSpec,
        /// Aggregate inter-chip bandwidth in GiB/s.
        inter_chip_bw_gib_s: f64,
    },
}

impl Default for SystemSpec {
    /// The paper's default platform, `ipu_pod4`.
    fn default() -> Self {
        SystemSpec::Preset("ipu_pod4".into())
    }
}

/// Hand-written: `{"preset": name}` or the custom fields, untagged.
impl Deserialize for SystemSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut r = MapReader::new("system", v)?;
        let spec = if r.has("preset") {
            SystemSpec::Preset(r.req("preset")?)
        } else {
            SystemSpec::Custom {
                chip: r.req("chip")?,
                chips: r.or("chips", 4)?,
                hbm: r.or_else("hbm", HbmSpec::default)?,
                inter_chip_bw_gib_s: r.or("inter_chip_bw_gib_s", 640.0)?,
            }
        };
        r.finish()?;
        Ok(spec)
    }

    fn schema() -> Schema {
        Schema::Map(&[
            ("preset", Schema::leaf),
            ("chip", ChipSpec::schema),
            ("chips", Schema::leaf),
            ("hbm", HbmSpec::schema),
            ("inter_chip_bw_gib_s", Schema::leaf),
        ])
    }
}

impl Serialize for SystemSpec {
    fn to_value(&self) -> Value {
        match self {
            SystemSpec::Preset(name) => Value::Map(vec![("preset".into(), name.to_value())]),
            SystemSpec::Custom {
                chip,
                chips,
                hbm,
                inter_chip_bw_gib_s,
            } => Value::Map(vec![
                ("chip".into(), chip.to_value()),
                ("chips".into(), chips.to_value()),
                ("hbm".into(), hbm.to_value()),
                ("inter_chip_bw_gib_s".into(), inter_chip_bw_gib_s.to_value()),
            ]),
        }
    }
}

/// One custom ICCA chip. Compute rates are whole-chip numbers (the
/// paper quotes per-chip TFLOPS); per-core rates are derived by
/// dividing by `cores`. Unset knobs default to IPU MK2's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChipSpec {
    /// Chip name for reports.
    #[serde(default = "ChipSpec::default_name")]
    pub name: String,
    /// Core count.
    pub cores: u64,
    /// Scratchpad SRAM per core, in KiB.
    #[serde(default = "ChipSpec::default_sram_per_core_kib")]
    pub sram_per_core_kib: u64,
    /// Reserved inter-core transfer buffer per core, in KiB.
    #[serde(default = "ChipSpec::default_io_buffer_per_core_kib")]
    pub io_buffer_per_core_kib: u64,
    /// Whole-chip peak MatMul throughput, in TFLOPS.
    pub matmul_tflops: f64,
    /// Whole-chip peak vector throughput, in TFLOPS.
    pub vector_tflops: f64,
    /// Local SRAM port bandwidth per core, in decimal GB/s.
    #[serde(default = "ChipSpec::default_sram_bw_gb_s")]
    pub sram_bw_gb_s: f64,
    /// `"blocking"` (IPU-style) or `"concurrent"` SRAM arbitration.
    #[serde(default = "ChipSpec::default_sram_contention")]
    pub sram_contention: String,
    /// On-chip interconnect.
    #[serde(default)]
    pub topology: TopologySpec,
}

impl ChipSpec {
    fn default_name() -> String {
        "custom".into()
    }

    fn default_sram_per_core_kib() -> u64 {
        624
    }

    fn default_io_buffer_per_core_kib() -> u64 {
        8
    }

    fn default_sram_bw_gb_s() -> f64 {
        21.3
    }

    fn default_sram_contention() -> String {
        "blocking".into()
    }
}

/// On-chip interconnect spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, rename_all = "snake_case")]
pub enum TopologySpec {
    /// Non-blocking all-to-all exchange with the given per-core link
    /// bandwidth in GiB/s (IPU MK2: 5.5).
    AllToAll {
        /// Per-core link bandwidth in GiB/s.
        #[serde(default = "TopologySpec::ipu_core_link_gib_s")]
        core_link_gib_s: f64,
    },
    /// Near-square 2D mesh provisioned to the given aggregate bandwidth
    /// in GiB/s.
    Mesh {
        /// Aggregate interconnect bandwidth in GiB/s.
        total_gib_s: f64,
    },
}

impl TopologySpec {
    fn ipu_core_link_gib_s() -> f64 {
        5.5
    }
}

impl Default for TopologySpec {
    /// IPU MK2's 5.5 GiB/s per-core all-to-all exchange.
    fn default() -> Self {
        TopologySpec::AllToAll {
            core_link_gib_s: TopologySpec::ipu_core_link_gib_s(),
        }
    }
}

/// Per-chip HBM spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct HbmSpec {
    /// HBM channels (controller nodes) per chip.
    pub channels: u64,
    /// Sustained bandwidth per channel in GiB/s.
    pub channel_bw_gib_s: f64,
    /// Per-chip capacity in GiB (the cluster planner's HBM-feasibility
    /// bound).
    pub capacity_gib: u64,
}

impl Default for HbmSpec {
    /// The paper's emulated platform: 4 HBM3E channels at 1 TiB/s each,
    /// 96 GiB per chip.
    fn default() -> Self {
        HbmSpec {
            channels: 4,
            channel_bw_gib_s: 1024.0,
            capacity_gib: 96,
        }
    }
}

// ---- model ----

/// Model under test: a zoo name (with an optional depth override for
/// quick runs) or explicit architecture hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// A model from [`elk_model::zoo`] by CLI alias (`llama13`,
    /// `gemma27`, `opt30`, `llama70`, `mixtral`, `dit`).
    Zoo {
        /// The alias.
        zoo: String,
        /// Optional layer-count override (doctest-sized runs).
        layers: Option<u32>,
    },
    /// Explicit dense-transformer hyper-parameters.
    Transformer(TransformerConfig),
    /// Explicit mixture-of-experts hyper-parameters.
    Moe(MoeConfig),
    /// Explicit diffusion-transformer hyper-parameters.
    Dit(DitConfig),
}

/// Hand-written: the zoo form is untagged (`{"zoo": .., "layers": ..}`)
/// while the explicit bodies are tagged by family.
impl Deserialize for ModelSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut r = MapReader::new("model", v)?;
        let spec = if r.has("zoo") {
            ModelSpec::Zoo {
                zoo: r.req("zoo")?,
                layers: r.opt("layers")?,
            }
        } else if r.has("transformer") {
            ModelSpec::Transformer(r.req("transformer")?)
        } else if r.has("moe") {
            ModelSpec::Moe(r.req("moe")?)
        } else if r.has("dit") {
            ModelSpec::Dit(r.req("dit")?)
        } else {
            return Err(Error::at(
                "model",
                "expected one of `zoo`, `transformer`, `moe`, `dit`",
            ));
        };
        r.finish()?;
        Ok(spec)
    }

    fn schema() -> Schema {
        Schema::Map(&[
            ("zoo", Schema::leaf),
            ("layers", Schema::leaf),
            ("transformer", TransformerConfig::schema),
            ("moe", MoeConfig::schema),
            ("dit", DitConfig::schema),
        ])
    }
}

impl Serialize for ModelSpec {
    fn to_value(&self) -> Value {
        match self {
            ModelSpec::Zoo { zoo, layers } => {
                let mut m = vec![("zoo".into(), zoo.to_value())];
                if let Some(layers) = layers {
                    m.push(("layers".into(), layers.to_value()));
                }
                Value::Map(m)
            }
            ModelSpec::Transformer(cfg) => Value::Map(vec![("transformer".into(), cfg.to_value())]),
            ModelSpec::Moe(cfg) => Value::Map(vec![("moe".into(), cfg.to_value())]),
            ModelSpec::Dit(cfg) => Value::Map(vec![("dit".into(), cfg.to_value())]),
        }
    }
}

// ---- workload ----

/// Steady-state workload for `compile` / `simulate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct WorkloadSpec {
    /// `"decode"`, `"prefill"`, or `"training_forward"`.
    #[serde(with = "phase")]
    pub phase: Phase,
    /// Requests per batch.
    pub batch: u64,
    /// Context length.
    pub seq_len: u64,
    /// Tensor-parallel shard count; defaults to the system's chip count.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shards: Option<u64>,
    /// Request trace for replay commands (`serve`, `cluster`,
    /// `trace gen`): a recorded `elk-trace` file or a seeded generator.
    /// When set it supersedes `serving.trace`, so recorded and
    /// synthetic traces flow through one path.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceSourceSpec>,
}

impl Default for WorkloadSpec {
    /// The paper's default serving workload: decode, batch 32, seq 2048.
    fn default() -> Self {
        WorkloadSpec {
            phase: Phase::Decode,
            batch: 32,
            seq_len: 2048,
            shards: None,
            trace: None,
        }
    }
}

/// Where a replayed request trace comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, rename_all = "snake_case")]
pub enum TraceSourceSpec {
    /// A recorded `elk-trace` JSONL file (versioned header + one record
    /// per line), resolved relative to the working directory.
    File(#[serde(with = "nonblank")] String),
    /// A seeded production-shaped generator, emitted in the same format.
    Generate(TraceGenSpec),
}

/// Seeded trace-generator recipe (mirrors [`elk_trace::TraceGenConfig`]).
///
/// `rate` takes the [`RateShape`] variants as externally-tagged objects
/// — `{"Constant": {"rate_rps": 100.0}}`, `{"Diurnal": {...}}`,
/// `{"BurstTrain": {...}}` — and the length models take
/// `{"Fixed": n}`, `{"Uniform": {...}}`, or `{"HeavyTail": {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct TraceGenSpec {
    /// RNG seed.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Arrival-rate shape over time.
    pub rate: RateShape,
    /// Prompt-length model.
    pub prompt_len: LengthModel,
    /// Output-length model.
    pub output_len: LengthModel,
    /// Distinct tenant ids to stamp on records (0 = untagged).
    pub tenants: u64,
}

impl Default for TraceGenSpec {
    /// The generator's own defaults.
    fn default() -> Self {
        let d = elk_trace::TraceGenConfig::default();
        TraceGenSpec {
            seed: d.seed,
            requests: d.requests,
            rate: d.rate,
            prompt_len: d.prompt_len,
            output_len: d.output_len,
            tenants: d.tenants,
        }
    }
}

/// Parses a lowercase phase name.
fn parse_phase(name: &str) -> Result<Phase, Error> {
    match name {
        "decode" => Ok(Phase::Decode),
        "prefill" => Ok(Phase::Prefill),
        "training_forward" => Ok(Phase::TrainingForward),
        other => Err(Error::msg(format!(
            "unknown phase '{other}': expected decode, prefill, training_forward"
        ))),
    }
}

/// Canonical lowercase phase name.
#[must_use]
pub fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Decode => "decode",
        Phase::Prefill => "prefill",
        Phase::TrainingForward => "training_forward",
    }
}

/// `with` module for `workload.phase`'s lowercase names.
mod phase {
    use super::{parse_phase, phase_name, Deserialize, Error, Phase, Serialize, Value};

    pub(super) fn to_value(phase: &Phase) -> Value {
        phase_name(*phase).to_value()
    }

    pub(super) fn from_value(v: &Value) -> Result<Phase, Error> {
        parse_phase(&String::from_value(v)?)
    }
}

// ---- compiler ----

/// Compiler options: designs to run and worker threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct CompilerSpec {
    /// Designs to compile, in run order. The JSON accepts a single
    /// name, `"all"`, or an array of names.
    #[serde(with = "design")]
    pub design: Vec<Design>,
    /// Worker threads for catalog construction and order search
    /// (`0` = all available cores). Outputs are byte-identical at any
    /// setting.
    pub threads: usize,
}

impl Default for CompilerSpec {
    /// Full Elk on one worker thread.
    fn default() -> Self {
        CompilerSpec {
            design: vec![Design::ElkFull],
            threads: 1,
        }
    }
}

/// Parses a lowercase design name.
fn parse_design(name: &str) -> Result<Design, Error> {
    match name {
        "basic" => Ok(Design::Basic),
        "static" => Ok(Design::Static),
        "elk_dyn" => Ok(Design::ElkDyn),
        "elk_full" => Ok(Design::ElkFull),
        "ideal" => Ok(Design::Ideal),
        other => Err(Error::msg(format!(
            "unknown design '{other}': expected basic, static, elk_dyn, elk_full, ideal, or all"
        ))),
    }
}

/// Canonical lowercase design name.
#[must_use]
pub fn design_name(design: Design) -> &'static str {
    match design {
        Design::Basic => "basic",
        Design::Static => "static",
        Design::ElkDyn => "elk_dyn",
        Design::ElkFull => "elk_full",
        Design::Ideal => "ideal",
    }
}

/// `with` module for `compiler.design`: one lowercase name, `"all"`, or
/// a non-empty array of names; always serialized as the array.
mod design {
    use super::{design_name, parse_design, Deserialize, Design, Error, Serialize, Value};

    pub(super) fn to_value(designs: &[Design]) -> Value {
        Value::Seq(designs.iter().map(|&d| design_name(d).to_value()).collect())
    }

    pub(super) fn from_value(v: &Value) -> Result<Vec<Design>, Error> {
        match v {
            Value::Str(s) if s == "all" => Ok(Design::ALL.to_vec()),
            Value::Str(s) => Ok(vec![parse_design(s)?]),
            Value::Seq(names) if names.is_empty() => Err(Error::msg("the list must not be empty")),
            Value::Seq(names) => names
                .iter()
                .map(|n| parse_design(&String::from_value(n)?))
                .collect(),
            other => Err(Error::msg(format!(
                "expected a name or an array of names, found {}",
                other.kind()
            ))),
        }
    }
}

// ---- simulator ----

/// Chip-simulator options (mirrors [`elk_sim::SimOptions`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct SimSpec {
    /// Relative magnitude of the deterministic timing noise.
    pub noise_sigma: f64,
    /// Timing-noise seed.
    pub noise_seed: u64,
    /// Bandwidth-trace samples (0 = no trace).
    pub trace_samples: usize,
}

impl Default for SimSpec {
    fn default() -> Self {
        let d = elk_sim::SimOptions::default();
        SimSpec {
            noise_sigma: d.noise_sigma,
            noise_seed: d.noise_seed,
            trace_samples: d.trace_samples,
        }
    }
}

// ---- serving ----

/// Request-level serving configuration for `elk serve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct ServingSpec {
    /// Synthetic trace recipe.
    pub trace: TraceSpec,
    /// Independent chip-group replicas (round-robin routing).
    pub replicas: usize,
    /// Concurrent requests per replica.
    pub max_batch: u64,
    /// Prompt-token budget per prefill step.
    pub max_prefill_tokens: u64,
    /// Sequence-length bucket ladder `[min, max]` for plan-cache keys.
    pub seq_buckets: SeqBucketsSpec,
    /// Round step batch sizes up to powers of two.
    pub bucket_batch: bool,
    /// Latency SLO scored by goodput.
    pub slo: SloSpec,
    /// Optional multi-tenant section: when present, the replay also
    /// runs through the tenancy engine with SLO classes and admission
    /// control.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<TenancySpec>,
    /// Worker threads for the serving pool (`0` = all cores).
    pub threads: usize,
}

impl Default for ServingSpec {
    /// A small smoke-sized serving setup: 16 requests, one replica,
    /// batch cap 32.
    fn default() -> Self {
        ServingSpec {
            trace: TraceSpec::default(),
            replicas: 1,
            max_batch: 32,
            max_prefill_tokens: 8192,
            seq_buckets: SeqBucketsSpec::default(),
            bucket_batch: true,
            slo: SloSpec::default(),
            tenants: None,
            threads: 1,
        }
    }
}

/// Synthetic request-trace recipe (mirrors [`elk_serve::TraceConfig`]).
///
/// The `arrivals`, `prompt_len`, and `output_len` fields reuse the
/// engine enums' serde form directly — externally tagged with the Rust
/// variant name, e.g. `{"Poisson": {"rate_rps": 100.0}}` or
/// `{"Uniform": {"lo": 128, "hi": 512}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct TraceSpec {
    /// RNG seed.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Prompt-length distribution.
    pub prompt_len: LengthDist,
    /// Output-length distribution.
    pub output_len: LengthDist,
}

impl Default for TraceSpec {
    /// 16 Poisson arrivals at 100 req/s with short prompts and outputs —
    /// sized so a scenario smoke run stays fast.
    fn default() -> Self {
        TraceSpec {
            seed: 0x5eed,
            requests: 16,
            arrivals: ArrivalProcess::Poisson { rate_rps: 100.0 },
            prompt_len: LengthDist::Uniform { lo: 128, hi: 512 },
            output_len: LengthDist::Uniform { lo: 4, hi: 16 },
        }
    }
}

/// Sequence-length bucket ladder (mirrors [`elk_model::SeqBuckets`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct SeqBucketsSpec {
    /// Smallest bucket (must be a power of two).
    pub min: u64,
    /// Largest bucket.
    pub max: u64,
}

impl Default for SeqBucketsSpec {
    fn default() -> Self {
        let d = elk_model::SeqBuckets::default();
        SeqBucketsSpec {
            min: d.min,
            max: d.max,
        }
    }
}

/// Latency SLO in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct SloSpec {
    /// Time-to-first-token bound, ms.
    pub ttft_ms: f64,
    /// Mean time-per-output-token bound, ms.
    pub tpot_ms: f64,
}

impl Default for SloSpec {
    /// The serving layer's interactive-chat default: 2 s TTFT, 60 ms
    /// TPOT.
    fn default() -> Self {
        SloSpec {
            ttft_ms: 2000.0,
            tpot_ms: 60.0,
        }
    }
}

// ---- tenancy ----

/// One tenant SLO class (mirrors [`elk_serve::TenantClass`], with SLO
/// bounds in ms like the `slo` section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TenantClassSpec {
    /// Class name; tenant ids map onto it.
    pub name: String,
    /// Scheduling priority, `0` (highest) ..= `63`.
    #[serde(default)]
    pub priority: u64,
    /// Per-class latency SLO.
    #[serde(default)]
    pub slo: SloSpec,
    /// Token-bucket refill rate, requests/s; omit for unlimited.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rate_rps: Option<f64>,
    /// Token-bucket capacity (burst allowance).
    #[serde(default = "TenantClassSpec::default_burst")]
    pub burst: u64,
    /// Model-zoo alias served for this class; omit for the scenario's
    /// base model. Layer count is inherited from the base model.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub model: Option<String>,
    /// Whether load shedding may reject or defer this class.
    #[serde(default)]
    pub sheddable: bool,
}

impl TenantClassSpec {
    fn default_burst() -> u64 {
        1
    }
}

impl Default for TenantClassSpec {
    /// Highest priority, default SLO, unlimited and never shed.
    fn default() -> Self {
        TenantClassSpec {
            name: "default".into(),
            priority: 0,
            slo: SloSpec::default(),
            rate_rps: None,
            burst: TenantClassSpec::default_burst(),
            model: None,
            sheddable: false,
        }
    }
}

/// Multi-tenant serving configuration (mirrors
/// [`elk_serve::TenancyConfig`]).
///
/// The `map` object assigns tenant ids to class names
/// (`{"acme": "premium"}`); unmapped tenants fall back to
/// `default_class`, which itself defaults to the first class.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancySpec {
    /// SLO classes, highest-priority first by convention.
    pub classes: Vec<TenantClassSpec>,
    /// Tenant id → class name assignments, in file order.
    pub map: Vec<(String, String)>,
    /// Class for tenants absent from `map`.
    pub default_class: String,
    /// Shed sheddable classes when the time-weighted mean pooled
    /// waiting depth crosses this; omit to never shed.
    pub shed_queue_depth: Option<f64>,
    /// What shedding does: `"reject"` or `"defer"`.
    pub shed_policy: String,
    /// One-shot re-admission delay for deferred requests, ms.
    pub defer_ms: f64,
}

impl Default for TenancySpec {
    /// A single default class: every tenant admitted, nothing shed —
    /// the config that reproduces the plain engines bit-for-bit.
    fn default() -> Self {
        TenancySpec {
            classes: vec![TenantClassSpec::default()],
            map: Vec::new(),
            default_class: "default".into(),
            shed_queue_depth: None,
            shed_policy: "reject".into(),
            defer_ms: 50.0,
        }
    }
}

/// Hand-written: `default_class` defaults from `classes`, and `map` is
/// an object of tenant ids (data, not keys).
impl Deserialize for TenancySpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let d = TenancySpec::default();
        let mut r = MapReader::new("tenants", v)?;
        let classes: Vec<TenantClassSpec> = r.or_else("classes", || d.classes.clone())?;
        let map = match r.raw("map") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Map(entries)) => entries
                .iter()
                .map(|(tenant, class)| match class {
                    Value::Str(c) => Ok((tenant.clone(), c.clone())),
                    other => Err(Error::msg(format!(
                        "expected a class name, found {}",
                        other.kind()
                    ))
                    .in_field("tenants", &format!("map.{tenant}"))),
                })
                .collect::<Result<_, _>>()?,
            Some(other) => {
                return Err(
                    Error::msg(format!("expected a JSON object, found {}", other.kind()))
                        .in_field("tenants", "map"),
                )
            }
        };
        let default_class = r.or_else("default_class", || {
            classes
                .first()
                .map_or_else(|| d.default_class.clone(), |c| c.name.clone())
        })?;
        let spec = TenancySpec {
            classes,
            map,
            default_class,
            shed_queue_depth: r.opt("shed_queue_depth")?,
            shed_policy: r.or_else("shed_policy", || d.shed_policy.clone())?,
            defer_ms: r.or("defer_ms", d.defer_ms)?,
        };
        r.finish()?;
        Ok(spec)
    }

    fn schema() -> Schema {
        Schema::Map(&[
            ("classes", Schema::leaf),
            ("map", Schema::leaf),
            ("default_class", Schema::leaf),
            ("shed_queue_depth", Schema::leaf),
            ("shed_policy", Schema::leaf),
            ("defer_ms", Schema::leaf),
        ])
    }
}

impl Serialize for TenancySpec {
    fn to_value(&self) -> Value {
        let mut m = vec![("classes".into(), self.classes.to_value())];
        if !self.map.is_empty() {
            m.push((
                "map".into(),
                Value::Map(
                    self.map
                        .iter()
                        .map(|(t, c)| (t.clone(), c.to_value()))
                        .collect(),
                ),
            ));
        }
        m.push(("default_class".into(), self.default_class.to_value()));
        if let Some(depth) = self.shed_queue_depth {
            m.push(("shed_queue_depth".into(), depth.to_value()));
        }
        m.push(("shed_policy".into(), self.shed_policy.to_value()));
        m.push(("defer_ms".into(), self.defer_ms.to_value()));
        Value::Map(m)
    }
}

// ---- observe ----

/// Deterministic observability knobs for `elk-obs` recording: whether
/// runs record at all, where the Chrome-trace timeline lands, and how
/// many per-request lanes are sampled. Recording is purely additive —
/// it never changes a report — and recorded streams are byte-identical
/// at any thread count. The `--timeline <path>` CLI flag overrides
/// `timeline` and implies `enable`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct ObserveSpec {
    /// Record spans/counters/histograms during runs.
    pub enable: bool,
    /// Chrome-trace output path (relative to the working directory);
    /// omit to derive `<out>/<name>.timeline.json` when enabled.
    #[serde(with = "nonblank", skip_serializing_if = "Option::is_none")]
    pub timeline: Option<String>,
    /// Per-request lane sampling cap: the first `sample` requests of a
    /// trace get individual timeline lanes (metrics always cover all).
    pub sample: u64,
}

impl Default for ObserveSpec {
    /// Recording off; 64 request lanes when switched on.
    fn default() -> Self {
        ObserveSpec {
            enable: false,
            timeline: None,
            sample: 64,
        }
    }
}

// ---- cluster ----

/// A fixed `(tp, pp, dp)` parallelism assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PlanSpec {
    /// Tensor-parallel degree.
    pub tp: u64,
    /// Pipeline-parallel degree.
    pub pp: u64,
    /// Data-parallel degree (replica groups).
    pub dp: u64,
}

/// Multi-chip parallelism configuration for `elk cluster`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default, rename = "cluster")]
pub struct ClusterSpec {
    /// Fixed `(tp, pp, dp)` assignment; omit for auto-parallelism
    /// search over the whole grid.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub plan: Option<PlanSpec>,
    /// Microbatches per pipeline round (default: the pipeline depth).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub microbatches: Option<u64>,
    /// Inter-chip link arrangement: `"ring"` or `"fully_connected"`.
    pub interconnect: String,
    /// Router policies for cluster serving, compared in order. The JSON
    /// accepts a single name, an array of names, or
    /// `{"power_of_two": {"seed": N}}` objects.
    #[serde(with = "router")]
    pub router: Vec<RouterPolicy>,
    /// Also replay the scenario's serving trace across the replica
    /// groups (`true` by default; estimate-only scenarios switch it
    /// off).
    pub serve: bool,
    /// Optional autoscaling controller: when present (and `serve` is
    /// on), the replay also runs with an elastic dp fleet between
    /// `min_groups` and `max_groups` of the plan's `(tp, pp)` groups.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub autoscale: Option<AutoscaleSpec>,
    /// Optional disaggregated prefill/decode pools: when present (and
    /// `serve` is on), the replay also runs with separate prefill and
    /// decode pools and KV-cache handoff priced on the interconnect.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub disaggregate: Option<DisaggSpec>,
    /// Optional multi-tenant section: when present (and `serve` is
    /// on), the replay also runs through the tenancy engine with SLO
    /// classes, admission control, and multi-model pods.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<TenancySpec>,
    /// Worker threads for the plan search and compile fan-out (`0` =
    /// all cores). Reports are byte-identical at any setting.
    pub threads: usize,
}

impl Default for ClusterSpec {
    /// Auto-search on ring links, round-robin serving, one thread.
    fn default() -> Self {
        ClusterSpec {
            plan: None,
            microbatches: None,
            interconnect: "ring".into(),
            router: vec![RouterPolicy::RoundRobin],
            serve: true,
            autoscale: None,
            disaggregate: None,
            tenants: None,
            threads: 1,
        }
    }
}

/// Disaggregated prefill/decode pool configuration (mirrors
/// [`elk_cluster::DisaggConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DisaggSpec {
    /// The prefill pool's `(tp, pp, dp)` layout.
    pub prefill: PlanSpec,
    /// The decode pool's `(tp, pp, dp)` layout.
    pub decode: PlanSpec,
    /// Prompt-token cap per prefill step (`0` disables chunking).
    #[serde(default)]
    pub chunk_tokens: u64,
    /// Map both pools onto the same groups of one pod (the degenerate
    /// config that equals colocated serving).
    #[serde(default)]
    pub shared_chips: bool,
}

/// Autoscaling controller knobs (mirrors
/// [`elk_cluster::AutoscaleConfig`], with the interval in ms like the
/// SLO section).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct AutoscaleSpec {
    /// Fleet floor (always-on groups).
    pub min_groups: u64,
    /// Fleet ceiling.
    pub max_groups: u64,
    /// Controller decision cadence, ms.
    pub interval_ms: f64,
    /// Scale up above this time-weighted waiting depth per ready group.
    pub up_queue_depth: f64,
    /// Scale down below this depth (when the SLO target holds).
    pub down_queue_depth: f64,
    /// Windowed SLO-attainment floor.
    pub slo_target: f64,
    /// Cold-start size in warm-up step latencies.
    pub cold_start_steps: f64,
}

impl Default for AutoscaleSpec {
    fn default() -> Self {
        let d = elk_cluster::AutoscaleConfig::default();
        AutoscaleSpec {
            min_groups: d.min_groups,
            max_groups: d.max_groups,
            interval_ms: d.interval.as_secs() * 1e3,
            up_queue_depth: d.up_queue_depth,
            down_queue_depth: d.down_queue_depth,
            slo_target: d.slo_target,
            cold_start_steps: d.cold_start_steps,
        }
    }
}

/// One router policy's wire form: a lowercase name, or an object for
/// the seeded policy.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields, rename_all = "snake_case")]
enum RouterForm {
    RoundRobin,
    LeastOutstanding,
    PowerOfTwo {
        #[serde(default = "RouterForm::default_seed")]
        seed: u64,
    },
}

impl RouterForm {
    fn default_seed() -> u64 {
        2
    }
}

/// `with` module for `cluster.router`: one policy or a non-empty array
/// of them, where `"power_of_two"` alone means seed 2; always
/// serialized as the array.
mod router {
    use super::{Deserialize, Error, RouterForm, RouterPolicy, Serialize, Value};

    pub(super) fn to_value(policies: &[RouterPolicy]) -> Value {
        let form = |&policy| match policy {
            RouterPolicy::RoundRobin => RouterForm::RoundRobin,
            RouterPolicy::LeastOutstanding => RouterForm::LeastOutstanding,
            RouterPolicy::PowerOfTwoChoices { seed } => RouterForm::PowerOfTwo { seed },
        };
        Value::Seq(policies.iter().map(|p| form(p).to_value()).collect())
    }

    fn policy(v: &Value) -> Result<RouterPolicy, Error> {
        if matches!(v, Value::Str(s) if s == "power_of_two") {
            return Ok(RouterPolicy::PowerOfTwoChoices {
                seed: RouterForm::default_seed(),
            });
        }
        Ok(match RouterForm::from_value(v)? {
            RouterForm::RoundRobin => RouterPolicy::RoundRobin,
            RouterForm::LeastOutstanding => RouterPolicy::LeastOutstanding,
            RouterForm::PowerOfTwo { seed } => RouterPolicy::PowerOfTwoChoices { seed },
        })
    }

    pub(super) fn from_value(v: &Value) -> Result<Vec<RouterPolicy>, Error> {
        match v {
            Value::Seq(items) if items.is_empty() => Err(Error::msg("the list must not be empty")),
            Value::Seq(items) => items.iter().map(policy).collect(),
            single => Ok(vec![policy(single)?]),
        }
    }
}

// ---- sweep ----

/// A grid sweep over arbitrary spec fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// Which runner each grid point goes through.
    #[serde(default)]
    pub command: SweepCommand,
    /// Sweep axes; the grid is their cartesian product in file order
    /// (last axis fastest).
    #[serde(with = "nonblank")]
    pub axes: Vec<SweepAxis>,
}

/// The runner a sweep fans its grid points through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SweepCommand {
    /// `elk compile` per point.
    #[default]
    Compile,
    /// `elk simulate` per point.
    Simulate,
    /// `elk serve` per point.
    Serve,
}

impl SweepCommand {
    /// Canonical lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SweepCommand::Compile => "compile",
            SweepCommand::Simulate => "simulate",
            SweepCommand::Serve => "serve",
        }
    }
}

/// One sweep axis: a dotted path into the scenario document and the
/// values it takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepAxis {
    /// Dotted path, e.g. `"workload.batch"` or `"system.chip.cores"`.
    pub path: String,
    /// Values substituted at `path`, one grid column per value.
    #[serde(with = "nonblank")]
    pub values: Vec<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = ScenarioSpec::from_json(r#"{"name": "t", "model": {"zoo": "llama13"}}"#).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.system, SystemSpec::Preset("ipu_pod4".into()));
        assert_eq!(s.workload.batch, 32);
        assert_eq!(s.compiler.design, vec![Design::ElkFull]);
        assert!(s.sweep.is_none());
    }

    #[test]
    fn empty_name_is_rejected() {
        for name in ["", "  "] {
            let e = ScenarioSpec::from_json(&format!(
                r#"{{"name": "{name}", "model": {{"zoo": "llama13"}}}}"#
            ))
            .unwrap_err();
            assert!(e.to_string().contains("non-empty"), "{e}");
        }
    }

    #[test]
    fn unknown_top_level_key_is_an_error() {
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"}, "wrokload": {}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("wrokload"), "{e}");
    }

    #[test]
    fn design_accepts_string_all_and_array() {
        let one: CompilerSpec = serde_json::from_str(r#"{"design": "basic"}"#).unwrap();
        assert_eq!(one.design, vec![Design::Basic]);
        let all: CompilerSpec = serde_json::from_str(r#"{"design": "all"}"#).unwrap();
        assert_eq!(all.design, Design::ALL.to_vec());
        let arr: CompilerSpec =
            serde_json::from_str(r#"{"design": ["ideal", "elk_dyn"]}"#).unwrap();
        assert_eq!(arr.design, vec![Design::Ideal, Design::ElkDyn]);
        let err: Result<CompilerSpec, _> = serde_json::from_str(r#"{"design": "elkful"}"#);
        assert!(err.unwrap_err().to_string().contains("elkful"));
    }

    #[test]
    fn canonical_serialization_round_trips() {
        let s = ScenarioSpec::from_json(
            r#"{
              "name": "rt",
              "model": {"zoo": "gemma27", "layers": 3},
              "system": {"chip": {"cores": 64, "matmul_tflops": 10.0, "vector_tflops": 1.0,
                                  "topology": {"mesh": {"total_gib_s": 512.0}}},
                         "chips": 2},
              "workload": {"phase": "prefill", "batch": 4, "seq_len": 256, "shards": 2},
              "compiler": {"design": "all", "threads": 2},
              "serving": {"trace": {"requests": 5, "output_len": {"Fixed": 8}}},
              "sweep": {"command": "simulate",
                        "axes": [{"path": "workload.batch", "values": [4, 8]}]}
            }"#,
        )
        .unwrap();
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn nested_engine_sections_reject_unknown_keys() {
        // Typo inside an explicit transformer body.
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"transformer": {
                "name": "x", "layers": 2, "hidden": 1024, "heads": 8, "kv_heads": 8,
                "head_dim": 128, "intermediate": 3072, "vocab": 32000, "glu": true,
                "norm": "Rms", "rope": true, "post_norms": false, "tpyo_knob": 99}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("tpyo_knob"), "{e}");

        // A Bursty-only knob smuggled into a Poisson arrivals body.
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"},
                "serving": {"trace": {"arrivals":
                  {"Poisson": {"rate_rps": 10.0, "burst_factor": 3.0}}}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("burst_factor"), "{e}");

        // Stray field in a length distribution.
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"},
                "serving": {"trace": {"prompt_len":
                  {"Uniform": {"lo": 1, "hi": 2, "mean": 3}}}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("mean"), "{e}");
    }

    #[test]
    fn duplicate_keys_anywhere_are_parse_errors() {
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"},
                "workload": {"batch": 16, "batch": 32}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("duplicate key `batch`"), "{e}");
    }

    #[test]
    fn cluster_section_parses_with_defaults_and_strictness() {
        let s = ScenarioSpec::from_json(
            r#"{"name": "c", "model": {"zoo": "llama13"},
                "cluster": {}}"#,
        )
        .unwrap();
        let c = s.cluster.expect("cluster section present");
        assert_eq!(c, ClusterSpec::default());

        let s = ScenarioSpec::from_json(
            r#"{"name": "c", "model": {"zoo": "llama13"},
                "cluster": {"plan": {"tp": 2, "pp": 2, "dp": 1},
                            "microbatches": 4,
                            "interconnect": "fully_connected",
                            "router": ["round_robin", {"power_of_two": {"seed": 7}}],
                            "serve": false}}"#,
        )
        .unwrap();
        let c = s.cluster.unwrap();
        assert_eq!(
            c.plan,
            Some(PlanSpec {
                tp: 2,
                pp: 2,
                dp: 1
            })
        );
        assert_eq!(c.microbatches, Some(4));
        assert_eq!(c.interconnect, "fully_connected");
        assert_eq!(
            c.router,
            vec![
                RouterPolicy::RoundRobin,
                RouterPolicy::PowerOfTwoChoices { seed: 7 }
            ]
        );
        assert!(!c.serve);

        // Typos anywhere in the section are errors.
        for bad in [
            r#"{"plan": {"tp": 2, "pp": 1, "dp": 1, "ep": 1}}"#,
            r#"{"router": "fastest"}"#,
            r#"{"mircobatches": 2}"#,
        ] {
            let e = ScenarioSpec::from_json(&format!(
                r#"{{"name": "c", "model": {{"zoo": "llama13"}}, "cluster": {bad}}}"#
            ))
            .unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains("ep") || msg.contains("fastest") || msg.contains("mircobatches"),
                "{msg}"
            );
        }
    }

    #[test]
    fn cluster_section_round_trips() {
        let s = ScenarioSpec::from_json(
            r#"{"name": "c", "model": {"zoo": "llama13"},
                "cluster": {"plan": {"tp": 4, "pp": 1, "dp": 1},
                            "router": ["least_outstanding", "power_of_two"]}}"#,
        )
        .unwrap();
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn workload_trace_and_autoscale_sections_round_trip() {
        let s = ScenarioSpec::from_json(
            r#"{"name": "tr", "model": {"zoo": "llama13"},
                "workload": {"trace": {"generate": {
                    "seed": 7, "requests": 32,
                    "rate": {"Diurnal": {"mean_rps": 80.0, "amplitude": 0.6,
                                         "period_s": 4.0}},
                    "prompt_len": {"HeavyTail": {"lo": 64, "alpha": 1.2, "cap": 2048}},
                    "output_len": {"Fixed": 8},
                    "tenants": 3}}},
                "cluster": {"autoscale": {"max_groups": 3, "interval_ms": 125.0}}}"#,
        )
        .unwrap();
        let trace = s.workload.trace.clone().expect("trace parsed");
        let TraceSourceSpec::Generate(g) = &trace else {
            panic!("generator source");
        };
        assert_eq!(g.seed, 7);
        assert!(matches!(g.rate, RateShape::Diurnal { amplitude, .. } if amplitude == 0.6));
        assert_eq!(g.tenants, 3);
        let auto = s.cluster.as_ref().unwrap().autoscale.expect("autoscale");
        assert_eq!(auto.max_groups, 3);
        assert_eq!(auto.min_groups, 1, "unset knobs default");
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);

        // File sources round-trip too, and empty paths are rejected.
        let s = ScenarioSpec::from_json(
            r#"{"name": "tr", "model": {"zoo": "llama13"},
                "workload": {"trace": {"file": "traces/golden_small.jsonl"}}}"#,
        )
        .unwrap();
        assert_eq!(
            s.workload.trace,
            Some(TraceSourceSpec::File("traces/golden_small.jsonl".into()))
        );
        assert_eq!(ScenarioSpec::from_json(&s.to_json()).unwrap(), s);
        let e = ScenarioSpec::from_json(
            r#"{"name": "tr", "model": {"zoo": "llama13"},
                "workload": {"trace": {"file": " "}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("non-empty"), "{e}");

        // Typos inside the new sections are errors.
        for bad in [
            r#""workload": {"trace": {"generate": {"rtae": {}}}}"#,
            r#""workload": {"trace": {"generate": {"rate": {"Constant": {"rps": 1.0}}}}}"#,
            r#""cluster": {"autoscale": {"max_gruops": 2}}"#,
        ] {
            let e = ScenarioSpec::from_json(&format!(
                r#"{{"name": "tr", "model": {{"zoo": "llama13"}}, {bad}}}"#
            ))
            .unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains("rtae") || msg.contains("rps") || msg.contains("max_gruops"),
                "{msg}"
            );
        }
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in [Phase::Decode, Phase::Prefill, Phase::TrainingForward] {
            assert_eq!(parse_phase(phase_name(phase)).unwrap(), phase);
        }
        assert!(parse_phase("Decode").is_err(), "names are lowercase");
    }

    #[test]
    fn design_names_round_trip() {
        for design in Design::ALL {
            assert_eq!(parse_design(design_name(design)).unwrap(), design);
        }
    }
}
