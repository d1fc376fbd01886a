//! Spans, and the single-threaded in-process replay that records them.
//!
//! The replay walks one request through the same public calls the server
//! makes — framing, JSON parse, cache-key build, then the endpoint's
//! planner / search / simulator / bound / DSE calls and the render — with a
//! span around each. It renders the response itself and must reproduce the
//! server's bytes exactly, which proves the spans cover the work the server
//! actually did. Spans live in memory and are written out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use clb_core::energy::energy_of;
use clb_core::{
    candidate_bounds, plan_for_arch, ArchConfig, BoundSummary, EnergyParams, LayerReport,
    NetworkReport, Objective, OnChipMemory, Tiling,
};
use clb_service::api::{self, ArchChoice};
use conv_model::ConvLayer;
use dataflow::{found_minimum, search_dataflow, DataflowKind};
use serde::{Deserialize, Serialize, Value};

use crate::workload::Request;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The replayed request the span belongs to.
    pub request: u32,
    /// Index of the span in the trace.
    pub id: u32,
    /// The enclosing span, `None` for a request's root.
    pub parent: Option<u32>,
    /// Layer name, e.g. `core.planner.plan`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    request: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Renames the most recently opened span.
    fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    /// Replays one request under a fresh root span and returns the
    /// self time (ns) of every layer it touched. Errors when the replay
    /// cannot run the request or renders other bytes than `expected`.
    pub fn replay(&mut self, request: &Request, expected: &str) -> Result<Profile, String> {
        self.request = self.request.wrapping_add(1);
        let first = self.spans.len();
        let rendered = self.span("request", |t| replay(t, request))?;
        if rendered != expected {
            return Err(format!(
                "replay of {} renders other bytes than the server",
                request.path
            ));
        }
        Ok(Profile::of(&self.spans[first..]))
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes the trace as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"request":{},"id":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.request, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer of one replayed request, in ns: a span's duration
/// minus the part its child spans cover.
#[derive(Debug, Clone, Default)]
pub struct Profile(BTreeMap<&'static str, u64>);

impl Profile {
    fn of(spans: &[Span]) -> Profile {
        let mut own: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
        for s in spans {
            if let Some(parent) = s.parent.and_then(|p| own.get_mut(&p)) {
                *parent = parent.saturating_sub(s.duration_ns());
            }
        }
        let mut by_name = BTreeMap::new();
        for s in spans {
            *by_name.entry(s.name).or_insert(0) += own[&s.id];
        }
        Profile(by_name)
    }

    /// Combines several profiles layer by layer with `f` (e.g. a median).
    pub fn merge(profiles: &[Profile], f: fn(&[f64]) -> f64) -> Profile {
        let mut names: Vec<&'static str> =
            profiles.iter().flat_map(|p| p.0.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        Profile(
            names
                .into_iter()
                .map(|n| {
                    let v: Vec<f64> = profiles.iter().map(|p| p.get(n) as f64).collect();
                    (n, f(&v) as u64)
                })
                .collect(),
        )
    }

    /// Self time of one layer, 0 when the request never reached it.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

fn replay(t: &mut Tracer, request: &Request) -> Result<String, String> {
    let wire = request.wire();
    let framed = t
        .span("service.http.frame", |_| {
            clb_service::http::read_request(&mut wire.as_slice(), usize::MAX)
        })
        .map_err(|e| format!("framing: {e:?}"))?;
    let text = String::from_utf8(framed.body).map_err(|e| e.to_string())?;
    let value: Value = t
        .span("service.api.parse", |_| serde_json::from_str(&text))
        .map_err(|e| e.to_string())?;
    t.span("service.api.key", |_| serde_json::to_string(&value))
        .map_err(|e| e.to_string())?;
    t.span("service.api.handler", |t| handle(t, request.path, &value))
}

fn handle(t: &mut Tracer, path: &str, v: &Value) -> Result<String, String> {
    match path {
        "/v1/bound" => {
            let layer = layer_of(v)?;
            let mem_kib = mem_kib_of(v)?;
            let mem = OnChipMemory::from_kib(mem_kib);
            let response = t.span("bound.summary", |_| api::BoundResponse {
                layer,
                mem_kib,
                macs: layer.macs(),
                window_reuse: layer.window_reuse(),
                theorem2_bytes: comm_bound::theorem2_dram_words(&layer, mem) * 2.0,
                bound_bytes: comm_bound::dram_bound_bytes(&layer, mem),
                naive_bytes: comm_bound::naive_dram_words(&layer) * 2.0,
                reduction_factor: comm_bound::reduction_factor(&layer, mem),
            });
            render(t, &response)
        }
        "/v1/sweep" => {
            let layer = layer_of(v)?;
            let mem_kib = mem_kib_of(v)?;
            let mem = OnChipMemory::from_kib(mem_kib);
            let (dataflows, found) = t.span("dataflow.engine.search", |_| {
                let dataflows: Vec<api::SweepEntry> = DataflowKind::ALL
                    .iter()
                    .map(|&kind| api::SweepEntry {
                        kind,
                        name: kind.name().to_string(),
                        choice: search_dataflow(kind, &layer, mem),
                    })
                    .collect();
                (dataflows, found_minimum(&layer, mem))
            });
            let bound_bytes = t.span("bound.summary", |_| {
                comm_bound::dram_bound_bytes(&layer, mem)
            });
            render(
                t,
                &api::SweepResponse {
                    layer,
                    mem_kib,
                    bound_bytes,
                    found_minimum: found,
                    dataflows,
                },
            )
        }
        "/v1/plan" => {
            let layer = layer_of(v)?;
            let choice = arch_choice_of(v)?;
            let report = analyze(t, "layer", &layer, &choice.arch())?;
            match choice {
                ArchChoice::Implem(implementation) => render(
                    t,
                    &api::PlanResponse {
                        implementation,
                        report,
                    },
                ),
                ArchChoice::Custom(arch) => render(t, &api::ArchPlanResponse { arch, report }),
            }
        }
        "/v1/simulate" => {
            let layer = layer_of(v)?;
            let choice = arch_choice_of(v)?;
            let arch = choice.arch();
            let tiling = Tiling::from_value(field(v, "tiling")?).map_err(|e| e.to_string())?;
            let stats = t
                .span("sim.simulate", |_| {
                    accel_sim::simulate(&layer, &tiling, &arch)
                })
                .map_err(|e| e.to_string())?;
            let ArchChoice::Implem(implementation) = choice else {
                return Err("replay covers preset /v1/simulate bodies only".to_string());
            };
            render(
                t,
                &api::SimulateResponse {
                    implementation,
                    layer,
                    tiling,
                    stats,
                    total_cycles: stats.total_cycles(),
                    seconds: stats.seconds(arch.core_freq_hz),
                },
            )
        }
        "/v1/network" => {
            let arch = arch_choice_of(v)?.arch();
            let net = match field(v, "net")? {
                custom @ Value::Object(_) => {
                    api::network_from_value(custom)
                        .map_err(|e| format!("{e:?}"))?
                        .0
                }
                name => {
                    let batch = number(v, "batch").unwrap_or(3.0) as usize;
                    api::network_by_name(name.as_str().map_err(|e| e.to_string())?, batch)
                        .map_err(|e| format!("{e:?}"))?
                }
            };
            let layers = net
                .conv_layers()
                .map(|n| analyze(t, &n.name, &n.layer, &arch))
                .collect::<Result<Vec<_>, _>>()?;
            let report = NetworkReport::from_layer_reports(net.name(), layers, arch.core_freq_hz);
            render(t, &report)
        }
        "/v1/dse" => {
            let target = field(v, "target")?;
            let batch = number(target, "batch").unwrap_or(3.0) as usize;
            let name = field(target, "network")?
                .as_str()
                .map_err(|e| e.to_string())?;
            let net = api::network_by_name(name, batch).map_err(|e| format!("{e:?}"))?;
            let top_k = number(v, "top_k").ok_or("missing top_k")? as usize;
            let archs = grid_archs(field(v, "grid")?)?;
            let layers: Vec<ConvLayer> = net.conv_layers().map(|l| l.layer).collect();
            // The staged sweep computes these floors itself; timing them
            // alone splits the sweep into its bound stage and the rest.
            t.span("bound.filter.floors", |_| {
                std::hint::black_box(candidate_bounds(&layers, &archs))
            });
            let response = t.span("core.dse.sweep", |_| {
                api::dse_staged_network_results(
                    &net,
                    batch,
                    archs.len(),
                    &archs,
                    Objective::Cycles,
                    top_k,
                    |_| {},
                )
            });
            render(t, &response)
        }
        other => Err(format!("no replay for {other}")),
    }
}

/// Plan → simulate → energy → bounds for one layer, as
/// `Accelerator::analyze_layer` runs them.
fn analyze(
    t: &mut Tracer,
    name: &str,
    layer: &ConvLayer,
    arch: &ArchConfig,
) -> Result<LayerReport, String> {
    // A plan-cache hit is recorded as `core.planner.plan_hit`, so the
    // `core.planner.plan` spans time cold plans only.
    let misses = clb_core::plan_cache_stats().misses;
    let tiling = t.span("core.planner.plan", |_| plan_for_arch(layer, arch));
    if clb_core::plan_cache_stats().misses == misses {
        t.rename_last("core.planner.plan_hit");
    }
    let tiling = tiling.map_err(|e| e.to_string())?;
    let stats = t
        .span("sim.simulate", |_| {
            accel_sim::simulate(layer, &tiling, arch)
        })
        .map_err(|e| e.to_string())?;
    let energy = t.span("core.energy", |_| {
        energy_of(&stats, arch, &EnergyParams::default())
    });
    let bounds = t.span("bound.summary", |_| {
        BoundSummary::of(layer, accel_sim::effective_memory(arch))
    });
    Ok(LayerReport {
        name: name.to_string(),
        layer: *layer,
        tiling,
        stats,
        energy,
        bounds,
    })
}

fn render<T: Serialize>(t: &mut Tracer, value: &T) -> Result<String, String> {
    t.span("service.api.render", |_| {
        serde_json::to_string_pretty(value)
    })
    .map_err(|e| e.to_string())
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get_field(name).map_err(|e| e.to_string())
}

fn number(v: &Value, name: &str) -> Option<f64> {
    v.get_field(name).ok()?.as_number().ok()
}

fn layer_of(v: &Value) -> Result<ConvLayer, String> {
    api::LayerSpec::from_value(v)
        .and_then(|spec| spec.to_layer())
        .map_err(|e| format!("{e:?}"))
}

fn arch_choice_of(v: &Value) -> Result<ArchChoice, String> {
    match v.get_field("arch") {
        Ok(arch) => api::arch_from_value(arch)
            .map(ArchChoice::Custom)
            .map_err(|e| format!("{e:?}")),
        Err(_) => Ok(ArchChoice::Implem(
            number(v, "implem").unwrap_or(1.0) as usize
        )),
    }
}

fn mem_kib_of(v: &Value) -> Result<f64, String> {
    match v.get_field("arch") {
        Ok(arch) => {
            let arch = api::arch_from_value(arch).map_err(|e| format!("{e:?}"))?;
            Ok(arch.effective_onchip_bytes() as f64 / 1024.0)
        }
        Err(_) => Ok(number(v, "mem_kib").unwrap_or(66.5)),
    }
}

/// The candidate list of a `/v1/dse` grid over the implementation-1 base.
fn grid_archs(grid: &Value) -> Result<Vec<ArchConfig>, String> {
    let base = ArchConfig::implementation(1);
    let defaults = [
        base.pe_rows,
        base.pe_cols,
        base.group_rows,
        base.group_cols,
        base.lreg_entries_per_pe,
        base.igbuf_entries,
        base.wgbuf_entries,
        base.greg_bytes,
        base.greg_segment_entries,
    ];
    let mut axes: [Vec<usize>; 9] = defaults.map(|d| vec![d]);
    for (axis, name) in axes.iter_mut().zip(api::GRID_AXES) {
        if let Ok(values) = grid.get_field(name) {
            *axis = Vec::<usize>::from_value(values).map_err(|e| e.to_string())?;
        }
    }
    api::archs_from_axes_staged(&axes, &base).map_err(|e| format!("{e:?}"))
}
