//! The fixed layer battery of the traced run: direct, timed calls into
//! each layer's public functions on seeded inputs that do not depend on
//! the workload, plus the warm-path cost fit over trace length.

use uarch_graph::{DepGraph, LaneScratch, StreamingBuilder, DEFAULT_CHUNK};
use uarch_plan::Planner;
use uarch_runner::{context_id, graph_context_id, Query, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::{generate, BenchProfile, Workload};

use crate::common::{breakdown_queries, build_host, median_ms, query_body, time_ms, Spans};
use crate::stats::{fit_line, median, ratio};
use crate::Layers;

/// Trace length of the battery's fixed inputs.
const INSTS: usize = 20_000;
/// Trace lengths of the warm-path cost fit.
const FIT_INSTS: [usize; 3] = [5_000, 20_000, 80_000];

/// The warm request the battery and the fit time: one cost and one
/// pair icost.
fn fixed_batch() -> Vec<Query> {
    vec![
        Query::Cost(EventSet::single(EventClass::Dmiss)),
        Query::Icost(EventSet::single(EventClass::Dmiss).with(EventClass::Win)),
    ]
}

fn workload(name: &str, insts: usize, seed: u64) -> Workload {
    generate(BenchProfile::by_name(name).expect("profile"), insts, seed)
}

/// The 37 breakdown sets: `∅`, the 8 singletons and the 28 pairs.
fn breakdown_sets() -> Vec<EventSet> {
    let mut sets = vec![EventSet::EMPTY];
    for q in breakdown_queries() {
        match q {
            Query::Cost(s) | Query::Icost(s) => sets.push(s),
            Query::IcostOfUnits(_) => unreachable!("the breakdown pool holds no unit queries"),
        }
    }
    sets
}

pub fn battery(seed: u64, spans: &Spans, layers: &mut Layers) {
    let cfg = MachineConfig::table6();
    let mcf = workload("mcf", INSTS, seed);
    let (trace, warm_data, warm_code) = (&mcf.trace, &mcf.warm_data, &mcf.warm_code);
    let n = trace.len() as f64;
    let mut id = 0xb0 << 40;
    let mut span = |layer, name| {
        id += 1;
        spans.span(layer, name, id)
    };

    {
        let _sp = span("runner", "context_id");
        let ms = median_ms(20, || context_id(&cfg, trace, warm_data, warm_code));
        layers.set("runner.fingerprint_ms", ms);
    }
    let mut sim_ns = |w: &Workload, name| {
        let _sp = span("sim", name);
        let sim = Simulator::new(&cfg);
        let run = || sim.run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
        let engine = run().engine;
        let ms = median_ms(15, run);
        (ms * 1e6 / w.trace.len() as f64, engine)
    };
    let (mem_ns, mem_engine) = sim_ns(&mcf, "Simulator::run_warmed.mem_bound");
    let gzip = workload("gzip", INSTS, seed);
    let (compute_ns, compute_engine) = sim_ns(&gzip, "Simulator::run_warmed.compute_bound");
    layers.set("sim.ns_per_inst.mem_bound", mem_ns);
    layers.set("sim.ns_per_inst.compute_bound", compute_ns);
    let skipped = mem_engine.skipped_cycles + compute_engine.skipped_cycles;
    let total = skipped + mem_engine.ticked_cycles + compute_engine.ticked_cycles;
    layers.set(
        "sim.skipped_pct",
        100.0 * ratio(skipped as f64, total as f64),
    );

    let baseline = Simulator::new(&cfg).run(trace, Idealization::none());
    let graph = {
        let _sp = span("graph", "DepGraph::build");
        layers.set(
            "graph.build_ms",
            median_ms(15, || DepGraph::build(trace, &baseline, &cfg)),
        );
        DepGraph::build(trace, &baseline, &cfg)
    };
    {
        let _sp = span("runner", "graph_context_id");
        layers.set(
            "runner.graph_fingerprint_ms",
            median_ms(20, || graph_context_id(&graph)),
        );
    }
    {
        let _sp = span("graph", "eval_many_chunked");
        let sets = breakdown_sets();
        let mut scratch = LaneScratch::new();
        let ms = median_ms(15, || {
            graph.eval_many_chunked(&sets, DEFAULT_CHUNK, &mut scratch)
        });
        layers.set("graph.ns_per_inst_lane", ms * 1e6 / (n * sets.len() as f64));
    }
    {
        let _sp = span("graph", "StreamingBuilder::push_batch");
        let gcc = workload("gcc", INSTS, seed);
        let mut builder = StreamingBuilder::new(&cfg, 1024);
        let mut per_window = Vec::new();
        for chunk in gcc.trace.insts().chunks(256) {
            let (retired, ms) = time_ms(|| builder.push_batch(chunk).expect("connected stream"));
            if !retired.is_empty() {
                per_window.push(ms / retired.len() as f64);
            }
        }
        layers.set("graph.window_eval_ms", median(&per_window));
    }

    let runner = Runner::new();
    let batch = fixed_batch();
    runner.run_warmed(&cfg, trace, warm_data, warm_code, &breakdown_queries());
    {
        let _sp = span("runner", "Runner::run_warmed.warm");
        let ms = median_ms(20, || {
            runner.run_warmed(&cfg, trace, warm_data, warm_code, &batch)
        });
        layers.set(
            "runner.warm_self_ms",
            ms - layers.get("runner.fingerprint_ms"),
        );
    }
    {
        let _sp = span("plan", "Planner::plan");
        let mut planner = Planner::new(&runner, &cfg, trace, warm_data, warm_code, &graph);
        layers.set("plan.plan_ms", median_ms(20, || planner.plan(&batch)));
    }
    fit(seed, &mut span, layers);
}

/// Time `context_id` and a warm in-process `handle_query` at each fit
/// length and fit `constant + slope * insts` to both.
fn fit(
    seed: u64,
    span: &mut impl FnMut(&'static str, &'static str) -> uarch_obs::Span,
    layers: &mut Layers,
) {
    let cfg = MachineConfig::table6();
    let body = query_body("sim", &fixed_batch());
    let mut fingerprint = Vec::new();
    let mut handle = Vec::new();
    for insts in FIT_INSTS {
        let w = workload("mcf", insts, seed);
        let x = insts as f64;
        {
            let _sp = span("runner", "context_id.fit");
            let ms = median_ms(10, || {
                context_id(&cfg, &w.trace, &w.warm_data, &w.warm_code)
            });
            fingerprint.push((x, ms));
        }
        let host = build_host(&w);
        host.handle_query(&body).expect("warm-up query");
        let _sp = span("serve", "handle_query.fit");
        handle.push((x, median_ms(20, || host.handle_query(&body))));
    }
    let (_, fp_slope) = fit_line(&fingerprint);
    let (fixed, slope) = fit_line(&handle);
    layers.set("runner.fingerprint_ns_per_inst", fp_slope * 1e6);
    layers.set("serve.query_fixed_us", fixed * 1e3);
    layers.set("serve.query_ns_per_inst", slope * 1e6);
}
