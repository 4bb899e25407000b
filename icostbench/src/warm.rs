//! `warm_query`: two closed-loop clients send small `POST /query`
//! batches against a fully warmed mcf host, so every answer is a cache
//! hit and only the fixed per-request path does work.

use std::sync::Arc;
use std::time::Instant;

use uarch_graph::DepGraph;
use uarch_obs::json::Value;
use uarch_plan::Planner;
use uarch_runner::{Query, Runner};
use uarch_serve::{parse_query_body, ServeHost, Server};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::EventSet;
use uarch_workloads::{generate, BenchProfile, Workload};

use crate::common::{
    answers_of, breakdown_queries, build_host, ok_json, post, query_body, start_server, time_ms,
    Rng, Spans, Tally,
};
use crate::stats::{mean, median, quantile, ratio};
use crate::{traced_traffic, Args, Layers, Outcome};

/// Trace length of the served context.
const INSTS: usize = 20_000;
/// Closed-loop clients (the CI-class host has two cores).
const CLIENTS: u64 = 2;
/// Batches pre-generated per client (cycled when a run outlasts them).
const BATCHES: usize = 4096;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The three backends, rotated in equal thirds.
const BACKENDS: [&str; 3] = ["sim", "graph", "auto"];

/// One pre-encoded request.
struct Batch {
    backend: usize,
    queries: Vec<usize>,
    body: Vec<u8>,
}

/// Reference answers for the 36 breakdown queries.
struct Refs {
    sim: Vec<i64>,
    graph: Vec<i64>,
}

/// The same dependence graph the host builds: from the *unwarmed*
/// baseline simulation of the served trace.
fn served_graph(w: &Workload) -> DepGraph {
    let cfg = uarch_trace::MachineConfig::table6();
    let baseline = Simulator::new(&cfg).run(&w.trace, Idealization::none());
    DepGraph::build(&w.trace, &baseline, &cfg)
}

/// Graph-side answers to `queries` straight from the lane kernel:
/// `cost(S)` from `DepGraph::cost_many`, pair icosts by the closed form.
fn graph_answers(graph: &DepGraph, queries: &[Query]) -> Vec<i64> {
    queries
        .iter()
        .map(|q| match q {
            Query::Cost(s) => graph.cost_many(&[*s])[0],
            Query::Icost(u) => {
                let members: Vec<EventSet> = u.iter().map(EventSet::single).collect();
                let mut sets = vec![*u];
                sets.extend(&members);
                let c = graph.cost_many(&sets);
                c[0] - c[1..].iter().sum::<i64>()
            }
            Query::IcostOfUnits(_) => unreachable!("the breakdown pool holds no unit queries"),
        })
        .collect()
}

fn references(w: &Workload, queries: &[Query]) -> Refs {
    let cfg = uarch_trace::MachineConfig::table6();
    let (sim, _) = Runner::new().run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, queries);
    Refs {
        sim,
        graph: graph_answers(&served_graph(w), queries),
    }
}

fn plan_batches(seed: u64, client: u64, pool: &[Query]) -> Vec<Batch> {
    let mut rng = Rng::new(seed, 100 + client);
    (0..BATCHES)
        .map(|i| {
            let backend = (i + client as usize) % BACKENDS.len();
            let n = 1 + rng.below(4);
            let queries: Vec<usize> = (0..n).map(|_| rng.below(pool.len())).collect();
            let picked: Vec<Query> = queries.iter().map(|&q| pool[q].clone()).collect();
            Batch {
                backend,
                body: query_body(BACKENDS[backend], &picked),
                queries,
            }
        })
        .collect()
}

/// Check one `/query` response against the references; returns the
/// rung tally of the answers.
fn check(doc: &Value, backend: usize, queries: &[usize], refs: &Refs) -> Result<[u64; 3], String> {
    let answers = answers_of(doc)?;
    let provenance: Vec<&str> = doc
        .get("provenance")
        .and_then(Value::as_arr)
        .ok_or("response has no provenance array")?
        .iter()
        .map(|v| v.as_str().unwrap_or("?"))
        .collect();
    if answers.len() != queries.len() || provenance.len() != queries.len() {
        return Err(format!(
            "{} answers for {} queries",
            answers.len(),
            queries.len()
        ));
    }
    let mut rungs = [0u64; 3];
    for ((&q, &got), &rung) in queries.iter().zip(&answers).zip(&provenance) {
        let want = match (BACKENDS[backend], rung) {
            ("sim", "sim") | ("auto", "cache" | "sim") => refs.sim[q],
            ("graph" | "auto", "graph") => refs.graph[q],
            (b, r) => return Err(format!("backend {b} answered from rung {r}")),
        };
        if got != want {
            return Err(format!(
                "{} query {q}: got {got}, want {want}",
                BACKENDS[backend]
            ));
        }
        if let Some(i) = ["cache", "graph", "sim"].iter().position(|r| *r == rung) {
            rungs[i] += 1;
        }
    }
    Ok(rungs)
}

/// Send one batch and fold its outcome into `tally`.
fn exchange(
    addr: std::net::SocketAddr,
    batch: &Batch,
    refs: &Refs,
    trace: Option<u64>,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    let start = Instant::now();
    let response = post(addr, "/query", &batch.body, trace);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let verdict = response.and_then(|r| {
        let doc = ok_json(&r)?;
        let rungs = check(&doc, batch.backend, &batch.queries, refs)?;
        Ok((r.body.len(), doc, rungs))
    });
    match verdict {
        Ok((bytes, doc, rungs)) => {
            let mut one = Tally::default();
            if let Err(e) = one.absorb_report(&doc) {
                return tally.fail(e);
            }
            // Every answer on a warmed host must come from the cache.
            if one.sims_run != 0 {
                return tally.fail(format!("warm batch ran {} simulations", one.sims_run));
            }
            tally.absorb(one);
            tally.latencies_ms.push(ms);
            tally.class_ms[batch.backend].push(ms);
            tally.units += batch.queries.len() as u64;
            tally.response_bytes.push(bytes as f64);
            if BACKENDS[batch.backend] == "auto" {
                for (mine, n) in tally.rungs.iter_mut().zip(rungs) {
                    *mine += n;
                }
            }
        }
        Err(e) => tally.fail(e),
    }
}

/// Drive every client's closed loop until `deadline`; returns the
/// merged tally and the wall time in seconds.
fn traffic(
    addr: std::net::SocketAddr,
    plans: &[Vec<Batch>],
    refs: &Refs,
    seconds: f64,
    spans: &Spans,
) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let batch = &plan[i % plan.len()];
                        let id = ((c as u64 + 1) << 40) | (i as u64 + 1);
                        let _sp = spans.span("serve", "client.query", id);
                        exchange(addr, batch, refs, spans.on().then_some(id), &mut tally);
                        i += 1;
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut merged = Tally::default();
    for t in tallies {
        merged.absorb(t);
    }
    (merged, wall)
}

/// Build, start and warm one host; returns it with the generate time.
fn setup(seed: u64, refs: &Refs, tally: &mut Tally) -> (Arc<ServeHost>, Server, Workload, f64) {
    let profile = BenchProfile::by_name("mcf").expect("mcf profile");
    let (w, gen_ms) = time_ms(|| generate(profile, INSTS, seed));
    let host = build_host(&w);
    let server = start_server(&host);
    let pool = breakdown_queries();
    let all: Vec<usize> = (0..pool.len()).collect();
    for (backend, name) in BACKENDS.iter().enumerate() {
        tally.attempted += 1;
        let verdict = post(server.addr(), "/query", &query_body(name, &pool), None)
            .and_then(|r| ok_json(&r))
            .and_then(|doc| check(&doc, backend, &all, refs));
        if let Err(e) = verdict {
            tally.fail(format!("warm-up {name}: {e}"));
        }
    }
    (host, server, w, gen_ms)
}

pub fn run(args: &Args) -> Outcome {
    let pool = breakdown_queries();
    let profile = BenchProfile::by_name("mcf").expect("mcf profile");
    let refs = references(&generate(profile, INSTS, args.seed), &pool);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous rep's server before timing the next one.
        drop(served.take());
        let (out, ms) = time_ms(|| setup(args.seed, &refs, &mut tally));
        setup_s.push(ms / 1e3);
        gen_ms.push(out.3);
        served = Some(out);
    }
    let (host, server, w, _) = served.expect("at least one setup");
    let plans: Vec<Vec<Batch>> = (0..CLIENTS)
        .map(|c| plan_batches(args.seed, c, &pool))
        .collect();
    let addr = server.addr();
    let mut outcome = Outcome::default();
    if !args.trace {
        let (measured, wall) = traffic(addr, &plans, &refs, args.seconds, &Spans::new(false));
        outcome.e2e(
            median(&setup_s),
            &measured.latencies_ms,
            measured.units as f64 / wall,
        );
        outcome.notes.push(format!(
            "warm_query: {} batches, {} queries answered in {wall:.2}s; query_per_s {:.1}, query_p50_ms {:.4}, query_p99_ms {:.4}; cache hits {}, sims run {}",
            measured.latencies_ms.len(),
            measured.units,
            measured.units as f64 / wall,
            quantile(&measured.latencies_ms, 0.5),
            quantile(&measured.latencies_ms, 0.99),
            measured.cache_hits,
            measured.sims_run,
        ));
        tally.absorb(measured);
        outcome.tally = tally;
        return outcome;
    }

    let (plain, traced, spans, mut layers) = traced_traffic(args, |seconds, spans| {
        let (t, wall) = traffic(addr, &plans, &refs, seconds, spans);
        let rate = t.units as f64 / wall;
        (t, rate)
    });
    let answered: u64 = plain.rungs.iter().sum();
    for (name, n) in ["cache", "graph", "sim"].iter().zip(plain.rungs) {
        layers.set(
            &format!("plan.rung_share.{name}"),
            ratio(n as f64, answered as f64),
        );
    }
    for (b, name) in BACKENDS.iter().enumerate() {
        layers.set(
            &format!("serve.client_p50_ms.{name}"),
            median(&plain.class_ms[b]),
        );
    }
    layers.set("workloads.generate_ms", median(&gen_ms));
    decompose(&host, &w, &plans[0], &plain, &spans, &mut layers);
    tally.absorb(plain);
    tally.absorb(traced);
    outcome.tally = tally;
    outcome.layers = Some(layers);
    outcome.spans = Some(spans);
    outcome
}

/// Time the layer calls behind each backend's requests in-process, on
/// the same warmed host: `parse_query_body`, the backend call, and the
/// whole `handle_query`. What `handle_query` spends outside the named
/// calls is the unattributed residual.
fn decompose(
    host: &ServeHost,
    w: &Workload,
    plan: &[Batch],
    plain: &Tally,
    spans: &Spans,
    layers: &mut Layers,
) {
    const PER_BACKEND: usize = 40;
    let graph = served_graph(w);
    let ctx = host.context();
    let runner = host.runner();
    let mut parse_ms = Vec::new();
    let mut handle_ms = Vec::new();
    let mut residual_ms = 0.0;
    let mut client_ms = 0.0;
    for (b, name) in BACKENDS.iter().enumerate() {
        let mut parse = Vec::new();
        let mut backend = Vec::new();
        let mut handle = Vec::new();
        for (i, batch) in plan
            .iter()
            .filter(|x| x.backend == b)
            .take(PER_BACKEND)
            .enumerate()
        {
            let id = (0xd0 << 40) | ((b as u64) << 20) | i as u64;
            let text = std::str::from_utf8(&batch.body).expect("UTF-8 body");
            let (parsed, ms) = {
                let _sp = spans.span("serve", "parse_query_body", id);
                time_ms(|| parse_query_body(text))
            };
            parse.push(ms);
            let (queries, _) = parsed.expect("benchmark bodies parse");
            let (_, ms) = {
                let _sp = spans.span("runner", name_of_backend_call(name), id);
                time_ms(|| match *name {
                    "sim" => {
                        runner
                            .run_warmed(
                                &ctx.config,
                                &ctx.trace,
                                &ctx.warm_data,
                                &ctx.warm_code,
                                &queries,
                            )
                            .0
                    }
                    "graph" => runner.run_graph(&graph, &queries).0,
                    _ => {
                        let mut planner = Planner::new(
                            runner,
                            &ctx.config,
                            &ctx.trace,
                            &ctx.warm_data,
                            &ctx.warm_code,
                            &graph,
                        );
                        planner.plan(&queries).0.iter().map(|p| p.value).collect()
                    }
                })
            };
            backend.push(ms);
            let (_, ms) = {
                let _sp = spans.span("serve", "handle_query", id);
                time_ms(|| host.handle_query(&batch.body))
            };
            handle.push(ms);
        }
        residual_ms += mean(&handle) - mean(&parse) - mean(&backend);
        client_ms += mean(&plain.class_ms[b]);
        parse_ms.extend(parse);
        handle_ms.extend(handle);
    }
    layers.set("serve.parse_us", median(&parse_ms) * 1e3);
    layers.set("serve.handle_ms", median(&handle_ms));
    layers.set(
        "serve.transport_ms",
        median(&plain.latencies_ms) - median(&handle_ms),
    );
    layers.set(
        "obs.unattributed_pct",
        100.0 * ratio(residual_ms, client_ms),
    );
}

fn name_of_backend_call(backend: &str) -> &'static str {
    match backend {
        "sim" => "Runner::run_warmed",
        "graph" => "Runner::run_graph",
        _ => "Planner::plan",
    }
}
