//! A host fingerprints its context once: building it hashes the trace
//! once, and after one warm-up batch per backend, further `sim`, `graph`
//! and `auto` batches hash no context bytes at all. The memoized ids are
//! the same values a fresh hash of the same inputs gives, so cache keys
//! are unchanged.
//!
//! The byte counter is thread-local and `handle_query` fingerprints on
//! the calling thread, so tests running in parallel cannot perturb it.
//!
//! The same holds for simulation contexts (the warmed machine and
//! predictor verdicts a batch's simulations share): a cold `sim` batch
//! prepares one, and warm batches on any backend prepare none.

use uarch_obs::json;
use uarch_plan::Planner;
use uarch_runner::{context_bytes_hashed, context_id, graph_context_id, Runner};
use uarch_serve::{ServeContext, ServeHost};
use uarch_trace::MachineConfig;

fn mcf_context() -> ServeContext {
    let w = uarch_workloads::generate(
        uarch_workloads::BenchProfile::by_name("mcf").expect("profile"),
        4_000,
        2003,
    );
    let mut ctx = ServeContext::new(w.name.clone(), MachineConfig::table6(), w.trace);
    ctx.warm_data = w.warm_data;
    ctx.warm_code = w.warm_code;
    ctx
}

/// Bytes hashed on this thread while `f` runs.
fn hashed_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = context_bytes_hashed();
    let out = f();
    (out, context_bytes_hashed() - before)
}

/// Simulation contexts prepared on this thread while `f` runs.
fn prepared_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = uarch_sim::contexts_prepared();
    let out = f();
    (out, uarch_sim::contexts_prepared() - before)
}

fn batch_bodies() -> [String; 3] {
    ["sim", "graph", "auto"].map(|backend| {
        format!(
            r#"{{"backend":"{backend}","queries":[{{"cost":"dmiss"}},{{"icost":"dmiss+win"}},{{"icost_units":["dmiss","bmisp+win"]}}]}}"#
        )
    })
}

fn sims_run(response: &str) -> f64 {
    let doc = json::parse(response).expect("response is JSON");
    doc.get("report")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("runner.sims_run"))
        .and_then(json::Value::as_num)
        .expect("report carries runner.sims_run")
}

#[test]
fn warm_queries_hash_no_context_bytes() {
    let ctx = mcf_context();
    let (_, one_sim_fingerprint) =
        hashed_by(|| context_id(&ctx.config, &ctx.trace, &ctx.warm_data, &ctx.warm_code));
    let (host, build_bytes) = hashed_by(|| ServeHost::new(Runner::new().with_threads(2), ctx));
    assert_eq!(
        build_bytes, one_sim_fingerprint,
        "building a host fingerprints its context exactly once"
    );

    let bodies = batch_bodies();
    for body in &bodies {
        host.handle_query(body.as_bytes()).expect("warm-up batch");
    }

    for round in 0..5 {
        for body in &bodies {
            let (response, bytes) = hashed_by(|| host.handle_query(body.as_bytes()));
            let response = response.expect("warm batch");
            assert_eq!(bytes, 0, "round {round}: {body} re-hashed its context");
            assert_eq!(sims_run(&response), 0.0, "warm batches are cache hits");
        }
    }

    // The memoized ids are exactly what a fresh fingerprint gives.
    let ctx = host.context();
    assert_eq!(
        host.sim_context(),
        context_id(&ctx.config, &ctx.trace, &ctx.warm_data, &ctx.warm_code)
    );
    assert_eq!(host.graph_context(), graph_context_id(host.graph()));
    let fresh = Planner::new(
        host.runner(),
        &ctx.config,
        &ctx.trace,
        &ctx.warm_data,
        &ctx.warm_code,
        host.graph(),
    );
    assert_eq!(host.planner().contexts(), fresh.contexts());
    assert_eq!(
        fresh.contexts(),
        (host.sim_context(), host.sim_context().tagged("graph"))
    );
}

#[test]
fn warm_queries_prepare_no_simulation_context() {
    // One worker: every simulation job runs on this thread, so a context
    // prepared per job (rather than per batch) would be counted here.
    let host = ServeHost::new(Runner::new().with_threads(1), mcf_context());
    let [sim, graph, auto] = batch_bodies();
    let (response, prepared) = prepared_by(|| host.handle_query(sim.as_bytes()));
    assert!(sims_run(&response.expect("cold sim batch")) > 1.0);
    assert_eq!(prepared, 1, "a cold sim batch prepares its context once");
    for body in [&graph, &auto] {
        host.handle_query(body.as_bytes()).expect("warm-up batch");
    }
    for round in 0..5 {
        for body in [&sim, &graph, &auto] {
            let (response, prepared) = prepared_by(|| host.handle_query(body.as_bytes()));
            assert_eq!(sims_run(&response.expect("warm batch")), 0.0);
            assert_eq!(prepared, 0, "round {round}: {body} prepared a context");
        }
    }
}
