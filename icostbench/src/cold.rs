//! `cold_sweep`: the paper's ground-truth breakdown, served cold. Each
//! of the 12 Table 6 profiles gets a fresh host (empty cache) and one
//! client sends it the 37-set breakdown on the `sim` backend, so the
//! simulation engine and the runner pool do nearly all the work.

use std::sync::Arc;
use std::time::Instant;

use uarch_runner::{Query, RunReport, Runner};
use uarch_serve::{parse_query_body, ServeHost};
use uarch_trace::MachineConfig;
use uarch_workloads::{generate, BenchProfile, Workload};

use crate::common::{
    answers_of, breakdown_queries, build_host, ok_json, post, query_body, start_server, time_ms,
    Spans, Tally,
};
use crate::stats::{mean, median, quantile, ratio};
use crate::{traced_traffic, Args, Layers, Outcome};

/// Trace length of every profile.
const INSTS: usize = 20_000;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// One profile's inputs and its reference breakdown.
struct Profile {
    w: Workload,
    answers: Vec<i64>,
    report: RunReport,
}

/// The work counts a cold breakdown must repeat exactly.
fn counts(t: &Tally) -> [u64; 5] {
    [
        t.sims_run,
        t.cache_hits,
        t.jobs_deduped,
        t.insts_simulated,
        t.skipped_cycles,
    ]
}

fn reference_counts(r: &RunReport) -> [u64; 5] {
    [
        r.sims_run,
        r.cache_hits,
        r.jobs_deduped,
        r.insts_simulated,
        r.engine.skipped_cycles,
    ]
}

/// Post one breakdown to a fresh `host` and fold the outcome in.
fn breakdown(
    host: &Arc<ServeHost>,
    p: &Profile,
    body: &[u8],
    trace: Option<u64>,
    tally: &mut Tally,
) {
    let server = start_server(host);
    tally.attempted += 1;
    let start = Instant::now();
    let response = post(server.addr(), "/query", body, trace);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    let verdict = response.and_then(|r| {
        let doc = ok_json(&r)?;
        if answers_of(&doc)? != p.answers {
            return Err(format!("{}: breakdown answers differ from the reference", p.w.name));
        }
        let mut one = Tally::default();
        one.absorb_report(&doc)?;
        if counts(&one) != reference_counts(&p.report) {
            return Err(format!(
                "{}: work counts {:?} differ from the reference {:?} (sims, hits, deduped, insts, skipped)",
                p.w.name,
                counts(&one),
                reference_counts(&p.report)
            ));
        }
        one.response_bytes.push(r.body.len() as f64);
        Ok(one)
    });
    match verdict {
        Ok(mut one) => {
            one.latencies_ms.push(ms);
            one.units = 1;
            tally.absorb(one);
        }
        Err(e) => tally.fail(e),
    }
}

/// Whole sweeps over every profile until `seconds` have passed (at
/// least one), each breakdown on a fresh host. `first` supplies the
/// hosts of the first sweep. Returns the tally and the breakdowns per
/// second of breakdown latency (host builds between them excluded).
fn traffic(
    profiles: &[Profile],
    body: &[u8],
    seconds: f64,
    first: &mut Option<Vec<Arc<ServeHost>>>,
    spans: &Spans,
) -> (Tally, f64) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut id = 0u64;
    loop {
        let hosts = first
            .take()
            .unwrap_or_else(|| profiles.iter().map(|p| build_host(&p.w)).collect());
        for (p, host) in profiles.iter().zip(&hosts) {
            id += 1;
            let _sp = spans.span("serve", "client.breakdown", id);
            breakdown(host, p, body, spans.on().then_some(id), &mut tally);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let busy_s = tally.latencies_ms.iter().sum::<f64>() / 1e3;
    let rate = tally.units as f64 / busy_s;
    (tally, rate)
}

pub fn run(args: &Args) -> Outcome {
    let pool = breakdown_queries();
    let body = query_body("sim", &pool);
    let cfg = MachineConfig::table6();
    let profiles: Vec<Profile> = BenchProfile::suite()
        .iter()
        .map(|bp| {
            let w = generate(bp, INSTS, args.seed);
            let (answers, report) =
                Runner::new().run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &pool);
            Profile { w, answers, report }
        })
        .collect();
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut hosts = Vec::new();
    for _ in 0..SETUP_REPS {
        hosts.clear();
        let (built, ms) = time_ms(|| {
            let (ws, gen) = time_ms(|| {
                BenchProfile::suite()
                    .iter()
                    .map(|bp| generate(bp, INSTS, args.seed))
                    .collect::<Vec<_>>()
            });
            gen_ms.push(gen);
            ws.iter().map(build_host).collect::<Vec<_>>()
        });
        setup_s.push(ms / 1e3);
        hosts = built;
    }
    let mut first = Some(hosts);
    let mut outcome = Outcome::default();
    if !args.trace {
        let (measured, rate) = traffic(
            &profiles,
            &body,
            args.seconds,
            &mut first,
            &Spans::new(false),
        );
        outcome.e2e(median(&setup_s), &measured.latencies_ms, rate);
        outcome.notes.push(format!(
            "cold_sweep: {} breakdowns ({} sweeps of {} profiles); breakdown_p50_ms {:.3}, p95 {:.3}; sim_minst_per_s {:.3}; sims run {}, insts simulated {}, skipped cycles {}",
            measured.latencies_ms.len(),
            measured.latencies_ms.len() / profiles.len(),
            profiles.len(),
            quantile(&measured.latencies_ms, 0.5),
            quantile(&measured.latencies_ms, 0.95),
            rate * measured.insts_simulated as f64 / measured.units as f64 / 1e6,
            measured.sims_run,
            measured.insts_simulated,
            measured.skipped_cycles,
        ));
        outcome.tally = measured;
        return outcome;
    }

    let (plain, traced, spans, mut layers) = traced_traffic(args, |seconds, spans| {
        traffic(&profiles, &body, seconds, &mut first, spans)
    });
    layers.set("workloads.generate_ms", median(&gen_ms));
    decompose(&profiles, &body, &plain, &spans, &mut layers);
    let mut tally = plain;
    tally.absorb(traced);
    outcome.tally = tally;
    outcome.layers = Some(layers);
    outcome.spans = Some(spans);
    outcome
}

/// Per profile, on fresh state: time `parse_query_body`, a cold
/// `ServeHost::handle_query`, and a cold `Runner::run_warmed` of the
/// same batch. The handle time the parse and the runner leave over is
/// the unattributed residual.
fn decompose(profiles: &[Profile], body: &[u8], plain: &Tally, spans: &Spans, layers: &mut Layers) {
    let cfg = MachineConfig::table6();
    let text = std::str::from_utf8(body).expect("UTF-8 body");
    let mut parse_ms = Vec::new();
    let mut handle_ms = Vec::new();
    let mut residual_ms = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let id = (0xd0 << 40) | i as u64;
        let (parsed, parse) = {
            let _sp = spans.span("serve", "parse_query_body", id);
            time_ms(|| parse_query_body(text))
        };
        let (queries, _): (Vec<Query>, _) = parsed.expect("benchmark bodies parse");
        let (_, runner) = {
            let _sp = spans.span("runner", "Runner::run_warmed", id);
            time_ms(|| {
                Runner::new().run_warmed(&cfg, &p.w.trace, &p.w.warm_data, &p.w.warm_code, &queries)
            })
        };
        let host = build_host(&p.w);
        let (_, handle) = {
            let _sp = spans.span("serve", "handle_query", id);
            time_ms(|| host.handle_query(body))
        };
        parse_ms.push(parse);
        handle_ms.push(handle);
        residual_ms.push(handle - parse - runner);
    }
    layers.set("serve.parse_us", median(&parse_ms) * 1e3);
    layers.set("serve.handle_ms", median(&handle_ms));
    layers.set(
        "serve.transport_ms",
        median(&plain.latencies_ms) - median(&handle_ms),
    );
    layers.set(
        "obs.unattributed_pct",
        100.0 * ratio(mean(&residual_ms), mean(&plain.latencies_ms)),
    );
}
