//! `attach_stream`: two clients each stream their own ingest session
//! (gcc, vortex) in 256-instruction batches with a 1024-instruction
//! window, closing with `done:true` — the write path beside
//! `warm_query`'s reads.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use uarch_graph::{
    breakdown_lattice, DepGraph, LaneScratch, StreamingBuilder, DEFAULT_CHUNK, DEFAULT_TOP_PAIRS,
};
use uarch_obs::json::Value;
use uarch_obs::ledger::LedgerRecord;
use uarch_serve::{inst_to_json, IngestSessions};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, MachineConfig, Trace};
use uarch_workloads::{generate, BenchProfile, Workload};

use crate::common::{build_host, ok_json, post, start_server, time_ms, Spans, Tally};
use crate::stats::{mean, median, quantile, ratio};
use crate::{traced_traffic, Args, Layers, Outcome};

/// Instructions per session.
const INSTS: usize = 80_000;
/// Instructions per ingest request.
const BATCH: usize = 256;
/// Retirement window of every session.
const WINDOW: usize = 1024;
/// One streamed session per client.
const PROFILES: [&str; 2] = ["gcc", "vortex"];
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// A session's pre-encoded request bodies.
struct Session {
    bodies: Vec<Vec<u8>>,
}

/// The `POST /ingest` bodies streaming `w` as session `id`.
fn encode(w: &Workload, id: &str) -> Session {
    let chunks: Vec<_> = w.trace.insts().chunks(BATCH).collect();
    let bodies = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            let insts: Vec<String> = chunk.iter().map(inst_to_json).collect();
            let window = if i == 0 {
                format!("\"window\":{WINDOW},")
            } else {
                String::new()
            };
            format!(
                "{{\"session\":\"{id}\",{window}\"insts\":[{}],\"done\":{}}}",
                insts.join(","),
                i + 1 == chunks.len()
            )
            .into_bytes()
        })
        .collect();
    Session { bodies }
}

/// What the `k`-th response (0-based) of a session must report:
/// `(ingested, windows, pending, done)`.
fn expected(k: usize, batches: usize) -> (u64, u64, u64, bool) {
    let ingested = ((k + 1) * BATCH).min(INSTS) as u64;
    if k + 1 == batches {
        return (ingested, INSTS.div_ceil(WINDOW) as u64, 0, true);
    }
    let windows = ingested / WINDOW as u64;
    (ingested, windows, ingested - windows * WINDOW as u64, false)
}

fn check(doc: &Value, k: usize, batches: usize) -> Result<u64, String> {
    let num = |f: &str| doc.get(f).and_then(Value::as_num).map(|v| v as u64);
    let got = (
        num("ingested"),
        num("windows"),
        num("pending"),
        matches!(doc.get("done"), Some(Value::Bool(true))),
    );
    let want = expected(k, batches);
    if got != (Some(want.0), Some(want.1), Some(want.2), want.3) {
        return Err(format!("ingest batch {k}: got {got:?}, want {want:?}"));
    }
    Ok(want.1)
}

/// Stream whole sessions until `seconds` have passed (at least one per
/// client), one client thread per session.
fn traffic(addr: SocketAddr, sessions: &[Session], seconds: f64, spans: &Spans) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(c, session)| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut id = (c as u64 + 1) << 40;
                    loop {
                        let n = session.bodies.len();
                        for (k, body) in session.bodies.iter().enumerate() {
                            id += 1;
                            let _sp = spans.span("serve", "client.ingest", id);
                            tally.attempted += 1;
                            let t = Instant::now();
                            let response = post(addr, "/ingest", body, spans.on().then_some(id));
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            let verdict = response.and_then(|r| {
                                let windows = check(&ok_json(&r)?, k, n)?;
                                Ok((r.body.len(), windows))
                            });
                            match verdict {
                                Ok((bytes, windows)) => {
                                    let insts = expected(k, n).0 - (k * BATCH) as u64;
                                    tally.latencies_ms.push(ms);
                                    tally.response_bytes.push(bytes as f64);
                                    tally.units += insts;
                                    if k + 1 == n {
                                        tally.windows += windows;
                                    }
                                }
                                Err(e) => tally.fail(e),
                            }
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
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

/// One retired window as the ledger carries it.
#[derive(Debug, PartialEq)]
struct Window {
    start: u64,
    end: u64,
    baseline: u64,
    costs: BTreeMap<String, i64>,
    pairs: BTreeMap<String, i64>,
}

/// Every window of `w` analyzed in isolation through
/// `breakdown_lattice`, as the streaming builder must retire them.
fn reference_windows(w: &Workload) -> Vec<Window> {
    let cfg = MachineConfig::table6();
    let mut scratch = LaneScratch::new();
    let insts = w.trace.insts();
    (0..insts.len())
        .step_by(WINDOW)
        .map(|start| {
            let end = (start + WINDOW).min(insts.len());
            let sub = Trace::from_insts(insts[start..end].to_vec());
            let result = Simulator::new(&cfg).run(&sub, Idealization::none());
            let graph = DepGraph::build(&sub, &result, &cfg);
            let (baseline, costs, pairs) = breakdown_lattice(&graph, DEFAULT_CHUNK, &mut scratch);
            Window {
                start: start as u64,
                end: end as u64,
                baseline,
                costs: EventClass::ALL
                    .iter()
                    .zip(costs)
                    .map(|(c, v)| (c.name().to_string(), v))
                    .collect(),
                pairs: pairs
                    .iter()
                    .take(DEFAULT_TOP_PAIRS)
                    .map(|(s, v)| (s.to_string(), *v))
                    .collect(),
            }
        })
        .collect()
}

/// Stream one session per profile concurrently with a ledger subscriber
/// attached, and compare every retired window with the reference.
fn check_windows(
    addr: SocketAddr,
    workloads: &[Workload],
    refs: &[Vec<Window>],
    tally: &mut Tally,
) {
    let subscriber = uarch_obs::ledger::global().subscribe(1 << 16);
    let sessions: Vec<Session> = workloads
        .iter()
        .map(|w| encode(w, &format!("check-{}", w.name)))
        .collect();
    let (streamed, _) = traffic(addr, &sessions, 0.0, &Spans::new(false));
    tally.absorb(streamed);
    let mut runs: BTreeMap<u64, Vec<Window>> = BTreeMap::new();
    for line in subscriber.drain() {
        if let Ok(LedgerRecord::Window(r)) = LedgerRecord::parse(&line) {
            runs.entry(r.run).or_default().push(Window {
                start: r.start,
                end: r.end,
                baseline: r.baseline,
                costs: r.costs,
                pairs: r.pairs,
            });
        }
    }
    let mut matched = vec![false; refs.len()];
    for windows in runs.values() {
        tally.attempted += 1;
        match refs.iter().position(|r| r == windows) {
            Some(i) if !matched[i] => matched[i] = true,
            _ => tally.fail(format!(
                "a streamed session's {} windows match no reference session",
                windows.len()
            )),
        }
    }
    if let Some(i) = matched.iter().position(|m| !m) {
        tally.attempted += 1;
        tally.fail(format!(
            "no window records for session {}",
            workloads[i].name
        ));
    }
}

pub fn run(args: &Args) -> Outcome {
    let workloads: Vec<Workload> = PROFILES
        .iter()
        .map(|p| generate(BenchProfile::by_name(p).expect("profile"), INSTS, args.seed))
        .collect();
    let refs: Vec<Vec<Window>> = workloads.iter().map(reference_windows).collect();
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let (out, ms) = time_ms(|| {
            let (ws, gen) = time_ms(|| {
                PROFILES
                    .iter()
                    .map(|p| generate(BenchProfile::by_name(p).expect("profile"), INSTS, args.seed))
                    .collect::<Vec<_>>()
            });
            gen_ms.push(gen);
            let sessions: Vec<Session> = ws.iter().map(|w| encode(w, &w.name)).collect();
            let host = build_host(&ws[0]);
            let server = start_server(&host);
            (host, server, sessions)
        });
        setup_s.push(ms / 1e3);
        served = Some(out);
    }
    let (_host, server, sessions) = served.expect("at least one setup");
    let addr = server.addr();
    let mut outcome = Outcome::default();
    let mut tally = if !args.trace {
        let (measured, wall) = traffic(addr, &sessions, args.seconds, &Spans::new(false));
        outcome.e2e(
            median(&setup_s),
            &measured.latencies_ms,
            measured.latencies_ms.len() as f64 / wall,
        );
        outcome.notes.push(format!(
            "attach_stream: {} ingest batches, {} insts in {wall:.2}s; ingest_minst_per_s {:.4}, ingest_p50_ms {:.4}, ingest_p99_ms {:.4}; windows retired {}",
            measured.latencies_ms.len(),
            measured.units,
            measured.units as f64 / wall / 1e6,
            quantile(&measured.latencies_ms, 0.5),
            quantile(&measured.latencies_ms, 0.99),
            measured.windows,
        ));
        measured
    } else {
        let (plain, traced, spans, mut layers) = traced_traffic(args, |seconds, spans| {
            let (t, wall) = traffic(addr, &sessions, seconds, spans);
            let rate = t.latencies_ms.len() as f64 / wall;
            (t, rate)
        });
        layers.set("workloads.generate_ms", median(&gen_ms));
        decompose(&sessions[0], &workloads[0], &plain, &spans, &mut layers);
        outcome.layers = Some(layers);
        outcome.spans = Some(spans);
        let mut tally = plain;
        tally.absorb(traced);
        tally
    };
    check_windows(addr, &workloads, &refs, &mut tally);
    outcome.tally = tally;
    outcome
}

/// Replay one session alone, in-process: each `IngestSessions::handle`
/// call (no contention) beside the `StreamingBuilder::push_batch` call
/// that does its graph work. The handle time the builder leaves over
/// (JSON decode, ledger emit) is the unattributed residual; the client
/// latency beyond the solo handle time is the wait for the table lock.
fn decompose(session: &Session, w: &Workload, plain: &Tally, spans: &Spans, layers: &mut Layers) {
    let cfg = MachineConfig::table6();
    let table = IngestSessions::new(cfg.clone());
    let mut handle = Vec::new();
    for (k, body) in session.bodies.iter().enumerate() {
        let _sp = spans.span("serve", "IngestSessions::handle", (0xd0 << 40) | k as u64);
        let (outcome, ms) = time_ms(|| table.handle(body));
        outcome.expect("solo replay of a checked session");
        handle.push(ms);
    }
    let mut builder = StreamingBuilder::new(&cfg, WINDOW);
    let mut push = Vec::new();
    for (k, chunk) in w.trace.insts().chunks(BATCH).enumerate() {
        let _sp = spans.span(
            "graph",
            "StreamingBuilder::push_batch",
            (0xd1 << 40) | k as u64,
        );
        let (_, ms) = time_ms(|| builder.push_batch(chunk).expect("connected stream"));
        push.push(ms);
    }
    let (_, tail) = time_ms(|| builder.finish());
    let graph_ms = mean(&push) + tail / push.len() as f64;
    layers.set("serve.ingest_handle_ms", median(&handle));
    layers.set(
        "serve.ingest_wait_ms",
        median(&plain.latencies_ms) - median(&handle),
    );
    layers.set(
        "obs.unattributed_pct",
        100.0 * ratio(mean(&handle) - graph_ms, mean(&plain.latencies_ms)),
    );
}
