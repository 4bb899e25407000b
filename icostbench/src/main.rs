//! The icost serving benchmark. One in-process `uarch_serve::Server` on
//! loopback per workload, driven from this process by at most two
//! closed-loop client threads, every answer checked against a reference
//! computed through library calls.
//!
//! ```text
//! cargo run --release --offline --manifest-path icostbench/Cargo.toml -- \
//!     --workload warm_query --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every telemetry
//! plane off; `--trace 1` is the separate traced run that reports the
//! per-layer metrics and writes its spans under `icostbench/out/`. The
//! last line of standard output is the JSON result; see README.md for
//! the workloads and what each metric should move.

mod attach;
mod cold;
mod common;
mod layers;
mod stats;
mod warm;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::{Spans, Tally};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// A metric the workload does not exercise reads 0 (README.md says
/// which workload moves which metric).
const PER_LAYER: [(&str, &str); 31] = [
    ("runner.fingerprint_ms", "ms"),
    ("runner.graph_fingerprint_ms", "ms"),
    ("runner.warm_self_ms", "ms"),
    ("runner.fingerprint_ns_per_inst", "ns"),
    ("runner.sims_run", "count"),
    ("runner.cache_hit_ratio", "ratio"),
    ("runner.dedup_ratio", "ratio"),
    ("sim.ns_per_inst.mem_bound", "ns"),
    ("sim.ns_per_inst.compute_bound", "ns"),
    ("sim.skipped_pct", "%"),
    ("graph.build_ms", "ms"),
    ("graph.ns_per_inst_lane", "ns"),
    ("graph.window_eval_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.handle_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.ingest_handle_ms", "ms"),
    ("serve.ingest_wait_ms", "ms"),
    ("serve.query_fixed_us", "us"),
    ("serve.query_ns_per_inst", "ns"),
    ("serve.client_p50_ms.sim", "ms"),
    ("serve.client_p50_ms.graph", "ms"),
    ("serve.client_p50_ms.auto", "ms"),
    ("plan.plan_ms", "ms"),
    ("plan.rung_share.cache", "ratio"),
    ("plan.rung_share.graph", "ratio"),
    ("plan.rung_share.sim", "ratio"),
    ("workloads.generate_ms", "ms"),
    ("obs.tracing_overhead_pct", "%"),
    ("obs.unattributed_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["warm_query", "cold_sweep", "attach_stream"];

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad())?)
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing or non-positive --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The per-layer metrics of one traced run, by name.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Set one metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// A metric set earlier (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// The traffic of a traced run: a third of `--seconds` untraced, then a
/// third with the program's tracer and the benchmark's spans on.
/// `traffic(seconds, spans)` drives one phase and returns its tally and
/// its rate. Returns both phases' tallies, the spans, and the per-layer
/// metrics the untraced phase yields directly.
pub fn traced_traffic(
    args: &Args,
    mut traffic: impl FnMut(f64, &Spans) -> (Tally, f64),
) -> (Tally, Tally, Spans, Layers) {
    let phase = args.seconds / 3.0;
    let (plain, plain_rate) = traffic(phase, &Spans::new(false));
    let spans = Spans::new(true);
    uarch_obs::global().set_enabled(true);
    let (traced, traced_rate) = traffic(phase, &spans);
    uarch_obs::global().set_enabled(false);
    let mut layers = Layers::default();
    layers.set(
        "obs.tracing_overhead_pct",
        100.0 * (stats::ratio(plain_rate, traced_rate) - 1.0),
    );
    let requests = plain.latencies_ms.len() as f64;
    layers.set(
        "runner.sims_run",
        stats::ratio(plain.sims_run as f64, requests),
    );
    layers.set(
        "runner.cache_hit_ratio",
        stats::ratio(
            plain.cache_hits as f64,
            (plain.cache_hits + plain.sims_run) as f64,
        ),
    );
    layers.set(
        "runner.dedup_ratio",
        stats::ratio(plain.jobs_deduped as f64, plain.jobs_requested as f64),
    );
    layers.set("serve.response_bytes", stats::median(&plain.response_bytes));
    (plain, traced, spans, layers)
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Every request sent, measured or not, and its verdict.
    pub tally: Tally,
    /// End-to-end metric values in [`END_TO_END`] order (untraced runs;
    /// `peak_rss_mb` is appended at exit).
    pub e2e: Vec<f64>,
    /// Per-layer metrics (traced runs).
    pub layers: Option<Layers>,
    /// Benchmark-side spans of the traced run.
    pub spans: Option<Spans>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record the end-to-end metrics of measured latencies. The tail
    /// percentiles are printed, not gated: guest CPU steal moves them by
    /// 1.5–3× between runs of the same code.
    pub fn e2e(&mut self, setup_s: f64, latencies_ms: &[f64], ops_per_s: f64) {
        self.e2e = vec![setup_s, stats::quantile(latencies_ms, 0.5), ops_per_s];
        self.notes.push(format!(
            "{} latency samples; p90 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms",
            latencies_ms.len(),
            stats::quantile(latencies_ms, 0.90),
            stats::quantile(latencies_ms, 0.95),
            stats::quantile(latencies_ms, 0.99),
        ));
    }
}

/// Clear every `ICOST_*` variable before anything reads one: a stray
/// `ICOST_SIM_ENGINE`, `ICOST_AUDIT`, `ICOST_CACHE_DIR`,
/// `ICOST_LEDGER_FILE` or `ICOST_TRACE_FILE` would otherwise silently
/// measure the ticking engine, an audited or disk-cached runner, or a
/// traced program.
fn scrub_env() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ICOST_") {
            eprintln!("icostbench: clearing {}", key.to_string_lossy());
            std::env::remove_var(&key);
        }
    }
}

fn write_spans(args: &Args, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-bench.json")), spans.export_json()))
        .and_then(|()| uarch_obs::global().write(dir.join(format!("{stem}-program.json"))));
    match written {
        Ok(()) => eprintln!("icostbench: spans written to {}", dir.display()),
        Err(e) => eprintln!("icostbench: could not write spans: {e}"),
    }
}

fn main() -> ExitCode {
    scrub_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("icostbench: {e}");
            eprintln!(
                "usage: icostbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Off until the traced run's traced phase turns it on.
    uarch_obs::install_global(uarch_obs::Tracer::with_max_events(false, 1 << 18));
    uarch_obs::ledger::install_global(uarch_obs::ledger::Ledger::disabled());

    let mut outcome = match args.workload.as_str() {
        "warm_query" => warm::run(&args),
        "cold_sweep" => cold::run(&args),
        _ => attach::run(&args),
    };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(layers) = outcome.layers.as_mut() {
        let spans = outcome.spans.take().expect("traced runs record spans");
        layers::battery(args.seed, &spans, layers);
        write_spans(&args, &spans);
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name), unit));
        }
    } else {
        outcome.e2e.push(stats::peak_rss_mb());
        assert_eq!(
            outcome.e2e.len(),
            END_TO_END.len(),
            "every end-to-end metric is measured"
        );
        for ((name, unit), value) in END_TO_END.iter().zip(&outcome.e2e) {
            metrics.push((name, *value, unit));
        }
    }

    let tally = &outcome.tally;
    // An end-to-end metric is a positive measurement; a per-layer one
    // may read 0 where the workload does not exercise its layer.
    let sane = metrics
        .iter()
        .all(|(_, v, _)| v.is_finite() && (args.trace || *v > 0.0));
    let correct = tally.failed == 0 && tally.attempted > 0 && sane;
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted){}",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted,
        tally
            .first_error
            .as_ref()
            .map_or(String::new(), |e| format!("; first failure: {e}")),
    );
    println!("audit, profiler: on no served path of these workloads; not measured");
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
