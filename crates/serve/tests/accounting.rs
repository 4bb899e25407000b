//! One accounting record, read four ways. For one traced `/query` per
//! backend, the response's `report`, its receipt, the `report` ledger
//! record stamped with the same trace id and the `/metrics` `runner_*`
//! deltas across the request must all carry the same counts — and
//! those counts must add up: every simulation feeds the whole trace,
//! and a `sim` batch's simulations are exactly its `computed` job
//! records. Lives in its own integration binary because the global
//! ledger is process-wide (installed once).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use uarch_obs::json::{self, Value};
use uarch_obs::ledger::{self, parse_ledger, Ledger, LedgerRecord, Provenance, ReportRecord};
use uarch_runner::Runner;
use uarch_serve::{ServeContext, ServeHost, Server};
use uarch_trace::MachineConfig;

/// Send one request; return the response body (asserting a 200).
fn request(addr: SocketAddr, method: &str, path: &str, trace: Option<&str>, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let trace = trace.map_or(String::new(), |id| format!("x-icost-trace: {id}-{id}\r\n"));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{trace}Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

/// The `registry="runner"` samples of a `/metrics` exposition, by name.
fn runner_metrics(addr: SocketAddr) -> BTreeMap<String, u64> {
    request(addr, "GET", "/metrics", None, "")
        .lines()
        .filter(|l| !l.starts_with('#') && l.contains("registry=\"runner\""))
        .map(|l| {
            let name = l.split('{').next().expect("name");
            let value = l.rsplit(' ').next().expect("value");
            (name.to_string(), value.parse().expect("integer sample"))
        })
        .collect()
}

fn num(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("missing {key}")) as u64
}

#[test]
fn receipts_ledger_records_and_metrics_agree() {
    assert!(
        ledger::install_global(Ledger::in_memory()),
        "global ledger must not be initialized yet"
    );
    let w = uarch_workloads::generate(
        uarch_workloads::BenchProfile::by_name("mcf").expect("profile"),
        2_000,
        2003,
    );
    let insts = w.trace.len() as u64;
    let mut ctx = ServeContext::new(w.name.clone(), MachineConfig::table6(), w.trace);
    ctx.warm_data = w.warm_data;
    ctx.warm_code = w.warm_code;
    let host = Arc::new(ServeHost::new(Runner::new().with_threads(2), ctx));
    let server = Server::start(host, "127.0.0.1:0", 2).expect("start");
    let addr = server.addr();

    // Disjoint query sets, so each backend's batch is cold.
    let batches = [
        ("sim", r#"[{"cost":"dmiss"},{"icost":"dmiss+win"}]"#),
        ("graph", r#"[{"cost":"bmisp"},{"icost":"dl1+imiss"}]"#),
        ("auto", r#"[{"cost":"shalu"},{"icost":"lgalu+bw"}]"#),
    ];
    for (i, (backend, queries)) in batches.into_iter().enumerate() {
        let trace_id = format!("{:016x}", 0xacc0 + i);
        let before = runner_metrics(addr);
        let body = format!("{{\"backend\":\"{backend}\",\"queries\":{queries}}}");
        let text = request(addr, "POST", "/query", Some(&trace_id), &body);
        let after = runner_metrics(addr);
        let doc = json::parse(&text).expect("response is JSON");
        let receipt = doc.get("receipt").expect("traced response has a receipt");
        let counters = doc
            .get("report")
            .and_then(|r| r.get("counters"))
            .expect("report counters");

        let records = parse_ledger(&ledger::global().buffered_text().expect("in-memory sink"))
            .expect("ledger parses");
        let reports: Vec<&ReportRecord> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Report(r) if r.trace == trace_id => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 1, "{backend}: one report record per batch");
        let record = reports[0];

        // The ledger record, the response's report and the /metrics
        // deltas, member by member.
        let delta = |name: &str| {
            after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
        };
        for (member, value, metric) in [
            ("queries", record.queries, "runner_queries"),
            ("jobs", record.jobs, "runner_jobs_requested"),
            ("deduped", record.deduped, "runner_jobs_deduped"),
            ("cache_hits", record.cache_hits, "runner_cache_hits_mem"),
            ("disk_hits", record.disk_hits, "runner_cache_hits_disk"),
            ("sims_run", record.sims_run, "runner_sims_run"),
            ("cycles", record.cycles, "runner_cycles_simulated"),
            ("insts", record.insts, "runner_insts_simulated"),
            ("expand_us", record.expand_us, "runner_expand_wall_us"),
            ("sim_us", record.sim_us, "runner_sim_wall_us"),
            ("skipped", record.skipped, "sim_skipped_cycles"),
        ] {
            assert_eq!(
                value,
                delta(metric),
                "{backend}: ledger {member} vs {metric}"
            );
            let name = metric.replacen('_', ".", 1);
            assert_eq!(
                value,
                num(counters, &name),
                "{backend}: ledger {member} vs {name}"
            );
        }
        assert_eq!(
            record.threads, after["runner_threads"],
            "{backend}: threads"
        );

        // The receipt bills the same batch.
        for (key, value) in [
            ("sims_run", record.sims_run),
            ("cache_hits", record.cache_hits),
            ("disk_hits", record.disk_hits),
            ("deduped", record.deduped),
            ("skipped_cycles", record.skipped),
        ] {
            assert_eq!(num(receipt, key), value, "{backend}: receipt {key}");
        }

        // The counts add up: a simulation feeds the whole trace and
        // takes cycles; nothing else is billed as one.
        assert_eq!(
            record.insts,
            record.sims_run * insts,
            "{backend}: {record:?}"
        );
        assert_eq!(
            record.cycles > 0,
            record.sims_run > 0,
            "{backend}: {record:?}"
        );
        if backend == "sim" {
            let computed = records
                .iter()
                .filter(|r| {
                    matches!(r, LedgerRecord::Job(j)
                        if j.trace == trace_id && j.provenance == Provenance::Computed)
                })
                .count() as u64;
            assert!(record.sims_run > 0, "a cold sim batch simulates");
            assert_eq!(computed, record.sims_run, "sim: computed job records");
        }
    }
    server.shutdown();
}
