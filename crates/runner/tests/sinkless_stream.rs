//! Regression: live ledger subscribers receive run/job records even
//! when no sink is configured (`ICOST_LEDGER_FILE` unset). The serve
//! plane's `GET /events` relies on producers gating record construction
//! on `Ledger::wants_records()` (sink enabled or a subscriber
//! attached), not the sink alone.
//!
//! Own test binary: installing the disabled global ledger is a
//! once-per-process operation.

use uarch_obs::ledger::{install_global, parse_ledger, Ledger, LedgerRecord};
use uarch_runner::{Query, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig};

#[test]
fn subscribers_stream_records_without_a_sink() {
    install_global(Ledger::disabled());
    let ledger = uarch_obs::ledger::global();
    assert!(!ledger.is_enabled());

    let w = uarch_workloads::generate(
        uarch_workloads::BenchProfile::by_name("gzip").unwrap(),
        2_000,
        2003,
    );
    let cfg = MachineConfig::table6();
    let runner = Runner::new().with_threads(2);

    // Before anyone subscribes, a batch must append nothing anywhere.
    let queries = [Query::Cost(EventSet::single(EventClass::Dmiss))];
    runner.run(&cfg, &w.trace, &queries);
    let subscriber = ledger.subscribe(64);
    assert!(subscriber.is_empty(), "no records before subscribing");

    // With a live subscriber the same sink-less ledger streams the
    // batch: one run header plus at least one job record, parseable as
    // the normal JSONL ledger format.
    let queries = [
        Query::Cost(EventSet::single(EventClass::Win)),
        Query::Icost(EventSet::from([EventClass::Dmiss, EventClass::Win])),
    ];
    runner.run(&cfg, &w.trace, &queries);
    let lines = subscriber.drain();
    assert!(lines.len() >= 2, "run header + jobs, got {lines:?}");
    let text = lines.join("\n");
    let records = parse_ledger(&text).expect("streamed lines parse as ledger records");
    assert!(matches!(records[0], LedgerRecord::Run(_)), "{text}");
    assert!(
        records[1..]
            .iter()
            .all(|r| matches!(r, LedgerRecord::Job(_))),
        "{text}"
    );

    // The graph oracle produces streams the same way.
    let baseline = uarch_sim::Simulator::new(&cfg).run(&w.trace, uarch_sim::Idealization::none());
    let graph = uarch_graph::DepGraph::build(&w.trace, &baseline, &cfg);
    runner.run_graph(&graph, &queries);
    let graph_lines = subscriber.drain();
    assert!(
        graph_lines.len() >= 2,
        "graph run header + jobs, got {graph_lines:?}"
    );
    parse_ledger(&graph_lines.join("\n")).expect("graph stream parses");
}
