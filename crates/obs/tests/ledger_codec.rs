//! The ledger codec against input it did not lay out itself: the
//! committed Table 7 baseline re-encodes byte for byte, and a line's
//! members may come in any order, `kind` last, each after a stale
//! duplicate that the later value replaces.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use uarch_obs::json::{self, quote};
use uarch_obs::ledger::{
    AuditRecord, CalibRecord, JobRecord, LedgerRecord, PlanRecord, Provenance, ReportRecord,
    RunHeader, WindowRecord,
};

#[test]
fn table7_baseline_reencodes_byte_for_byte() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/table7_baseline.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("committed baseline ledger");
    let mut kinds = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let record = LedgerRecord::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(record.to_json_line(), line, "line {}", i + 1);
        kinds.insert(line.split('"').nth(3).expect("kind first").to_string());
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["audit", "job", "run"],
        "the baseline exercises every kind the table7 gate writes"
    );
}

/// Strings that need escaping, plus multi-byte text.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| match b % 6 {
                0 => '"',
                1 => '\\',
                2 => 'é',
                _ => char::from(b'a' + b % 26),
            })
            .collect()
    })
}

fn arb_map() -> impl Strategy<Value = BTreeMap<String, i64>> {
    proptest::collection::vec((arb_text(), any::<i32>()), 0..4)
        .prop_map(|entries| entries.into_iter().map(|(k, v)| (k, v.into())).collect())
}

/// One record of any kind; the trace id is sometimes empty, so the
/// member is sometimes off the wire.
fn arb_record() -> impl Strategy<Value = LedgerRecord> {
    (
        0u8..7,
        proptest::collection::vec(any::<u32>(), 13),
        proptest::collection::vec(arb_text(), 4),
        arb_map(),
        arb_map(),
    )
        .prop_map(|(kind, n, s, a, b)| {
            let n = |i: usize| u64::from(n[i]);
            let s = |i: usize| s[i].clone();
            let counts = |m: &BTreeMap<String, i64>| {
                m.iter()
                    .map(|(k, v)| (k.clone(), v.unsigned_abs()))
                    .collect()
            };
            match kind {
                0 => LedgerRecord::Run(RunHeader {
                    run: n(0),
                    ctx: s(0),
                    queries: n(1),
                    threads: n(2),
                    insts: n(3),
                    ts_ms: n(4),
                    trace: s(3),
                }),
                1 => LedgerRecord::Job(JobRecord {
                    run: n(0),
                    set: s(0),
                    provenance: [Provenance::Computed, Provenance::Memory, Provenance::Disk]
                        [n(1) as usize % 3],
                    cycles: n(2),
                    wall_us: n(3),
                    hash: s(1),
                    stalls: counts(&a),
                    trace: s(3),
                }),
                2 => LedgerRecord::Calib(CalibRecord {
                    sim_ctx: s(0),
                    graph_ctx: s(1),
                    set: s(2),
                    graph_cost: n(0) as i64 - n(1) as i64,
                    sim_cost: n(2) as i64 - n(3) as i64,
                }),
                3 => LedgerRecord::Plan(PlanRecord {
                    run: n(0),
                    query: s(0),
                    backend: s(1),
                    confidence_pm: n(1) % 1001,
                    reason: s(2),
                    trace: s(3),
                }),
                4 => LedgerRecord::Window(WindowRecord {
                    run: n(0),
                    window: n(1),
                    start: n(2),
                    end: n(3),
                    baseline: n(4),
                    lag: n(5),
                    eval_us: n(6),
                    costs: a,
                    pairs: b,
                    trace: s(3),
                }),
                5 => LedgerRecord::Report(ReportRecord {
                    run: n(0),
                    queries: n(1),
                    jobs: n(2),
                    deduped: n(3),
                    cache_hits: n(4),
                    disk_hits: n(5),
                    sims_run: n(6),
                    cycles: n(7),
                    insts: n(8),
                    threads: n(9),
                    expand_us: n(10),
                    sim_us: n(11),
                    skipped: n(12),
                    trace: s(3),
                }),
                _ => LedgerRecord::Audit(AuditRecord {
                    run: n(0),
                    scope: s(0),
                    baseline: n(1),
                    tolerance_pm: n(2) % 1001,
                    score_pm: n(3) % 1001,
                    confirmed: n(4) % 9,
                    refuted: n(5) % 9,
                    unmodeled: n(6) % 9,
                    verdict: s(1),
                    attributed: a.clone(),
                    counters: b,
                    divergence: a,
                    evidence: s(2),
                    trace: s(3),
                }),
            }
        })
}

/// Stale values a duplicate member may hold before the one that wins:
/// wrong types, a fraction, and plausible strings and maps.
const STALE: [&str; 6] = ["null", "-1.5", "\"run\"", "{\"x\":[]}", "[true]", "7"];

/// `line` with its members permuted by `order`, `kind` moved last, and
/// every member preceded by a stale duplicate of itself.
fn reordered(line: &str, order: &[u32]) -> String {
    let doc = json::parse(line).expect("the encoder writes JSON");
    let members = doc.as_obj().expect("an object");
    let mut rest: Vec<(u32, &String)> = members
        .keys()
        .filter(|k| *k != "kind")
        .zip(order)
        .map(|(k, &o)| (o, k))
        .collect();
    rest.sort();
    let mut keys: Vec<&String> = rest.into_iter().map(|(_, k)| k).collect();
    keys.push(members.get_key_value("kind").expect("a kind").0);
    let mut out = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let stale = STALE[order[i % order.len()] as usize % STALE.len()];
        out.push(format!("{}:{stale}", quote(key)));
        out.push(format!("{}:{}", quote(key), members[key].render()));
    }
    format!("{{{}}}", out.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn members_decode_in_any_order_and_the_last_duplicate_wins(
        record in arb_record(),
        order in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let line = reordered(&record.to_json_line(), &order);
        prop_assert_eq!(LedgerRecord::parse(&line).expect("parses"), record);
    }
}
