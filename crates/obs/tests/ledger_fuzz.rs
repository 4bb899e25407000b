//! The ledger parser is a trust boundary: `icost-obs` reads ledger files
//! it did not write, and `watch` tails them while another process is
//! still appending. Whatever a line holds — random bytes, a record cut
//! off at any byte, a valid record with one byte flipped —
//! `LedgerRecord::parse`, `parse_ledger` and `parse_ledger_lenient` must
//! return `Ok` or `Err`, never panic, and never hold more heap than a
//! fixed multiple of the input's length.
//!
//! Memory is measured, not inferred: this test binary counts the bytes
//! each thread has live through a wrapping global allocator, and every
//! parse records its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use proptest::prelude::*;
use uarch_obs::ledger::{
    parse_ledger, parse_ledger_lenient, AuditRecord, CalibRecord, JobRecord, LedgerRecord,
    PlanRecord, Provenance, ReportRecord, RunHeader, WindowRecord,
};

/// Forwards to the system allocator, tracking this thread's live bytes
/// and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping only touches const-initialized thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap a parse may hold per input byte. The parser builds no tree: it
/// reads each member into one `Slot` (a string, an integer, or an
/// object's name→integer map) and skips everything else, so nesting
/// costs nothing and its densest input is a long object member, whose
/// map holds one entry per key (measured at most ~8.3 bytes per input
/// byte). 16 bytes per byte covers that with room for the decoded
/// record.
const BYTES_PER_INPUT_BYTE: usize = 16;

/// Heap any parse may hold regardless of input length: error messages,
/// one record's maps and the result vector's first allocation.
const FIXED_ALLOWANCE: usize = 16 << 10;

/// The heap bound for a `len`-byte input.
fn allowance(len: usize) -> usize {
    FIXED_ALLOWANCE + BYTES_PER_INPUT_BYTE * len
}

/// Run `f` and return its result with the peak bytes it held beyond
/// what was live before it (its result included).
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get) - start;
    (out, peak.max(0) as usize)
}

/// Which parser entry point an input goes through.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Line,
    Strict,
    Lenient,
}

/// Parse `text` through `entry`; fails the case when the parse holds
/// more heap than [`allowance`]. Returns whether it succeeded.
fn parse_bounded(entry: Entry, text: &str) -> Result<bool, TestCaseError> {
    let (ok, peak) = measured(|| match entry {
        Entry::Line => LedgerRecord::parse(text).is_ok(),
        Entry::Strict => parse_ledger(text).is_ok(),
        Entry::Lenient => parse_ledger_lenient(text).is_ok(),
    });
    prop_assert!(
        peak <= allowance(text.len()),
        "{:?} held {} bytes for a {}-byte input",
        entry,
        peak,
        text.len()
    );
    Ok(ok)
}

/// Send `text` through every entry point.
fn parse_all(text: &str) -> Result<[bool; 3], TestCaseError> {
    Ok([
        parse_bounded(Entry::Line, text)?,
        parse_bounded(Entry::Strict, text)?,
        parse_bounded(Entry::Lenient, text)?,
    ])
}

fn map(entries: &[(&str, i64)]) -> BTreeMap<String, i64> {
    entries.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// One valid record of every kind, with strings that need escaping and
/// non-ASCII text so cuts and flips land inside escapes and multi-byte
/// characters too.
fn samples() -> Vec<LedgerRecord> {
    let trace = "00000000000c0ffe".to_string();
    vec![
        LedgerRecord::Run(RunHeader {
            run: 7,
            ctx: "9f2c4e10aa01b3d7".into(),
            queries: 37,
            threads: 2,
            insts: 20_000,
            ts_ms: 1_760_000_000_000,
            trace: trace.clone(),
        }),
        LedgerRecord::Job(JobRecord {
            run: 7,
            set: "dmiss+win".into(),
            provenance: Provenance::Computed,
            cycles: 51_234,
            wall_us: 812,
            hash: "a1b2c3d4e5f60718".into(),
            stalls: [("rob_full".to_string(), 120), ("fetch".to_string(), 3)].into(),
            trace: trace.clone(),
        }),
        LedgerRecord::Calib(CalibRecord {
            sim_ctx: "9f2c4e10aa01b3d7".into(),
            graph_ctx: "graph:9f2c".into(),
            set: "dl1+bmisp".into(),
            graph_cost: -12,
            sim_cost: 40,
        }),
        LedgerRecord::Plan(PlanRecord {
            run: 8,
            query: "icost(dmiss+win)".into(),
            backend: "graph".into(),
            confidence_pm: 930,
            reason: "calibrated \"near\" zero\n".into(),
            trace: trace.clone(),
        }),
        LedgerRecord::Window(WindowRecord {
            run: 9,
            window: 3,
            start: 3072,
            end: 4096,
            baseline: 2210,
            lag: 256,
            eval_us: 310,
            costs: map(&[("dmiss", 400), ("win", -3), ("bmisp", 0)]),
            pairs: map(&[("dmiss+win", -120), ("bmisp+dl1", 7)]),
            trace: trace.clone(),
        }),
        LedgerRecord::Report(ReportRecord {
            run: 10,
            queries: 4,
            jobs: 12,
            deduped: 3,
            cache_hits: 5,
            disk_hits: 1,
            sims_run: 3,
            cycles: 150_000,
            insts: 60_000,
            threads: 2,
            expand_us: 14,
            sim_us: 2_400,
            skipped: 90_000,
            trace: trace.clone(),
        }),
        LedgerRecord::Audit(AuditRecord {
            run: 11,
            scope: "window 3 — café ✓".into(),
            baseline: 2210,
            tolerance_pm: 150,
            score_pm: 80,
            confirmed: 5,
            refuted: 1,
            unmodeled: 2,
            verdict: "refuted".into(),
            attributed: map(&[("dmiss", 380), ("win", 12)]),
            counters: map(&[("dmiss", 300)]),
            divergence: map(&[("dmiss", 61)]),
            evidence: "dmiss: \\ attributed 62%, counters 49%\t".into(),
            trace,
        }),
    ]
}

/// Every sample as one JSONL line.
fn sample_lines() -> Vec<String> {
    samples().iter().map(LedgerRecord::to_json_line).collect()
}

#[test]
fn samples_cover_every_kind_and_parse_back() {
    let records = samples();
    let kinds: std::collections::HashSet<_> = records.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 7, "one sample per record kind");
    let doc: String = sample_lines().iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(parse_ledger(&doc).expect("valid document"), records);
}

#[test]
fn every_truncation_of_every_kind_fails_cleanly() {
    for line in sample_lines() {
        let bytes = line.as_bytes();
        for cut in 0..bytes.len() {
            let text = String::from_utf8_lossy(&bytes[..cut]);
            // A strict prefix of a record is never a whole JSON object;
            // an empty one is an empty document.
            let [one, strict, lenient] = parse_all(&text).expect("bounded");
            assert!(!one, "a record cut at {cut} parsed: {text}");
            assert_eq!(
                (strict, lenient),
                (cut == 0, cut == 0),
                "cut at {cut}: {text}"
            );
        }
    }
}

#[test]
fn a_document_cut_anywhere_parses_only_at_line_ends() {
    let doc: String = sample_lines().iter().map(|l| format!("{l}\n")).collect();
    let bytes = doc.as_bytes();
    for cut in 0..=bytes.len() {
        let text = String::from_utf8_lossy(&bytes[..cut]);
        let [_, strict, lenient] = parse_all(&text).expect("bounded");
        // The prefix parses exactly when its last line is whole: it ends
        // at a newline, or just before one.
        let whole = cut == 0 || bytes[cut - 1] == b'\n' || bytes.get(cut) == Some(&b'\n');
        assert_eq!(strict, whole, "document cut at {cut}");
        assert_eq!(lenient, whole, "document cut at {cut}");
    }
}

#[test]
fn dense_nesting_stays_within_the_heap_bound() {
    // The allocation-densest shapes the tree parser accepts, at its
    // nesting cap: each level is one map leaf or one vector.
    let objects = format!("{}0{}", "{\"\":".repeat(512), "}".repeat(512));
    let arrays = format!("{}{}", "[".repeat(512), "]".repeat(512));
    let mixed = format!("{}{}", "[{\"\":".repeat(256), "}]".repeat(256));
    let wide = format!("[{}]", vec!["{\"\":0}"; 4096].join(","));
    for text in [objects, arrays, mixed, wide] {
        parse_all(&text).expect("bounded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_cleanly(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        // Mostly-valid prefixes reach the per-kind field decoders.
        prefix in 0usize..9,
    ) {
        let kinds = ["run", "job", "calib", "plan", "window", "report", "audit"];
        let head = match prefix {
            0 => String::new(),
            1 => "{\"kind\":".to_string(),
            k => format!("{{\"kind\":\"{}\",", kinds[k - 2]),
        };
        let text = head + &String::from_utf8_lossy(&bytes);
        parse_all(&text)?;
        // The same bytes as a multi-line document, split at newlines.
        parse_all(&text.replace(',', "\n"))?;
    }

    #[test]
    fn flipped_bytes_parse_or_fail_cleanly(
        kind in 0usize..7,
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = sample_lines()[kind].clone().into_bytes();
        for (at, b) in &flips {
            let at = *at as usize % bytes.len();
            bytes[at] = *b;
        }
        let text = String::from_utf8_lossy(&bytes);
        let [one, strict, lenient] = parse_all(&text)?;
        // While it stays one line, the document parsers agree with the
        // line parser, except that lenient parsing skips a renamed kind.
        if !text.contains('\n') && !text.trim().is_empty() {
            prop_assert_eq!(strict, one);
            prop_assert!(lenient || !one);
        }
    }
}

/// Replacement member values: every JSON type, and numbers a cast would
/// silently round, saturate or wrap.
const VALUES: [&str; 13] = [
    "null",
    "true",
    "-1",
    "1e400",
    "-1e400",
    "18446744073709551616",
    "0.5",
    "\"\"",
    "[]",
    "{}",
    "{\"a\":null}",
    "[1,\"x\"]",
    "\"\\ud800\"",
];

/// Whether a record accepts `value` in member `key`, whose sample value
/// is `sample`: counts must be exact non-negative integers (costs may be
/// negative), strings strings, maps maps of integers. Only the optional
/// `trace` tolerates any valid JSON.
fn accepts(key: &str, sample: &uarch_obs::json::Value, value: &str) -> bool {
    use uarch_obs::json::Value;
    match sample {
        _ if uarch_obs::json::parse(value).is_err() => false,
        _ if key == "trace" => true,
        Value::Str(_) => value == "\"\"" && key != "kind" && key != "provenance",
        Value::Num(_) => value == "-1" && key.ends_with("_cost"),
        Value::Obj(_) => value == "{}",
        _ => unreachable!("ledger members are strings, numbers or maps"),
    }
}

#[test]
fn every_member_rejects_values_of_the_wrong_type() {
    for line in sample_lines() {
        let doc = uarch_obs::json::parse(&line).expect("sample is JSON");
        let members = doc.as_obj().expect("object");
        for key in members.keys() {
            for value in VALUES {
                let text: Vec<String> = members
                    .iter()
                    .map(|(k, v)| {
                        let v = if k == key {
                            value.to_string()
                        } else {
                            v.render()
                        };
                        format!("{}:{v}", uarch_obs::json::quote(k))
                    })
                    .collect();
                let text = format!("{{{}}}", text.join(","));
                let [one, strict, lenient] = parse_all(&text).expect("bounded");
                let want = accepts(key, &members[key], value);
                // Lenient parsing skips a line whose kind is an unknown
                // string instead of failing.
                let skipped = key == "kind" && value == "\"\"";
                assert_eq!(one, want, "{key} = {value} in {line}");
                assert_eq!(
                    (strict, lenient),
                    (want, want || skipped),
                    "{key} = {value}"
                );
            }
        }
    }
}
