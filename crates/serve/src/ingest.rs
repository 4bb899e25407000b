//! `POST /ingest`: live streaming trace ingestion.
//!
//! Each ingest *session* wraps one [`StreamingBuilder`]: clients POST
//! chunked JSON instruction batches bound to a session id, the builder
//! retires full windows as they accumulate, and every retired window
//! becomes a `window` record appended to the global run ledger — which
//! is exactly what `GET /events` fans out live and `icost-obs watch`
//! renders. Sessions that go quiet for [`IDLE_EVICT`] are flushed
//! (their partial window retires) and dropped, so an abandoned client
//! cannot pin a window of instructions forever.
//!
//! Concurrency model: two levels of lock. The *table* lock guards only
//! the id → session map: lookup, insert, the [`MAX_SESSIONS`] cap,
//! removal and the `ingest.sessions` gauge. Each session sits behind
//! its own `Arc<Mutex<_>>`, and everything slow — appending a batch,
//! retiring windows (a cold simulation, a graph build and one lattice
//! pass each), emitting their ledger and audit records, and the
//! `done: true` tail flush — runs under that session lock only, so
//! independent streams retire windows in parallel.
//!
//! Lock order: a thread holding the table lock never blocks on a
//! session lock. A request clones its session's `Arc` and releases the
//! table before locking the session; eviction only `try_lock`s, and
//! skips any session whose `Arc` a request holds. A session is marked
//! closed before it leaves the table, and a request that finds its
//! session closed looks the id up again, so a batch racing a close
//! opens a fresh session instead of landing in the retired builder.
//!
//! Ordering: a session's window and audit records are appended under
//! its lock, so they reach the ledger in retirement order. Records of
//! different sessions may interleave. Resident memory is bounded per
//! session — at most one window plus one batch of instructions — so
//! the bound across sessions stays additive; concurrency only adds that
//! several retirements' simulation and lattice scratch can be live at
//! once, one per session retiring.
//!
//! Request body:
//!
//! ```json
//! {"session": "cli-7",
//!  "window": 256,
//!  "insts": [{"pc": 16384, "op": "ld", "dst": "r1", "srcs": ["r2"],
//!             "mem": 4096, "taken": false, "next_pc": 16388}],
//!  "done": false}
//! ```
//!
//! `window` is honored only when the session is created (bounded to
//! [`MAX_WINDOW`]); `insts` may be empty; `done: true` flushes the
//! trailing partial window and closes the session. Bodies are decoded
//! straight into instructions by a pull decoder over
//! [`json::Reader`], with no intermediate tree, before any lock is
//! taken.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use uarch_audit::{audit_attribution, AuditConfig, AuditMetrics};
use uarch_graph::{StreamingBuilder, DEFAULT_WINDOW};
use uarch_obs::json::{self, Kind, Reader};
use uarch_obs::ledger::{LedgerRecord, WindowRecord};
use uarch_obs::{Counter, Gauge, Histogram, Registry};
use uarch_trace::{Inst, MachineConfig, OpClass, Reg};

/// Cap on concurrently open ingest sessions.
pub const MAX_SESSIONS: usize = 64;

/// Cap on a session's retirement window, in instructions.
pub const MAX_WINDOW: usize = 65_536;

/// Cap on instructions per ingest request body.
pub const MAX_BATCH_INSTS: usize = 65_536;

/// Sessions idle longer than this are flushed and evicted.
pub const IDLE_EVICT: Duration = Duration::from_secs(120);

/// Bucket bounds for per-window lattice evaluation latency, in
/// microseconds.
const WINDOW_EVAL_US_BOUNDS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// One live streaming session.
#[derive(Debug)]
struct IngestSession {
    builder: StreamingBuilder,
    /// Ledger run id stamped on every window record this session emits;
    /// taken when the session accepts its first batch.
    run: Option<u64>,
    last_seen: Instant,
    /// Set under the session's lock just before it leaves the table; a
    /// request that acquires the lock afterwards looks its id up again.
    closed: bool,
}

/// A session-table entry: each session is locked on its own.
type Slot = Arc<Mutex<IngestSession>>;

/// The session table behind `POST /ingest`, plus the `ingest.*` /
/// `window.*` metrics `/metrics` renders for it.
#[derive(Debug)]
pub struct IngestSessions {
    config: MachineConfig,
    sessions: Mutex<HashMap<String, Slot>>,
    registry: Registry,
    sessions_gauge: Gauge,
    sessions_opened: Counter,
    sessions_evicted: Counter,
    batches: Counter,
    insts: Counter,
    window_evals: Counter,
    window_eval_us: Histogram,
    window_lag: Gauge,
    /// When set, every retired window is cross-validated against its
    /// baseline stall counters and the audit lands on the ledger right
    /// after the window record (see [`IngestSessions::with_audit`]).
    audit: Option<(AuditConfig, AuditMetrics)>,
}

/// What one ingest request did (rendered as the response JSON).
#[derive(Debug, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The session id the batch landed in.
    pub session: String,
    /// Instructions the session has ingested in total.
    pub ingested: u64,
    /// Windows the session has retired in total.
    pub windows: u64,
    /// Instructions ingested but not yet covered by a retired window.
    pub pending: u64,
    /// Whether this request closed the session.
    pub done: bool,
}

impl IngestOutcome {
    /// The `POST /ingest` response body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"session\":{},\"ingested\":{},\"windows\":{},\"pending\":{},\"done\":{}}}\n",
            json::quote(&self.session),
            self.ingested,
            self.windows,
            self.pending,
            self.done,
        )
    }
}

impl IngestSessions {
    /// An empty session table for streams simulated under `config`
    /// (the served machine — streamed windows are analyzed on the same
    /// machine the batch endpoints serve).
    pub fn new(config: MachineConfig) -> IngestSessions {
        let registry = Registry::new();
        IngestSessions {
            sessions_gauge: registry.gauge("ingest.sessions"),
            sessions_opened: registry.counter("ingest.sessions_opened"),
            sessions_evicted: registry.counter("ingest.sessions_evicted"),
            batches: registry.counter("ingest.batches"),
            insts: registry.counter("ingest.insts"),
            window_evals: registry.counter("window.evals"),
            window_eval_us: registry.histogram("window.eval_us", &WINDOW_EVAL_US_BOUNDS),
            window_lag: registry.gauge("window.lag"),
            registry,
            config,
            sessions: Mutex::new(HashMap::new()),
            audit: None,
        }
    }

    /// Audit every retired window under `cfg`, counting outcomes in
    /// `metrics` (cloned handles — bind them into whatever registry
    /// should render the `audit.*` families, so streamed-window audits
    /// and `/explain` audits share one running refuted-rate).
    pub fn with_audit(mut self, cfg: AuditConfig, metrics: AuditMetrics) -> IngestSessions {
        self.audit = Some((cfg, metrics));
        self
    }

    /// The `ingest.*` / `window.*` registry.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Currently open sessions.
    pub fn active(&self) -> usize {
        self.sessions.lock().expect("ingest table lock").len()
    }

    /// Flush and drop every session idle longer than `max_idle`;
    /// returns how many were evicted. Partial windows retire on the way
    /// out, so a vanished client's tail still reaches the ledger.
    ///
    /// A session with a request in flight is never idle: requests clone
    /// a session's `Arc` only under the table lock, so a count above the
    /// table's own reference means one holds it. Stale entries leave the
    /// table under its lock; their tails flush after it is released.
    pub fn evict_idle(&self, max_idle: Duration) -> usize {
        let now = Instant::now();
        let mut evicted = Vec::new();
        {
            let mut sessions = self.sessions.lock().expect("ingest table lock");
            sessions.retain(|_, slot| {
                if Arc::strong_count(slot) > 1 {
                    return true;
                }
                let Ok(mut session) = slot.try_lock() else {
                    return true;
                };
                if now.duration_since(session.last_seen) < max_idle {
                    return true;
                }
                session.closed = true;
                drop(session);
                evicted.push(Arc::clone(slot));
                false
            });
            self.sessions_gauge.set(sessions.len() as i64);
        }
        for slot in &evicted {
            let mut session = slot.lock().expect("ingest session lock");
            if let (Some(run), Some(tail)) = (session.run, session.builder.finish()) {
                self.emit_window(run, &tail);
            }
        }
        self.sessions_evicted.add(evicted.len() as u64);
        evicted.len()
    }

    /// Handle one `POST /ingest` body end to end: evict idle sessions,
    /// parse the batch, feed the session's builder, and append every
    /// retired window to the global ledger. Returns a client-error
    /// message (HTTP 400) on malformed bodies or broken dynamic paths;
    /// a rejected batch changes nothing, and a session whose first
    /// batch is rejected is not opened.
    pub fn handle(&self, body: &[u8]) -> Result<IngestOutcome, String> {
        self.evict_idle(IDLE_EVICT);
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let batch = parse_ingest_body(text)?;
        self.batches.inc();
        let outcome = loop {
            let slot = self.slot(&batch)?;
            let mut session = slot.lock().expect("ingest session lock");
            if !session.closed {
                break self.apply(&batch, &slot, &mut session)?;
            }
        };
        let _ = uarch_obs::ledger::global().flush();
        Ok(outcome)
    }

    /// The session `batch` is bound to, created with the batch's window
    /// if the id is new. Holds only the table lock.
    fn slot(&self, batch: &IngestBatch) -> Result<Slot, String> {
        let mut sessions = self.sessions.lock().expect("ingest table lock");
        if let Some(slot) = sessions.get(&batch.session) {
            return Ok(Arc::clone(slot));
        }
        if sessions.len() >= MAX_SESSIONS {
            return Err(format!("too many ingest sessions (max {MAX_SESSIONS})"));
        }
        let slot = Arc::new(Mutex::new(IngestSession {
            builder: StreamingBuilder::new(&self.config, batch.window.unwrap_or(DEFAULT_WINDOW)),
            run: None,
            last_seen: Instant::now(),
            closed: false,
        }));
        sessions.insert(batch.session.clone(), Arc::clone(&slot));
        self.sessions_gauge.set(sessions.len() as i64);
        Ok(slot)
    }

    /// Feed `batch` to its locked, open session and emit what retires.
    fn apply(
        &self,
        batch: &IngestBatch,
        slot: &Slot,
        session: &mut IngestSession,
    ) -> Result<IngestOutcome, String> {
        session.last_seen = Instant::now();
        let retired = match session.builder.push_batch(&batch.insts) {
            Ok(retired) => retired,
            Err(e) => {
                if session.run.is_none() {
                    self.close(&batch.session, slot, session);
                }
                return Err(e);
            }
        };
        let run = *session.run.get_or_insert_with(|| {
            self.sessions_opened.inc();
            uarch_obs::ledger::global().next_run_id()
        });
        self.insts.add(batch.insts.len() as u64);
        for window in &retired {
            self.emit_window(run, window);
        }
        if batch.done {
            if let Some(tail) = session.builder.finish() {
                self.emit_window(run, &tail);
            }
            self.close(&batch.session, slot, session);
        }
        Ok(IngestOutcome {
            session: batch.session.clone(),
            ingested: session.builder.ingested(),
            windows: session.builder.windows_emitted(),
            pending: session.builder.frontier_lag(),
            done: batch.done,
        })
    }

    /// Mark the locked `session` closed and take it out of the table.
    /// Taking the table lock under a session lock is the permitted
    /// order: no table-lock holder ever blocks on a session.
    fn close(&self, id: &str, slot: &Slot, session: &mut IngestSession) {
        session.closed = true;
        let mut sessions = self.sessions.lock().expect("ingest table lock");
        if sessions.get(id).is_some_and(|s| Arc::ptr_eq(s, slot)) {
            sessions.remove(id);
        }
        self.sessions_gauge.set(sessions.len() as i64);
    }

    /// Append one retired window to the global ledger and record its
    /// metrics. The record's name maps are built only when the ledger
    /// would deliver it: this runs under the session's lock.
    fn emit_window(&self, run: u64, window: &uarch_graph::WindowBreakdown) {
        let ledger = uarch_obs::ledger::global();
        if ledger.wants_records() {
            ledger.append(&LedgerRecord::Window(WindowRecord {
                run,
                window: window.window,
                start: window.start,
                end: window.end,
                baseline: window.baseline,
                lag: window.frontier_lag,
                eval_us: window.eval_us,
                costs: window.costs_by_name(),
                pairs: window.pairs_by_name(),
                // Stamped by Ledger::append from the causal context.
                trace: String::new(),
            }));
        }
        self.window_evals.inc();
        self.window_eval_us.record(window.eval_us);
        self.window_lag.set(window.frontier_lag as i64);
        if let Some((cfg, metrics)) = &self.audit {
            let audit = audit_attribution(
                &format!("window {}", window.window),
                window.baseline,
                &window.costs,
                &window.all_pairs,
                &window.stalls,
                cfg,
            );
            let record = audit.to_record(run);
            metrics.observe(&record);
            ledger.append(&LedgerRecord::Audit(record));
        }
    }
}

/// One parsed ingest request body.
#[derive(Debug, PartialEq)]
struct IngestBatch {
    session: String,
    window: Option<usize>,
    insts: Vec<Inst>,
    done: bool,
}

/// Decode one `POST /ingest` body. The whole body is read first, so a
/// syntax error anywhere (`invalid JSON: …`) wins over any semantic
/// one; semantic errors then come in field order, exactly as if the
/// body had been parsed to a tree and picked apart.
fn parse_ingest_body(text: &str) -> Result<IngestBatch, String> {
    let body = BodyFields::read(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let session = body
        .session
        .as_ref()
        .and_then(Scalar::as_str)
        .ok_or("missing \"session\" string")?;
    if session.is_empty() || session.len() > 128 {
        return Err("\"session\" must be 1..=128 characters".into());
    }
    let window = match &body.window {
        None => None,
        Some(v) => {
            let w = v
                .as_u64()
                .ok_or("\"window\" must be a non-negative integer")? as usize;
            if w == 0 || w > MAX_WINDOW {
                return Err(format!("\"window\" must be in 1..={MAX_WINDOW}"));
            }
            Some(w)
        }
    };
    let done = match &body.done {
        None => false,
        Some(Scalar::Bool(b)) => *b,
        Some(_) => return Err("\"done\" must be a boolean".into()),
    };
    let insts = body.insts.unwrap_or(Ok(Vec::new()))?;
    Ok(IngestBatch {
        session: session.to_string(),
        window,
        insts,
        done,
    })
}

/// A JSON value read into a field slot, before validation. Arrays and
/// objects (never valid in a scalar slot) are only syntax-checked.
#[derive(Debug)]
enum Scalar<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Other,
}

impl<'a> Scalar<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Scalar<'a>, String> {
        Ok(match r.peek_kind()? {
            Kind::Null => {
                r.null()?;
                Scalar::Null
            }
            Kind::Bool => Scalar::Bool(r.bool()?),
            Kind::Num => Scalar::Num(r.number()?),
            Kind::Str => Scalar::Str(r.string()?),
            Kind::Arr | Kind::Obj => {
                r.skip()?;
                Scalar::Other
            }
        })
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact u64 from a JSON number: rejects negatives, fractions, and
    /// anything past f64's 2^53 integer precision.
    fn as_u64(&self) -> Option<u64> {
        match *self {
            Scalar::Num(n) => {
                (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as u64)
            }
            _ => None,
        }
    }
}

/// An ingest body's top-level members as read; a later duplicate key
/// replaces an earlier one.
#[derive(Debug, Default)]
struct BodyFields<'a> {
    session: Option<Scalar<'a>>,
    window: Option<Scalar<'a>>,
    done: Option<Scalar<'a>>,
    /// The decoded instructions, or the first semantic error in them.
    insts: Option<Result<Vec<Inst>, String>>,
}

impl<'a> BodyFields<'a> {
    /// Read the whole document; only a syntax error fails. A document
    /// that is not an object has no members.
    fn read(text: &'a str) -> Result<BodyFields<'a>, String> {
        let mut body = BodyFields::default();
        let mut r = Reader::new(text);
        if r.peek_kind()? == Kind::Obj {
            r.object(|r, key| {
                match &*key {
                    "session" => body.session = Some(Scalar::read(r)?),
                    "window" => body.window = Some(Scalar::read(r)?),
                    "done" => body.done = Some(Scalar::read(r)?),
                    "insts" => body.insts = Some(read_insts(r)?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
        } else {
            r.skip()?;
        }
        r.finish()?;
        Ok(body)
    }
}

/// Read an `insts` value into instructions, or into its first semantic
/// error. The cap is enforced while reading: items past
/// [`MAX_BATCH_INSTS`], like items after an error, are only
/// syntax-checked, so no body allocates more than the cap.
fn read_insts(r: &mut Reader<'_>) -> Result<Result<Vec<Inst>, String>, String> {
    if r.peek_kind()? != Kind::Arr {
        r.skip()?;
        return Ok(Err("\"insts\" must be an array".into()));
    }
    let mut insts = Ok(Vec::new());
    let mut n = 0;
    r.array(|r| {
        n += 1;
        if n == MAX_BATCH_INSTS + 1 {
            insts = Err(format!(
                "\"insts\" over the per-request cap ({MAX_BATCH_INSTS})"
            ));
        }
        match &mut insts {
            Ok(list) => match InstFields::read(r)?.inst() {
                Ok(inst) => list.push(inst),
                Err(e) => insts = Err(format!("insts[{}]: {e}", n - 1)),
            },
            Err(_) => r.skip()?,
        }
        Ok(())
    })?;
    Ok(insts)
}

/// One streamed instruction object's members as read (the shape
/// [`inst_to_json`] writes); a later duplicate key replaces an earlier
/// one.
#[derive(Debug, Default)]
struct InstFields<'a> {
    pc: Option<Scalar<'a>>,
    op: Option<Scalar<'a>>,
    next_pc: Option<Scalar<'a>>,
    dst: Option<Scalar<'a>>,
    srcs: Option<Srcs<'a>>,
    mem: Option<Scalar<'a>>,
    taken: Option<Scalar<'a>>,
}

/// A `srcs` value as read: an array's length and its first two items,
/// or something else.
#[derive(Debug)]
enum Srcs<'a> {
    NotArray,
    Items {
        len: usize,
        first: [Option<Scalar<'a>>; 2],
    },
}

impl<'a> InstFields<'a> {
    /// Read one `insts` item. An item that is not an object has no
    /// members.
    fn read(r: &mut Reader<'a>) -> Result<InstFields<'a>, String> {
        let mut f = InstFields::default();
        if r.peek_kind()? != Kind::Obj {
            r.skip()?;
            return Ok(f);
        }
        r.object(|r, key| {
            match &*key {
                "pc" => f.pc = Some(Scalar::read(r)?),
                "op" => f.op = Some(Scalar::read(r)?),
                "next_pc" => f.next_pc = Some(Scalar::read(r)?),
                "dst" => f.dst = Some(Scalar::read(r)?),
                "srcs" => f.srcs = Some(Srcs::read(r)?),
                "mem" => f.mem = Some(Scalar::read(r)?),
                "taken" => f.taken = Some(Scalar::read(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(f)
    }

    /// Validate the members into an instruction, checking fields in a
    /// fixed order so the first error is deterministic.
    fn inst(&self) -> Result<Inst, String> {
        let pc = self
            .pc
            .as_ref()
            .and_then(Scalar::as_u64)
            .ok_or("missing \"pc\" integer")?;
        let op = self
            .op
            .as_ref()
            .and_then(Scalar::as_str)
            .ok_or("missing \"op\" mnemonic")?;
        let op = OpClass::from_mnemonic(op).ok_or_else(|| format!("unknown op mnemonic {op:?}"))?;
        let next_pc = self
            .next_pc
            .as_ref()
            .and_then(Scalar::as_u64)
            .ok_or("missing \"next_pc\" integer")?;
        let dst = match &self.dst {
            None | Some(Scalar::Null) => None,
            Some(v) => {
                let name = v.as_str().ok_or("\"dst\" must be a register string")?;
                Some(parse_reg(name)?)
            }
        };
        let mut srcs = [None, None];
        match &self.srcs {
            None => {}
            Some(Srcs::NotArray) => return Err("\"srcs\" must be an array".into()),
            Some(Srcs::Items { len, .. }) if *len > 2 => {
                return Err("\"srcs\" holds at most two registers".into())
            }
            Some(Srcs::Items { first, .. }) => {
                for (slot, name) in srcs.iter_mut().zip(first.iter().flatten()) {
                    let name = name.as_str().ok_or("\"srcs\" entries must be strings")?;
                    *slot = Some(parse_reg(name)?);
                }
            }
        }
        let mem_addr = match &self.mem {
            None => 0,
            Some(v) => v.as_u64().ok_or("\"mem\" must be a non-negative integer")?,
        };
        let taken = match &self.taken {
            None => op.is_branch() && !op.is_cond_branch(),
            Some(Scalar::Bool(b)) => *b,
            Some(_) => return Err("\"taken\" must be a boolean".into()),
        };
        Ok(Inst {
            pc,
            op,
            srcs,
            dst,
            mem_addr,
            taken,
            next_pc,
        })
    }
}

impl<'a> Srcs<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Srcs<'a>, String> {
        if r.peek_kind()? != Kind::Arr {
            r.skip()?;
            return Ok(Srcs::NotArray);
        }
        let mut len = 0;
        let mut first = [None, None];
        r.array(|r| {
            match first.get_mut(len) {
                Some(slot) => *slot = Some(Scalar::read(r)?),
                None => r.skip()?,
            }
            len += 1;
            Ok(())
        })?;
        Ok(Srcs::Items { len, first })
    }
}

/// Parse the `Reg` display form (`r5` / `f3`) back to a register.
fn parse_reg(name: &str) -> Result<Reg, String> {
    let (kind, index) = name.split_at(name.len().min(1));
    let n: u8 = index
        .parse()
        .map_err(|_| format!("bad register {name:?}"))?;
    if n >= 32 {
        return Err(format!("register index {n} out of range in {name:?}"));
    }
    match kind {
        "r" => Ok(Reg::int(n)),
        "f" => Ok(Reg::fp(n)),
        _ => Err(format!("bad register {name:?} (want rN or fN)")),
    }
}

/// Serialize `inst` as one ingest-wire JSON object — the encoder half
/// of the `POST /ingest` decoder, for streaming producers and tests.
/// Mnemonics and register names never need escaping, so the object is
/// written into one buffer without quoting passes.
pub fn inst_to_json(inst: &Inst) -> String {
    let mut out = String::with_capacity(112);
    let _ = write!(out, "{{\"pc\":{},\"op\":\"{}\"", inst.pc, inst.op);
    if let Some(dst) = inst.dst {
        let _ = write!(out, ",\"dst\":\"{dst}\"");
    }
    let mut srcs = inst.srcs.iter().flatten();
    if let Some(first) = srcs.next() {
        let _ = write!(out, ",\"srcs\":[\"{first}\"");
        for src in srcs {
            let _ = write!(out, ",\"{src}\"");
        }
        out.push(']');
    }
    if inst.op.is_mem() {
        let _ = write!(out, ",\"mem\":{}", inst.mem_addr);
    }
    let _ = write!(
        out,
        ",\"taken\":{},\"next_pc\":{}}}",
        inst.taken, inst.next_pc
    );
    out
}

#[cfg(test)]
mod decode_props;

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::TraceBuilder;

    /// A short connected trace to stream through a session.
    fn sample_insts(n: usize) -> Vec<Inst> {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        let r2 = Reg::int(2);
        b.counted_loop(n / 4 + 1, r2, |b, k| {
            b.load(r1, 0x4000 + (k as u64 % 7) * 64);
            b.alu(r2, &[r1]);
            b.store(r1, 0x9000 + (k as u64 % 5) * 8);
        });
        let mut insts = b.finish().insts().to_vec();
        insts.truncate(n);
        insts
    }

    fn body(session: &str, window: Option<usize>, insts: &[Inst], done: bool) -> String {
        let window = window.map_or(String::new(), |w| format!(",\"window\":{w}"));
        let insts: Vec<String> = insts.iter().map(inst_to_json).collect();
        format!(
            "{{\"session\":{}{window},\"insts\":[{}],\"done\":{done}}}",
            json::quote(session),
            insts.join(","),
        )
    }

    /// Decode one encoded instruction object through the production
    /// reader.
    fn decode_inst(text: &str) -> Result<Inst, String> {
        let mut r = Reader::new(text);
        let fields = InstFields::read(&mut r)?;
        r.finish()?;
        fields.inst()
    }

    #[test]
    fn instructions_roundtrip_through_the_wire_shape() {
        for inst in sample_insts(40) {
            let encoded = inst_to_json(&inst);
            json::parse(&encoded).expect("encoder emits valid JSON");
            assert_eq!(decode_inst(&encoded).expect("decodes"), inst, "{encoded}");
        }
    }

    /// One instruction per op class, covering `dst`, zero to two
    /// `srcs` (including a lone second source), `mem`, and both `taken`
    /// values.
    fn golden_insts() -> Vec<Inst> {
        let (r, f) = (Reg::int, Reg::fp);
        let inst = |pc: u64, op, dst, srcs, mem_addr, taken, next_pc| Inst {
            pc,
            op,
            srcs,
            dst,
            mem_addr,
            taken,
            next_pc,
        };
        vec![
            inst(
                0,
                OpClass::IntAlu,
                Some(r(1)),
                [Some(r(2)), Some(r(3))],
                0,
                false,
                4,
            ),
            inst(
                4,
                OpClass::IntMult,
                Some(r(4)),
                [Some(r(1)), None],
                0,
                false,
                8,
            ),
            inst(
                8,
                OpClass::FpAlu,
                Some(f(0)),
                [Some(f(1)), Some(f(31))],
                0,
                false,
                12,
            ),
            inst(
                12,
                OpClass::FpMult,
                Some(f(2)),
                [Some(f(0)), None],
                0,
                false,
                16,
            ),
            inst(
                16,
                OpClass::FpDiv,
                Some(f(3)),
                [Some(f(2)), Some(f(1))],
                0,
                false,
                20,
            ),
            inst(
                20,
                OpClass::Load,
                Some(r(5)),
                [Some(r(6)), None],
                65_536,
                false,
                24,
            ),
            inst(
                24,
                OpClass::Store,
                None,
                [Some(r(5)), Some(r(6))],
                1 << 53,
                false,
                28,
            ),
            inst(
                28,
                OpClass::CondBranch,
                None,
                [Some(r(1)), None],
                0,
                true,
                4,
            ),
            inst(
                4,
                OpClass::CondBranch,
                None,
                [Some(r(31)), Some(r(0))],
                0,
                false,
                8,
            ),
            inst(32, OpClass::Jump, None, [None, None], 0, true, 4096),
            inst(
                4096,
                OpClass::Call,
                Some(r(31)),
                [None, None],
                0,
                true,
                8192,
            ),
            inst(
                8192,
                OpClass::Return,
                None,
                [Some(r(31)), None],
                0,
                true,
                4100,
            ),
            inst(
                4100,
                OpClass::IndirectJump,
                None,
                [Some(r(7)), None],
                0,
                true,
                0,
            ),
            inst(
                u64::MAX,
                OpClass::Nop,
                None,
                [None, Some(r(9))],
                0,
                false,
                u64::MAX,
            ),
        ]
    }

    #[test]
    fn inst_to_json_has_golden_bytes() {
        let golden = [
            r#"{"pc":0,"op":"alu","dst":"r1","srcs":["r2","r3"],"taken":false,"next_pc":4}"#,
            r#"{"pc":4,"op":"mul","dst":"r4","srcs":["r1"],"taken":false,"next_pc":8}"#,
            r#"{"pc":8,"op":"fadd","dst":"f0","srcs":["f1","f31"],"taken":false,"next_pc":12}"#,
            r#"{"pc":12,"op":"fmul","dst":"f2","srcs":["f0"],"taken":false,"next_pc":16}"#,
            r#"{"pc":16,"op":"fdiv","dst":"f3","srcs":["f2","f1"],"taken":false,"next_pc":20}"#,
            r#"{"pc":20,"op":"ld","dst":"r5","srcs":["r6"],"mem":65536,"taken":false,"next_pc":24}"#,
            r#"{"pc":24,"op":"st","srcs":["r5","r6"],"mem":9007199254740992,"taken":false,"next_pc":28}"#,
            r#"{"pc":28,"op":"br","srcs":["r1"],"taken":true,"next_pc":4}"#,
            r#"{"pc":4,"op":"br","srcs":["r31","r0"],"taken":false,"next_pc":8}"#,
            r#"{"pc":32,"op":"jmp","taken":true,"next_pc":4096}"#,
            r#"{"pc":4096,"op":"call","dst":"r31","taken":true,"next_pc":8192}"#,
            r#"{"pc":8192,"op":"ret","srcs":["r31"],"taken":true,"next_pc":4100}"#,
            r#"{"pc":4100,"op":"ijmp","srcs":["r7"],"taken":true,"next_pc":0}"#,
            r#"{"pc":18446744073709551615,"op":"nop","srcs":["r9"],"taken":false,"next_pc":18446744073709551615}"#,
        ];
        let insts = golden_insts();
        assert_eq!(insts.len(), golden.len());
        let classes: std::collections::HashSet<OpClass> = insts.iter().map(|i| i.op).collect();
        assert_eq!(
            classes.len(),
            OpClass::ALL.len(),
            "every op class is pinned"
        );
        for (inst, want) in insts.iter().zip(golden) {
            assert_eq!(inst_to_json(inst), want);
            // Everything but the out-of-range nop decodes back as written
            // (a lone second source comes back first).
            if inst.pc <= 1 << 53 {
                assert_eq!(decode_inst(want).as_ref(), Ok(inst), "{want}");
            }
        }
    }

    #[test]
    fn over_cap_bodies_are_rejected_while_reading() {
        let table = IngestSessions::new(MachineConfig::table6());
        let items = |n: usize| vec!["{}"; n].join(",");
        let capped = format!(
            r#"{{"session":"cap","insts":[{}]}}"#,
            items(MAX_BATCH_INSTS + 1)
        );
        let err = table.handle(capped.as_bytes()).unwrap_err();
        assert!(err.contains("per-request cap"), "{err}");
        assert_eq!(table.active(), 0, "a rejected body opens no session");
        // At the cap itself the items are decoded, and the first bad one
        // is what fails.
        let at_cap = format!(
            r#"{{"session":"cap","insts":[{}]}}"#,
            items(MAX_BATCH_INSTS)
        );
        let err = table.handle(at_cap.as_bytes()).unwrap_err();
        assert_eq!(err, "insts[0]: missing \"pc\" integer");
        // Syntax still outranks the cap: the skipped tail is checked.
        let broken = capped.replace("]}", "]");
        let err = table.handle(broken.as_bytes()).unwrap_err();
        assert!(err.starts_with("invalid JSON:"), "{err}");
    }

    #[test]
    fn hostile_nesting_is_a_client_error() {
        // Well under the HTTP body cap, but deep enough to exhaust a
        // worker's stack if the reader recursed without limit.
        let table = IngestSessions::new(MachineConfig::table6());
        let body = format!(r#"{{"session":"deep","x":{}}}"#, "[".repeat(200_000));
        let err = table.handle(body.as_bytes()).unwrap_err();
        assert!(
            err.starts_with("invalid JSON:") && err.contains("nesting"),
            "{err}"
        );
    }

    #[test]
    fn sessions_ingest_retire_and_close() {
        let table = IngestSessions::new(MachineConfig::table6());
        let insts = sample_insts(100);
        let first = table
            .handle(body("s1", Some(32), &insts[..50], false).as_bytes())
            .expect("first batch");
        assert_eq!(
            (first.ingested, first.windows, first.pending, first.done),
            (50, 1, 18, false)
        );
        assert_eq!(table.active(), 1);
        let last = table
            .handle(body("s1", None, &insts[50..], true).as_bytes())
            .expect("final batch");
        // 100 = 3*32 + 4: done retires the 4-inst tail as window 3.
        assert_eq!(
            (last.ingested, last.windows, last.pending, last.done),
            (100, 4, 0, true)
        );
        assert_eq!(table.active(), 0, "done closes the session");
        let snap = table.metrics().snapshot();
        assert_eq!(snap.counter("ingest.insts"), 100);
        assert_eq!(snap.counter("window.evals"), 4);
        assert_eq!(snap.counter("ingest.sessions_opened"), 1);
        let outcome = last.to_json();
        let doc = json::parse(&outcome).expect("response is JSON");
        assert_eq!(doc.get("windows").and_then(json::Value::as_num), Some(4.0));
    }

    #[test]
    fn audited_sessions_emit_one_audit_per_retired_window() {
        let registry = Registry::new();
        let table = IngestSessions::new(MachineConfig::table6())
            .with_audit(AuditConfig::default(), AuditMetrics::bind(&registry));
        let sub = uarch_obs::ledger::global().subscribe(256);
        let insts = sample_insts(100);
        let outcome = table
            .handle(body("aud", Some(32), &insts, true).as_bytes())
            .expect("batch");
        // Other tests stream audited sessions through the same global
        // ledger: pick this session's run by its solo replay.
        let want = solo_records(&[&insts], 32, true);
        let runs = records_by_run(&sub);
        let ours = runs
            .values()
            .find(|got| **got == want)
            .expect("a run carries this session's windows and audits");
        let audits: Vec<&uarch_obs::ledger::AuditRecord> = ours
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Audit(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(
            audits.len() as u64,
            outcome.windows,
            "one audit per retired window"
        );
        for (i, a) in audits.iter().enumerate() {
            assert_eq!(a.scope, format!("window {i}"));
            assert!(!a.attributed.is_empty(), "audits are self-contained");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("audit.checks"), outcome.windows);
    }

    #[test]
    fn idle_sessions_are_flushed_and_evicted() {
        let table = IngestSessions::new(MachineConfig::table6());
        let insts = sample_insts(10);
        table
            .handle(body("stale", Some(64), &insts, false).as_bytes())
            .expect("opens");
        assert_eq!(table.active(), 1);
        assert_eq!(table.evict_idle(Duration::ZERO), 1);
        assert_eq!(table.active(), 0);
        let snap = table.metrics().snapshot();
        assert_eq!(snap.counter("ingest.sessions_evicted"), 1);
        // The partial window retired on the way out.
        assert_eq!(snap.counter("window.evals"), 1);
    }

    #[test]
    fn malformed_bodies_and_broken_paths_are_client_errors() {
        let table = IngestSessions::new(MachineConfig::table6());
        assert!(table
            .handle(b"not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(table
            .handle(br#"{"insts":[]}"#)
            .unwrap_err()
            .contains("session"));
        assert!(table
            .handle(br#"{"session":"x","window":0}"#)
            .unwrap_err()
            .contains("window"));
        let err = table
            .handle(br#"{"session":"x","insts":[{"pc":0,"op":"hcf","next_pc":4}]}"#)
            .unwrap_err();
        assert!(err.contains("insts[0]") && err.contains("hcf"), "{err}");
        let insts = sample_insts(8);
        table
            .handle(body("x", Some(64), &insts[..4], false).as_bytes())
            .expect("connected prefix");
        let err = table
            .handle(body("x", None, &insts[6..], false).as_bytes())
            .unwrap_err();
        assert!(err.contains("dynamic path"), "{err}");
        // The session survives a rejected batch at its old frontier.
        let resumed = table
            .handle(body("x", None, &insts[4..], true).as_bytes())
            .expect("resume");
        assert_eq!(resumed.ingested, 8);
    }

    #[test]
    fn a_rejected_batch_changes_nothing() {
        let table = IngestSessions::new(MachineConfig::table6());
        let insts = straight_insts(40, 0x1000);
        table
            .handle(body("rb", Some(16), &insts[..8], false).as_bytes())
            .expect("opens");
        // Items 0..4 continue the path; item 4 breaks it.
        let mut broken = insts[8..20].to_vec();
        broken[4].pc = 0xdead_0000;
        let err = table
            .handle(body("rb", None, &broken, false).as_bytes())
            .unwrap_err();
        assert!(err.contains("dynamic path"), "{err}");
        let slot = table.sessions.lock().unwrap()["rb"].clone();
        assert_eq!(slot.lock().unwrap().builder.ingested(), 8);
        drop(slot);
        let fixed = table
            .handle(body("rb", None, &insts[8..20], false).as_bytes())
            .expect("the corrected batch lands at the old frontier");
        assert_eq!((fixed.ingested, fixed.windows, fixed.pending), (20, 1, 4));
        assert_eq!(table.metrics().snapshot().counter("ingest.insts"), 20);
    }

    #[test]
    fn rejected_first_batches_open_no_session() {
        let table = IngestSessions::new(MachineConfig::table6());
        let mut broken = straight_insts(4, 0x1000);
        broken[2].pc = 0xdead_0000;
        for i in 0..MAX_SESSIONS {
            let err = table
                .handle(body(&format!("bad-{i}"), Some(16), &broken, false).as_bytes())
                .unwrap_err();
            assert!(err.contains("dynamic path"), "{err}");
            assert_eq!(table.active(), 0, "rejected session {i} stayed open");
        }
        let ok = table
            .handle(body("good", Some(16), &straight_insts(4, 0x1000), false).as_bytes())
            .expect("the table still has room");
        assert_eq!(ok.ingested, 4);
        assert_eq!(table.active(), 1);
        let snap = table.metrics().snapshot();
        assert_eq!(snap.counter("ingest.sessions_opened"), 1);
        assert_eq!(snap.gauge("ingest.sessions"), 1);
    }

    /// A connected branch-free stream of `n` instructions from `base`.
    /// Its pcs never repeat, so a batch continues the path only at its
    /// own frontier.
    fn straight_insts(n: usize, base: u64) -> Vec<Inst> {
        (0..n as u64)
            .map(|i| {
                let pc = base + 4 * i;
                let load = i % 3 == 0;
                Inst {
                    pc,
                    op: if load { OpClass::Load } else { OpClass::IntAlu },
                    srcs: [Some(Reg::int(if load { 2 } else { 1 })), None],
                    dst: Some(Reg::int(if load { 1 } else { 2 })),
                    mem_addr: if load { 0x4000 + (i * 72) % 8192 } else { 0 },
                    taken: false,
                    next_pc: pc + 4,
                }
            })
            .collect()
    }

    /// The ledger records a session streaming `chunks` must emit, from
    /// a solo `StreamingBuilder` replay: each window record, then its
    /// audit when `audit` is set. Run ids and timings are zeroed.
    fn solo_records(chunks: &[&[Inst]], window: usize, audit: bool) -> Vec<LedgerRecord> {
        let mut builder = StreamingBuilder::new(&MachineConfig::table6(), window);
        let mut windows = Vec::new();
        for chunk in chunks {
            windows.extend(builder.push_batch(chunk).expect("connected"));
        }
        windows.extend(builder.finish());
        let mut out = Vec::new();
        for w in windows {
            out.push(LedgerRecord::Window(WindowRecord {
                run: 0,
                window: w.window,
                start: w.start,
                end: w.end,
                baseline: w.baseline,
                lag: w.frontier_lag,
                eval_us: 0,
                costs: w.costs_by_name(),
                pairs: w.pairs_by_name(),
                trace: String::new(),
            }));
            if audit {
                let scope = format!("window {}", w.window);
                let cfg = AuditConfig::default();
                let a =
                    audit_attribution(&scope, w.baseline, &w.costs, &w.all_pairs, &w.stalls, &cfg);
                out.push(LedgerRecord::Audit(a.to_record(0)));
            }
        }
        out
    }

    /// The window and audit records `sub` received, grouped by run in
    /// arrival order, with run ids and timings zeroed as in
    /// [`solo_records`].
    fn records_by_run(
        sub: &uarch_obs::ledger::LedgerSubscriber,
    ) -> HashMap<u64, Vec<LedgerRecord>> {
        let mut runs: HashMap<u64, Vec<LedgerRecord>> = HashMap::new();
        for line in sub.drain() {
            let (run, record) = match LedgerRecord::parse(&line) {
                Ok(LedgerRecord::Window(w)) => (
                    w.run,
                    LedgerRecord::Window(WindowRecord {
                        run: 0,
                        eval_us: 0,
                        trace: String::new(),
                        ..w
                    }),
                ),
                Ok(LedgerRecord::Audit(a)) => (
                    a.run,
                    LedgerRecord::Audit(uarch_obs::ledger::AuditRecord {
                        run: 0,
                        trace: String::new(),
                        ..a
                    }),
                ),
                _ => continue,
            };
            runs.entry(run).or_default().push(record);
        }
        assert_eq!(sub.dropped(), 0, "the subscriber kept every record");
        runs
    }

    /// Stream `chunks` into session `id` one request at a time, closing
    /// with the last; every response must report the running totals.
    fn stream(table: &IngestSessions, id: &str, window: usize, chunks: &[&[Inst]]) {
        let mut ingested = 0;
        for (k, chunk) in chunks.iter().enumerate() {
            let done = k + 1 == chunks.len();
            let out = table
                .handle(body(id, (k == 0).then_some(window), chunk, done).as_bytes())
                .expect("connected batch");
            ingested += chunk.len() as u64;
            assert_eq!((out.ingested, out.done), (ingested, done), "{id} batch {k}");
        }
    }

    #[test]
    fn concurrent_sessions_retire_in_order_and_match_solo_replays() {
        let registry = Registry::new();
        let table = IngestSessions::new(MachineConfig::table6())
            .with_audit(AuditConfig::default(), AuditMetrics::bind(&registry));
        let sub = uarch_obs::ledger::global().subscribe(1 << 16);
        let streams: Vec<(String, usize, Vec<Inst>, usize)> = (0..4u64)
            .map(|t| {
                let insts = straight_insts(240 + 37 * t as usize, 0x10_0000 * (t + 1));
                (
                    format!("conc-{t}"),
                    16 + 5 * t as usize,
                    insts,
                    23 + t as usize,
                )
            })
            .collect();
        std::thread::scope(|s| {
            for (id, window, insts, chunk) in &streams {
                let table = &table;
                s.spawn(move || {
                    let chunks: Vec<&[Inst]> = insts.chunks(*chunk).collect();
                    stream(table, id, *window, &chunks);
                });
            }
        });
        assert_eq!(table.active(), 0);
        let runs = records_by_run(&sub);
        for (id, window, insts, chunk) in &streams {
            let chunks: Vec<&[Inst]> = insts.chunks(*chunk).collect();
            // Each window then its audit, the windows tiling the stream in
            // order: a run equal to the replay arrived in that order.
            let want = solo_records(&chunks, *window, true);
            let ends: Vec<(u64, u64)> = want
                .iter()
                .filter_map(|r| match r {
                    LedgerRecord::Window(w) => Some((w.start, w.end)),
                    _ => None,
                })
                .collect();
            assert!(ends.windows(2).all(|p| p[0].1 == p[1].0), "{id}");
            assert_eq!(ends.last().map(|e| e.1), Some(insts.len() as u64));
            assert!(
                runs.values().any(|got| *got == want),
                "no run matches the solo replay of {id}"
            );
        }
    }

    #[test]
    fn a_long_retirement_does_not_block_other_sessions() {
        let table = IngestSessions::new(MachineConfig::table6());
        let big = straight_insts(4 + 1024 * 48, 0x10_0000);
        let small = straight_insts(20, 0x20_0000);
        for (id, insts) in [("big", &big), ("small", &small)] {
            table
                .handle(body(id, Some(1024), &insts[..4], false).as_bytes())
                .expect("opens");
        }
        let big_slot = table.sessions.lock().unwrap()["big"].clone();
        let in_flight = || {
            matches!(
                big_slot.try_lock(),
                Err(std::sync::TryLockError::WouldBlock)
            )
        };
        // One request that retires 48 windows.
        let request = body("big", None, &big[4..], false);
        std::thread::scope(|s| {
            let big_request = s.spawn(|| table.handle(request.as_bytes()));
            while !in_flight() {
                assert!(
                    !big_request.is_finished(),
                    "the big request never held its session"
                );
                std::thread::yield_now();
            }
            for chunk in small[4..].chunks(4) {
                table
                    .handle(body("small", None, chunk, false).as_bytes())
                    .expect("small batch");
            }
            assert!(
                in_flight(),
                "the small batches finished only after the big retirement"
            );
            let out = big_request.join().unwrap().expect("big batch");
            assert_eq!(out.windows, 48);
        });
    }

    #[test]
    fn requests_on_one_session_apply_in_order() {
        let table = IngestSessions::new(MachineConfig::table6());
        let sub = uarch_obs::ledger::global().subscribe(1 << 16);
        let insts = straight_insts(400, 0x30_0000);
        let chunks: Vec<&[Inst]> = insts.chunks(25).collect();
        table
            .handle(body("ord", Some(48), chunks[0], false).as_bytes())
            .expect("opens");
        // Two clients own alternate chunks of one stream; a chunk lands
        // only once its predecessor has, so each retries until it does.
        std::thread::scope(|s| {
            for parity in 0..2 {
                let (table, chunks) = (&table, &chunks);
                s.spawn(move || {
                    for k in (1..chunks.len()).filter(|k| k % 2 == parity) {
                        let done = k + 1 == chunks.len();
                        let req = body("ord", None, chunks[k], done);
                        loop {
                            match table.handle(req.as_bytes()) {
                                Ok(out) => {
                                    assert_eq!(out.ingested, 25 * (k as u64 + 1));
                                    break;
                                }
                                Err(e) => assert!(e.contains("dynamic path"), "{e}"),
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(table.active(), 0);
        let want = solo_records(&chunks, 48, false);
        assert!(
            records_by_run(&sub).values().any(|got| *got == want),
            "the interleaved stream retired its solo replay's windows"
        );
    }

    #[test]
    fn a_batch_racing_a_close_never_lands_in_the_closed_builder() {
        let table = IngestSessions::new(MachineConfig::table6());
        let old = straight_insts(40, 0x40_0000);
        let other = straight_insts(12, 0x50_0000);
        table
            .handle(body("race", Some(16), &old[..20], false).as_bytes())
            .expect("opens");
        // Deterministic interleaving: hold the session as a request in
        // flight would, let a second request queue on it, then close.
        let slot = table.sessions.lock().unwrap()["race"].clone();
        let mut session = slot.lock().unwrap();
        std::thread::scope(|s| {
            let racer = s.spawn(|| table.handle(body("race", None, &other, false).as_bytes()));
            while Arc::strong_count(&slot) < 3 {
                std::thread::yield_now();
            }
            let close = IngestBatch {
                session: "race".into(),
                window: None,
                insts: old[20..].to_vec(),
                done: true,
            };
            let closed = table.apply(&close, &slot, &mut session).expect("close");
            assert_eq!((closed.ingested, closed.done), (40, true));
            drop(session);
            let fresh = racer
                .join()
                .unwrap()
                .expect("the racer opens a fresh session");
            assert_eq!((fresh.ingested, fresh.windows), (12, 0));
        });
        assert_eq!(slot.lock().unwrap().builder.ingested(), 40);
        assert_eq!(table.active(), 1);
        assert_eq!(
            table.metrics().snapshot().counter("ingest.sessions_opened"),
            2
        );

        // Free-running races: the racer either fails cleanly against the
        // open session or opens a fresh one, never extending the old.
        for i in 0..16 {
            let id = format!("free-{i}");
            table
                .handle(body(&id, Some(16), &old[..20], false).as_bytes())
                .expect("opens");
            let (closed, raced) = std::thread::scope(|s| {
                let closer = s.spawn(|| table.handle(body(&id, None, &old[20..], true).as_bytes()));
                let racer = s.spawn(|| table.handle(body(&id, None, &other, false).as_bytes()));
                (closer.join().unwrap(), racer.join().unwrap())
            });
            assert_eq!(closed.expect("close").ingested, 40);
            match raced {
                Ok(out) => {
                    assert_eq!(out.ingested, 12, "the racer landed in the old builder");
                    table
                        .handle(body(&id, None, &[], true).as_bytes())
                        .expect("close the fresh session");
                }
                Err(e) => assert!(e.contains("dynamic path"), "{e}"),
            }
        }
        assert_eq!(table.active(), 1, "only the deterministic racer is open");
    }

    #[test]
    fn eviction_skips_sessions_with_a_request_in_flight() {
        let table = IngestSessions::new(MachineConfig::table6());
        table
            .handle(body("busy", Some(64), &straight_insts(10, 0x1000), false).as_bytes())
            .expect("opens");
        let slot = table.sessions.lock().unwrap()["busy"].clone();
        // Between lookup and lock, and while holding the lock.
        assert_eq!(table.evict_idle(Duration::ZERO), 0);
        let session = slot.lock().unwrap();
        assert_eq!(table.evict_idle(Duration::ZERO), 0);
        assert_eq!(table.active(), 1);
        drop(session);
        drop(slot);
        assert_eq!(table.evict_idle(Duration::ZERO), 1);

        // A long request keeps its session while an evictor spins.
        let long = body("long", Some(32), &straight_insts(32 * 24, 0x10_0000), false);
        let out = std::thread::scope(|s| {
            let request = s.spawn(|| table.handle(long.as_bytes()));
            while !request.is_finished() {
                table.evict_idle(Duration::ZERO);
                std::thread::yield_now();
            }
            request.join().unwrap().expect("long batch")
        });
        assert_eq!((out.ingested, out.windows, out.pending), (32 * 24, 24, 0));
        table.evict_idle(Duration::ZERO);
        let snap = table.metrics().snapshot();
        assert_eq!(snap.counter("ingest.sessions_evicted"), 2);
        // busy's 10-inst tail plus long's 24 windows.
        assert_eq!(snap.counter("window.evals"), 25);
    }
}
