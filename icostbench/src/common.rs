//! Pieces every workload shares: the loopback HTTP client, the seeded
//! generator, the served-host builder, the Table 4a query pool, and the
//! per-client tally of what was sent and what came back.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uarch_obs::json::Value;
use uarch_obs::Tracer;
use uarch_runner::{Query, Runner};
use uarch_serve::{ServeContext, ServeHost, Server, DEFAULT_WORKERS};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::Workload;

/// SplitMix64: a tiny seeded generator, so the inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The 36 queries of the paper's Table 4a breakdown: the 8 singleton
/// costs, then the 28 pairwise icosts. Together they touch the 37
/// breakdown sets (`∅`, 8 singletons, 28 pairs).
pub fn breakdown_queries() -> Vec<Query> {
    let mut queries: Vec<Query> = EventClass::ALL
        .iter()
        .map(|&c| Query::Cost(EventSet::single(c)))
        .collect();
    for (i, &a) in EventClass::ALL.iter().enumerate() {
        for &b in &EventClass::ALL[i + 1..] {
            queries.push(Query::Icost(EventSet::single(a).with(b)));
        }
    }
    queries
}

/// The wire form of one breakdown query.
pub fn query_json(query: &Query) -> String {
    match query {
        Query::Cost(s) => format!("{{\"cost\":\"{s}\"}}"),
        Query::Icost(u) => format!("{{\"icost\":\"{u}\"}}"),
        Query::IcostOfUnits(_) => unreachable!("the breakdown pool holds no unit queries"),
    }
}

/// A `POST /query` body over `queries` on `backend`.
pub fn query_body(backend: &str, queries: &[Query]) -> Vec<u8> {
    let items: Vec<String> = queries.iter().map(query_json).collect();
    format!(
        "{{\"backend\":\"{backend}\",\"queries\":[{}]}}",
        items.join(",")
    )
    .into_bytes()
}

/// The serving context of a generated workload under the Table 6
/// machine, warm sets included.
pub fn serve_context(w: &Workload) -> ServeContext {
    let mut ctx = ServeContext::new(w.name.clone(), MachineConfig::table6(), w.trace.clone());
    ctx.warm_data = w.warm_data.clone();
    ctx.warm_code = w.warm_code.clone();
    ctx
}

/// A fresh host (empty cache, one runner worker per core) serving `w`.
pub fn build_host(w: &Workload) -> Arc<ServeHost> {
    Arc::new(ServeHost::new(Runner::new(), serve_context(w)))
}

/// Start the production-default accept pool for `host` on loopback.
pub fn start_server(host: &Arc<ServeHost>) -> Server {
    Server::start(Arc::clone(host), "127.0.0.1:0", DEFAULT_WORKERS).expect("bind loopback server")
}

/// One completed HTTP exchange.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Send one request and read the whole response. The server closes
/// every connection after one response; the client half-closes first,
/// so the closing handshake leaves its TIME_WAIT on the client side,
/// where loopback port reuse applies.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    trace: Option<u64>,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let trace_header = trace.map_or(String::new(), |id| {
        format!("x-icost-trace: {id:016x}-{id:016x}\r\n")
    });
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\n{trace_header}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream
        .write_all(&request)
        .map_err(|e| format!("send: {e}"))?;
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or("response has no status code")?;
    Ok(Response {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// Parse a 200 response's JSON body, or say why it is not one.
pub fn ok_json(response: &Response) -> Result<Value, String> {
    let text = String::from_utf8_lossy(&response.body);
    if response.status != 200 {
        return Err(format!("HTTP {}: {}", response.status, text.trim()));
    }
    uarch_obs::json::parse(&text).map_err(|e| format!("bad response JSON: {e}"))
}

/// A counter of a `RunReport` embedded in a `/query` response.
pub fn report_counter(doc: &Value, name: &str) -> Result<u64, String> {
    doc.get("report")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_num)
        .map(|v| v as u64)
        .ok_or_else(|| format!("response report lacks counter {name}"))
}

/// The numeric `answers` array of a `/query` response.
pub fn answers_of(doc: &Value) -> Result<Vec<i64>, String> {
    doc.get("answers")
        .and_then(Value::as_arr)
        .ok_or("response has no answers array")?
        .iter()
        .map(|v| v.as_num().map(|n| n as i64).ok_or("non-numeric answer"))
        .collect::<Result<Vec<i64>, &str>>()
        .map_err(str::to_string)
}

/// What one client (or one phase) sent and what came back.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, failed, or answered wrongly.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// Latency of each correct request, in ms.
    pub latencies_ms: Vec<f64>,
    /// The same latencies split by request class (the warm backends).
    pub class_ms: [Vec<f64>; 3],
    /// Units of work answered (queries, breakdowns, or instructions).
    pub units: u64,
    /// Response body sizes, in bytes.
    pub response_bytes: Vec<f64>,
    /// `RunReport` counters summed over the responses.
    pub sims_run: u64,
    pub cache_hits: u64,
    pub jobs_requested: u64,
    pub jobs_deduped: u64,
    pub insts_simulated: u64,
    pub skipped_cycles: u64,
    /// Streamed windows retired (attach only).
    pub windows: u64,
    /// `auto` answers by serving rung: cache, graph, sim.
    pub rungs: [u64; 3],
}

impl Tally {
    /// Count one failed request.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.latencies_ms.extend(other.latencies_ms);
        for (mine, theirs) in self.class_ms.iter_mut().zip(other.class_ms) {
            mine.extend(theirs);
        }
        self.units += other.units;
        self.response_bytes.extend(other.response_bytes);
        self.sims_run += other.sims_run;
        self.cache_hits += other.cache_hits;
        self.jobs_requested += other.jobs_requested;
        self.jobs_deduped += other.jobs_deduped;
        self.insts_simulated += other.insts_simulated;
        self.skipped_cycles += other.skipped_cycles;
        self.windows += other.windows;
        for (mine, theirs) in self.rungs.iter_mut().zip(other.rungs) {
            *mine += theirs;
        }
    }

    /// Fold the `RunReport` counters of one `/query` response in.
    pub fn absorb_report(&mut self, doc: &Value) -> Result<(), String> {
        self.sims_run += report_counter(doc, "runner.sims_run")?;
        self.cache_hits += report_counter(doc, "runner.cache_hits_mem")?;
        self.jobs_requested += report_counter(doc, "runner.jobs_requested")?;
        self.jobs_deduped += report_counter(doc, "runner.jobs_deduped")?;
        self.insts_simulated += report_counter(doc, "runner.insts_simulated")?;
        self.skipped_cycles += report_counter(doc, "sim.skipped_cycles")?;
        Ok(())
    }
}

/// Time `f`, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Run `f` `reps` times and return the median time, in milliseconds.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, ms) = time_ms(&mut f);
            std::hint::black_box(out);
            ms
        })
        .collect();
    crate::stats::median(&times)
}

/// Benchmark-side span recording for the traced run: one span per
/// request or layer call, tagged with the request's trace id, kept in
/// memory until the run ends.
#[derive(Clone)]
pub struct Spans {
    tracer: Tracer,
}

impl Spans {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            tracer: Tracer::with_max_events(on, 1 << 18),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Open a span for `name` in `layer` on behalf of request `id`.
    pub fn span(&self, layer: &'static str, name: &'static str, id: u64) -> uarch_obs::Span {
        if self.on() {
            self.tracer
                .span_with(layer, name, vec![("trace", format!("{id:016x}"))])
        } else {
            self.tracer.span(layer, name)
        }
    }

    /// The recorder's events as a Chrome trace document.
    pub fn export_json(&self) -> String {
        self.tracer.export_json()
    }
}
