//! `CostOracle`-compatible front-ends over the job engine.
//!
//! [`ParallelMultiSimOracle`] is a drop-in replacement for the serial
//! [`MultiSimOracle`](icost::MultiSimOracle): identical `cost(S)` values
//! (both run the same deterministic simulator), but queries hinted through
//! [`CostOracle::prefetch`] are expanded into one deduplicated wave of
//! jobs executed across worker threads, and every result lands in a
//! shared content-addressed [`SimCache`].
//!
//! Telemetry lives in a registry-backed [`Metrics`] block — atomic
//! counters the parallel waves update directly — and [`report`] snapshots
//! it into the familiar [`RunReport`] view. Each simulation also returns
//! its [`PipelineStalls`], which accumulate per-cause into
//! `sim.stall.*` counters so a breakdown run can print what the simulated
//! machine was doing alongside the icost numbers.
//!
//! [`CachedOracle`] adds the same content-addressed caching to *any*
//! inner oracle (e.g. a `GraphOracle`), so repeated breakdowns over equal
//! inputs skip even graph re-evaluation.
//!
//! [`report`]: ParallelMultiSimOracle::report

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use icost::CostOracle;
use uarch_obs::ledger::{unix_time_ms, JobRecord, Ledger, LedgerRecord, Provenance, RunHeader};
use uarch_obs::{global, Registry};
use uarch_sim::{EngineStats, Idealization, PipelineStalls, SimContext, Simulator};
use uarch_trace::{EventSet, MachineConfig, Trace};

use crate::cache::SimCache;
use crate::fingerprint::{context_id, ContextId, StableHasher};
use crate::pool::{default_threads, parallel_map};
use crate::report::{Count, Metrics, RunReport};

/// Stable fingerprint of one job's answer: equal `(set, cycles)` pairs
/// hash equally across runs, machines, and cache tiers — the identity
/// the `icost-obs diff` regression gate compares.
pub(crate) fn result_hash(set: EventSet, cycles: u64) -> String {
    let mut h = StableHasher::default();
    set.bits().hash(&mut h);
    cycles.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// The run-header record of run `run`: `queries` queries over `insts`
/// instructions of context `ctx`, with `threads` workers.
pub(crate) fn run_header(
    run: u64,
    ctx: ContextId,
    queries: usize,
    threads: usize,
    insts: usize,
) -> LedgerRecord {
    LedgerRecord::Run(RunHeader {
        run,
        ctx: ctx.to_string(),
        queries: queries as u64,
        threads: threads as u64,
        insts: insts as u64,
        ts_ms: unix_time_ms(),
        // Stamped by Ledger::append from the causal context.
        trace: String::new(),
    })
}

/// A parallel, memoized multi-simulation oracle over one
/// `(trace, config, warm sets)` context.
#[derive(Debug)]
pub struct ParallelMultiSimOracle<'a> {
    config: &'a MachineConfig,
    trace: &'a Trace,
    warm_data: &'a [u64],
    warm_code: &'a [u64],
    ctx: ContextId,
    /// The warmed machine and predictor verdicts every simulation starts
    /// from, prepared on the first simulation this oracle runs. A batch
    /// answered entirely from cache never prepares it.
    sim: OnceLock<SimContext<'a>>,
    threads: usize,
    cache: SimCache,
    metrics: Metrics,
    ledger: Ledger,
    /// Run id under which this oracle's jobs are ledgered; `None` when
    /// the global ledger is disabled (the off path never reaches the
    /// ledger again).
    ledger_run: Option<u64>,
}

impl<'a> ParallelMultiSimOracle<'a> {
    /// An oracle over a cold machine (no cache/TLB warmup), with its own
    /// private in-memory cache and one worker per core.
    pub fn new(config: &'a MachineConfig, trace: &'a Trace) -> ParallelMultiSimOracle<'a> {
        ParallelMultiSimOracle::warmed(config, trace, &[], &[])
    }

    /// An oracle whose every simulation pre-touches `warm_data` /
    /// `warm_code` (steady-state measurement, as `run_warmed`).
    /// Fingerprints the context; see [`ParallelMultiSimOracle::for_context`]
    /// to reuse a known fingerprint.
    pub fn warmed(
        config: &'a MachineConfig,
        trace: &'a Trace,
        warm_data: &'a [u64],
        warm_code: &'a [u64],
    ) -> ParallelMultiSimOracle<'a> {
        let ctx = context_id(config, trace, warm_data, warm_code);
        ParallelMultiSimOracle::for_context(ctx, config, trace, warm_data, warm_code)
    }

    /// [`ParallelMultiSimOracle::warmed`] over a context whose
    /// fingerprint the caller already holds: `ctx` must equal
    /// `context_id(config, trace, warm_data, warm_code)`, since it keys
    /// every cache entry this oracle reads and writes.
    pub fn for_context(
        ctx: ContextId,
        config: &'a MachineConfig,
        trace: &'a Trace,
        warm_data: &'a [u64],
        warm_code: &'a [u64],
    ) -> ParallelMultiSimOracle<'a> {
        let threads = default_threads();
        let ledger = uarch_obs::ledger::global().clone();
        let ledger_run = ledger.wants_records().then(|| ledger.next_run_id());
        ParallelMultiSimOracle {
            config,
            trace,
            warm_data,
            warm_code,
            ctx,
            sim: OnceLock::new(),
            threads,
            cache: SimCache::new(),
            metrics: Metrics::new(threads),
            ledger,
            ledger_run,
        }
    }

    /// Cap (or raise) the worker count for parallel waves.
    pub fn with_threads(mut self, threads: usize) -> ParallelMultiSimOracle<'a> {
        self.threads = threads.max(1);
        self.metrics.threads.set(self.threads as i64);
        self
    }

    /// Share `cache` instead of the private one: oracles over equal
    /// contexts then reuse each other's simulations, and a disk-backed
    /// cache persists them across processes.
    pub fn with_cache(mut self, cache: SimCache) -> ParallelMultiSimOracle<'a> {
        self.cache = cache;
        self
    }

    /// This oracle's simulation-context fingerprint.
    pub fn context(&self) -> ContextId {
        self.ctx
    }

    /// The run id this oracle's jobs are ledgered under, when the
    /// global run ledger is enabled ([`ParallelMultiSimOracle::ledger_header`]
    /// writes the matching run-header record).
    pub fn ledger_run_id(&self) -> Option<u64> {
        self.ledger_run
    }

    /// Append this oracle's run-header record for a batch of `queries`
    /// queries (no-op when the run ledger is disabled).
    pub fn ledger_header(&self, queries: usize) {
        if let Some(run) = self.ledger_run {
            let header = run_header(run, self.ctx, queries, self.threads, self.trace.len());
            self.ledger.append(&header);
        }
    }

    /// Append one job record to the run ledger (no-op when disabled).
    fn ledger_job(
        &self,
        set: EventSet,
        provenance: Provenance,
        cycles: u64,
        wall: Duration,
        stalls: Option<&PipelineStalls>,
    ) {
        let Some(run) = self.ledger_run else { return };
        let stalls = stalls
            .map(|s| {
                s.rows()
                    .iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(name, v)| (name.to_string(), *v))
                    .collect()
            })
            .unwrap_or_default();
        self.ledger.append(&LedgerRecord::Job(JobRecord {
            run,
            set: set.to_string(),
            provenance,
            cycles,
            wall_us: wall.as_micros() as u64,
            hash: result_hash(set, cycles),
            stalls,
            // Stamped by Ledger::append from the causal context.
            trace: String::new(),
        }));
    }

    /// The live metrics registry the oracle's counters live in
    /// (`runner.*` and `sim.stall.*` names; includes the per-simulation
    /// cycle histogram the [`RunReport`] view omits).
    pub fn metrics(&self) -> &Registry {
        self.metrics.registry()
    }

    /// A snapshot of the telemetry accumulated so far.
    pub fn report(&self) -> RunReport {
        self.metrics.report()
    }

    /// Take the telemetry, resetting the counters.
    pub fn take_report(&mut self) -> RunReport {
        let report = self.metrics.report();
        self.metrics.reset();
        report
    }

    /// Probe the cache for `set` (under a span, so cache latency shows
    /// in traces) and book a hit against the tier that served it: its
    /// counter and its ledger job record.
    fn cached(&self, set: EventSet) -> Option<u64> {
        let probe_start = self.ledger_run.map(|_| Instant::now());
        let (hit, from_disk) = {
            let _sp = global().span("runner", "cache.probe");
            self.cache.get(self.ctx, set)
        };
        let cycles = hit?;
        let (counter, tier) = if from_disk {
            (&self.metrics.disk_hits, Provenance::Disk)
        } else {
            (&self.metrics.cache_hits, Provenance::Memory)
        };
        counter.inc();
        if let Some(start) = probe_start {
            self.ledger_job(set, tier, cycles, start.elapsed(), None);
        }
        Some(cycles)
    }

    /// This context's prepared simulation state, built on first use.
    fn sim_context(&self) -> &SimContext<'a> {
        self.sim.get_or_init(|| {
            let _sp = global().span("runner", "sim.prepare");
            Simulator::new(self.config).prepare(self.trace, self.warm_data, self.warm_code)
        })
    }

    /// One cost-only simulation under `set` (no per-instruction records).
    fn simulate(&self, set: EventSet) -> (u64, PipelineStalls, EngineStats) {
        let sim = self.sim_context();
        let tracer = global();
        let _sp = if tracer.is_enabled() {
            tracer.span_with("runner", "sim", vec![("set", set.to_string())])
        } else {
            tracer.span("runner", "sim")
        };
        let r = sim.totals(Idealization::from(set));
        (r.cycles, r.stalls, r.engine)
    }

    /// Book one executed simulation: counters, stall taxonomy, cache.
    fn record_sim(
        &self,
        set: EventSet,
        cycles: u64,
        stalls: &PipelineStalls,
        engine: &EngineStats,
    ) {
        self.metrics
            .count_sim(self.trace.len() as u64, cycles, stalls, engine);
        self.cache.insert(self.ctx, set, cycles);
    }

    /// Cycles under idealization of `set`, via cache or simulation.
    fn cycles(&mut self, set: EventSet) -> u64 {
        self.metrics.jobs_requested.inc();
        if let Some(cycles) = self.cached(set) {
            return cycles;
        }
        let start = Instant::now();
        let (cycles, stalls, engine) = self.simulate(set);
        let wall = start.elapsed();
        self.metrics.sim_wall.add(wall.to_u64());
        self.record_sim(set, cycles, &stalls, &engine);
        self.ledger_job(set, Provenance::Computed, cycles, wall, Some(&stalls));
        cycles
    }
}

impl CostOracle for ParallelMultiSimOracle<'_> {
    fn cost(&mut self, set: EventSet) -> i64 {
        self.metrics.queries.inc();
        if set.is_empty() {
            return 0;
        }
        let base = self.cycles(EventSet::EMPTY) as i64;
        base - self.cycles(set) as i64
    }

    fn baseline(&mut self) -> u64 {
        self.metrics.queries.inc();
        self.cycles(EventSet::EMPTY)
    }

    /// Expand `sets` into the minimal set of uncached distinct jobs
    /// (always including the `∅` baseline) and execute them as one
    /// parallel wave with deterministic result placement.
    fn prefetch(&mut self, sets: &[EventSet]) {
        let tracer = global();
        let expand_start = Instant::now();
        let mut jobs: Vec<EventSet> = Vec::with_capacity(sets.len() + 1);
        {
            let _dedup = tracer.span("runner", "dedup");
            for &set in std::iter::once(&EventSet::EMPTY).chain(sets) {
                self.metrics.jobs_requested.inc();
                if jobs.contains(&set) {
                    self.metrics.jobs_deduped.inc();
                    continue;
                }
                if self.cached(set).is_none() {
                    jobs.push(set);
                }
            }
        }
        self.metrics
            .expand_wall
            .add(expand_start.elapsed().to_u64());
        if jobs.is_empty() {
            return;
        }

        let sim_start = Instant::now();
        // Prepare on this thread, before the workers share it.
        self.sim_context();
        let results = {
            let _wave = if tracer.is_enabled() {
                tracer.span_with("runner", "wave", vec![("jobs", jobs.len().to_string())])
            } else {
                tracer.span("runner", "wave")
            };
            parallel_map(&jobs, self.threads, |&set| {
                let job_start = Instant::now();
                let (cycles, stalls, engine) = self.simulate(set);
                (cycles, stalls, engine, job_start.elapsed())
            })
        };
        self.metrics.sim_wall.add(sim_start.elapsed().to_u64());
        for (&set, (cycles, stalls, engine, wall)) in jobs.iter().zip(&results) {
            self.record_sim(set, *cycles, stalls, engine);
            self.ledger_job(set, Provenance::Computed, *cycles, *wall, Some(stalls));
        }
    }
}

/// Content-addressed caching around any inner [`CostOracle`].
///
/// The wrapper stores `t(S) = baseline − cost(S)` under the caller's
/// [`ContextId`], so equal analyses in later oracles (or later processes,
/// with a disk-backed [`SimCache`]) are answered without touching the
/// inner oracle at all. `cost(S)` values are bit-identical to the inner
/// oracle's by construction.
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    ctx: ContextId,
    cache: SimCache,
    report: RunReport,
}

impl<O: CostOracle> CachedOracle<O> {
    /// Wrap `inner`, keying cache entries by `ctx`.
    ///
    /// `ctx` must identify everything the inner oracle's answers depend
    /// on — build it with [`context_id`](crate::context_id) from the
    /// trace/config/warm sets the inner oracle observes.
    pub fn new(inner: O, ctx: ContextId, cache: SimCache) -> CachedOracle<O> {
        CachedOracle {
            inner,
            ctx,
            cache,
            report: RunReport::new(1),
        }
    }

    /// Telemetry accumulated so far: queries and cache traffic. The
    /// inner oracle's own work is not in it (`sims_run` stays 0); read
    /// it from the inner oracle.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Count one cache answer against the tier that served it.
    fn count_hit(&mut self, from_disk: bool) {
        if from_disk {
            self.report.disk_hits += 1;
        } else {
            self.report.cache_hits += 1;
        }
    }
}

impl<O: CostOracle> CostOracle for CachedOracle<O> {
    fn cost(&mut self, set: EventSet) -> i64 {
        self.report.queries += 1;
        if set.is_empty() {
            return 0;
        }
        self.report.jobs_requested += 1;
        let base = self.baseline_cycles() as i64;
        let (hit, from_disk) = self.cache.get(self.ctx, set);
        if let Some(cycles) = hit {
            self.count_hit(from_disk);
            return base - cycles as i64;
        }
        // A miss is the inner oracle's work, counted where it happens
        // (e.g. `graph.batch.evaluated`), not billed as a simulation.
        let cost = self.inner.cost(set);
        self.cache.insert(self.ctx, set, (base - cost) as u64);
        cost
    }

    fn baseline(&mut self) -> u64 {
        self.report.queries += 1;
        self.baseline_cycles()
    }

    fn prefetch(&mut self, sets: &[EventSet]) {
        // Forward the hint: a batched inner oracle still parallelizes the
        // residue the cache cannot answer.
        let uncached: Vec<EventSet> = sets
            .iter()
            .copied()
            .filter(|&s| self.cache.get(self.ctx, s).0.is_none())
            .collect();
        if !uncached.is_empty() {
            self.inner.prefetch(&uncached);
        }
    }
}

impl<O: CostOracle> CachedOracle<O> {
    fn baseline_cycles(&mut self) -> u64 {
        let (hit, from_disk) = self.cache.get(self.ctx, EventSet::EMPTY);
        if let Some(cycles) = hit {
            self.count_hit(from_disk);
            return cycles;
        }
        let base = self.inner.baseline();
        self.cache.insert(self.ctx, EventSet::EMPTY, base);
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icost::MultiSimOracle;
    use uarch_trace::{EventClass, Reg, TraceBuilder};

    fn kernel(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        for k in 0..n {
            b.load(Reg::int(1), 0x10_0000 + k * 4096);
            b.alu(Reg::int(2), &[Reg::int(1)]);
        }
        b.finish()
    }

    #[test]
    fn matches_serial_multisim_exactly() {
        let cfg = MachineConfig::table6();
        let t = kernel(30);
        let mut serial = MultiSimOracle::new(&cfg, &t);
        let mut par = ParallelMultiSimOracle::new(&cfg, &t).with_threads(4);
        let u = EventSet::from([EventClass::Dmiss, EventClass::Win, EventClass::Bmisp]);
        let sets: Vec<EventSet> = u.subsets().collect();
        par.prefetch(&sets);
        for s in sets {
            assert_eq!(par.cost(s), serial.cost(s), "cost({s}) diverged");
        }
        assert_eq!(par.baseline(), serial.baseline());
    }

    #[test]
    fn unannounced_queries_share_one_prepared_context() {
        let cfg = MachineConfig::table6();
        let t = kernel(12);
        let sets = EventClass::ALL.map(EventSet::single);
        let mut serial = MultiSimOracle::new(&cfg, &t);
        let want = sets.map(|s| serial.cost(s));
        let mut par = ParallelMultiSimOracle::new(&cfg, &t);
        let before = uarch_sim::contexts_prepared();
        assert_eq!(sets.map(|s| par.cost(s)), want);
        assert_eq!(par.report().sims_run, 9);
        assert_eq!(uarch_sim::contexts_prepared() - before, 1);
    }

    #[test]
    fn prefetch_dedupes_and_caches() {
        let cfg = MachineConfig::table6();
        let t = kernel(10);
        let mut par = ParallelMultiSimOracle::new(&cfg, &t).with_threads(2);
        let a = EventSet::single(EventClass::Dmiss);
        let b = EventSet::single(EventClass::Dl1);
        par.prefetch(&[a, b, a, b, a]);
        let r = par.report();
        assert_eq!(r.sims_run, 3, "∅, a, b"); // baseline + two distinct
        assert_eq!(r.jobs_deduped, 3, "three duplicate requests collapsed");
        // A second identical wave is pure cache hits.
        par.prefetch(&[a, b]);
        let r = par.report();
        assert_eq!(r.sims_run, 3);
        assert_eq!(r.cache_hits, 3);
        // And cost() answers come from cache, not fresh sims.
        let _ = par.cost(a);
        assert_eq!(par.report().sims_run, 3);
    }

    #[test]
    fn report_carries_stalls_and_registry_agrees() {
        let cfg = MachineConfig::table6();
        let t = kernel(20);
        let mut par = ParallelMultiSimOracle::new(&cfg, &t).with_threads(2);
        let d = EventSet::single(EventClass::Dmiss);
        par.prefetch(&[d]);
        let r = par.report();
        assert!(
            r.stalls.total() > 0,
            "a miss-heavy kernel must stall somewhere: {:?}",
            r.stalls
        );
        // The baseline run sees the 4 KiB-stride loads miss.
        assert!(r.stalls.load_l2_fill + r.stalls.load_mem_fill > 0);
        // The RunReport view and the raw registry are the same numbers.
        let snap = par.metrics().snapshot();
        assert_eq!(snap.counter("runner.sims_run"), r.sims_run);
        assert_eq!(
            snap.counter("sim.stall.load_mem_fill"),
            r.stalls.load_mem_fill
        );
        // take_report drains: a second take sees zeros.
        let taken = par.take_report();
        assert_eq!(taken.sims_run, r.sims_run);
        assert_eq!(par.report(), RunReport::new(2));
    }

    #[test]
    fn shared_cache_spans_oracle_instances() {
        let cfg = MachineConfig::table6();
        let t = kernel(10);
        let cache = SimCache::new();
        let s = EventSet::single(EventClass::Dmiss);
        let first = {
            let mut o = ParallelMultiSimOracle::new(&cfg, &t).with_cache(cache.clone());
            o.cost(s)
        };
        let mut o2 = ParallelMultiSimOracle::new(&cfg, &t).with_cache(cache);
        assert_eq!(o2.cost(s), first);
        assert_eq!(o2.report().sims_run, 0, "second oracle never simulates");
        assert_eq!(o2.report().cache_hits, 2, "baseline and set both hit");
    }

    #[test]
    fn disk_served_answers_count_as_disk_hits() {
        let dir = std::env::temp_dir().join(format!("oracle-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = MachineConfig::table6();
        let t = kernel(10);
        let s = EventSet::single(EventClass::Dmiss);
        {
            let cache = SimCache::with_disk(&dir).expect("create");
            let mut o = ParallelMultiSimOracle::new(&cfg, &t).with_cache(cache);
            let _ = o.cost(s);
            let r = o.report();
            assert_eq!((r.sims_run, r.disk_hits), (2, 0));
        }
        // A fresh process: same query, all answers from the disk tier —
        // and the reuse rate reflects that instead of reporting 0%.
        let cache = SimCache::with_disk(&dir).expect("open");
        let mut o2 = ParallelMultiSimOracle::new(&cfg, &t).with_cache(cache);
        let _ = o2.cost(s);
        let r = o2.report();
        assert_eq!(r.sims_run, 0);
        assert_eq!(r.cache_hits, 0, "memory tier contributed nothing");
        assert_eq!(r.disk_hits, 2, "baseline and set served from disk");
        assert_eq!(r.reuse_rate(), Some(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_oracle_is_transparent() {
        let cfg = MachineConfig::table6();
        let t = kernel(20);
        let ctx = context_id(&cfg, &t, &[], &[]);
        let mut plain = MultiSimOracle::new(&cfg, &t);
        let mut cached = CachedOracle::new(MultiSimOracle::new(&cfg, &t), ctx, SimCache::new());
        for c in EventClass::ALL {
            let s = EventSet::single(c);
            assert_eq!(cached.cost(s), plain.cost(s));
        }
        assert_eq!(cached.baseline(), plain.baseline());
        // Through a wrapper sharing the cache, the inner oracle never
        // runs: its own evaluation count stays 0 where the first
        // wrapper's inner oracle evaluated the set.
        let res = uarch_sim::Simulator::new(&cfg).run(&t, Idealization::none());
        let graph = uarch_graph::DepGraph::build(&t, &res, &cfg);
        let gctx = ctx.tagged("graph");
        let cache = SimCache::new();
        let oracle = || crate::LatticeGraphOracle::new(&graph);
        let mut a = CachedOracle::new(oracle(), gctx, cache.clone());
        let s = EventSet::single(EventClass::Dmiss);
        let v = a.cost(s);
        assert_eq!(a.into_inner().evaluations(), 1);
        let mut b = CachedOracle::new(oracle(), gctx, cache);
        assert_eq!(b.cost(s), v);
        assert!(b.report().cache_hits >= 1);
        assert_eq!(
            b.report().sims_run,
            0,
            "kernel evaluations are not simulations"
        );
        assert_eq!(b.into_inner().evaluations(), 0);
    }
}
