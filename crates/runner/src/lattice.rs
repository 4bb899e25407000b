//! [`LatticeGraphOracle`] — the dependence-graph cost oracle on the
//! runner substrate.
//!
//! `GraphOracle` (the `icost` crate) answers one `cost(S)` per O(n) graph
//! sweep. This oracle routes whole announced batches — every `Breakdown`
//! and every [`Query`](crate::Query) expansion calls
//! [`prefetch`](icost::CostOracle::prefetch) — through the lane-batched
//! kernel ([`DepGraph::eval_many`]): up to [`MAX_LANES`] subsets per
//! instruction sweep, groups of lanes spread across the runner's worker
//! threads. Results are bit-identical to per-set [`DepGraph::evaluate`]
//! by the kernel's construction.
//!
//! It plugs into the same machinery as the simulation oracles:
//!
//! * a [`ContextId`] fingerprinting the graph *content* (tagged
//!   `"graph"`), so [`CachedOracle`](crate::CachedOracle)/[`SimCache`]
//!   layers dedupe and persist graph answers without ever aliasing
//!   ground-truth simulation entries;
//! * `graph.*` counters in a [`Registry`] (`graph.lanes`, `graph.sweeps`,
//!   `graph.batch.requested/deduped/memo_hits/evaluated`) plus
//!   `graph.batch` spans on the global tracer;
//! * per-job records in the run ledger (`ICOST_LEDGER_FILE`) with
//!   computed/memory provenance and the same stable result hash the
//!   `icost-obs diff` regression gate compares.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use icost::CostOracle;
use uarch_graph::{DepGraph, LaneScratch, MAX_LANES};
use uarch_obs::ledger::{JobRecord, Ledger, LedgerRecord, Provenance};
use uarch_obs::{global, Counter, Registry};
use uarch_trace::EventSet;

use crate::fingerprint::{graph_context_id, ContextId};
use crate::oracle::{result_hash, run_header};
use crate::pool::{default_threads, parallel_map};

/// Live `graph.*` counters for one oracle.
#[derive(Debug)]
struct LatticeMetrics {
    registry: Registry,
    /// Lane-evaluations: subsets answered by the kernel.
    lanes: Counter,
    /// Kernel passes over the instruction stream (one per lane group).
    sweeps: Counter,
    /// Sets requested across all prefetch batches.
    batch_requested: Counter,
    /// Duplicate sets collapsed within batches.
    batch_deduped: Counter,
    /// Sets answered from the memo instead of the kernel.
    batch_memo_hits: Counter,
    /// Sets actually evaluated by the kernel.
    batch_evaluated: Counter,
    /// Microseconds spent inside kernel sweeps.
    eval_wall_us: Counter,
}

impl LatticeMetrics {
    fn new() -> LatticeMetrics {
        let registry = Registry::new();
        LatticeMetrics {
            lanes: registry.counter("graph.lanes"),
            sweeps: registry.counter("graph.sweeps"),
            batch_requested: registry.counter("graph.batch.requested"),
            batch_deduped: registry.counter("graph.batch.deduped"),
            batch_memo_hits: registry.counter("graph.batch.memo_hits"),
            batch_evaluated: registry.counter("graph.batch.evaluated"),
            eval_wall_us: registry.counter("graph.batch.eval_wall_us"),
            registry,
        }
    }
}

/// A lane-batched, parallel [`CostOracle`] over one dependence graph.
#[derive(Debug)]
pub struct LatticeGraphOracle<'g> {
    graph: &'g DepGraph,
    ctx: ContextId,
    threads: usize,
    memo: HashMap<EventSet, u64>,
    baseline: u64,
    scratch: LaneScratch,
    metrics: LatticeMetrics,
    ledger: Ledger,
    ledger_run: Option<u64>,
    header_written: bool,
}

impl<'g> LatticeGraphOracle<'g> {
    /// An oracle over `graph`, with one worker per core and a context id
    /// fingerprinting the graph content. Hashes the whole graph and runs
    /// one scalar baseline sweep; see [`LatticeGraphOracle::for_context`]
    /// to reuse both.
    pub fn new(graph: &'g DepGraph) -> LatticeGraphOracle<'g> {
        let baseline = graph.evaluate(EventSet::EMPTY);
        LatticeGraphOracle::for_context(graph, graph_context_id(graph), baseline)
    }

    /// An oracle over `graph` whose context id and baseline the caller
    /// already holds. `baseline` must equal `graph.evaluate(∅)`; `ctx`
    /// keys the answers in any wrapping cache — the graph-content
    /// fingerprint, or e.g. the workload context that *produced* the
    /// graph tagged `"graph"`, so disk caches stay stable across
    /// rebuilds.
    pub fn for_context(
        graph: &'g DepGraph,
        ctx: ContextId,
        baseline: u64,
    ) -> LatticeGraphOracle<'g> {
        let ledger = uarch_obs::ledger::global().clone();
        let ledger_run = ledger.wants_records().then(|| ledger.next_run_id());
        LatticeGraphOracle {
            graph,
            ctx,
            threads: default_threads(),
            memo: HashMap::new(),
            baseline,
            scratch: LaneScratch::new(),
            metrics: LatticeMetrics::new(),
            ledger,
            ledger_run,
            header_written: false,
        }
    }

    /// Cap (or raise) the worker count for parallel lane-group waves.
    pub fn with_threads(mut self, threads: usize) -> LatticeGraphOracle<'g> {
        self.threads = threads.max(1);
        self
    }

    /// This oracle's analysis-context fingerprint (tagged `"graph"`
    /// unless the caller supplied another through
    /// [`LatticeGraphOracle::for_context`]).
    pub fn context(&self) -> ContextId {
        self.ctx
    }

    /// Number of distinct sets evaluated so far.
    pub fn evaluations(&self) -> usize {
        self.memo.len()
    }

    /// The live metrics registry (`graph.*` counter names).
    pub fn metrics(&self) -> &Registry {
        &self.metrics.registry
    }

    /// The run id this oracle's jobs are ledgered under, when the global
    /// run ledger is enabled.
    pub fn ledger_run_id(&self) -> Option<u64> {
        self.ledger_run
    }

    /// Write this oracle's run-header record once, before its first job
    /// record, so ledger consumers can group and context-match the jobs.
    fn ensure_header(&mut self) {
        let Some(run) = self.ledger_run else { return };
        if self.header_written {
            return;
        }
        self.header_written = true;
        let header = run_header(run, self.ctx, 0, self.threads, self.graph.len());
        self.ledger.append(&header);
    }

    /// Append one job record to the run ledger (no-op when disabled).
    fn ledger_job(&mut self, set: EventSet, provenance: Provenance, cycles: u64, wall: Duration) {
        let Some(run) = self.ledger_run else { return };
        self.ensure_header();
        self.ledger.append(&LedgerRecord::Job(JobRecord {
            run,
            set: set.to_string(),
            provenance,
            cycles,
            wall_us: wall.as_micros() as u64,
            hash: result_hash(set, cycles),
            stalls: std::collections::BTreeMap::new(),
            trace: String::new(),
        }));
    }

    /// Evaluate `jobs` (distinct, non-empty, not memoized) through the
    /// kernel and return `t(S)` per job, in order.
    fn eval_jobs(&mut self, jobs: &[EventSet]) -> Vec<u64> {
        let groups: Vec<&[EventSet]> = jobs.chunks(MAX_LANES).collect();
        self.metrics.lanes.add(jobs.len() as u64);
        self.metrics.sweeps.add(groups.len() as u64);
        self.metrics.batch_evaluated.add(jobs.len() as u64);
        let start = Instant::now();
        let results: Vec<Vec<u64>> = if groups.len() > 1 && self.threads > 1 {
            // Lane groups are independent whole-stream sweeps: spread them
            // across the pool (deterministic input-order results), one
            // scratch per worker invocation.
            let graph = self.graph;
            parallel_map(&groups, self.threads, |group| {
                let mut scratch = LaneScratch::new();
                graph.eval_many_with(group, &mut scratch)
            })
        } else {
            groups
                .iter()
                .map(|group| self.graph.eval_many_with(group, &mut self.scratch))
                .collect()
        };
        let wall = start.elapsed();
        self.metrics.eval_wall_us.add(wall.as_micros() as u64);
        let times: Vec<u64> = results.concat();
        let per_job = wall / (jobs.len() as u32).max(1);
        for (&set, &t) in jobs.iter().zip(&times) {
            self.memo.insert(set, t);
            self.ledger_job(set, Provenance::Computed, t, per_job);
        }
        times
    }

    /// `t(S)` via memo or a single-lane kernel evaluation.
    fn cycles(&mut self, set: EventSet) -> u64 {
        if let Some(&t) = self.memo.get(&set) {
            self.metrics.batch_memo_hits.inc();
            self.ledger_job(set, Provenance::Memory, t, Duration::ZERO);
            return t;
        }
        self.eval_jobs(&[set])[0]
    }
}

impl CostOracle for LatticeGraphOracle<'_> {
    fn cost(&mut self, set: EventSet) -> i64 {
        if set.is_empty() {
            return 0;
        }
        self.baseline as i64 - self.cycles(set) as i64
    }

    fn baseline(&mut self) -> u64 {
        self.baseline
    }

    /// Expand `sets` into the distinct unmemoized residue and push it
    /// through the lane kernel as one batch.
    fn prefetch(&mut self, sets: &[EventSet]) {
        let tracer = global();
        let _sp = if tracer.is_enabled() {
            tracer.span_with(
                "graph",
                "graph.batch",
                vec![("sets", sets.len().to_string())],
            )
        } else {
            tracer.span("graph", "graph.batch")
        };
        self.metrics.batch_requested.add(sets.len() as u64);
        let mut jobs: Vec<EventSet> = Vec::new();
        let mut seen: std::collections::HashSet<EventSet> = std::collections::HashSet::new();
        for &set in sets {
            if set.is_empty() || !seen.insert(set) {
                self.metrics.batch_deduped.inc();
                continue;
            }
            if self.memo.contains_key(&set) {
                self.metrics.batch_memo_hits.inc();
                continue;
            }
            jobs.push(set);
        }
        if jobs.is_empty() {
            return;
        }
        self.eval_jobs(&jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icost::GraphOracle;
    use uarch_trace::{MachineConfig, Reg, TraceBuilder};

    fn graph() -> DepGraph {
        let cfg = MachineConfig::table6();
        let mut b = TraceBuilder::new();
        for k in 0..60u64 {
            b.load(Reg::int(1), 0x10_0000 + k * 4096);
            b.alu(Reg::int(2), &[Reg::int(1)]);
            if k % 9 == 0 {
                b.op(
                    uarch_trace::OpClass::IntMult,
                    Some(Reg::int(3)),
                    &[Reg::int(2)],
                );
            }
        }
        let t = b.finish();
        let res = uarch_sim::Simulator::new(&cfg).run(&t, uarch_sim::Idealization::none());
        DepGraph::build(&t, &res, &cfg)
    }

    fn all_subsets() -> Vec<EventSet> {
        (0u16..256).map(|b| EventSet::from_bits(b as u8)).collect()
    }

    #[test]
    fn matches_graph_oracle_exactly() {
        let g = graph();
        let mut plain = GraphOracle::new(&g);
        let mut lattice = LatticeGraphOracle::new(&g).with_threads(4);
        let sets = all_subsets();
        lattice.prefetch(&sets);
        assert_eq!(lattice.baseline(), plain.baseline());
        for &s in &sets {
            assert_eq!(lattice.cost(s), plain.cost(s), "cost({s}) diverged");
        }
    }

    #[test]
    fn metrics_count_lanes_and_sweeps() {
        let g = graph();
        let mut lattice = LatticeGraphOracle::new(&g).with_threads(1);
        let sets = all_subsets();
        lattice.prefetch(&sets);
        let snap = lattice.metrics().snapshot();
        // 255 non-empty sets in 16 groups of ≤16 lanes.
        assert_eq!(snap.counter("graph.lanes"), 255);
        assert_eq!(snap.counter("graph.sweeps"), 16);
        assert_eq!(snap.counter("graph.batch.requested"), 256);
        assert_eq!(snap.counter("graph.batch.evaluated"), 255);
        // Re-prefetch: all memo hits, no new sweeps.
        lattice.prefetch(&sets);
        let snap = lattice.metrics().snapshot();
        assert_eq!(snap.counter("graph.sweeps"), 16);
        assert_eq!(snap.counter("graph.batch.memo_hits"), 255);
    }

    // Ledger-record coverage lives in `tests/graph_ledger.rs` (it must
    // own the process-wide ledger, which unit tests cannot).

    #[test]
    fn graph_context_is_content_addressed() {
        let a = graph();
        let b = graph();
        assert_eq!(
            LatticeGraphOracle::new(&a).context(),
            LatticeGraphOracle::new(&b).context(),
            "equal graphs share a context"
        );
        let mut insts = a.insts().to_vec();
        insts[0].ep_dmiss += 1;
        let c = DepGraph::from_parts(insts, *a.params());
        assert_ne!(
            LatticeGraphOracle::new(&a).context(),
            LatticeGraphOracle::new(&c).context(),
            "changed content moves the context"
        );
    }
}
