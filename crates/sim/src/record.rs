//! Per-instruction execution records and whole-run results.

use crate::cache::MissLevel;
use uarch_trace::Trace;

/// Timing and event record for one dynamic instruction, as observed by the
/// simulator. These are exactly the quantities the dependence-graph model
/// (paper Table 3 / Figure 5b) needs: the dynamically-collected latencies
/// (icache misses, execution latency, contention) and dependences (register
/// producers, cache-line sharing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecRecord {
    /// Cycle the instruction entered the fetch queue.
    pub fetch: u64,
    /// Cycle dispatched into the window (graph node `D`).
    pub dispatch: u64,
    /// Cycle all operands were available and the instruction could be
    /// considered for issue (graph node `R`).
    pub ready: u64,
    /// Cycle issued to a functional unit (graph node `E`).
    pub exec: u64,
    /// Cycle execution completed (graph node `P`).
    pub complete: u64,
    /// Cycle committed (graph node `C`).
    pub commit: u64,
    /// Extra fetch delay caused by I-cache/ITLB misses (latency on the `DD`
    /// edge).
    pub icache_extra: u64,
    /// Where the I-side access for this instruction's line hit (only
    /// meaningful for the first instruction of each fetched line).
    pub icache_level: MissLevel,
    /// Whether the ITLB missed for this instruction's fetch.
    pub itlb_miss: bool,
    /// Whether this (branch) was mispredicted, triggering recovery.
    pub mispredicted: bool,
    /// Execution latency (latency on the `EP` edge); includes the memory
    /// hierarchy for loads.
    pub exec_latency: u64,
    /// Issue delay beyond readiness caused by issue-width/functional-unit
    /// contention (latency on the `RE` edge).
    pub re_delay: u64,
    /// Where this instruction's data access hit (memory ops only).
    pub dcache_level: MissLevel,
    /// Whether the DTLB missed (memory ops only).
    pub dtlb_miss: bool,
    /// Dynamic index of the producer of each source operand, if it is an
    /// in-flight-relevant register dependence (`PR` edges).
    pub src_producers: [Option<u32>; 2],
    /// Extra wakeup latency charged on each `PR` edge (the issue-wakeup
    /// loop bubble, attributed to the producer's class).
    pub wakeup_bubble: [u64; 2],
    /// Dynamic index of an earlier load whose outstanding miss this load
    /// merged with (`PP` cache-line-sharing edge) — the "partial miss".
    pub pp_producer: Option<u32>,
}

/// Aggregate event counts over one run (handy for workload calibration and
/// sanity checks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Mispredicted branches of any kind.
    pub mispredicts: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Loads that missed L1 (including merged/partial misses).
    pub l1d_load_misses: u64,
    /// Loads that went to main memory.
    pub mem_load_misses: u64,
    /// Loads that merged into an outstanding miss (partial misses).
    pub merged_loads: u64,
    /// Fetch-line accesses that missed L1I.
    pub l1i_misses: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// ITLB misses.
    pub itlb_misses: u64,
}

/// Per-cause pipeline stall counters for one simulation — the
/// "simulated-machine events" telemetry the observability layer
/// aggregates and prints alongside icost breakdowns.
///
/// Fetch, dispatch, and commit causes count *cycles* the stage made no
/// progress for that reason; `issue_fu_busy` counts failed issue
/// *attempts* (the same instruction can fail several times in one
/// issue fixpoint). The causes are mutually exclusive within a stage
/// and cycle, so per-stage sums are meaningful.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStalls {
    /// Cycles fetch sat idle waiting for a mispredicted branch to
    /// resolve and redirect.
    pub fetch_bmisp_recovery: u64,
    /// Cycles fetch was blocked on an L1I miss filling from L2.
    pub fetch_imiss_l2_fill: u64,
    /// Cycles fetch was blocked on an I-side line (or translation)
    /// filling from memory.
    pub fetch_imiss_mem_fill: u64,
    /// Cycles fetch had instructions left but the fetch queue was full.
    pub fetch_queue_full: u64,
    /// Cycles dispatch stalled because the window (ROB) was full.
    pub dispatch_window_full: u64,
    /// Failed issue attempts caused by busy functional units.
    pub issue_fu_busy: u64,
    /// Cycles commit had nothing in flight (ROB empty: the front end
    /// starved the back end).
    pub commit_rob_empty: u64,
    /// Cycles commit waited on an incomplete or too-recent head
    /// instruction (long-latency work blocking retirement).
    pub commit_head_wait: u64,
    /// Non-overlapped fill cycles of L1D misses served by L2: each
    /// cycle some L2 fill was the newest outstanding charge counts
    /// once, however many loads were waiting on it.
    pub load_l2_fill: u64,
    /// Non-overlapped fill cycles of loads that went to memory (same
    /// single-charge accounting as [`PipelineStalls::load_l2_fill`]).
    pub load_mem_fill: u64,
}

impl PipelineStalls {
    /// Stable `(name, value)` rows, in pipeline order — the taxonomy
    /// the metrics registry and report tables use.
    pub fn rows(&self) -> [(&'static str, u64); 10] {
        [
            ("fetch_bmisp_recovery", self.fetch_bmisp_recovery),
            ("fetch_imiss_l2_fill", self.fetch_imiss_l2_fill),
            ("fetch_imiss_mem_fill", self.fetch_imiss_mem_fill),
            ("fetch_queue_full", self.fetch_queue_full),
            ("dispatch_window_full", self.dispatch_window_full),
            ("issue_fu_busy", self.issue_fu_busy),
            ("commit_rob_empty", self.commit_rob_empty),
            ("commit_head_wait", self.commit_head_wait),
            ("load_l2_fill", self.load_l2_fill),
            ("load_mem_fill", self.load_mem_fill),
        ]
    }

    /// Inverse of [`PipelineStalls::rows`]: rebuild from values in the
    /// same order (used by telemetry layers that store the counters in
    /// a metrics registry).
    pub fn from_row_values(v: [u64; 10]) -> PipelineStalls {
        PipelineStalls {
            fetch_bmisp_recovery: v[0],
            fetch_imiss_l2_fill: v[1],
            fetch_imiss_mem_fill: v[2],
            fetch_queue_full: v[3],
            dispatch_window_full: v[4],
            issue_fu_busy: v[5],
            commit_rob_empty: v[6],
            commit_head_wait: v[7],
            load_l2_fill: v[8],
            load_mem_fill: v[9],
        }
    }

    /// Fold `times` copies of another run's stall counts into this one.
    ///
    /// This is the bulk-attribution primitive of the event-driven run
    /// loop: an idle span of `k` cycles charges `k` copies of the
    /// per-cycle stall delta its first cycle charged, which is exactly
    /// what ticking through the span would have accumulated.
    pub fn add_scaled(&mut self, other: &PipelineStalls, times: u64) {
        self.fetch_bmisp_recovery += other.fetch_bmisp_recovery * times;
        self.fetch_imiss_l2_fill += other.fetch_imiss_l2_fill * times;
        self.fetch_imiss_mem_fill += other.fetch_imiss_mem_fill * times;
        self.fetch_queue_full += other.fetch_queue_full * times;
        self.dispatch_window_full += other.dispatch_window_full * times;
        self.issue_fu_busy += other.issue_fu_busy * times;
        self.commit_rob_empty += other.commit_rob_empty * times;
        self.commit_head_wait += other.commit_head_wait * times;
        self.load_l2_fill += other.load_l2_fill * times;
        self.load_mem_fill += other.load_mem_fill * times;
    }

    /// Per-row difference `self - other` (saturating). Meaningful when
    /// `other` is an earlier snapshot of the same monotone counters.
    pub fn delta_since(&self, other: &PipelineStalls) -> PipelineStalls {
        let a = self.rows();
        let b = other.rows();
        let mut v = [0u64; 10];
        for (slot, (x, y)) in v.iter_mut().zip(a.iter().zip(b.iter())) {
            *slot = x.1.saturating_sub(y.1);
        }
        PipelineStalls::from_row_values(v)
    }

    /// Fold another run's stall counts into this one.
    pub fn absorb(&mut self, other: &PipelineStalls) {
        self.fetch_bmisp_recovery += other.fetch_bmisp_recovery;
        self.fetch_imiss_l2_fill += other.fetch_imiss_l2_fill;
        self.fetch_imiss_mem_fill += other.fetch_imiss_mem_fill;
        self.fetch_queue_full += other.fetch_queue_full;
        self.dispatch_window_full += other.dispatch_window_full;
        self.issue_fu_busy += other.issue_fu_busy;
        self.commit_rob_empty += other.commit_rob_empty;
        self.commit_head_wait += other.commit_head_wait;
        self.load_l2_fill += other.load_l2_fill;
        self.load_mem_fill += other.load_mem_fill;
    }

    /// Sum over every cause (a coarse "how stalled was this run").
    pub fn total(&self) -> u64 {
        self.rows().iter().map(|(_, v)| v).sum()
    }
}

/// How the run loop spent its iterations — scheduler telemetry, not part
/// of the architectural result. The discrete-event engine must produce
/// bit-identical `cycles`/`records`/`counts`/`stalls`; these counters are
/// the only place the two run loops are allowed to differ, and they are
/// what makes the idle-cycle win observable (`sim.skipped_cycles`,
/// `sim.event.*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycles on which the five stage functions actually ran.
    pub ticked_cycles: u64,
    /// Idle cycles the event scheduler jumped over without running the
    /// stage functions (always 0 under the ticking engine).
    pub skipped_cycles: u64,
    /// Idle spans bulk-attributed in one next-event jump each.
    pub idle_spans: u64,
}

impl EngineStats {
    /// Fold another run's scheduler telemetry into this one.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.ticked_cycles += other.ticked_cycles;
        self.skipped_cycles += other.skipped_cycles;
        self.idle_spans += other.idle_spans;
    }
}

/// The whole-run numbers of one simulation, without its per-instruction
/// records: everything a `cost(S)` query reads. A cost-only run
/// ([`SimContext::totals`](crate::SimContext::totals)) returns exactly
/// the [`SimResult::totals`] of the full run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Total execution time in cycles (commit cycle of the last
    /// instruction).
    pub cycles: u64,
    /// Aggregate event counts.
    pub counts: EventCounts,
    /// Per-cause pipeline stall counters.
    pub stalls: PipelineStalls,
    /// Run-loop scheduler telemetry.
    pub engine: EngineStats,
}

/// Result of simulating one trace.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Total execution time in cycles (commit cycle of the last
    /// instruction).
    pub cycles: u64,
    /// Per-instruction records, parallel to the trace.
    pub records: Vec<ExecRecord>,
    /// Aggregate event counts.
    pub counts: EventCounts,
    /// Per-cause pipeline stall counters.
    pub stalls: PipelineStalls,
    /// Run-loop scheduler telemetry (how many cycles were ticked vs
    /// skipped). Excluded from bit-identity comparisons between engines.
    pub engine: EngineStats,
}

impl SimResult {
    /// The whole-run numbers, without the records.
    pub fn totals(&self) -> SimTotals {
        SimTotals {
            cycles: self.cycles,
            counts: self.counts,
            stalls: self.stalls,
            engine: self.engine,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.records.len() as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.cycles as f64 / self.records.len() as f64
        }
    }

    /// Branch misprediction rate over conditional branches (0..=1), or
    /// `None` if the trace has no conditional branches.
    pub fn mispredict_rate(&self) -> Option<f64> {
        if self.counts.cond_branches == 0 {
            None
        } else {
            Some(self.counts.mispredicts as f64 / self.counts.cond_branches as f64)
        }
    }

    /// L1D load miss rate (0..=1), or `None` if the trace has no loads.
    pub fn load_miss_rate(&self) -> Option<f64> {
        if self.counts.loads == 0 {
            None
        } else {
            Some(self.counts.l1d_load_misses as f64 / self.counts.loads as f64)
        }
    }

    /// Check the fundamental per-instruction orderings (fetch ≤ dispatch ≤
    /// ready ≤ exec ≤ complete ≤ commit, and in-order dispatch/commit)
    /// against `trace`; returns the first violation as a human-readable
    /// string. Used heavily by tests and property checks.
    pub fn check_invariants(&self, trace: &Trace) -> Result<(), String> {
        if self.records.len() != trace.len() {
            return Err(format!(
                "record count {} != trace length {}",
                self.records.len(),
                trace.len()
            ));
        }
        let mut prev_dispatch = 0;
        let mut prev_commit = 0;
        for (i, r) in self.records.iter().enumerate() {
            let ord = [r.fetch, r.dispatch, r.ready, r.exec, r.complete, r.commit];
            if ord.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("inst {i}: non-monotonic pipeline times {ord:?}"));
            }
            if r.dispatch < prev_dispatch {
                return Err(format!("inst {i}: out-of-order dispatch"));
            }
            if r.commit < prev_commit {
                return Err(format!("inst {i}: out-of-order commit"));
            }
            prev_dispatch = r.dispatch;
            prev_commit = r.commit;
            for (s, p) in r.src_producers.iter().enumerate() {
                if let Some(p) = p {
                    if *p as usize >= i {
                        return Err(format!("inst {i}: src {s} producer {p} not earlier"));
                    }
                }
            }
            if let Some(p) = r.pp_producer {
                if p as usize >= i {
                    return Err(format!("inst {i}: pp producer {p} not earlier"));
                }
            }
        }
        if let Some(last) = self.records.last() {
            if last.commit != self.cycles {
                return Err(format!(
                    "total cycles {} != last commit {}",
                    self.cycles, last.commit
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_empty_safe() {
        let r = SimResult::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.cpi(), 0.0);
        assert_eq!(r.mispredict_rate(), None);
        assert_eq!(r.load_miss_rate(), None);
    }

    #[test]
    fn scaled_add_matches_repeated_absorb() {
        let delta = PipelineStalls {
            fetch_bmisp_recovery: 1,
            fetch_imiss_l2_fill: 2,
            fetch_imiss_mem_fill: 3,
            fetch_queue_full: 4,
            dispatch_window_full: 5,
            issue_fu_busy: 6,
            commit_rob_empty: 7,
            commit_head_wait: 8,
            load_l2_fill: 9,
            load_mem_fill: 10,
        };
        let mut scaled = PipelineStalls::default();
        scaled.add_scaled(&delta, 7);
        let mut looped = PipelineStalls::default();
        for _ in 0..7 {
            looped.absorb(&delta);
        }
        assert_eq!(scaled, looped);
        // Zero copies is a no-op.
        let mut zero = delta;
        zero.add_scaled(&delta, 0);
        assert_eq!(zero, delta);
    }

    #[test]
    fn delta_since_inverts_absorb() {
        let base = PipelineStalls {
            commit_head_wait: 3,
            load_mem_fill: 40,
            ..PipelineStalls::default()
        };
        let mut later = base;
        let step = PipelineStalls {
            commit_head_wait: 2,
            fetch_queue_full: 5,
            ..PipelineStalls::default()
        };
        later.absorb(&step);
        assert_eq!(later.delta_since(&base), step);
    }

    #[test]
    fn invariant_checker_catches_misordering() {
        let mut b = uarch_trace::TraceBuilder::new();
        b.nops(1);
        let t = b.finish();
        let mut res = SimResult {
            cycles: 5,
            records: vec![ExecRecord {
                fetch: 3,
                dispatch: 2, // violates fetch <= dispatch
                ready: 4,
                exec: 4,
                complete: 5,
                commit: 5,
                ..ExecRecord::default()
            }],
            ..SimResult::default()
        };
        assert!(res.check_invariants(&t).is_err());
        res.records[0].fetch = 1;
        assert!(res.check_invariants(&t).is_ok());
    }

    #[test]
    fn invariant_checker_catches_bad_producer() {
        let mut b = uarch_trace::TraceBuilder::new();
        b.nops(1);
        let t = b.finish();
        let res = SimResult {
            cycles: 1,
            records: vec![ExecRecord {
                commit: 1,
                complete: 1,
                exec: 1,
                ready: 1,
                dispatch: 1,
                fetch: 1,
                src_producers: [Some(0), None], // self-reference
                ..ExecRecord::default()
            }],
            ..SimResult::default()
        };
        assert!(res.check_invariants(&t).is_err());
    }
}
