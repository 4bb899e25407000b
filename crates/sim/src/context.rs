//! Per-context simulation state, prepared once and shared by every run.
//!
//! A breakdown re-simulates one trace under many idealizations (the
//! Table 4a lattice is 37 runs). Two parts of a run do not depend on the
//! idealization at all:
//!
//! - **The warmed memory system.** Warm-up touches the warm sets before
//!   timing starts, whatever is idealized later.
//! - **The predictor's verdicts.** Fetch consults the predictor exactly
//!   once per branch, in trace order, and the predictor's state depends
//!   only on the branches it has seen — never on timing. So the verdict
//!   for each branch is a function of the trace alone. The only
//!   idealization that changes the outcome, `bmisp`, bypasses the
//!   predictor entirely.
//!
//! [`SimContext`] holds both. Each run starts from a clone of the warmed
//! snapshot and reads the verdicts, instead of re-warming the caches and
//! building and running a fresh predictor; the results are bit-identical
//! to doing that work per run.

use std::cell::Cell;

use crate::branch::BranchPredictor;
use crate::cache::MemSystem;
use crate::engine::{simulate, Discard, EngineMode};
use crate::ideal::Idealization;
use crate::record::{ExecRecord, SimResult, SimTotals};
use uarch_trace::{MachineConfig, Trace};

thread_local! {
    /// Contexts [`SimContext::new`] has prepared on this thread.
    static PREPARED: Cell<u64> = const { Cell::new(0) };
}

/// Simulation contexts prepared on this thread so far — the work
/// counter behind "a cold breakdown prepares its context once, a warm
/// batch prepares none".
pub fn contexts_prepared() -> u64 {
    PREPARED.with(Cell::get)
}

/// Everything a simulation of one `(config, trace, warm sets)` context
/// needs that no idealization changes. Build it with
/// [`Simulator::prepare`](crate::Simulator::prepare), then run it once
/// per idealization with [`SimContext::totals`]. (Records-keeping runs
/// go through [`Simulator::run_warmed`](crate::Simulator::run_warmed),
/// which prepares a context and runs it once.)
#[derive(Debug)]
pub struct SimContext<'a> {
    config: &'a MachineConfig,
    trace: &'a Trace,
    /// The memory system after warm-up; each run starts from a clone.
    mem: MemSystem,
    /// Per instruction: would fetch see a misprediction here (unless
    /// `bmisp` is idealized)? `false` for every non-branch.
    mispredicted: Vec<bool>,
}

impl<'a> SimContext<'a> {
    /// Warm a fresh memory system (data side, then code side, exactly as
    /// listed) and run the predictor over `trace` once. `config` must
    /// already be validated.
    pub(crate) fn new(
        config: &'a MachineConfig,
        trace: &'a Trace,
        warm_data: &[u64],
        warm_code: &[u64],
    ) -> SimContext<'a> {
        PREPARED.with(|c| c.set(c.get() + 1));
        let mut mem = MemSystem::new(config);
        for &a in warm_data {
            mem.data_access(a);
        }
        for &a in warm_code {
            mem.inst_access(a);
        }
        let mut predictor = BranchPredictor::new(&config.predictor);
        let mispredicted = trace
            .iter()
            .map(|inst| inst.op.is_branch() && !predictor.process(inst).correct)
            .collect();
        SimContext {
            config,
            trace,
            mem,
            mispredicted,
        }
    }

    /// Run under `ideal` for its whole-run numbers: cycles, event counts,
    /// stall counters and engine telemetry, exactly as a records-keeping
    /// run reports them, without allocating or writing per-instruction
    /// records. This is what a `cost(S)` query needs. Uses
    /// [`EngineMode::Events`].
    pub fn totals(&self, ideal: Idealization) -> SimTotals {
        self.totals_with_mode(ideal, EngineMode::Events)
    }

    /// [`SimContext::totals`] under an explicit run loop.
    pub fn totals_with_mode(&self, ideal: Idealization, mode: EngineMode) -> SimTotals {
        let mem = self.mem.clone();
        simulate(
            self.config,
            self.trace,
            &self.mispredicted,
            mem,
            ideal,
            mode,
            Discard,
        )
        .0
    }

    /// A records-keeping run of a context used once: the run takes the
    /// warmed memory system instead of cloning it.
    pub(crate) fn into_run(self, ideal: Idealization, mode: EngineMode) -> SimResult {
        let records = vec![ExecRecord::default(); self.trace.len()];
        let (totals, records) = simulate(
            self.config,
            self.trace,
            &self.mispredicted,
            self.mem,
            ideal,
            mode,
            records,
        );
        SimResult {
            cycles: totals.cycles,
            records,
            counts: totals.counts,
            stalls: totals.stalls,
            engine: totals.engine,
        }
    }

    /// [`SimContext::totals`] of a context used once (see
    /// [`SimContext::into_run`]).
    pub(crate) fn into_totals(self, ideal: Idealization) -> SimTotals {
        simulate(
            self.config,
            self.trace,
            &self.mispredicted,
            self.mem,
            ideal,
            EngineMode::Events,
            Discard,
        )
        .0
    }
}
