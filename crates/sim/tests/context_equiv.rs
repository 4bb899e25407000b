//! A prepared [`SimContext`] is shared by every simulation of one
//! `(config, trace, warm sets)` context: each run clones its warmed
//! memory snapshot and reads its predictor verdicts instead of warming
//! and predicting afresh. These tests pin that sharing, and the
//! cost-only run that skips the per-instruction records, to
//! `Simulator::run_warmed` — which prepares a fresh context per call and
//! keeps records — on every number a cost query reads: cycles, event
//! counts, stall counters and engine telemetry, under both run loops.

use proptest::prelude::*;
use uarch_sim::{contexts_prepared, EngineMode, Idealization, SimTotals, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, OpClass, Reg, Trace, TraceBuilder};
use uarch_workloads::{generate, BenchProfile};

const MODES: [EngineMode; 2] = [EngineMode::Ticking, EngineMode::Events];

/// The Table 4a breakdown lattice: ∅, the 8 singletons, the 28 pairs.
fn breakdown_sets() -> Vec<EventSet> {
    let mut sets = vec![EventSet::EMPTY];
    sets.extend(EventClass::ALL.iter().map(|&c| EventSet::single(c)));
    for (i, &a) in EventClass::ALL.iter().enumerate() {
        for &b in &EventClass::ALL[i + 1..] {
            sets.push(EventSet::from([a, b]));
        }
    }
    assert_eq!(sets.len(), 37);
    sets
}

/// `run_warmed`'s whole-run numbers: a fresh context per call, records kept.
fn reference(
    cfg: &MachineConfig,
    trace: &Trace,
    set: EventSet,
    warm: (&[u64], &[u64]),
    mode: EngineMode,
) -> SimTotals {
    Simulator::new(cfg)
        .run_warmed_with_mode(trace, Idealization::from(set), warm.0, warm.1, mode)
        .totals()
}

#[test]
fn cost_only_runs_match_run_warmed_on_every_profile_and_breakdown_set() {
    let cfg = MachineConfig::table6();
    let sets = breakdown_sets();
    for p in BenchProfile::suite() {
        let w = generate(p, 600, 2003);
        let warm = (w.warm_data.as_slice(), w.warm_code.as_slice());
        let ctx = Simulator::new(&cfg).prepare(&w.trace, warm.0, warm.1);
        for &set in &sets {
            for mode in MODES {
                assert_eq!(
                    ctx.totals_with_mode(Idealization::from(set), mode),
                    reference(&cfg, &w.trace, set, warm, mode),
                    "{} {set} {mode:?}",
                    p.name
                );
            }
        }
    }
}

#[test]
fn one_context_reused_in_shuffled_order_leaks_no_state() {
    let cfg = MachineConfig::table6();
    let w = generate(BenchProfile::by_name("vortex").expect("profile"), 1_500, 11);
    let warm = (w.warm_data.as_slice(), w.warm_code.as_slice());
    let ctx = Simulator::new(&cfg).prepare(&w.trace, warm.0, warm.1);
    let sets = breakdown_sets();
    let fresh: Vec<SimTotals> = sets
        .iter()
        .map(|&s| reference(&cfg, &w.trace, s, warm, EngineMode::Events))
        .collect();
    // A fixed-seed Fisher-Yates shuffle, walked twice: a run that left
    // anything behind in the shared context would change a later answer.
    let mut order: Vec<usize> = (0..sets.len()).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..order.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    for pass in 0..2 {
        for &k in &order {
            let ideal = Idealization::from(sets[k]);
            assert_eq!(ctx.totals(ideal), fresh[k], "pass {pass}: {}", sets[k]);
        }
    }
}

#[test]
fn contexts_are_counted_where_they_are_prepared() {
    let cfg = MachineConfig::table6();
    let mut b = TraceBuilder::new();
    b.load(Reg::int(1), 0x10_0000);
    b.alu(Reg::int(2), &[Reg::int(1)]);
    let t = b.finish();
    let sim = Simulator::new(&cfg);
    let before = contexts_prepared();
    let ctx = sim.prepare(&t, &[0x10_0000], &[]);
    assert_eq!(contexts_prepared() - before, 1);
    for c in EventClass::ALL {
        let _ = ctx.totals(Idealization::from(c));
    }
    assert_eq!(contexts_prepared() - before, 1, "runs prepare nothing");
    let _ = sim.run_warmed(&t, Idealization::none(), &[], &[]);
    let _ = sim.cycles(&t, Idealization::none());
    assert_eq!(
        contexts_prepared() - before,
        3,
        "one-shot runs prepare one each"
    );
    let other = std::thread::spawn(contexts_prepared).join().expect("join");
    assert_eq!(other, 0, "a fresh thread has prepared nothing");
}

/// One generated instruction: `(kind, register, address/target, taken)`.
type Op = (u8, u8, u16, bool);

/// Build a trace from generated ops: loads and stores over ~2k lines
/// on ~18 pages (more than L1 and the TLBs hold), dependent
/// ALU/long-latency chains, and branches whose direction and target
/// vary (so the predictor both hits and misses).
fn build_trace(ops: &[Op]) -> Trace {
    let mut b = TraceBuilder::at(0x4000);
    for &(kind, reg, addr, taken) in ops {
        let r = Reg::int(1 + reg % 6);
        let src = Reg::int(1 + (reg / 6) % 6);
        let mem = 0x10_0000 + u64::from(addr) * 72;
        match kind % 8 {
            0 => b.load(r, mem),
            1 => b.load_indexed(r, src, mem),
            2 => b.store(src, mem),
            3 => b.alu(r, &[src]),
            4 => b.op(OpClass::IntMult, Some(r), &[src]),
            5 => b.op(OpClass::FpDiv, Some(Reg::fp(1 + reg % 4)), &[]),
            6 => {
                let target = b.pc() + 4 + u64::from(addr % 64) * 4;
                b.branch(src, taken, target)
            }
            _ => b.jump(b.pc() + 4 + u64::from(addr % 32) * 64),
        };
    }
    b.finish()
}

proptest! {
    #[test]
    fn shared_context_matches_fresh_runs_on_random_traces(
        ops in prop::collection::vec((0u8..8, 0u8..36, 0u16..2048, any::<bool>()), 1..160),
        subsets in prop::collection::vec(0u8..=255, 1..6),
        warmed in any::<bool>(),
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&ops);
        // Warm sets as a workload generator would give them: the data
        // lines and code the trace touches (here every other one).
        let (warm_data, warm_code): (Vec<u64>, Vec<u64>) = if warmed {
            (
                trace.iter().filter(|i| i.op.is_mem()).map(|i| i.mem_addr).step_by(2).collect(),
                trace.iter().map(|i| i.pc).step_by(2).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let ctx = Simulator::new(&cfg).prepare(&trace, &warm_data, &warm_code);
        for bits in subsets {
            let set: EventSet = EventClass::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, c)| *c)
                .collect();
            for mode in MODES {
                prop_assert_eq!(
                    ctx.totals_with_mode(Idealization::from(set), mode),
                    reference(&cfg, &trace, set, (&warm_data, &warm_code), mode),
                    "{} {:?} warmed={}", set, mode, warmed
                );
            }
        }
    }
}
