//! Residual calibration: how far the graph kernel strays from ground
//! truth, per analysis context.
//!
//! Every time the planner (or anyone else) holds a graph answer and a
//! simulation answer for the same `cost(S)`, the absolute residual
//! `|graph − sim|` is one sample of the graph's fidelity for that
//! workload context. The [`Calibrator`] accumulates those samples keyed
//! by `(sim context, graph context)` and fits a per-set tolerance from
//! a configurable quantile times a safety factor — the number the
//! confidence model turns into "how wrong could this graph answer be".
//!
//! Samples arrive two ways: incrementally, as the planner escalates
//! queries and pairs the fresh ground truth against the graph answers
//! it just rejected; and at startup, by replaying `calib` records from
//! the JSONL run ledger ([`Calibrator::replay`]), so a restarted server
//! does not begin life uncalibrated.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use uarch_obs::ledger::{CalibRecord, LedgerRecord};

use crate::PlanConfig;

/// Residual samples kept per `(sim ctx, graph ctx)` pair; beyond this
/// the oldest sample rolls off so the fit tracks the recent regime.
const MAX_SAMPLES: usize = 4096;

/// Sentinel `set` name on a `calib` ledger record that marks a context
/// pair refuted by the attribution auditor instead of carrying a
/// residual sample. `:` cannot appear in a real `EventSet` display
/// name, so the sentinel can never collide with an observed set.
pub const AUDIT_REFUTED_SET: &str = "audit:refuted";

/// Absolute residuals per `(sim ctx, graph ctx)` pair, oldest first.
type ResidualStore = BTreeMap<(String, String), VecDeque<u64>>;

#[derive(Debug, Default)]
struct CalibratorInner {
    residuals: ResidualStore,
    /// Context pairs whose graph-side attributions the audit plane has
    /// refuted against hardware-style counters: the planner must not
    /// serve graph answers for these until recalibrated.
    refuted: BTreeSet<(String, String)>,
}

/// Shared, thread-safe store of per-context residual history. Cloning
/// hands out another handle to the same store, so a long-lived server
/// can thread one calibrator through every planner it builds.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    inner: Arc<Mutex<CalibratorInner>>,
}

/// One context pair's fitted state (the `icost-obs plan` view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextCalibration {
    /// Ground-truth (simulation) context fingerprint.
    pub sim_ctx: String,
    /// Graph-oracle context fingerprint.
    pub graph_ctx: String,
    /// Residual samples currently held.
    pub samples: usize,
    /// Median absolute residual, in cycles.
    pub p50: u64,
    /// 95th-percentile absolute residual, in cycles.
    pub p95: u64,
    /// Largest absolute residual seen, in cycles.
    pub max: u64,
    /// The per-set tolerance the confidence model uses, or `None`
    /// while under `min_samples`.
    pub tolerance: Option<u64>,
    /// Whether the attribution auditor has refuted this context pair
    /// (see [`Calibrator::mark_refuted`]).
    pub refuted: bool,
}

impl Calibrator {
    /// An empty calibrator.
    pub fn new() -> Calibrator {
        Calibrator::default()
    }

    /// Record one paired observation of `cost(set)`: `graph_cost` from
    /// the dependence-graph kernel, `sim_cost` from re-simulation.
    pub fn observe(&self, sim_ctx: &str, graph_ctx: &str, graph_cost: i64, sim_cost: i64) {
        let residual = graph_cost.abs_diff(sim_cost);
        let mut inner = self.inner.lock().expect("calibrator poisoned");
        let samples = inner
            .residuals
            .entry((sim_ctx.to_string(), graph_ctx.to_string()))
            .or_default();
        if samples.len() >= MAX_SAMPLES {
            samples.pop_front();
        }
        samples.push_back(residual);
    }

    /// Mark a context pair as refuted by the attribution auditor and
    /// log the decision as a `calib` update (a record whose `set` is
    /// the [`AUDIT_REFUTED_SET`] sentinel), so a replaying restart
    /// restores the escalation rule. Idempotent.
    pub fn mark_refuted(&self, sim_ctx: &str, graph_ctx: &str) {
        let fresh = self
            .inner
            .lock()
            .expect("calibrator poisoned")
            .refuted
            .insert((sim_ctx.to_string(), graph_ctx.to_string()));
        let ledger = uarch_obs::ledger::global();
        if fresh && ledger.wants_records() {
            ledger.append(&LedgerRecord::Calib(CalibRecord {
                sim_ctx: sim_ctx.to_string(),
                graph_ctx: graph_ctx.to_string(),
                set: AUDIT_REFUTED_SET.to_string(),
                graph_cost: 0,
                sim_cost: 0,
            }));
            let _ = ledger.flush();
        }
    }

    /// Whether the attribution auditor has refuted this context pair.
    pub fn is_refuted(&self, sim_ctx: &str, graph_ctx: &str) -> bool {
        self.inner
            .lock()
            .expect("calibrator poisoned")
            .refuted
            .contains(&(sim_ctx.to_string(), graph_ctx.to_string()))
    }

    /// Absorb every `calib` record in `records`; returns how many were
    /// absorbed. Refutation sentinels restore the refuted set instead
    /// of contributing a (fake) zero residual. Non-calib records are
    /// ignored, so callers can feed a whole parsed ledger straight
    /// through.
    pub fn replay(&self, records: &[LedgerRecord]) -> usize {
        let mut absorbed = 0;
        for record in records {
            if let LedgerRecord::Calib(c) = record {
                if c.set == AUDIT_REFUTED_SET {
                    self.inner
                        .lock()
                        .expect("calibrator poisoned")
                        .refuted
                        .insert((c.sim_ctx.clone(), c.graph_ctx.clone()));
                } else {
                    self.observe(&c.sim_ctx, &c.graph_ctx, c.graph_cost, c.sim_cost);
                }
                absorbed += 1;
            }
        }
        absorbed
    }

    /// Absorb `calib` records from raw ledger text, tolerating record
    /// kinds from the future; returns how many were absorbed.
    pub fn replay_text(&self, text: &str) -> Result<usize, String> {
        let (records, _skipped) = uarch_obs::ledger::parse_ledger_lenient(text)?;
        Ok(self.replay(&records))
    }

    /// Residual samples held for one context pair.
    pub fn samples(&self, sim_ctx: &str, graph_ctx: &str) -> usize {
        self.inner
            .lock()
            .expect("calibrator poisoned")
            .residuals
            .get(&(sim_ctx.to_string(), graph_ctx.to_string()))
            .map_or(0, VecDeque::len)
    }

    /// The fitted per-set tolerance for one context pair: the
    /// configured residual quantile times the safety factor, floored at
    /// `tolerance_floor`. `None` until `min_samples` observations exist
    /// — an uncalibrated context must escalate, not guess.
    pub fn tolerance(&self, sim_ctx: &str, graph_ctx: &str, cfg: &PlanConfig) -> Option<u64> {
        let inner = self.inner.lock().expect("calibrator poisoned");
        let samples = inner
            .residuals
            .get(&(sim_ctx.to_string(), graph_ctx.to_string()))?;
        if samples.len() < cfg.min_samples.max(1) {
            return None;
        }
        let q = quantile(samples, cfg.quantile);
        Some(((q as f64 * cfg.safety).ceil() as u64).max(cfg.tolerance_floor))
    }

    /// Fitted state for every context pair, sorted by context ids.
    pub fn snapshot(&self, cfg: &PlanConfig) -> Vec<ContextCalibration> {
        let inner = self.inner.lock().expect("calibrator poisoned");
        inner
            .residuals
            .iter()
            .map(|((sim_ctx, graph_ctx), samples)| {
                let tolerance = (samples.len() >= cfg.min_samples.max(1)).then(|| {
                    ((quantile(samples, cfg.quantile) as f64 * cfg.safety).ceil() as u64)
                        .max(cfg.tolerance_floor)
                });
                ContextCalibration {
                    sim_ctx: sim_ctx.clone(),
                    graph_ctx: graph_ctx.clone(),
                    samples: samples.len(),
                    p50: quantile(samples, 0.5),
                    p95: quantile(samples, 0.95),
                    max: samples.iter().copied().max().unwrap_or(0),
                    tolerance,
                    refuted: inner
                        .refuted
                        .contains(&(sim_ctx.clone(), graph_ctx.clone())),
                }
            })
            .collect()
    }
}

/// The `q`-quantile of `samples` (nearest-rank, clamped to [0, 1]).
fn quantile(samples: &VecDeque<u64>, q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted: Vec<u64> = samples.iter().copied().collect();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_obs::ledger::CalibRecord;

    fn cfg(min_samples: usize) -> PlanConfig {
        PlanConfig {
            min_samples,
            ..PlanConfig::default()
        }
    }

    #[test]
    fn tolerance_needs_min_samples_then_tracks_quantile() {
        let c = Calibrator::new();
        let cfg = cfg(4);
        assert_eq!(c.tolerance("s", "g", &cfg), None, "empty: uncalibrated");
        for r in [0i64, 1, 2, 3] {
            c.observe("s", "g", r, 0);
        }
        let tol = c.tolerance("s", "g", &cfg).expect("calibrated");
        // q95 of {0,1,2,3} is 3; default safety doubles it.
        assert_eq!(tol, (3.0 * cfg.safety).ceil() as u64);
        assert_eq!(c.samples("s", "g"), 4);
        assert_eq!(c.samples("s", "other"), 0, "pairs are independent");
    }

    #[test]
    fn residuals_are_absolute_and_floored() {
        let c = Calibrator::new();
        let mut cfg = cfg(1);
        cfg.tolerance_floor = 5;
        c.observe("s", "g", -10, -10);
        assert_eq!(
            c.tolerance("s", "g", &cfg),
            Some(5),
            "perfect agreement still floors"
        );
        c.observe("s", "g", -10, 10);
        let snap = c.snapshot(&cfg);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].max, 20, "residual is |graph - sim|");
    }

    #[test]
    fn replay_absorbs_only_calib_records() {
        let c = Calibrator::new();
        let calib = LedgerRecord::Calib(CalibRecord {
            sim_ctx: "s".into(),
            graph_ctx: "g".into(),
            set: "dmiss".into(),
            graph_cost: 100,
            sim_cost: 93,
        });
        let text = format!(
            "{}\n{{\"kind\":\"future\",\"x\":1}}\n{}\n",
            calib.to_json_line(),
            calib.to_json_line()
        );
        assert_eq!(c.replay_text(&text).expect("lenient"), 2);
        assert_eq!(c.samples("s", "g"), 2);
        let mut cfg = cfg(2);
        cfg.safety = 1.0;
        cfg.tolerance_floor = 1;
        assert_eq!(c.tolerance("s", "g", &cfg), Some(7));
    }

    #[test]
    fn refutation_marks_survive_replay_without_fake_residuals() {
        let c = Calibrator::new();
        assert!(!c.is_refuted("s", "g"));
        c.mark_refuted("s", "g");
        c.mark_refuted("s", "g"); // idempotent
        assert!(c.is_refuted("s", "g"));
        assert!(!c.is_refuted("s", "other"), "pairs are independent");
        assert_eq!(c.samples("s", "g"), 0, "no residual sample is faked");

        // The sentinel record restores the refuted set on replay, and
        // still does not pollute the residual history.
        let sentinel = LedgerRecord::Calib(CalibRecord {
            sim_ctx: "s2".into(),
            graph_ctx: "g2".into(),
            set: AUDIT_REFUTED_SET.into(),
            graph_cost: 0,
            sim_cost: 0,
        });
        let replayed = Calibrator::new();
        assert_eq!(replayed.replay(&[sentinel]), 1);
        assert!(replayed.is_refuted("s2", "g2"));
        assert_eq!(replayed.samples("s2", "g2"), 0);

        // Snapshot surfaces refutation next to the residual fit.
        c.observe("s", "g", 10, 7);
        let snap = c.snapshot(&cfg(1));
        assert_eq!(snap.len(), 1);
        assert!(snap[0].refuted);
    }

    #[test]
    fn sample_window_is_bounded() {
        let c = Calibrator::new();
        for i in 0..(MAX_SAMPLES as i64 + 100) {
            c.observe("s", "g", i, 0);
        }
        assert_eq!(c.samples("s", "g"), MAX_SAMPLES, "oldest rolled off");
    }
}
