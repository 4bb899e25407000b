//! Run telemetry: what the engine actually did, printable as a table
//! and exportable as JSON/CSV.
//!
//! [`RunReport`] is the one accounting record of a batch. Its members
//! are declared once, in the `report_members!` table below: each row
//! names the field, its registry metric, its `report`-ledger member and
//! its merge rule. The live registry-backed counters the oracles
//! increment ([`Metrics`]), [`RunReport::absorb`], [`RunReport::publish`]
//! (and through it `/metrics` and the JSON/CSV exports) and
//! [`RunReport::to_record`] (the `report` ledger line) are generated
//! from that table, so they cannot disagree about what a batch cost.

use std::marker::PhantomData;
use std::ops::AddAssign;
use std::time::Duration;

use uarch_obs::ledger::ReportRecord;
use uarch_obs::{Counter, Gauge, Histogram, Registry, SnapshotValue};
use uarch_sim::{EngineStats, PipelineStalls};

/// The per-simulation cycle-count histogram the [`Tail`] members are
/// interpolated from.
fn sim_cycles(registry: &Registry) -> Histogram {
    const BOUNDS: [u64; 6] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];
    registry.histogram("runner.sim_cycles", &BOUNDS)
}

/// How one member is counted live, merged across batches and published.
pub(crate) trait Rule {
    /// The member's type in [`RunReport`].
    type Value;
    /// The live handle [`Metrics`] keeps for the member.
    type Handle;
    fn bind(registry: &Registry, metric: &str) -> Self::Handle;
    fn read(handle: &Self::Handle) -> Self::Value;
    fn merge(into: &mut Self::Value, from: &Self::Value);
    /// Add the value to (or set it in) `registry`; `simulated` says
    /// whether the batch ran any simulation.
    fn publish(value: &Self::Value, registry: &Registry, metric: &str, simulated: bool);
}

/// A member value the registry and the `report` ledger line carry as
/// one integer: a count, a size, or a wall time in whole microseconds.
pub(crate) trait Count: Copy + Ord + AddAssign {
    fn to_u64(self) -> u64;
    fn from_u64(n: u64) -> Self;
}

impl Count for u64 {
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(n: u64) -> u64 {
        n
    }
}

impl Count for usize {
    fn to_u64(self) -> u64 {
        self as u64
    }
    fn from_u64(n: u64) -> usize {
        n as usize
    }
}

impl Count for Duration {
    fn to_u64(self) -> u64 {
        self.as_micros() as u64
    }
    fn from_u64(n: u64) -> Duration {
        Duration::from_micros(n)
    }
}

/// A count that sums across batches (a registry counter).
pub(crate) struct Sum<T>(PhantomData<T>);

impl<T: Count> Rule for Sum<T> {
    type Value = T;
    type Handle = Counter;
    fn bind(registry: &Registry, metric: &str) -> Counter {
        registry.counter(metric)
    }
    fn read(handle: &Counter) -> T {
        T::from_u64(handle.get())
    }
    fn merge(into: &mut T, from: &T) {
        *into += *from;
    }
    fn publish(value: &T, registry: &Registry, metric: &str, _: bool) {
        registry.counter(metric).add(value.to_u64());
    }
}

/// A size that merges to the larger value (a registry gauge).
pub(crate) struct Max<T>(PhantomData<T>);

impl<T: Count> Rule for Max<T> {
    type Value = T;
    type Handle = Gauge;
    fn bind(registry: &Registry, metric: &str) -> Gauge {
        registry.gauge(metric)
    }
    fn read(handle: &Gauge) -> T {
        T::from_u64(handle.get().max(0) as u64)
    }
    fn merge(into: &mut T, from: &T) {
        *into = (*into).max(*from);
    }
    fn publish(value: &T, registry: &Registry, metric: &str, _: bool) {
        registry.gauge(metric).set(value.to_u64() as i64);
    }
}

/// The `P`th percentile of per-simulation cycle counts, interpolated
/// from the `runner.sim_cycles` histogram (0 before any simulation).
/// Percentiles do not add across batches, so a merge keeps the
/// pessimistic (larger) tail, and publishing sets a gauge only for a
/// batch that simulated: a later batch's estimate replaces the earlier
/// one, and a batch without simulations has none.
pub(crate) struct Tail<const P: u32>;

impl<const P: u32> Rule for Tail<P> {
    type Value = u64;
    type Handle = Histogram;
    fn bind(registry: &Registry, _: &str) -> Histogram {
        sim_cycles(registry)
    }
    fn read(handle: &Histogram) -> u64 {
        let histogram = SnapshotValue::Histogram {
            bounds: handle.bounds().to_vec(),
            counts: handle.bucket_counts(),
            count: handle.count(),
            sum: handle.sum(),
        };
        let p = histogram.quantile(f64::from(P) / 100.0);
        p.map_or(0, |v| v.round() as u64)
    }
    fn merge(into: &mut u64, from: &u64) {
        *into = (*into).max(*from);
    }
    fn publish(value: &u64, registry: &Registry, metric: &str, simulated: bool) {
        if simulated {
            registry.gauge(metric).set(*value as i64);
        }
    }
}

/// Simulated-machine stalls: one summing counter per [`PipelineStalls`]
/// row, named by appending the row name to the metric prefix.
pub(crate) struct Stalls;

impl Rule for Stalls {
    type Value = PipelineStalls;
    type Handle = Vec<Counter>;
    fn bind(registry: &Registry, prefix: &str) -> Vec<Counter> {
        PipelineStalls::default()
            .rows()
            .iter()
            .map(|(name, _)| registry.counter(&format!("{prefix}{name}")))
            .collect()
    }
    fn read(handle: &Vec<Counter>) -> PipelineStalls {
        let mut values = [0u64; 10];
        for (slot, counter) in values.iter_mut().zip(handle) {
            *slot = counter.get();
        }
        PipelineStalls::from_row_values(values)
    }
    fn merge(into: &mut PipelineStalls, from: &PipelineStalls) {
        into.absorb(from);
    }
    fn publish(value: &PipelineStalls, registry: &Registry, prefix: &str, _: bool) {
        for (name, v) in value.rows() {
            registry.counter(&format!("{prefix}{name}")).add(v);
        }
    }
}

/// Writes one table row into a [`ReportRecord`], or nothing for a row
/// whose ledger member is `_`.
macro_rules! ledger_member {
    ($record:ident, _, $value:expr) => {};
    ($record:ident, $member:ident, $value:expr) => {
        $record.$member = Count::to_u64(*$value)
    };
}

/// Declares the batch-accounting members once. A row reads
/// `field [in parent]: "metric" => ledger member, Rule;` — the
/// [`RunReport`] field (`in engine` for a member of the nested
/// [`EngineStats`]), the registry metric it publishes as, the
/// [`ReportRecord`] member that carries it (`_` for none) and its
/// [`Rule`]. [`Metrics`] (one live handle per row), its
/// [`Metrics::report`], [`RunReport::absorb`], [`RunReport::publish`]
/// and [`RunReport::to_record`] are generated from the rows.
macro_rules! report_members {
    ($($field:ident $(in $parent:ident)?: $metric:literal => $member:tt, $rule:ty;)*) => {
        /// Registry-backed live counters for one oracle, one handle per
        /// accounting member. This is what the engine actually
        /// increments; [`Metrics::report`] snapshots it into a
        /// [`RunReport`].
        #[derive(Debug)]
        pub(crate) struct Metrics {
            registry: Registry,
            /// Distribution of per-simulation cycle counts.
            pub(crate) sim_cycles: Histogram,
            $(pub(crate) $field: <$rule as Rule>::Handle,)*
        }

        impl Metrics {
            /// Fresh metrics in a fresh registry.
            pub fn new(threads: usize) -> Metrics {
                let registry = Registry::new();
                let m = Metrics {
                    sim_cycles: sim_cycles(&registry),
                    $($field: <$rule as Rule>::bind(&registry, $metric),)*
                    registry,
                };
                m.threads.set(threads as i64);
                m
            }

            /// Snapshot the live counters into a plain [`RunReport`] view.
            pub fn report(&self) -> RunReport {
                let mut report = RunReport::default();
                $(report$(.$parent)?.$field = <$rule as Rule>::read(&self.$field);)*
                report
            }
        }

        impl RunReport {
            /// Fold another report's counters and timings into this one.
            pub fn absorb(&mut self, other: &RunReport) {
                $(<$rule as Rule>::merge(&mut self$(.$parent)?.$field, &other$(.$parent)?.$field);)*
            }

            /// Publish every member into `registry` (adding to whatever
            /// is already there, so publishing several reports
            /// accumulates).
            pub fn publish(&self, registry: &Registry) {
                let simulated = self.sims_run > 0;
                $(<$rule as Rule>::publish(&self$(.$parent)?.$field, registry, $metric, simulated);)*
            }

            /// The batch's `report` ledger record under run id `run`
            /// (its `trace` is stamped by `Ledger::append`).
            pub fn to_record(&self, run: u64) -> ReportRecord {
                let mut record = ReportRecord {
                    run,
                    ..ReportRecord::default()
                };
                $(ledger_member!(record, $member, &self$(.$parent)?.$field);)*
                record
            }
        }
    };
}

report_members! {
    queries: "runner.queries" => queries, Sum<u64>;
    jobs_requested: "runner.jobs_requested" => jobs, Sum<u64>;
    jobs_deduped: "runner.jobs_deduped" => deduped, Sum<u64>;
    cache_hits: "runner.cache_hits_mem" => cache_hits, Sum<u64>;
    disk_hits: "runner.cache_hits_disk" => disk_hits, Sum<u64>;
    sims_run: "runner.sims_run" => sims_run, Sum<u64>;
    cycles_simulated: "runner.cycles_simulated" => cycles, Sum<u64>;
    insts_simulated: "runner.insts_simulated" => insts, Sum<u64>;
    threads: "runner.threads" => threads, Max<usize>;
    expand_wall: "runner.expand_wall_us" => expand_us, Sum<Duration>;
    sim_wall: "runner.sim_wall_us" => sim_us, Sum<Duration>;
    sim_cycles_p50: "runner.sim_cycles_p50" => _, Tail<50>;
    sim_cycles_p95: "runner.sim_cycles_p95" => _, Tail<95>;
    sim_cycles_p99: "runner.sim_cycles_p99" => _, Tail<99>;
    stalls: "sim.stall." => _, Stalls;
    ticked_cycles in engine: "sim.event.ticks" => _, Sum<u64>;
    skipped_cycles in engine: "sim.skipped_cycles" => skipped, Sum<u64>;
    idle_spans in engine: "sim.event.spans" => _, Sum<u64>;
}

impl Metrics {
    /// The registry the counters live in (for full snapshots that
    /// include the histogram).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Book one executed simulation of `insts` instructions: its cycle
    /// count, stall counters and run-loop telemetry (ticked vs skipped).
    pub fn count_sim(
        &self,
        insts: u64,
        cycles: u64,
        stalls: &PipelineStalls,
        engine: &EngineStats,
    ) {
        self.sims_run.inc();
        self.insts_simulated.add(insts);
        self.cycles_simulated.add(cycles);
        self.sim_cycles.record(cycles);
        for (counter, (_, v)) in self.stalls.iter().zip(stalls.rows()) {
            counter.add(v);
        }
        self.ticked_cycles.add(engine.ticked_cycles);
        self.skipped_cycles.add(engine.skipped_cycles);
        self.idle_spans.add(engine.idle_spans);
    }

    /// Zero everything, keeping the thread gauge.
    pub fn reset(&self) {
        let threads = self.threads.get();
        self.registry.reset();
        self.threads.set(threads);
    }
}

/// Counters and phase timings for one oracle / batch run.
///
/// Every `cost(S)` request a simulation oracle sees ends in exactly one
/// of: answered from memory or disk (`cache_hits`/`disk_hits`),
/// collapsed onto an identical in-flight or already-requested job
/// (`jobs_deduped`), or simulated (`sims_run`). Dependence-graph kernel
/// evaluations are not simulations: a graph batch reports its cache
/// traffic here and its kernel work in the graph oracle's own `graph.*`
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// `cost`/`baseline` queries answered (including trivial `∅` ones).
    pub queries: u64,
    /// Jobs requested before dedup/cache screening.
    pub jobs_requested: u64,
    /// Requests collapsed because an identical job was already requested
    /// in the same batch or answered earlier.
    pub jobs_deduped: u64,
    /// Requests answered by in-memory entries this process computed.
    pub cache_hits: u64,
    /// Requests answered by entries the on-disk cache layer contributed.
    pub disk_hits: u64,
    /// Cycle-level simulations actually executed.
    pub sims_run: u64,
    /// Total simulated cycles across `sims_run`.
    pub cycles_simulated: u64,
    /// Total dynamic instructions fed to the simulator.
    pub insts_simulated: u64,
    /// Worker threads available to parallel waves.
    pub threads: usize,
    /// Wall time spent expanding/deduplicating/screening queries.
    pub expand_wall: Duration,
    /// Wall time spent inside simulation waves (parallel or inline).
    pub sim_wall: Duration,
    /// Approximate median per-simulation cycle count, interpolated from
    /// the fixed-bucket `runner.sim_cycles` histogram (0 before any
    /// simulation).
    pub sim_cycles_p50: u64,
    /// Approximate 95th-percentile per-simulation cycle count.
    pub sim_cycles_p95: u64,
    /// Approximate 99th-percentile per-simulation cycle count.
    pub sim_cycles_p99: u64,
    /// Simulated-machine pipeline stalls, summed over every simulation
    /// this report covers (idealized runs included).
    pub stalls: PipelineStalls,
    /// Run-loop telemetry summed over every simulation: cycles actually
    /// ticked vs skipped by the discrete-event scheduler, and how many
    /// idle spans were bulk-attributed.
    pub engine: EngineStats,
}

impl RunReport {
    /// A zeroed report for `threads` workers.
    pub fn new(threads: usize) -> RunReport {
        RunReport {
            threads,
            ..RunReport::default()
        }
    }

    /// Fraction of non-empty requests that skipped simulation, in
    /// `[0, 1]`; `None` before any requests. Disk-served answers are
    /// reused work, so they count toward reuse exactly like memory hits
    /// and dedups.
    pub fn reuse_rate(&self) -> Option<f64> {
        let reused = self.jobs_deduped + self.cache_hits + self.disk_hits;
        let answered = reused + self.sims_run;
        if answered == 0 {
            return None;
        }
        Some(reused as f64 / answered as f64)
    }

    /// Per-tier breakdown of [`RunReport::reuse_rate`]: the fractions of
    /// answered requests served by in-memory hits, disk hits, and dedup
    /// collapses respectively (each in `[0, 1]`; they sum to the merged
    /// reuse rate). `None` before any requests.
    pub fn reuse_split(&self) -> Option<(f64, f64, f64)> {
        let answered = self.jobs_deduped + self.cache_hits + self.disk_hits + self.sims_run;
        if answered == 0 {
            return None;
        }
        let frac = |n: u64| n as f64 / answered as f64;
        Some((
            frac(self.cache_hits),
            frac(self.disk_hits),
            frac(self.jobs_deduped),
        ))
    }

    /// The report as a standalone metrics registry (the snapshot/JSON/
    /// CSV substrate).
    pub fn to_registry(&self) -> Registry {
        let registry = Registry::new();
        self.publish(&registry);
        registry
    }

    /// Render as a JSON metrics snapshot.
    pub fn to_json(&self) -> String {
        self.to_registry().snapshot().to_json()
    }

    /// Render as a CSV metrics snapshot.
    pub fn to_csv(&self) -> String {
        self.to_registry().snapshot().to_csv()
    }

    /// Render as an aligned two-column table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| out.push_str(&format!("  {k:<24} {v:>14}\n"));
        row("queries", self.queries.to_string());
        row("jobs requested", self.jobs_requested.to_string());
        row("jobs deduped", self.jobs_deduped.to_string());
        row("cache hits (memory)", self.cache_hits.to_string());
        row("cache hits (disk)", self.disk_hits.to_string());
        row("simulations run", self.sims_run.to_string());
        row("cycles simulated", self.cycles_simulated.to_string());
        row("insts simulated", self.insts_simulated.to_string());
        row("threads", self.threads.to_string());
        row("expand wall", format!("{:.3?}", self.expand_wall));
        row("simulate wall", format!("{:.3?}", self.sim_wall));
        if self.sims_run > 0 && self.sim_cycles_p50 > 0 {
            row("sim cycles p50", format!("~{}", self.sim_cycles_p50));
            row("sim cycles p95", format!("~{}", self.sim_cycles_p95));
            row("sim cycles p99", format!("~{}", self.sim_cycles_p99));
        }
        if let (Some(r), Some((mem, disk, dedup))) = (self.reuse_rate(), self.reuse_split()) {
            row("reuse rate", format!("{:.1}%", 100.0 * r));
            row("  reuse from memory", format!("{:.1}%", 100.0 * mem));
            row("  reuse from disk", format!("{:.1}%", 100.0 * disk));
            row("  reuse from dedup", format!("{:.1}%", 100.0 * dedup));
        }
        if self.stalls.total() > 0 {
            out.push_str("  simulated-machine stalls by cause:\n");
            for (name, v) in self.stalls.rows() {
                if v > 0 {
                    out.push_str(&format!("    stall.{name:<20} {v:>14}\n"));
                }
            }
        }
        if self.engine.skipped_cycles > 0 {
            out.push_str(&format!(
                "  {:<24} {:>14}\n  {:<24} {:>14}\n",
                "cycles skipped", self.engine.skipped_cycles, "idle spans", self.engine.idle_spans
            ));
        }
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = RunReport::new(2);
        a.sims_run = 3;
        a.cache_hits = 1;
        a.stalls.issue_fu_busy = 2;
        let mut b = RunReport::new(4);
        b.sims_run = 2;
        b.jobs_deduped = 5;
        b.stalls.issue_fu_busy = 3;
        a.absorb(&b);
        assert_eq!(a.sims_run, 5);
        assert_eq!(a.jobs_deduped, 5);
        assert_eq!(a.threads, 4);
        assert_eq!(a.stalls.issue_fu_busy, 5);
        // (1 + 5) reused of the 11 answered requests.
        assert!((a.reuse_rate().unwrap() - 6.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn record_carries_every_ledger_member() {
        let mut r = RunReport::new(4);
        (r.queries, r.jobs_requested, r.jobs_deduped) = (1, 2, 3);
        (r.cache_hits, r.disk_hits, r.sims_run) = (5, 6, 7);
        (r.cycles_simulated, r.insts_simulated) = (8, 9);
        r.expand_wall = Duration::from_micros(10);
        r.sim_wall = Duration::from_micros(11);
        r.engine.skipped_cycles = 12;
        assert_eq!(
            r.to_record(42),
            ReportRecord {
                run: 42,
                queries: 1,
                jobs: 2,
                deduped: 3,
                cache_hits: 5,
                disk_hits: 6,
                sims_run: 7,
                cycles: 8,
                insts: 9,
                threads: 4,
                expand_us: 10,
                sim_us: 11,
                skipped: 12,
                trace: String::new(),
            }
        );
    }

    #[test]
    fn reuse_rate_counts_disk_hits_as_reuse() {
        // Regression for the disk-layer bug: two disk-served answers and
        // two fresh simulations is a 50% reuse rate, not 0%.
        let mut r = RunReport::new(1);
        r.disk_hits = 2;
        r.sims_run = 2;
        assert_eq!(r.reuse_rate(), Some(0.5));
        // All-disk runs are 100% reuse.
        let mut all_disk = RunReport::new(1);
        all_disk.disk_hits = 4;
        assert_eq!(all_disk.reuse_rate(), Some(1.0));
    }

    #[test]
    fn reuse_split_separates_tiers_and_sums_to_rate() {
        let mut r = RunReport::new(1);
        r.cache_hits = 3;
        r.disk_hits = 2;
        r.jobs_deduped = 1;
        r.sims_run = 4;
        let (mem, disk, dedup) = r.reuse_split().unwrap();
        assert!((mem - 0.3).abs() < 1e-9);
        assert!((disk - 0.2).abs() < 1e-9);
        assert!((dedup - 0.1).abs() < 1e-9);
        assert!((mem + disk + dedup - r.reuse_rate().unwrap()).abs() < 1e-9);
        assert_eq!(RunReport::new(1).reuse_split(), None);
        // The table carries the split rows, not just the merged rate.
        let t = r.to_table();
        assert!(t.contains("reuse from memory"));
        assert!(t.contains("reuse from disk"));
        assert!(t.contains("reuse from dedup"));
        assert!(t.contains("30.0%") && t.contains("20.0%") && t.contains("10.0%"));
    }

    #[test]
    fn table_lists_every_counter() {
        let r = RunReport::new(8);
        let t = r.to_table();
        for key in [
            "queries",
            "jobs requested",
            "jobs deduped",
            "cache hits (memory)",
            "cache hits (disk)",
            "simulations run",
            "threads",
        ] {
            assert!(t.contains(key), "missing {key} in:\n{t}");
        }
        assert!(r.reuse_rate().is_none());
        // Stall section appears only when stalls were recorded.
        assert!(!t.contains("stall."));
        let mut s = RunReport::new(1);
        s.stalls.dispatch_window_full = 9;
        assert!(s.to_table().contains("stall.dispatch_window_full"));
    }

    #[test]
    fn metrics_snapshot_roundtrips_to_report() {
        let m = Metrics::new(3);
        m.queries.add(2);
        let stalls = PipelineStalls {
            load_mem_fill: 7,
            ..PipelineStalls::default()
        };
        m.count_sim(50, 1234, &stalls, &EngineStats::default());
        let r = m.report();
        assert_eq!(r.queries, 2);
        assert_eq!(r.sims_run, 1);
        assert_eq!(r.cycles_simulated, 1234);
        assert_eq!(r.insts_simulated, 50);
        assert_eq!(r.threads, 3);
        assert_eq!(r.stalls.load_mem_fill, 7);
        m.reset();
        let r2 = m.report();
        assert_eq!(r2.sims_run, 0);
        assert_eq!(r2.threads, 3, "reset keeps the thread gauge");
    }

    #[test]
    fn report_carries_sim_cycle_percentiles() {
        let m = Metrics::new(1);
        // 100 samples spread across the first bucket (bound 1_000): the
        // estimates interpolate within it and order correctly.
        for _ in 0..100 {
            m.count_sim(1, 500, &PipelineStalls::default(), &EngineStats::default());
        }
        let r = m.report();
        assert!(r.sim_cycles_p50 > 0);
        assert!(r.sim_cycles_p50 <= r.sim_cycles_p95);
        assert!(r.sim_cycles_p95 <= r.sim_cycles_p99);
        assert!(r.sim_cycles_p99 <= 1_000, "all samples in first bucket");
        let t = r.to_table();
        assert!(t.contains("sim cycles p50"), "table renders p50:\n{t}");
        assert!(t.contains("sim cycles p99"));
        // Publishing exposes the estimates as gauges.
        let reg = r.to_registry();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("runner.sim_cycles_p50"), r.sim_cycles_p50 as i64);
        assert_eq!(snap.gauge("runner.sim_cycles_p99"), r.sim_cycles_p99 as i64);
        // absorb keeps the larger tail estimate.
        let mut a = r.clone();
        let mut b = RunReport::new(1);
        b.sim_cycles_p99 = 5_000_000;
        a.absorb(&b);
        assert_eq!(a.sim_cycles_p99, 5_000_000);
        // A report with no simulations renders no percentile rows and
        // publishes no gauges.
        let empty = RunReport::new(1);
        assert!(!empty.to_table().contains("sim cycles p50"));
        assert_eq!(
            empty
                .to_registry()
                .snapshot()
                .gauge("runner.sim_cycles_p50"),
            0
        );
    }

    #[test]
    fn report_exports_parse_and_carry_values() {
        let mut r = RunReport::new(2);
        r.sims_run = 4;
        r.stalls.fetch_bmisp_recovery = 11;
        let doc = uarch_obs::json::parse(&r.to_json()).expect("valid JSON");
        let counters = doc.get("counters").expect("counters section");
        assert_eq!(
            counters.get("runner.sims_run").and_then(|v| v.as_num()),
            Some(4.0)
        );
        assert_eq!(
            counters
                .get("sim.stall.fetch_bmisp_recovery")
                .and_then(|v| v.as_num()),
            Some(11.0)
        );
        let csv = r.to_csv();
        assert!(csv.starts_with("name,type,value\n"));
        assert!(csv.contains("runner.sims_run,counter,4"));
    }
}
