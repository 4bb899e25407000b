//! The counter-track sampler: periodically snapshots one or more
//! metrics [`Registry`]s into Chrome trace-event counter (`ph:"C"`)
//! samples, so `sim.stall.*` accumulation, cache hit rates, and pool
//! occupancy render as time-series tracks in Perfetto alongside the
//! span tree.
//!
//! The sampler is a guard: [`CounterSampler::start`] subscribes the
//! registries to one process-wide sampling thread (spawned on first
//! use), and dropping the guard unsubscribes them and takes one final
//! sample in line, so even a run shorter than the interval gets every
//! metric's closing value on its track. A run is first sampled one
//! interval after it starts, so a short run costs one mutex round trip
//! and its closing sample — no thread spawn or join per run. Sampling
//! is snapshot-based (the registries' own atomic reads), so it never
//! perturbs the instrumented code beyond the snapshot locks.

use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::registry::{lock_unpoisoned, Registry, SnapshotValue};
use crate::span::Tracer;

/// Environment variable overriding the sampling interval, in whole
/// microseconds (`0` or unparseable falls back to the default).
pub const COUNTER_INTERVAL_ENV: &str = "ICOST_COUNTER_INTERVAL_US";

/// Default sampling interval when [`COUNTER_INTERVAL_ENV`] is unset.
pub const DEFAULT_COUNTER_INTERVAL: Duration = Duration::from_micros(2_500);

/// One subscribed run: where to sample, what, and when next.
#[derive(Debug)]
struct Subscription {
    id: u64,
    tracer: Tracer,
    registries: Vec<Registry>,
    interval: Duration,
    due: Instant,
}

/// The subscriptions the process-wide sampling thread serves.
#[derive(Debug, Default)]
struct Board {
    subs: Vec<Subscription>,
    next_id: u64,
    spawned: bool,
    /// The thread is (about to be) parked with nothing due, so a new
    /// subscription must wake it.
    idle: bool,
}

#[derive(Debug, Default)]
struct Shared {
    board: Mutex<Board>,
    cv: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(Shared::default)
}

/// The sampling thread: sample every due subscription, then sleep
/// until the earliest next due time (or a new subscription). Samples
/// are taken under the board lock, so an unsubscribing guard never
/// races a stale sample past its closing one.
fn sampling_loop(shared: &'static Shared) {
    let mut board = lock_unpoisoned(&shared.board);
    loop {
        let now = Instant::now();
        for sub in board.subs.iter_mut().filter(|s| s.due <= now) {
            CounterSampler::sample(&sub.tracer, &sub.registries);
            sub.due = now + sub.interval;
        }
        let next = board.subs.iter().map(|s| s.due).min();
        board.idle = next.is_none();
        // Poison-recovering waits: a client thread that panicked while
        // holding the board must not wedge sampling (the board is
        // consistent between statements).
        board = match next {
            None => shared.cv.wait(board).unwrap_or_else(|e| e.into_inner()),
            Some(due) => {
                let timeout = due.saturating_duration_since(Instant::now());
                let waited = shared.cv.wait_timeout(board, timeout);
                waited.unwrap_or_else(|e| e.into_inner()).0
            }
        };
    }
}

/// A live subscription to the process-wide counter sampler; dropping
/// it unsubscribes and records one final sample.
#[derive(Debug)]
pub struct CounterSampler {
    id: u64,
}

impl CounterSampler {
    /// The sampling interval from [`COUNTER_INTERVAL_ENV`], or the
    /// default.
    pub fn interval_from_env() -> Duration {
        std::env::var(COUNTER_INTERVAL_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&us| us > 0)
            .map(Duration::from_micros)
            .unwrap_or(DEFAULT_COUNTER_INTERVAL)
    }

    /// Sample every registry in `registries` into `tracer` every
    /// `interval` until the returned guard drops.
    pub fn start(tracer: Tracer, registries: Vec<Registry>, interval: Duration) -> CounterSampler {
        let shared = shared();
        let mut board = lock_unpoisoned(&shared.board);
        let id = board.next_id;
        board.next_id += 1;
        board.subs.push(Subscription {
            id,
            tracer,
            registries,
            interval,
            due: Instant::now() + interval,
        });
        if !board.spawned {
            std::thread::Builder::new()
                .name("icost-counter-sampler".into())
                .spawn(move || sampling_loop(shared))
                .expect("spawn counter-sampler thread");
            board.spawned = true;
        } else if board.idle {
            board.idle = false;
            shared.cv.notify_one();
        }
        CounterSampler { id }
    }

    /// Record one sample of every metric in every registry.
    fn sample(tracer: &Tracer, registries: &[Registry]) {
        for registry in registries {
            let snap = registry.snapshot();
            for (name, value) in snap.entries() {
                match value {
                    SnapshotValue::Counter(v) => {
                        tracer.counter("metrics", name.clone(), *v as f64);
                    }
                    SnapshotValue::Gauge(v) => {
                        tracer.counter("metrics", name.clone(), *v as f64);
                    }
                    SnapshotValue::Histogram { count, .. } => {
                        tracer.counter("metrics", format!("{name}.count"), *count as f64);
                    }
                }
            }
            // Derived track: the live cache hit rate, when this looks
            // like a runner registry.
            let reused = snap.counter("runner.cache_hits_mem")
                + snap.counter("runner.cache_hits_disk")
                + snap.counter("runner.jobs_deduped");
            let answered = reused + snap.counter("runner.sims_run");
            if answered > 0 {
                tracer.counter(
                    "metrics",
                    "runner.reuse_pct",
                    100.0 * reused as f64 / answered as f64,
                );
            }
        }
    }
}

impl Drop for CounterSampler {
    fn drop(&mut self) {
        let sub = {
            let mut board = lock_unpoisoned(&shared().board);
            let at = board.subs.iter().position(|s| s.id == self.id);
            at.map(|i| board.subs.swap_remove(i))
        };
        // Closing sample: the tracks end on the final values.
        if let Some(sub) = sub {
            Self::sample(&sub.tracer, &sub.registries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_emits_counter_tracks_and_final_values() {
        let tracer = Tracer::enabled();
        let registry = Registry::new();
        let hits = registry.counter("runner.cache_hits_mem");
        let sims = registry.counter("runner.sims_run");
        registry.gauge("runner.inflight").set(3);
        {
            let _sampler = CounterSampler::start(
                tracer.clone(),
                vec![registry.clone()],
                Duration::from_micros(200),
            );
            hits.add(3);
            sims.inc();
            // The final sample on drop captures these even if the
            // interval never elapsed.
        }
        let events = tracer.events();
        let samples: Vec<_> = events.iter().filter(|e| e.phase == 'C').collect();
        assert!(!samples.is_empty(), "no counter samples recorded");
        let last_hits = samples
            .iter()
            .rev()
            .find(|e| e.name == "runner.cache_hits_mem")
            .expect("hits track present");
        assert_eq!(last_hits.value, Some(3.0));
        let reuse = samples
            .iter()
            .rev()
            .find(|e| e.name == "runner.reuse_pct")
            .expect("derived reuse track present");
        assert_eq!(reuse.value, Some(75.0), "3 of 4 answers reused");
        assert!(samples.iter().any(|e| e.name == "runner.inflight"));
        // The export with counter tracks is still a valid document.
        assert!(crate::json::parse(&tracer.export_json()).is_ok());
    }

    fn samples_of(tracer: &Tracer, name: &str) -> Vec<f64> {
        tracer
            .events()
            .iter()
            .filter(|e| e.phase == 'C' && e.name == name)
            .filter_map(|e| e.value)
            .collect()
    }

    #[test]
    fn short_runs_get_exactly_one_closing_sample() {
        let tracer = Tracer::enabled();
        let registry = Registry::new();
        let sims = registry.counter("runner.sims_run");
        for _ in 0..3 {
            let _sampler = CounterSampler::start(
                tracer.clone(),
                vec![registry.clone()],
                Duration::from_secs(60),
            );
            sims.inc();
        }
        assert_eq!(samples_of(&tracer, "runner.sims_run"), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn long_runs_are_sampled_periodically() {
        let tracer = Tracer::enabled();
        let registry = Registry::new();
        let sims = registry.counter("runner.sims_run");
        {
            let _sampler = CounterSampler::start(
                tracer.clone(),
                vec![registry.clone()],
                Duration::from_millis(2),
            );
            sims.inc();
            let deadline = Instant::now() + Duration::from_secs(10);
            while samples_of(&tracer, "runner.sims_run").is_empty() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            sims.inc();
        }
        let samples = samples_of(&tracer, "runner.sims_run");
        assert!(samples.len() >= 2, "periodic plus closing: {samples:?}");
        assert_eq!(samples.last(), Some(&2.0), "closing sample is final");
    }
}
