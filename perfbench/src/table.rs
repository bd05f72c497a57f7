//! `table-resize`: the paper's continuous-resize experiment, in process.
//!
//! An `RpHashMap<u64, u64>` holds 8192 keys. One reader thread looks up
//! present keys uniformly at random, each lookup inside its own default
//! `pin()` guard (EBR), while one resizer thread calls `resize_to`,
//! alternating 8192 and 16384 buckets on a fixed schedule (open loop). A
//! lookup of a present key that returns nothing, or the wrong value,
//! breaks the paper's safety property and counts as a failed operation.
//!
//! The reader is pinned to the CPU the host lets run fastest as the run
//! starts; the resizer is left to the scheduler, which wakes it on the
//! other CPU, so the two run at the same time, as the paper's property
//! requires. (A neighbour's load on the host falls on one virtual CPU at a
//! time, for seconds to minutes; an unpinned reader sat on a slow one for
//! whole runs.)

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use rp_hash::RpHashMap;

use crate::trace::MainThread;
use crate::util::{calm_median, now_ns, pin_to, release_free_memory, Recorder, Rng};

pub const KEYS: usize = 8192;
pub const SMALL: usize = 8192;
pub const LARGE: usize = 16384;
/// The resizer starts one `resize_to` per period. A resize takes well under
/// a period on a two-CPU host, so resize speed shows in `resize_us` and
/// never changes how much load the reader sees.
const RESIZE_PERIOD: Duration = Duration::from_millis(5);
/// Lookups between two reads of the phase flag.
const BATCH: u64 = 256;
/// One lookup in this many is timed (two clock reads around `pin`, `get`
/// and the guard's drop).
pub const TIMED_EVERY: u64 = 64;

const WARMUP: Duration = Duration::from_millis(300);
/// Fills timed per call of [`setup`], and how many make a group for
/// [`calm_median`].
const SETUP_REPS: usize = 50;
pub const SETUP_GROUP: usize = 5;
/// Expands (and shrinks) in a group for [`calm_median`]: 100 ms of the
/// resizer's schedule.
const RESIZE_GROUP: usize = 10;
/// Traced lookups kept as spans.
const SPAN_CAP: usize = 1 << 20;

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

pub type Table = RpHashMap<u64, u64>;

pub fn value_of(key: u64) -> u64 {
    key.rotate_left(17) ^ 0x5bd1_e995_5bd1_e995
}

/// The workload's input: 8192 distinct keys drawn from the seed.
pub fn keys(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::with_capacity(KEYS);
    let mut keys = Vec::with_capacity(KEYS);
    while keys.len() < KEYS {
        let key = rng.next_u64();
        if seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

pub fn fill(keys: &[u64]) -> Table {
    let map = RpHashMap::with_buckets(SMALL);
    for &key in keys {
        map.insert(key, value_of(key));
    }
    map
}

/// Fills a fresh table `SETUP_REPS` times; returns the last table and each
/// fill's time in seconds.
pub fn setup(keys: &[u64]) -> (Table, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut map = None;
    for _ in 0..SETUP_REPS {
        drop(map.take());
        // Each fill starts from memory fresh from the kernel, as a new
        // process's would: refilling the pages the last table freed ran at
        // one of two speeds, fixed for the life of a process.
        release_free_memory();
        let start = Instant::now();
        map = Some(fill(keys));
        times.push(start.elapsed().as_secs_f64());
    }
    (map.expect("at least one fill"), times)
}

pub struct Window {
    pub lookups: u64,
    pub failed: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Lookups completed and timed lookups' latencies, per slice.
    pub recorder: Recorder,
    /// Lookups timed for latency.
    pub timed: u64,
    /// Durations of the expands and of the shrinks started inside the
    /// window, in microseconds.
    pub expand_us: Vec<f64>,
    pub shrink_us: Vec<f64>,
    /// How late the resizer started its latest resize, in microseconds.
    pub max_lateness_us: f64,
    /// `(start, end)` of each traced lookup, when traced.
    pub spans: Vec<(u64, u64)>,
}

/// Runs reader (on `reader_cpu`) and resizer for a warm-up and then
/// `seconds`, while the calling thread does `main`'s job.
pub fn run(
    map: &Table,
    keys: &[u64],
    seed: u64,
    seconds: f64,
    traced: bool,
    reader_cpu: usize,
    main: &mut MainThread,
) -> Window {
    let phase = AtomicU8::new(WARM);
    let failed = AtomicU64::new(0);
    let (phase, failed) = (&phase, &failed);
    let (reader_out, resizer_out, start_ns, end_ns) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            pin_to(reader_cpu).expect("the reader can be pinned to an allowed CPU");
            let mut rng = Rng::new(seed ^ 0x7265_6164);
            let mut recorder = Recorder::new();
            let mut spans = Vec::new();
            let (mut lookups, mut timed_n, mut bad) = (0u64, 0u64, 0u64);
            loop {
                let now = phase.load(Ordering::Relaxed);
                if now == STOP {
                    break;
                }
                let measuring = now == MEASURE;
                for i in 0..BATCH {
                    let key = keys[rng.below(KEYS)];
                    let timed = traced || i % TIMED_EVERY == 0;
                    let start = if timed { now_ns() } else { 0 };
                    let guard = map.pin();
                    let found = map.get(&key, &guard).copied();
                    drop(guard);
                    if timed && measuring {
                        let end = now_ns();
                        if !traced {
                            recorder.latency(end, end - start);
                            timed_n += 1;
                        } else if spans.len() < SPAN_CAP {
                            spans.push((start, end));
                        }
                    }
                    if found != Some(value_of(key)) {
                        bad += 1;
                    }
                    black_box(found);
                }
                if measuring {
                    recorder.done(now_ns(), BATCH);
                    lookups += BATCH;
                }
            }
            failed.store(bad, Ordering::Relaxed);
            (recorder, spans, lookups, timed_n)
        });
        let resizer = s.spawn(|| {
            let (mut expands, mut shrinks) = (Vec::new(), Vec::new());
            let mut max_late = 0.0f64;
            let mut due = Instant::now();
            let mut grow = true;
            loop {
                let now = phase.load(Ordering::Relaxed);
                if now == STOP {
                    break;
                }
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let start = Instant::now();
                map.resize_to(if grow { LARGE } else { SMALL });
                if now == MEASURE {
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    if grow { &mut expands } else { &mut shrinks }.push(us);
                    max_late = max_late.max(start.duration_since(due).as_secs_f64() * 1e6);
                }
                grow = !grow;
                due += RESIZE_PERIOD;
            }
            // Leave the table as it was filled.
            map.resize_to(SMALL);
            (expands, shrinks, max_late)
        });
        std::thread::sleep(WARMUP);
        let start_ns = now_ns();
        phase.store(MEASURE, Ordering::Relaxed);
        main.run_for(Duration::from_secs_f64(seconds));
        phase.store(STOP, Ordering::Relaxed);
        let end_ns = now_ns();
        let reader_out = reader.join().expect("reader thread panicked");
        let resizer_out = resizer.join().expect("resizer thread panicked");
        (reader_out, resizer_out, start_ns, end_ns)
    });
    let (recorder, spans, lookups, timed) = reader_out;
    let (expand_us, shrink_us, max_lateness_us) = resizer_out;
    Window {
        lookups,
        failed: failed.load(Ordering::Relaxed),
        start_ns,
        end_ns,
        recorder,
        timed,
        expand_us,
        shrink_us,
        max_lateness_us,
        spans,
    }
}

impl Window {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Lookups per second: the calm end over slices of the measured phase.
    pub fn ops_per_s(&self) -> f64 {
        self.recorder.calm_rate(self.end_ns)
    }

    /// `(p50, p99)` of the timed lookups in microseconds: the calm end over
    /// slices of each slice's percentile.
    pub fn latency_us(&self) -> (f64, f64) {
        let r = &self.recorder;
        (
            r.calm_quantile(self.end_ns, 0.5) / 1e3,
            r.calm_quantile(self.end_ns, 0.99) / 1e3,
        )
    }

    /// The typical resize: the mean of the calm median expand and the calm
    /// median shrink. (A figure over all resizes would sit in the gap
    /// between the two kinds, which take very different times, and jump
    /// around.)
    pub fn resize_us(&self) -> f64 {
        (calm_median(&self.expand_us, RESIZE_GROUP) + calm_median(&self.shrink_us, RESIZE_GROUP))
            / 2.0
    }

    pub fn resizes(&self) -> usize {
        self.expand_us.len() + self.shrink_us.len()
    }
}
