//! Tracing from outside the program: spans recorded around calls into the
//! crates' public functions, kept in memory and analysed when a run ends.
//!
//! Nothing inside the program is instrumented. The engine is wrapped in
//! [`TracedEngine`], which implements `CacheEngine` by delegating every
//! call to the real engine and recording one span per call.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rp_kvcache::{CacheEngine, CacheStats, EngineReadCtx, Item, StoreOutcome};
use rp_rcu::GraceSync;

use crate::util::now_ns;

/// The engine calls a span can stand for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Call {
    GetHit = 0,
    GetMiss = 1,
    Set = 2,
    Delete = 3,
}

pub const CALLS: [Call; 4] = [Call::GetHit, Call::GetMiss, Call::Set, Call::Delete];

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub start: u64,
    pub end: u64,
}

/// A fixed-capacity, append-only span buffer any thread may record into.
/// Spans past the capacity are dropped (and counted); `busy_ns` keeps the
/// total duration of every span, dropped or not.
pub struct SpanLog {
    words: Box<[AtomicU64]>,
    next: AtomicUsize,
    busy_ns: AtomicU64,
}

impl SpanLog {
    pub fn with_capacity(spans: usize) -> SpanLog {
        SpanLog {
            words: (0..spans * 2).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, call: Call, start: u64, end: u64) {
        self.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some(pair) = self.words.get(2 * i..2 * i + 2) {
            pair[0].store(start << 8 | call as u64, Ordering::Relaxed);
            pair[1].store(end, Ordering::Relaxed);
        }
    }

    /// Total time spent inside recorded calls.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    pub fn is_full(&self) -> bool {
        self.next.load(Ordering::Relaxed) * 2 >= self.words.len()
    }

    /// The recorded spans, sorted by start. Call only after every recording
    /// thread has stopped (joined, or its server shut down).
    pub fn spans(&self) -> Vec<Span> {
        let n = self.next.load(Ordering::Relaxed).min(self.words.len() / 2);
        let mut spans: Vec<Span> = (0..n)
            .map(|i| {
                let head = self.words[2 * i].load(Ordering::Relaxed);
                Span {
                    call: CALLS[(head & 0xff) as usize],
                    start: head >> 8,
                    end: self.words[2 * i + 1].load(Ordering::Relaxed),
                }
            })
            .collect();
        spans.sort_by_key(|s| s.start);
        spans
    }

    pub fn clear(&self) {
        self.next.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
    }
}

/// `CacheEngine` that records a span around every data call and delegates
/// everything to the engine it wraps.
pub struct TracedEngine {
    pub inner: Arc<dyn CacheEngine>,
    pub log: Arc<SpanLog>,
}

impl TracedEngine {
    fn get_span(&self, start: u64, item: Option<Item>) -> Option<Item> {
        let call = if item.is_some() {
            Call::GetHit
        } else {
            Call::GetMiss
        };
        self.log.record(call, start, now_ns());
        item
    }
}

impl CacheEngine for TracedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &str) -> Option<Item> {
        let start = now_ns();
        let item = self.inner.get(key);
        self.get_span(start, item)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Option<Item>> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    fn get_via(&self, key: &str, ctx: &mut EngineReadCtx) -> Option<Item> {
        let start = now_ns();
        let item = self.inner.get_via(key, ctx);
        self.get_span(start, item)
    }

    fn get_many_via(&self, keys: &[&str], ctx: &mut EngineReadCtx) -> Vec<Option<Item>> {
        keys.iter().map(|key| self.get_via(key, ctx)).collect()
    }

    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        let start = now_ns();
        let item = self.inner.get_ref(key, ctx);
        self.get_span(start, item)
    }

    fn housekeeping(&self) {
        self.inner.housekeeping();
    }

    fn set(&self, key: &str, item: Item) -> StoreOutcome {
        let start = now_ns();
        let outcome = self.inner.set(key, item);
        self.log.record(Call::Set, start, now_ns());
        outcome
    }

    fn delete(&self, key: &str) -> bool {
        let start = now_ns();
        let deleted = self.inner.delete(key);
        self.log.record(Call::Delete, start, now_ns());
        deleted
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn purge_expired(&self) -> usize {
        self.inner.purge_expired()
    }

    fn observe_gauges(&self) {
        self.inner.observe_gauges();
    }
}

/// Mean span duration per call kind, in nanoseconds, and the span count.
pub fn mean_by_call(spans: &[Span]) -> [(f64, u64); 4] {
    let mut acc = [(0u64, 0u64); 4];
    for span in spans {
        let slot = &mut acc[span.call as usize];
        slot.0 += span.end - span.start;
        slot.1 += 1;
    }
    acc.map(|(sum, n)| {
        (
            if n == 0 {
                f64::NAN
            } else {
                sum as f64 / n as f64
            },
            n,
        )
    })
}

/// A client span: one request, or one pipelined window of `requests`.
#[derive(Clone, Copy, Debug)]
pub struct ClientSpan {
    pub start: u64,
    pub end: u64,
    pub requests: u32,
}

/// Attributes each engine span to the client span that contains it in
/// time (one connection, so at most one does) and returns, per client
/// span, the engine time inside it. Also returns how many engine spans
/// found no container.
pub fn attribute(client: &[ClientSpan], engine: &[Span]) -> (Vec<u64>, u64) {
    let mut inside = vec![0u64; client.len()];
    let mut orphans = 0;
    let mut c = 0;
    for span in engine {
        while c < client.len() && client[c].end < span.end {
            c += 1;
        }
        match client.get(c) {
            Some(cs) if cs.start <= span.start => inside[c] += span.end - span.start,
            _ => orphans += 1,
        }
    }
    (inside, orphans)
}

/// Spans of each kind written out per traced run.
const SPAN_FILE_CAP: usize = 100_000;

/// Writes the first client spans and engine spans of a traced run, as
/// tab-separated lines, to `spans-<workload>.tsv` beside the benchmark's
/// executable (inside the build directory). Returns the path written.
pub fn write_spans(
    workload: &str,
    client: &[ClientSpan],
    engine: &[Span],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::env::current_exe()?
        .parent()
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| std::io::Error::other("executable has no directory"))?;
    let path = dir.join(format!("spans-{workload}.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "# kind\tstart_ns\tend_ns\trequests_or_call")?;
    for c in client.iter().take(SPAN_FILE_CAP) {
        writeln!(out, "client\t{}\t{}\t{}", c.start, c.end, c.requests)?;
    }
    for e in engine.iter().take(SPAN_FILE_CAP) {
        writeln!(out, "engine\t{}\t{}\t{:?}", e.start, e.end, e.call)?;
    }
    out.flush()?;
    Ok(path)
}

const SLEEP_TICK: Duration = Duration::from_millis(50);

/// What the main thread does while a workload's threads run.
pub enum MainThread {
    /// Nothing: tracing off. It wakes every `SLEEP_TICK` to check whether
    /// to stop; rarely, because in the kv workloads it shares the CPU with
    /// the server and the client.
    Sleep,
    /// Samples the level gauges a scrape cannot catch between two points
    /// (reclamation backlog, maintenance queue) every millisecond and keeps
    /// their peaks.
    Gauges {
        reclaim_pending_peak: u64,
        queue_depth_peak: u64,
    },
    /// Times `GraceSync::global().synchronize()` back to back (with a short
    /// pause between calls) while the workload's readers run.
    SyncProbe { samples_us: Vec<f64> },
}

impl MainThread {
    pub fn gauges() -> MainThread {
        MainThread::Gauges {
            reclaim_pending_peak: 0,
            queue_depth_peak: 0,
        }
    }

    pub fn sync_probe() -> MainThread {
        MainThread::SyncProbe {
            samples_us: Vec::new(),
        }
    }

    pub fn run_for(&mut self, length: Duration) {
        let end = Instant::now() + length;
        self.run_while(&|| Instant::now() < end);
    }

    pub fn run_while(&mut self, keep_going: &dyn Fn() -> bool) {
        match self {
            MainThread::Sleep => {
                while keep_going() {
                    std::thread::sleep(SLEEP_TICK);
                }
            }
            MainThread::Gauges {
                reclaim_pending_peak,
                queue_depth_peak,
            } => {
                let obs = rp_obs::global();
                while keep_going() {
                    *reclaim_pending_peak =
                        (*reclaim_pending_peak).max(obs.rcu.reclaim_pending.get());
                    *queue_depth_peak = (*queue_depth_peak).max(obs.maint.queue_depth.get());
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            MainThread::SyncProbe { samples_us } => {
                while keep_going() {
                    let start = Instant::now();
                    GraceSync::global().synchronize();
                    samples_us.push(start.elapsed().as_secs_f64() * 1e6);
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_spans_go_to_the_client_span_around_them() {
        let client = [
            ClientSpan {
                start: 0,
                end: 100,
                requests: 1,
            },
            ClientSpan {
                start: 200,
                end: 300,
                requests: 1,
            },
        ];
        let engine = [
            Span {
                call: Call::GetHit,
                start: 10,
                end: 20,
            },
            Span {
                call: Call::Set,
                start: 30,
                end: 60,
            },
            Span {
                call: Call::GetMiss,
                start: 150,
                end: 160,
            },
            Span {
                call: Call::Delete,
                start: 250,
                end: 255,
            },
        ];
        let (inside, orphans) = attribute(&client, &engine);
        assert_eq!(inside, vec![40, 5]);
        assert_eq!(orphans, 1);
    }

    #[test]
    fn span_log_keeps_spans_until_full() {
        let log = SpanLog::with_capacity(2);
        log.record(Call::Set, 5, 9);
        log.record(Call::GetHit, 1, 2);
        log.record(Call::Delete, 3, 4);
        assert!(log.is_full());
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].call, spans[0].start, spans[0].end),
            (Call::GetHit, 1, 2)
        );
        assert_eq!(log.busy_ns(), 4 + 1 + 1);
    }
}
