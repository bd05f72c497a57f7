//! The storage-engine abstraction.

use std::sync::atomic::{AtomicU64, Ordering};

use rp_hash::QsbrReadHandle;

use crate::item::Item;

/// Which read-side RCU flavor serves GET lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadSide {
    /// Epoch-style delimited readers ([`rp_rcu::pin`]): two thread-private
    /// stores and two fences per lookup section, no registration duties.
    /// The threaded server always uses this flavor.
    Ebr,
    /// Quiescent-state-based readers ([`rp_hash::QsbrReadHandle`]): the
    /// lookup itself is entirely free — no store, no fence — but the
    /// serving thread must announce quiescent states between batches and go
    /// offline while blocked. The event-loop server's default: its pinned
    /// workers have natural quiescent points between `epoll_wait` batches.
    #[default]
    Qsbr,
}

impl ReadSide {
    /// Parses `ebr` / `qsbr` (case-insensitive).
    pub fn parse(value: &str) -> Result<ReadSide, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "ebr" => Ok(ReadSide::Ebr),
            "qsbr" => Ok(ReadSide::Qsbr),
            other => Err(format!("bad read side {other:?} (ebr | qsbr)")),
        }
    }

    /// The flag/env spelling of this flavor.
    pub fn as_str(self) -> &'static str {
        match self {
            ReadSide::Ebr => "ebr",
            ReadSide::Qsbr => "qsbr",
        }
    }
}

/// A serving thread's read-side context, passed down to the engine's GET
/// path.
///
/// For [`ReadSide::Ebr`] this is empty — the engine pins a guard per lookup
/// as it always did. For [`ReadSide::Qsbr`] it owns the thread's
/// [`QsbrReadHandle`]; engines with a QSBR read path route lookups through
/// it, and the owner (an event-loop worker) drives the quiescent rhythm via
/// [`EngineReadCtx::quiescent`] / [`EngineReadCtx::park`] /
/// [`EngineReadCtx::unpark`].
///
/// The context is `!Send` in its QSBR form (the handle is pinned to its
/// thread); the event loop creates one per worker, on the worker.
#[derive(Debug, Default)]
pub struct EngineReadCtx {
    qsbr: Option<QsbrReadHandle>,
}

impl EngineReadCtx {
    /// Creates the context for `read_side`, registering a QSBR handle for
    /// the calling thread if that flavor was chosen.
    pub fn new(read_side: ReadSide) -> EngineReadCtx {
        EngineReadCtx {
            qsbr: match read_side {
                ReadSide::Ebr => None,
                ReadSide::Qsbr => Some(QsbrReadHandle::register()),
            },
        }
    }

    /// The EBR context (what the threaded server and
    /// [`CacheEngine::get`] use).
    pub fn ebr() -> EngineReadCtx {
        EngineReadCtx::default()
    }

    /// The flavor this context serves.
    pub fn read_side(&self) -> ReadSide {
        if self.qsbr.is_some() {
            ReadSide::Qsbr
        } else {
            ReadSide::Ebr
        }
    }

    /// The QSBR handle, when this context serves the QSBR flavor.
    ///
    /// Returned as a shared borrow of `self`: references the engine obtains
    /// through the handle keep `self` borrowed, so the quiescent-rhythm
    /// methods (`&mut self`) cannot be called while any lookup result is
    /// alive — the same compile-time guarantee [`QsbrReadHandle`] itself
    /// provides.
    pub fn qsbr_handle(&self) -> Option<&QsbrReadHandle> {
        self.qsbr.as_ref()
    }

    /// Announces a quiescent state (no-op for EBR). Event-loop workers call
    /// this once per event batch.
    pub fn quiescent(&mut self) {
        if let Some(handle) = self.qsbr.as_mut() {
            handle.quiescent_state();
        }
    }

    /// Marks the thread offline before blocking (no-op for EBR), so a long
    /// `epoll_wait` park never stalls writers waiting for readers.
    pub fn park(&mut self) {
        if let Some(handle) = self.qsbr.as_mut() {
            handle.offline();
        }
    }

    /// Marks the thread online again after waking (no-op for EBR).
    pub fn unpark(&mut self) {
        if let Some(handle) = self.qsbr.as_mut() {
            handle.online();
        }
    }

    /// Runs `f` with the QSBR handle offline (directly for EBR), so `f`
    /// may wait for grace periods without deadlocking on this thread's own
    /// read-side state — the window [`CacheEngine::housekeeping`] runs in.
    pub fn with_offline<R>(&mut self, f: impl FnOnce() -> R) -> R {
        match self.qsbr.as_mut() {
            Some(handle) => handle.offline_scope(f),
            None => f(),
        }
    }
}

/// Largest payload a SET stores (memcached's default 1 MiB item limit);
/// a larger one is [`StoreOutcome::NotStored`].
pub(crate) const MAX_ITEM_SIZE: usize = 1 << 20;

/// Outcome of a store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The item was stored.
    Stored,
    /// The item was not stored (e.g. the payload exceeds the per-item limit).
    NotStored,
}

/// Operation counters an engine maintains (mirrors the subset of memcached's
/// `stats` output the experiment cares about).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// GET requests that found a live item.
    pub get_hits: AtomicU64,
    /// GET requests that found nothing (or only an expired item).
    pub get_misses: AtomicU64,
    /// Successful SETs.
    pub sets: AtomicU64,
    /// Successful DELETEs.
    pub deletes: AtomicU64,
    /// Items evicted to stay under the capacity limit.
    pub evictions: AtomicU64,
    /// Items dropped because they were found expired.
    pub expirations: AtomicU64,
}

impl CacheStats {
    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// GET hit count.
    pub fn hits(&self) -> u64 {
        self.get_hits.load(Ordering::Relaxed)
    }

    /// GET miss count.
    pub fn misses(&self) -> u64 {
        self.get_misses.load(Ordering::Relaxed)
    }

    /// Eviction count.
    pub fn evicted(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Zeroes every counter (`STATS RESET`). Relaxed stores: counts
    /// recorded concurrently with the reset land on either side of it.
    pub fn reset(&self) {
        for counter in [
            &self.get_hits,
            &self.get_misses,
            &self.sets,
            &self.deletes,
            &self.evictions,
            &self.expirations,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// A cache storage engine: the component the paper swaps out between stock
/// memcached (global lock) and the relativistic patch.
pub trait CacheEngine: Send + Sync {
    /// Engine name used in benchmark output (`"default"` / `"rp"`).
    fn name(&self) -> &'static str;

    /// Looks up `key`, returning a copy of the item if present and not
    /// expired. The default is [`CacheEngine::get_ref`] through an EBR
    /// context.
    fn get(&self, key: &str) -> Option<Item> {
        self.get_ref(key.as_bytes(), &mut EngineReadCtx::ebr())
    }

    /// Looks up several keys, returning results in the same order. The
    /// default loops over [`CacheEngine::get`].
    fn get_many(&self, keys: &[&str]) -> Vec<Option<Item>> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    /// [`CacheEngine::get`] through an explicit read-side context. The
    /// default is [`CacheEngine::get_ref`].
    fn get_via(&self, key: &str, ctx: &mut EngineReadCtx) -> Option<Item> {
        self.get_ref(key.as_bytes(), ctx)
    }

    /// [`CacheEngine::get_many`] through an explicit read-side context.
    /// The default loops over [`CacheEngine::get_via`].
    fn get_many_via(&self, keys: &[&str], ctx: &mut EngineReadCtx) -> Vec<Option<Item>> {
        keys.iter().map(|key| self.get_via(key, ctx)).collect()
    }

    /// The engine's one GET body: looks up `key` by raw bytes through the
    /// read-side flavor of `ctx`, returning a copy of the item if present
    /// and not expired. Both servers serve every GET key through it, with
    /// the key a slice straight out of the connection's read buffer.
    ///
    /// The relativistic engines hash the bytes once and probe their
    /// `String`-keyed index through a raw matching lookup — a barrier-free
    /// QSBR read for a [`ReadSide::Qsbr`] context, a pinned guard
    /// otherwise. Keys that are not valid UTF-8 cannot exist in the cache
    /// (every stored key came from a validated command line), so they
    /// simply miss.
    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item>;

    /// Housekeeping an external caller with a natural quiescent point can
    /// drive on the engine's behalf: postponed automatic index resizes and
    /// deferred reclamation.
    ///
    /// Threads serving QSBR reads postpone all grace-period work (waiting
    /// would deadlock on their own read-side state); the event-loop worker
    /// calls this between batches **while its QSBR handle is offline**
    /// ([`EngineReadCtx::with_offline`]), so an all-QSBR-worker deployment
    /// still resizes its index. Must be cheap when there is nothing to do;
    /// the default does nothing.
    fn housekeeping(&self) {}

    /// Stores `item` under `key`, replacing any previous value.
    fn set(&self, key: &str, item: Item) -> StoreOutcome;

    /// Deletes `key`. Returns `true` if it was present.
    fn delete(&self, key: &str) -> bool;

    /// Number of items currently stored (including not-yet-collected
    /// expired items).
    fn len(&self) -> usize;

    /// Returns `true` if the cache holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters.
    fn stats(&self) -> &CacheStats;

    /// Removes expired items eagerly (every engine also expires them
    /// lazily on GET). Returns how many were removed.
    fn purge_expired(&self) -> usize;

    /// Scrape-time hook: push engine-derived level gauges (e.g. shard
    /// imbalance) into the `rp-obs` registry. Called by the `STATS`
    /// telemetry renderer just before it reads the registry; the default
    /// does nothing.
    fn observe_gauges(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counters_accumulate() {
        let stats = CacheStats::default();
        stats.bump(&stats.get_hits);
        stats.bump(&stats.get_hits);
        stats.bump(&stats.get_misses);
        stats.bump(&stats.evictions);
        assert_eq!(stats.hits(), 2);
        assert_eq!(stats.misses(), 1);
        assert_eq!(stats.evicted(), 1);
    }
}
