//! The relativistic engine: wait-free GETs over an [`RpHashMap`] index.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rp_hash::{FnvBuildHasher, ResizePolicy, RpHashMap};

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome};
use crate::item::Item;
use crate::lock_engine::EngineConfig;

/// Hashes raw key bytes exactly as the engines' `String`-keyed indexes
/// hash their keys (std's `str` hashing feeds the bytes then a `0xff`
/// terminator into the hasher), so a `&[u8]` borrowed from a connection's
/// read buffer can probe the index through the raw
/// `get_matching_prehashed` lookups: hash once, compare bytes, allocate
/// nothing. A unit test pins this against `FnvBuildHasher`'s `str` output
/// in case std's `str` hashing scheme ever changes.
pub(crate) fn str_bytes_hash(bytes: &[u8]) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = FnvBuildHasher.build_hasher();
    hasher.write(bytes);
    hasher.write_u8(0xff);
    hasher.finish()
}

/// What a raw (byte-keyed) index probe found, with the LRU stamp already
/// applied to a live hit — the shared classification behind every
/// relativistic engine's
/// [`CacheEngine::get_ref`](crate::CacheEngine::get_ref), so the
/// hit/expired/miss accounting lives in exactly one place.
pub(crate) enum RawProbe {
    /// A live item, copied out inside the read-side window.
    Live(Item),
    /// Present but expired: the caller removes it on the writer-side slow
    /// path.
    Expired,
    /// Not present.
    Miss,
}

/// Classifies a probe result and stamps a live hit's access time.
fn classify_probe(stored: Option<&Arc<StoredItem>>, now: Instant, stamp: u64) -> RawProbe {
    match stored {
        Some(stored) if !stored.item.is_expired(now) => {
            stored.last_access.store(stamp, Ordering::Relaxed);
            RawProbe::Live(stored.item.clone())
        }
        Some(_) => RawProbe::Expired,
        None => RawProbe::Miss,
    }
}

/// An index that can be probed by a raw hash + borrowed key bytes under
/// either read-side witness, swept, pruned and written to — the seam that
/// lets every relativistic engine share one
/// [`CacheEngine::get_ref`](crate::CacheEngine::get_ref) body
/// ([`probe_ref`] + [`EngineCore::settle`]) and one eviction and purge path
/// ([`EngineCore`]) instead of copy-pasting the dispatch and accounting.
pub(crate) trait ByteKeyIndex {
    /// Raw lookup: `hash` must be [`str_bytes_hash`] of `key`.
    fn probe<'g, P: rp_hash::ReadProtect>(
        &'g self,
        hash: u64,
        key: &[u8],
        protect: &'g P,
    ) -> Option<&'g Arc<StoredItem>>;

    /// Pins an EBR guard for the fallback flavor.
    fn pin_guard(&self) -> rp_rcu::RcuGuard<'static>;

    /// Number of entries (a racy snapshot under concurrent writers).
    fn len(&self) -> usize;

    /// Every entry, visited under `guard`.
    fn entries<'g>(
        &'g self,
        guard: &'g rp_rcu::RcuGuard<'static>,
    ) -> impl Iterator<Item = (&'g String, &'g Arc<StoredItem>)>;

    /// Writer-side insert, replacing any previous value of `key`.
    fn insert(&self, key: String, stored: Arc<StoredItem>);

    /// Writer-side removal of `key`; returns whether it was present.
    fn remove(&self, key: &str) -> bool;

    /// Writer-side removal of every entry `keep` rejects.
    fn retain(&self, keep: impl FnMut(&StoredItem) -> bool);
}

/// The three indexes expose the same inherent API, so one impl body
/// serves them all.
macro_rules! impl_byte_key_index {
    ($($index:ty),+ $(,)?) => {$(
        impl ByteKeyIndex for $index {
            fn probe<'g, P: rp_hash::ReadProtect>(
                &'g self,
                hash: u64,
                key: &[u8],
                protect: &'g P,
            ) -> Option<&'g Arc<StoredItem>> {
                self.get_matching_prehashed(hash, |k| k.as_bytes() == key, protect)
            }

            fn pin_guard(&self) -> rp_rcu::RcuGuard<'static> {
                self.pin()
            }

            fn len(&self) -> usize {
                <$index>::len(self)
            }

            fn entries<'g>(
                &'g self,
                guard: &'g rp_rcu::RcuGuard<'static>,
            ) -> impl Iterator<Item = (&'g String, &'g Arc<StoredItem>)> {
                self.iter(guard)
            }

            fn insert(&self, key: String, stored: Arc<StoredItem>) {
                <$index>::insert(self, key, stored);
            }

            fn remove(&self, key: &str) -> bool {
                <$index>::remove(self, key)
            }

            fn retain(&self, mut keep: impl FnMut(&StoredItem) -> bool) {
                <$index>::retain(self, |_, stored| keep(stored))
            }
        }
    )+};
}

impl_byte_key_index!(
    RpHashMap<String, Arc<StoredItem>, FnvBuildHasher>,
    rp_shard::ShardedRpMap<String, Arc<StoredItem>>,
    rp_splitorder::SplitOrderMap<String, Arc<StoredItem>, FnvBuildHasher>,
);

/// Probes `index` for `key` through the context's read-side flavor — the
/// barrier-free QSBR handle when the worker has one, a pinned EBR guard
/// otherwise — and classifies the result (stamping a live hit's access
/// time).
pub(crate) fn probe_ref(
    index: &impl ByteKeyIndex,
    ctx: &EngineReadCtx,
    hash: u64,
    key: &[u8],
    now: Instant,
    stamp: u64,
) -> RawProbe {
    match ctx.qsbr_handle() {
        Some(handle) => classify_probe(index.probe(hash, key, handle), now, stamp),
        None => {
            let guard = index.pin_guard();
            classify_probe(index.probe(hash, key, &guard), now, stamp)
        }
    }
}

/// How many victims one sweep queues: enough that the sweep's cost is
/// spread over many evicting SETs, few enough that the queued keys stay a
/// small fraction of the cache.
fn victim_batch(capacity: usize) -> usize {
    (capacity / 16).clamp(16, 1024)
}

/// The bookkeeping every relativistic engine shares — the capacity
/// configuration, the LRU clock, the eviction victim queue and the
/// operation counters — plus the SET, eviction, purge and GET accounting
/// logic over them, written once. [`RpEngine`](crate::RpEngine),
/// [`ShardedRpEngine`](crate::ShardedRpEngine) and
/// [`SplitOrderEngine`](crate::SplitOrderEngine) each contribute only
/// their index type (through [`ByteKeyIndex`]) and a `get_ref` that calls
/// [`probe_ref`] and [`EngineCore::settle`].
pub(crate) struct EngineCore {
    config: EngineConfig,
    clock: AtomicU64,
    pub(crate) stats: CacheStats,
    /// `(key, stamp)` of the stalest entries a sweep saw, stalest last.
    ///
    /// The lock serialises evictors; lock order is victim queue → index
    /// writer lock. Blocking on it cannot hold up a grace period: a holder
    /// that is an online QSBR reader never waits for one (the index
    /// postpones resizes and reclamation from such a thread), and EBR
    /// setters are not pinned while they wait here or remove (the sweep's
    /// guard is dropped before any removal). An unpinned EBR holder may
    /// still run an inline resize or reclamation inside `remove`, exactly
    /// as it may under the index writer lock this lock nests over.
    victims: Mutex<Vec<(String, u64)>>,
}

impl EngineCore {
    pub(crate) fn with_capacity(capacity: usize) -> EngineCore {
        EngineCore {
            config: EngineConfig {
                capacity: capacity.max(1),
                ..EngineConfig::default()
            },
            clock: AtomicU64::new(0),
            stats: CacheStats::default(),
            victims: Mutex::new(Vec::new()),
        }
    }

    /// Next LRU access stamp. One shared `fetch_add` clock, so stamps are
    /// unique and only grow.
    pub(crate) fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The shared SET: the per-item size check, an insert that replaces
    /// any previous value, then eviction back under capacity.
    pub(crate) fn set(&self, index: &impl ByteKeyIndex, key: &str, item: Item) -> StoreOutcome {
        if item.len() > self.config.max_item_size {
            return StoreOutcome::NotStored;
        }
        let stored = Arc::new(StoredItem {
            item,
            last_access: AtomicU64::new(self.stamp()),
        });
        index.insert(key.to_string(), stored);
        self.evict_if_needed(index);
        self.stats.bump(&self.stats.sets);
        StoreOutcome::Stored
    }

    pub(crate) fn note_delete(&self, removed: bool) -> bool {
        if removed {
            self.stats.bump(&self.stats.deletes);
        }
        removed
    }

    /// Applies the shared hit/expired/miss accounting for a raw probe.
    /// `remove_expired` is the engine-specific writer-side removal (cold
    /// path); it returns whether the expired entry was actually removed.
    pub(crate) fn settle(
        &self,
        probe: RawProbe,
        remove_expired: impl FnOnce() -> bool,
    ) -> Option<Item> {
        let stats = &self.stats;
        match probe {
            RawProbe::Live(item) => {
                stats.bump(&stats.get_hits);
                Some(item)
            }
            RawProbe::Miss => {
                stats.bump(&stats.get_misses);
                None
            }
            RawProbe::Expired => {
                if remove_expired() {
                    stats.bump(&stats.expirations);
                }
                stats.bump(&stats.get_misses);
                None
            }
        }
    }

    /// Exact LRU, amortised: while the index is over capacity, evict the
    /// stalest queued victim whose stamp is unchanged since the sweep that
    /// queued it, refilling the queue by one sweep when it runs dry. Runs
    /// on the writer (SET) path only.
    ///
    /// The victim is the one a full sort would pick: stamps are unique and
    /// only grow, so any entry the sweep did not queue, and any entry
    /// touched or re-set since, is newer than every queued entry whose
    /// stamp still matches.
    fn evict_if_needed(&self, index: &impl ByteKeyIndex) {
        if index.len() <= self.config.capacity {
            return;
        }
        let mut victims = self.victims.lock();
        while index.len() > self.config.capacity {
            let Some((key, stamp)) = victims.pop() else {
                if self.refill_victims(index, &mut victims) {
                    continue;
                }
                break;
            };
            let unchanged = {
                let guard = index.pin_guard();
                index
                    .probe(str_bytes_hash(key.as_bytes()), key.as_bytes(), &guard)
                    .is_some_and(|stored| stored.last_access.load(Ordering::Relaxed) == stamp)
            };
            // A changed stamp means the key was touched, re-set or deleted
            // since the sweep: skip it.
            if unchanged && index.remove(&key) {
                self.stats.bump(&self.stats.evictions);
            }
        }
    }

    /// One sweep under a guard: selects the [`victim_batch`] stalest
    /// entries on borrowed keys and clones only those keys into `victims`,
    /// stalest last. Returns `false` if the index was empty.
    fn refill_victims(&self, index: &impl ByteKeyIndex, victims: &mut Vec<(String, u64)>) -> bool {
        let batch = victim_batch(self.config.capacity);
        let guard = index.pin_guard();
        // Max-heap on stamp: the top is the newest of the stalest so far.
        let mut stalest: BinaryHeap<(u64, &str)> = BinaryHeap::with_capacity(batch);
        for (key, stored) in index.entries(&guard) {
            let stamp = stored.last_access.load(Ordering::Relaxed);
            if stalest.len() < batch {
                stalest.push((stamp, key));
            } else if let Some(mut newest) = stalest.peek_mut() {
                if stamp < newest.0 {
                    *newest = (stamp, key);
                }
            }
        }
        victims.extend(
            stalest
                .into_sorted_vec()
                .into_iter()
                .rev()
                .map(|(stamp, key)| (key.to_owned(), stamp)),
        );
        !victims.is_empty()
    }

    /// Eager expiry sweep shared by every engine; returns how many items
    /// it removed.
    pub(crate) fn purge_expired(&self, index: &impl ByteKeyIndex) -> usize {
        let now = Instant::now();
        let before = index.len();
        index.retain(|stored| !stored.item.is_expired(now));
        let purged = before.saturating_sub(index.len());
        self.stats
            .expirations
            .fetch_add(purged as u64, Ordering::Relaxed);
        purged
    }
}

/// A stored item plus its LRU access stamp.
///
/// The payload is immutable after publication; only the access stamp is
/// updated by readers, with a relaxed store (the relativistic equivalent of
/// memcached's "don't bump the LRU on every GET" optimisation — readers
/// never take a lock or move list nodes).
pub(crate) struct StoredItem {
    pub(crate) item: Item,
    pub(crate) last_access: AtomicU64,
}

/// The relativistic engine, mirroring the paper's memcached patch:
///
/// * **GET** pins an RCU guard, looks the key up in the relativistic hash
///   table, checks expiry and copies the (reference-counted) value out — all
///   without taking any lock. Expired entries fall back to the slow path
///   (`delete`) exactly as the patch "falls back to the slow path for
///   expiry, eviction".
/// * **SET / DELETE** go through the hash table's writer side (a mutex) and
///   retire replaced items through the RCU domain.
/// * **Eviction** is exact LRU on the SET path: when the cache exceeds its
///   capacity, the writer evicts the stalest entry from a victim queue that
///   one sweep of the table refills only when it runs dry.
pub struct RpEngine {
    index: RpHashMap<String, Arc<StoredItem>, FnvBuildHasher>,
    core: EngineCore,
}

impl Default for RpEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RpEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// Creates an engine that holds at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity.max(16)).next_power_of_two().min(1 << 16);
        RpEngine {
            index: RpHashMap::with_buckets_hasher_and_policy(
                buckets.min(1024),
                FnvBuildHasher,
                ResizePolicy {
                    auto_expand: true,
                    auto_shrink: true,
                    max_load_factor: 2.0,
                    min_load_factor: 0.125,
                    min_buckets: 16,
                    ..ResizePolicy::default()
                },
            ),
            core: EngineCore::with_capacity(capacity),
        }
    }

    /// Number of buckets currently used by the index (exposed so the
    /// benchmark can confirm the table resizes itself under load).
    pub fn index_buckets(&self) -> usize {
        self.index.num_buckets()
    }
}

impl CacheEngine for RpEngine {
    fn name(&self) -> &'static str {
        "rp"
    }

    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        // One hashing pass over the borrowed key bytes serves the whole
        // lookup; the key is never copied and never re-validated.
        let hash = str_bytes_hash(key);
        let now = Instant::now();
        let stamp = self.core.stamp();
        let probe = probe_ref(&self.index, ctx, hash, key, now, stamp);
        self.core.settle(probe, || {
            // Expired: remove through the writer side (cold path; the
            // UTF-8 view is free — stored keys are always valid UTF-8).
            // From a QSBR reader the index postpones the grace-period work
            // this triggers; the background maintainer or reclaimer absorbs
            // it.
            std::str::from_utf8(key)
                .map(|key| self.index.remove_prehashed(hash, key))
                .unwrap_or(false)
        })
    }

    fn set(&self, key: &str, item: Item) -> StoreOutcome {
        self.core.set(&self.index, key, item)
    }

    fn delete(&self, key: &str) -> bool {
        self.core.note_delete(self.index.remove(key))
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn housekeeping(&self) {
        // Catch up on index resizes the writer paths postponed (QSBR
        // workers cannot wait for readers mid-batch). Cheap when the load
        // factor is inside bounds.
        self.index.maintain();
    }

    fn stats(&self) -> &CacheStats {
        &self.core.stats
    }

    fn purge_expired(&self) -> usize {
        self.core.purge_expired(&self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn str_bytes_hash_matches_the_index_hasher() {
        use std::hash::BuildHasher;
        // The byte-keyed hot path relies on hashing raw bytes exactly as
        // the String-keyed index hashes its keys. If std's str hashing
        // scheme ever changes, this test fails before any lookup can miss.
        for key in ["", "k", "memtier-12345", "a:b:c_d-e", "日本語"] {
            assert_eq!(
                str_bytes_hash(key.as_bytes()),
                FnvBuildHasher.hash_one(key),
                "{key:?}"
            );
        }
    }

    #[test]
    fn get_ref_matches_get_for_both_read_sides() {
        use crate::engine::{EngineReadCtx, ReadSide};
        std::thread::spawn(|| {
            let engine = RpEngine::new();
            engine.set("present", Item::new(9, "val"));
            let mut stale = Item::new(0, "old");
            stale.expires_at = Some(Instant::now() - Duration::from_millis(1));
            engine.set("stale", stale);

            for read_side in [ReadSide::Ebr, ReadSide::Qsbr] {
                let mut ctx = EngineReadCtx::new(read_side);
                let hit = engine.get_ref(b"present", &mut ctx).unwrap();
                assert_eq!(hit.flags, 9);
                assert_eq!(&hit.data[..], b"val");
                assert_eq!(engine.get_ref(b"missing", &mut ctx), None);
                assert_eq!(engine.get_ref(b"\xff\xfe not utf8", &mut ctx), None);
                ctx.quiescent();
            }
            // The expired entry fell back to the slow path and was removed.
            assert_eq!(engine.get_ref(b"stale", &mut EngineReadCtx::ebr()), None);
            assert_eq!(engine.len(), 1);
            assert!(engine.stats().expirations.load(Ordering::Relaxed) >= 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn get_set_delete_round_trip() {
        let engine = RpEngine::new();
        assert_eq!(engine.get("k"), None);
        assert_eq!(engine.set("k", Item::new(3, "value")), StoreOutcome::Stored);
        let item = engine.get("k").unwrap();
        assert_eq!(item.flags, 3);
        assert_eq!(&item.data[..], b"value");
        assert!(engine.delete("k"));
        assert_eq!(engine.get("k"), None);
        assert_eq!(engine.stats().hits(), 1);
        assert_eq!(engine.stats().misses(), 2);
    }

    #[test]
    fn expired_items_fall_back_to_the_slow_path() {
        let engine = RpEngine::new();
        let mut item = Item::new(0, "stale");
        item.expires_at = Some(Instant::now() - Duration::from_millis(1));
        engine.set("k", item);
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.get("k"), None);
        assert_eq!(engine.len(), 0, "expired item must be removed lazily");
        assert_eq!(engine.stats().expirations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn capacity_is_enforced_with_approximate_lru() {
        let engine = RpEngine::with_capacity(4);
        for i in 0..4 {
            engine.set(&format!("k{i}"), Item::new(0, "x"));
        }
        // Touch k0..k2 so k3 is the coldest.
        for i in 0..3 {
            engine.get(&format!("k{i}"));
        }
        engine.set("k4", Item::new(0, "x"));
        assert_eq!(engine.len(), 4);
        assert_eq!(engine.stats().evicted(), 1);
        assert!(engine.get("k3").is_none(), "the coldest key is the victim");
        assert!(
            engine.get("k4").is_some(),
            "newly inserted key must survive"
        );
    }

    #[test]
    fn purge_expired_removes_only_stale_items() {
        let engine = RpEngine::new();
        for i in 0..6 {
            let mut item = Item::new(0, "x");
            if i % 2 == 0 {
                item.expires_at = Some(Instant::now() - Duration::from_millis(1));
            }
            engine.set(&format!("k{i}"), item);
        }
        assert_eq!(engine.purge_expired(), 3);
        assert_eq!(engine.len(), 3);
    }

    #[test]
    fn index_resizes_itself_under_insert_load() {
        let engine = RpEngine::with_capacity(100_000);
        let before = engine.index_buckets();
        for i in 0..8192 {
            engine.set(&format!("key-{i}"), Item::new(0, "v"));
        }
        assert!(
            engine.index_buckets() > before,
            "expected the relativistic index to auto-expand ({} -> {})",
            before,
            engine.index_buckets()
        );
        assert_eq!(engine.len(), 8192);
    }

    #[test]
    fn qsbr_worker_housekeeping_grows_the_index() {
        use crate::engine::{EngineReadCtx, ReadSide};
        // Simulates an event-loop worker: QSBR-online while serving, so
        // SETs postpone auto-resizing; `housekeeping` from the offline
        // window between batches must catch up — without it the index
        // would never grow when every writer is a QSBR worker.
        std::thread::spawn(|| {
            let engine = RpEngine::with_capacity(100_000);
            let mut ctx = EngineReadCtx::new(ReadSide::Qsbr);
            let before = engine.index_buckets();
            for i in 0..8192 {
                engine.set(&format!("key-{i}"), Item::new(0, "v"));
            }
            assert_eq!(
                engine.index_buckets(),
                before,
                "resizes must be postponed while the worker is QSBR-online"
            );
            ctx.quiescent();
            ctx.with_offline(|| engine.housekeeping());
            assert!(
                engine.index_buckets() > before,
                "housekeeping must grow the postponed index ({} -> {})",
                before,
                engine.index_buckets()
            );
            assert!(engine.get_via("key-7", &mut ctx).is_some());
            // Multi-key GETs flow through get_via per key by default, so
            // they use the QSBR path too.
            let hits = engine.get_many_via(&["key-1", "missing", "key-2"], &mut ctx);
            assert_eq!(hits.iter().filter(|h| h.is_some()).count(), 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn concurrent_gets_and_sets() {
        use std::sync::atomic::AtomicBool;
        let engine = Arc::new(RpEngine::new());
        for i in 0..256 {
            engine.set(&format!("k{i}"), Item::new(0, format!("v{i}")));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|seed| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut k = seed;
                    while !stop.load(Ordering::Relaxed) {
                        k = (k * 13 + 1) % 256;
                        let item = engine.get(&format!("k{k}")).expect("stable key present");
                        assert!(item.data.starts_with(b"v"));
                    }
                })
            })
            .collect();
        for round in 0..2000_u32 {
            let k = round % 256;
            engine.set(&format!("k{k}"), Item::new(round, format!("v{k}-{round}")));
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
    }
}
