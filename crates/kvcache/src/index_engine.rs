//! The relativistic engines: one [`IndexEngine`] over any of three
//! indexes, with GET, SET, DELETE, expiry and eviction written once.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rp_hash::{FnvBuildHasher, ResizePolicy, RpHashMap};
use rp_maint::MaintConfig;
use rp_shard::{ShardPolicy, ShardedRpMap};
use rp_splitorder::SplitOrderMap;

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome, MAX_ITEM_SIZE};
use crate::item::Item;

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
/// applied to a live hit.
enum RawProbe {
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

/// What [`IndexEngine`] needs of its index: a raw probe by hash and
/// borrowed key bytes under either read-side witness, a sweep, the writer
/// side, and the few facts that differ between the three indexes.
///
/// Public only so the public `CacheEngine` impl can name it in its bound;
/// the module is private, so no index outside this file can implement it.
pub trait ByteKeyIndex: Send + Sync {
    /// The engine's name in benchmark output and `STATS`.
    const NAME: &'static str;

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

    /// Writer-side removal of the expired `key` a GET found; `hash` is its
    /// [`str_bytes_hash`]. From an online QSBR reader the index postpones
    /// the grace-period work this triggers to a maintainer, reclaimer or
    /// [`ByteKeyIndex::maintain`].
    fn remove_expired(&self, _hash: u64, key: &str) -> bool {
        self.remove(key)
    }

    /// Writer-side removal of every entry `keep` rejects.
    fn retain(&self, keep: impl FnMut(&StoredItem) -> bool);

    /// Catches up on deferred index work: resizes that writers postponed
    /// while they were online QSBR readers, and deferred reclamation. Must
    /// be called with no read-side section open on this thread, and is
    /// cheap when there is nothing to do.
    fn maintain(&self);

    /// Scrape-time hook: pushes index-derived level gauges into the
    /// `rp-obs` registry. The default does nothing.
    fn observe_gauges(&self) {}
}

/// The three indexes expose the same inherent API, so one impl body serves
/// them all; each adds its name and whatever it does differently.
macro_rules! impl_byte_key_index {
    ($($index:ty { $($own:tt)* })+) => {$(
        impl ByteKeyIndex for $index {
            $($own)*

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

            fn maintain(&self) {
                <$index>::maintain(self);
            }
        }
    )+};
}

impl_byte_key_index! {
    RpHashMap<String, Arc<StoredItem>, FnvBuildHasher> {
        const NAME: &'static str = "rp";

        fn remove_expired(&self, hash: u64, key: &str) -> bool {
            self.remove_prehashed(hash, key)
        }
    }
    ShardedRpMap<String, Arc<StoredItem>> {
        const NAME: &'static str = "rp-shard";

        fn observe_gauges(&self) {
            // Shard balance as max/mean occupancy, in thousandths (1000 =
            // perfectly balanced).
            let imbalance = self.stats().imbalance();
            rp_obs::global()
                .resize
                .imbalance_milli
                .set((imbalance * 1000.0) as u64);
        }
    }
    SplitOrderMap<String, Arc<StoredItem>, FnvBuildHasher> {
        const NAME: &'static str = "splitorder";

        fn remove_expired(&self, hash: u64, key: &str) -> bool {
            self.remove_prehashed(hash, key)
        }
    }
}

/// How many victims one sweep queues: enough that the sweep's cost is
/// spread over many evicting SETs, few enough that the queued keys stay a
/// small fraction of the cache.
fn victim_batch(capacity: usize) -> usize {
    (capacity / 16).clamp(16, 1024)
}

/// The engine's bookkeeping — the capacity, the LRU clock, the eviction
/// victim queue and the operation counters — and the SET, eviction and
/// purge logic over them.
struct EngineCore {
    capacity: usize,
    clock: AtomicU64,
    stats: CacheStats,
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
    fn with_capacity(capacity: usize) -> EngineCore {
        EngineCore {
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            stats: CacheStats::default(),
            victims: Mutex::new(Vec::new()),
        }
    }

    /// Next LRU access stamp. One shared `fetch_add` clock, so stamps are
    /// unique and only grow.
    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The per-item size check, an insert that replaces any previous
    /// value, then eviction back under capacity.
    fn set(&self, index: &impl ByteKeyIndex, key: &str, item: Item) -> StoreOutcome {
        if item.len() > MAX_ITEM_SIZE {
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
        if index.len() <= self.capacity {
            return;
        }
        let mut victims = self.victims.lock();
        while index.len() > self.capacity {
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
        let batch = victim_batch(self.capacity);
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

    /// Eager expiry sweep; returns how many items it removed.
    fn purge_expired(&self, index: &impl ByteKeyIndex) -> usize {
        let now = Instant::now();
        // Counted inside the sweep: `len()` also moves with SETs that race
        // it, so a before/after difference would hide expirations.
        let mut purged = 0;
        index.retain(|stored| {
            let live = !stored.item.is_expired(now);
            purged += usize::from(!live);
            live
        });
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
pub struct StoredItem {
    item: Item,
    last_access: AtomicU64,
}

/// A relativistic cache engine over the index `I`, mirroring the paper's
/// memcached patch:
///
/// * **GET** looks the key up inside an RCU read-side section — a pinned
///   EBR guard, or the serving thread's barrier-free QSBR handle — checks
///   expiry and copies the (reference-counted) value out, all without
///   taking any lock. An expired entry falls back to the writer-side slow
///   path, exactly as the patch "falls back to the slow path for expiry,
///   eviction".
/// * **SET / DELETE** go through the index's writer side and retire
///   replaced items through RCU.
/// * **Eviction** is exact LRU on the SET path: when the cache exceeds its
///   capacity, the writer evicts the stalest entry from a victim queue that
///   one sweep of the index refills only when it runs dry.
///
/// The index is what [`RpEngine`], [`ShardedRpEngine`] and
/// [`SplitOrderEngine`] differ in; each has its own constructors.
pub struct IndexEngine<I> {
    index: I,
    core: EngineCore,
}

/// The relativistic engine over one [`RpHashMap`]: writes serialise on the
/// table's writer lock, and an index resize runs inline in the SET that
/// crosses a load-factor bound (postponed to
/// [`CacheEngine::housekeeping`] while the writer is an online QSBR
/// reader).
pub type RpEngine = IndexEngine<RpHashMap<String, Arc<StoredItem>, FnvBuildHasher>>;

/// The sharded relativistic engine over a [`ShardedRpMap`]: SETs, deletes
/// and index resizes serialise only within the target key's shard, so
/// write throughput scales with the shard count.
///
/// Index resizes run on an `rp-maint` background maintenance thread unless
/// the engine is built by [`ShardedRpEngine::with_options`] with `None`: a
/// SET that pushes a shard past its load-factor threshold only *requests*
/// the resize and never waits for a grace period.
pub type ShardedRpEngine = IndexEngine<ShardedRpMap<String, Arc<StoredItem>>>;

/// The split-ordered engine over a lock-free [`SplitOrderMap`]: SETs and
/// DELETEs never serialise on a writer lock, and index growth is a single
/// pointer publication — no data movement, no grace-period wait. The
/// competing resize philosophy, behind the same engine.
pub type SplitOrderEngine = IndexEngine<SplitOrderMap<String, Arc<StoredItem>, FnvBuildHasher>>;

/// Capacity of the engines' `new` constructors.
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Resize policy of the `rp` index and of every `rp-shard` shard: grow
/// past two entries per bucket, shrink below one per eight, keep at least
/// 16 buckets.
fn resize_policy() -> ResizePolicy {
    ResizePolicy {
        auto_expand: true,
        auto_shrink: true,
        max_load_factor: 2.0,
        min_load_factor: 0.125,
        min_buckets: 16,
        ..ResizePolicy::default()
    }
}

/// Initial buckets of a single-table index: the capacity as a power of
/// two between 16 and 1024; the index grows itself from there.
fn initial_buckets(capacity: usize) -> usize {
    capacity.clamp(16, 1024).next_power_of_two()
}

impl<I> IndexEngine<I> {
    fn from_index(index: I, capacity: usize) -> Self {
        IndexEngine {
            index,
            core: EngineCore::with_capacity(capacity),
        }
    }

    /// The index, for tests that check its shape.
    #[cfg(test)]
    pub(crate) fn index(&self) -> &I {
        &self.index
    }
}

impl RpEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an engine that holds at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        let index = RpHashMap::with_buckets_hasher_and_policy(
            initial_buckets(capacity),
            FnvBuildHasher,
            resize_policy(),
        );
        Self::from_index(index, capacity)
    }
}

impl Default for RpEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedRpEngine {
    /// Creates an engine with 16 shards and a large default capacity.
    pub fn new() -> Self {
        Self::with_shards_and_capacity(16, DEFAULT_CAPACITY)
    }

    /// Creates an engine with `shards` index shards holding at most
    /// `capacity` items, resized by a background maintenance thread with
    /// the default [`MaintConfig`].
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        Self::with_options(shards, capacity, Some(MaintConfig::default()))
    }

    /// The fully explicit constructor: `maint` carries the maintenance
    /// thread's tuning, or `None` for inline resizes in the SET that
    /// crosses a load-factor bound. The `kvcached` command line (`--maint`
    /// and the `--maint-*` flags) feeds it.
    pub fn with_options(shards: usize, capacity: usize, maint: Option<MaintConfig>) -> Self {
        let policy = ShardPolicy {
            shards,
            initial_buckets_per_shard: (capacity / shards.max(1)).clamp(16, 1024),
            per_shard: resize_policy(),
        };
        let index = match maint {
            Some(config) => ShardedRpMap::with_maintenance(policy, config),
            None => ShardedRpMap::with_policy(policy),
        };
        Self::from_index(index, capacity)
    }
}

impl Default for ShardedRpEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SplitOrderEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an engine that holds at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::from_index(
            SplitOrderMap::with_buckets(initial_buckets(capacity)),
            capacity,
        )
    }
}

impl Default for SplitOrderEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: ByteKeyIndex> CacheEngine for IndexEngine<I> {
    fn name(&self) -> &'static str {
        I::NAME
    }

    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        // One hashing pass over the borrowed key bytes serves the whole
        // lookup; the key is never copied and never re-validated.
        let hash = str_bytes_hash(key);
        let now = Instant::now();
        let stamp = self.core.stamp();
        let probe = match ctx.qsbr_handle() {
            Some(handle) => classify_probe(self.index.probe(hash, key, handle), now, stamp),
            None => {
                let guard = self.index.pin_guard();
                classify_probe(self.index.probe(hash, key, &guard), now, stamp)
            }
        };
        let stats = &self.core.stats;
        match probe {
            RawProbe::Live(item) => {
                stats.bump(&stats.get_hits);
                return Some(item);
            }
            // Cold path: remove through the writer side. The UTF-8 view is
            // free, since every stored key is valid UTF-8.
            RawProbe::Expired => {
                if std::str::from_utf8(key).is_ok_and(|key| self.index.remove_expired(hash, key)) {
                    stats.bump(&stats.expirations);
                }
            }
            RawProbe::Miss => {}
        }
        stats.bump(&stats.get_misses);
        None
    }

    fn set(&self, key: &str, item: Item) -> StoreOutcome {
        self.core.set(&self.index, key, item)
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.index.remove(key);
        if removed {
            self.core.stats.bump(&self.core.stats.deletes);
        }
        removed
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn housekeeping(&self) {
        self.index.maintain();
    }

    fn stats(&self) -> &CacheStats {
        &self.core.stats
    }

    fn purge_expired(&self) -> usize {
        self.core.purge_expired(&self.index)
    }

    fn observe_gauges(&self) {
        self.index.observe_gauges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReadSide;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
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

    // The conformance suite: every behaviour below runs on every engine
    // flavor (see `conformance_suite!` at the end).

    /// Builds an engine for a capacity.
    type Make<I> = fn(usize) -> IndexEngine<I>;

    /// How an engine's index grows under a burst of SETs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Growth {
        /// In the SET that crosses the load-factor bound; a writer that is
        /// an online QSBR reader postpones it until `housekeeping`.
        Inline,
        /// By one pointer publication, mid-batch even from an online QSBR
        /// writer.
        MidBatch,
        /// On a maintenance thread; writers never wait for readers.
        Background,
    }

    /// Runs `f` on a thread of its own, so a QSBR handle it registers
    /// lives and dies with it.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    fn expired(data: &'static str) -> Item {
        let mut item = Item::new(0, data);
        item.expires_at = Some(Instant::now() - Duration::from_millis(1));
        item
    }

    fn expirations(engine: &impl CacheEngine) -> u64 {
        engine.stats().expirations.load(Ordering::Relaxed)
    }

    fn round_trip<I: ByteKeyIndex>(make: Make<I>) {
        let engine = make(1 << 20);
        assert_eq!(engine.get("k"), None);
        assert_eq!(engine.set("k", Item::new(3, "value")), StoreOutcome::Stored);
        let item = engine.get("k").unwrap();
        assert_eq!(item.flags, 3);
        assert_eq!(&item.data[..], b"value");
        assert!(engine.delete("k"));
        assert!(!engine.delete("k"));
        assert_eq!(engine.get("k"), None);
        let huge = vec![0_u8; MAX_ITEM_SIZE + 1];
        assert_eq!(engine.set("k", Item::new(0, huge)), StoreOutcome::NotStored);
        assert_eq!(engine.len(), 0);
        assert_eq!(engine.stats().hits(), 1);
        assert_eq!(engine.stats().misses(), 2);
        assert_eq!(engine.stats().deletes.load(Ordering::Relaxed), 1);
    }

    fn get_ref_under_both_read_sides<I: ByteKeyIndex + 'static>(make: Make<I>) {
        on_fresh_thread(move || {
            let engine = make(10_000);
            for i in 0..200 {
                engine.set(&format!("k{i}"), Item::new(i, format!("v{i}")));
            }
            for read_side in [ReadSide::Ebr, ReadSide::Qsbr] {
                let mut ctx = EngineReadCtx::new(read_side);
                for i in 0..200_u32 {
                    let key = format!("k{i}");
                    let hit = engine.get_ref(key.as_bytes(), &mut ctx);
                    assert_eq!(hit, Some(Item::new(i, format!("v{i}"))), "{read_side:?}");
                }
                assert_eq!(engine.get_ref(b"missing", &mut ctx), None);
                assert_eq!(engine.get_ref(b"\xff\xfe not utf8", &mut ctx), None);
                ctx.quiescent();
            }
            assert_eq!(engine.stats().hits(), 400);
            assert_eq!(engine.stats().misses(), 4);
        });
    }

    fn lazy_expiry_on_get_and_get_many<I: ByteKeyIndex>(make: Make<I>) {
        let engine = make(1 << 20);
        engine.set("live", Item::new(0, "x"));
        engine.set("stale", expired("y"));
        engine.set("stale-too", expired("z"));
        assert_eq!(engine.get("stale"), None);
        assert_eq!(engine.len(), 2, "GET removes the expired item");
        let got = engine.get_many(&["live", "stale-too", "missing"]);
        assert!(got[0].is_some());
        assert!(got[1].is_none());
        assert!(got[2].is_none());
        assert_eq!(engine.len(), 1, "get_many removes the expired item");
        assert_eq!(expirations(&engine), 2);
        assert_eq!(engine.stats().misses(), 3);
    }

    fn exact_lru_capacity<I: ByteKeyIndex>(make: Make<I>) {
        let engine = make(4);
        for i in 0..4 {
            engine.set(&format!("k{i}"), Item::new(0, "x"));
        }
        // Touch k0..k2 so k3 is the stalest.
        for i in 0..3 {
            assert!(engine.get(&format!("k{i}")).is_some());
        }
        engine.set("k4", Item::new(0, "x"));
        assert_eq!(engine.len(), 4);
        assert_eq!(engine.stats().evicted(), 1);
        assert!(engine.get("k3").is_none(), "the stalest key is the victim");
        // The next victims follow access order: k0, then k1.
        engine.set("k5", Item::new(0, "x"));
        engine.set("k6", Item::new(0, "x"));
        assert_eq!(engine.len(), 4);
        assert_eq!(engine.stats().evicted(), 3);
        for (key, kept) in [("k0", false), ("k1", false), ("k2", true), ("k4", true)] {
            assert_eq!(engine.get(key).is_some(), kept, "{key}");
        }
    }

    fn purge_expired_removes_only_stale_items<I: ByteKeyIndex>(make: Make<I>) {
        let engine = make(1 << 20);
        for i in 0..6 {
            let item = if i % 2 == 0 {
                expired("x")
            } else {
                Item::new(0, "x")
            };
            engine.set(&format!("k{i}"), item);
        }
        assert_eq!(engine.purge_expired(), 3);
        assert_eq!(engine.len(), 3);
        assert_eq!(expirations(&engine), 3);
    }

    fn purge_expired_counts_despite_concurrent_sets<I: ByteKeyIndex>(make: Make<I>) {
        const EXPIRED: usize = 20_000;
        let engine = make(1 << 20);
        for i in 0..EXPIRED {
            engine.set(&format!("old-{i}"), expired("x"));
        }
        let stop = AtomicBool::new(false);
        let (started, setter_running) = mpsc::channel();
        let (purged, fresh) = std::thread::scope(|s| {
            let setter = s.spawn(|| {
                let mut fresh = 0;
                while fresh == 0 || !stop.load(Ordering::Relaxed) {
                    engine.set(&format!("new-{fresh}"), Item::new(0, "y"));
                    fresh += 1;
                    if fresh == 1 {
                        started.send(()).unwrap();
                    }
                }
                fresh
            });
            setter_running.recv().unwrap();
            let purged = engine.purge_expired();
            stop.store(true, Ordering::Relaxed);
            (purged, setter.join().unwrap())
        });
        assert_eq!(purged, EXPIRED, "fresh keys set during the sweep");
        assert_eq!(expirations(&engine), EXPIRED as u64);
        assert_eq!(engine.len(), fresh);
    }

    fn concurrent_gets_sets_and_batches<I: ByteKeyIndex>(make: Make<I>) {
        let engine = make(100_000);
        for i in 0..256 {
            engine.set(&format!("k{i}"), Item::new(0, format!("v{i}")));
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for seed in 0..2_u64 {
                let (engine, stop) = (&engine, &stop);
                s.spawn(move || {
                    let mut k = seed;
                    while !stop.load(Ordering::Relaxed) {
                        k = (k * 13 + 1) % 256;
                        let item = engine.get(&format!("k{k}")).expect("stable key present");
                        assert!(item.data.starts_with(b"v"));
                    }
                });
            }
            s.spawn(|| {
                let keys: Vec<String> = (0..64).map(|i| format!("k{i}")).collect();
                let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                while !stop.load(Ordering::Relaxed) {
                    for got in engine.get_many(&key_refs) {
                        assert!(got.expect("stable key present").data.starts_with(b"v"));
                    }
                }
            });
            for round in 0..2000_u32 {
                let k = round % 256;
                engine.set(&format!("k{k}"), Item::new(round, format!("v{k}-{round}")));
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    fn fill(engine: &impl CacheEngine) {
        for i in 0..16_384 {
            engine.set(&format!("key-{i}"), Item::new(0, "v"));
        }
        assert_eq!(engine.len(), 16_384);
    }

    fn index_growth<I: ByteKeyIndex + 'static>(
        make: Make<I>,
        buckets: fn(&I) -> usize,
        growth: Growth,
    ) {
        // From an EBR writer.
        let engine = make(100_000);
        let before = buckets(engine.index());
        let waits = rp_rcu::thread_synchronize_count();
        fill(&engine);
        if growth == Growth::Background {
            assert_eq!(
                rp_rcu::thread_synchronize_count(),
                waits,
                "maintained SETs must never wait for readers"
            );
            let deadline = Instant::now() + Duration::from_secs(10);
            while buckets(engine.index()) <= before {
                assert!(Instant::now() < deadline, "the index never grew");
                std::thread::sleep(Duration::from_millis(2));
            }
            return;
        }
        assert!(
            buckets(engine.index()) > before,
            "the writer grows the index"
        );

        // From a writer that is an online QSBR reader, like an event-loop
        // worker mid-batch.
        on_fresh_thread(move || {
            let engine = make(100_000);
            let mut ctx = EngineReadCtx::new(ReadSide::Qsbr);
            fill(&engine);
            assert_eq!(
                buckets(engine.index()) > before,
                growth == Growth::MidBatch,
                "{growth:?} growth from an online QSBR writer"
            );
            ctx.quiescent();
            ctx.with_offline(|| engine.housekeeping());
            assert!(buckets(engine.index()) > before, "housekeeping catches up");
            assert!(engine.get_via("key-7", &mut ctx).is_some());
            let hits = engine.get_many_via(&["key-1", "missing", "key-2"], &mut ctx);
            assert_eq!(hits.iter().filter(|h| h.is_some()).count(), 2);
        });
    }

    /// Instantiates the suite for each engine flavor: `$make` builds it for
    /// a capacity, `$growth` says how its index grows.
    macro_rules! conformance_suite {
        ($($flavor:ident: $make:expr, $growth:expr;)+) => {$(
            mod $flavor {
                use super::*;

                #[test]
                fn round_trip() {
                    super::round_trip($make);
                }

                #[test]
                fn get_ref_under_both_read_sides() {
                    super::get_ref_under_both_read_sides($make);
                }

                #[test]
                fn lazy_expiry_on_get_and_get_many() {
                    super::lazy_expiry_on_get_and_get_many($make);
                }

                #[test]
                fn exact_lru_capacity() {
                    super::exact_lru_capacity($make);
                }

                #[test]
                fn purge_expired_removes_only_stale_items() {
                    super::purge_expired_removes_only_stale_items($make);
                }

                #[test]
                fn purge_expired_counts_despite_concurrent_sets() {
                    super::purge_expired_counts_despite_concurrent_sets($make);
                }

                #[test]
                fn concurrent_gets_sets_and_batches() {
                    super::concurrent_gets_sets_and_batches($make);
                }

                #[test]
                fn index_growth() {
                    super::index_growth($make, |index| index.num_buckets(), $growth);
                }
            }
        )+};
    }

    conformance_suite! {
        rp: RpEngine::with_capacity, Growth::Inline;
        rp_shard: |capacity| {
            ShardedRpEngine::with_options(4, capacity, Some(MaintConfig::default()))
        }, Growth::Background;
        rp_shard_inline: |capacity| ShardedRpEngine::with_options(4, capacity, None), Growth::Inline;
        splitorder: SplitOrderEngine::with_capacity, Growth::MidBatch;
    }
}
