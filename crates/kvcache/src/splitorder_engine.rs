//! The split-ordered engine: lock-free writers over an
//! [`rp_splitorder::SplitOrderMap`] index — the competing resize
//! philosophy, served behind the same [`CacheEngine`] seam.

use std::sync::Arc;
use std::time::Instant;

use rp_hash::FnvBuildHasher;
use rp_splitorder::SplitOrderMap;

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome};
use crate::item::Item;
use crate::rp_engine::{probe_ref, str_bytes_hash, EngineCore, StoredItem};

/// The split-ordered engine: the index is a lock-free split-ordered list,
/// so **SETs and DELETEs never serialise on a writer lock** and index
/// growth is a single pointer publication — no data movement, no
/// grace-period wait. GETs are the same `ReadProtect`-generic wait-free
/// lookups as the relativistic engines (EBR guard or barrier-free QSBR
/// handle); expiry is lazy and eviction exact LRU (the shared victim
/// queue), both on the writer-side slow path.
pub struct SplitOrderEngine {
    index: SplitOrderMap<String, Arc<StoredItem>, FnvBuildHasher>,
    core: EngineCore,
}

impl Default for SplitOrderEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SplitOrderEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// Creates an engine that holds at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity.max(16)).next_power_of_two().min(1 << 16);
        SplitOrderEngine {
            index: SplitOrderMap::with_buckets(buckets.min(1024)),
            core: EngineCore::with_capacity(capacity),
        }
    }

    /// Number of buckets currently used by the index (exposed so tests and
    /// benchmarks can confirm the table splits itself under load).
    pub fn index_buckets(&self) -> usize {
        self.index.num_buckets()
    }
}

impl CacheEngine for SplitOrderEngine {
    fn name(&self) -> &'static str {
        "splitorder"
    }

    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        // One hashing pass over the borrowed key bytes serves the whole
        // lookup; the key is never copied and never re-validated.
        let hash = str_bytes_hash(key);
        let now = Instant::now();
        let stamp = self.core.stamp();
        let probe = probe_ref(&self.index, ctx, hash, key, now, stamp);
        self.core.settle(probe, || {
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
        // The split-ordered index never postpones growth (it is
        // non-blocking), but removals queue deferred reclamation; drain it
        // from the offline window between event batches.
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
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn get_set_delete_round_trip() {
        let engine = SplitOrderEngine::new();
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
    fn get_ref_matches_get_for_both_read_sides() {
        use crate::engine::{EngineReadCtx, ReadSide};
        std::thread::spawn(|| {
            let engine = SplitOrderEngine::new();
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
            assert_eq!(engine.get_ref(b"stale", &mut EngineReadCtx::ebr()), None);
            assert_eq!(engine.len(), 1);
            assert!(engine.stats().expirations.load(Ordering::Relaxed) >= 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn expired_items_fall_back_to_the_slow_path() {
        let engine = SplitOrderEngine::new();
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
        let engine = SplitOrderEngine::with_capacity(4);
        for i in 0..4 {
            engine.set(&format!("k{i}"), Item::new(0, "x"));
        }
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
        let engine = SplitOrderEngine::new();
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
    fn index_splits_itself_even_from_a_qsbr_worker() {
        use crate::engine::{EngineReadCtx, ReadSide};
        // The headline difference from the relativistic engines: growth is
        // non-blocking, so it is *not* postponed while the worker is a
        // QSBR-online reader — the index splits mid-batch, no housekeeping
        // catch-up required.
        std::thread::spawn(|| {
            let engine = SplitOrderEngine::with_capacity(100_000);
            let mut ctx = EngineReadCtx::new(ReadSide::Qsbr);
            let before = engine.index_buckets();
            for i in 0..8192 {
                engine.set(&format!("key-{i}"), Item::new(0, "v"));
            }
            assert!(
                engine.index_buckets() > before,
                "split-ordered growth must not be postponed ({} -> {})",
                before,
                engine.index_buckets()
            );
            assert!(engine.get_via("key-7", &mut ctx).is_some());
            let hits = engine.get_many_via(&["key-1", "missing", "key-2"], &mut ctx);
            assert_eq!(hits.iter().filter(|h| h.is_some()).count(), 2);
            ctx.quiescent();
            ctx.with_offline(|| engine.housekeeping());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn concurrent_gets_and_sets() {
        use std::sync::atomic::AtomicBool;
        let engine = Arc::new(SplitOrderEngine::new());
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
