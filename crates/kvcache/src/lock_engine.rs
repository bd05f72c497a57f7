//! The default engine: a single global lock (memcached's `cache_lock`).

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome, MAX_ITEM_SIZE};
use crate::item::Item;

struct Slot {
    item: Item,
    /// Monotonic access stamp used for LRU eviction.
    last_access: u64,
}

struct Inner {
    map: HashMap<String, Slot>,
    clock: u64,
}

/// The stock-memcached-shaped engine: **every** operation — including GET —
/// acquires one global mutex.
///
/// This is the configuration whose GET throughput stops scaling once a
/// handful of client threads contend on the lock, which is precisely the
/// effect the paper's memcached figure demonstrates.
pub struct LockEngine {
    inner: Mutex<Inner>,
    /// Maximum number of items before eviction kicks in.
    capacity: usize,
    stats: CacheStats,
}

impl Default for LockEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl LockEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// Creates an engine that holds at most `capacity` items, evicting the
    /// least recently used item beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        LockEngine {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    fn evict_if_needed(&self, inner: &mut Inner) {
        while inner.map.len() > self.capacity {
            // Exact LRU under the global lock: find the slot with the oldest
            // access stamp. (memcached keeps an intrusive list; a scan keeps
            // this reproduction simple and happens only beyond capacity.)
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_access)
                .map(|(k, _)| k.clone());
            match victim {
                Some(key) => {
                    inner.map.remove(&key);
                    self.stats.bump(&self.stats.evictions);
                }
                None => break,
            }
        }
    }
}

impl CacheEngine for LockEngine {
    fn name(&self) -> &'static str {
        "default"
    }

    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        // The baseline has no relativistic read path — a lookup takes the
        // global lock whichever flavor the server picked. What it must
        // still honor is the QSBR discipline: a blocking lock acquisition
        // from an online QSBR thread would stall every writer's grace
        // period behind the lock queue, so the wait happens offline.
        ctx.with_offline(|| {
            // Every stored key is valid UTF-8, so any other key misses.
            let key = std::str::from_utf8(key).ok()?;
            let now = Instant::now();
            let mut inner = self.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            match inner.map.get_mut(key) {
                Some(slot) if !slot.item.is_expired(now) => {
                    slot.last_access = clock;
                    self.stats.bump(&self.stats.get_hits);
                    Some(slot.item.clone())
                }
                Some(_) => {
                    inner.map.remove(key);
                    self.stats.bump(&self.stats.expirations);
                    self.stats.bump(&self.stats.get_misses);
                    None
                }
                None => {
                    self.stats.bump(&self.stats.get_misses);
                    None
                }
            }
        })
    }

    fn set(&self, key: &str, item: Item) -> StoreOutcome {
        if item.len() > MAX_ITEM_SIZE {
            return StoreOutcome::NotStored;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(
            key.to_string(),
            Slot {
                item,
                last_access: clock,
            },
        );
        self.evict_if_needed(&mut inner);
        self.stats.bump(&self.stats.sets);
        StoreOutcome::Stored
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.inner.lock().map.remove(key).is_some();
        if removed {
            self.stats.bump(&self.stats.deletes);
        }
        removed
    }

    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn purge_expired(&self) -> usize {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner.map.retain(|_, slot| !slot.item.is_expired(now));
        let purged = before - inner.map.len();
        for _ in 0..purged {
            self.stats.bump(&self.stats.expirations);
        }
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn get_set_delete_round_trip() {
        let engine = LockEngine::new();
        assert_eq!(engine.get("k"), None);
        assert_eq!(engine.set("k", Item::new(1, "v")), StoreOutcome::Stored);
        let item = engine.get("k").unwrap();
        assert_eq!(item.flags, 1);
        assert_eq!(&item.data[..], b"v");
        assert!(engine.delete("k"));
        assert!(!engine.delete("k"));
        assert_eq!(engine.len(), 0);
    }

    #[test]
    fn expired_items_are_misses_and_removed() {
        let engine = LockEngine::new();
        let mut item = Item::new(0, "soon gone");
        item.expires_at = Some(Instant::now() - Duration::from_millis(1));
        engine.set("k", item);
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.get("k"), None);
        assert_eq!(engine.len(), 0);
        assert_eq!(engine.stats().misses(), 1);
    }

    #[test]
    fn capacity_triggers_lru_eviction() {
        let engine = LockEngine::with_capacity(3);
        engine.set("a", Item::new(0, "1"));
        engine.set("b", Item::new(0, "2"));
        engine.set("c", Item::new(0, "3"));
        // Touch "a" so "b" becomes the LRU victim.
        engine.get("a");
        engine.set("d", Item::new(0, "4"));
        assert_eq!(engine.len(), 3);
        assert!(engine.get("a").is_some());
        assert!(engine.get("b").is_none());
        assert!(engine.get("d").is_some());
        assert_eq!(engine.stats().evicted(), 1);
    }

    #[test]
    fn oversized_items_are_rejected() {
        let engine = LockEngine::new();
        let huge = vec![0_u8; (1 << 20) + 1];
        assert_eq!(engine.set("k", Item::new(0, huge)), StoreOutcome::NotStored);
        assert_eq!(engine.len(), 0);
    }

    #[test]
    fn get_via_serves_both_read_side_contexts() {
        use crate::engine::ReadSide;
        let engine = LockEngine::new();
        engine.set("k", Item::new(7, "v"));
        for side in [ReadSide::Ebr, ReadSide::Qsbr] {
            let mut ctx = EngineReadCtx::new(side);
            let item = engine.get_via("k", &mut ctx).expect("hit via {side:?}");
            assert_eq!(item.flags, 7);
            let many = engine.get_many_via(&["k", "missing"], &mut ctx);
            assert_eq!(many.len(), 2);
            assert!(many[0].is_some(), "batch hit");
            assert!(many[1].is_none(), "batch miss");
        }
    }

    #[test]
    fn purge_expired_sweeps_everything_stale() {
        let engine = LockEngine::new();
        for i in 0..10 {
            let mut item = Item::new(0, "x");
            if i % 2 == 0 {
                item.expires_at = Some(Instant::now() - Duration::from_millis(1));
            }
            engine.set(&format!("k{i}"), item);
        }
        assert_eq!(engine.purge_expired(), 5);
        assert_eq!(engine.len(), 5);
    }
}
