//! Batched multi-key operations.
//!
//! Every batched operation follows the same shape: hash all keys once,
//! group them by destination shard, then visit each shard exactly once —
//! one guard pin per shard for reads, one writer-lock acquisition per shard
//! for writes. Grouping preserves the caller's result ordering by carrying
//! the original index through the per-shard buckets.

use std::borrow::Borrow;
use std::hash::{BuildHasher, Hash};

use rp_hash::QsbrReadHandle;

use crate::map::ShardedRpMap;

impl<K, V, S> ShardedRpMap<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: BuildHasher,
{
    /// Looks up every key in `keys`, returning the values in the same order.
    ///
    /// Equivalent to calling [`ShardedRpMap::get_cloned`] per key, but keys
    /// are grouped by shard first and each shard is visited under a single
    /// guard pin, amortising the read-side entry/exit fence across the
    /// batch.
    ///
    /// # Examples
    ///
    /// ```
    /// use rp_shard::ShardedRpMap;
    ///
    /// let map: ShardedRpMap<u64, &'static str> = ShardedRpMap::with_shards(4);
    /// map.insert(1, "one");
    /// map.insert(2, "two");
    ///
    /// // Results come back in caller order, misses as `None`.
    /// assert_eq!(
    ///     map.multi_get(&[2, 7, 1]),
    ///     vec![Some("two"), None, Some("one")],
    /// );
    /// ```
    pub fn multi_get<Q>(&self, keys: &[Q]) -> Vec<Option<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq,
        V: Clone,
    {
        let mut results: Vec<Option<V>> = Vec::with_capacity(keys.len());
        results.resize_with(keys.len(), || None);

        // Group (hash, caller index) by shard. A Vec-of-Vecs keeps the
        // grouping allocation proportional to the batch, not the shard
        // count² — empty shards cost one empty Vec.
        let mut groups: Vec<Vec<(u64, usize)>> = vec![Vec::new(); self.shard_count()];
        for (idx, key) in keys.iter().enumerate() {
            let hash = self.hash_of(key);
            groups[self.shard_of_hash(hash)].push((hash, idx));
        }

        for (shard_idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // One pin covers every lookup in this shard; it is dropped
            // before moving on so a huge batch never holds one read-side
            // critical section across all shards (which would delay grace
            // periods for concurrent resizes).
            let guard = rp_rcu::pin();
            let shard = self.shard(shard_idx);
            for (hash, idx) in group {
                results[idx] = shard.get_prehashed(hash, &keys[idx], &guard).cloned();
            }
        }
        results
    }

    /// Looks up every key in `keys` through the QSBR read path, returning
    /// cloned values in caller order.
    ///
    /// Where [`ShardedRpMap::multi_get`] pins one EBR guard per shard
    /// visited (amortising the entry/exit fences), the QSBR batch needs no
    /// per-shard protection at all: the whole batch runs inside **one
    /// quiescent window** — the shared borrow of `handle` — so per-shard
    /// costs drop to the lookups themselves. Announce a quiescent state
    /// between batches, not within one.
    ///
    /// # Examples
    ///
    /// ```
    /// use rp_hash::QsbrReadHandle;
    /// use rp_shard::ShardedRpMap;
    ///
    /// let map: ShardedRpMap<u64, &'static str> = ShardedRpMap::with_shards(4);
    /// map.insert(1, "one");
    /// map.insert(2, "two");
    ///
    /// let mut handle = QsbrReadHandle::register();
    /// assert_eq!(
    ///     map.multi_get_qsbr(&[2, 7, 1], &handle),
    ///     vec![Some("two"), None, Some("one")],
    /// );
    /// handle.quiescent_state();
    /// ```
    pub fn multi_get_qsbr<Q>(&self, keys: &[Q], handle: &QsbrReadHandle) -> Vec<Option<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq,
        V: Clone,
    {
        keys.iter()
            .map(|key| {
                let hash = self.hash_of(key);
                self.shard(self.shard_of_hash(hash))
                    .get_prehashed(hash, key, handle)
                    .cloned()
            })
            .collect()
    }

    /// Inserts every `(key, value)` pair, returning how many keys were
    /// newly inserted (as opposed to replaced).
    ///
    /// Entries are grouped by shard and each shard's group is applied under
    /// a single writer-lock acquisition ([`rp_hash::RpHashMap::insert_many_prehashed`]),
    /// so a batch pays `O(shards touched)` lock round-trips instead of
    /// `O(entries)`. Writes to different shards still serialise only within
    /// their shard.
    ///
    /// If the batch contains duplicate keys, later entries win, matching a
    /// sequential insert loop.
    pub fn multi_put(&self, entries: impl IntoIterator<Item = (K, V)>) -> usize {
        let mut groups: Vec<Vec<(u64, K, V)>> =
            (0..self.shard_count()).map(|_| Vec::new()).collect();
        for (key, value) in entries {
            let hash = self.hash_of(&key);
            groups[self.shard_of_hash(hash)].push((hash, key, value));
        }
        let mut newly = 0;
        for (shard_idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            newly += self.shard(shard_idx).insert_many_prehashed(group);
            self.maybe_request_resize(shard_idx);
        }
        newly
    }

    /// Removes every key in `keys`, returning how many were present.
    ///
    /// Keys are grouped by shard and each shard's group is applied under a
    /// single writer-lock acquisition
    /// ([`rp_hash::RpHashMap::remove_many_prehashed`]), matching
    /// [`ShardedRpMap::multi_put`]: a batch pays `O(shards touched)` lock
    /// round-trips instead of `O(keys)`.
    pub fn multi_remove<Q>(&self, keys: &[Q]) -> usize
    where
        K: Borrow<Q>,
        Q: Hash + Eq,
    {
        let mut groups: Vec<Vec<(u64, usize)>> = vec![Vec::new(); self.shard_count()];
        for (idx, key) in keys.iter().enumerate() {
            let hash = self.hash_of(key);
            groups[self.shard_of_hash(hash)].push((hash, idx));
        }
        let mut removed = 0;
        for (shard_idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            removed += self
                .shard(shard_idx)
                .remove_many_prehashed(group.iter().map(|&(hash, idx)| (hash, &keys[idx])));
            self.maybe_request_resize(shard_idx);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use crate::ShardedRpMap;

    type Map = ShardedRpMap<u64, u64>;

    #[test]
    fn multi_get_matches_per_key_get() {
        let map = Map::with_shards(8);
        for i in 0..500 {
            map.insert(i, i + 1);
        }
        let keys: Vec<u64> = (0..600).collect();
        let batched = map.multi_get(&keys);
        for (key, got) in keys.iter().zip(&batched) {
            assert_eq!(*got, map.get_cloned(key), "key {key}");
        }
        assert_eq!(batched.len(), keys.len());
    }

    #[test]
    fn multi_get_preserves_caller_order() {
        let map = Map::with_shards(4);
        map.insert(10, 100);
        map.insert(20, 200);
        let got = map.multi_get(&[20, 99, 10, 20]);
        assert_eq!(got, vec![Some(200), None, Some(100), Some(200)]);
    }

    #[test]
    fn multi_put_counts_new_keys_and_replaces() {
        let map = Map::with_shards(4);
        map.insert(1, 0);
        let newly = map.multi_put(vec![(1, 11), (2, 22), (3, 33)]);
        assert_eq!(newly, 2, "key 1 is a replace");
        assert_eq!(map.len(), 3);
        assert_eq!(map.get_cloned(&1), Some(11));
        assert_eq!(map.get_cloned(&3), Some(33));
        map.check_invariants().unwrap();
    }

    #[test]
    fn multi_put_duplicate_keys_last_wins() {
        let map = Map::with_shards(4);
        let newly = map.multi_put(vec![(7, 1), (7, 2), (7, 3)]);
        assert_eq!(newly, 1);
        assert_eq!(map.get_cloned(&7), Some(3));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn multi_get_qsbr_matches_multi_get() {
        let map = Map::with_shards(8);
        for i in 0..300 {
            map.insert(i, i * 7);
        }
        let keys: Vec<u64> = (0..400).collect();
        let mut handle = rp_hash::QsbrReadHandle::register();
        let qsbr = map.multi_get_qsbr(&keys, &handle);
        handle.quiescent_state();
        assert_eq!(qsbr, map.multi_get(&keys));
    }

    #[test]
    fn multi_remove_counts_hits() {
        let map = Map::with_shards(4);
        for i in 0..10 {
            map.insert(i, i);
        }
        let removed = map.multi_remove(&[0, 1, 2, 42]);
        assert_eq!(removed, 3);
        assert_eq!(map.len(), 7);
    }

    #[test]
    fn empty_batches_are_noops() {
        let map = Map::with_shards(4);
        assert!(map.multi_get(&[]).is_empty());
        assert_eq!(map.multi_put(Vec::new()), 0);
        assert_eq!(map.multi_remove(&[]), 0);
    }

    #[test]
    fn large_batch_spans_every_shard() {
        let map = Map::with_shards(16);
        let entries: Vec<(u64, u64)> = (0..2048).map(|i| (i, i * 3)).collect();
        assert_eq!(map.multi_put(entries), 2048);
        let stats = map.stats();
        assert!(
            stats.shard_lens.iter().all(|&l| l > 0),
            "batch left shards empty: {:?}",
            stats.shard_lens
        );
        let keys: Vec<u64> = (0..2048).collect();
        let got = map.multi_get(&keys);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, v)| *v == Some(i as u64 * 3)));
    }
}
