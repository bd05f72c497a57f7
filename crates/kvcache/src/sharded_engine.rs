//! The sharded relativistic engine: the [`RpEngine`](crate::RpEngine)
//! architecture with a [`ShardedRpMap`] index, so SETs and automatic
//! resizes of the index only contend within one shard.

use std::sync::Arc;
use std::time::Instant;

use rp_hash::ResizePolicy;
use rp_maint::{MaintConfig, MaintStats};
use rp_shard::{ShardPolicy, ShardedRpMap};

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome};
use crate::item::Item;
use crate::rp_engine::{probe_ref, str_bytes_hash, EngineCore, StoredItem};

/// A cache engine whose index is a [`ShardedRpMap`].
///
/// GETs are the same wait-free relativistic lookups as
/// [`RpEngine`](crate::RpEngine), routed to a shard by the key's hash.
/// SETs, deletes and index resizes serialise only within the target key's
/// shard, so write throughput scales with the shard count.
///
/// **Background resizes are on by default**: index resizes are driven by an
/// `rp-maint` maintenance thread, so a SET that pushes a shard past its
/// load-factor threshold only *requests* the resize and never waits for a
/// grace period. Set the environment variable `RP_KV_MAINT=off` (or `0` /
/// `false`) before constructing the engine to fall back to inline resizing
/// in the triggering SET, e.g. for A/B latency comparisons — that is
/// exactly what the `fig_maint` benchmark measures.
pub struct ShardedRpEngine {
    index: ShardedRpMap<String, Arc<StoredItem>>,
    core: EngineCore,
}

impl Default for ShardedRpEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads the `RP_KV_MAINT` escape hatch: `off`, `0`, `false` and `no`
/// (case-insensitive) disable background resize maintenance.
fn maint_enabled_by_env() -> bool {
    maint_flag(std::env::var("RP_KV_MAINT").ok().as_deref())
}

fn maint_flag(value: Option<&str>) -> bool {
    match value {
        Some(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        None => true,
    }
}

impl ShardedRpEngine {
    /// Creates an engine with 16 shards and a large default capacity.
    pub fn new() -> Self {
        Self::with_shards_and_capacity(16, 1 << 20)
    }

    /// Creates an engine with `shards` index shards holding at most
    /// `capacity` items. Background resize maintenance is on unless
    /// `RP_KV_MAINT=off` is set in the environment.
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        Self::with_shards_capacity_and_maintenance(shards, capacity, maint_enabled_by_env())
    }

    /// [`ShardedRpEngine::with_shards_and_capacity`] with the maintenance
    /// choice made explicitly (ignoring the environment); used by tests and
    /// the `fig_maint` benchmark for deterministic A/B comparisons.
    pub fn with_shards_capacity_and_maintenance(
        shards: usize,
        capacity: usize,
        maintained: bool,
    ) -> Self {
        Self::with_options(shards, capacity, maintained.then(MaintConfig::default))
    }

    /// The fully explicit constructor: `maint` carries the maintenance
    /// thread's tuning ([`MaintConfig`]), or `None` for inline resizing.
    /// This is what the `kvcached` command line (`--maint-*` flags) feeds.
    pub fn with_options(shards: usize, capacity: usize, maint: Option<MaintConfig>) -> Self {
        let per_shard_buckets = (capacity / shards.max(1)).clamp(16, 1024);
        let policy = ShardPolicy {
            shards,
            initial_buckets_per_shard: per_shard_buckets,
            per_shard: ResizePolicy {
                auto_expand: true,
                auto_shrink: true,
                max_load_factor: 2.0,
                min_load_factor: 0.125,
                min_buckets: 16,
                ..ResizePolicy::default()
            },
        };
        let index = match maint {
            Some(config) => ShardedRpMap::with_maintenance(policy, config),
            None => ShardedRpMap::with_policy(policy),
        };
        ShardedRpEngine {
            index,
            core: EngineCore::with_capacity(capacity),
        }
    }

    /// Number of index shards.
    pub fn shard_count(&self) -> usize {
        self.index.shard_count()
    }

    /// Returns `true` if index resizes run on a background maintenance
    /// thread (the default; see the type docs for the `RP_KV_MAINT` escape
    /// hatch).
    pub fn maintained(&self) -> bool {
        self.index.maintained()
    }

    /// Counters of the index's maintenance thread, when maintained.
    pub fn maint_stats(&self) -> Option<MaintStats> {
        self.index.maint_stats()
    }

    /// Total buckets across all index shards (exposed so benchmarks can
    /// confirm the shards resize themselves under load).
    pub fn index_buckets(&self) -> usize {
        self.index.num_buckets()
    }

    /// Per-shard occupancy, for balance diagnostics.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.index.stats().shard_lens
    }
}

impl CacheEngine for ShardedRpEngine {
    fn name(&self) -> &'static str {
        "rp-shard"
    }

    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        // One hashing pass drives shard routing and the in-shard probe; the
        // borrowed key is never copied. Dispatch and accounting are shared
        // with RpEngine (`probe_ref`/`EngineCore::settle`); only the index
        // type and the expired-removal call differ.
        let hash = str_bytes_hash(key);
        let now = Instant::now();
        let stamp = self.core.stamp();
        let probe = probe_ref(&self.index, ctx, hash, key, now, stamp);
        self.core.settle(probe, || {
            // Expired: remove through the writer side (cold path; the
            // UTF-8 view is free — stored keys are always valid UTF-8).
            std::str::from_utf8(key)
                .map(|key| self.index.remove(key))
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
        // No-op on the (default) maintained path — the rp-maint thread
        // absorbs resize work; with `--maint off` this is what keeps an
        // all-QSBR-worker deployment resizing its shards.
        self.index.maintain();
    }

    fn stats(&self) -> &CacheStats {
        &self.core.stats
    }

    fn purge_expired(&self) -> usize {
        self.core.purge_expired(&self.index)
    }

    fn observe_gauges(&self) {
        // Scrape-time level gauge: shard balance as max/mean occupancy, in
        // thousandths (1000 = perfectly balanced).
        let imbalance = self.index.stats().imbalance();
        rp_obs::global()
            .resize
            .imbalance_milli
            .set((imbalance * 1000.0) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn get_set_delete_round_trip() {
        let engine = ShardedRpEngine::new();
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
    fn get_ref_matches_get_across_shards_and_read_sides() {
        use crate::engine::{EngineReadCtx, ReadSide};
        std::thread::spawn(|| {
            let engine = ShardedRpEngine::with_shards_and_capacity(8, 10_000);
            for i in 0..200 {
                engine.set(&format!("k{i}"), Item::new(i, format!("v{i}")));
            }
            for read_side in [ReadSide::Ebr, ReadSide::Qsbr] {
                let mut ctx = EngineReadCtx::new(read_side);
                for i in 0..200_u32 {
                    let key = format!("k{i}");
                    assert_eq!(
                        engine.get_ref(key.as_bytes(), &mut ctx),
                        engine.get(&key),
                        "{key} via {read_side:?}"
                    );
                }
                assert_eq!(engine.get_ref(b"missing", &mut ctx), None);
                ctx.quiescent();
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn get_many_matches_per_key_get() {
        let engine = ShardedRpEngine::with_shards_and_capacity(8, 10_000);
        for i in 0..200 {
            engine.set(&format!("k{i}"), Item::new(i, format!("v{i}")));
        }
        let keys: Vec<String> = (0..250).map(|i| format!("k{i}")).collect();
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let batched = engine.get_many(&key_refs);
        for (key, got) in key_refs.iter().zip(batched) {
            assert_eq!(got, engine.get(key), "key {key}");
        }
    }

    #[test]
    fn get_many_handles_expired_items() {
        let engine = ShardedRpEngine::new();
        engine.set("live", Item::new(0, "x"));
        let mut stale = Item::new(0, "y");
        stale.expires_at = Some(Instant::now() - Duration::from_millis(1));
        engine.set("stale", stale);
        assert_eq!(engine.len(), 2);
        let got = engine.get_many(&["live", "stale", "missing"]);
        assert!(got[0].is_some());
        assert!(got[1].is_none());
        assert!(got[2].is_none());
        assert_eq!(engine.len(), 1, "expired item removed lazily by the batch");
        assert_eq!(engine.stats().expirations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let engine = ShardedRpEngine::with_shards_and_capacity(4, 8);
        for i in 0..12 {
            engine.set(&format!("k{i}"), Item::new(0, "x"));
        }
        assert_eq!(engine.len(), 8);
        assert_eq!(engine.stats().evicted(), 4);
        for i in 0..4 {
            assert!(engine.get(&format!("k{i}")).is_none(), "k{i} was stalest");
        }
    }

    #[test]
    fn index_shards_resize_independently_under_load() {
        // Inline-resize flavor: growth is synchronous with the SETs.
        let engine = ShardedRpEngine::with_shards_capacity_and_maintenance(4, 100_000, false);
        let before = engine.index_buckets();
        for i in 0..16_384 {
            engine.set(&format!("key-{i}"), Item::new(0, "v"));
        }
        assert!(
            engine.index_buckets() > before,
            "expected sharded index auto-expansion ({} -> {})",
            before,
            engine.index_buckets()
        );
        assert_eq!(engine.len(), 16_384);
        let lens = engine.shard_lens();
        assert!(lens.iter().all(|&l| l > 0), "unbalanced shards: {lens:?}");
    }

    #[test]
    fn maintained_sets_never_wait_and_index_grows_in_background() {
        let engine = ShardedRpEngine::with_shards_capacity_and_maintenance(4, 100_000, true);
        assert!(engine.maintained());
        let before_buckets = engine.index_buckets();
        let before_waits = rp_rcu::thread_synchronize_count();
        for i in 0..16_384 {
            engine.set(&format!("key-{i}"), Item::new(0, "v"));
        }
        assert_eq!(
            rp_rcu::thread_synchronize_count(),
            before_waits,
            "maintained SETs must never wait for readers"
        );
        // The maintenance thread grows the index asynchronously. Poll for a
        // *completed* resize (buckets grow at begin, before any grace wait
        // has been recorded, so polling on bucket count alone would race).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while engine
            .maint_stats()
            .expect("maintained engine has stats")
            .resizes_finished
            == 0
        {
            assert!(
                std::time::Instant::now() < deadline,
                "index never grew in the background: {:?}",
                engine.maint_stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(engine.index_buckets() > before_buckets);
        let maint = engine.maint_stats().expect("maintained engine has stats");
        assert!(maint.grace_waits >= 1);
        assert_eq!(engine.len(), 16_384);
        assert_eq!(
            engine.get("key-7").map(|i| i.data.to_vec()),
            Some(b"v".to_vec())
        );
    }

    #[test]
    fn qsbr_worker_housekeeping_grows_unmaintained_shards() {
        use crate::engine::{EngineReadCtx, ReadSide};
        std::thread::spawn(|| {
            // `--maint off` + QSBR workers: without housekeeping nothing
            // would ever resize the shards.
            let engine = ShardedRpEngine::with_shards_capacity_and_maintenance(4, 100_000, false);
            let mut ctx = EngineReadCtx::new(ReadSide::Qsbr);
            let before = engine.index_buckets();
            for i in 0..16_384 {
                engine.set(&format!("key-{i}"), Item::new(0, "v"));
            }
            assert_eq!(
                engine.index_buckets(),
                before,
                "shard resizes must be postponed while the worker is QSBR-online"
            );
            ctx.quiescent();
            ctx.with_offline(|| engine.housekeeping());
            assert!(
                engine.index_buckets() > before,
                "housekeeping must expand the postponed shards ({} -> {})",
                before,
                engine.index_buckets()
            );
            assert!(engine.get_via("key-9", &mut ctx).is_some());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn rp_kv_maint_env_values_parse() {
        assert!(super::maint_flag(None), "maintenance defaults to on");
        assert!(super::maint_flag(Some("on")));
        assert!(super::maint_flag(Some("1")));
        for off in ["off", "OFF", "0", "false", "no", " Off "] {
            assert!(!super::maint_flag(Some(off)), "{off:?} must disable");
        }
    }

    #[test]
    fn concurrent_gets_sets_and_batches() {
        use std::sync::atomic::AtomicBool;
        let engine = Arc::new(ShardedRpEngine::with_shards_and_capacity(8, 100_000));
        for i in 0..256 {
            engine.set(&format!("k{i}"), Item::new(0, format!("v{i}")));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for seed in 0..2_u64 {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut k = seed;
                while !stop.load(Ordering::Relaxed) {
                    k = (k * 13 + 1) % 256;
                    let item = engine.get(&format!("k{k}")).expect("stable key present");
                    assert!(item.data.starts_with(b"v"));
                }
            }));
        }
        {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let keys: Vec<String> = (0..64).map(|i| format!("k{i}")).collect();
                    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                    for got in engine.get_many(&key_refs) {
                        assert!(got.expect("stable key present").data.starts_with(b"v"));
                    }
                }
            }));
        }
        for round in 0..2000_u32 {
            let k = round % 256;
            engine.set(&format!("k{k}"), Item::new(round, format!("v{k}-{round}")));
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
    }
}
