//! Eviction semantics of the relativistic engines.
//!
//! * Single-threaded, every relativistic engine must evict exactly what
//!   the exact-LRU [`LockEngine`] evicts: the same GET hits and misses, the
//!   same DELETE results, the same final size and eviction count.
//! * Concurrent evicting SETs — some of them from QSBR-online threads —
//!   must neither deadlock against grace periods nor evict more than
//!   needed.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use rp_kvcache::{
    CacheEngine, EngineReadCtx, Item, LockEngine, ReadSide, RpEngine, ShardedRpEngine,
    SplitOrderEngine,
};
use rp_maint::MaintConfig;

const CAPACITY: usize = 256;

/// SplitMix64: a tiny seeded generator, so every engine sees the same
/// sequence.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// GET, and SET on a miss (a look-aside cache client).
    GetOrSet(usize),
    Delete(usize),
}

/// A skewed sequence over twice the capacity's worth of keys: a hot head
/// that stays cached and a long tail that keeps the cache evicting.
fn ops(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = SplitMix(seed);
    let keys = 2 * CAPACITY;
    (0..steps)
        .map(|_| {
            let key = (keys as f64 * rng.unit().powi(3)) as usize;
            if rng.next().is_multiple_of(50) {
                Op::Delete(key)
            } else {
                Op::GetOrSet(key)
            }
        })
        .collect()
}

/// Applies `op` and returns what the client saw: whether the GET hit, or
/// whether the DELETE found the key.
fn apply(engine: &dyn CacheEngine, op: Op) -> bool {
    match op {
        Op::GetOrSet(key) => {
            let key = format!("key-{key}");
            let hit = engine.get(&key).is_some();
            if !hit {
                engine.set(&key, Item::new(0, key.clone()));
            }
            hit
        }
        Op::Delete(key) => engine.delete(&format!("key-{key}")),
    }
}

#[test]
fn relativistic_engines_evict_exactly_like_the_lru_reference() {
    let engines: Vec<Box<dyn CacheEngine>> = vec![
        Box::new(RpEngine::with_capacity(CAPACITY)),
        Box::new(ShardedRpEngine::with_options(4, CAPACITY, None)),
        Box::new(SplitOrderEngine::with_capacity(CAPACITY)),
    ];
    let reference = LockEngine::with_capacity(CAPACITY);
    for (step, op) in ops(7, 20_000).into_iter().enumerate() {
        let expected = apply(&reference, op);
        for engine in &engines {
            assert_eq!(
                apply(engine.as_ref(), op),
                expected,
                "{} diverged from exact LRU at step {step} ({op:?})",
                engine.name()
            );
        }
    }
    assert!(
        reference.stats().evicted() > 1000,
        "the sequence must keep the cache evicting"
    );
    for engine in &engines {
        assert_eq!(engine.len(), reference.len(), "{}", engine.name());
        assert_eq!(
            engine.stats().evicted(),
            reference.stats().evicted(),
            "{}",
            engine.name()
        );
    }
}

#[test]
fn concurrent_evicting_sets_neither_deadlock_nor_over_evict() {
    const SMALL_CAPACITY: usize = 64;
    const SETTERS: usize = 4;
    const ROUNDS: usize = 1_000;

    let engine = Arc::new(ShardedRpEngine::with_options(
        4,
        SMALL_CAPACITY,
        Some(MaintConfig::default()),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = SplitMix(11);
            let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
            while !stop.load(Ordering::Relaxed) {
                let setter = rng.next() as usize % SETTERS;
                let round = rng.next() as usize % ROUNDS;
                engine.get_ref(format!("s{setter}-{round}").as_bytes(), &mut ctx);
            }
        })
    };

    // Each round releases every setter at once to race one SET apiece past
    // capacity, then checks the size: racing evictors must together evict
    // exactly as many entries as the round inserted.
    let barrier = Arc::new(Barrier::new(SETTERS));
    let short_rounds = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let setters: Vec<_> = (0..SETTERS)
        .map(|setter| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let short_rounds = Arc::clone(&short_rounds);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                let read_side = if setter < 2 {
                    ReadSide::Qsbr
                } else {
                    ReadSide::Ebr
                };
                let mut ctx = EngineReadCtx::new(read_side);
                for round in 0..ROUNDS {
                    // Offline while blocked, so the waits hold up no grace
                    // period.
                    ctx.with_offline(|| barrier.wait());
                    engine.set(&format!("s{setter}-{round}"), Item::new(0, "v"));
                    let leader = ctx.with_offline(|| barrier.wait()).is_leader();
                    let filled = (round + 1) * SETTERS >= SMALL_CAPACITY;
                    if leader && filled && engine.len() != SMALL_CAPACITY {
                        short_rounds.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.quiescent();
                }
                drop(ctx);
                done.send(()).unwrap();
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    for _ in 0..SETTERS {
        let left = deadline.saturating_duration_since(Instant::now());
        done_rx
            .recv_timeout(left)
            .expect("evicting setters stalled: grace-period deadlock");
    }
    stop.store(true, Ordering::Relaxed);
    for setter in setters {
        setter.join().unwrap();
    }
    reader.join().unwrap();

    assert_eq!(
        short_rounds.load(Ordering::Relaxed),
        0,
        "rounds that ended below capacity (over-eviction)"
    );
    let distinct_sets = (SETTERS * ROUNDS) as u64;
    assert_eq!(engine.len(), SMALL_CAPACITY);
    assert_eq!(
        engine.stats().evicted(),
        distinct_sets - SMALL_CAPACITY as u64,
        "every eviction must be one the capacity needed"
    );
}
