//! Per-layer timings taken in isolation, each by calling one crate's
//! public functions from outside on fixed inputs drawn from the seed.
//! Every figure is the median over several batches of the batch's mean
//! cost per call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rp_hash::{QsbrReadHandle, ResizeStep, RpHashMap};
use rp_kvcache::protocol::{Decoded, RefDecoder};
use rp_kvcache::server::execute_ref;
use rp_kvcache::{CacheEngine, EngineReadCtx, Item};
use rp_shard::{ShardPolicy, ShardedRpMap};

use crate::client;
use crate::table::{self, Table};
use crate::trace::{mean_by_call, SpanLog, TracedEngine};
use crate::util::{median, Rng};

const BATCHES: usize = 15;

/// Median over `BATCHES` runs of `batch` of its nanoseconds per op.
fn per_op_ns(ops_per_batch: usize, mut batch: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops_per_batch as f64
        })
        .collect();
    median(&mut ns)
}

pub fn ebr_pin_ns() -> f64 {
    per_op_ns(100_000, || {
        for _ in 0..100_000 {
            black_box(rp_rcu::pin());
        }
    })
}

pub fn qsbr_quiescent_ns() -> f64 {
    let mut handle = QsbrReadHandle::register();
    let ns = per_op_ns(100_000, || {
        for _ in 0..100_000 {
            handle.quiescent_state();
        }
    });
    // Dropping the handle takes this thread offline, so later grace periods
    // do not wait for it.
    drop(handle);
    ns
}

/// Random indexes into the key set, shared by the lookup probes.
fn probe_order(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x70726f62);
    (0..4096).map(|_| rng.below(table::KEYS)).collect()
}

fn lookup_batch(map: &Table, keys: &[u64], order: &[usize]) {
    let guard = map.pin();
    for &i in order {
        black_box(map.get(&keys[i], &guard));
    }
}

/// `get` cost (one guard per 4096 lookups) on 8192 keys in
/// `8192 / load_factor` buckets.
pub fn lookup_ns(keys: &[u64], seed: u64, load_factor: f64) -> f64 {
    let map = RpHashMap::with_buckets((table::KEYS as f64 / load_factor) as usize);
    for &key in keys {
        map.insert(key, table::value_of(key));
    }
    let order = probe_order(seed);
    lookup_batch(&map, keys, &order);
    per_op_ns(order.len(), || lookup_batch(&map, keys, &order))
}

/// The same lookups through a 16-shard `ShardedRpMap` of 8192 buckets in
/// total (load factor 1): compared with `lookup_ns(.., 1.0)` it gives the
/// cost of routing a key to its shard.
pub fn shard_get_ns(keys: &[u64], seed: u64) -> f64 {
    let map: ShardedRpMap<u64, u64> = ShardedRpMap::with_policy(ShardPolicy {
        shards: 16,
        initial_buckets_per_shard: table::SMALL / 16,
        ..ShardPolicy::default()
    });
    for &key in keys {
        map.insert(key, table::value_of(key));
    }
    let order = probe_order(seed);
    let batch = || {
        let guard = map.pin();
        for &i in &order {
            black_box(map.get(&keys[i], &guard));
        }
    };
    batch();
    per_op_ns(order.len(), batch)
}

/// Lookups between the steps of incremental expands and shrinks of an
/// 8192-key table (8192 ↔ 16384 buckets): the cost of reading a table
/// whose buckets are mid-unzip or mid-zip.
pub fn lookup_unzip_ns(keys: &[u64], seed: u64) -> f64 {
    let map = table::fill(keys);
    let order = probe_order(seed);
    let probe = &order[..512];
    let mut samples = Vec::new();
    for round in 0..8 {
        let begun = if round % 2 == 0 {
            map.begin_expand()
        } else {
            map.begin_shrink()
        };
        assert!(begun, "no resize may be in progress between rounds");
        loop {
            let start = Instant::now();
            lookup_batch(&map, keys, probe);
            samples.push(start.elapsed().as_nanos() as f64 / probe.len() as f64);
            if map.advance_resize() == ResizeStep::Finished {
                break;
            }
        }
    }
    median(&mut samples)
}

pub struct ResizeCost {
    pub expand_us: f64,
    pub shrink_us: f64,
    pub ns_per_bucket: f64,
    pub syncs_per_resize: f64,
}

/// `resize_to` 8192 → 16384 and back on an 8192-key table with no reader.
pub fn resize_cost(keys: &[u64]) -> ResizeCost {
    let map = table::fill(keys);
    let (mut expand, mut shrink) = (Vec::new(), Vec::new());
    let syncs = rp_rcu::thread_synchronize_count();
    const REPS: usize = 15;
    for _ in 0..REPS {
        let start = Instant::now();
        map.resize_to(table::LARGE);
        expand.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        map.resize_to(table::SMALL);
        shrink.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let syncs = rp_rcu::thread_synchronize_count() - syncs;
    let expand_us = median(&mut expand);
    ResizeCost {
        expand_us,
        shrink_us: median(&mut shrink),
        ns_per_bucket: expand_us * 1e3 / table::LARGE as f64,
        syncs_per_resize: syncs as f64 / (2 * REPS) as f64,
    }
}

/// `(insert_ns, remove_ns)`: 8192 fresh keys into an empty table of 8192
/// buckets (fixed size), then all of them removed.
pub fn insert_remove_ns(keys: &[u64]) -> (f64, f64) {
    let (mut insert, mut remove) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let map: Table = RpHashMap::with_buckets(table::SMALL);
        let start = Instant::now();
        for &key in keys {
            map.insert(key, key);
        }
        insert.push(start.elapsed().as_nanos() as f64 / keys.len() as f64);
        let start = Instant::now();
        for key in keys {
            map.remove(key);
        }
        remove.push(start.elapsed().as_nanos() as f64 / keys.len() as f64);
    }
    (median(&mut insert), median(&mut remove))
}

/// Mean span per engine call (`[get hit, get miss, set, delete]`, in
/// nanoseconds) on a private engine built from the server's defaults and
/// holding 8192 keys, traced by the same wrapper as the live server.
pub fn engine_calls_ns(engine: Arc<dyn CacheEngine>) -> [f64; 4] {
    const N: u32 = 8192;
    let log = Arc::new(SpanLog::with_capacity(1 << 20));
    let traced = TracedEngine {
        inner: engine,
        log: log.clone(),
    };
    let key = |id: u32| client::key(id);
    let set = |id: u32| {
        let k = key(id);
        traced.set(
            std::str::from_utf8(&k).expect("ASCII key"),
            Item::new(0, client::value(id, 1).to_vec()),
        )
    };
    let mut ctx = EngineReadCtx::ebr();
    for round in 0..4 {
        for id in 0..N {
            set(id);
        }
        for id in 0..N {
            black_box(traced.get_ref(&key(id), &mut ctx));
            black_box(traced.get_ref(&key(N + id), &mut ctx));
        }
        for id in 0..N {
            let k = key(id);
            traced.delete(std::str::from_utf8(&k).expect("ASCII key"));
        }
        if round == 0 {
            // The first round warms the engine's index and allocator.
            log.clear();
        }
    }
    mean_by_call(&log.spans()).map(|(mean, _)| mean)
}

pub struct ProtocolCost {
    pub decode_ns: f64,
    pub execute_self_ns: f64,
}

/// Decodes `bytes` (requests as a client sent them) with `RefDecoder`,
/// then runs each request through `execute_ref` against `engine` wrapped
/// in a span recorder; `execute_self_ns` is `execute_ref`'s span minus the
/// engine span inside it: parsing the request's fields into calls and
/// serialising the reply.
pub fn protocol_cost(
    bytes: &[u8],
    engine: Arc<dyn CacheEngine>,
    read_side: rp_kvcache::ReadSide,
) -> ProtocolCost {
    let count = |bytes: &[u8]| {
        let mut decoder = RefDecoder::new();
        let (mut at, mut n) = (0, 0usize);
        loop {
            let (used, decoded) = decoder.step(&bytes[at..]);
            at += used;
            match decoded {
                Decoded::Request(request) => {
                    black_box(&request);
                    n += 1;
                }
                Decoded::Bad(bad) => panic!("captured request did not decode: {bad:?}"),
                Decoded::NeedMore => return n,
            }
        }
    };
    let requests = count(bytes).max(1);
    let decode_ns = per_op_ns(requests, || {
        black_box(count(bytes));
    });

    let log = Arc::new(SpanLog::with_capacity(1 << 16));
    let traced = TracedEngine {
        inner: engine,
        log: log.clone(),
    };
    let mut ctx = EngineReadCtx::new(read_side);
    let mut out = Vec::with_capacity(1 << 16);
    let mut self_ns = Vec::with_capacity(3);
    for _ in 0..3 {
        let mut decoder = RefDecoder::new();
        let (mut at, mut own) = (0, 0u64);
        let mut n = 0u64;
        while let (used, Decoded::Request(request)) = decoder.step(&bytes[at..]) {
            at += used;
            let busy = log.busy_ns();
            let start = crate::util::now_ns();
            execute_ref(&traced, &request, &mut ctx, &mut out);
            let span = crate::util::now_ns() - start;
            own += span.saturating_sub(log.busy_ns() - busy);
            n += 1;
            if n.is_multiple_of(32) {
                out.clear();
                ctx.quiescent();
            }
        }
        self_ns.push(own as f64 / n.max(1) as f64);
        log.clear();
    }
    drop(ctx);
    ProtocolCost {
        decode_ns,
        execute_self_ns: median(&mut self_ns),
    }
}
