//! A memcached-style key-value cache with two storage engines.
//!
//! The paper's real-world evaluation patches memcached: stock memcached 1.4
//! protects its item hash table with a single global lock (`cache_lock`),
//! while the patched version adds a **relativistic GET fast path** — lookups
//! run inside an RCU read-side critical section, copy the value out, and
//! never take the lock; SETs, deletions, expiry and eviction still use the
//! lock. This crate rebuilds that experiment end to end in Rust:
//!
//! * [`protocol`] — a subset of the memcached **text protocol** (GET / SET /
//!   DELETE plus a few diagnostics) with an incremental parser suitable for
//!   a streaming socket.
//! * [`Item`] — a stored value: flags, optional expiry, payload bytes.
//! * [`CacheEngine`] — the storage-engine trait the server dispatches to.
//! * [`LockEngine`] — the **default** engine: one global mutex around a hash
//!   map plus LRU bookkeeping, the `cache_lock` architecture.
//! * [`RpEngine`] — the **relativistic** engine: the index is an
//!   [`rp_hash::RpHashMap`]; GETs are wait-free lookups that copy the value
//!   inside the read-side critical section; writes serialise on the map's
//!   writer lock; expiry is lazy and eviction is exact LRU through an
//!   amortised victim queue, both on the slow path.
//! * [`ShardedRpEngine`] — the **sharded relativistic** engine: the index
//!   is an [`rp_shard::ShardedRpMap`], so SETs and index resizes only
//!   contend within one shard and multi-key GETs use the batched,
//!   shard-grouped read path. Index resizes run on a background `rp-maint`
//!   maintenance thread by default, so SETs never wait for grace periods;
//!   `RP_KV_MAINT=off` reverts to inline resizing.
//! * [`SplitOrderEngine`] — the **split-ordered** engine: the index is an
//!   [`rp_splitorder::SplitOrderMap`] (lock-free split-ordered list), so
//!   SETs and DELETEs never serialise on a writer lock and index growth is
//!   a single pointer publication with no grace-period wait — the
//!   competing resize philosophy, behind the same trait.
//! * [`server`] / [`client`] — the TCP front ends and a small blocking
//!   client speaking the protocol, used by the end-to-end tests, the
//!   `kv_server` example and (optionally) the memcached figure harness.
//!   [`ServerConfig`] picks between the thread-per-connection baseline
//!   ([`server::CacheServer`]) and the `rp-net` epoll event loop
//!   ([`EventServer`]), which serves any number of connections from a
//!   fixed worker pool with incremental request framing, pipelined
//!   responses and write backpressure. Event-loop workers serve GETs
//!   through the **QSBR read path** by default ([`ReadSide`]): each worker
//!   registers a `rp_hash::QsbrReadHandle` at startup, lookups are
//!   entirely barrier-free, one quiescent state is announced per event
//!   batch, and workers go offline while parked in `epoll_wait`;
//!   `--read-side ebr` restores the guard path.
//! * [`cli`] — flag/env parsing for the `kvcached` binary, including the
//!   `--maint-*` knobs that tune the background resize maintenance thread.
//!
//! The `fig_memcached` benchmark in `rp-bench` drives both engines with an
//! mc-benchmark-style closed-loop workload and reports requests/second for
//! GETs and SETs separately, reproducing the paper's memcached figure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod item;
mod lock_engine;
pub mod protocol;
mod rp_engine;
mod sharded_engine;
mod splitorder_engine;

pub mod cli;
pub mod client;
pub mod event_server;
pub mod server;
pub mod telemetry;

pub use client::{CacheClient, RetryClient, RetryPolicy};
pub use engine::{CacheEngine, CacheStats, EngineReadCtx, ReadSide, StoreOutcome};
pub use event_server::{EventServer, KvService};
pub use item::Item;
pub use lock_engine::LockEngine;
pub use rp_engine::RpEngine;
pub use server::{start_server, ServerConfig, ServerHandle, ServerMode};
pub use sharded_engine::ShardedRpEngine;
pub use splitorder_engine::SplitOrderEngine;
