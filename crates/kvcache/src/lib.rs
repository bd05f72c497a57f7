//! A memcached-style key-value cache with a global-lock engine and three
//! relativistic engines.
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
//! * [`LockEngine`] — the stock-memcached baseline: one global mutex around
//!   a hash map plus LRU bookkeeping, the `cache_lock` architecture.
//! * [`IndexEngine`] — the **relativistic** engine, generic over its
//!   index: GETs are wait-free lookups that copy the value inside the
//!   read-side critical section; writes go through the index's writer
//!   side; expiry is lazy and eviction is exact LRU through an amortised
//!   victim queue, both on the slow path. Its three flavors differ only
//!   in the index, each an alias with its own constructors:
//!   * [`RpEngine`] — one [`rp_hash::RpHashMap`]; writes serialise on its
//!     writer lock.
//!   * [`ShardedRpEngine`] — an [`rp_shard::ShardedRpMap`], so SETs and
//!     index resizes only contend within one shard. Index resizes run on a
//!     background `rp-maint` maintenance thread unless the engine is built
//!     with [`ShardedRpEngine::with_options`] and no maintenance config
//!     (what `kvcached --maint off` does), so SETs never wait for grace
//!     periods.
//!   * [`SplitOrderEngine`] — an [`rp_splitorder::SplitOrderMap`]
//!     (lock-free split-ordered list), so SETs and DELETEs never serialise
//!     on a writer lock and index growth is a single pointer publication
//!     with no grace-period wait — the competing resize philosophy.
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
//! The `fig_memcached` benchmark in `rp-bench` drives the lock and `rp`
//! engines with an mc-benchmark-style closed-loop workload and reports
//! requests/second for GETs and SETs separately, reproducing the paper's
//! memcached figure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod index_engine;
mod item;
mod lock_engine;
pub mod protocol;

pub mod cli;
pub mod client;
pub mod event_server;
pub mod server;
pub mod telemetry;

pub use client::{CacheClient, RetryClient, RetryPolicy};
pub use engine::{CacheEngine, CacheStats, EngineReadCtx, ReadSide, StoreOutcome};
pub use event_server::{EventServer, KvService};
pub use index_engine::{IndexEngine, RpEngine, ShardedRpEngine, SplitOrderEngine};
pub use item::Item;
pub use lock_engine::LockEngine;
pub use server::{start_server, ServerConfig, ServerHandle, ServerMode};
