//! TCP servers speaking the memcached text protocol.
//!
//! Two front ends share one request-execution path ([`execute_ref`] over a
//! [`RefDecoder`]):
//!
//! * [`CacheServer`] — the original thread-per-connection server, kept as
//!   the baseline the event loop is benchmarked against.
//! * [`EventServer`] — the `rp-net` epoll event loop: a fixed worker pool
//!   serves any number of connections.
//!
//! [`ServerConfig`] selects between them (and carries the tuning shared by
//! the `kvcached` binary, the benchmarks and the tests); [`start_server`]
//! returns a [`ServerHandle`] that erases the choice.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rp_net::BufWrite;

use crate::engine::{CacheEngine, EngineReadCtx, ReadSide, StoreOutcome};
use crate::event_server::EventServer;
use crate::protocol::{put_decimal, write_value_header, Decoded, RefDecoder, RequestRef, StatsSub};
use crate::telemetry;

/// Version string reported by the `version` command.
pub const SERVER_VERSION: &str = "relativist-kvcache 0.1.0";

/// Which connection-handling architecture a server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// One OS thread per connection (the historical baseline).
    Threaded,
    /// The `rp-net` epoll reactor: a fixed pool of worker threads.
    EventLoop,
}

/// How to run a cache server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port on 127.0.0.1 (0 picks a free port).
    pub port: u16,
    /// Connection-handling architecture.
    pub mode: ServerMode,
    /// Event-loop worker threads (ignored by [`ServerMode::Threaded`]).
    pub workers: usize,
    /// Read-side RCU flavor serving GETs in event-loop mode (the threaded
    /// server always uses EBR — its per-connection threads block in
    /// `read(2)` with no natural quiescent points). Defaults to QSBR: the
    /// pinned reactor workers announce a quiescent state per event batch
    /// and go offline while parked, making lookups entirely barrier-free.
    pub read_side: ReadSide,
    /// How long a graceful event-loop shutdown keeps flushing responses.
    pub drain_timeout: Duration,
    /// Close event-loop connections that make no progress for this long
    /// (`None` never reaps; threaded mode relies on its read timeout).
    pub idle_timeout: Option<Duration>,
    /// Close an event-loop connection after serving this many requests
    /// (`None` is unlimited). A defensive per-peer budget for public
    /// deployments.
    pub max_requests_per_conn: Option<u64>,
    /// Event-loop admission wall: connections over this count are shed at
    /// accept with a `SERVER_ERROR busy` reply (`usize::MAX` = unlimited).
    pub max_connections: usize,
    /// Event-loop global byte budget: once this many bytes sit in
    /// connection buffers across all workers, new accepts are shed and
    /// slow-reader connections stop being read until the level drains
    /// (`usize::MAX` = unlimited).
    pub max_total_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            mode: ServerMode::EventLoop,
            workers: 2,
            read_side: ReadSide::default(),
            drain_timeout: Duration::from_secs(5),
            idle_timeout: None,
            max_requests_per_conn: None,
            max_connections: usize::MAX,
            max_total_bytes: usize::MAX,
        }
    }
}

impl ServerConfig {
    /// The thread-per-connection baseline.
    pub fn threaded() -> ServerConfig {
        ServerConfig {
            mode: ServerMode::Threaded,
            ..ServerConfig::default()
        }
    }

    /// The epoll event loop with `workers` reactor threads.
    pub fn event_loop(workers: usize) -> ServerConfig {
        ServerConfig {
            mode: ServerMode::EventLoop,
            workers: workers.max(1),
            ..ServerConfig::default()
        }
    }

    /// Sets the port.
    pub fn with_port(mut self, port: u16) -> ServerConfig {
        self.port = port;
        self
    }

    /// Sets the read-side flavor (event-loop mode only).
    pub fn with_read_side(mut self, read_side: ReadSide) -> ServerConfig {
        self.read_side = read_side;
        self
    }
}

/// A running cache server of either [`ServerMode`].
pub enum ServerHandle {
    /// Thread-per-connection.
    Threaded(CacheServer),
    /// Epoll event loop.
    EventLoop(EventServer),
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        match self {
            ServerHandle::Threaded(s) => s.addr(),
            ServerHandle::EventLoop(s) => s.addr(),
        }
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<dyn CacheEngine> {
        match self {
            ServerHandle::Threaded(s) => s.engine(),
            ServerHandle::EventLoop(s) => s.engine(),
        }
    }

    /// The architecture this handle runs.
    pub fn mode(&self) -> ServerMode {
        match self {
            ServerHandle::Threaded(_) => ServerMode::Threaded,
            ServerHandle::EventLoop(_) => ServerMode::EventLoop,
        }
    }

    /// Stops the server (graceful drain in event-loop mode).
    pub fn shutdown(&mut self) {
        match self {
            ServerHandle::Threaded(s) => s.shutdown(),
            ServerHandle::EventLoop(s) => s.shutdown(),
        }
    }
}

/// Starts a server for `engine` as described by `config`.
pub fn start_server(
    engine: Arc<dyn CacheEngine>,
    config: &ServerConfig,
) -> std::io::Result<ServerHandle> {
    match config.mode {
        ServerMode::Threaded => CacheServer::start(engine, config.port).map(ServerHandle::Threaded),
        ServerMode::EventLoop => {
            EventServer::start_from(engine, config).map(ServerHandle::EventLoop)
        }
    }
}

/// A running cache server.
///
/// One OS thread per connection (memcached uses an event loop; a
/// thread-per-connection server keeps the reproduction simple while
/// preserving the property under study — whether GETs contend on a global
/// lock inside the *engine*).
pub struct CacheServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    engine: Arc<dyn CacheEngine>,
}

impl CacheServer {
    /// Binds to `127.0.0.1:<port>` (port 0 picks a free port) and starts
    /// serving `engine`.
    pub fn start(engine: Arc<dyn CacheEngine>, port: u16) -> std::io::Result<CacheServer> {
        // Any serving process watches its own grace periods: a reader that
        // wedges a writer's synchronize shows up in STATS TRACE instead of
        // as a silent hang.
        rp_rcu::stall::ensure_global_watchdog();
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept_thread = {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("kvcache-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match stream {
                            Ok(stream) => {
                                let engine = Arc::clone(&engine);
                                let shutdown = Arc::clone(&shutdown);
                                std::thread::Builder::new()
                                    .name("kvcache-conn".to_string())
                                    .spawn(move || {
                                        let _ = serve_connection(stream, &*engine, &shutdown);
                                    })
                                    .expect("spawn connection thread");
                            }
                            Err(_) => continue,
                        }
                    }
                })?
        };

        Ok(CacheServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            engine,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<dyn CacheEngine> {
        &self.engine
    }

    /// Stops accepting new connections and joins the accept thread.
    ///
    /// Existing connections finish their current request and close when the
    /// client disconnects (or sends `quit`).
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one client connection until EOF, `quit`, or server shutdown.
///
/// Runs the same borrowed request pipeline as the event loop
/// ([`execute_ref`] over a [`RefDecoder`]): requests are decoded in place
/// out of the connection's input buffer and replies serialised into one
/// reusable response buffer, so a steady-state GET allocates nothing. The
/// threaded server always reads through EBR (its blocking
/// per-connection threads have no natural quiescent points).
fn serve_connection(
    mut stream: TcpStream,
    engine: &dyn CacheEngine,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut decoder = RefDecoder::new();
    let mut ctx = EngineReadCtx::ebr();
    let mut input: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut chunk = [0_u8; 4096];
    // Spread per-connection threads across the metric shards by fd (the
    // event loop uses its worker index instead); the fd doubles as the
    // "worker" name in slow-log entries.
    let worker = {
        use std::os::unix::io::AsRawFd;
        stream.as_raw_fd() as usize
    };
    let kv = rp_obs::global().kv.shards.for_worker(worker);

    loop {
        // Drain every complete request already buffered.
        let mut offset = 0;
        let mut quit = false;
        loop {
            let (used, decoded) = decoder.step(&input[offset..]);
            offset += used;
            match decoded {
                Decoded::Request(request) => {
                    // Decode cost is not attributed on this path (the
                    // blocking read makes it meaningless anyway).
                    if execute_ref_observed(
                        engine,
                        &request,
                        &mut ctx,
                        &mut out,
                        kv,
                        worker as u64,
                        0,
                    ) {
                        quit = true;
                        break;
                    }
                }
                Decoded::Bad(error) => {
                    kv.decode_errors.inc();
                    error.write_wire(&mut out);
                }
                Decoded::NeedMore => break,
            }
        }
        input.drain(..offset);
        if !out.is_empty() {
            stream.write_all(&out)?;
            out.clear();
        }
        if quit {
            return Ok(());
        }

        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // client closed the connection
            Ok(n) => input.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // timeout: re-check the shutdown flag
            }
            Err(e) => return Err(e),
        }
    }
}

/// Executes a **borrowed** request against the engine, serialising the
/// reply straight into `out`. Returns `true` when the connection should
/// close (`quit`).
///
/// This is the zero-allocation request pipeline both servers run: keys
/// stay `&[u8]` slices into the connection's read buffer
/// ([`CacheEngine::get_ref`] hashes them once and probes the index with no
/// copy), `VALUE` headers and `STAT` lines are written digit-by-digit into
/// the connection's pooled output queue, and payloads ride as
/// reference-counted [`Bytes`] (copied only when small enough that
/// coalescing beats scatter-gather). A steady-state GET or miss performs
/// no heap allocation at all; SETs allocate only the key and payload that
/// go *into* the table.
pub fn execute_ref(
    engine: &dyn CacheEngine,
    request: &RequestRef<'_>,
    ctx: &mut EngineReadCtx,
    out: &mut impl BufWrite,
) -> bool {
    execute_phased(engine, request, ctx, out, &mut Unsampled)
}

/// Where [`execute_phased`] reports a request's opcode and phases.
///
/// Implemented twice: [`Unsampled`] compiles every hook away (no clock
/// reads), and [`rp_obs::SlowSpan`] times the sampled requests. The engine
/// call is the *index* phase, reply serialisation the *serialize* phase.
trait Phases {
    /// Tags the request's opcode and (first) key.
    fn tag(&mut self, op: u64, key: Option<&[u8]>);
    /// Runs the engine call `f` as (part of) the index phase.
    fn index<R>(&mut self, f: impl FnOnce() -> R) -> R;
    /// Runs `f`, which writes reply bytes, as (part of) the serialize
    /// phase.
    fn serialize(&mut self, f: impl FnOnce());
}

/// The phase recorder of an unsampled request: every hook is a no-op.
struct Unsampled;

impl Phases for Unsampled {
    #[inline(always)]
    fn tag(&mut self, _op: u64, _key: Option<&[u8]>) {}

    #[inline(always)]
    fn index<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn serialize(&mut self, f: impl FnOnce()) {
        f()
    }
}

impl Phases for rp_obs::SlowSpan {
    fn tag(&mut self, op: u64, key: Option<&[u8]>) {
        self.op = op;
        self.key_hash = key.map_or(0, hash_key);
    }

    fn index<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let timer = rp_obs::timer();
        let result = f();
        self.index_ns += rp_obs::elapsed_ns(timer).unwrap_or(0);
        result
    }

    fn serialize(&mut self, f: impl FnOnce()) {
        let timer = rp_obs::timer();
        f();
        self.serialize_ns += rp_obs::elapsed_ns(timer).unwrap_or(0);
    }
}

/// Writes one `VALUE` block for a GET hit.
fn write_value(out: &mut impl BufWrite, key: &[u8], item: crate::Item) {
    write_value_header(out, key, item.flags, item.data.len());
    out.put_shared(item.data);
    out.put(b"\r\n");
}

/// The one GET/SET/DELETE execution body behind [`execute_ref`] and
/// [`execute_ref_observed`]; `phases` decides whether the phases are
/// timed. Cold opcodes (stats, version, quit) are tagged
/// [`rp_obs::slow::OP_OTHER`] and run unphased.
fn execute_phased(
    engine: &dyn CacheEngine,
    request: &RequestRef<'_>,
    ctx: &mut EngineReadCtx,
    out: &mut impl BufWrite,
    phases: &mut impl Phases,
) -> bool {
    match request {
        RequestRef::Get { key } => {
            phases.tag(rp_obs::slow::OP_GET, Some(*key));
            let item = phases.index(|| engine.get_ref(key, ctx));
            phases.serialize(|| {
                if let Some(item) = item {
                    write_value(out, key, item);
                }
                out.put(b"END\r\n");
            });
        }
        RequestRef::GetMulti(keys) => {
            phases.tag(rp_obs::slow::OP_GET, keys.iter().next());
            for key in keys.iter() {
                let item = phases.index(|| engine.get_ref(key, ctx));
                phases.serialize(|| {
                    if let Some(item) = item {
                        write_value(out, key, item);
                    }
                });
            }
            phases.serialize(|| out.put(b"END\r\n"));
        }
        RequestRef::Set {
            key,
            flags,
            exptime,
            data,
            noreply,
        } => {
            phases.tag(rp_obs::slow::OP_SET, Some(*key));
            // Keys are sub-slices of a validated UTF-8 line; the engine API
            // takes &str, so re-view (a scan on this cold-enough write
            // path, never a copy).
            let outcome = phases.index(|| match std::str::from_utf8(key) {
                Ok(key) => engine.set(
                    key,
                    crate::Item::with_ttl(
                        *flags,
                        Bytes::copy_from_slice(data),
                        Duration::from_secs(*exptime),
                    ),
                ),
                Err(_) => StoreOutcome::NotStored,
            });
            phases.serialize(|| {
                if !noreply {
                    out.put(match outcome {
                        StoreOutcome::Stored => &b"STORED\r\n"[..],
                        StoreOutcome::NotStored => &b"NOT_STORED\r\n"[..],
                    });
                }
            });
        }
        RequestRef::Delete { key, noreply } => {
            phases.tag(rp_obs::slow::OP_DELETE, Some(*key));
            let deleted = phases.index(|| {
                std::str::from_utf8(key)
                    .map(|key| engine.delete(key))
                    .unwrap_or(false)
            });
            phases.serialize(|| {
                if !noreply {
                    out.put(if deleted {
                        &b"DELETED\r\n"[..]
                    } else {
                        &b"NOT_FOUND\r\n"[..]
                    });
                }
            });
        }
        RequestRef::Stats => {
            phases.tag(rp_obs::slow::OP_OTHER, None);
            let stats = engine.stats();
            out.put(b"STAT engine ");
            out.put(engine.name().as_bytes());
            out.put(b"\r\n");
            for (name, value) in [
                (&b"curr_items"[..], engine.len() as u64),
                (b"get_hits", stats.hits()),
                (b"get_misses", stats.misses()),
                (b"evictions", stats.evicted()),
            ] {
                out.put(b"STAT ");
                out.put(name);
                out.put(b" ");
                put_decimal(out, value);
                out.put(b"\r\n");
            }
            out.put(b"END\r\n");
        }
        RequestRef::StatsProm(sub) => {
            phases.tag(rp_obs::slow::OP_OTHER, None);
            match sub {
                StatsSub::Render => telemetry::render_prometheus(engine, out),
                StatsSub::Reset => telemetry::reset(engine, out),
                StatsSub::Trace(limit) => telemetry::render_trace(*limit, out),
                StatsSub::Slow => telemetry::render_slow(out),
                StatsSub::Json => telemetry::render_json(engine, out),
                StatsSub::Worker(n) => telemetry::render_worker(*n, out),
            }
        }
        RequestRef::Version => {
            phases.tag(rp_obs::slow::OP_OTHER, None);
            out.put(b"VERSION ");
            out.put(SERVER_VERSION.as_bytes());
            out.put(b"\r\n");
        }
        RequestRef::Quit => {
            phases.tag(rp_obs::slow::OP_OTHER, None);
            return true;
        }
    }
    false
}

/// FNV-1a over the request key — a stable fingerprint for the slow log
/// (which must not hold on to borrowed key bytes).
fn hash_key(key: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in key {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`execute_ref`] wrapped in the per-opcode `rp-obs` accounting both
/// servers share: bumps the worker shard's request counter (exact, one
/// relaxed `fetch_add` — the whole telemetry cost for most requests), and
/// gives every [`rp_obs::LATENCY_SAMPLE`]-th request a span: its service
/// time feeds the opcode's latency histogram, and if it clears the slow
/// threshold the whole span (worker, request id, opcode, key hash, phase
/// breakdown) lands in the slow-request log served by `STATS SLOW`.
/// Unsampled requests run the same execution body with its phase hooks
/// compiled away — no clock reads, no span — so the sampling tick bounds
/// the entire telemetry cost; `--stats off` skips the clock reads even
/// when sampled.
///
/// `worker` names the serving thread in slow-log entries (reactor ordinal
/// in event-loop mode, connection fd in threaded mode — matching the
/// metric-shard spread); `decode_ns` is the measured cost of the final
/// protocol-decode step when the caller sampled it, 0 otherwise.
pub(crate) fn execute_ref_observed(
    engine: &dyn CacheEngine,
    request: &RequestRef<'_>,
    ctx: &mut EngineReadCtx,
    out: &mut impl BufWrite,
    kv: &rp_obs::KvWorkerObs,
    worker: u64,
    decode_ns: u64,
) -> bool {
    let ordinal = kv.requests.inc_and_get();
    if !rp_obs::sample_latency(ordinal) {
        return execute_ref(engine, request, ctx, out);
    }
    let timer = rp_obs::timer();
    let mut span = rp_obs::SlowSpan {
        worker,
        request_id: ordinal,
        decode_ns,
        ..Default::default()
    };
    let quit = execute_phased(engine, request, ctx, out, &mut span);
    if let Some(ns) = rp_obs::elapsed_ns(timer) {
        let hist = match request {
            RequestRef::Get { .. } | RequestRef::GetMulti(_) => &kv.get_ns,
            RequestRef::Set { .. } => &kv.set_ns,
            RequestRef::Delete { .. } => &kv.delete_ns,
            _ => &kv.other_ns,
        };
        hist.record(ns);
        span.total_ns = ns + decode_ns;
        rp_obs::global().kv.slow.record(&span);
    }
    quit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request_ref, RefOutcome};
    use crate::{Item, LockEngine, RpEngine};

    /// Parses one complete request from `wire` and executes it, returning
    /// the reply bytes and whether the connection should close.
    fn run(engine: &dyn CacheEngine, wire: &[u8]) -> (Vec<u8>, bool) {
        let RefOutcome::Complete { request, .. } = parse_request_ref(wire) else {
            panic!("{wire:?} did not parse");
        };
        let mut out = Vec::new();
        let quit = execute_ref(engine, &request, &mut EngineReadCtx::ebr(), &mut out);
        (out, quit)
    }

    fn reply(engine: &dyn CacheEngine, wire: &[u8]) -> Vec<u8> {
        run(engine, wire).0
    }

    #[test]
    fn execute_get_set_delete() {
        let engine = LockEngine::new();
        assert_eq!(reply(&engine, b"set k 2 0 1\r\nv\r\n"), b"STORED\r\n");
        assert_eq!(
            reply(&engine, b"get k missing\r\n"),
            b"VALUE k 2 1\r\nv\r\nEND\r\n"
        );
        assert_eq!(reply(&engine, b"delete k\r\n"), b"DELETED\r\n");
        assert_eq!(reply(&engine, b"delete k\r\n"), b"NOT_FOUND\r\n");
        assert_eq!(reply(&engine, b"get k\r\n"), b"END\r\n");
    }

    #[test]
    fn noreply_commands_return_nothing() {
        let engine = RpEngine::new();
        assert_eq!(
            run(&engine, b"set a 0 0 1 noreply\r\n1\r\n"),
            (Vec::new(), false)
        );
        assert_eq!(
            engine.get("a").map(|i| i.data),
            Some(Bytes::from_static(b"1"))
        );
        assert_eq!(run(&engine, b"delete a noreply\r\n"), (Vec::new(), false));
        assert_eq!(engine.get("a"), None);
        assert_eq!(run(&engine, b"quit\r\n"), (Vec::new(), true));
    }

    #[test]
    fn stats_and_version_replies() {
        let engine = RpEngine::new();
        engine.set("x", Item::new(0, "y"));
        engine.get("x");
        engine.get("nope");
        assert_eq!(
            reply(&engine, b"stats\r\n"),
            b"STAT engine rp\r\nSTAT curr_items 1\r\nSTAT get_hits 1\r\n\
              STAT get_misses 1\r\nSTAT evictions 0\r\nEND\r\n"
        );
        assert_eq!(
            reply(&engine, b"version\r\n"),
            b"VERSION relativist-kvcache 0.1.0\r\n"
        );
    }
}
