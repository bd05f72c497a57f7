//! `kv-get-d32` and `kv-refill-d1`: the kvcached server, built in process
//! from its shipped defaults, driven over loopback by one client thread
//! on one connection.
//!
//! The server is `ServerOptions::default()` with two changes, port 0 and
//! one event-loop worker, plus a `capacity` for `kv-refill-d1`. Whatever
//! engine, read side and shard layer the defaults name is what runs, so a
//! change of default is measured as shipped.
//!
//! Every reply is checked against a client-side model of the cache: the
//! latest value set per key, the reply framing, and misses only where the
//! key is absent or (with `capacity` below the key space) could have been
//! evicted. A wrong reply is a failed operation.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rp_kvcache::cli::ServerOptions;
use rp_kvcache::{start_server, CacheEngine, Item, ServerHandle};
use rp_shard::{ShardPolicy, ShardedRpMap};

use crate::client::{self, hit_reply, Conn, Shape, MISS_REPLY};
use crate::trace::{ClientSpan, SpanLog, TracedEngine};
use crate::util::{calm_median, now_ns, parse_stats_json, Recorder, Rng, Zipf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kv {
    GetD32,
    RefillD1,
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Get(u32),
    Set(u32),
    Delete(u32),
}

/// Keys preloaded for `kv-get-d32`; with their items the index is several
/// times a 4 MiB L2 cache.
pub const PRELOAD: u32 = 100_000;
/// Requests per pipelined window.
pub const DEPTH: usize = 32;
/// Length of the `kv-get-d32` op sequence; the client cycles through it.
const D32_OPS: usize = 1 << 20;
const ZIPF_S: f64 = 0.99;
/// `kv-refill-d1` key space, and the server's item capacity below it.
pub const REFILL_KEYS: u32 = 5_120;
pub const REFILL_CAPACITY: usize = 4_096;
/// `kv-refill-d1` draws this many GET-or-DELETE intents per second of
/// `--seconds`: a fixed amount of work, which takes a little less than
/// that on a two-CPU host.
const REFILL_INTENTS_PER_S: f64 = 28_000.0;
const WARMUP: Duration = Duration::from_millis(500);

pub const WARM: u8 = 0;
pub const MEASURE: u8 = 1;
pub const PROBE: u8 = 2;
pub const STOP: u8 = 3;

/// The `kv-get-d32` mix: 90% GETs of preloaded keys, 5% GETs of keys never
/// stored, 5% SETs overwriting preloaded keys. Preloaded keys are drawn
/// Zipf(0.99), so the index never grows.
pub fn d32_ops(seed: u64) -> Vec<Op> {
    let zipf = Zipf::new(PRELOAD as usize, ZIPF_S);
    let mut rng = Rng::new(seed);
    (0..D32_OPS)
        .map(|_| {
            let r = rng.unit();
            if r < 0.90 {
                Op::Get(zipf.sample(&mut rng) as u32)
            } else if r < 0.95 {
                Op::Get(PRELOAD + rng.below(PRELOAD as usize) as u32)
            } else {
                Op::Set(zipf.sample(&mut rng) as u32)
            }
        })
        .collect()
}

/// The `kv-refill-d1` intents: GETs of Zipf(0.99) keys over the key space
/// (the client SETs each miss), and about 2% DELETEs of a key requested in
/// the last 16 intents, as an invalidation.
pub fn refill_intents(seed: u64, seconds: f64) -> Vec<Op> {
    let zipf = Zipf::new(REFILL_KEYS as usize, ZIPF_S);
    let mut rng = Rng::new(seed);
    let n = (seconds * REFILL_INTENTS_PER_S) as usize;
    let mut recent = [0u32; 16];
    (0..n)
        .map(|i| {
            if i >= recent.len() && rng.unit() < 0.02 {
                Op::Delete(recent[rng.below(recent.len())])
            } else {
                let id = zipf.sample(&mut rng) as u32;
                recent[i % recent.len()] = id;
                Op::Get(id)
            }
        })
        .collect()
}

pub fn options(kind: Kv) -> ServerOptions {
    let mut opts = ServerOptions {
        port: 0,
        workers: 1,
        ..ServerOptions::default()
    };
    if kind == Kv::RefillD1 {
        opts.capacity = REFILL_CAPACITY;
    }
    opts
}

/// What the client knows the cache holds: the latest version set per key
/// and whether the key is (as far as the client can tell) present.
pub struct Model {
    last: Vec<u32>,
    present: Vec<bool>,
    /// Capacity is below the key space, so a present key may miss.
    evictable: bool,
}

impl Model {
    /// `kv-get-d32`: keys `0..PRELOAD` present at version 1; the miss keys
    /// above them never stored.
    pub fn preloaded() -> Model {
        let n = 2 * PRELOAD as usize;
        Model {
            last: (0..n).map(|id| u32::from(id < PRELOAD as usize)).collect(),
            present: (0..n).map(|id| id < PRELOAD as usize).collect(),
            evictable: false,
        }
    }

    /// `kv-refill-d1`: nothing stored yet.
    pub fn empty() -> Model {
        Model {
            last: vec![0; REFILL_KEYS as usize],
            present: vec![false; REFILL_KEYS as usize],
            evictable: true,
        }
    }

    fn want(&self, id: u32) -> Option<u32> {
        self.present[id as usize].then(|| self.last[id as usize])
    }

    fn store(&mut self, id: u32) -> u32 {
        self.last[id as usize] += 1;
        self.present[id as usize] = true;
        self.last[id as usize]
    }

    fn remove(&mut self, id: u32) {
        self.present[id as usize] = false;
    }

    /// Makes the model expect a wrong version of `id`: the check's own
    /// test that a wrong reply is caught.
    #[cfg(test)]
    pub fn corrupt(&mut self, id: u32) {
        self.last[id as usize] += 7;
    }
}

#[derive(Clone, Copy)]
enum Expect {
    Get { id: u32, want: Option<u32> },
    Set,
    Delete { was_present: bool },
}

/// Counts over a whole drive; `requests`, `gets`, `hits`, `syscalls`, the
/// recorder and the spans only over the measured phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// GET misses of keys the model held (possible evictions), while
    /// measuring.
    pub present_misses: u64,
    measuring: bool,
    pub requests: u64,
    pub gets: u64,
    pub hits: u64,
    pub syscalls: u64,
    pub first_start: u64,
    pub last_end: u64,
    /// Requests completed, and the round trip of each request
    /// (`kv-refill-d1`) or window (`kv-get-d32`, where it stands for each
    /// of the window's requests), per slice.
    pub recorder: Recorder,
    /// Round trips recorded.
    pub round_trips: u64,
    pub spans: Vec<ClientSpan>,
    /// The first request bytes sent while measuring (traced runs).
    pub capture: Vec<u8>,
    pub errors: Vec<String>,
}

const CAPTURE_CAP: usize = 256 << 10;

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Reads and checks the reply to `expect`; returns whether a GET hit.
    fn check(&mut self, conn: &mut Conn, model: &Model, expect: Expect) -> io::Result<bool> {
        self.attempted += 1;
        match expect {
            Expect::Get { id, want } => {
                let reply = conn.reply(Shape::Get)?;
                if reply == MISS_REPLY {
                    if want.is_some() {
                        if model.evictable {
                            self.present_misses += u64::from(self.measuring);
                        } else {
                            self.fail(format!("GET k{id:08x}: miss, but the key was stored"));
                        }
                    }
                    return Ok(false);
                }
                match want {
                    Some(version) if reply == hit_reply(id, version) => Ok(true),
                    _ => {
                        let got = String::from_utf8_lossy(reply).into_owned();
                        self.fail(format!(
                            "GET k{id:08x}: expected version {want:?}, got {got:?}"
                        ));
                        Ok(true)
                    }
                }
            }
            Expect::Set => {
                let reply = conn.reply(Shape::Line)?;
                if reply != b"STORED\r\n" {
                    let got = String::from_utf8_lossy(reply).into_owned();
                    self.fail(format!("SET: got {got:?}"));
                }
                Ok(false)
            }
            Expect::Delete { was_present } => {
                let reply = conn.reply(Shape::Line)?;
                let ok = match reply {
                    b"DELETED\r\n" => was_present,
                    b"NOT_FOUND\r\n" => !was_present || model.evictable,
                    _ => false,
                };
                if !ok {
                    let got = String::from_utf8_lossy(reply).into_owned();
                    self.fail(format!("DELETE (present: {was_present}): got {got:?}"));
                }
                Ok(false)
            }
        }
    }

    /// One request at depth 1: sends `request`, checks its reply and, while
    /// measuring, counts it. Returns whether a GET hit.
    fn round_trip(
        &mut self,
        conn: &mut Conn,
        request: &[u8],
        expect: Expect,
        model: &Model,
        traced: bool,
    ) -> io::Result<bool> {
        let syscalls = conn.reads + conn.writes;
        let start = now_ns();
        conn.send(request)?;
        let hit = self.check(conn, model, expect)?;
        let end = now_ns();
        if self.measuring {
            self.measured(start, end, 1, traced);
            self.syscalls += conn.reads + conn.writes - syscalls;
            if let Expect::Get { .. } = expect {
                self.gets += 1;
                self.hits += u64::from(hit);
            }
            if traced && self.capture.len() + request.len() <= CAPTURE_CAP {
                self.capture.extend_from_slice(request);
            }
        }
        Ok(hit)
    }

    fn measured(&mut self, start: u64, end: u64, requests: u32, traced: bool) {
        if self.requests == 0 {
            self.first_start = start;
        }
        self.last_end = end;
        self.requests += u64::from(requests);
        self.recorder.done(end, u64::from(requests));
        self.recorder.latency(end, end - start);
        self.round_trips += 1;
        if traced {
            self.spans.push(ClientSpan {
                start,
                end,
                requests,
            });
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.last_end - self.first_start) as f64 / 1e9
    }

    /// Requests per second: the calm end over slices of the measured phase.
    pub fn ops_per_s(&self) -> f64 {
        self.recorder.calm_rate(self.last_end)
    }

    /// `(p50, p99)` of request latency in microseconds: the calm end over
    /// slices of each slice's percentile.
    pub fn latency_us(&self) -> (f64, f64) {
        let r = &self.recorder;
        (
            r.calm_quantile(self.last_end, 0.5) / 1e3,
            r.calm_quantile(self.last_end, 0.99) / 1e3,
        )
    }

    /// GET hits over GETs, while measuring.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.gets as f64
    }

    /// Latency samples: one per request (a window's round trip counts once
    /// for each request in it).
    pub fn latency_samples(&self, kind: Kv) -> u64 {
        match kind {
            Kv::GetD32 => self.round_trips * DEPTH as u64,
            Kv::RefillD1 => self.round_trips,
        }
    }
}

/// Pipelined windows of `DEPTH` requests, cycling through `ops`, until the
/// phase reaches `STOP`.
pub fn drive_d32(
    conn: &mut Conn,
    ops: &[Op],
    model: &mut Model,
    phase: &AtomicU8,
    traced: bool,
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let mut out = Vec::with_capacity(DEPTH * 80);
    let mut expects = Vec::with_capacity(DEPTH);
    let mut pos = 0;
    loop {
        let now = phase.load(Ordering::Relaxed);
        if now == STOP {
            return Ok(tally);
        }
        out.clear();
        expects.clear();
        for _ in 0..DEPTH {
            match ops[pos] {
                Op::Get(id) => {
                    client::put_get(&mut out, id);
                    expects.push(Expect::Get {
                        id,
                        want: model.want(id),
                    });
                }
                Op::Set(id) => {
                    let version = model.store(id);
                    client::put_set(&mut out, id, version);
                    expects.push(Expect::Set);
                }
                Op::Delete(id) => {
                    expects.push(Expect::Delete {
                        was_present: model.want(id).is_some(),
                    });
                    model.remove(id);
                    client::put_delete(&mut out, id);
                }
            }
            pos = (pos + 1) % ops.len();
        }
        let syscalls = conn.reads + conn.writes;
        let start = now_ns();
        conn.send(&out)?;
        let (mut gets, mut hits) = (0, 0);
        for &expect in &expects {
            let hit = tally.check(conn, model, expect)?;
            if let Expect::Get { .. } = expect {
                gets += 1;
                hits += u64::from(hit);
            }
        }
        let end = now_ns();
        if now == MEASURE {
            tally.measured(start, end, DEPTH as u32, traced);
            tally.gets += gets;
            tally.hits += hits;
            tally.syscalls += conn.reads + conn.writes - syscalls;
            if traced && tally.capture.len() + out.len() <= CAPTURE_CAP {
                tally.capture.extend_from_slice(&out);
            }
        }
    }
}

/// Closed loop at depth 1, look-aside: GET each intent's key and SET it on
/// a miss; DELETE intents invalidate. Waits for the measured phase, runs
/// the intents once, raises `done`, then keeps cycling (unmeasured) until
/// `STOP`.
pub fn drive_refill(
    conn: &mut Conn,
    intents: &[Op],
    model: &mut Model,
    phase: &AtomicU8,
    done: &AtomicBool,
    traced: bool,
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let mut out = Vec::with_capacity(128);
    while phase.load(Ordering::Relaxed) == WARM {
        std::thread::sleep(Duration::from_micros(100));
    }
    tally.measuring = true;
    for (i, &intent) in intents.iter().cycle().enumerate() {
        if i == intents.len() {
            tally.measuring = false;
            done.store(true, Ordering::Release);
        }
        if !tally.measuring && phase.load(Ordering::Relaxed) == STOP {
            return Ok(tally);
        }
        out.clear();
        match intent {
            Op::Get(id) => {
                client::put_get(&mut out, id);
                let want = model.want(id);
                if !tally.round_trip(conn, &out, Expect::Get { id, want }, model, traced)? {
                    let version = model.store(id);
                    out.clear();
                    client::put_set(&mut out, id, version);
                    tally.round_trip(conn, &out, Expect::Set, model, traced)?;
                }
            }
            Op::Delete(id) => {
                client::put_delete(&mut out, id);
                let was_present = model.want(id).is_some();
                model.remove(id);
                tally.round_trip(conn, &out, Expect::Delete { was_present }, model, traced)?;
            }
            Op::Set(_) => unreachable!("refill intents are GETs and DELETEs"),
        }
    }
    unreachable!("cycle never ends")
}

/// Stores version 1 of every `kv-get-d32` key through the engine.
pub fn preload(engine: &dyn CacheEngine) {
    for id in 0..PRELOAD {
        let key = client::key(id);
        let key = std::str::from_utf8(&key).expect("keys are ASCII");
        engine.set(key, Item::new(0, client::value(id, 1).to_vec()));
    }
}

/// Doublings (or halvings) in a group for [`calm_median`].
const RESIZE_GROUP: usize = 10;

/// Timings for `resize_us` of the kv workloads, taken while no server
/// thread is busy (before and after the measured phase): an index shaped
/// like the server's default one (a `ShardedRpMap` with `String` keys and
/// the server's shard count) holding 8192 keys at load factor 1, doubled
/// with `resize_total_to` and halved back, again and again for `budget`.
/// The server's own resizes run on its maintenance thread, where only
/// `STATS` quantiles of their steps can be seen, and those read too
/// coarsely to compare runs. The index is kept small enough to stay in
/// cache, so that the figure follows the resize code rather than the
/// host's memory traffic.
#[derive(Default)]
pub struct IndexResizes {
    grow_us: Vec<f64>,
    shrink_us: Vec<f64>,
}

impl IndexResizes {
    /// The mean of the calm median doubling and the calm median halving,
    /// in microseconds.
    pub fn resize_us(&self) -> f64 {
        (calm_median(&self.grow_us, RESIZE_GROUP) + calm_median(&self.shrink_us, RESIZE_GROUP))
            / 2.0
    }

    pub fn timed(&self) -> usize {
        self.grow_us.len() + self.shrink_us.len()
    }
}

pub fn time_index_resizes(kind: Kv, budget: Duration, out: &mut IndexResizes) {
    let shards = options(kind).shards;
    let keys = crate::table::KEYS as u32;
    let per_shard = keys as usize / shards;
    let map: ShardedRpMap<String, u32> = ShardedRpMap::with_policy(ShardPolicy {
        shards,
        initial_buckets_per_shard: per_shard,
        ..ShardPolicy::default()
    });
    for id in 0..keys {
        let key = client::key(id);
        map.insert(String::from_utf8_lossy(&key).into_owned(), id);
    }
    let base = map.num_buckets();
    let began = Instant::now();
    while began.elapsed() < budget {
        let start = Instant::now();
        map.resize_total_to(2 * base);
        out.grow_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        map.resize_total_to(base);
        out.shrink_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
}

/// Waits until no index resize is queued or running (preloading queues
/// them on the maintenance thread).
fn settle() -> Result<(), String> {
    let obs = rp_obs::global();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut quiet_since = Instant::now();
    loop {
        let busy = obs.resize.begun_total.get() != obs.resize.finished_total.get()
            || obs.maint.queue_depth.get() != 0;
        if busy {
            quiet_since = Instant::now();
        } else if quiet_since.elapsed() >= Duration::from_millis(20) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("index resizes did not settle within 30 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Builds and starts the server `reps` times (preloading for
/// `kv-get-d32`), keeping the last; returns it with each set-up's time in
/// seconds.
/// With a span log, the last server's engine is wrapped in
/// [`TracedEngine`].
pub fn setup(
    kind: Kv,
    reps: usize,
    log: Option<Arc<SpanLog>>,
) -> Result<(ServerHandle, Vec<f64>), String> {
    let opts = options(kind);
    let config = opts.server_config();
    let mut times = Vec::with_capacity(reps);
    let mut server: Option<ServerHandle> = None;
    for rep in 0..reps {
        if let Some(mut old) = server.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let engine = opts.build_engine();
        if kind == Kv::GetD32 {
            preload(&*engine);
            settle()?;
        }
        let engine: Arc<dyn CacheEngine> = match &log {
            Some(log) if rep + 1 == reps => Arc::new(TracedEngine {
                inner: engine,
                log: log.clone(),
            }),
            _ => engine,
        };
        server = Some(start_server(engine, &config).map_err(|e| format!("start_server: {e}"))?);
        times.push(start.elapsed().as_secs_f64());
    }
    let server = server.ok_or("no set-up repetitions")?;
    Ok((server, times))
}

pub fn stats_json(control: &mut Conn) -> Result<BTreeMap<String, u64>, String> {
    let text = control
        .control("STATS JSON\r\n", Shape::JsonThenEnd)
        .map_err(|e| format!("STATS JSON: {e}"))?;
    parse_stats_json(text.lines().next().unwrap_or_default())
}

pub fn stats_reset(control: &mut Conn) -> Result<(), String> {
    let reply = control
        .control("STATS RESET\r\n", Shape::Line)
        .map_err(|e| format!("STATS RESET: {e}"))?;
    if reply == "RESET\r\n" {
        Ok(())
    } else {
        Err(format!("STATS RESET answered {reply:?}"))
    }
}

/// The inputs one client drives.
pub enum Inputs {
    D32(Vec<Op>),
    Refill(Vec<Op>),
}

impl Inputs {
    pub fn generate(kind: Kv, seed: u64, seconds: f64) -> Inputs {
        match kind {
            Kv::GetD32 => Inputs::D32(d32_ops(seed)),
            Kv::RefillD1 => Inputs::Refill(refill_intents(seed, seconds)),
        }
    }
}

/// What the main thread does at each step of one drive.
pub trait Conductor {
    /// The measured phase starts now.
    fn measure_begins(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Runs while measuring, until `keep_going` turns false.
    fn during(&mut self, keep_going: &dyn Fn() -> bool);
    /// The measured phase is over; the client keeps its load running
    /// (unmeasured) until `after` returns.
    fn measure_ends(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn after(&mut self) {}
}

/// Runs one client thread against the server at `addr`: a warm-up (`kv-get-d32`), the measured phase (`seconds`, or the
/// fixed intents of `kv-refill-d1`), then whatever `conductor.after` does
/// under continued load.
pub fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    model: &mut Model,
    seconds: f64,
    traced: bool,
    conductor: &mut dyn Conductor,
) -> Result<Tally, String> {
    let phase = AtomicU8::new(WARM);
    let done = AtomicBool::new(false);
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    std::thread::scope(|s| {
        let phase = &phase;
        let done = &done;
        let conn = &mut conn;
        let client = s.spawn(move || match inputs {
            Inputs::D32(ops) => drive_d32(conn, ops, model, phase, traced),
            Inputs::Refill(intents) => drive_refill(conn, intents, model, phase, done, traced),
        });
        let conducted = (|| {
            match inputs {
                Inputs::D32(_) => {
                    std::thread::sleep(WARMUP);
                    conductor.measure_begins()?;
                    phase.store(MEASURE, Ordering::Relaxed);
                    let end = Instant::now() + Duration::from_secs_f64(seconds);
                    conductor.during(&|| Instant::now() < end);
                    phase.store(PROBE, Ordering::Relaxed);
                }
                Inputs::Refill(_) => {
                    conductor.measure_begins()?;
                    phase.store(MEASURE, Ordering::Relaxed);
                    conductor.during(&|| !done.load(Ordering::Acquire) && !client.is_finished());
                }
            }
            conductor.measure_ends()?;
            conductor.after();
            Ok(())
        })();
        phase.store(STOP, Ordering::Relaxed);
        let tally = client
            .join()
            .map_err(|_| "client thread panicked".to_string())?
            .map_err(|e| format!("client: {e}"));
        conducted.and(tally)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `kv-get-d32` traffic for a moment against a fresh server, checked
    /// against `model`.
    fn short_d32(model: &mut Model) -> Tally {
        let (mut server, _) = setup(Kv::GetD32, 1, None).expect("the server starts");
        let ops = d32_ops(7);
        let phase = AtomicU8::new(MEASURE);
        let mut conn = Conn::connect(server.addr()).expect("connect");
        let tally = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(300));
                phase.store(STOP, Ordering::Relaxed);
            });
            drive_d32(&mut conn, &ops, model, &phase, false).expect("the drive completes")
        });
        server.shutdown();
        tally
    }

    #[test]
    fn replies_that_contradict_the_model_are_failed_operations() {
        let clean = short_d32(&mut Model::preloaded());
        assert!(clean.attempted > 1000);
        assert_eq!(clean.failed, 0, "{:?}", clean.errors);

        // Expect a wrong version of the hottest key: every GET of it until
        // the client's own next SET must count as failed.
        let mut model = Model::preloaded();
        model.corrupt(0);
        let corrupted = short_d32(&mut model);
        assert!(corrupted.failed > 0, "a corrupted model went unnoticed");
        assert!(
            corrupted.errors[0].contains("k00000000"),
            "{:?}",
            corrupted.errors
        );
    }
}
