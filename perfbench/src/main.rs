//! The repository's benchmark: one command that runs a named workload and
//! prints, as the last line of standard output, one JSON object with the
//! run's correctness, operation counts and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table-resize|kv-get-d32|kv-refill-d1 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced.
//! `--trace 1` is a separate run for the per-layer metrics: a host
//! calibration probe, each layer timed in isolation, and the workload run
//! twice (untraced, then traced) to split its time between the layers and
//! to measure what tracing costs. `BENCHMARK.json` at the repository root
//! lists every metric, its unit and which workload it is meant to move.
//!
//! The process exits with 1 when any operation failed or a workload did
//! not exercise what it exists to exercise, and with 2 on bad arguments.

mod client;
mod host;
mod kv;
mod layers;
mod report;
mod table;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::Duration;

use kv::Kv;
use report::Report;
use trace::{attribute, mean_by_call, MainThread, SpanLog};
use util::{calm_median, delta, median, parse_stats_json, quantile};

const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("resize_us", "us"),
    ("hit_ratio", "ratio"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("host.alu_scale", "ratio"),
    ("host.chase_mops_1t", "M/s"),
    ("host.chase_mops_2t", "M/s"),
    ("rcu.ebr_pin_ns", "ns"),
    ("rcu.qsbr_quiescent_ns", "ns"),
    ("rcu.synchronize_p50_us", "us"),
    ("rcu.synchronize_p99_us", "us"),
    ("rcu.sync_ebr_p99_us", "us"),
    ("rcu.sync_qsbr_p99_us", "us"),
    ("rcu.reclaim_pending_peak", "count"),
    ("hash.lookup_ns.lf0.5", "ns"),
    ("hash.lookup_ns.lf1", "ns"),
    ("hash.lookup_ns.lf2", "ns"),
    ("hash.lookup_ns.lf4", "ns"),
    ("hash.lookup_unzip_ns", "ns"),
    ("hash.expand_us", "us"),
    ("hash.shrink_us", "us"),
    ("hash.resize_ns_per_bucket", "ns"),
    ("hash.sync_per_resize", "count"),
    ("hash.insert_ns", "ns"),
    ("hash.remove_ns", "ns"),
    ("hash.resizes_begun", "count"),
    ("hash.resizes_finished", "count"),
    ("shard.get_ns", "ns"),
    ("maint.slices", "count"),
    ("maint.slice_p99_us", "us"),
    ("maint.queue_depth_peak", "count"),
    ("engine.get_ref_hit_ns", "ns"),
    ("engine.get_ref_miss_ns", "ns"),
    ("engine.set_ns", "ns"),
    ("engine.delete_ns", "ns"),
    ("engine.evictions", "count"),
    ("protocol.decode_ns", "ns"),
    ("protocol.execute_self_ns", "ns"),
    ("net.flush_syscalls_per_req", "count"),
    ("net.segments_per_flush", "count"),
    ("net.batch_size_p50", "count"),
    ("net.backpressure_stalls", "count"),
    ("client.syscalls_per_req", "count"),
    ("loopback.gap_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups timed before the measured phase and again after it (so that
/// `setup_s` sees the host at both ends of the run), and how many make a
/// group for [`calm_median`]; `setup_s` is their calm median.
fn kv_setup_reps(kind: Kv) -> (usize, usize) {
    match kind {
        Kv::GetD32 => (5, 1),
        Kv::RefillD1 => (150, 5),
    }
}
/// How long `resize_us` of the kv workloads is timed before the measured
/// phase, and again after it.
const KV_RESIZE_BUDGET: Duration = Duration::from_millis(1500);
/// Longest of the traced run's three workload passes (for `kv-refill-d1`,
/// the seconds' worth of intents each pass runs).
const TRACED_PASS_MAX_S: f64 = 5.0;
/// How long `synchronize` is probed with the workload running.
const SYNC_PROBE: Duration = Duration::from_millis(1500);
/// Engine spans a traced kv run keeps.
const ENGINE_SPAN_CAP: usize = 4 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("table-resize", false) => table_resize(&args, &mut report),
        ("table-resize", true) => table_resize_traced(&args, &mut report),
        ("kv-get-d32", false) => kv_untraced(Kv::GetD32, &args, &mut report),
        ("kv-get-d32", true) => kv_traced(Kv::GetD32, &args, &mut report),
        ("kv-refill-d1", false) => kv_untraced(Kv::RefillD1, &args, &mut report),
        ("kv-refill-d1", true) => kv_traced(Kv::RefillD1, &args, &mut report),
        (other, _) => {
            eprintln!(
                "perfbench: unknown workload {other:?} (table-resize | kv-get-d32 | kv-refill-d1)"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    std::process::exit(report.finish(expected));
}

fn note_spans_written(written: std::io::Result<std::path::PathBuf>) {
    match written {
        Ok(path) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: spans not written: {e}"),
    }
}

fn print_host(probe: &host::HostProbe) {
    eprintln!(
        "host: {} CPUs, ALU scale {:.2}x, 1 MiB chase {:.1} M/s on 1 thread, {:.1} M/s per thread on {}",
        probe.threads, probe.alu_scale, probe.chase_mops_1t, probe.chase_mops_nt, probe.threads
    );
}

fn table_resize(args: &Args, report: &mut Report) -> Result<(), String> {
    let keys = table::keys(args.seed);
    let (map, mut setup_times) = on_cpu(fastest_cpu(args.seed)?, || table::setup(&keys))?;
    let window = table::run(
        &map,
        &keys,
        args.seed,
        args.seconds,
        false,
        fastest_cpu(args.seed)?,
        &mut MainThread::Sleep,
    );
    let rss_mb = util::peak_rss_mb();
    drop(map);
    setup_times.extend(on_cpu(fastest_cpu(args.seed)?, || table::setup(&keys))?.1);
    let (p50, p99) = window.latency_us();
    report.attempted = window.lookups;
    report.failed = window.failed;
    report.metric("ops_per_s", window.ops_per_s(), "1/s");
    report.metric("p50_us", p50, "us");
    report.metric("p99_us", p99, "us");
    report.metric("resize_us", window.resize_us(), "us");
    report.metric(
        "hit_ratio",
        (window.lookups - window.failed) as f64 / window.lookups as f64,
        "ratio",
    );
    report.metric("rss_mb", rss_mb, "MiB");
    report.metric(
        "setup_s",
        calm_median(&setup_times, table::SETUP_GROUP),
        "s",
    );
    eprintln!(
        "table-resize: {} lookups in {:.2} s, {} timed (1 in {}) for p50/p99; {} resizes, latest start {:.0} us late",
        window.lookups,
        window.seconds(),
        window.timed,
        table::TIMED_EVERY,
        window.resizes(),
        window.max_lateness_us
    );
    print_host(&host::probe(args.seed));
    Ok(())
}

/// The in-process registry as the server's `STATS JSON` would show it.
fn registry_json() -> BTreeMap<String, u64> {
    let mut text = Vec::new();
    rp_obs::global().render_json(&mut text);
    parse_stats_json(&String::from_utf8_lossy(&text)).expect("the registry renders valid JSON")
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics read from a `STATS JSON` scrape taken after
/// `STATS RESET`, plus the gauge peaks sampled in between.
fn registry_metrics(report: &mut Report, stats: &BTreeMap<String, u64>, gauges: &MainThread) {
    let get = |key: &str| stats.get(key).copied().unwrap_or(0) as f64;
    let (reclaim_peak, queue_peak) = match gauges {
        MainThread::Gauges {
            reclaim_pending_peak,
            queue_depth_peak,
        } => (*reclaim_pending_peak as f64, *queue_depth_peak as f64),
        _ => (f64::NAN, f64::NAN),
    };
    report.metric(
        "rcu.sync_ebr_p99_us",
        get("rcu.rcu_sync_ebr_ns.p99") / 1e3,
        "us",
    );
    report.metric(
        "rcu.sync_qsbr_p99_us",
        get("rcu.rcu_sync_qsbr_ns.p99") / 1e3,
        "us",
    );
    report.metric("rcu.reclaim_pending_peak", reclaim_peak, "count");
    report.metric(
        "hash.resizes_begun",
        get("resize.resize_begun_total"),
        "count",
    );
    report.metric(
        "hash.resizes_finished",
        get("resize.resize_finished_total"),
        "count",
    );
    report.metric("maint.slices", get("maint.maint_slices_total"), "count");
    report.metric(
        "maint.slice_p99_us",
        get("maint.maint_slice_ns.p99") / 1e3,
        "us",
    );
    report.metric("maint.queue_depth_peak", queue_peak, "count");
    report.metric(
        "engine.evictions",
        get("engine.engine_evictions_total"),
        "count",
    );
    let requests = get("kv.kv_requests_total");
    let flushes = get("net.net_flush_syscalls_total");
    report.metric(
        "net.flush_syscalls_per_req",
        ratio(flushes, requests),
        "count",
    );
    report.metric(
        "net.segments_per_flush",
        ratio(get("net.net_flush_segments_total"), flushes),
        "count",
    );
    report.metric("net.batch_size_p50", get("net.net_batch_size.p50"), "count");
    report.metric(
        "net.backpressure_stalls",
        get("net.net_backpressure_stalls_total"),
        "count",
    );
}

fn sync_metrics(report: &mut Report, probe: MainThread) {
    let MainThread::SyncProbe { mut samples_us } = probe else {
        unreachable!("sync metrics come from a sync probe")
    };
    eprintln!("synchronize: {} calls probed under load", samples_us.len());
    report.metric(
        "rcu.synchronize_p50_us",
        quantile(&mut samples_us, 0.5),
        "us",
    );
    report.metric(
        "rcu.synchronize_p99_us",
        quantile(&mut samples_us, 0.99),
        "us",
    );
}

/// Layer timings that do not depend on the workload: the host probe, RCU,
/// the table at several load factors and around resizes, the shard layer.
/// Returns the engine calls timed on a private engine (see
/// [`engine_metrics`]). Runs before any CPU pinning.
fn isolated_layers(report: &mut Report, seed: u64) -> [f64; 4] {
    let probe = host::probe(seed);
    print_host(&probe);
    report.metric("host.alu_scale", probe.alu_scale, "ratio");
    report.metric("host.chase_mops_1t", probe.chase_mops_1t, "M/s");
    report.metric("host.chase_mops_2t", probe.chase_mops_nt, "M/s");
    report.metric("rcu.ebr_pin_ns", layers::ebr_pin_ns(), "ns");
    report.metric("rcu.qsbr_quiescent_ns", layers::qsbr_quiescent_ns(), "ns");
    let keys = table::keys(seed);
    for (name, lf) in [
        ("hash.lookup_ns.lf0.5", 0.5),
        ("hash.lookup_ns.lf1", 1.0),
        ("hash.lookup_ns.lf2", 2.0),
        ("hash.lookup_ns.lf4", 4.0),
    ] {
        report.metric(name, layers::lookup_ns(&keys, seed, lf), "ns");
    }
    report.metric(
        "hash.lookup_unzip_ns",
        layers::lookup_unzip_ns(&keys, seed),
        "ns",
    );
    let cost = layers::resize_cost(&keys);
    report.metric("hash.expand_us", cost.expand_us, "us");
    report.metric("hash.shrink_us", cost.shrink_us, "us");
    report.metric("hash.resize_ns_per_bucket", cost.ns_per_bucket, "ns");
    report.metric("hash.sync_per_resize", cost.syncs_per_resize, "count");
    let (insert_ns, remove_ns) = layers::insert_remove_ns(&keys);
    report.metric("hash.insert_ns", insert_ns, "ns");
    report.metric("hash.remove_ns", remove_ns, "ns");
    report.metric("shard.get_ns", layers::shard_get_ns(&keys, seed), "ns");
    layers::engine_calls_ns(kv::options(Kv::GetD32).build_engine())
}

/// Mean engine spans of the workload's live traffic; a call the traffic
/// never made is taken from `isolated`, timed on a private engine built
/// from the same defaults.
fn engine_metrics(report: &mut Report, live: [(f64, u64); 4], isolated: [f64; 4]) {
    let names = [
        "engine.get_ref_hit_ns",
        "engine.get_ref_miss_ns",
        "engine.set_ns",
        "engine.delete_ns",
    ];
    for (i, name) in names.into_iter().enumerate() {
        let (mean, count) = live[i];
        report.metric(name, if count > 0 { mean } else { isolated[i] }, "ns");
    }
}

fn table_resize_traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let isolated = isolated_layers(report, args.seed);
    let keys = table::keys(args.seed);
    let pass = (args.seconds / 3.0).min(TRACED_PASS_MAX_S);
    let map = table::fill(&keys);
    let cpu = fastest_cpu(args.seed)?;
    let sleep = &mut MainThread::Sleep;
    let plain = table::run(&map, &keys, args.seed, pass, false, cpu, sleep);
    rp_obs::global().reset();
    let mut gauges = MainThread::gauges();
    let traced = table::run(&map, &keys, args.seed, pass, true, cpu, &mut gauges);
    let stats = registry_json();
    let plain_again = table::run(&map, &keys, args.seed, pass, false, cpu, sleep);
    let mut probe = MainThread::sync_probe();
    let sync_s = SYNC_PROBE.as_secs_f64();
    let probed = table::run(&map, &keys, args.seed, sync_s, false, cpu, &mut probe);
    for window in [&plain, &traced, &plain_again, &probed] {
        report.attempted += window.lookups;
        report.failed += window.failed;
    }
    registry_metrics(report, &stats, &gauges);
    sync_metrics(report, probe);
    let untraced = (plain.ops_per_s() + plain_again.ops_per_s()) / 2.0;
    report.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.ops_per_s() / untraced),
        "%",
    );
    // No engine, protocol, socket or loopback in this workload: its engine
    // and protocol figures come from the isolated timings, its client and
    // loopback figures are zero.
    engine_metrics(report, [(f64::NAN, 0); 4], isolated);
    let protocol = protocol_on_d32_stream(args.seed);
    report.metric("protocol.decode_ns", protocol.decode_ns, "ns");
    report.metric("protocol.execute_self_ns", protocol.execute_self_ns, "ns");
    report.metric("client.syscalls_per_req", 0.0, "count");
    report.metric("loopback.gap_us", 0.0, "us");
    let mut lookup_ns: Vec<f64> = traced.spans.iter().map(|&(s, e)| (e - s) as f64).collect();
    eprintln!(
        "table-resize traced: {} lookup spans, median {:.0} ns; {:.0} lookups/s untraced, {:.0} traced",
        lookup_ns.len(),
        median(&mut lookup_ns),
        untraced,
        traced.ops_per_s()
    );
    let lookups: Vec<_> = traced
        .spans
        .iter()
        .map(|&(start, end)| trace::ClientSpan {
            start,
            end,
            requests: 1,
        })
        .collect();
    note_spans_written(trace::write_spans(&args.workload, &lookups, &[]));
    Ok(())
}

/// Protocol costs over the first windows of the `kv-get-d32` request
/// stream against a preloaded private engine.
fn protocol_on_d32_stream(seed: u64) -> layers::ProtocolCost {
    let ops = kv::d32_ops(seed);
    let mut bytes = Vec::new();
    let mut model_version = vec![1u32; 2 * kv::PRELOAD as usize];
    for op in ops.iter().take(8192) {
        match *op {
            kv::Op::Get(id) => client::put_get(&mut bytes, id),
            kv::Op::Set(id) => {
                model_version[id as usize] += 1;
                client::put_set(&mut bytes, id, model_version[id as usize]);
            }
            kv::Op::Delete(id) => client::put_delete(&mut bytes, id),
        }
    }
    protocol_on(Kv::GetD32, &bytes)
}

fn protocol_on(kind: Kv, bytes: &[u8]) -> layers::ProtocolCost {
    let opts = kv::options(kind);
    let engine = opts.build_engine();
    if kind == Kv::GetD32 {
        kv::preload(&*engine);
    }
    layers::protocol_cost(bytes, engine, opts.read_side)
}

/// The allowed CPU the host lets run fastest now (see
/// [`host::fastest_cpu`]).
fn fastest_cpu(seed: u64) -> Result<usize, String> {
    util::allowed_cpus()
        .and_then(|cpus| host::fastest_cpu(&cpus, seed))
        .map_err(|e| format!("CPU affinity: {e}"))
}

/// Runs `f` on a thread of its own pinned to `cpu`.
fn on_cpu<T: Send>(cpu: usize, f: impl FnOnce() -> T + Send) -> Result<T, String> {
    std::thread::scope(|s| {
        s.spawn(|| util::pin_to(cpu).map(|()| f()))
            .join()
            .expect("a pinned thread panicked")
    })
    .map_err(|e| format!("CPU affinity: {e}"))
}

/// The kv workloads' CPU affinity: every thread that exists now (the
/// server's, once it is set up) and every thread they start later (the
/// client's), on the fastest CPU as the measured phase begins. Returns that
/// CPU. With server and client on two CPUs, each request window waits for
/// the idle server CPU to be woken, which on a shared virtual machine costs
/// whatever the hypervisor makes it cost: runs of the same code differed by
/// a third. On one CPU the handoff is a local wake-up, and runs agree.
fn pin_kv(seed: u64) -> Result<usize, String> {
    let cpu = fastest_cpu(seed)?;
    util::pin_process_to(cpu).map_err(|e| format!("CPU affinity: {e}"))?;
    Ok(cpu)
}

/// Index resizes and set-ups, timed on the fastest CPU with no workload
/// running; the kv workloads do this before and after the measured phase.
fn kv_timings(
    kind: Kv,
    seed: u64,
    resizes: &mut kv::IndexResizes,
    setup_times: &mut Vec<f64>,
) -> Result<rp_kvcache::ServerHandle, String> {
    util::pin_to(fastest_cpu(seed)?).map_err(|e| format!("CPU affinity: {e}"))?;
    kv::time_index_resizes(kind, KV_RESIZE_BUDGET, resizes);
    let (server, times) = kv::setup(kind, kv_setup_reps(kind).0, None)?;
    setup_times.extend(times);
    Ok(server)
}

fn kv_untraced(kind: Kv, args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = kv::Inputs::generate(kind, args.seed, args.seconds);
    print_host(&host::probe(args.seed));
    let mut resizes = kv::IndexResizes::default();
    let mut setup_times = Vec::new();
    let mut server = kv_timings(kind, args.seed, &mut resizes, &mut setup_times)?;
    let cpu = pin_kv(args.seed)?;
    let mut control = client::Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let before = kv::stats_json(&mut control)?;
    let mut model = match kind {
        Kv::GetD32 => kv::Model::preloaded(),
        Kv::RefillD1 => kv::Model::empty(),
    };
    let mut sleeper = Sleeper;
    let tally = kv::drive(
        server.addr(),
        &inputs,
        &mut model,
        args.seconds,
        false,
        &mut sleeper,
    )?;
    let after = kv::stats_json(&mut control)?;
    drop(control);
    server.shutdown();
    let rss_mb = util::peak_rss_mb();
    kv_timings(kind, args.seed, &mut resizes, &mut setup_times)?.shutdown();

    report.attempted = tally.attempted;
    report.failed = tally.failed;
    for error in &tally.errors {
        eprintln!("perfbench: failed: {error}");
    }
    check_refill(kind, &tally, &before, &after, report);
    let (p50, p99) = tally.latency_us();
    report.metric("ops_per_s", tally.ops_per_s(), "1/s");
    report.metric("p50_us", p50, "us");
    report.metric("p99_us", p99, "us");
    report.metric("resize_us", resizes.resize_us(), "us");
    report.metric("hit_ratio", tally.hit_ratio(), "ratio");
    report.metric("rss_mb", rss_mb, "MiB");
    let group = kv_setup_reps(kind).1;
    report.metric("setup_s", calm_median(&setup_times, group), "s");
    eprintln!(
        "{kind:?}: server and client on CPU {cpu}; {} requests in {:.2} s; {} latency samples; \
         the server finished {} index resizes and evicted {} items; \
         {} index resizes timed for resize_us",
        tally.requests,
        tally.seconds(),
        tally.latency_samples(kind),
        delta(&before, &after, "resize.resize_finished_total"),
        delta(&before, &after, "engine.engine_evictions_total"),
        resizes.timed(),
    );
    Ok(())
}

/// `kv-refill-d1` must grow every shard's index at least twice through
/// maintained resizes and start evicting, and each miss of a key the
/// client had stored must be explained by an eviction.
fn check_refill(
    kind: Kv,
    tally: &kv::Tally,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    report: &mut Report,
) {
    if kind != Kv::RefillD1 {
        return;
    }
    let shards = kv::options(kind).shards as u64;
    let resizes = delta(before, after, "resize.resize_finished_total");
    let evictions = delta(before, after, "engine.engine_evictions_total");
    if resizes < 2 * shards {
        report.problems.push(format!(
            "only {resizes} index resizes finished; {shards} shards must each double twice"
        ));
    }
    if evictions == 0 {
        report
            .problems
            .push("the cache never filled: no eviction".to_string());
    }
    if tally.present_misses > evictions {
        report.failed += tally.present_misses - evictions;
        eprintln!(
            "perfbench: failed: {} misses of stored keys but only {evictions} evictions",
            tally.present_misses
        );
    }
}

struct Sleeper;

impl kv::Conductor for Sleeper {
    fn during(&mut self, keep_going: &dyn Fn() -> bool) {
        MainThread::Sleep.run_while(keep_going);
    }
}

/// The traced pass: `STATS RESET` as measuring starts, gauge peaks while
/// it runs, `STATS JSON` as it ends, then `synchronize` probed under the
/// client's continued load.
struct Tracer {
    control: client::Conn,
    gauges: MainThread,
    probe: MainThread,
    stats: BTreeMap<String, u64>,
}

impl kv::Conductor for Tracer {
    fn measure_begins(&mut self) -> Result<(), String> {
        kv::stats_reset(&mut self.control)
    }

    fn during(&mut self, keep_going: &dyn Fn() -> bool) {
        self.gauges.run_while(keep_going);
    }

    fn measure_ends(&mut self) -> Result<(), String> {
        self.stats = kv::stats_json(&mut self.control)?;
        Ok(())
    }

    fn after(&mut self) {
        self.probe.run_for(SYNC_PROBE);
    }
}

fn kv_traced(kind: Kv, args: &Args, report: &mut Report) -> Result<(), String> {
    let isolated = isolated_layers(report, args.seed);
    // Three passes (untraced, traced, untraced) of `pass` seconds each, or
    // of that many seconds' worth of `kv-refill-d1` intents.
    let pass = (args.seconds / 3.0).min(TRACED_PASS_MAX_S);
    let inputs = kv::Inputs::generate(kind, args.seed, pass);
    let new_model = || match kind {
        Kv::GetD32 => kv::Model::preloaded(),
        Kv::RefillD1 => kv::Model::empty(),
    };
    pin_kv(args.seed)?;
    let plain_pass = || -> Result<kv::Tally, String> {
        let (mut server, _) = kv::setup(kind, 1, None)?;
        let tally = kv::drive(
            server.addr(),
            &inputs,
            &mut new_model(),
            pass,
            false,
            &mut Sleeper,
        );
        server.shutdown();
        tally
    };

    let plain = plain_pass()?;
    let log = std::sync::Arc::new(SpanLog::with_capacity(ENGINE_SPAN_CAP));
    let (mut server, _) = kv::setup(kind, 1, Some(log.clone()))?;
    let mut tracer = Tracer {
        control: client::Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?,
        gauges: MainThread::gauges(),
        probe: MainThread::sync_probe(),
        stats: BTreeMap::new(),
    };
    let traced = kv::drive(
        server.addr(),
        &inputs,
        &mut new_model(),
        pass,
        true,
        &mut tracer,
    )?;
    drop(tracer.control);
    server.shutdown();
    let plain_again = plain_pass()?;

    for tally in [&plain, &traced, &plain_again] {
        report.attempted += tally.attempted;
        report.failed += tally.failed;
        for error in &tally.errors {
            eprintln!("perfbench: failed: {error}");
        }
    }
    check_refill(kind, &traced, &BTreeMap::new(), &tracer.stats, report);
    registry_metrics(report, &tracer.stats, &tracer.gauges);
    sync_metrics(report, tracer.probe);
    let untraced = (plain.ops_per_s() + plain_again.ops_per_s()) / 2.0;
    report.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.ops_per_s() / untraced),
        "%",
    );

    // Engine spans inside the measured phase, each attributed to the
    // client window or request that contains it.
    let mut spans = log.spans();
    let window_end = if log.is_full() {
        spans.last().map_or(0, |s| s.start)
    } else {
        traced.last_end
    };
    spans.retain(|s| s.start >= traced.first_start && s.end <= window_end);
    let client_spans: Vec<_> = traced
        .spans
        .iter()
        .copied()
        .filter(|c| c.end <= window_end)
        .collect();
    let (inside, orphans) = attribute(&client_spans, &spans);
    note_spans_written(trace::write_spans(&args.workload, &client_spans, &spans));
    engine_metrics(report, mean_by_call(&spans), isolated);

    let protocol = protocol_on(kind, &traced.capture);
    report.metric("protocol.decode_ns", protocol.decode_ns, "ns");
    report.metric("protocol.execute_self_ns", protocol.execute_self_ns, "ns");
    let requests: u64 = client_spans.iter().map(|c| u64::from(c.requests)).sum();
    let e2e_ns: u64 = client_spans.iter().map(|c| c.end - c.start).sum();
    let engine_ns: u64 = inside.iter().sum();
    let per_request_ns = e2e_ns as f64 / requests as f64;
    let gap_ns = (e2e_ns - engine_ns) as f64 / requests as f64
        - protocol.decode_ns
        - protocol.execute_self_ns;
    report.metric("loopback.gap_us", gap_ns / 1e3, "us");
    report.metric(
        "client.syscalls_per_req",
        traced.syscalls as f64 / traced.requests as f64,
        "count",
    );
    eprintln!(
        "{kind:?} traced: {requests} requests in {} client spans, {:.0} ns each end to end, \
         {:.0} ns in the engine; {} engine spans ({orphans} outside any client span); \
         {:.0} req/s untraced, {:.0} traced",
        client_spans.len(),
        per_request_ns,
        engine_ns as f64 / requests as f64,
        spans.len(),
        untraced,
        traced.ops_per_s()
    );
    Ok(())
}
