//! Command-line / environment configuration for the `kvcached` binary.
//!
//! Kept in the library (rather than the binary) so the flag and env-var
//! handling is unit-testable. Flags win over environment variables, which
//! win over defaults:
//!
//! | Flag | Env | Default |
//! |---|---|---|
//! | `--engine rp\|rp-shard\|splitorder\|lock` | `RP_KV_ENGINE` | `rp-shard` |
//! | `--port N` | `RP_KV_PORT` | `11211` |
//! | `--mode threaded\|event-loop` | `RP_KV_MODE` | `event-loop` |
//! | `--workers N` | `RP_KV_WORKERS` | `2` |
//! | `--read-side qsbr\|ebr` | `RP_KV_READ_SIDE` | `qsbr` |
//! | `--shards N` | `RP_KV_SHARDS` | `16` |
//! | `--capacity N` | `RP_KV_CAPACITY` | `1048576` |
//! | `--maint on\|off` | `RP_KV_MAINT` | `on` |
//! | `--maint-workers N` | `RP_KV_MAINT_WORKERS` | [`MaintConfig`] default |
//! | `--maint-fairness-slice N` | `RP_KV_MAINT_FAIRNESS_SLICE` | [`MaintConfig`] default |
//! | `--maint-reclaim-threshold N` | `RP_KV_MAINT_RECLAIM_THRESHOLD` | [`MaintConfig`] default |
//! | `--maint-idle-wakeup-ms N` | `RP_KV_MAINT_IDLE_WAKEUP_MS` | [`MaintConfig`] default |
//! | `--drain-timeout-ms N` | `RP_KV_DRAIN_TIMEOUT_MS` | `5000` |
//! | `--idle-timeout-ms N` (0 = off) | `RP_KV_IDLE_TIMEOUT_MS` | `0` |
//! | `--max-requests-per-conn N` (0 = off) | `RP_KV_MAX_REQUESTS_PER_CONN` | `0` |
//! | `--max-conns N` (0 = off) | `RP_KV_MAX_CONNS` | `0` |
//! | `--max-bytes N` (0 = off) | `RP_KV_MAX_BYTES` | `0` |
//! | `--stats on\|off` | `RP_KV_STATS` | `on` |
//!
//! `--read-side` selects the RCU flavor serving event-loop GETs: `qsbr`
//! (the default — barrier-free lookups, quiescent states announced per
//! event batch) or `ebr` (per-lookup guards; what the threaded server
//! always uses). The `--maint-*` family tunes the background resize
//! maintenance thread
//! (`rp-maint`) behind the `rp-shard` engine; `--maint off` reverts to
//! inline resizing (writers absorb the grace-period waits themselves).
//! The on/off switches `--maint` and `--stats` read `off`, `0`, `false`
//! and `no` (any case) as off and anything else as on.

use std::sync::Arc;
use std::time::Duration;

use rp_maint::MaintConfig;

use crate::engine::{CacheEngine, ReadSide};
use crate::server::{ServerConfig, ServerMode};
use crate::{LockEngine, RpEngine, ShardedRpEngine, SplitOrderEngine};

/// Which storage engine to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Single relativistic table ([`RpEngine`]).
    Rp,
    /// Sharded relativistic index ([`ShardedRpEngine`]).
    RpShard,
    /// Lock-free split-ordered index ([`SplitOrderEngine`]).
    SplitOrder,
    /// Global-lock baseline ([`LockEngine`]).
    Lock,
}

/// Parsed server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Storage engine.
    pub engine: EngineKind,
    /// TCP port (`0` picks a free one).
    pub port: u16,
    /// Connection-handling architecture.
    pub mode: ServerMode,
    /// Event-loop worker threads.
    pub workers: usize,
    /// Read-side RCU flavor for event-loop GETs (the threaded server
    /// always uses EBR).
    pub read_side: ReadSide,
    /// Index shards (rp-shard engine only).
    pub shards: usize,
    /// Item capacity.
    pub capacity: usize,
    /// Maintenance-thread tuning, or `None` for inline resizes (rp-shard
    /// engine only).
    pub maint: Option<MaintConfig>,
    /// Graceful-shutdown drain budget (event-loop mode).
    pub drain_timeout: Duration,
    /// Idle-connection reap timeout (event-loop mode; `None` = off).
    pub idle_timeout: Option<Duration>,
    /// Per-connection served-request budget (event-loop mode; `None` =
    /// unlimited).
    pub max_requests_per_conn: Option<u64>,
    /// Admission wall: concurrent-connection cap (event-loop mode;
    /// `usize::MAX` = unlimited). Peers over it get `SERVER_ERROR busy`.
    pub max_connections: usize,
    /// Global byte budget: total bytes buffered across all connections
    /// (event-loop mode; `usize::MAX` = unlimited).
    pub max_total_bytes: usize,
    /// `rp-obs` telemetry timers (`--stats off` drops the two `Instant`
    /// reads per request; untimed counters stay on either way).
    pub stats: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            engine: EngineKind::RpShard,
            port: 11211,
            mode: ServerMode::EventLoop,
            workers: 2,
            read_side: ReadSide::Qsbr,
            shards: 16,
            capacity: 1 << 20,
            maint: Some(MaintConfig::default()),
            drain_timeout: Duration::from_secs(5),
            idle_timeout: None,
            max_requests_per_conn: None,
            max_connections: usize::MAX,
            max_total_bytes: usize::MAX,
            stats: true,
        }
    }
}

/// Usage text for `kvcached --help`.
pub const USAGE: &str = "\
kvcached — the relativist cache server

USAGE:
    kvcached [FLAGS]

FLAGS (each falls back to the env var in brackets, then to the default):
    --engine rp|rp-shard|splitorder|lock
                                  storage engine                [RP_KV_ENGINE, rp-shard]
    --port N                      TCP port, 0 = pick free       [RP_KV_PORT, 11211]
    --mode threaded|event-loop    connection architecture       [RP_KV_MODE, event-loop]
    --workers N                   event-loop worker threads     [RP_KV_WORKERS, 2]
    --read-side qsbr|ebr          GET read-side RCU flavor      [RP_KV_READ_SIDE, qsbr]
    --shards N                    index shards (rp-shard)       [RP_KV_SHARDS, 16]
    --capacity N                  max items                     [RP_KV_CAPACITY, 1048576]
    --maint on|off                background index resizes      [RP_KV_MAINT, on]
    --maint-workers N             maintenance worker threads    [RP_KV_MAINT_WORKERS]
    --maint-fairness-slice N      resize steps per shard turn   [RP_KV_MAINT_FAIRNESS_SLICE]
    --maint-reclaim-threshold N   deferred-free batch trigger   [RP_KV_MAINT_RECLAIM_THRESHOLD]
    --maint-idle-wakeup-ms N      idle reclamation heartbeat    [RP_KV_MAINT_IDLE_WAKEUP_MS]
    --drain-timeout-ms N          graceful shutdown budget      [RP_KV_DRAIN_TIMEOUT_MS, 5000]
    --idle-timeout-ms N           reap idle connections, 0=off  [RP_KV_IDLE_TIMEOUT_MS, 0]
    --max-requests-per-conn N     per-connection budget, 0=off  [RP_KV_MAX_REQUESTS_PER_CONN, 0]
    --max-conns N                 connection admission wall, 0=off  [RP_KV_MAX_CONNS, 0]
    --max-bytes N                 global buffered-byte budget, 0=off  [RP_KV_MAX_BYTES, 0]
    --stats on|off                telemetry latency timers      [RP_KV_STATS, on]
    --help                        print this text
";

impl ServerOptions {
    /// Parses `args` (without the program name), falling back to `env` for
    /// unset flags. `env` is injected so tests need not mutate the process
    /// environment.
    pub fn parse(
        args: &[String],
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<ServerOptions, String> {
        let mut opts = ServerOptions::default();

        // Environment layer first, flags override below.
        let mut engine = env("RP_KV_ENGINE");
        let mut port = env("RP_KV_PORT");
        let mut mode = env("RP_KV_MODE");
        let mut workers = env("RP_KV_WORKERS");
        let mut read_side = env("RP_KV_READ_SIDE");
        let mut shards = env("RP_KV_SHARDS");
        let mut capacity = env("RP_KV_CAPACITY");
        let mut maint = env("RP_KV_MAINT");
        let mut maint_workers = env("RP_KV_MAINT_WORKERS");
        let mut fairness = env("RP_KV_MAINT_FAIRNESS_SLICE");
        let mut reclaim = env("RP_KV_MAINT_RECLAIM_THRESHOLD");
        let mut idle_ms = env("RP_KV_MAINT_IDLE_WAKEUP_MS");
        let mut drain_ms = env("RP_KV_DRAIN_TIMEOUT_MS");
        let mut idle_timeout_ms = env("RP_KV_IDLE_TIMEOUT_MS");
        let mut max_requests = env("RP_KV_MAX_REQUESTS_PER_CONN");
        let mut max_conns = env("RP_KV_MAX_CONNS");
        let mut max_bytes = env("RP_KV_MAX_BYTES");
        let mut stats = env("RP_KV_STATS");

        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            if flag == "--help" || flag == "-h" {
                return Err(USAGE.to_string());
            }
            let slot = match flag.as_str() {
                "--engine" => &mut engine,
                "--port" => &mut port,
                "--mode" => &mut mode,
                "--workers" => &mut workers,
                "--read-side" => &mut read_side,
                "--shards" => &mut shards,
                "--capacity" => &mut capacity,
                "--maint" => &mut maint,
                "--maint-workers" => &mut maint_workers,
                "--maint-fairness-slice" => &mut fairness,
                "--maint-reclaim-threshold" => &mut reclaim,
                "--maint-idle-wakeup-ms" => &mut idle_ms,
                "--drain-timeout-ms" => &mut drain_ms,
                "--idle-timeout-ms" => &mut idle_timeout_ms,
                "--max-requests-per-conn" => &mut max_requests,
                "--max-conns" => &mut max_conns,
                "--max-bytes" => &mut max_bytes,
                "--stats" => &mut stats,
                other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
            };
            let Some(value) = iter.next() else {
                return Err(format!("flag {flag} requires a value"));
            };
            *slot = Some(value.clone());
        }

        if let Some(v) = engine {
            opts.engine = match v.as_str() {
                "rp" => EngineKind::Rp,
                "rp-shard" => EngineKind::RpShard,
                "splitorder" => EngineKind::SplitOrder,
                "lock" => EngineKind::Lock,
                other => {
                    return Err(format!(
                        "bad engine {other:?} (rp | rp-shard | splitorder | lock)"
                    ))
                }
            };
        }
        if let Some(v) = port {
            opts.port = parse_num(&v, "--port")?;
        }
        if let Some(v) = mode {
            opts.mode = match v.as_str() {
                "threaded" => ServerMode::Threaded,
                "event-loop" => ServerMode::EventLoop,
                other => return Err(format!("bad mode {other:?} (threaded | event-loop)")),
            };
        }
        if let Some(v) = workers {
            opts.workers = parse_num::<usize>(&v, "--workers")?.max(1);
        }
        if let Some(v) = read_side {
            opts.read_side = ReadSide::parse(&v)?;
        }
        if let Some(v) = shards {
            opts.shards = parse_num::<usize>(&v, "--shards")?.max(1);
        }
        if let Some(v) = capacity {
            opts.capacity = parse_num::<usize>(&v, "--capacity")?.max(1);
        }
        if let Some(v) = maint {
            opts.maint = switch_on(&v).then(MaintConfig::default);
        }
        if let Some(config) = opts.maint.as_mut() {
            if let Some(v) = maint_workers {
                config.workers = parse_num::<usize>(&v, "--maint-workers")?.max(1);
            }
            if let Some(v) = fairness {
                config.fairness_slice = parse_num::<usize>(&v, "--maint-fairness-slice")?.max(1);
            }
            if let Some(v) = reclaim {
                config.reclaim_threshold = parse_num(&v, "--maint-reclaim-threshold")?;
            }
            if let Some(v) = idle_ms {
                config.idle_wakeup =
                    Duration::from_millis(parse_num(&v, "--maint-idle-wakeup-ms")?);
            }
        }
        if let Some(v) = drain_ms {
            opts.drain_timeout = Duration::from_millis(parse_num(&v, "--drain-timeout-ms")?);
        }
        if let Some(v) = idle_timeout_ms {
            let ms: u64 = parse_num(&v, "--idle-timeout-ms")?;
            opts.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(v) = max_requests {
            let n: u64 = parse_num(&v, "--max-requests-per-conn")?;
            opts.max_requests_per_conn = (n > 0).then_some(n);
        }
        if let Some(v) = max_conns {
            let n: usize = parse_num(&v, "--max-conns")?;
            opts.max_connections = if n > 0 { n } else { usize::MAX };
        }
        if let Some(v) = max_bytes {
            let n: usize = parse_num(&v, "--max-bytes")?;
            opts.max_total_bytes = if n > 0 { n } else { usize::MAX };
        }
        if let Some(v) = stats {
            opts.stats = switch_on(&v);
        }
        Ok(opts)
    }

    /// Builds the configured engine. The `--maint-*` options only affect
    /// the `rp-shard` engine (the others have no maintenance thread).
    pub fn build_engine(&self) -> Arc<dyn CacheEngine> {
        match self.engine {
            EngineKind::Rp => Arc::new(RpEngine::with_capacity(self.capacity)),
            EngineKind::RpShard => Arc::new(ShardedRpEngine::with_options(
                self.shards,
                self.capacity,
                self.maint.clone(),
            )),
            EngineKind::SplitOrder => Arc::new(SplitOrderEngine::with_capacity(self.capacity)),
            EngineKind::Lock => Arc::new(LockEngine::with_capacity(self.capacity)),
        }
    }

    /// The [`ServerConfig`] these options describe.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            port: self.port,
            mode: self.mode,
            workers: self.workers,
            read_side: self.read_side,
            drain_timeout: self.drain_timeout,
            idle_timeout: self.idle_timeout,
            max_requests_per_conn: self.max_requests_per_conn,
            max_connections: self.max_connections,
            max_total_bytes: self.max_total_bytes,
        }
    }
}

/// An on/off switch value: `off`, `0`, `false` and `no` (any case,
/// surrounding blanks ignored) turn it off; anything else leaves it on.
fn switch_on(value: &str) -> bool {
    !matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "off" | "0" | "false" | "no"
    )
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("bad numeric value {value:?} for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_nothing_is_given() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert_eq!(opts.engine, EngineKind::RpShard);
        assert_eq!(opts.mode, ServerMode::EventLoop);
        assert_eq!(opts.port, 11211);
        assert!(opts.maint.is_some());
    }

    #[test]
    fn flags_parse_and_tune_maintenance() {
        let opts = ServerOptions::parse(
            &strings(&[
                "--engine",
                "rp-shard",
                "--mode",
                "event-loop",
                "--workers",
                "4",
                "--port",
                "0",
                "--maint-fairness-slice",
                "32",
                "--maint-reclaim-threshold",
                "1024",
                "--maint-idle-wakeup-ms",
                "10",
                "--drain-timeout-ms",
                "250",
            ]),
            &no_env,
        )
        .unwrap();
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.port, 0);
        let maint = opts.maint.as_ref().expect("maintenance on");
        assert_eq!(maint.fairness_slice, 32);
        assert_eq!(maint.reclaim_threshold, 1024);
        assert_eq!(maint.idle_wakeup, Duration::from_millis(10));
        assert_eq!(opts.drain_timeout, Duration::from_millis(250));
    }

    #[test]
    fn env_fills_in_and_flags_override() {
        let env = |name: &str| match name {
            "RP_KV_ENGINE" => Some("lock".to_string()),
            "RP_KV_WORKERS" => Some("8".to_string()),
            "RP_KV_MAINT_FAIRNESS_SLICE" => Some("64".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&strings(&["--engine", "rp"]), &env).unwrap();
        assert_eq!(opts.engine, EngineKind::Rp, "flag beats env");
        assert_eq!(opts.workers, 8, "env beats default");
        // Engine rp has no maintenance thread, but the tuning still parses.
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert_eq!(opts.maint.as_ref().unwrap().fairness_slice, 64);
    }

    #[test]
    fn maint_off_discards_tuning() {
        let opts = ServerOptions::parse(
            &strings(&["--maint", "off", "--maint-fairness-slice", "32"]),
            &no_env,
        )
        .unwrap();
        assert!(opts.maint.is_none());
    }

    #[test]
    fn read_side_parses_from_flag_and_env() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert_eq!(opts.read_side, ReadSide::Qsbr, "qsbr is the default");
        let opts = ServerOptions::parse(&strings(&["--read-side", "ebr"]), &no_env).unwrap();
        assert_eq!(opts.read_side, ReadSide::Ebr);
        assert_eq!(opts.server_config().read_side, ReadSide::Ebr);
        let env = |name: &str| match name {
            "RP_KV_READ_SIDE" => Some("ebr".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert_eq!(opts.read_side, ReadSide::Ebr, "env beats default");
        let opts = ServerOptions::parse(&strings(&["--read-side", "QSBR"]), &env).unwrap();
        assert_eq!(opts.read_side, ReadSide::Qsbr, "flag beats env");
        assert!(ServerOptions::parse(&strings(&["--read-side", "hazard"]), &no_env).is_err());
    }

    #[test]
    fn defensive_limits_parse_with_zero_meaning_off() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert_eq!(opts.idle_timeout, None);
        assert_eq!(opts.max_requests_per_conn, None);
        let opts = ServerOptions::parse(
            &strings(&[
                "--idle-timeout-ms",
                "1500",
                "--max-requests-per-conn",
                "10000",
            ]),
            &no_env,
        )
        .unwrap();
        assert_eq!(opts.idle_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(opts.max_requests_per_conn, Some(10_000));
        let config = opts.server_config();
        assert_eq!(config.idle_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(config.max_requests_per_conn, Some(10_000));
        let env = |name: &str| match name {
            "RP_KV_IDLE_TIMEOUT_MS" => Some("0".to_string()),
            "RP_KV_MAX_REQUESTS_PER_CONN" => Some("7".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert_eq!(opts.idle_timeout, None, "0 disables");
        assert_eq!(opts.max_requests_per_conn, Some(7));
    }

    #[test]
    fn admission_limits_parse_with_zero_meaning_off() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert_eq!(opts.max_connections, usize::MAX);
        assert_eq!(opts.max_total_bytes, usize::MAX);
        let opts = ServerOptions::parse(
            &strings(&["--max-conns", "10000", "--max-bytes", "67108864"]),
            &no_env,
        )
        .unwrap();
        assert_eq!(opts.max_connections, 10_000);
        assert_eq!(opts.max_total_bytes, 64 << 20);
        let config = opts.server_config();
        assert_eq!(config.max_connections, 10_000);
        assert_eq!(config.max_total_bytes, 64 << 20);
        let env = |name: &str| match name {
            "RP_KV_MAX_CONNS" => Some("0".to_string()),
            "RP_KV_MAX_BYTES" => Some("1024".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert_eq!(opts.max_connections, usize::MAX, "0 disables the wall");
        assert_eq!(opts.max_total_bytes, 1024, "env beats default");
    }

    #[test]
    fn maint_workers_flag_scales_the_pool() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert_eq!(opts.maint.as_ref().unwrap().workers, 1, "default pool");
        let opts = ServerOptions::parse(&strings(&["--maint-workers", "3"]), &no_env).unwrap();
        assert_eq!(opts.maint.as_ref().unwrap().workers, 3);
        let env = |name: &str| match name {
            "RP_KV_MAINT_WORKERS" => Some("2".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert_eq!(opts.maint.as_ref().unwrap().workers, 2, "env beats default");
        // Tuning without a maintainer is silently dropped, like the rest
        // of the --maint-* family.
        let opts = ServerOptions::parse(&strings(&["--maint", "off"]), &env).unwrap();
        assert!(opts.maint.is_none());
    }

    #[test]
    fn switches_parse_every_spelling_from_flag_and_env() {
        let on = ["on", "1"];
        let off = ["off", "OFF", "0", "false", "no", " Off "];
        for value in on.into_iter().chain(off) {
            let expected = on.contains(&value);
            let env = |name: &str| {
                matches!(name, "RP_KV_MAINT" | "RP_KV_STATS").then(|| value.to_string())
            };
            let flags = strings(&["--maint", value, "--stats", value]);
            for opts in [
                ServerOptions::parse(&flags, &no_env).unwrap(),
                ServerOptions::parse(&[], &env).unwrap(),
            ] {
                assert_eq!(opts.maint.is_some(), expected, "maint {value:?}");
                assert_eq!(opts.stats, expected, "stats {value:?}");
            }
        }
        let unset = ServerOptions::parse(&[], &no_env).unwrap();
        assert!(
            unset.maint.is_some() && unset.stats,
            "unset switches are on"
        );
    }

    #[test]
    fn stats_toggle_parses_from_flag_and_env() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert!(opts.stats, "telemetry defaults on");
        let opts = ServerOptions::parse(&strings(&["--stats", "off"]), &no_env).unwrap();
        assert!(!opts.stats);
        let env = |name: &str| match name {
            "RP_KV_STATS" => Some("0".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert!(!opts.stats, "env beats default");
        let opts = ServerOptions::parse(&strings(&["--stats", "on"]), &env).unwrap();
        assert!(opts.stats, "flag beats env");
    }

    #[test]
    fn bad_values_report_errors() {
        assert!(ServerOptions::parse(&strings(&["--engine", "redis"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--port", "eleven"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--mode", "forked"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--port"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--bogus", "1"]), &no_env).is_err());
        let usage = ServerOptions::parse(&strings(&["--help"]), &no_env).unwrap_err();
        assert!(usage.contains("--maint-fairness-slice"));
    }

    #[test]
    fn built_engines_match_the_request() {
        let opts = ServerOptions::parse(
            &strings(&["--engine", "rp-shard", "--shards", "4", "--maint", "off"]),
            &no_env,
        )
        .unwrap();
        let engine = opts.build_engine();
        assert_eq!(engine.name(), "rp-shard");
        let opts = ServerOptions::parse(&strings(&["--engine", "splitorder"]), &no_env).unwrap();
        assert_eq!(opts.engine, EngineKind::SplitOrder);
        assert_eq!(opts.build_engine().name(), "splitorder");
        let opts = ServerOptions::parse(&strings(&["--engine", "lock"]), &no_env).unwrap();
        assert_eq!(opts.build_engine().name(), "default");
    }
}
