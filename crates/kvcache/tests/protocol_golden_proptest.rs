//! Golden-bytes tests for the request path both servers run: byte streams
//! go through [`RefDecoder`] + [`execute_ref`] against a real engine, and
//! the reply bytes must equal what an independent model predicts — a
//! `HashMap` plus the literal memcached wire text — at every chunking.

use std::collections::HashMap;

use proptest::prelude::*;

use rp_kvcache::protocol::{Decoded, RefDecoder, MAX_FRAME, MAX_LINE};
use rp_kvcache::server::execute_ref;
use rp_kvcache::{CacheEngine, EngineReadCtx, LockEngine, RpEngine};

/// Malformed requests and their exact replies. Each parses as invalid
/// whatever the chunking (never as incomplete forever).
const JUNK: [(&[u8], &[u8]); 9] = [
    (b"bogus nonsense\r\n", b"CLIENT_ERROR unknown command\r\n"),
    (b"STATS bogus\r\n", b"CLIENT_ERROR unknown command\r\n"),
    (b"\r\n", b"CLIENT_ERROR empty command\r\n"),
    (
        b"get \xff\xfe\r\n",
        b"CLIENT_ERROR command line is not valid UTF-8\r\n",
    ),
    (
        b"get\r\n",
        b"CLIENT_ERROR get requires at least one key\r\n",
    ),
    (b"delete\r\n", b"CLIENT_ERROR delete requires a key\r\n"),
    (
        b"set missing fields\r\n",
        b"CLIENT_ERROR set requires <key> <flags> <exptime> <bytes>\r\n",
    ),
    (
        b"set k x 0 5\r\n",
        b"CLIENT_ERROR bad numeric field in set\r\n",
    ),
    (
        // The block is two bytes too long: the frame is rejected through
        // "abcd", and the trailing CRLF is then an empty line.
        b"set k 0 0 2\r\nabcd\r\n",
        b"CLIENT_ERROR data block not terminated by CRLF\r\nCLIENT_ERROR empty command\r\n",
    ),
];

const ABSURD_SET: (&[u8], &[u8]) = (
    b"set k 0 0 18446744073709551615\r\n",
    b"CLIENT_ERROR set byte count is absurdly large\r\n",
);

const VERSION_REPLY: &[u8] = b"VERSION relativist-kvcache 0.1.0\r\n";

/// One element of a test stream.
#[derive(Debug, Clone)]
enum Op {
    Get(Vec<String>),
    Set {
        key: String,
        flags: u32,
        exptime: u64,
        data: Vec<u8>,
        noreply: bool,
    },
    Delete {
        key: String,
        noreply: bool,
    },
    Stats,
    Version,
    /// An index into [`JUNK`].
    Junk(usize),
}

fn encode(op: &Op) -> Vec<u8> {
    match op {
        Op::Get(keys) => format!("get {}\r\n", keys.join(" ")).into_bytes(),
        Op::Set {
            key,
            flags,
            exptime,
            data,
            noreply,
        } => {
            let mut out = format!(
                "set {key} {flags} {exptime} {}{}\r\n",
                data.len(),
                if *noreply { " noreply" } else { "" }
            )
            .into_bytes();
            out.extend_from_slice(data);
            out.extend_from_slice(b"\r\n");
            out
        }
        Op::Delete { key, noreply } => {
            format!("delete {key}{}\r\n", if *noreply { " noreply" } else { "" }).into_bytes()
        }
        Op::Stats => b"stats\r\n".to_vec(),
        Op::Version => b"version\r\n".to_vec(),
        Op::Junk(i) => JUNK[*i].0.to_vec(),
    }
}

/// The cache as the client should see it, with the counters the `stats`
/// reply shows.
#[derive(Default)]
struct Model {
    items: HashMap<String, (u32, Vec<u8>)>,
    hits: u64,
    misses: u64,
}

impl Model {
    /// Appends the exact reply `engine_name`'s server owes `op`.
    fn reply(&mut self, op: &Op, engine_name: &str, out: &mut Vec<u8>) {
        match op {
            Op::Get(keys) => {
                for key in keys {
                    match self.items.get(key) {
                        Some((flags, data)) => {
                            self.hits += 1;
                            out.extend_from_slice(
                                format!("VALUE {key} {flags} {}\r\n", data.len()).as_bytes(),
                            );
                            out.extend_from_slice(data);
                            out.extend_from_slice(b"\r\n");
                        }
                        None => self.misses += 1,
                    }
                }
                out.extend_from_slice(b"END\r\n");
            }
            Op::Set {
                key,
                flags,
                data,
                noreply,
                ..
            } => {
                self.items.insert(key.clone(), (*flags, data.clone()));
                if !noreply {
                    out.extend_from_slice(b"STORED\r\n");
                }
            }
            Op::Delete { key, noreply } => {
                let present = self.items.remove(key).is_some();
                if !noreply {
                    out.extend_from_slice(if present {
                        b"DELETED\r\n"
                    } else {
                        b"NOT_FOUND\r\n"
                    });
                }
            }
            Op::Stats => out.extend_from_slice(
                format!(
                    "STAT engine {engine_name}\r\nSTAT curr_items {}\r\nSTAT get_hits {}\r\n\
                     STAT get_misses {}\r\nSTAT evictions 0\r\nEND\r\n",
                    self.items.len(),
                    self.hits,
                    self.misses
                )
                .as_bytes(),
            ),
            Op::Version => out.extend_from_slice(VERSION_REPLY),
            Op::Junk(i) => out.extend_from_slice(JUNK[*i].1),
        }
    }
}

fn expected(ops: &[Op], engine_name: &str) -> Vec<u8> {
    let mut model = Model::default();
    let mut out = Vec::new();
    for op in ops {
        model.reply(op, engine_name, &mut out);
    }
    out
}

/// Serves `chunks`, one read each, the way both servers do: the decoder
/// steps over a caller-owned input buffer, each request runs through
/// [`execute_ref`] while it still borrows that buffer, each rejection is
/// answered with its `CLIENT_ERROR`, and `quit` ends the session. Returns
/// every reply byte.
fn serve<'c>(engine: &dyn CacheEngine, chunks: impl IntoIterator<Item = &'c [u8]>) -> Vec<u8> {
    let mut decoder = RefDecoder::new();
    let mut ctx = EngineReadCtx::ebr();
    let mut input: Vec<u8> = Vec::with_capacity(64);
    let mut out = Vec::new();
    for chunk in chunks {
        input.extend_from_slice(chunk);
        let mut offset = 0;
        loop {
            let (used, step) = decoder.step(&input[offset..]);
            offset += used;
            match step {
                Decoded::Request(request) => {
                    if execute_ref(engine, &request, &mut ctx, &mut out) {
                        return out;
                    }
                }
                Decoded::Bad(error) => error.write_wire(&mut out),
                Decoded::NeedMore => break,
            }
        }
        input.drain(..offset);
    }
    out
}

/// Both engines, fresh; small enough that nothing is evicted.
fn engines() -> [Box<dyn CacheEngine>; 2] {
    [
        Box::new(LockEngine::with_capacity(64)),
        Box::new(RpEngine::with_capacity(64)),
    ]
}

/// Few distinct keys, so GETs hit and DELETEs find what SETs stored.
fn key_strategy() -> impl Strategy<Value = String> {
    "[ab]{1,2}"
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => proptest::collection::vec(key_strategy(), 1..4).prop_map(Op::Get),
        3 => (
            key_strategy(),
            any::<u32>(),
            0_u64..100_000,
            proptest::collection::vec(any::<u8>(), 0..128),
            any::<bool>()
        )
            .prop_map(|(key, flags, exptime, data, noreply)| Op::Set {
                key,
                flags,
                exptime,
                data,
                noreply,
            }),
        2 => (key_strategy(), any::<bool>()).prop_map(|(key, noreply)| Op::Delete { key, noreply }),
        1 => Just(Op::Stats),
        1 => Just(Op::Version),
        2 => (0..JUNK.len()).prop_map(Op::Junk),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn replies_match_the_model_at_every_split(ops in proptest::collection::vec(op_strategy(), 1..6)) {
        let stream: Vec<u8> = ops.iter().flat_map(encode).collect();
        // Every two-chunk split: mid-verb, mid-CRLF, mid-data-block, …
        for split in 0..=stream.len() {
            for engine in engines() {
                let want = expected(&ops, engine.name());
                let got = serve(&*engine, [&stream[..split], &stream[split..]]);
                prop_assert_eq!(
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(&want),
                    "engine {} split at byte {}",
                    engine.name(),
                    split
                );
            }
        }
    }

    #[test]
    fn replies_match_the_model_at_arbitrary_chunkings(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        size in 1_usize..64
    ) {
        let stream: Vec<u8> = ops.iter().flat_map(encode).collect();
        for engine in engines() {
            let want = expected(&ops, engine.name());
            let got = serve(&*engine, stream.chunks(size));
            prop_assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want),
                "engine {} in chunks of {}",
                engine.name(),
                size
            );
        }
    }

    #[test]
    fn arbitrary_junk_never_panics_or_depends_on_chunking(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..12)
    ) {
        let whole = chunks.concat();
        for (chunked, at_once) in engines().into_iter().zip(engines()) {
            let got = serve(&*chunked, chunks.iter().map(Vec::as_slice));
            let want = serve(&*at_once, [&whole[..]]);
            prop_assert_eq!(got, want, "engine {}", chunked.name());
        }
    }
}

#[test]
fn oversized_requests_get_their_exact_replies() {
    for engine in engines() {
        // A line past MAX_LINE is rejected once it outgrows the limit
        // unterminated, skipped up to its CRLF, and the stream recovers.
        let long_line = vec![b'x'; MAX_LINE + 1];
        let mut chunks: Vec<&[u8]> = long_line.chunks(4096).collect();
        chunks.push(b"\r\nversion\r\n");
        let mut want = b"CLIENT_ERROR command line exceeds the 8 KiB line limit\r\n".to_vec();
        want.extend_from_slice(VERSION_REPLY);
        assert_eq!(serve(&*engine, chunks), want, "{}", engine.name());

        // A frame past MAX_FRAME is rejected as soon as its line arrives.
        let line = format!("set big 0 0 {}\r\n", MAX_FRAME + 1);
        assert_eq!(
            serve(&*engine, [line.as_bytes()]),
            b"CLIENT_ERROR object larger than the 16 MiB frame limit\r\n",
            "{}",
            engine.name()
        );

        // A byte count that would overflow the frame arithmetic.
        assert_eq!(serve(&*engine, [ABSURD_SET.0]), ABSURD_SET.1);

        // An item over the engine's 1 MiB item limit parses but is not
        // stored, and then misses.
        let data = vec![b'v'; (1 << 20) + 1];
        let mut set = format!("set huge 0 0 {}\r\n", data.len()).into_bytes();
        set.extend_from_slice(&data);
        set.extend_from_slice(b"\r\nget huge\r\nquit\r\nversion\r\n");
        assert_eq!(
            serve(&*engine, [&set[..]]),
            b"NOT_STORED\r\nEND\r\n",
            "{}: quit ends the session before version",
            engine.name()
        );
    }
}
