//! Property-based tests for the memcached text protocol: serialised
//! commands parse back to themselves regardless of how the byte stream is
//! chunked, and arbitrary junk never panics the parser.

use proptest::prelude::*;

use rp_kvcache::protocol::{
    parse_request_ref, Decoded, RefDecoder, RefOutcome, RequestRef, StatsSub,
};

/// An owned snapshot of a request, so decoded requests can be compared
/// after the buffer they borrowed from has moved on.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cmd {
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
    StatsProm(StatsSub),
    Version,
    Quit,
}

fn owned_key(key: &[u8]) -> String {
    String::from_utf8(key.to_vec()).expect("parsed keys are valid UTF-8")
}

/// Copies a borrowed request into its [`Cmd`] snapshot.
fn snapshot(request: &RequestRef<'_>) -> Cmd {
    match *request {
        RequestRef::Get { key } => Cmd::Get(vec![owned_key(key)]),
        RequestRef::GetMulti(keys) => Cmd::Get(keys.iter().map(owned_key).collect()),
        RequestRef::Set {
            key,
            flags,
            exptime,
            data,
            noreply,
        } => Cmd::Set {
            key: owned_key(key),
            flags,
            exptime,
            data: data.to_vec(),
            noreply,
        },
        RequestRef::Delete { key, noreply } => Cmd::Delete {
            key: owned_key(key),
            noreply,
        },
        RequestRef::Stats => Cmd::Stats,
        RequestRef::StatsProm(sub) => Cmd::StatsProm(sub),
        RequestRef::Version => Cmd::Version,
        RequestRef::Quit => Cmd::Quit,
    }
}

fn key_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9:_-]{1,32}"
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

/// Renders a command back into wire format (the inverse of the parser).
fn encode(cmd: &Cmd) -> Vec<u8> {
    match cmd {
        Cmd::Get(keys) => format!("get {}\r\n", keys.join(" ")).into_bytes(),
        Cmd::Set {
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
        Cmd::Delete { key, noreply } => {
            format!("delete {key}{}\r\n", if *noreply { " noreply" } else { "" }).into_bytes()
        }
        Cmd::Stats => b"stats\r\n".to_vec(),
        Cmd::StatsProm(StatsSub::Render) => b"STATS\r\n".to_vec(),
        Cmd::StatsProm(StatsSub::Reset) => b"STATS RESET\r\n".to_vec(),
        Cmd::StatsProm(StatsSub::Trace(None)) => b"STATS TRACE\r\n".to_vec(),
        Cmd::StatsProm(StatsSub::Trace(Some(n))) => format!("STATS TRACE {n}\r\n").into_bytes(),
        Cmd::StatsProm(StatsSub::Slow) => b"STATS SLOW\r\n".to_vec(),
        Cmd::StatsProm(StatsSub::Json) => b"STATS JSON\r\n".to_vec(),
        Cmd::StatsProm(StatsSub::Worker(n)) => format!("STATS WORKER {n}\r\n").into_bytes(),
        Cmd::Version => b"version\r\n".to_vec(),
        Cmd::Quit => b"quit\r\n".to_vec(),
    }
}

fn command_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        proptest::collection::vec(key_strategy(), 1..4).prop_map(Cmd::Get),
        (
            key_strategy(),
            any::<u32>(),
            0_u64..100_000,
            value_strategy(),
            any::<bool>()
        )
            .prop_map(|(key, flags, exptime, data, noreply)| Cmd::Set {
                key,
                flags,
                exptime,
                data,
                noreply,
            }),
        (key_strategy(), any::<bool>()).prop_map(|(key, noreply)| Cmd::Delete { key, noreply }),
        Just(Cmd::Stats),
        Just(Cmd::StatsProm(StatsSub::Render)),
        Just(Cmd::StatsProm(StatsSub::Reset)),
        Just(Cmd::StatsProm(StatsSub::Trace(None))),
        any::<usize>().prop_map(|n| Cmd::StatsProm(StatsSub::Trace(Some(n)))),
        Just(Cmd::StatsProm(StatsSub::Slow)),
        Just(Cmd::StatsProm(StatsSub::Json)),
        any::<usize>().prop_map(|n| Cmd::StatsProm(StatsSub::Worker(n))),
        Just(Cmd::Version),
        Just(Cmd::Quit),
    ]
}

fn encode_all(cmds: &[Cmd]) -> Vec<u8> {
    cmds.iter().flat_map(encode).collect()
}

/// Feeds `chunks` one read at a time into a caller-owned input buffer, the
/// way both servers drive [`RefDecoder`]: step until it needs more, then
/// drain the consumed prefix. Returns the snapshots of the decoded
/// requests, or the first rejection, plus the bytes left buffered.
fn decode_chunks<'c>(
    chunks: impl IntoIterator<Item = &'c [u8]>,
) -> (Result<Vec<Cmd>, String>, usize) {
    let mut decoder = RefDecoder::new();
    let mut input: Vec<u8> = Vec::with_capacity(64);
    let mut decoded = Vec::new();
    for chunk in chunks {
        input.extend_from_slice(chunk);
        let mut offset = 0;
        loop {
            let (used, step) = decoder.step(&input[offset..]);
            offset += used;
            match step {
                Decoded::Request(request) => decoded.push(snapshot(&request)),
                Decoded::Bad(error) => return (Err(error.message().to_string()), input.len()),
                Decoded::NeedMore => break,
            }
        }
        input.drain(..offset);
    }
    (Ok(decoded), input.len())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn encode_parse_round_trip(cmd in command_strategy()) {
        let wire = encode(&cmd);
        match parse_request_ref(&wire) {
            RefOutcome::Complete { request, consumed } => {
                prop_assert_eq!(snapshot(&request), cmd);
                prop_assert_eq!(consumed, wire.len());
            }
            other => prop_assert!(false, "expected Complete, got {:?}", other),
        }
    }

    #[test]
    fn parsing_is_chunking_independent(cmds in proptest::collection::vec(command_strategy(), 1..8), split in 1_usize..64) {
        // Concatenate several commands, feed the bytes in arbitrary chunk
        // sizes to the stateless parser, and check the same command
        // sequence comes out.
        let stream = encode_all(&cmds);
        let mut parsed = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        for chunk in stream.chunks(split) {
            buf.extend_from_slice(chunk);
            loop {
                match parse_request_ref(&buf) {
                    RefOutcome::Complete { request, consumed } => {
                        parsed.push(snapshot(&request));
                        buf.drain(..consumed);
                    }
                    RefOutcome::Incomplete => break,
                    RefOutcome::Invalid { error, .. } => {
                        prop_assert!(false, "valid stream parsed as invalid: {}", error.message());
                    }
                }
            }
        }
        prop_assert_eq!(parsed, cmds);
        prop_assert!(buf.is_empty(), "unconsumed trailing bytes");
    }

    #[test]
    fn decoder_handles_one_byte_at_a_time(cmds in proptest::collection::vec(command_strategy(), 1..6)) {
        // The strictest chunking there is: every read(2) delivers a single
        // byte. The decoder must produce the identical command sequence and
        // never report a valid stream as invalid.
        let stream = encode_all(&cmds);
        let (decoded, buffered) = decode_chunks(stream.chunks(1));
        prop_assert_eq!(decoded, Ok(cmds));
        prop_assert_eq!(buffered, 0, "unconsumed trailing bytes");
    }

    #[test]
    fn decoder_handles_a_split_at_every_boundary(cmds in proptest::collection::vec(command_strategy(), 1..4)) {
        // For a stream of N bytes, try all N+1 two-chunk splits — including
        // splits inside a verb, inside a length field, between '\r' and
        // '\n', and inside a set data block.
        let stream = encode_all(&cmds);
        for split in 0..=stream.len() {
            let (decoded, buffered) = decode_chunks([&stream[..split], &stream[split..]]);
            prop_assert_eq!(&decoded, &Ok(cmds.clone()), "split at byte {}", split);
            prop_assert_eq!(buffered, 0);
        }
    }

    #[test]
    fn arbitrary_chunks_never_panic_the_decoder(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..16)
    ) {
        // Junk streams may be rejected, but the decoder must neither panic,
        // claim more bytes than it was shown, nor leave the caller holding
        // more than it was fed.
        let mut decoder = RefDecoder::new();
        let mut input: Vec<u8> = Vec::with_capacity(64);
        let mut total = 0_usize;
        for chunk in &chunks {
            total += chunk.len();
            input.extend_from_slice(chunk);
            let mut offset = 0;
            loop {
                let (used, step) = decoder.step(&input[offset..]);
                prop_assert!(used <= input.len() - offset);
                offset += used;
                if step == Decoded::NeedMore {
                    break;
                }
            }
            input.drain(..offset);
            prop_assert!(input.len() <= total);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Whatever happens, the parser must not panic and must not claim to
        // have consumed more bytes than it was given.
        match parse_request_ref(&junk) {
            RefOutcome::Complete { consumed, .. } | RefOutcome::Invalid { consumed, .. } => {
                prop_assert!(consumed <= junk.len());
            }
            RefOutcome::Incomplete => {}
        }
    }
}
