//! Fuzzing the wire protocol: the frame decoder and the message parsers
//! face untrusted testers over TCP, so whatever bytes arrive — truncated
//! frames, invalid UTF-8, oversized length prefixes, interleaved partial
//! writes, chaos-garbled frames — the outcome must be a decoded frame or
//! a typed [`ProtoError`], never a panic and never an unbounded buffer
//! (the style of `crates/tdf/tests/log_fuzz.rs`, one protocol layer up).

use std::net::TcpStream;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use m3d_netlist::generate::Benchmark;
use m3d_resilient::chaos::ChaosSchedule;
use m3d_serve::proto::{
    encode_frame, read_frame, write_frame, Decoder, ProtoError, Request, Response, MAX_FRAME_LEN,
    MAX_PREFIX_DIGITS,
};
use m3d_serve::{spawn_server, BundleSource, BundleSpec, ServeConfig};

/// Drains a decoder: frames decoded so far plus the terminal error, if any.
fn drain(dec: &mut Decoder) -> (Vec<String>, Option<ProtoError>) {
    let mut out = Vec::new();
    loop {
        match dec.next_frame() {
            Ok(Some(f)) => out.push(f),
            Ok(None) => return (out, None),
            Err(e) => return (out, Some(e)),
        }
    }
}

/// Maps fuzz bytes into a printable-ASCII payload string (the vendored
/// proptest has no regex string strategies).
fn printable(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (0x20 + b % 0x5f) as char).collect()
}

/// Maps fuzz code points into a hostile string: the full char space,
/// control characters, quotes, and backslashes included.
fn hostile(points: &[u32]) -> String {
    points
        .iter()
        .map(|&p| char::from_u32(p % 0x11_0000).unwrap_or('\u{fffd}'))
        .collect()
}

/// Feeds `bytes` split at the given cut points (any interleaving of
/// partial writes) and drains after every push.
fn decode_split(bytes: &[u8], cuts: &[usize]) -> (Vec<String>, Option<ProtoError>) {
    let mut dec = Decoder::new();
    let mut frames = Vec::new();
    let mut start = 0;
    let mut cut_points: Vec<usize> = cuts.iter().map(|&c| c % (bytes.len() + 1)).collect();
    cut_points.sort_unstable();
    cut_points.push(bytes.len());
    for end in cut_points {
        if end > start {
            dec.push(&bytes[start..end]);
            start = end;
        }
        let (got, err) = drain(&mut dec);
        frames.extend(got);
        if let Some(e) = err {
            return (frames, Some(e));
        }
    }
    (frames, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Raw fuzz: arbitrary bytes never panic the decoder; any failure is a
    /// typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = Decoder::new();
        dec.push(&bytes);
        let _ = drain(&mut dec);
    }

    /// Interleaved partial writes decode identically to one contiguous
    /// write — the decoder is a pure function of the byte sequence, not of
    /// the TCP segmentation.
    #[test]
    fn any_split_schedule_decodes_identically(
        raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..6),
        cuts in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        let payloads: Vec<String> = raw.iter().map(|b| printable(b)).collect();
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let whole = decode_split(&stream, &[]);
        let split = decode_split(&stream, &cuts);
        prop_assert_eq!(&whole.0, &payloads);
        prop_assert!(whole.1.is_none());
        prop_assert_eq!(split, whole);
    }

    /// A truncated valid stream never errors mid-prefix spuriously: it
    /// decodes every complete frame and then waits for more bytes.
    #[test]
    fn truncation_is_need_more_bytes_not_an_error(
        raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..5),
        keep_permille in 0u64..1000,
    ) {
        let payloads: Vec<String> = raw.iter().map(|b| printable(b)).collect();
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let keep = (stream.len() as u64 * keep_permille / 1000) as usize;
        let (frames, err) = decode_split(&stream[..keep], &[]);
        prop_assert!(err.is_none(), "valid prefix must not error: {err:?}");
        prop_assert!(frames.len() <= payloads.len());
        for (got, want) in frames.iter().zip(&payloads) {
            prop_assert_eq!(got, want);
        }
    }

    /// Oversized length declarations are rejected as typed errors BEFORE
    /// any payload is buffered, whatever garbage follows.
    #[test]
    fn oversized_prefixes_are_rejected_up_front(
        extra in 1u64..1_000_000,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let len = MAX_FRAME_LEN as u64 + extra;
        let mut bytes = format!("{len}\n").into_bytes();
        bytes.extend_from_slice(&tail);
        let (frames, err) = decode_split(&bytes, &[]);
        prop_assert!(frames.is_empty());
        // Longer-than-the-prefix-budget declarations trip the digit cap
        // instead; either way the verdict is typed and immediate.
        prop_assert!(
            matches!(
                err,
                Some(ProtoError::Oversized { .. }) | Some(ProtoError::BadLengthPrefix { .. })
            ),
            "{err:?}"
        );
    }

    /// A prefix that never terminates cannot buffer unboundedly: after
    /// MAX_PREFIX_DIGITS + 1 bytes without a newline the decoder gives a
    /// typed verdict.
    #[test]
    fn runaway_prefixes_are_bounded(digits in prop::collection::vec(0u8..10, 0..64)) {
        let bytes: Vec<u8> = digits.iter().map(|d| b'0' + d).collect();
        let mut dec = Decoder::new();
        dec.push(&bytes);
        let (_, err) = drain(&mut dec);
        if bytes.len() > MAX_PREFIX_DIGITS {
            prop_assert!(matches!(err, Some(ProtoError::BadLengthPrefix { .. })), "{err:?}");
        } else {
            prop_assert!(err.is_none(), "short prefixes just wait: {err:?}");
        }
    }

    /// Invalid UTF-8 payloads are a typed error, not a panic or a lossy
    /// decode.
    #[test]
    fn invalid_utf8_is_typed(payload in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut payload = payload;
        payload[0] = 0xff; // guarantee invalid UTF-8
        let mut bytes = format!("{}\n", payload.len()).into_bytes();
        bytes.extend_from_slice(&payload);
        bytes.push(b'\n');
        let (frames, err) = decode_split(&bytes, &[]);
        prop_assert!(frames.is_empty());
        prop_assert_eq!(err, Some(ProtoError::InvalidUtf8));
    }
}

// Split into a second block: the vendored proptest macro recurses per
// test, and one block with all nine overruns the default recursion limit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Chaos-garbled well-formed frames (the same injector the load
    /// harness uses) either still decode or fail typed; the decoder stays
    /// poisoned afterwards instead of resyncing on garbage.
    #[test]
    fn garbled_frames_fail_typed_and_poison(seed in 0u64..4096) {
        let mut frame = encode_frame(&Request::Diagnose {
            id: seed,
            log: "# m3d-faillog v1\nfail pattern 3 flop 2\n".into(),
            deadline_ms: Some(100),
            no_enhance: false,
        }.encode());
        let mut schedule = ChaosSchedule::new(seed);
        schedule.garble(&mut frame);
        let mut dec = Decoder::new();
        dec.push(&frame);
        let (frames, err) = drain(&mut dec);
        for f in frames {
            // Framing survived the corruption; the payload may still be
            // JSON-garbled — that too must be a typed verdict.
            let _ = Request::parse(&f);
        }
        if err.is_some() {
            dec.push(&encode_frame("{\"type\":\"ping\",\"id\":1}"));
            let (after, again) = drain(&mut dec);
            prop_assert!(after.is_empty() && again.is_some(), "poisoned decoders must not resync");
        }
    }

    /// Arbitrary JSON-ish text through the message parsers: never a
    /// panic, and every rejection is a typed error.
    #[test]
    fn message_parsers_never_panic(raw in prop::collection::vec(any::<u8>(), 0..120)) {
        let line = printable(&raw);
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    /// Well-formed requests round-trip byte-exactly through the obs JSON
    /// codec, whatever the log text contains (quotes, backslashes,
    /// control characters included).
    #[test]
    fn requests_roundtrip_with_hostile_strings(
        id in any::<u32>(),
        points in prop::collection::vec(any::<u32>(), 0..80),
        has_deadline in any::<bool>(),
        deadline_ms in 0u64..100_000,
        no_enhance in any::<bool>(),
    ) {
        let req = Request::Diagnose {
            id: u64::from(id),
            log: hostile(&points),
            deadline_ms: has_deadline.then_some(deadline_ms),
            no_enhance,
        };
        prop_assert_eq!(Request::parse(&req.encode()).expect("own encoding"), req);
    }
}

/// A `Diagnose` frame just under [`MAX_FRAME_LEN`] is a legal frame, and
/// it round-trips through `encode` and `Request::parse` with an identical
/// log in well under a second: string parsing is linear in the frame's
/// length (about 12 ms in a debug build). A parser that re-reads the rest
/// of the frame for each character takes ~20 s on it in a release build.
#[test]
fn a_maximum_size_frame_parses_in_linear_time() {
    let header = "# m3d-faillog v1\n# lot \"Ω-7\"\tbin \\3 ✓\n";
    let request = |log: String| Request::Diagnose {
        id: u64::from(u32::MAX),
        log,
        deadline_ms: Some(250),
        no_enhance: false,
    };
    // Each entry is plain ASCII but for its newline, which encodes as two
    // bytes, so it adds one byte more than its length to the frame.
    let mut len = request(header.to_owned()).encode().len();
    let mut log = header.to_owned();
    for k in 0usize.. {
        let entry = format!("fail pattern {} flop {}\n", k % 640, k * 7 % 4096);
        if len + entry.len() + 1 > MAX_FRAME_LEN {
            break;
        }
        len += entry.len() + 1;
        log.push_str(&entry);
    }
    let req = request(log);

    let start = Instant::now();
    let line = req.encode();
    let mut dec = Decoder::new();
    dec.push(&encode_frame(&line));
    let frame = dec.next_frame().expect("a legal frame").expect("complete");
    let parsed = Request::parse(&frame).expect("own encoding");
    let elapsed = start.elapsed();

    assert_eq!(line.len(), len, "the size estimate is exact");
    assert!(
        len > MAX_FRAME_LEN - 64,
        "{len} bytes is not just under the cap"
    );
    assert_eq!(parsed, req, "the log must survive the round trip");
    assert!(
        elapsed < Duration::from_secs(1),
        "a {len}-byte frame took {elapsed:?} to encode and parse"
    );
}

/// A frame of 200,000 `[` bytes, a fifth of [`MAX_FRAME_LEN`], gets a
/// typed protocol error and the server keeps serving. A JSON parser that
/// recursed once per `[` without a cap would overflow the connection
/// thread's stack, which aborts the whole process.
#[test]
fn a_deeply_nested_frame_is_a_typed_error_not_a_crash() {
    let spec = BundleSpec {
        source: BundleSource::Generated {
            bench: Benchmark::Aes,
            target: Some(200),
        },
        enhance_samples: 0,
        ..BundleSpec::default()
    };
    let server = spawn_server(&spec, &ServeConfig::default()).expect("spawn");
    let call = |stream: &mut TcpStream, line: &str| {
        // Generous: a debug build may still be building artifacts.
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("timeout");
        write_frame(stream, line).expect("send");
        let reply = read_frame(stream, &mut Decoder::new())
            .expect("read frame")
            .expect("a reply before EOF");
        Response::parse(&reply).expect("a typed reply")
    };

    let mut hostile = TcpStream::connect(server.addr()).expect("connect");
    match call(&mut hostile, &"[".repeat(200_000)) {
        Response::Error {
            id: None,
            kind,
            message,
        } => {
            assert_eq!(kind, "protocol");
            assert!(
                message.starts_with("frame payload is not valid JSON: nesting deeper than"),
                "{message}"
            );
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }

    let mut fresh = TcpStream::connect(server.addr()).expect("connect");
    let pong = call(&mut fresh, &Request::Ping { id: 7 }.encode());
    assert!(matches!(pong, Response::Pong { id: 7, .. }), "{pong:?}");
    call(&mut fresh, &Request::Shutdown { id: 8 }.encode());
    server.join().expect("clean shutdown");
}
