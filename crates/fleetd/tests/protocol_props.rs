//! Frame-codec property battery: seeded round-trips, length-prefix
//! bounds, truncation at every cut point, byte-flip corruption, raw fuzz
//! and deep nesting — the decoder must answer every input with a typed
//! [`FrameError`], never a panic, and a live coordinator must survive it.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants

use std::io::{Cursor, Write};
use std::net::TcpStream;

use wsnem_fleetd::protocol::{
    decode_payload, encode_message, read_message, write_message, FrameError, Message,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use wsnem_fleetd::{run_worker, Coordinator, ServeOptions, WorkerOptions};
use wsnem_scenario::{builtin, BackendId, CacheMode, ResultCache, Scenario};
use wsnem_stats::rng::{Rng64, Xoshiro256PlusPlus};

fn rand_string(rng: &mut Xoshiro256PlusPlus, max_len: u64) -> String {
    let len = rng.next_bounded(max_len + 1) as usize;
    (0..len)
        .map(|_| {
            // Mix ASCII with characters that need JSON escaping.
            match rng.next_bounded(6) {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\u{00e9}',
                _ => (b'a' + rng.next_bounded(26) as u8) as char,
            }
        })
        .collect()
}

fn rand_message(rng: &mut Xoshiro256PlusPlus) -> Message {
    match rng.next_bounded(9) {
        0 => Message::Hello {
            worker: rand_string(rng, 40),
            protocol: rng.next_u64() as u32,
        },
        1 => Message::Welcome {
            shards: rng.next_u64() % 10_000,
            timeout_ms: if rng.next_bounded(2) == 0 {
                None
            } else {
                Some(rng.next_u64() % 1_000_000)
            },
        },
        2 => Message::Request {
            worker: rand_string(rng, 40),
        },
        3 => Message::Assign {
            digest: rand_string(rng, 64),
            scenario: rand_string(rng, 4000),
        },
        4 => Message::NoWork {
            retry_ms: rng.next_u64() % 60_000,
        },
        5 => Message::Done,
        6 => Message::Result {
            digest: rand_string(rng, 64),
            report: rand_string(rng, 4000),
        },
        7 => Message::Failed {
            digest: rand_string(rng, 64),
            error: rand_string(rng, 200),
            timeout_seconds: if rng.next_bounded(2) == 0 {
                None
            } else {
                Some(rng.next_f64() * 1000.0)
            },
        },
        _ => Message::Heartbeat {
            worker: rand_string(rng, 40),
        },
    }
}

#[test]
fn seeded_round_trip_battery() {
    let mut rng = Xoshiro256PlusPlus::new(0xF1EE7D);
    for round in 0..500 {
        let msg = rand_message(&mut rng);
        let frame = encode_message(&msg).unwrap();
        // Prefix accounts for exactly the payload bytes, which end in \n.
        let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        assert_eq!(len, frame.len() - 4, "round {round}");
        assert!(len <= MAX_FRAME_LEN as usize);
        assert_eq!(frame[frame.len() - 1], b'\n', "NDJSON-compatible payload");
        let back = read_message(&mut Cursor::new(frame)).unwrap().unwrap();
        assert_eq!(back, msg, "round {round}");
    }
}

#[test]
fn streams_of_many_frames_decode_in_order() {
    let mut rng = Xoshiro256PlusPlus::new(42);
    let msgs: Vec<Message> = (0..64).map(|_| rand_message(&mut rng)).collect();
    let mut wire = Vec::new();
    for m in &msgs {
        write_message(&mut wire, m).unwrap();
    }
    let mut r = Cursor::new(wire);
    for (i, m) in msgs.iter().enumerate() {
        assert_eq!(read_message(&mut r).unwrap().as_ref(), Some(m), "frame {i}");
    }
    assert_eq!(read_message(&mut r).unwrap_err(), FrameError::Closed);
}

#[test]
fn length_prefix_bounds_are_enforced() {
    // One past the limit: rejected before any payload is read.
    let mut wire = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
    wire.extend_from_slice(b"x");
    assert!(matches!(
        read_message(&mut Cursor::new(wire)).unwrap_err(),
        FrameError::TooLarge { len, max } if len == MAX_FRAME_LEN + 1 && max == MAX_FRAME_LEN
    ));
    // Exactly at the limit with a short stream: Truncated, not TooLarge.
    let wire = MAX_FRAME_LEN.to_be_bytes().to_vec();
    assert!(matches!(
        read_message(&mut Cursor::new(wire)).unwrap_err(),
        FrameError::Truncated { .. }
    ));
    // Zero length: corrupt.
    assert!(matches!(
        read_message(&mut Cursor::new(0u32.to_be_bytes().to_vec())).unwrap_err(),
        FrameError::Corrupt(_)
    ));
    // Encoding an over-limit message is refused symmetrically.
    let huge = Message::Result {
        digest: "d".into(),
        report: "r".repeat(MAX_FRAME_LEN as usize),
    };
    assert!(matches!(
        encode_message(&huge).unwrap_err(),
        FrameError::TooLarge { .. }
    ));
}

#[test]
fn truncation_at_every_cut_point_is_a_typed_error() {
    let frame = encode_message(&Message::Hello {
        worker: "truncate-me".into(),
        protocol: PROTOCOL_VERSION,
    })
    .unwrap();
    for cut in 0..frame.len() {
        let err = read_message(&mut Cursor::new(frame[..cut].to_vec())).unwrap_err();
        if cut == 0 {
            assert_eq!(err, FrameError::Closed, "cut {cut}");
        } else {
            assert!(
                matches!(err, FrameError::Truncated { expected, got } if got < expected),
                "cut {cut}: {err}"
            );
        }
    }
}

#[test]
fn byte_flip_corruption_never_panics() {
    let mut rng = Xoshiro256PlusPlus::new(7);
    let frame = encode_message(&Message::Assign {
        digest: "abc123".into(),
        scenario: "{\"name\":\"x\"}".into(),
    })
    .unwrap();
    for i in 0..frame.len() {
        for _ in 0..4 {
            let mut mutated = frame.clone();
            mutated[i] ^= (1 + rng.next_bounded(255)) as u8;
            // Any typed outcome is acceptable; a panic is the only failure.
            let _ = read_message(&mut Cursor::new(mutated));
        }
    }
}

#[test]
fn raw_fuzz_blobs_never_panic() {
    let mut rng = Xoshiro256PlusPlus::new(0xDEAD);
    for _ in 0..2000 {
        let len = rng.next_bounded(256) as usize;
        let blob: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = read_message(&mut Cursor::new(blob.clone()));
        let _ = decode_payload(&blob);
    }
    // Non-UTF-8 payload is Corrupt, specifically.
    assert!(matches!(
        decode_payload(&[0xff, 0xfe, 0x00]),
        Err(FrameError::Corrupt(_))
    ));
}

/// A length-valid frame whose payload is `depth` nested `[`.
fn nested_array_frame(depth: usize) -> Vec<u8> {
    let payload = format!("{}\n", "[".repeat(depth));
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload.as_bytes());
    frame
}

#[test]
fn deeply_nested_frames_are_corrupt_not_a_stack_overflow() {
    for depth in [serde_json::MAX_DEPTH + 1, 200_000] {
        let frame = nested_array_frame(depth);
        assert!(frame.len() - 4 <= MAX_FRAME_LEN as usize);
        let err = read_message(&mut Cursor::new(frame.clone())).unwrap_err();
        assert!(
            matches!(&err, FrameError::Corrupt(m) if m.contains("nest deeper than")),
            "{err}"
        );
        assert!(matches!(
            decode_payload(&frame[4..]),
            Err(FrameError::Corrupt(_))
        ));
    }
}

#[test]
fn coordinator_rejects_a_nested_array_frame_and_keeps_serving() {
    let scenarios: Vec<Scenario> = (0..2)
        .map(|i| {
            let mut s = builtin::paper_defaults();
            s.name = format!("nest-{i}");
            s.backends = vec![BackendId::Markov];
            s.cpu = s.cpu.with_lambda(0.3 + 0.1 * i as f64);
            s
        })
        .collect();
    let caches: Vec<Option<&ResultCache>> = vec![None, None];
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    };
    let coord = Coordinator::bind(&scenarios, &caches, CacheMode::Disabled, opts).unwrap();
    let addr = coord.local_addr().unwrap();
    let outcome = std::thread::scope(|scope| {
        let run = scope.spawn(|| coord.run(None).unwrap());
        // ~200 KB of `[` under a valid length prefix: the coordinator must
        // count it and drop only this connection.
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.write_all(&nested_array_frame(200_000)).unwrap();
        assert!(matches!(
            read_message(&mut hostile),
            Err(FrameError::Closed) | Err(FrameError::Io(_))
        ));
        // A well-behaved worker still completes the fleet.
        let worker = WorkerOptions {
            name: "after-nest".into(),
            heartbeat_ms: 100,
            ..WorkerOptions::default()
        };
        let summary = run_worker(&addr.to_string(), worker).unwrap();
        assert_eq!(summary.shards_done, 2);
        run.join().unwrap()
    });
    assert_eq!(outcome.dist.rejected_frames, 1);
    assert_eq!(outcome.dist.shards_remote, 2);
    assert!(outcome.results.iter().all(|r| r.is_ok()));
}
