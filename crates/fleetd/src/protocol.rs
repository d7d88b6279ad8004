//! The coordinator/worker wire protocol: length-prefixed NDJSON frames.
//!
//! Every message on the wire is one **frame**: a 4-byte big-endian length
//! prefix followed by exactly that many payload bytes — the compact JSON
//! serialization of a [`Message`] terminated by `\n` (so a captured stream
//! with the prefixes stripped is valid NDJSON). The prefix lets the reader
//! reject oversized or truncated frames *before* parsing, and the decoder
//! maps every malformed input to a typed [`FrameError`] — never a panic —
//! because a byte stream from the network is attacker-shaped by
//! definition.
//!
//! Reads are **idle-aware**: sockets run with a short read timeout, and a
//! timeout before the first byte of a frame returns `Ok(None)` (nothing
//! arrived — go check your own shutdown flags) while a timeout *inside* a
//! frame, after [`MID_FRAME_GRACE`], is a [`FrameError::Truncated`] hard
//! error (the peer stalled mid-sentence).

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Protocol revision, exchanged in `Hello`. A coordinator drops workers
/// that speak a different revision rather than guessing.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard upper bound on a frame's payload length. Reports are a few KiB;
/// anything claiming more than this is a corrupt or hostile prefix and is
/// rejected without allocating.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// How long a reader waits for the *rest* of a frame once its first byte
/// arrived, absorbing short socket read-timeouts in between.
pub const MID_FRAME_GRACE: Duration = Duration::from_secs(10);

/// One protocol message. Workers pull: the coordinator only ever answers.
///
/// Scenario payloads travel as their **canonical JSON key string** (the
/// exact bytes the `.wsnem-cache/` digest is computed over), so a worker
/// can verify the shard digest byte-for-byte and answer from its own warm
/// cache; reports travel as their serialized JSON so the coordinator
/// ingests them verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Worker → coordinator, once per connection: identify and version-check.
    Hello {
        /// Worker's self-chosen name (diagnostics only).
        worker: String,
        /// The [`PROTOCOL_VERSION`] the worker speaks.
        protocol: u32,
    },
    /// Coordinator → worker, answering `Hello`.
    Welcome {
        /// Shards in this fleet (cache hits excluded).
        shards: u64,
        /// Per-scenario wall-clock watchdog the coordinator wants workers
        /// to apply, in milliseconds (`--scenario-timeout`).
        timeout_ms: Option<u64>,
    },
    /// Worker → coordinator: give me a shard.
    Request {
        /// Worker name (diagnostics only).
        worker: String,
    },
    /// Coordinator → worker: run this shard.
    Assign {
        /// Content-hash digest the result must be filed under.
        digest: String,
        /// Canonical scenario JSON (the digest's preimage).
        scenario: String,
    },
    /// Coordinator → worker: nothing assignable right now (everything is
    /// leased out), ask again after `retry_ms`.
    NoWork {
        /// Suggested retry delay in milliseconds.
        retry_ms: u64,
    },
    /// Coordinator → worker: the fleet is complete, disconnect.
    Done,
    /// Worker → coordinator: a finished shard.
    Result {
        /// Digest from the `Assign` this answers.
        digest: String,
        /// Serialized `ScenarioReport` JSON.
        report: String,
    },
    /// Worker → coordinator: the shard failed (the fleet records the error
    /// and moves on; failures are per-point, never fatal to the batch).
    Failed {
        /// Digest from the `Assign` this answers.
        digest: String,
        /// Rendered error message.
        error: String,
        /// Set when the failure was the per-scenario watchdog firing, with
        /// the budget that was exceeded.
        timeout_seconds: Option<f64>,
    },
    /// Worker → coordinator: liveness beacon, also sent while a shard is
    /// computing so slow-but-alive work keeps its lease.
    Heartbeat {
        /// Worker name (diagnostics only).
        worker: String,
    },
}

/// Typed decode/transport failures. Malformed network input must land
/// here — never in a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// A length prefix claimed more than [`MAX_FRAME_LEN`] bytes.
    TooLarge {
        /// Claimed payload length.
        len: u32,
        /// The configured maximum.
        max: u32,
    },
    /// The stream ended (or stalled past [`MID_FRAME_GRACE`]) inside a
    /// frame.
    Truncated {
        /// Bytes the frame section needed.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The payload was not a valid UTF-8 JSON [`Message`] (nesting deeper
    /// than [`serde_json::MAX_DEPTH`] included).
    Corrupt(String),
    /// An underlying transport error.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            FrameError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode a message into one complete frame (prefix + payload bytes).
pub fn encode_message(msg: &Message) -> Result<Vec<u8>, FrameError> {
    let mut payload = serde_json::to_string(msg).map_err(|e| FrameError::Corrupt(e.to_string()))?;
    payload.push('\n');
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(FrameError::TooLarge {
            len: payload.len() as u32,
            max: MAX_FRAME_LEN,
        });
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    Ok(frame)
}

/// Write one message as a frame and flush it.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<(), FrameError> {
    let frame = encode_message(msg)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| FrameError::Io(e.to_string()))
}

fn is_idle(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Read the rest of a section whose first `got` bytes are already in
/// `buf`, absorbing read-timeouts up to [`MID_FRAME_GRACE`].
fn read_remainder<R: Read>(r: &mut R, buf: &mut [u8], mut got: usize) -> Result<(), FrameError> {
    let expected = buf.len();
    let deadline = Instant::now() + MID_FRAME_GRACE;
    while got < expected {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(FrameError::Truncated { expected, got }),
            Ok(n) => got += n,
            Err(e) if is_idle(&e) => {
                if Instant::now() >= deadline {
                    return Err(FrameError::Truncated { expected, got });
                }
            }
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Read one message frame.
///
/// `Ok(None)` means *idle*: the socket's read timeout expired before any
/// byte of a frame arrived — the caller should check its shutdown flags
/// and call again. Once a frame has started, the peer gets
/// [`MID_FRAME_GRACE`] to finish it; a stall or EOF inside the frame is
/// [`FrameError::Truncated`], a clean EOF between frames is
/// [`FrameError::Closed`].
pub fn read_message<R: Read>(r: &mut R) -> Result<Option<Message>, FrameError> {
    let mut prefix = [0u8; 4];
    // The first byte decides between idle, clean close and a frame start.
    let got = match r.read(&mut prefix[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) => n,
        Err(e) if is_idle(&e) => return Ok(None),
        Err(e) => return Err(FrameError::Io(e.to_string())),
    };
    read_remainder(r, &mut prefix, got)?;
    let len = u32::from_be_bytes(prefix);
    if len == 0 {
        return Err(FrameError::Corrupt("zero-length frame".into()));
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_remainder(r, &mut payload, 0)?;
    decode_payload(&payload).map(Some)
}

/// Decode a frame payload (everything after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Message, FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::Corrupt(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str::<Message>(text.trim_end_matches('\n'))
        .map_err(|e| FrameError::Corrupt(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let msgs = vec![
            Message::Hello {
                worker: "w1".into(),
                protocol: PROTOCOL_VERSION,
            },
            Message::Welcome {
                shards: 24,
                timeout_ms: Some(5000),
            },
            Message::Done,
            Message::NoWork { retry_ms: 200 },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_message(&mut wire, m).unwrap();
        }
        let mut r = Cursor::new(wire);
        for m in &msgs {
            assert_eq!(read_message(&mut r).unwrap().unwrap(), *m);
        }
        assert_eq!(read_message(&mut r).unwrap_err(), FrameError::Closed);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"whatever");
        let err = read_message(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { len, .. } if len == u32::MAX));
    }

    #[test]
    fn truncated_and_corrupt_frames_are_typed_errors() {
        // Frame cut inside the payload.
        let full = encode_message(&Message::Done).unwrap();
        let cut = &full[..full.len() - 2];
        let err = read_message(&mut Cursor::new(cut.to_vec())).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{err}");

        // Valid prefix, garbage payload.
        let mut wire = 7u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"garbage");
        let err = read_message(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)), "{err}");

        // Zero-length frame.
        let err = read_message(&mut Cursor::new(0u32.to_be_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)), "{err}");
    }
}
