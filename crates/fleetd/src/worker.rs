//! The worker: connect, pull shards, compute, stream results back —
//! and reconnect with exponential backoff + jitter when anything breaks.
//!
//! A worker is stateless between sessions: every reconnect starts clean
//! with `Hello`, and any shard it was holding when it died is reassigned
//! by the coordinator's lease machinery. An optional local
//! `.wsnem-cache/`-format directory lets a rejoining worker answer shards
//! it already computed instantly — the digest in `Assign` is the same
//! content hash the cache files under.
//!
//! # Shard slots
//!
//! One connection runs up to `threads` shards at once (default: all
//! cores, never more slots than the fleet has shards). The slots run on
//! [`wsnem_stats::par::map_indexed`] and share the socket: a slot holds
//! the read half only for one `Request` and its reply, and results go out
//! through the same write lock as heartbeats. With several slots each
//! shard's replications run on one thread, the batch runner's rule
//! ([`par::inner_threads`]); `--threads 1` leases one shard at a time and
//! fans its replications over every core. A kill, a lost connection or an
//! error in one slot shuts the socket down so the others stop at once.

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsnem_scenario::runner::run_scenario_bounded;
use wsnem_scenario::{store_or_warn, ResultCache, Scenario, ScenarioError};
use wsnem_stats::par;
use wsnem_stats::rng::{Rng64, Xoshiro256PlusPlus};
use wsnem_stats::StableHasher;

use crate::error::FleetdError;
use crate::fault::{write_garbage_frame, write_half_frame, Fault, FaultPlan, FaultPoint};
use crate::lock;
use crate::protocol::{read_message, write_message, FrameError, Message, PROTOCOL_VERSION};

/// Knobs for one worker process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Self-chosen name, shown in coordinator diagnostics and used to seed
    /// the backoff jitter (deterministic per name).
    pub name: String,
    /// Optional local result-cache directory (`.wsnem-cache` format); a
    /// rejoining worker answers already-computed shards from it.
    pub cache_dir: Option<PathBuf>,
    /// Scripted misbehavior for tests and drills.
    pub fault_plan: FaultPlan,
    /// Consecutive failed connection attempts before giving up.
    pub max_retries: u32,
    /// First reconnect delay in milliseconds (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Reconnect delay ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Heartbeat period in milliseconds.
    pub heartbeat_ms: u64,
    /// Local per-scenario watchdog override in seconds; when `None` the
    /// coordinator's `Welcome` timeout applies.
    pub timeout_seconds: Option<f64>,
    /// Shards computed at once over the one connection (`None` = all
    /// cores); see the [module docs](self).
    pub threads: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: format!("worker-{}", std::process::id()),
            cache_dir: None,
            fault_plan: FaultPlan::none(),
            max_retries: 10,
            backoff_base_ms: 100,
            backoff_cap_ms: 5000,
            heartbeat_ms: 1000,
            timeout_seconds: None,
            threads: None,
        }
    }
}

/// What one worker run amounted to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards whose results were sent (including cache answers).
    pub shards_done: u32,
    /// Shards answered from the local cache without computing.
    pub cache_hits: u32,
    /// Sessions re-established after a lost connection.
    pub reconnects: u32,
    /// Sessions opened in total.
    pub sessions: u32,
    /// True when a `kill-after` fault plan terminated the worker.
    pub killed: bool,
}

enum SessionEnd {
    /// The coordinator said `Done`: the fleet is complete.
    Done,
    /// A `kill-after` fault fired: simulate a crash, do not reconnect.
    Killed,
    /// The connection was lost (injected or real): reconnect with backoff.
    Lost,
}

/// Full jitter over an exponentially growing ceiling: uniform in
/// `[ceil/2, ceil]` where `ceil = min(base · 2^(attempt-1), cap)`. Seeded
/// per worker name, so test runs are reproducible.
fn backoff_delay(
    rng: &mut Xoshiro256PlusPlus,
    attempt: u32,
    base_ms: u64,
    cap_ms: u64,
) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    let ceil = base_ms.saturating_mul(1u64 << shift).min(cap_ms).max(1);
    let half = ceil / 2;
    let jitter = rng.next_bounded(ceil - half + 1);
    Duration::from_millis(half + jitter)
}

fn send(writer: &Mutex<TcpStream>, msg: &Message) -> Result<(), FleetdError> {
    write_message(&mut *lock(writer), msg).map_err(FleetdError::from)
}

/// Wait up to `wait` for the next frame, absorbing idle ticks.
fn read_reply(r: &mut TcpStream, wait: Duration) -> Result<Message, FleetdError> {
    let deadline = Instant::now() + wait;
    loop {
        match read_message(r)? {
            Some(m) => return Ok(m),
            None => {
                if Instant::now() >= deadline {
                    return Err(FleetdError::Io(
                        "timed out waiting for a coordinator reply".into(),
                    ));
                }
            }
        }
    }
}

/// Run a worker against `addr` until the coordinator says `Done`, a
/// `kill-after` fault fires, or the reconnect budget is exhausted. An
/// `addr` that does not resolve fails at once, before any connect.
pub fn run_worker(addr: &str, opts: WorkerOptions) -> Result<WorkerSummary, FleetdError> {
    let cache = match &opts.cache_dir {
        Some(dir) => {
            Some(ResultCache::open(dir.clone()).map_err(|e| FleetdError::Io(e.to_string()))?)
        }
        None => None,
    };
    let mut plan = opts.fault_plan.clone();
    let mut summary = WorkerSummary::default();
    let mut rng = Xoshiro256PlusPlus::new(StableHasher::hash_bytes(opts.name.as_bytes()) as u64);
    // Resolve once: a malformed address can never connect, so it fails
    // now, naming itself, instead of spending the retry budget.
    let targets: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| FleetdError::Io(format!("coordinator address `{addr}`: {e}")))?
        .collect();
    let mut attempt: u32 = 0;
    loop {
        let stream = match TcpStream::connect(&targets[..]) {
            Ok(s) => s,
            Err(e) => {
                attempt += 1;
                if attempt > opts.max_retries {
                    return Err(FleetdError::GaveUp {
                        attempts: attempt,
                        last: e.to_string(),
                    });
                }
                std::thread::sleep(backoff_delay(
                    &mut rng,
                    attempt,
                    opts.backoff_base_ms,
                    opts.backoff_cap_ms,
                ));
                continue;
            }
        };
        summary.sessions += 1;
        if summary.sessions > 1 {
            summary.reconnects += 1;
        }
        match session(stream, &opts, cache.as_ref(), &mut plan, &mut summary) {
            Ok(SessionEnd::Done) => return Ok(summary),
            Ok(SessionEnd::Killed) => {
                summary.killed = true;
                return Ok(summary);
            }
            Ok(SessionEnd::Lost) => {
                // The session was established before it broke: reset the
                // give-up counter, back off briefly, reconnect.
                attempt = 1;
                std::thread::sleep(backoff_delay(
                    &mut rng,
                    attempt,
                    opts.backoff_base_ms,
                    opts.backoff_cap_ms,
                ));
            }
            Err(e) => {
                attempt += 1;
                if attempt > opts.max_retries {
                    return Err(FleetdError::GaveUp {
                        attempts: attempt,
                        last: e.to_string(),
                    });
                }
                std::thread::sleep(backoff_delay(
                    &mut rng,
                    attempt,
                    opts.backoff_base_ms,
                    opts.backoff_cap_ms,
                ));
            }
        }
    }
}

/// One connection: `Hello`/`Welcome`, then the shard slots sharing the
/// socket, with a heartbeat thread writing through the shared socket lock.
fn session(
    mut reader: TcpStream,
    opts: &WorkerOptions,
    cache: Option<&ResultCache>,
    plan: &mut FaultPlan,
    summary: &mut WorkerSummary,
) -> Result<SessionEnd, FleetdError> {
    let _ = reader.set_nodelay(true);
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| FleetdError::Io(e.to_string()))?;
    let writer = Mutex::new(
        reader
            .try_clone()
            .map_err(|e| FleetdError::Io(e.to_string()))?,
    );
    send(
        &writer,
        &Message::Hello {
            worker: opts.name.clone(),
            protocol: PROTOCOL_VERSION,
        },
    )?;
    let welcome = read_reply(&mut reader, Duration::from_secs(10))?;
    let Message::Welcome { shards, timeout_ms } = welcome else {
        return Err(FleetdError::Frame(FrameError::Corrupt(format!(
            "expected Welcome, got {welcome:?}"
        ))));
    };
    let slots = par::workers(usize::try_from(shards).unwrap_or(usize::MAX), opts.threads);
    let session = Session {
        opts,
        cache,
        timeout: opts
            .timeout_seconds
            .or(timeout_ms.map(|ms| ms as f64 / 1000.0)),
        inner_threads: par::inner_threads(slots),
        reader: Mutex::new(reader),
        writer,
        tally: Mutex::new(Tally { plan, summary }),
        pause: AtomicBool::new(false),
        ended: AtomicBool::new(false),
    };

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Heartbeats go through the same write lock as results, so the
            // two writers can never interleave bytes mid-frame. Sleep in
            // short slices so session teardown is prompt.
            let mut since_beat = 0u64;
            loop {
                std::thread::sleep(Duration::from_millis(25));
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                since_beat += 25;
                if since_beat >= opts.heartbeat_ms {
                    since_beat = 0;
                    if !session.pause.load(Ordering::SeqCst)
                        && send(
                            &session.writer,
                            &Message::Heartbeat {
                                worker: opts.name.clone(),
                            },
                        )
                        .is_err()
                    {
                        // Dead socket; the shard slots will hit it too.
                        break;
                    }
                }
            }
        });
        let ends = par::map_indexed(slots, Some(slots), |_| {
            let end = shard_loop(&session);
            session.ended.store(true, Ordering::SeqCst);
            if !matches!(end, Ok(SessionEnd::Done)) {
                // Fail the other slots' reads at once instead of letting
                // them wait on a connection this session is giving up.
                let _ = lock(&session.writer).shutdown(Shutdown::Both);
            }
            end
        });
        stop.store(true, Ordering::SeqCst);
        // The most severe end wins: a kill is final, a lost or broken
        // connection reconnects, and `Done` only when every slot agrees.
        ends.into_iter()
            .min_by_key(|end| match end {
                Ok(SessionEnd::Killed) => 0,
                Ok(SessionEnd::Lost) => 1,
                Err(_) => 2,
                Ok(SessionEnd::Done) => 3,
            })
            .unwrap_or(Ok(SessionEnd::Done))
    })
}

/// The fault plan and the counters, shared by every slot of a session: a
/// fault's trigger counts the shards the whole worker has completed.
struct Tally<'a> {
    plan: &'a mut FaultPlan,
    summary: &'a mut WorkerSummary,
}

impl Tally<'_> {
    fn take_fault(&mut self, point: FaultPoint) -> Option<Fault> {
        self.plan.take_at(point, self.summary.shards_done)
    }
}

/// What the shard slots of one connection share.
struct Session<'a> {
    opts: &'a WorkerOptions,
    cache: Option<&'a ResultCache>,
    timeout: Option<f64>,
    /// Replication threads per shard: one when several slots already
    /// fill the cores, else all cores.
    inner_threads: Option<usize>,
    /// Held for one `Request` and its reply, never while computing.
    reader: Mutex<TcpStream>,
    writer: Mutex<TcpStream>,
    tally: Mutex<Tally<'a>>,
    /// Set while a `delay-heartbeat` fault stalls: the heartbeat thread
    /// stays silent.
    pause: AtomicBool,
    /// Set when any slot ends; the others stop before their next request.
    ended: AtomicBool,
}

/// One slot: request a shard, compute it, send the result, repeat.
fn shard_loop(session: &Session<'_>) -> Result<SessionEnd, FleetdError> {
    let Session {
        opts,
        cache,
        timeout,
        inner_threads,
        reader,
        writer,
        tally,
        pause,
        ended,
    } = session;
    loop {
        let reply = {
            let mut reader = lock(reader);
            if ended.load(Ordering::SeqCst) {
                return Ok(SessionEnd::Done);
            }
            send(
                writer,
                &Message::Request {
                    worker: opts.name.clone(),
                },
            )?;
            let reply = read_reply(&mut reader, Duration::from_secs(30))?;
            if matches!(reply, Message::Done) {
                // Under the read lock: a sibling slot must not send a
                // `Request` the draining coordinator will never answer.
                ended.store(true, Ordering::SeqCst);
            }
            reply
        };
        match reply {
            Message::Assign { digest, scenario } => {
                // The digest is recomputed from the payload: a mismatch
                // means the frame (or the coordinator) is corrupt, and
                // running it would file a result under the wrong key.
                if ResultCache::digest_of_key(&scenario) != digest {
                    return Err(FleetdError::Frame(FrameError::Corrupt(
                        "shard digest does not match its scenario payload".into(),
                    )));
                }
                let fault = lock(tally).take_fault(FaultPoint::Assigned);
                match fault {
                    Some(Fault::KillAfterShards(_)) => return Ok(SessionEnd::Killed),
                    Some(Fault::DelayHeartbeat { stall_ms, .. }) => {
                        pause.store(true, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(stall_ms));
                        pause.store(false, Ordering::SeqCst);
                        // Probe the socket: if the liveness reaper already
                        // cut us, reconnect instead of computing a shard
                        // nobody will accept.
                        send(
                            writer,
                            &Message::Heartbeat {
                                worker: opts.name.clone(),
                            },
                        )?;
                    }
                    _ => {}
                }
                let parsed: Scenario = serde_json::from_str(&scenario)
                    .map_err(|e| FleetdError::Codec(e.to_string()))?;
                let result = match cache.and_then(|c| c.lookup(&parsed).unwrap_or(None)) {
                    Some(report) => {
                        lock(tally).summary.cache_hits += 1;
                        Ok(report)
                    }
                    None => {
                        let r = run_scenario_bounded(&parsed, *inner_threads, *timeout);
                        if let (Ok(report), Some(c)) = (&r, cache) {
                            store_or_warn(c, &parsed, report);
                        }
                        r
                    }
                };
                let msg = match &result {
                    Ok(report) => Message::Result {
                        digest,
                        report: serde_json::to_string(report)
                            .map_err(|e| FleetdError::Codec(e.to_string()))?,
                    },
                    Err(e) => {
                        let timeout_seconds = match e {
                            ScenarioError::Timeout { seconds } => Some(*seconds),
                            _ => None,
                        };
                        Message::Failed {
                            digest,
                            error: e.to_string(),
                            timeout_seconds,
                        }
                    }
                };
                if ended.load(Ordering::SeqCst) {
                    // The fleet is done or the connection is gone: nobody
                    // takes this result.
                    return Ok(SessionEnd::Done);
                }
                let fault = lock(tally).take_fault(FaultPoint::Sending);
                match fault {
                    Some(Fault::DropMidFrame(_)) => {
                        let mut w = lock(writer);
                        let _ = write_half_frame(&mut *w, &msg);
                        let _ = w.shutdown(Shutdown::Both);
                        return Ok(SessionEnd::Lost);
                    }
                    Some(Fault::CorruptFrame(_)) => {
                        let _ = write_garbage_frame(&mut *lock(writer));
                        return Ok(SessionEnd::Lost);
                    }
                    _ => {}
                }
                send(writer, &msg)?;
                lock(tally).summary.shards_done += 1;
            }
            Message::NoWork { retry_ms } => {
                std::thread::sleep(Duration::from_millis(retry_ms.clamp(10, 1000)));
            }
            Message::Done => return Ok(SessionEnd::Done),
            other => {
                return Err(FleetdError::Frame(FrameError::Corrupt(format!(
                    "unexpected coordinator message {other:?}"
                ))))
            }
        }
    }
}
