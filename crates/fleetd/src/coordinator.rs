//! The coordinator: owns the fleet, leases shards to pulling workers,
//! survives their deaths.
//!
//! # Shard lifecycle
//!
//! Cache hits are resolved up front (exactly like a local
//! `fleet::run_cached`); every miss becomes a **shard** keyed by its
//! `.wsnem-cache/` content-hash digest. A shard is `pending` until a
//! worker's `Request` leases it, `leased` until its result arrives or the
//! lease dies, and `done` forever after. Leases die three ways — the
//! holder's connection drops, the liveness reaper declares the holder dead
//! (no frame within the liveness window), or the lease deadline passes
//! without a heartbeat — and a dead lease simply returns the shard to
//! `pending` for the next `Request`. Results are ingested
//! **idempotently**: keyed by digest, duplicate frames tolerated
//! (last-write-wins), so a reassigned shard completed twice stays one row
//! in the merged report.
//!
//! Every connection's frames go through one state lock, so the work under
//! it stays small: a `Request` takes the lowest pending index from an
//! ordered set, a result finds its shard through a digest index, and a
//! report is parsed before the lock and filed in the result cache after
//! it.
//!
//! # Graceful degradation
//!
//! If no live worker has been connected for the grace window while shards
//! remain, the coordinator stops waiting: it leases every remaining shard
//! to itself and runs them through the in-process work-queue runner, warns
//! on stderr, and records the fallback in [`DistStats`]. A fleet with no
//! workers is a slow local run, never a hang.

use std::collections::{BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use wsnem_scenario::cache::canonical_key;
use wsnem_scenario::runner::run_batch_with_options;
use wsnem_scenario::{
    store_or_warn, BatchMetrics, BatchProgress, CacheMode, CacheStats, ResultCache, Scenario,
    ScenarioError, ScenarioReport,
};

use crate::error::FleetdError;
use crate::lock;
use crate::protocol::{read_message, write_message, FrameError, Message, PROTOCOL_VERSION};

/// Lease owner id reserved for the coordinator's own local fallback.
const LOCAL_CONN: u64 = 0;

/// How long a worker is told to wait when every shard is leased out.
const NO_WORK_RETRY_MS: u64 = 20;

/// Knobs for a distributed run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to listen on (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Zero-worker grace window in seconds: with no live worker for this
    /// long and shards remaining, fall back to the local runner.
    pub grace_seconds: f64,
    /// Shard lease in seconds; a leased shard whose holder neither
    /// heartbeats nor answers within this window is reassigned.
    pub lease_seconds: f64,
    /// Worker liveness window in seconds; a connection with no frame for
    /// this long is reaped.
    pub liveness_seconds: f64,
    /// Threads for the local fallback runner (`None` = all cores).
    pub threads: Option<usize>,
    /// Per-scenario wall-clock watchdog in seconds, shared with workers
    /// via `Welcome` (`--scenario-timeout`).
    pub timeout_seconds: Option<f64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7177".into(),
            grace_seconds: 10.0,
            lease_seconds: 30.0,
            liveness_seconds: 10.0,
            threads: None,
            timeout_seconds: None,
        }
    }
}

/// Distributed-run counters, reported in the CLI batch line and the JSON
/// envelope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistStats {
    /// Distinct worker connections that completed a `Hello`.
    pub workers_seen: usize,
    /// Shards the fleet had after cache-hit resolution.
    pub shards_total: usize,
    /// Shards completed by remote workers.
    pub shards_remote: usize,
    /// Shards completed by the coordinator's local fallback.
    pub shards_local: usize,
    /// Leases released for reassignment (crashed, reaped or expired
    /// holders).
    pub reassigned: usize,
    /// Result frames for already-completed shards (tolerated,
    /// last-write-wins).
    pub duplicate_results: usize,
    /// Frames rejected as corrupt, truncated, oversized or unknown.
    pub rejected_frames: usize,
    /// True when the zero-worker grace window expired and the remaining
    /// shards ran in-process.
    pub fell_back_local: bool,
}

/// Everything a distributed run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-scenario results, in input order — the same shape a local
    /// `fleet::run_cached` returns.
    pub results: Vec<Result<ScenarioReport, ScenarioError>>,
    /// Whole-run wall-clock metrics (busy time covers only work done
    /// in-process; remote compute is on the workers' clocks).
    pub metrics: BatchMetrics,
    /// Cache hit/miss split (misses == shards).
    pub cache: CacheStats,
    /// Distribution counters.
    pub dist: DistStats,
}

struct Lease {
    conn: u64,
    deadline: Instant,
}

struct Shard {
    /// Index into the full scenario list.
    slot: usize,
    digest: String,
    /// Canonical scenario JSON — the digest preimage, shipped in `Assign`.
    key: String,
    name: String,
    lease: Option<Lease>,
    done: bool,
}

struct WorkerConn {
    last_seen: Instant,
    /// Cloned handle used only to shut the socket down on reap, which
    /// unblocks the connection's handler thread.
    stream: TcpStream,
}

struct State {
    shards: Vec<Shard>,
    /// Shards neither done nor leased. `Request`s take the lowest index
    /// first, so shards go out in fleet order.
    pending: BTreeSet<usize>,
    /// Shards under a live lease and not yet done.
    leased: BTreeSet<usize>,
    results: Vec<Option<Result<ScenarioReport, ScenarioError>>>,
    /// Shards not yet done.
    remaining: usize,
    /// Scenarios finished overall (cache hits included) — progress
    /// numbering.
    completed: usize,
    workers: HashMap<u64, WorkerConn>,
    /// Last instant at least one worker was connected (or the run start).
    last_live: Instant,
    dist: DistStats,
}

impl State {
    /// Lease a pending shard to `conn` until `deadline`.
    fn lease(&mut self, i: usize, conn: u64, deadline: Instant) {
        self.pending.remove(&i);
        self.leased.insert(i);
        self.shards[i].lease = Some(Lease { conn, deadline });
    }

    /// Return a leased shard to the pending pool, counting the
    /// reassignment.
    fn release(&mut self, i: usize) {
        self.shards[i].lease = None;
        self.leased.remove(&i);
        self.pending.insert(i);
        self.dist.reassigned += 1;
    }

    /// Release every lease that `dead` condemns.
    fn release_where(&mut self, dead: impl Fn(&Lease) -> bool) {
        let doomed: Vec<usize> = self
            .leased
            .iter()
            .copied()
            .filter(|&i| self.shards[i].lease.as_ref().is_some_and(&dead))
            .collect();
        for i in doomed {
            self.release(i);
        }
    }
}

struct Ctx<'a> {
    state: Mutex<State>,
    /// Shard index by digest; fixed once the shards are built.
    index: HashMap<String, usize>,
    cv: Condvar,
    done: AtomicBool,
    scenarios: &'a [Scenario],
    caches: &'a [Option<&'a ResultCache>],
    mode: CacheMode,
    lease: Duration,
    liveness: Duration,
    timeout_ms: Option<u64>,
    on_done: Option<BatchProgress<'a>>,
    total: usize,
}

fn secs(s: f64) -> Duration {
    let s = if s.is_finite() {
        s.clamp(0.0, 1.0e9)
    } else {
        1.0e9
    };
    Duration::from_secs_f64(s)
}

/// A bound coordinator, ready to [`run`](Coordinator::run). Binding and
/// running are split so callers (and tests) can learn the actual listen
/// address — port 0 picks a free port — before workers are pointed at it.
pub struct Coordinator<'a> {
    scenarios: &'a [Scenario],
    caches: &'a [Option<&'a ResultCache>],
    mode: CacheMode,
    opts: ServeOptions,
    listener: TcpListener,
}

impl<'a> Coordinator<'a> {
    /// Bind the listen socket. `caches[i]` is the cache slot for
    /// `scenarios[i]`, exactly as in `fleet::run_cached`.
    pub fn bind(
        scenarios: &'a [Scenario],
        caches: &'a [Option<&'a ResultCache>],
        mode: CacheMode,
        opts: ServeOptions,
    ) -> Result<Self, FleetdError> {
        assert_eq!(scenarios.len(), caches.len(), "one cache slot per scenario");
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| FleetdError::Io(format!("bind {}: {e}", opts.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| FleetdError::Io(format!("set_nonblocking: {e}")))?;
        Ok(Coordinator {
            scenarios,
            caches,
            mode,
            opts,
            listener,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, FleetdError> {
        self.listener
            .local_addr()
            .map_err(|e| FleetdError::Io(format!("local_addr: {e}")))
    }

    /// Run the fleet to completion: serve workers, reap the dead, fall
    /// back locally if nobody shows up. Returns when every scenario has a
    /// result.
    pub fn run(self, on_done: Option<BatchProgress<'_>>) -> Result<ServeOutcome, FleetdError> {
        let started = Instant::now();
        let n = self.scenarios.len();
        let mut slots: Vec<Option<Result<ScenarioReport, ScenarioError>>> =
            (0..n).map(|_| None).collect();

        // Resolve cache hits up front: only misses become shards.
        let mut hits = 0usize;
        let mut to_run: Vec<usize> = Vec::with_capacity(n);
        for (i, s) in self.scenarios.iter().enumerate() {
            let cached = match (self.mode, self.caches[i]) {
                (CacheMode::ReadWrite, Some(cache)) => cache.lookup(s).unwrap_or(None),
                _ => None,
            };
            match cached {
                Some(report) => {
                    hits += 1;
                    if let Some(cb) = on_done {
                        cb(hits, n, &s.name);
                    }
                    slots[i] = Some(Ok(report));
                }
                None => to_run.push(i),
            }
        }

        let mut shards = Vec::with_capacity(to_run.len());
        for &i in &to_run {
            let key =
                canonical_key(&self.scenarios[i]).map_err(|e| FleetdError::Codec(e.to_string()))?;
            let digest = ResultCache::digest_of_key(&key);
            shards.push(Shard {
                slot: i,
                digest,
                key,
                name: self.scenarios[i].name.clone(),
                lease: None,
                done: false,
            });
        }

        let mut dist = DistStats {
            shards_total: shards.len(),
            ..DistStats::default()
        };

        if shards.is_empty() {
            let metrics = BatchMetrics::new(n, 1, started.elapsed().as_secs_f64(), 0.0);
            return Ok(ServeOutcome {
                results: finish_slots(slots),
                metrics,
                cache: CacheStats { hits, misses: 0 },
                dist,
            });
        }

        let misses = shards.len();
        let remaining = shards.len();
        let index = shards
            .iter()
            .enumerate()
            .map(|(i, sh)| (sh.digest.clone(), i))
            .collect();
        let ctx = Ctx {
            state: Mutex::new(State {
                pending: (0..shards.len()).collect(),
                leased: BTreeSet::new(),
                shards,
                results: slots,
                remaining,
                completed: hits,
                workers: HashMap::new(),
                last_live: Instant::now(),
                dist,
            }),
            index,
            cv: Condvar::new(),
            done: AtomicBool::new(false),
            scenarios: self.scenarios,
            caches: self.caches,
            mode: self.mode,
            lease: secs(self.opts.lease_seconds),
            liveness: secs(self.opts.liveness_seconds),
            timeout_ms: self
                .opts
                .timeout_seconds
                .map(|s| (s.max(0.0) * 1000.0) as u64),
            on_done,
            total: n,
        };
        let grace = secs(self.opts.grace_seconds);
        let mut busy_seconds = 0.0;

        std::thread::scope(|scope| {
            let ctx = &ctx;
            // Accept loop: non-blocking so it can notice the done flag.
            scope.spawn(move || {
                let mut next_id: u64 = LOCAL_CONN + 1;
                loop {
                    if ctx.done.load(Ordering::SeqCst) {
                        break;
                    }
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            let id = next_id;
                            next_id += 1;
                            scope.spawn(move || handle_conn(ctx, id, stream));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(25)),
                    }
                }
            });

            // Maintenance loop: reap, expire, fall back, finish.
            loop {
                let now = Instant::now();
                let mut to_shutdown = Vec::new();
                let fallback: Option<Vec<usize>> = {
                    let mut st = lock(&ctx.state);
                    if st.remaining == 0 {
                        break;
                    }
                    // Reap workers silent past the liveness window.
                    let dead: Vec<u64> = st
                        .workers
                        .iter()
                        .filter(|(_, w)| now.duration_since(w.last_seen) > ctx.liveness)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in dead {
                        if let Some(w) = st.workers.remove(&id) {
                            to_shutdown.push(w.stream);
                        }
                        st.release_where(|l| l.conn == id);
                    }
                    // Reassign shards whose lease deadline passed without a
                    // heartbeat.
                    st.release_where(|l| l.conn != LOCAL_CONN && l.deadline <= now);
                    if !st.workers.is_empty() {
                        st.last_live = now;
                        None
                    } else if now.duration_since(st.last_live) > grace
                        && !st.dist.fell_back_local
                        && st.remaining > 0
                    {
                        // Claim everything assignable for the local runner.
                        let todo: Vec<usize> = st.pending.iter().copied().collect();
                        for &i in &todo {
                            st.lease(i, LOCAL_CONN, now + secs(1.0e9));
                        }
                        st.dist.fell_back_local = true;
                        Some(todo)
                    } else {
                        None
                    }
                };
                for s in to_shutdown {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
                if let Some(todo) = fallback {
                    busy_seconds += run_local_fallback(ctx, &todo, self.opts.threads, grace);
                    continue;
                }
                let st = lock(&ctx.state);
                if st.remaining == 0 {
                    break;
                }
                let _ = ctx.cv.wait_timeout(st, Duration::from_millis(100));
            }
            ctx.done.store(true, Ordering::SeqCst);
            // Handler threads notice the flag within one read timeout and
            // send `Done` to their workers; the scope joins them all.
        });

        let st = ctx
            .state
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        dist = st.dist;
        let results = finish_slots(st.results);
        let metrics = BatchMetrics::new(
            n,
            dist.workers_seen.max(1),
            started.elapsed().as_secs_f64(),
            busy_seconds,
        );
        Ok(ServeOutcome {
            results,
            metrics,
            cache: CacheStats { hits, misses },
            dist,
        })
    }
}

/// Bind + run in one call — the `wsnem serve` entry point.
pub fn serve(
    scenarios: &[Scenario],
    caches: &[Option<&ResultCache>],
    mode: CacheMode,
    opts: ServeOptions,
    on_done: Option<BatchProgress<'_>>,
) -> Result<ServeOutcome, FleetdError> {
    Coordinator::bind(scenarios, caches, mode, opts)?.run(on_done)
}

fn finish_slots(
    slots: Vec<Option<Result<ScenarioReport, ScenarioError>>>,
) -> Vec<Result<ScenarioReport, ScenarioError>> {
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(r) => r,
            // Every shard is driven to done before the loops exit.
            None => Err(ScenarioError::Remote(
                "scenario left unresolved by the coordinator".into(),
            )),
        })
        .collect()
}

/// Run the remaining shards through the in-process work-queue runner.
/// Returns the busy seconds spent.
fn run_local_fallback(
    ctx: &Ctx<'_>,
    todo: &[usize],
    threads: Option<usize>,
    grace: Duration,
) -> f64 {
    if todo.is_empty() {
        return 0.0;
    }
    eprintln!(
        "warning: no live workers for {:.1}s; running {} remaining shard(s) locally",
        grace.as_secs_f64(),
        todo.len()
    );
    let (subset, base) = {
        let st = lock(&ctx.state);
        let subset: Vec<Scenario> = todo
            .iter()
            .map(|&i| ctx.scenarios[st.shards[i].slot].clone())
            .collect();
        (subset, st.completed)
    };
    let local_done = AtomicUsize::new(0);
    let cb = |_done: usize, _total: usize, name: &str| {
        if let Some(user_cb) = ctx.on_done {
            let k = local_done.fetch_add(1, Ordering::Relaxed) + 1;
            user_cb(base + k, ctx.total, name);
        }
    };
    let timeout = ctx.timeout_ms.map(|ms| ms as f64 / 1000.0);
    let (results, inner) = run_batch_with_options(&subset, threads, Some(&cb), timeout);
    let completed: Vec<Completed> = {
        let mut st = lock(&ctx.state);
        todo.iter()
            .zip(results)
            .filter_map(|(&shard_idx, result)| {
                complete_shard(ctx, &mut st, shard_idx, result, false)
            })
            .collect()
    };
    ctx.cv.notify_all();
    for c in completed {
        // Progress already streamed via the batch callback above.
        c.store(ctx);
    }
    inner.busy_seconds
}

/// A shard's first completion, with what is left to do once the state
/// lock is released.
struct Completed {
    /// `(completed, total, name)` for the progress callback.
    progress: (usize, usize, String),
    /// Scenario index and report to file in the fleet's result cache.
    cache_entry: Option<(usize, ScenarioReport)>,
}

impl Completed {
    /// File the report in the result cache, if the fleet caches it.
    fn store(self, ctx: &Ctx<'_>) {
        if let Some((slot, report)) = self.cache_entry {
            if let Some(cache) = ctx.caches[slot] {
                store_or_warn(cache, &ctx.scenarios[slot], &report);
            }
        }
    }

    /// Wake the maintenance loop, report progress, then store.
    fn finish(self, ctx: &Ctx<'_>) {
        ctx.cv.notify_all();
        if let Some(cb) = ctx.on_done {
            let (done, total, name) = &self.progress;
            cb(*done, *total, name);
        }
        self.store(ctx);
    }
}

/// Mark a shard done and file its result, idempotently: a shard that is
/// already done only overwrites the stored result (last-write-wins) and
/// counts a duplicate. Only a first completion is returned; its cache
/// store runs after the caller unlocks.
fn complete_shard(
    ctx: &Ctx<'_>,
    st: &mut State,
    shard_idx: usize,
    result: Result<ScenarioReport, ScenarioError>,
    remote: bool,
) -> Option<Completed> {
    let slot = st.shards[shard_idx].slot;
    if st.shards[shard_idx].done {
        st.dist.duplicate_results += 1;
        if result.is_ok() {
            st.results[slot] = Some(result);
        }
        return None;
    }
    let cache_entry = match &result {
        Ok(report) if ctx.mode != CacheMode::Disabled && ctx.caches[slot].is_some() => {
            Some((slot, report.clone()))
        }
        _ => None,
    };
    st.shards[shard_idx].done = true;
    st.shards[shard_idx].lease = None;
    st.pending.remove(&shard_idx);
    st.leased.remove(&shard_idx);
    st.results[slot] = Some(result);
    st.remaining -= 1;
    st.completed += 1;
    if remote {
        st.dist.shards_remote += 1;
    } else {
        st.dist.shards_local += 1;
    }
    Some(Completed {
        progress: (st.completed, ctx.total, st.shards[shard_idx].name.clone()),
        cache_entry,
    })
}

fn touch(st: &mut State, conn_id: u64) {
    if let Some(w) = st.workers.get_mut(&conn_id) {
        w.last_seen = Instant::now();
    }
}

/// After `Done` is sent, keep reading (and discarding) until the worker
/// closes its end. Dropping the socket with unread bytes in the receive
/// buffer — a crossed `Request`, an in-flight heartbeat — makes the kernel
/// send RST instead of FIN, which can destroy the `Done` frame before the
/// worker reads it and turn a clean shutdown into a spurious reconnect
/// storm.
fn drain_until_closed(stream: &mut TcpStream) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        match read_message(stream) {
            Ok(_) => continue,
            Err(_) => break,
        }
    }
}

/// One worker connection, from `Hello` to disconnect.
fn handle_conn(ctx: &Ctx<'_>, conn_id: u64, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut registered = false;
    loop {
        if ctx.done.load(Ordering::SeqCst) {
            if write_message(&mut stream, &Message::Done).is_ok() {
                drain_until_closed(&mut stream);
            }
            break;
        }
        let msg = match read_message(&mut stream) {
            Ok(None) => continue,
            Ok(Some(m)) => m,
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
            Err(_) => {
                // Corrupt, truncated or oversized: this connection's
                // framing can no longer be trusted — drop it; its leases
                // are released below and the worker reconnects clean.
                lock(&ctx.state).dist.rejected_frames += 1;
                break;
            }
        };
        match msg {
            Message::Hello { protocol, .. } => {
                if protocol != PROTOCOL_VERSION {
                    break;
                }
                let Ok(clone) = stream.try_clone() else { break };
                let shards = {
                    let mut st = lock(&ctx.state);
                    if !registered {
                        st.dist.workers_seen += 1;
                        registered = true;
                    }
                    st.workers.insert(
                        conn_id,
                        WorkerConn {
                            last_seen: Instant::now(),
                            stream: clone,
                        },
                    );
                    st.last_live = Instant::now();
                    st.shards.len() as u64
                };
                let welcome = Message::Welcome {
                    shards,
                    timeout_ms: ctx.timeout_ms,
                };
                if write_message(&mut stream, &welcome).is_err() {
                    break;
                }
            }
            _ if !registered => {
                // Frames before Hello are a protocol violation.
                lock(&ctx.state).dist.rejected_frames += 1;
                break;
            }
            Message::Request { .. } => {
                let reply = {
                    let mut st = lock(&ctx.state);
                    touch(&mut st, conn_id);
                    match st.pending.first().copied() {
                        Some(i) => {
                            st.lease(i, conn_id, Instant::now() + ctx.lease);
                            Message::Assign {
                                digest: st.shards[i].digest.clone(),
                                scenario: st.shards[i].key.clone(),
                            }
                        }
                        None if st.remaining == 0 => Message::Done,
                        None => Message::NoWork {
                            retry_ms: NO_WORK_RETRY_MS,
                        },
                    }
                };
                if write_message(&mut stream, &reply).is_err() {
                    break;
                }
                if matches!(reply, Message::Done) {
                    drain_until_closed(&mut stream);
                    break;
                }
            }
            Message::Result { digest, report } => {
                // Parse before locking: every other connection's `Request`
                // waits on the state lock.
                let shard = ctx.index.get(&digest).copied();
                let report = shard.and_then(|_| serde_json::from_str(&report).ok());
                let completed = {
                    let mut st = lock(&ctx.state);
                    touch(&mut st, conn_id);
                    ingest_result(ctx, &mut st, conn_id, shard, report)
                };
                if let Some(c) = completed {
                    c.finish(ctx);
                }
            }
            Message::Failed {
                digest,
                error,
                timeout_seconds,
            } => {
                let err = match timeout_seconds {
                    Some(seconds) => ScenarioError::Timeout { seconds },
                    None => ScenarioError::Remote(error),
                };
                let completed = {
                    let mut st = lock(&ctx.state);
                    touch(&mut st, conn_id);
                    match ctx.index.get(&digest) {
                        Some(&i) => complete_shard(ctx, &mut st, i, Err(err), true),
                        None => {
                            st.dist.rejected_frames += 1;
                            None
                        }
                    }
                };
                if let Some(c) = completed {
                    c.finish(ctx);
                }
            }
            Message::Heartbeat { .. } => {
                let mut st = lock(&ctx.state);
                touch(&mut st, conn_id);
                st.last_live = Instant::now();
                // A heartbeat extends the holder's leases: slow-but-alive
                // work is not reassigned from under a beating worker.
                let deadline = Instant::now() + ctx.lease;
                let State { shards, leased, .. } = &mut *st;
                for &i in leased.iter() {
                    if let Some(l) = &mut shards[i].lease {
                        if l.conn == conn_id {
                            l.deadline = deadline;
                        }
                    }
                }
            }
            // Coordinator-bound streams must not carry coordinator replies.
            Message::Welcome { .. }
            | Message::Assign { .. }
            | Message::NoWork { .. }
            | Message::Done => {
                lock(&ctx.state).dist.rejected_frames += 1;
                break;
            }
        }
    }
    // Connection gone, however it went: free its leases for reassignment.
    let mut st = lock(&ctx.state);
    st.workers.remove(&conn_id);
    st.release_where(|l| l.conn == conn_id);
    drop(st);
    ctx.cv.notify_all();
}

/// File a `Result` frame whose digest lookup and report parse ran before
/// the lock. Unknown digests and unparsable reports are rejected (the
/// sender's lease is released so the shard can rerun); duplicates are
/// tolerated last-write-wins.
fn ingest_result(
    ctx: &Ctx<'_>,
    st: &mut State,
    conn_id: u64,
    shard: Option<usize>,
    report: Option<ScenarioReport>,
) -> Option<Completed> {
    let Some(idx) = shard else {
        st.dist.rejected_frames += 1;
        return None;
    };
    match report {
        Some(report) => complete_shard(ctx, st, idx, Ok(report), true),
        None => {
            st.dist.rejected_frames += 1;
            if st.shards[idx]
                .lease
                .as_ref()
                .is_some_and(|l| l.conn == conn_id)
            {
                st.release(idx);
            }
            None
        }
    }
}
