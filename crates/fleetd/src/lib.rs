//! # wsnem-fleetd
//!
//! Fault-tolerant distributed fleet execution: a TCP coordinator/worker
//! pair that spreads a scenario fleet across machines, keyed by the same
//! `.wsnem-cache/` content-hash digests the local fleet runner uses — so
//! work dedup, result transfer and warm-rejoin all reuse one identifier.
//!
//! ## Shape
//!
//! `wsnem serve <dir>` turns a fleet directory into shards (one scenario
//! each, cache hits resolved up front) and listens; `wsnem worker <addr>`
//! processes pull shards over length-prefixed NDJSON frames
//! ([`protocol`]) and stream report frames back. Workers pull, the
//! coordinator only answers — there is no push path to get ahead of a
//! slow worker.
//!
//! A worker runs up to `--threads` shard slots over its one connection
//! ([`WorkerOptions::threads`], default all cores) on the workspace's one
//! executor, `wsnem_stats::par::map_indexed`. With several slots each
//! shard's replications run on one thread, as in the local batch runner;
//! one slot is the classic one-lease-at-a-time worker. The coordinator
//! serves several leases per connection and answers in fleet order.
//!
//! ## Robustness model
//!
//! Everything here assumes workers die mid-shard and sockets lie:
//!
//! * **Leases** ([`coordinator`]): a shard is leased, not given. Crashed,
//!   reaped or expired holders return their shards to the pool.
//! * **Heartbeats**: workers beat while computing; the liveness reaper
//!   cuts silent connections and a beat extends the holder's leases.
//! * **Backoff + jitter** ([`worker`]): reconnects spread out
//!   exponentially with per-worker deterministic jitter.
//! * **Idempotent ingestion**: results are keyed by digest,
//!   duplicate-tolerant, last-write-wins — a reassigned shard finished
//!   twice is still one row.
//! * **Watchdog**: the per-scenario `--scenario-timeout` budget is shared
//!   with workers so a runaway point fails instead of wedging its lease.
//! * **Graceful degradation**: no worker inside the grace window means
//!   the coordinator runs the remainder itself with the in-process
//!   work-queue runner and says so.
//!
//! The [`fault`] module scripts worker misbehavior (kill, mid-frame
//! disconnect, stalled heartbeat, corrupt frame) deterministically, so the
//! recovery machinery above is proven by tests rather than trusted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod coordinator;
pub mod error;
pub mod fault;
pub mod protocol;
pub mod worker;

pub use coordinator::{serve, Coordinator, DistStats, ServeOptions, ServeOutcome};
pub use error::FleetdError;
pub use fault::{Fault, FaultPlan, FaultPoint};
pub use protocol::{FrameError, Message, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};

use std::sync::{Mutex, MutexGuard};

/// Mutex lock that survives a poisoned peer: a panicking thread must not
/// take the whole fleet, or the worker's other shard slots, down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
