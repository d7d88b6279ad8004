//! `worker`: join a coordinator as a pull worker.

use wsnem_fleetd::{FaultPlan, WorkerOptions};

use crate::args::{self, value, Args, Flag};

#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    value(&["--name"], "<NAME>",           &["Worker name shown in coordinator diagnostics",
                                             "(default worker-<pid>)"]),
    value(&["--cache"], "<DIR>",           &["Local result-cache directory (.wsnem-cache format);",
                                             "a rejoining worker answers already-computed shards",
                                             "from it without recomputing"]),
    value(&["--threads"], "<N>",           &["Shards computed at once over the one connection",
                                             "(default: all cores). With two or more slots each",
                                             "shard's replications run on one thread; --threads 1",
                                             "leases one shard at a time and spreads its",
                                             "replications over every core"]),
    value(&["--retries"], "<N>",           &["Consecutive failed connection attempts before",
                                             "giving up (default 10)"]),
    value(&["--heartbeat"], "<MS>",        &["Heartbeat period in milliseconds (default 1000)"]),
    value(&["--scenario-timeout"], "<SECS>", &["Local watchdog override (default: whatever the",
                                             "coordinator announces)"]),
    value(&["--fault-plan"], "<SPEC>",     &["Scripted misbehavior for drills and tests:",
                                             "comma-separated kill-after=N, drop-mid-frame=N,",
                                             "corrupt-frame=N, delay-heartbeat=N:STALL_MS"]),
];

/// A heartbeat period of at least one millisecond.
fn heartbeat(_: &str, v: &str) -> Result<u64, String> {
    let ms = v.parse().ok().filter(|&ms: &u64| ms > 0);
    ms.ok_or_else(|| format!("--heartbeat expects milliseconds >= 1, got `{v}`"))
}

pub(crate) fn cmd_worker(a: &Args) -> Result<(), String> {
    let defaults = WorkerOptions::default();
    let opts = WorkerOptions {
        name: a.value("--name").map_or(defaults.name, str::to_owned),
        threads: a.parsed("--threads", args::threads)?,
        cache_dir: a.value("--cache").map(Into::into),
        fault_plan: a.parsed_or(
            "--fault-plan",
            |_, s| FaultPlan::parse(s),
            defaults.fault_plan,
        )?,
        max_retries: a.parsed_or("--retries", args::count, defaults.max_retries)?,
        heartbeat_ms: a.parsed_or("--heartbeat", heartbeat, defaults.heartbeat_ms)?,
        timeout_seconds: a.parsed("--scenario-timeout", args::seconds)?,
        ..defaults
    };
    let addr = match a.positionals.as_slice() {
        [] => return Err("worker expects a coordinator address (host:port)".into()),
        [addr] => addr,
        _ => return Err("worker expects exactly one coordinator address".into()),
    };
    let summary =
        wsnem_fleetd::run_worker(addr, opts).map_err(|e| format!("worker on {addr}: {e}"))?;
    eprintln!(
        "worker done: {} shard(s) ({} from cache), {} session(s), {} reconnect(s){}",
        summary.shards_done,
        summary.cache_hits,
        summary.sessions,
        summary.reconnects,
        if summary.killed {
            " — killed by fault plan"
        } else {
            ""
        }
    );
    Ok(())
}
