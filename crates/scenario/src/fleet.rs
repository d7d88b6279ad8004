//! Directory fleets: discover, load and (cache-aware) run a directory of
//! scenario files as one batch.
//!
//! `wsnem run <dir>` walks the directory's `.toml`/`.json` files in sorted
//! name order (skipping dotfiles, subdirectories and the generator's
//! `manifest.json`), loads each as a [`Scenario`], rejects two files that
//! declare the same scenario name, and runs the lot through the batch
//! runner — answering from the [`ResultCache`] where the content hash
//! matches, so a warm re-run after editing 3 of 1000 files simulates
//! exactly 3.
//!
//! Cached reports are returned **verbatim** (timing fields included),
//! which is what makes a warm run's merged CSV/JSON byte-identical to the
//! cold run that populated the cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::cache::{CacheMode, CacheStats, ResultCache};
use crate::error::ScenarioError;
use crate::files;
use crate::gen::MANIFEST_FILE;
use crate::report::ScenarioReport;
use crate::runner::{run_batch_hooked, BatchMetrics, BatchProgress};
use crate::schema::Scenario;

/// Knobs for [`run_cached_with`] beyond the scenario/cache lists.
#[derive(Debug, Clone, Copy)]
pub struct FleetRunOptions {
    /// Worker threads for the simulation batch (`None` = all cores).
    pub threads: Option<usize>,
    /// Cache policy for lookups and stores.
    pub mode: CacheMode,
    /// Per-scenario wall-clock watchdog in seconds (`None` = unbounded):
    /// a point that exceeds it is marked failed with
    /// [`ScenarioError::Timeout`] instead of hanging the fleet.
    pub timeout_seconds: Option<f64>,
}

impl Default for FleetRunOptions {
    fn default() -> Self {
        FleetRunOptions {
            threads: None,
            mode: CacheMode::ReadWrite,
            timeout_seconds: None,
        }
    }
}

/// Store a freshly simulated report, degrading store failures (disk full,
/// read-only directory, permissions) to a one-line stderr warning: the
/// report is in hand either way, so a broken cache must cost a future miss,
/// never the batch.
pub fn store_or_warn(cache: &ResultCache, scenario: &Scenario, report: &ScenarioReport) {
    if let Err(e) = cache.store(scenario, report) {
        eprintln!(
            "warning: result cache store failed for scenario `{}`: {e} (continuing uncached)",
            scenario.name
        );
    }
}

/// Scenario files in `dir`, sorted by file name: every `.toml`/`.json`
/// regular file except dotfiles and the generator's `manifest.json`.
/// Subdirectories (including `.wsnem-cache/`) are not descended into.
pub fn discover(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, ScenarioError> {
    let dir = dir.as_ref();
    let entries =
        std::fs::read_dir(dir).map_err(|e| ScenarioError::Io(format!("{}: {e}", dir.display())))?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| ScenarioError::Io(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with('.') || name == MANIFEST_FILE {
            continue;
        }
        if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("toml") | Some("json")
        ) {
            paths.push(path);
        }
    }
    if paths.is_empty() {
        return Err(ScenarioError::Io(format!(
            "{}: no scenario files (*.toml / *.json) found",
            dir.display()
        )));
    }
    paths.sort();
    Ok(paths)
}

/// [`discover`] + load: every scenario in the directory, paired with its
/// file path, in sorted file-name order. Two files declaring the same
/// scenario name are an error naming both files — duplicate keys would
/// collide in the merged CSV/JSON and in the result cache.
pub fn load_dir(dir: impl AsRef<Path>) -> Result<Vec<(PathBuf, Scenario)>, ScenarioError> {
    let paths = discover(dir)?;
    let mut out: Vec<(PathBuf, Scenario)> = Vec::with_capacity(paths.len());
    for path in paths {
        let scenario = files::load(&path)?;
        if let Some((prev, _)) = out.iter().find(|(_, s)| s.name == scenario.name) {
            return Err(ScenarioError::Invalid(format!(
                "duplicate scenario name `{}`: declared by both {} and {}",
                scenario.name,
                prev.display(),
                path.display()
            )));
        }
        out.push((path, scenario));
    }
    Ok(out)
}

/// Run a batch with per-scenario result caching.
///
/// `caches[i]` is the cache to consult/populate for `scenarios[i]` (`None`
/// opts that scenario out, whatever the mode — the CLI uses this for
/// builtins running alongside a fleet). Under [`CacheMode::ReadWrite`],
/// hits are answered from the cache without simulating; under
/// [`CacheMode::Refresh`] everything is simulated and re-stored; under
/// [`CacheMode::Disabled`] the caches are never touched.
///
/// Results come back in input order, cache hits returned verbatim. The
/// returned [`BatchMetrics`] covers the whole call (hits resolve in the
/// wall-clock but add no busy time), and [`CacheStats`] counts hits vs
/// simulated scenarios. Hits are probed and fresh reports stored on the
/// batch's worker threads, so the progress callback fires once per
/// scenario, hits and misses in the order the workers finish them.
pub fn run_cached(
    scenarios: &[Scenario],
    caches: &[Option<&ResultCache>],
    threads: Option<usize>,
    mode: CacheMode,
    on_done: Option<BatchProgress<'_>>,
) -> (
    Vec<Result<ScenarioReport, ScenarioError>>,
    BatchMetrics,
    CacheStats,
) {
    run_cached_with(
        scenarios,
        caches,
        FleetRunOptions {
            threads,
            mode,
            timeout_seconds: None,
        },
        on_done,
    )
}

/// [`run_cached`] with the full option set — notably the per-scenario
/// wall-clock watchdog shared with `--scenario-timeout` and the
/// distributed lease watchdog.
pub fn run_cached_with(
    scenarios: &[Scenario],
    caches: &[Option<&ResultCache>],
    opts: FleetRunOptions,
    on_done: Option<BatchProgress<'_>>,
) -> (
    Vec<Result<ScenarioReport, ScenarioError>>,
    BatchMetrics,
    CacheStats,
) {
    let FleetRunOptions {
        threads,
        mode,
        timeout_seconds,
    } = opts;
    assert_eq!(scenarios.len(), caches.len(), "one cache slot per scenario");
    // Probes and stores run on the batch's workers, next to the
    // simulations: a warm fleet reads and parses its entries in parallel,
    // and a cold one writes them while other scenarios are still running.
    let hits = AtomicUsize::new(0);
    let probe = |i: usize| {
        let (CacheMode::ReadWrite, Some(cache)) = (mode, caches[i]) else {
            return None;
        };
        let report = cache.lookup(&scenarios[i]).unwrap_or(None)?;
        hits.fetch_add(1, Ordering::Relaxed);
        Some(report)
    };
    let store = |i: usize, report: &ScenarioReport| {
        if let (Some(cache), true) = (caches[i], mode != CacheMode::Disabled) {
            store_or_warn(cache, &scenarios[i], report);
        }
    };
    let (results, metrics) =
        run_batch_hooked(scenarios, threads, on_done, timeout_seconds, &probe, &store);
    let hits = hits.into_inner();
    let stats = CacheStats {
        hits,
        misses: scenarios.len() - hits,
    };
    (results, metrics, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::files::FileFormat;
    use crate::gen::{self, FieldSpec, GenField, GenMethod, GenSpec};
    use wsnem_core::BackendId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsnem-fleet-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick(mut s: Scenario) -> Scenario {
        s.cpu = s.cpu.with_replications(2).with_horizon(200.0);
        s.backends = vec![BackendId::Markov];
        s
    }

    fn write(dir: &Path, name: &str, s: &Scenario, format: FileFormat) {
        std::fs::write(dir.join(name), files::to_string(s, format).unwrap()).unwrap();
    }

    #[test]
    fn discover_filters_and_sorts() {
        let dir = temp_dir("discover");
        let a = quick(builtin::paper_defaults());
        write(&dir, "b.toml", &a, FileFormat::Toml);
        write(&dir, "a.json", &a, FileFormat::Json);
        std::fs::write(dir.join("manifest.json"), "{}").unwrap();
        std::fs::write(dir.join(".hidden.toml"), "").unwrap();
        std::fs::write(dir.join("notes.txt"), "").unwrap();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        write(&dir, "sub/c.toml", &a, FileFormat::Toml);

        let names: Vec<String> = discover(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["a.json", "b.toml"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = temp_dir("empty");
        let err = discover(&dir).unwrap_err().to_string();
        assert!(err.contains("no scenario files"), "{err}");
        let err = discover(dir.join("missing")).unwrap_err().to_string();
        assert!(err.contains("missing"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_rejects_duplicate_scenario_names() {
        let dir = temp_dir("dups");
        let s = quick(builtin::paper_defaults());
        write(&dir, "first.toml", &s, FileFormat::Toml);
        write(&dir, "second.json", &s, FileFormat::Json);
        let err = load_dir(&dir).unwrap_err().to_string();
        assert!(err.contains("duplicate scenario name"), "{err}");
        assert!(err.contains("paper-defaults"), "{err}");
        assert!(
            err.contains("first.toml") && err.contains("second.json"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_returns_sorted_valid_fleet() {
        let dir = temp_dir("load");
        let spec = GenSpec {
            method: GenMethod::Grid,
            count: 0,
            seed: 1,
            prefix: "pt".into(),
            fields: vec![FieldSpec {
                field: GenField::Lambda,
                min: 0.25,
                max: 0.75,
                points: Some(4),
            }],
        };
        gen::write_fleet(
            &dir,
            &quick(builtin::paper_defaults()),
            &spec,
            FileFormat::Toml,
        )
        .unwrap();
        let fleet = load_dir(&dir).unwrap();
        assert_eq!(fleet.len(), 4);
        let names: Vec<&str> = fleet.iter().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, vec!["pt-1", "pt-2", "pt-3", "pt-4"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cached_hits_on_identical_rerun_and_respects_modes() {
        let dir = temp_dir("modes");
        let cache = ResultCache::open_under(&dir).unwrap();
        let mut a = quick(builtin::paper_defaults());
        a.name = "a".into();
        let mut b = quick(builtin::paper_defaults());
        b.name = "b".into();
        let scenarios = vec![a.clone(), b.clone()];
        let caches = vec![Some(&cache), Some(&cache)];

        // Cold: all misses, cache populated.
        let (cold, metrics, stats) =
            run_cached(&scenarios, &caches, Some(1), CacheMode::ReadWrite, None);
        assert_eq!(stats, CacheStats { hits: 0, misses: 2 });
        assert_eq!(metrics.scenarios, 2);
        assert_eq!(cache.len(), 2);

        // Warm: all hits, reports bit-identical, no busy time.
        let (warm, metrics, stats) =
            run_cached(&scenarios, &caches, Some(1), CacheMode::ReadWrite, None);
        assert_eq!(stats, CacheStats { hits: 2, misses: 0 });
        assert_eq!(metrics.busy_seconds, 0.0);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.as_ref().unwrap(), w.as_ref().unwrap());
        }

        // Editing one scenario re-simulates exactly that one.
        let mut edited = scenarios.clone();
        edited[1].cpu = edited[1].cpu.with_power_down_threshold(0.25);
        let (_, _, stats) = run_cached(&edited, &caches, Some(1), CacheMode::ReadWrite, None);
        assert_eq!(stats, CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 3, "the edited variant was stored too");

        // Refresh recomputes everything but restores entries.
        let (_, _, stats) = run_cached(&scenarios, &caches, Some(1), CacheMode::Refresh, None);
        assert_eq!(stats, CacheStats { hits: 0, misses: 2 });

        // Disabled neither reads nor writes.
        let before = cache.len();
        let (_, _, stats) = run_cached(&scenarios, &caches, Some(1), CacheMode::Disabled, None);
        assert_eq!(stats, CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), before);

        // A None slot opts a scenario out even in ReadWrite mode.
        let (_, _, stats) = run_cached(
            &scenarios,
            &[Some(&cache), None],
            Some(1),
            CacheMode::ReadWrite,
            None,
        );
        assert_eq!(stats, CacheStats { hits: 1, misses: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cached_progress_counts_are_monotone_across_hits_and_misses() {
        let dir = temp_dir("progress");
        let cache = ResultCache::open_under(&dir).unwrap();
        let mut scenarios = Vec::new();
        for i in 0..4 {
            let mut s = quick(builtin::paper_defaults());
            s.name = format!("p{i}");
            scenarios.push(s);
        }
        let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| Some(&cache)).collect();
        // Prime two of the four.
        let (_, _, _) = run_cached(
            &scenarios[..2],
            &caches[..2],
            Some(1),
            CacheMode::ReadWrite,
            None,
        );
        let seen = std::sync::Mutex::new(Vec::new());
        let cb = |done: usize, total: usize, name: &str| {
            seen.lock().unwrap().push((done, total, name.to_owned()));
        };
        let (results, _, stats) = run_cached(
            &scenarios,
            &caches,
            Some(2),
            CacheMode::ReadWrite,
            Some(&cb),
        );
        assert_eq!(stats, CacheStats { hits: 2, misses: 2 });
        assert!(results.iter().all(|r| r.is_ok()));
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 4);
        let counts: Vec<usize> = seen.iter().map(|(d, _, _)| *d).collect();
        assert_eq!(
            counts,
            vec![1, 2, 3, 4],
            "one monotone sequence across hits and misses"
        );
        assert!(seen.iter().all(|(_, t, _)| *t == 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fifty_scenario_generated_fleet_is_bit_identical_warm() {
        // The cache battery at fleet scale: generate a 50-scenario Latin
        // hypercube, run it cold, then warm — every warm report (and its
        // serialized form) must be bit-identical to the cold run's, with
        // all 50 answered from the cache and zero busy time.
        let dir = temp_dir("fifty");
        let spec = GenSpec {
            method: GenMethod::LatinHypercube,
            count: 50,
            seed: 7,
            prefix: "lhs".into(),
            fields: vec![
                FieldSpec {
                    field: GenField::Lambda,
                    min: 0.25,
                    max: 0.75,
                    points: None,
                },
                FieldSpec {
                    field: GenField::ServiceMean,
                    min: 0.0625,
                    max: 0.125,
                    points: None,
                },
            ],
        };
        gen::write_fleet(
            &dir,
            &quick(builtin::paper_defaults()),
            &spec,
            FileFormat::Toml,
        )
        .unwrap();
        let fleet = load_dir(&dir).unwrap();
        assert_eq!(fleet.len(), 50);
        let scenarios: Vec<Scenario> = fleet.into_iter().map(|(_, s)| s).collect();
        let cache = ResultCache::open_under(&dir).unwrap();
        let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| Some(&cache)).collect();

        let (cold, _, stats) = run_cached(&scenarios, &caches, None, CacheMode::ReadWrite, None);
        assert_eq!(
            stats,
            CacheStats {
                hits: 0,
                misses: 50
            }
        );
        let (warm, metrics, stats) =
            run_cached(&scenarios, &caches, None, CacheMode::ReadWrite, None);
        assert_eq!(
            stats,
            CacheStats {
                hits: 50,
                misses: 0
            }
        );
        assert_eq!(metrics.busy_seconds, 0.0);
        for (c, w) in cold.iter().zip(&warm) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_eq!(c, w);
            assert_eq!(
                serde_json::to_string(c).unwrap(),
                serde_json::to_string(w).unwrap(),
                "serialized report must round-trip bit-identically"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_run_cached_writers_never_tear_entries() {
        // Two `run_cached` invocations racing on the same `.wsnem-cache/`
        // (two threads, same fleet): every store must publish whole, so a
        // third pass answers all scenarios from the cache with reports
        // identical to the racers'.
        let dir = temp_dir("race");
        let spec = GenSpec {
            method: GenMethod::Grid,
            count: 0,
            seed: 3,
            prefix: "race".into(),
            fields: vec![FieldSpec {
                field: GenField::Lambda,
                min: 0.2,
                max: 0.8,
                points: Some(8),
            }],
        };
        gen::write_fleet(
            &dir,
            &quick(builtin::paper_defaults()),
            &spec,
            FileFormat::Toml,
        )
        .unwrap();
        let scenarios: Vec<Scenario> = load_dir(&dir)
            .unwrap()
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        assert_eq!(scenarios.len(), 8);

        let runs = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let scenarios = &scenarios;
                    let dir = &dir;
                    scope.spawn(move || {
                        // Each racer opens its own handle on the shared dir,
                        // exactly as two concurrent processes would.
                        let cache = ResultCache::open_under(dir).unwrap();
                        let caches: Vec<Option<&ResultCache>> =
                            scenarios.iter().map(|_| Some(&cache)).collect();
                        let (results, _, _) =
                            run_cached(scenarios, &caches, Some(2), CacheMode::ReadWrite, None);
                        results.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>()
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().unwrap())
                .collect::<Vec<_>>()
        });
        // Deterministic seeds: both racers computed identical numbers.
        for (a, b) in runs[0].iter().zip(&runs[1]) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.backends[0].fractions, b.backends[0].fractions);
        }

        // No torn entries, no stray temp files left behind.
        let cache = ResultCache::open_under(&dir).unwrap();
        assert_eq!(cache.len(), 8);
        let leftovers: Vec<String> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");

        // Third pass: all hits, each report verbatim from ONE of the
        // racers. Last-write-wins means either racer's store may be the
        // surviving entry — the two differ only in timing fields, but a
        // torn or mixed entry would match neither bit-for-bit.
        let caches: Vec<Option<&ResultCache>> = scenarios.iter().map(|_| Some(&cache)).collect();
        let (third, metrics, stats) =
            run_cached(&scenarios, &caches, Some(2), CacheMode::ReadWrite, None);
        assert_eq!(stats, CacheStats { hits: 8, misses: 0 });
        assert_eq!(metrics.busy_seconds, 0.0);
        for ((t, a), b) in third.iter().zip(&runs[0]).zip(&runs[1]) {
            let t = t.as_ref().unwrap();
            assert!(
                t == a || t == b,
                "cached report matches neither racer: {t:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_cache_store_degrades_to_a_recorded_miss() {
        // Satellite: a cache whose directory has been ripped out from
        // under it (the portable stand-in for a read-only or full disk —
        // chmod tricks are bypassed by root) must not abort the batch:
        // stores fail, the run completes, and the next pass records
        // misses instead of hits.
        let dir = temp_dir("brokenstore");
        let cache_dir = dir.join("gone").join(crate::cache::DIR_NAME);
        let cache = ResultCache::open(&cache_dir).unwrap();
        std::fs::remove_dir_all(dir.join("gone")).unwrap();
        // Park a plain file where the cache dir was so nothing can recreate it.
        std::fs::write(dir.join("gone"), "not a directory").unwrap();

        let mut s = quick(builtin::paper_defaults());
        s.name = "degraded".into();
        let scenarios = vec![s.clone()];
        let caches = vec![Some(&cache)];
        let (results, _, stats) =
            run_cached(&scenarios, &caches, Some(1), CacheMode::ReadWrite, None);
        assert!(results[0].is_ok(), "{:?}", results[0]);
        assert_eq!(stats, CacheStats { hits: 0, misses: 1 });
        // The store failed silently-but-warned: nothing cached.
        assert_eq!(cache.len(), 0);
        let (results, _, stats) =
            run_cached(&scenarios, &caches, Some(1), CacheMode::ReadWrite, None);
        assert!(results[0].is_ok());
        assert_eq!(stats, CacheStats { hits: 0, misses: 1 }, "recorded miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_bounds_simulations_but_not_cache_hits() {
        let dir = temp_dir("watchdog");
        let cache = ResultCache::open_under(&dir).unwrap();
        let scenarios: Vec<Scenario> = (0..2)
            .map(|i| {
                let mut s = quick(builtin::paper_defaults());
                s.name = format!("w{i}");
                s
            })
            .collect();
        let caches = vec![Some(&cache), Some(&cache)];
        let zero_budget = FleetRunOptions {
            threads: Some(2),
            mode: CacheMode::ReadWrite,
            timeout_seconds: Some(0.0),
        };
        // A zero budget fails every simulation, and nothing is stored.
        let (results, _, stats) = run_cached_with(&scenarios, &caches, zero_budget, None);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(ScenarioError::Timeout { .. }))));
        assert_eq!(stats, CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), 0);
        // Once the cache holds the reports, the same budget answers both:
        // probes run outside the watchdog.
        let (cold, _, _) = run_cached(&scenarios, &caches, Some(2), CacheMode::ReadWrite, None);
        let (warm, metrics, stats) = run_cached_with(&scenarios, &caches, zero_budget, None);
        assert_eq!(stats, CacheStats { hits: 2, misses: 0 });
        assert_eq!(metrics.busy_seconds, 0.0);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.as_ref().unwrap(), w.as_ref().unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cached_preserves_input_order_and_isolates_failures() {
        let dir = temp_dir("order");
        let cache = ResultCache::open_under(&dir).unwrap();
        let mut good = quick(builtin::paper_defaults());
        good.name = "good".into();
        let mut bad = quick(builtin::paper_defaults());
        bad.name = "bad".into();
        bad.backends.clear(); // fails validation at run time
        let scenarios = vec![bad, good];
        let caches = vec![Some(&cache), Some(&cache)];
        let (results, _, stats) =
            run_cached(&scenarios, &caches, Some(2), CacheMode::ReadWrite, None);
        assert!(results[0].is_err());
        assert_eq!(results[1].as_ref().unwrap().scenario, "good");
        assert_eq!(stats, CacheStats { hits: 0, misses: 2 });
        // The failure was not cached; the success was.
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
