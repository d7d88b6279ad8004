//! Scenario execution: evaluate every requested backend, check cross-backend
//! agreement, walk sweeps and analyze networks — in parallel across
//! scenarios for batch runs.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use wsnem_core::{backend, BackendId, CpuModelParams, EvalOptions};
use wsnem_energy::{Battery, PowerProfile};
use wsnem_stats::par;

use crate::error::ScenarioError;
use crate::report::{
    AggregateNetworkReport, AgreementCheck, BackendReport, CohortNodeReport, HopDepthPercentile,
    LifetimeHistogramBin, NetworkReport, NodeReport, PhaseSeconds, ScenarioReport,
    SweepPointReport, SweepReport,
};
use crate::schema::Scenario;

/// Report shape only: networks larger than this (and all template-declared
/// networks, whatever their size) report in aggregate form instead of
/// per-node rows. Every network evaluates on the same structure-of-arrays
/// core either way.
pub const AGGREGATE_NODE_THRESHOLD: usize = 1000;

/// Nodes named individually in an aggregate report's worst-lifetime cohort.
const AGGREGATE_COHORT_SIZE: usize = 10;

/// Bins in an aggregate report's lifetime histogram.
const AGGREGATE_HISTOGRAM_BINS: usize = 10;

/// Hop-depth percentiles an aggregate report pins.
const AGGREGATE_HOP_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 100.0];

/// Utilization above which a node counts as near-unstable.
const AGGREGATE_NEAR_UNSTABLE_RHO: f64 = 0.9;

/// Aggregate wall-clock metrics for a batch run, as produced by
/// [`run_batch_with_metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchMetrics {
    /// Number of scenarios in the batch.
    pub scenarios: usize,
    /// Worker threads used (1 for the sequential path).
    pub workers: usize,
    /// Wall-clock time for the whole batch (s).
    pub wall_seconds: f64,
    /// Summed per-scenario busy time across all workers (s).
    pub busy_seconds: f64,
    /// `busy / (wall × workers)`, capped at 1 — how well the work queue
    /// kept the workers fed.
    pub utilization: f64,
    /// Completed scenarios per wall-clock second.
    pub scenarios_per_second: f64,
}

impl BatchMetrics {
    /// Build metrics from raw counts and clocks; `utilization` and
    /// `scenarios_per_second` are derived. Public so out-of-crate runners
    /// (the distributed coordinator) can rebuild whole-fleet metrics around
    /// their own cached/remote/local split.
    pub fn new(scenarios: usize, workers: usize, wall_seconds: f64, busy_seconds: f64) -> Self {
        let capacity = wall_seconds * workers as f64;
        BatchMetrics {
            scenarios,
            workers,
            wall_seconds,
            busy_seconds,
            utilization: if capacity > 0.0 {
                (busy_seconds / capacity).min(1.0)
            } else {
                0.0
            },
            scenarios_per_second: if wall_seconds > 0.0 {
                scenarios as f64 / wall_seconds
            } else {
                0.0
            },
        }
    }
}

/// Progress callback for [`run_batch_with_metrics`]: called once per finished
/// scenario with `(completed_so_far, total, scenario_name)`.
pub type BatchProgress<'a> = &'a (dyn Fn(usize, usize, &str) + Sync);

/// Run one scenario with default parallelism (DES/PN replications spread
/// over all cores).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    run_scenario_bounded(scenario, None, None)
}

/// Run a closure on a dedicated watchdog thread, waiting at most `seconds`
/// of wall-clock time for its result.
///
/// On timeout the worker thread is *abandoned*: it stays detached, its
/// eventual result is dropped, and the caller gets
/// [`ScenarioError::Timeout`]. The leaked thread keeps burning its core
/// until the closure returns on its own — acceptable for a watchdog whose
/// job is to keep one runaway point from wedging a whole fleet, and the
/// reason batch runners cap concurrent timeouts at the worker count. A
/// budget that clamps to zero times out without starting `f` at all: a
/// zero wait would otherwise race the thread and sometimes see its result.
pub fn call_with_timeout<T, F>(seconds: f64, f: F) -> Result<T, ScenarioError>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    // Sanitize before Duration::from_secs_f64, which panics on negative,
    // NaN or overflowing inputs.
    let budget = if seconds.is_finite() {
        seconds.clamp(0.0, 1.0e9)
    } else {
        1.0e9
    };
    if budget == 0.0 {
        return Err(ScenarioError::Timeout { seconds });
    }
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name("wsnem-watchdog".into())
        .spawn(move || {
            // A send error means the watchdog already fired and the
            // receiver is gone; the result is dropped on the floor.
            let _ = tx.send(f());
        })
        .map_err(|e| ScenarioError::Io(format!("failed to spawn watchdog thread: {e}")))?;
    match rx.recv_timeout(std::time::Duration::from_secs_f64(budget)) {
        Ok(v) => Ok(v),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(ScenarioError::Timeout { seconds }),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(ScenarioError::Io(
            "scenario worker thread terminated without a result".into(),
        )),
    }
}

/// Run one scenario, pinning the *inner* (per-backend replication) thread
/// count (`None` = all cores; the batch runner pins 1 because it already
/// parallelizes across scenarios), under an optional per-scenario
/// wall-clock watchdog (`--scenario-timeout`): with `timeout_seconds` set,
/// the point is marked failed with [`ScenarioError::Timeout`] instead of
/// hanging the batch.
pub fn run_scenario_bounded(
    scenario: &Scenario,
    inner_threads: Option<usize>,
    timeout_seconds: Option<f64>,
) -> Result<ScenarioReport, ScenarioError> {
    if let Some(seconds) = timeout_seconds {
        let scenario = scenario.clone();
        return call_with_timeout(seconds, move || {
            run_scenario_bounded(&scenario, inner_threads, None)
        })?;
    }
    scenario.validate()?;
    let started = Instant::now();
    let mut phase_seconds = PhaseSeconds::default();
    let profile = scenario.profile.build()?;
    let battery = scenario.battery.build()?;

    let base_started = Instant::now();
    let backends = eval_backends(scenario, scenario.cpu, &profile, &battery, inner_threads)?;
    let agreement = agreement_checks(scenario, &backends);
    phase_seconds.base_seconds = base_started.elapsed().as_secs_f64();

    let sweep_started = Instant::now();
    let sweep = match &scenario.sweep {
        None => None,
        Some(spec) => {
            let mut points = Vec::with_capacity(spec.values.len());
            for &v in &spec.values {
                let params = spec.axis.apply(scenario.cpu, v);
                let reports = eval_backends(scenario, params, &profile, &battery, inner_threads)?;
                points.push(SweepPointReport {
                    value: v,
                    backends: reports,
                });
            }
            // Schema validation rejects empty sweeps.
            let Some((best_value, best_power_mw)) = points
                .iter()
                .map(|p| (p.value, p.backends[0].mean_power_mw))
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                unreachable!("validated sweep has no points")
            };
            Some(SweepReport {
                axis: spec.axis.label().to_owned(),
                points,
                best_value,
                best_power_mw,
            })
        }
    };
    phase_seconds.sweep_seconds = sweep_started.elapsed().as_secs_f64();

    let network_started = Instant::now();
    let (network, network_aggregate) = match &scenario.network {
        None => (None, None),
        Some(spec) => analyze_network(scenario, spec, &profile, &battery, inner_threads)?,
    };
    phase_seconds.network_seconds = network_started.elapsed().as_secs_f64();

    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        schema_version: scenario.schema_version,
        backends,
        agreement,
        sweep,
        network,
        network_aggregate,
        phase_seconds,
        elapsed_seconds: started.elapsed().as_secs_f64(),
    })
}

/// Run many scenarios, parallelized across OS threads (`None` = available
/// parallelism), with aggregate wall-clock metrics and an optional progress
/// callback (invoked once per finished scenario, from whichever worker
/// finished it). Results come back in input order; per-scenario failures do
/// not abort the batch.
pub fn run_batch_with_metrics(
    scenarios: &[Scenario],
    threads: Option<usize>,
    on_done: Option<BatchProgress<'_>>,
) -> (Vec<Result<ScenarioReport, ScenarioError>>, BatchMetrics) {
    run_batch_with_options(scenarios, threads, on_done, None)
}

/// [`run_batch_with_metrics`] plus an optional per-scenario wall-clock
/// watchdog: a point that exceeds `timeout_seconds` is marked failed with
/// [`ScenarioError::Timeout`] while the rest of the batch keeps running.
pub fn run_batch_with_options(
    scenarios: &[Scenario],
    threads: Option<usize>,
    on_done: Option<BatchProgress<'_>>,
    timeout_seconds: Option<f64>,
) -> (Vec<Result<ScenarioReport, ScenarioError>>, BatchMetrics) {
    run_batch_hooked(
        scenarios,
        threads,
        on_done,
        timeout_seconds,
        &|_| None,
        &|_, _| {},
    )
}

/// The batch work queue behind every batch entry point.
///
/// Scenarios run on [`wsnem_stats::par::map_indexed`]. For each claimed
/// index `i` a worker first asks `probe(i)`: a report it returns answers
/// the scenario without running it and adds no busy time (the result
/// cache's hit path). Otherwise the scenario runs under the optional
/// watchdog and a successful report is handed to `store(i, report)` on the
/// same worker before it claims the next index. Results come back in input
/// order, and `on_done` sees one monotone `[done/total]` sequence.
pub(crate) fn run_batch_hooked(
    scenarios: &[Scenario],
    threads: Option<usize>,
    on_done: Option<BatchProgress<'_>>,
    timeout_seconds: Option<f64>,
    probe: &(dyn Fn(usize) -> Option<ScenarioReport> + Sync),
    store: &(dyn Fn(usize, &ScenarioReport) + Sync),
) -> (Vec<Result<ScenarioReport, ScenarioError>>, BatchMetrics) {
    let n = scenarios.len();
    if n == 0 {
        return (Vec::new(), BatchMetrics::new(0, 0, 0.0, 0.0));
    }
    let threads = par::workers(n, threads);
    // Across-scenario parallelism: pin each scenario's inner replication
    // fan-out to one thread so the batch does not oversubscribe cores; a
    // single worker leaves the inner fan-out at all cores.
    let inner_threads = par::inner_threads(threads);
    let batch_started = Instant::now();
    // Incremented and reported under one lock, so the callback observes
    // the completed counts in order whichever worker finishes. The count
    // is whole at every step, so a lock poisoned by a panicking callback
    // is safe to recover.
    let completed = std::sync::Mutex::new(0usize);
    let done = par::map_indexed(n, Some(threads), |i| {
        let (result, busy) = match probe(i) {
            Some(report) => (Ok(report), 0.0),
            None => {
                let started = Instant::now();
                let result = run_scenario_bounded(&scenarios[i], inner_threads, timeout_seconds);
                let busy = started.elapsed().as_secs_f64();
                if let Ok(report) = &result {
                    store(i, report);
                }
                (result, busy)
            }
        };
        if let Some(cb) = on_done {
            let mut c = completed.lock().unwrap_or_else(|e| e.into_inner());
            *c += 1;
            cb(*c, n, &scenarios[i].name);
        }
        (result, busy)
    });
    let wall = batch_started.elapsed().as_secs_f64();
    let busy_seconds = done.iter().map(|(_, busy)| busy).sum();
    let results = done.into_iter().map(|(result, _)| result).collect();
    (results, BatchMetrics::new(n, threads, wall, busy_seconds))
}

fn eval_backends(
    scenario: &Scenario,
    params: CpuModelParams,
    profile: &PowerProfile,
    battery: &Battery,
    inner_threads: Option<usize>,
) -> Result<Vec<BackendReport>, ScenarioError> {
    scenario
        .backends
        .iter()
        .map(|&b| eval_backend(b, scenario, params, profile, battery, inner_threads))
        .collect()
}

/// Assemble the per-evaluation options a scenario implies: inner-thread
/// pinning, the (schema v3) service distribution and — for backends that
/// honor it — the non-Poisson arrival workload.
pub(crate) fn scenario_eval_options(
    scenario: &Scenario,
    params: CpuModelParams,
    inner_threads: Option<usize>,
) -> EvalOptions {
    let custom_workload = scenario.workload.as_ref().filter(|w| !w.is_poisson());
    EvalOptions::default()
        .with_threads(inner_threads)
        .with_service(scenario.service.unwrap_or_default())
        .with_workload(custom_workload.map(|w| w.build(params.lambda)))
}

fn eval_backend(
    id: BackendId,
    scenario: &Scenario,
    params: CpuModelParams,
    profile: &PowerProfile,
    battery: &Battery,
    inner_threads: Option<usize>,
) -> Result<BackendReport, ScenarioError> {
    // `validate` checked registration against this same registry.
    let Some(solver) = backend::global().get(id) else {
        unreachable!("validated scenario names an unregistered backend")
    };
    // A backend that assumes Poisson arrivals ignores the workload override;
    // its numbers are then the Poisson *approximation* and the agreement
    // section quantifies the distortion (the paper's §5 methodology).
    let custom_workload = scenario.workload.as_ref().filter(|w| !w.is_poisson());
    let poisson_approximation = custom_workload.is_some() && solver.capabilities().assumes_poisson;

    let opts = scenario_eval_options(scenario, params, inner_threads);
    let e = solver.solve(&params, &opts)?;

    Ok(BackendReport::new(
        id,
        e.fractions,
        profile,
        battery,
        scenario.report.energy_horizon_s,
        e.mean_jobs,
        e.mean_latency,
        e.eval_seconds,
        poisson_approximation,
    ))
}

/// Each backend's agreement with the registry's agreement reference among
/// the backends that ran.
fn agreement_checks(scenario: &Scenario, backends: &[BackendReport]) -> Vec<AgreementCheck> {
    if backends.len() < 2 {
        return Vec::new();
    }
    let ids: Vec<BackendId> = backends.iter().map(|b| b.backend).collect();
    let reference_id = backend::global().agreement_reference(&ids);
    let reference = backends
        .iter()
        .find(|b| Some(b.backend) == reference_id)
        .unwrap_or(&backends[0]);
    backends
        .iter()
        .filter(|b| b.backend != reference.backend)
        .map(|b| {
            let delta = b.fractions.mean_abs_delta_pct(&reference.fractions);
            let energy_rel_error = if reference.energy.total_mj != 0.0 {
                (b.energy.total_mj - reference.energy.total_mj) / reference.energy.total_mj
            } else {
                0.0
            };
            AgreementCheck {
                backend: b.backend,
                reference: reference.backend,
                mean_abs_delta_pp: delta,
                energy_rel_error,
                within_tolerance: scenario
                    .report
                    .agreement_tolerance_pp
                    .map(|tol| delta <= tol),
            }
        })
        .collect()
}

/// The cheapest backend the scenario requested, by capability cost rank
/// (analytic over simulated) — no enum match, so custom backends slot in.
fn cheapest_backend(scenario: &Scenario, registry: &wsnem_core::BackendRegistry) -> BackendId {
    // Schema validation rejects empty backend lists.
    let Some(backend) = scenario.backends.iter().copied().min_by_key(|&b| {
        registry
            .capabilities_of(b)
            .map(|c| c.cost_rank)
            .unwrap_or(u8::MAX)
    }) else {
        unreachable!("validated scenario has no backends")
    };
    backend
}

/// Analyze a network on the structure-of-arrays core and report it: per
/// node for an explicit list of at most [`AGGREGATE_NODE_THRESHOLD`] nodes,
/// else as streaming aggregates that never materialize per-node rows, so a
/// 10^6-node report stays a few hundred bytes. Stars and routed topologies
/// share the one core: a star is a routed network whose forwarding loads
/// are all zero.
fn analyze_network(
    scenario: &Scenario,
    spec: &crate::schema::NetworkSpec,
    profile: &PowerProfile,
    battery: &Battery,
    inner_threads: Option<usize>,
) -> Result<(Option<NetworkReport>, Option<AggregateNetworkReport>), ScenarioError> {
    // The network layer evaluates one node (run) at a time.
    let registry = backend::global();
    let backend = cheapest_backend(scenario, registry);
    let soa = spec.build_soa(scenario.cpu, profile, battery)?;
    let analysis = soa
        .analyze_with(registry, backend, &EvalOptions::default(), inner_threads)
        .map_err(|e| ScenarioError::invalid("network", e.to_string()))?;
    let name = |i: Option<usize>| i.map(|i| soa.name(i)).unwrap_or_default();
    let topology = spec
        .topology
        .as_ref()
        .map_or("star", |t| t.label())
        .to_owned();
    let radio = spec
        .radio
        .as_ref()
        .map_or(wsnem_wsn::DEFAULT_RADIO_PRESET, |r| r.label())
        .to_owned();
    if spec.template.is_none() && soa.len() <= AGGREGATE_NODE_THRESHOLD {
        let nodes = (0..soa.len())
            .map(|i| {
                let run = analysis.run_for(i);
                NodeReport {
                    name: soa.name(i),
                    cpu_fractions: run.cpu_fractions,
                    cpu_power_mw: run.cpu_power_mw,
                    radio_power_mw: run.radio_power_mw,
                    total_power_mw: analysis.total_power_mw[i],
                    lifetime_days: analysis.lifetime_days[i],
                    hop_depth: analysis.depths[i],
                    forwarded_rx_pkts_s: analysis.forwarded[i],
                    radio_spec: spec.radio_spec_for(i).label().to_owned(),
                    radio_duty_cycle: soa.radio_for(i).duty_cycle().min(1.0),
                }
            })
            .collect();
        let report = NetworkReport {
            backend,
            topology,
            nodes,
            first_death_days: analysis.first_death_days(),
            mean_lifetime_days: analysis.mean_lifetime_days(),
            bottleneck: name(analysis.bottleneck()),
            max_hop_depth: analysis.max_hop_depth(),
            bottleneck_relay: name(analysis.bottleneck_relay()),
            sink_arrival_pkts_s: analysis.sink_arrival_pkts_s,
            radio,
        };
        return Ok((Some(report), None));
    }
    let worst_lifetime_cohort = analysis
        .worst_lifetime_cohort(AGGREGATE_COHORT_SIZE)
        .into_iter()
        .map(|i| CohortNodeReport {
            name: soa.name(i),
            hop_depth: analysis.depths[i],
            forwarded_rx_pkts_s: analysis.forwarded[i],
            rho: analysis.rho[i],
            total_power_mw: analysis.total_power_mw[i],
            lifetime_days: analysis.lifetime_days[i],
        })
        .collect();
    let report = AggregateNetworkReport {
        backend,
        topology,
        node_count: soa.len() as u64,
        first_death_days: analysis.first_death_days(),
        mean_lifetime_days: analysis.mean_lifetime_days(),
        total_power_mw: analysis.total_power_mw(),
        sink_arrival_pkts_s: analysis.sink_arrival_pkts_s,
        max_hop_depth: analysis.max_hop_depth(),
        bottleneck: name(analysis.bottleneck()),
        bottleneck_relay: name(analysis.bottleneck_relay()),
        hop_depth_percentiles: analysis
            .hop_depth_percentiles(&AGGREGATE_HOP_PERCENTILES)
            .into_iter()
            .map(|(percentile, hop_depth)| HopDepthPercentile {
                percentile,
                hop_depth,
            })
            .collect(),
        lifetime_histogram: analysis
            .lifetime_histogram(AGGREGATE_HISTOGRAM_BINS)
            .into_iter()
            .map(|b| LifetimeHistogramBin {
                lo_days: b.lo,
                hi_days: b.hi,
                count: b.count,
            })
            .collect(),
        worst_lifetime_cohort,
        near_unstable_count: analysis.near_unstable_count(AGGREGATE_NEAR_UNSTABLE_RHO) as u64,
        near_unstable_rho: AGGREGATE_NEAR_UNSTABLE_RHO,
        radio,
    };
    Ok((None, Some(report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{
        NetworkSpec, NodeSpec, ReportSpec, SweepAxis, SweepSpec, TemplateSpec, TopologySpec,
        WorkloadSpec, MAX_TEMPLATE_COUNT,
    };
    use wsnem_stats::dist::Dist;

    fn quick_scenario() -> Scenario {
        let mut s = Scenario::paper_template("quick");
        s.cpu = s
            .cpu
            .with_replications(2)
            .with_horizon(300.0)
            .with_warmup(20.0);
        s
    }

    #[test]
    fn runs_all_three_backends_and_agrees() {
        let report = run_scenario(&quick_scenario()).unwrap();
        assert_eq!(report.backends.len(), 3);
        for b in &report.backends {
            assert!(b.fractions.is_normalized(1e-6), "{:?}", b.fractions);
            assert!(b.mean_power_mw > 0.0);
            assert!(b.energy.total_mj > 0.0);
            assert!(b.battery_lifetime_days > 0.0);
            assert!(!b.poisson_approximation);
        }
        // Reference is DES; two checks (Markov, PetriNet).
        assert_eq!(report.agreement.len(), 2);
        for a in &report.agreement {
            assert_eq!(a.reference, BackendId::Des);
            assert!(a.mean_abs_delta_pp < 3.0, "{a:?}");
        }
    }

    #[test]
    fn sweep_reports_best_point() {
        let mut s = quick_scenario();
        s.backends = vec![BackendId::Markov];
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::PowerDownThreshold,
            values: vec![0.1, 0.5, 1.0],
        });
        let report = run_scenario(&s).unwrap();
        let sweep = report.sweep.unwrap();
        assert_eq!(sweep.points.len(), 3);
        // PXA271, light load: energy rises with T → smallest T wins (Fig. 5).
        assert_eq!(sweep.best_value, 0.1);
        assert_eq!(sweep.axis, "power_down_threshold");
    }

    #[test]
    fn bursty_workload_marks_poisson_approximation() {
        let mut s = quick_scenario();
        s.workload = Some(WorkloadSpec::BurstyOnOff {
            on: Dist::Deterministic(4.0),
            off: Dist::Deterministic(20.0),
            rate_on: 6.0,
        });
        s.report = ReportSpec {
            energy_horizon_s: 1000.0,
            agreement_tolerance_pp: Some(50.0),
        };
        let report = run_scenario(&s).unwrap();
        let markov = report
            .backends
            .iter()
            .find(|b| b.backend == BackendId::Markov)
            .unwrap();
        let des = report
            .backends
            .iter()
            .find(|b| b.backend == BackendId::Des)
            .unwrap();
        assert!(markov.poisson_approximation);
        assert!(!des.poisson_approximation);
        // Long quiet gaps → more standby than the Poisson approximation.
        assert!(des.fractions.standby > markov.fractions.standby);
    }

    #[test]
    fn network_section_finds_bottleneck() {
        let mut s = quick_scenario();
        s.backends = vec![BackendId::Markov];
        s.network = Some(NetworkSpec {
            nodes: vec![
                NodeSpec {
                    name: "lazy".into(),
                    event_rate: 0.02,
                    tx_per_event: 1.0,
                    rx_rate: 0.0,
                    radio: None,
                },
                NodeSpec {
                    name: "hot".into(),
                    event_rate: 2.0,
                    tx_per_event: 1.0,
                    rx_rate: 0.5,
                    radio: None,
                },
            ],
            topology: None,
            radio: None,
            template: None,
        });
        let report = run_scenario(&s).unwrap();
        let net = report.network.unwrap();
        assert_eq!(net.nodes.len(), 2);
        assert_eq!(net.bottleneck, "hot");
        assert!(net.first_death_days <= net.mean_lifetime_days);
        // v1 star semantics: one hop, nothing forwarded, no relay hot spot.
        assert_eq!(net.topology, "star");
        assert_eq!(net.max_hop_depth, 1);
        assert_eq!(net.bottleneck_relay, "");
        assert!(net.nodes.iter().all(|n| n.forwarded_rx_pkts_s == 0.0));
    }

    #[test]
    fn chain_topology_propagates_forwarding_load() {
        let mut s = quick_scenario();
        s.backends = vec![BackendId::Markov];
        let node = |name: &str| NodeSpec {
            name: name.into(),
            event_rate: 0.8,
            tx_per_event: 1.0,
            rx_rate: 0.0,
            radio: None,
        };
        s.network = Some(NetworkSpec {
            nodes: vec![node("relay"), node("mid"), node("leaf")],
            topology: Some(crate::schema::TopologySpec::Chain),
            radio: None,
            template: None,
        });
        let report = run_scenario(&s).unwrap();
        let net = report.network.unwrap();
        assert_eq!(net.topology, "chain");
        assert_eq!(net.max_hop_depth, 3);
        assert_eq!(net.bottleneck, "relay");
        assert_eq!(net.bottleneck_relay, "relay");
        assert!((net.sink_arrival_pkts_s - 2.4).abs() < 1e-12);
        let by_name = |n: &str| net.nodes.iter().find(|x| x.name == n).unwrap().clone();
        let (relay, mid, leaf) = (by_name("relay"), by_name("mid"), by_name("leaf"));
        assert_eq!((relay.hop_depth, mid.hop_depth, leaf.hop_depth), (1, 2, 3));
        assert!((relay.forwarded_rx_pkts_s - 1.6).abs() < 1e-12);
        assert!((mid.forwarded_rx_pkts_s - 0.8).abs() < 1e-12);
        assert_eq!(leaf.forwarded_rx_pkts_s, 0.0);
        // The load imbalance shows up as strictly ordered lifetimes.
        assert!(relay.lifetime_days < mid.lifetime_days);
        assert!(mid.lifetime_days < leaf.lifetime_days);
    }

    fn template_scenario(count: u64) -> Scenario {
        let mut s = quick_scenario();
        s.backends = vec![BackendId::Mg1];
        s.network = Some(NetworkSpec {
            nodes: vec![],
            topology: Some(TopologySpec::Tree { fanout: 2 }),
            radio: None,
            template: Some(TemplateSpec {
                count,
                prefix: "n".into(),
                event_rate: 0.01,
                tx_per_event: 1.0,
                rx_rate: 0.05,
            }),
        });
        s
    }

    #[test]
    fn template_network_reports_in_aggregate_form() {
        let report = run_scenario(&template_scenario(50)).unwrap();
        assert!(report.network.is_none());
        let agg = report.network_aggregate.clone().unwrap();
        assert_eq!(agg.backend, BackendId::Mg1);
        assert_eq!(agg.topology, "tree");
        assert_eq!(agg.node_count, 50);
        assert!(agg.first_death_days > 0.0);
        assert!(agg.first_death_days <= agg.mean_lifetime_days);
        // Root of a complete binary tree forwards everyone else's traffic.
        assert_eq!(agg.bottleneck, "n1");
        assert_eq!(agg.bottleneck_relay, "n1");
        assert!((agg.sink_arrival_pkts_s - 50.0 * 0.01).abs() < 1e-12);
        // fanout 2 over 50 nodes: depths 1..=5 (2^5 < 50+1 <= 2^6 - 1... 5 full levels plus a partial sixth).
        assert_eq!(agg.max_hop_depth, 6);
        // Percentiles are monotone and end at the max depth.
        let p = &agg.hop_depth_percentiles;
        assert_eq!(p.len(), 4);
        assert!(p.windows(2).all(|w| w[0].hop_depth <= w[1].hop_depth));
        assert_eq!(p.last().unwrap().hop_depth, agg.max_hop_depth);
        // Histogram covers every node exactly once.
        let total: u64 = agg.lifetime_histogram.iter().map(|b| b.count).sum();
        assert_eq!(total, 50);
        // Cohort is capped, sorted ascending, and leads with the bottleneck.
        assert_eq!(agg.worst_lifetime_cohort.len(), 10);
        assert_eq!(agg.worst_lifetime_cohort[0].name, agg.bottleneck);
        assert!(agg
            .worst_lifetime_cohort
            .windows(2)
            .all(|w| w[0].lifetime_days <= w[1].lifetime_days));
        assert_eq!(agg.near_unstable_rho, 0.9);
        // No per-node CSV rows for aggregate networks.
        assert_eq!(report.csv_rows().len(), 1);
        // The summary renders the aggregate block.
        let s = report.summary();
        assert!(s.contains("50 nodes (aggregate)"), "{s}");
        assert!(s.contains("lifetime histogram"), "{s}");
    }

    #[test]
    fn aggregate_path_matches_per_node_path_on_equivalent_network() {
        // The same homogeneous chain, declared twice: once as an explicit
        // node list (per-node report) and once as a template (aggregate
        // report). Both run on one core, so every shared figure is equal.
        let mut explicit = quick_scenario();
        explicit.backends = vec![BackendId::Mg1];
        explicit.network = Some(NetworkSpec {
            nodes: (1..=5)
                .map(|i| NodeSpec {
                    name: format!("n{i}"),
                    event_rate: 0.3,
                    tx_per_event: 1.0,
                    rx_rate: 0.05,
                    radio: None,
                })
                .collect(),
            topology: Some(TopologySpec::Chain),
            radio: None,
            template: None,
        });
        let mut templated = explicit.clone();
        templated.network = Some(NetworkSpec {
            nodes: vec![],
            topology: Some(TopologySpec::Chain),
            radio: None,
            template: Some(TemplateSpec {
                count: 5,
                prefix: "n".into(),
                event_rate: 0.3,
                tx_per_event: 1.0,
                rx_rate: 0.05,
            }),
        });
        let per_node = run_scenario(&explicit).unwrap().network.unwrap();
        let agg = run_scenario(&templated).unwrap().network_aggregate.unwrap();
        assert_eq!(agg.node_count as usize, per_node.nodes.len());
        assert_eq!(agg.bottleneck, per_node.bottleneck);
        assert_eq!(agg.bottleneck_relay, per_node.bottleneck_relay);
        assert_eq!(agg.max_hop_depth, per_node.max_hop_depth);
        assert_eq!(agg.sink_arrival_pkts_s, per_node.sink_arrival_pkts_s);
        assert_eq!(agg.first_death_days, per_node.first_death_days);
        assert_eq!(agg.mean_lifetime_days, per_node.mean_lifetime_days);
        let per_node_total: f64 = per_node.nodes.iter().map(|n| n.total_power_mw).sum();
        assert_eq!(agg.total_power_mw, per_node_total);
        // The cohort covers all five nodes and mirrors the per-node rows.
        assert_eq!(agg.worst_lifetime_cohort.len(), 5);
        for c in &agg.worst_lifetime_cohort {
            let row = per_node.nodes.iter().find(|n| n.name == c.name).unwrap();
            assert_eq!(c.hop_depth, row.hop_depth);
            assert_eq!(c.forwarded_rx_pkts_s, row.forwarded_rx_pkts_s);
            assert_eq!(c.total_power_mw, row.total_power_mw);
            assert_eq!(c.lifetime_days, row.lifetime_days);
        }
    }

    /// A homogeneous fanout-4 template tree of `count` nodes, light enough
    /// that its root relay stays stable at a thousand nodes.
    fn tree_template_scenario(count: usize) -> Scenario {
        let mut s = template_scenario(count as u64);
        let net = s.network.as_mut().unwrap();
        net.topology = Some(TopologySpec::Tree { fanout: 4 });
        net.template.as_mut().unwrap().event_rate = 1e-4;
        s
    }

    /// The same tree as an explicit node list named `n1…`.
    fn explicit_tree_scenario(count: usize) -> Scenario {
        let mut s = tree_template_scenario(count);
        let net = s.network.as_mut().unwrap();
        let t = net.template.take().unwrap();
        net.nodes = (1..=count)
            .map(|i| NodeSpec {
                name: format!("{}{i}", t.prefix),
                event_rate: t.event_rate,
                tx_per_event: t.tx_per_event,
                rx_rate: t.rx_rate,
                radio: None,
            })
            .collect();
        s
    }

    #[test]
    fn node_threshold_chooses_only_the_report_shape() {
        // At the threshold an explicit list still reports per node...
        let at = run_scenario(&explicit_tree_scenario(AGGREGATE_NODE_THRESHOLD)).unwrap();
        assert!(at.network_aggregate.is_none());
        assert_eq!(at.network.unwrap().nodes.len(), AGGREGATE_NODE_THRESHOLD);
        // ...one node more and it reports in aggregate form...
        let above = run_scenario(&explicit_tree_scenario(AGGREGATE_NODE_THRESHOLD + 1)).unwrap();
        assert!(above.network.is_none());
        let explicit = above.network_aggregate.unwrap();
        assert_eq!(explicit.node_count as usize, AGGREGATE_NODE_THRESHOLD + 1);
        // ...equal to the aggregate of the same tree as a template.
        let templated = tree_template_scenario(AGGREGATE_NODE_THRESHOLD + 1);
        let template = run_scenario(&templated).unwrap().network_aggregate.unwrap();
        assert_eq!(explicit, template);
    }

    #[test]
    fn largest_star_and_tree_templates_run_in_aggregate_form() {
        // u32::MAX - 1 nodes: routing, node evaluation and every aggregate,
        // the three node-order sums included, read runs, not nodes.
        for topology in [TopologySpec::Star, TopologySpec::Tree { fanout: 4 }] {
            let mut s = template_scenario(MAX_TEMPLATE_COUNT);
            let net = s.network.as_mut().unwrap();
            net.topology = Some(topology.clone());
            net.template.as_mut().unwrap().event_rate = 1e-12;
            let agg = run_scenario(&s).unwrap().network_aggregate.unwrap();
            assert_eq!(agg.node_count, MAX_TEMPLATE_COUNT, "{topology:?}");
            for sum in [
                agg.mean_lifetime_days,
                agg.total_power_mw,
                agg.sink_arrival_pkts_s,
            ] {
                assert!(sum.is_finite() && sum > 0.0, "{topology:?}: {sum}");
            }
            // Node-order sums of 4.3e9 terms drift by about 1e-7.
            let inflow = MAX_TEMPLATE_COUNT as f64 * 1e-12;
            assert!(
                (agg.sink_arrival_pkts_s / inflow - 1.0).abs() < 1e-6,
                "{topology:?}"
            );
            assert!(agg.first_death_days <= agg.mean_lifetime_days * (1.0 + 1e-6));
            let total: u64 = agg.lifetime_histogram.iter().map(|b| b.count).sum();
            assert_eq!(total, agg.node_count, "{topology:?}");
        }
    }

    #[test]
    fn batch_matches_sequential_and_keeps_order() {
        let mut a = quick_scenario();
        a.name = "a".into();
        a.backends = vec![BackendId::Markov, BackendId::Des];
        let mut b = quick_scenario();
        b.name = "b".into();
        b.backends = vec![BackendId::Markov];
        b.cpu = b.cpu.with_power_down_threshold(0.1);
        let scenarios = vec![a, b];

        let parallel = run_batch_with_metrics(&scenarios, Some(2), None).0;
        let sequential = run_batch_with_metrics(&scenarios, Some(1), None).0;
        assert_eq!(parallel.len(), 2);
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.scenario, s.scenario);
            // Replication streams are keyed by (seed, index), so thread
            // count must not change the numbers.
            for (pb, sb) in p.backends.iter().zip(&s.backends) {
                assert_eq!(pb.fractions, sb.fractions, "{}", p.scenario);
            }
        }
        assert_eq!(parallel[0].as_ref().unwrap().scenario, "a");
        assert_eq!(parallel[1].as_ref().unwrap().scenario, "b");
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(run_batch_with_metrics(&[], None, None).0.is_empty());
    }

    #[test]
    fn work_queue_drains_uneven_batches_in_order() {
        // More scenarios than workers, with wildly uneven costs (the
        // DES-backed ones dominate): the dynamic queue must return every
        // result, in input order, identical to the sequential run.
        let mut scenarios = Vec::new();
        for i in 0..7 {
            let mut s = quick_scenario();
            s.name = format!("s{i}");
            s.backends = if i % 3 == 0 {
                vec![BackendId::Des]
            } else {
                vec![BackendId::Markov]
            };
            scenarios.push(s);
        }
        let parallel = run_batch_with_metrics(&scenarios, Some(3), None).0;
        let sequential = run_batch_with_metrics(&scenarios, Some(1), None).0;
        assert_eq!(parallel.len(), 7);
        for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.scenario, format!("s{i}"));
            for (pb, sb) in p.backends.iter().zip(&s.backends) {
                assert_eq!(pb.fractions, sb.fractions, "{}", p.scenario);
            }
        }
    }

    #[test]
    fn batch_metrics_account_for_busy_time_and_progress() {
        let mut scenarios = Vec::new();
        for i in 0..4 {
            let mut s = quick_scenario();
            s.name = format!("m{i}");
            s.backends = vec![BackendId::Markov];
            scenarios.push(s);
        }
        let seen = std::sync::Mutex::new(Vec::new());
        let cb = |done: usize, total: usize, name: &str| {
            seen.lock().unwrap().push((done, total, name.to_owned()));
        };
        let (results, metrics) = run_batch_with_metrics(&scenarios, Some(2), Some(&cb));
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(metrics.scenarios, 4);
        assert_eq!(metrics.workers, 2);
        assert!(metrics.wall_seconds > 0.0);
        assert!(metrics.busy_seconds > 0.0);
        assert!(metrics.utilization > 0.0 && metrics.utilization <= 1.0);
        assert!(metrics.scenarios_per_second > 0.0);
        // Per-scenario phase timings sum to at most the total elapsed time.
        for r in &results {
            let r = r.as_ref().unwrap();
            let p = r.phase_seconds;
            assert!(
                p.base_seconds + p.sweep_seconds + p.network_seconds <= r.elapsed_seconds + 1e-9,
                "{p:?} vs {}",
                r.elapsed_seconds
            );
            assert!(p.base_seconds > 0.0);
        }
        // The progress callback fired once per scenario with a monotonically
        // increasing completed count; order across workers is arbitrary.
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 4);
        let mut counts: Vec<usize> = seen.iter().map(|(d, _, _)| *d).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3, 4]);
        assert!(seen.iter().all(|(_, t, _)| *t == 4));
        let mut names: Vec<&str> = seen.iter().map(|(_, _, n)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["m0", "m1", "m2", "m3"]);
        // Sequential path produces metrics too.
        let (_, seq) = run_batch_with_metrics(&scenarios[..1], Some(1), None);
        assert_eq!(seq.workers, 1);
        assert!(seq.utilization > 0.0);
    }

    #[test]
    fn watchdog_bounds_runaway_scenarios() {
        // A quick closure beats the watchdog and returns its value.
        assert_eq!(call_with_timeout(5.0, || 42).unwrap(), 42);
        // A stalled closure is abandoned with a typed Timeout error.
        let err = call_with_timeout(0.05, || {
            std::thread::sleep(std::time::Duration::from_millis(400));
            0
        })
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Timeout { .. }), "{err}");
        assert!(err.to_string().contains("watchdog"), "{err}");

        // Batch path: a DES point with an absurd horizon is marked failed
        // by the watchdog while the analytic point completes normally.
        let mut slow = quick_scenario();
        slow.name = "slow".into();
        slow.backends = vec![BackendId::Des];
        slow.cpu = slow.cpu.with_replications(1).with_horizon(5.0e7);
        let mut fast = quick_scenario();
        fast.name = "fast".into();
        fast.backends = vec![BackendId::Markov];
        let (results, metrics) = run_batch_with_options(&[slow, fast], Some(2), None, Some(0.2));
        assert!(
            matches!(results[0], Err(ScenarioError::Timeout { seconds }) if seconds == 0.2),
            "{:?}",
            results[0]
        );
        assert!(results[1].is_ok(), "{:?}", results[1]);
        assert_eq!(metrics.scenarios, 2);
    }

    #[test]
    fn zero_budget_times_out_every_time_without_running() {
        // A budget that clamps to zero never starts the closure, so even a
        // quick one cannot beat the watchdog.
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut fast = quick_scenario();
        fast.backends = vec![BackendId::Markov];
        for seconds in std::iter::repeat_n([0.0, -1.0], 100).flatten() {
            let counter = ran.clone();
            let err = call_with_timeout(seconds, move || {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            })
            .unwrap_err();
            assert!(matches!(err, ScenarioError::Timeout { .. }), "{err}");
            let err = run_scenario_bounded(&fast, Some(1), Some(seconds)).unwrap_err();
            assert!(matches!(err, ScenarioError::Timeout { .. }), "{err}");
        }
        assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn invalid_scenario_fails_cleanly_in_batch() {
        let mut bad = quick_scenario();
        bad.backends.clear();
        let good = quick_scenario();
        let results = run_batch_with_metrics(&[bad, good], Some(2), None).0;
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
    }
}
