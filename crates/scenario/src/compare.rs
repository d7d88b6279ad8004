//! Cross-backend comparison matrices — the paper's Tables 4/5 as a report
//! section, generalized to any scenario.
//!
//! [`compare_scenario`] runs **every registered backend** (not just the ones
//! the scenario requests) over the scenario's base parameters and each sweep
//! point, then reports per-state occupancy deltas against the ground-truth
//! reference in percentage points, together with the measured wall-clock
//! cost per backend — the paper's §6 accuracy-vs-cost trade-off, computed
//! instead of asserted. Backends that cannot evaluate a point (an
//! unregistered capability, out-of-domain parameters) contribute an error
//! cell rather than aborting the matrix.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use wsnem_core::{backend, BackendId, BackendRegistry, CpuModelParams};
use wsnem_energy::StateFractions;

use crate::error::ScenarioError;
use crate::runner::scenario_eval_options;
use crate::schema::Scenario;

/// Per-state occupancy difference against the reference, in percentage
/// points (the paper's Table 4 unit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateDeltaPp {
    /// Δ standby (pp).
    pub standby: f64,
    /// Δ powerup (pp).
    pub powerup: f64,
    /// Δ idle (pp).
    pub idle: f64,
    /// Δ active (pp).
    pub active: f64,
}

impl StateDeltaPp {
    fn between(b: &StateFractions, reference: &StateFractions) -> Self {
        Self {
            standby: 100.0 * (b.standby - reference.standby),
            powerup: 100.0 * (b.powerup - reference.powerup),
            idle: 100.0 * (b.idle - reference.idle),
            active: 100.0 * (b.active - reference.active),
        }
    }

    /// Largest absolute per-state delta (pp).
    pub fn max_abs(&self) -> f64 {
        self.standby
            .abs()
            .max(self.powerup.abs())
            .max(self.idle.abs())
            .max(self.active.abs())
    }
}

/// One backend's verdict at one comparison point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareCell {
    /// The backend.
    pub backend: BackendId,
    /// Steady-state occupancy, when the backend evaluated the point.
    pub fractions: Option<StateFractions>,
    /// Per-state delta vs the reference backend (pp); `None` for the
    /// reference itself or when either side failed.
    pub delta_pp: Option<StateDeltaPp>,
    /// Mean absolute per-state delta (pp) — the Table 4 summary metric.
    pub mean_abs_delta_pp: Option<f64>,
    /// Wall-clock evaluation cost (s) — the §6 trade-off, measured.
    pub eval_seconds: f64,
    /// Why the backend could not evaluate this point, when it could not.
    pub error: Option<String>,
}

/// One row of the matrix: a parameter point with every backend's cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareRow {
    /// Swept value at this point (`None` for the scenario's base point).
    pub value: Option<f64>,
    /// Per-backend cells, in registry order.
    pub cells: Vec<CompareCell>,
}

/// The full cross-backend comparison matrix for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareReport {
    /// Scenario name.
    pub scenario: String,
    /// Sweep axis label (`None` when the scenario declares no sweep — the
    /// matrix then has the single base row).
    pub axis: Option<String>,
    /// Backends compared, in registry order.
    pub backends: Vec<BackendId>,
    /// The reference backend deltas are measured against (the registered
    /// ground truth, by capability).
    pub reference: BackendId,
    /// One row per evaluated point.
    pub rows: Vec<CompareRow>,
    /// Largest mean-absolute delta (pp) over all non-reference cells —
    /// the matrix's single pass/fail number.
    pub max_mean_abs_delta_pp: f64,
    /// Total wall-clock seconds per backend, summed over rows (§6).
    pub backend_seconds: Vec<BackendSeconds>,
    /// Total matrix wall-clock time (s).
    pub elapsed_seconds: f64,
}

/// Wall-clock total for one backend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendSeconds {
    /// The backend.
    pub backend: BackendId,
    /// Summed evaluation time (s).
    pub seconds: f64,
}

/// Utilization below which tiered comparison (`wsnem compare --tiered`)
/// skips the simulation backends: at low ρ the analytic backends are exact
/// and the simulators only add wall-clock cost and Monte-Carlo noise. At
/// and above this threshold, heavy-traffic effects are what simulation is
/// for, so every backend runs.
pub const TIERED_RHO_THRESHOLD: f64 = 0.9;

/// Compare every backend of the built-in registry on a scenario.
pub fn compare_scenario(scenario: &Scenario) -> Result<CompareReport, ScenarioError> {
    compare_scenario_with(scenario, backend::global(), None)
}

/// Compare every backend of an explicit registry, pinning the inner
/// replication thread count (`None` = available parallelism).
pub fn compare_scenario_with(
    scenario: &Scenario,
    registry: &BackendRegistry,
    inner_threads: Option<usize>,
) -> Result<CompareReport, ScenarioError> {
    compare_impl(scenario, registry, inner_threads, None)
}

/// [`compare_scenario_with`] with capability-driven tiering: points whose
/// utilization ρ = λ·E\[S\] stays below [`TIERED_RHO_THRESHOLD`] run only the
/// analytic backends; the simulators get a "skipped by tiering" cell at
/// zero cost. Points at or above the threshold compare every backend, as
/// the untiered matrix does.
pub fn compare_scenario_tiered(
    scenario: &Scenario,
    registry: &BackendRegistry,
    inner_threads: Option<usize>,
) -> Result<CompareReport, ScenarioError> {
    compare_impl(
        scenario,
        registry,
        inner_threads,
        Some(TIERED_RHO_THRESHOLD),
    )
}

fn compare_impl(
    scenario: &Scenario,
    registry: &BackendRegistry,
    inner_threads: Option<usize>,
    tier: Option<f64>,
) -> Result<CompareReport, ScenarioError> {
    // Valid scenarios name at least one backend, each registered here.
    scenario.validate_with(registry)?;
    let started = Instant::now();
    let backends = registry.ids();
    let Some(reference) = registry.agreement_reference(&backends) else {
        unreachable!("a validated scenario's registry is non-empty")
    };

    let mut points: Vec<(Option<f64>, CpuModelParams)> = vec![(None, scenario.cpu)];
    if let Some(sweep) = &scenario.sweep {
        for &v in &sweep.values {
            points.push((Some(v), sweep.axis.apply(scenario.cpu, v)));
        }
    }

    let mut rows = Vec::with_capacity(points.len());
    let mut backend_seconds: Vec<BackendSeconds> = backends
        .iter()
        .map(|&backend| BackendSeconds {
            backend,
            seconds: 0.0,
        })
        .collect();
    let mut max_mean_abs_delta_pp = 0.0f64;

    for (value, params) in points {
        let opts = scenario_eval_options(scenario, params, inner_threads);
        // Tiering: below the ρ threshold only analytic backends run — the
        // closed forms are exact there, and the simulators would just burn
        // wall-clock confirming them.
        let skip_simulated = tier.and_then(|threshold| {
            use wsnem_stats::dist::Sample;
            let service = scenario.service.unwrap_or_default();
            let rho = params.lambda * service.to_dist(params.mu).mean();
            (rho < threshold).then_some((rho, threshold))
        });
        let evals: Vec<(BackendId, Result<wsnem_core::ModelEvaluation, String>, f64)> = backends
            .iter()
            .map(|&id| {
                let analytic = registry
                    .capabilities_of(id)
                    .map(|c| c.analytic)
                    .unwrap_or(false);
                if let Some((rho, threshold)) = skip_simulated.filter(|_| !analytic) {
                    let msg = format!("skipped by tiering (rho = {rho:.3} < {threshold})");
                    return (id, Err(msg), 0.0);
                }
                let t0 = Instant::now();
                let result = registry
                    .solve(id, &params, &opts)
                    .map_err(|e| e.to_string());
                let spent = result
                    .as_ref()
                    .map(|e| e.eval_seconds)
                    .unwrap_or_else(|_| t0.elapsed().as_secs_f64());
                (id, result, spent)
            })
            .collect();
        let reference_fractions = evals
            .iter()
            .find(|(id, _, _)| *id == reference)
            .and_then(|(_, r, _)| r.as_ref().ok())
            .map(|e| e.fractions);

        let mut cells = Vec::with_capacity(evals.len());
        for ((id, result, spent), totals) in evals.iter().zip(&mut backend_seconds) {
            totals.seconds += spent;
            let cell = match result {
                Err(msg) => CompareCell {
                    backend: *id,
                    fractions: None,
                    delta_pp: None,
                    mean_abs_delta_pp: None,
                    eval_seconds: *spent,
                    error: Some(msg.clone()),
                },
                Ok(e) => {
                    let deltas = reference_fractions.filter(|_| *id != reference).map(|r| {
                        (
                            StateDeltaPp::between(&e.fractions, &r),
                            e.fractions.mean_abs_delta_pct(&r),
                        )
                    });
                    if let Some((_, mean)) = &deltas {
                        max_mean_abs_delta_pp = max_mean_abs_delta_pp.max(*mean);
                    }
                    CompareCell {
                        backend: *id,
                        fractions: Some(e.fractions),
                        delta_pp: deltas.map(|(d, _)| d),
                        mean_abs_delta_pp: deltas.map(|(_, m)| m),
                        eval_seconds: *spent,
                        error: None,
                    }
                }
            };
            cells.push(cell);
        }
        rows.push(CompareRow { value, cells });
    }

    Ok(CompareReport {
        scenario: scenario.name.clone(),
        axis: scenario.sweep.as_ref().map(|s| s.axis.label().to_owned()),
        backends,
        reference,
        rows,
        max_mean_abs_delta_pp,
        backend_seconds,
        elapsed_seconds: started.elapsed().as_secs_f64(),
    })
}

impl CompareReport {
    /// CSV header matching [`CompareReport::csv_rows`].
    pub const CSV_HEADER: &'static str = "scenario,axis,value,backend,reference,\
        standby_frac,powerup_frac,idle_frac,active_frac,\
        d_standby_pp,d_powerup_pp,d_idle_pp,d_active_pp,mean_abs_delta_pp,\
        eval_seconds,backend_total_seconds,error";

    /// Flatten the matrix into CSV rows (one per backend per point).
    pub fn csv_rows(&self) -> Vec<String> {
        use crate::report::{csv_field, opt};
        let axis = self.axis.as_deref().unwrap_or("");
        let mut out = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                let f = c.fractions;
                let d = c.delta_pp;
                // The per-backend wall-clock total used to live only in the
                // JSON/summary outputs; the CSV dropped it. Every cell now
                // carries its backend's matrix-wide total alongside the
                // per-point cost.
                let backend_total = self
                    .backend_seconds
                    .iter()
                    .find(|b| b.backend == c.backend)
                    .map(|b| b.seconds)
                    .unwrap_or(0.0);
                out.push(format!(
                    "{scenario},{axis},{value},{backend},{reference},{},{},{},{},{},{},{},{},{},{},{backend_total},{error}",
                    opt(f.map(|x| x.standby)),
                    opt(f.map(|x| x.powerup)),
                    opt(f.map(|x| x.idle)),
                    opt(f.map(|x| x.active)),
                    opt(d.map(|x| x.standby)),
                    opt(d.map(|x| x.powerup)),
                    opt(d.map(|x| x.idle)),
                    opt(d.map(|x| x.active)),
                    opt(c.mean_abs_delta_pp),
                    c.eval_seconds,
                    scenario = csv_field(&self.scenario),
                    value = opt(row.value),
                    backend = c.backend,
                    reference = self.reference,
                    error = csv_field(c.error.as_deref().unwrap_or_default()),
                ));
            }
        }
        out
    }

    /// Human-readable matrix in the shape of the paper's Tables 4/5: one
    /// block per point, one line per backend with state percentages, the
    /// per-state deltas in pp and the measured evaluation cost.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "comparison matrix: {} ({} backends, reference {})\n",
            self.scenario,
            self.backends.len(),
            self.reference
        );
        for row in &self.rows {
            match (self.axis.as_deref(), row.value) {
                (Some(axis), Some(v)) => out.push_str(&format!("  {axis} = {v}\n")),
                _ => out.push_str("  base parameters\n"),
            }
            out.push_str(&format!(
                "    {:<12} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9} {:>9} {:>9} | {:>8} {:>10}\n",
                "backend",
                "stby%",
                "pwrup%",
                "idle%",
                "activ%",
                "Δstby",
                "Δpwrup",
                "Δidle",
                "Δactiv",
                "meanΔpp",
                "eval s",
            ));
            for c in &row.cells {
                match (&c.fractions, &c.error) {
                    (Some(f), _) => {
                        let d = c.delta_pp;
                        let dd = |get: fn(&StateDeltaPp) -> f64| {
                            d.map(|x| format!("{:+9.3}", get(&x)))
                                .unwrap_or_else(|| format!("{:>9}", "-"))
                        };
                        out.push_str(&format!(
                            "    {:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {} {} {} {} | {:>8} {:>10.4}\n",
                            c.backend.to_string(),
                            100.0 * f.standby,
                            100.0 * f.powerup,
                            100.0 * f.idle,
                            100.0 * f.active,
                            dd(|x| x.standby),
                            dd(|x| x.powerup),
                            dd(|x| x.idle),
                            dd(|x| x.active),
                            c.mean_abs_delta_pp
                                .map(|m| format!("{m:8.3}"))
                                .unwrap_or_else(|| format!("{:>8}", "ref")),
                            c.eval_seconds,
                        ));
                    }
                    (None, err) => out.push_str(&format!(
                        "    {:<12} unavailable: {}\n",
                        c.backend.to_string(),
                        err.as_deref().unwrap_or("unknown error")
                    )),
                }
            }
        }
        out.push_str(&format!(
            "  max mean |Δ| = {:.3} pp over {} point(s)\n",
            self.max_mean_abs_delta_pp,
            self.rows.len()
        ));
        let costs: Vec<String> = self
            .backend_seconds
            .iter()
            .map(|b| format!("{} {:.4}s", b.backend, b.seconds))
            .collect();
        out.push_str(&format!(
            "  wall-clock per backend: {}  (total {:.3}s)\n",
            costs.join(", "),
            self.elapsed_seconds
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SweepAxis, SweepSpec};

    fn quick_scenario() -> Scenario {
        let mut s = Scenario::paper_template("compare-quick");
        s.cpu = s
            .cpu
            .with_replications(4)
            .with_horizon(1500.0)
            .with_warmup(100.0);
        s
    }

    #[test]
    fn matrix_covers_every_registered_backend() {
        let report = compare_scenario(&quick_scenario()).unwrap();
        assert_eq!(report.backends, BackendId::ALL.to_vec());
        assert_eq!(report.reference, BackendId::Des);
        assert_eq!(report.rows.len(), 1, "no sweep → base row only");
        assert!(report.axis.is_none());
        let row = &report.rows[0];
        assert_eq!(row.cells.len(), 4);
        for c in &row.cells {
            assert!(c.error.is_none(), "{:?}", c);
            assert!(c.fractions.unwrap().is_normalized(1e-6));
            if c.backend == report.reference {
                assert!(c.delta_pp.is_none());
            } else {
                assert!(c.mean_abs_delta_pp.unwrap() < 2.0, "{c:?}");
                assert!(c.delta_pp.unwrap().max_abs() < 2.0, "{c:?}");
            }
        }
        // Paper Table 4 at D = 1 ms: everyone agrees.
        assert!(report.max_mean_abs_delta_pp < 2.0);
        // §6: analytic backends are orders of magnitude cheaper.
        let secs = |id: BackendId| {
            report
                .backend_seconds
                .iter()
                .find(|b| b.backend == id)
                .unwrap()
                .seconds
        };
        assert!(secs(BackendId::Markov) < secs(BackendId::Des));
        let s = report.summary();
        for id in BackendId::ALL {
            assert!(s.contains(id.name()), "{s}");
        }
        assert!(s.contains("max mean |Δ|"), "{s}");
    }

    #[test]
    fn sweep_points_become_rows() {
        let mut s = quick_scenario();
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::PowerDownThreshold,
            values: vec![0.2, 0.8],
        });
        let report = compare_scenario(&s).unwrap();
        assert_eq!(report.axis.as_deref(), Some("power_down_threshold"));
        assert_eq!(report.rows.len(), 3, "base + 2 sweep points");
        assert_eq!(report.rows[1].value, Some(0.2));
        assert_eq!(report.rows[2].value, Some(0.8));
        let csv = report.csv_rows();
        assert_eq!(csv.len(), 3 * 4);
        let cols = CompareReport::CSV_HEADER.split(',').count();
        for row in &csv {
            assert_eq!(row.split(',').count(), cols, "{row}");
        }
        assert!(csv[4].contains(",power_down_threshold,0.2,"), "{}", csv[4]);
    }

    #[test]
    fn tiered_compare_skips_simulators_below_rho_threshold() {
        // The paper defaults sit far below the 0.9 tier — only the
        // analytic backends run at the base point. A λ-sweep point pushed
        // to ρ = 0.95 crosses the tier and runs everything again.
        let mut s = quick_scenario();
        let mu = s.cpu.mu;
        s.sweep = Some(SweepSpec {
            axis: SweepAxis::Lambda,
            values: vec![0.95 * mu],
        });
        let registry = backend::global();
        let report = compare_scenario_tiered(&s, registry, None).unwrap();
        assert_eq!(report.rows.len(), 2);
        for c in &report.rows[0].cells {
            let analytic = registry.capabilities_of(c.backend).unwrap().analytic;
            if analytic {
                assert!(c.error.is_none(), "{c:?}");
                assert!(c.fractions.is_some(), "{c:?}");
            } else {
                let err = c.error.as_deref().unwrap();
                assert!(err.contains("skipped by tiering"), "{err}");
                assert!(err.contains("< 0.9"), "{err}");
                assert_eq!(c.eval_seconds, 0.0);
                assert!(c.fractions.is_none());
                assert!(c.delta_pp.is_none());
            }
        }
        // Above the threshold every backend evaluates, including the
        // simulators.
        for c in &report.rows[1].cells {
            assert!(c.error.is_none(), "{c:?}");
            assert!(c.fractions.is_some(), "{c:?}");
        }
        // The untiered matrix is untouched by the new path: all cells run.
        let full = compare_scenario_with(&s, registry, None).unwrap();
        for row in &full.rows {
            for c in &row.cells {
                assert!(c.error.is_none(), "{c:?}");
            }
        }
    }

    #[test]
    fn incapable_backends_become_error_cells_not_failures() {
        // The closed-form Markov model cannot take deterministic service —
        // its cell must carry the error while the rest of the matrix
        // survives. (The scenario's own backend list must be capable, or
        // validation rejects it before the matrix runs.)
        let mut s = quick_scenario();
        s.service = Some(wsnem_core::ServiceDist::Deterministic);
        s.backends = vec![BackendId::Mg1, BackendId::Des];
        let report = compare_scenario(&s).unwrap();
        let row = &report.rows[0];
        let markov = row
            .cells
            .iter()
            .find(|c| c.backend == BackendId::Markov)
            .unwrap();
        assert!(markov.error.is_some(), "{markov:?}");
        assert!(markov.fractions.is_none());
        for c in row.cells.iter().filter(|c| c.backend != BackendId::Markov) {
            assert!(c.error.is_none(), "{c:?}");
        }
        assert!(report.summary().contains("unavailable"));
    }

    #[test]
    fn non_exponential_service_blanks_analytic_cells() {
        let mut s = quick_scenario();
        s.service = Some(wsnem_core::ServiceDist::Deterministic);
        s.backends = vec![BackendId::PetriNet, BackendId::Des];
        let report = compare_scenario(&s).unwrap();
        let row = &report.rows[0];
        for c in &row.cells {
            let caps = wsnem_core::backend::global()
                .capabilities_of(c.backend)
                .unwrap();
            if caps.supports_service_dist {
                assert!(c.error.is_none(), "{c:?}");
            } else {
                let err = c.error.as_deref().unwrap();
                assert!(err.contains("does not support"), "{err}");
            }
        }
        // The capable pair still agrees on fixed-length jobs.
        assert!(report.max_mean_abs_delta_pp < 2.0, "{report:?}");
    }

    #[test]
    fn csv_carries_per_backend_wall_clock() {
        let report = compare_scenario(&quick_scenario()).unwrap();
        let header: Vec<&str> = CompareReport::CSV_HEADER.split(',').collect();
        let backend_col = header
            .iter()
            .position(|&h| h == "backend_total_seconds")
            .expect("header names the backend wall-clock column");
        let cols = header.len();
        for row in report.csv_rows() {
            let fields: Vec<&str> = row.split(',').collect();
            assert_eq!(fields.len(), cols, "{row}");
            // Round-trip: the CSV cell parses back to the report's
            // per-backend total, exactly as formatted.
            let backend: BackendId = fields[3].parse().unwrap();
            let expected = report
                .backend_seconds
                .iter()
                .find(|b| b.backend == backend)
                .unwrap()
                .seconds;
            let parsed: f64 = fields[backend_col]
                .parse()
                .unwrap_or_else(|e| panic!("unparseable wall clock in {row}: {e}"));
            assert_eq!(parsed.to_string(), expected.to_string(), "{row}");
            assert!(parsed > 0.0, "{row}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let mut s = quick_scenario();
        s.cpu = s.cpu.with_replications(2).with_horizon(300.0);
        let report = compare_scenario(&s).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: CompareReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
