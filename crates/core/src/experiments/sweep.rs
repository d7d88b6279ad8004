//! Power-Down-Threshold sweeps — the x-axis of Figs. 4 and 5.

use wsnem_energy::PowerProfile;
use wsnem_stats::par;

use crate::backend::{self, BackendId, EvalOptions};
use crate::error::CoreError;
use crate::evaluation::ModelEvaluation;
use crate::params::CpuModelParams;

/// One sweep point: the three models evaluated at the same `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The Power Down Threshold of this point (s).
    pub t: f64,
    /// Supplementary-variable Markov evaluation.
    pub markov: ModelEvaluation,
    /// EDSPN evaluation.
    pub petri: ModelEvaluation,
    /// DES ground truth.
    pub des: ModelEvaluation,
}

impl SweepPoint {
    /// Evaluation of the given backend. Panics for a backend this sweep did
    /// not run (the paper's sweeps cover Markov, PetriNet and Des).
    pub fn of(&self, kind: BackendId) -> &ModelEvaluation {
        [&self.markov, &self.petri, &self.des]
            .into_iter()
            .find(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("backend `{kind}` is not part of a threshold sweep"))
    }
}

/// A completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Shared parameters (T is overridden per point).
    pub params: CpuModelParams,
    /// Points in ascending `T`.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The per-point percentages of one state (canonical index 0..4) for one
    /// model — a single curve of Fig. 4.
    pub fn percent_series(&self, kind: BackendId, state_index: usize) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.of(kind).fractions.as_percentages()[state_index])
            .collect()
    }

    /// Energy (J) over the sweep for one model — a curve of Fig. 5
    /// (Eq. 25 with the configured horizon).
    pub fn energy_series(&self, kind: BackendId, profile: &PowerProfile) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.of(kind).energy_joules(profile, self.params.horizon))
            .collect()
    }

    /// The threshold values (x-axis).
    pub fn t_values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.t).collect()
    }
}

/// Sweep descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSweep {
    /// Base parameters (T overridden per point).
    pub params: CpuModelParams,
    /// Threshold values to evaluate.
    pub t_values: Vec<f64>,
}

impl ThresholdSweep {
    /// The paper's Fig. 4/5 sweep: `T ∈ {0.0, 0.1, …, 1.0}` at the given
    /// Power Up Delay `D`.
    pub fn paper(params: CpuModelParams, d: f64) -> Self {
        Self {
            params: params.with_power_up_delay(d),
            t_values: (0..=10).map(|i| i as f64 * 0.1).collect(),
        }
    }

    /// Run the sweep, parallelizing across points (each point's models run
    /// single-threaded so the parallelism is not nested).
    pub fn run(&self) -> Result<SweepResult, CoreError> {
        self.params.validate()?;
        let points = par::map_indexed(self.t_values.len(), None, |i| {
            evaluate_point(self.params, self.t_values[i])
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        Ok(SweepResult {
            params: self.params,
            points,
        })
    }
}

fn evaluate_point(base: CpuModelParams, t: f64) -> Result<SweepPoint, CoreError> {
    let params = base.with_power_down_threshold(t);
    let opts = EvalOptions::default().with_threads(Some(1));
    let solve = |id| backend::global().solve(id, &params, &opts);
    let markov = solve(BackendId::Markov)?;
    let petri = solve(BackendId::PetriNet)?;
    let des = solve(BackendId::Des)?;
    Ok(SweepPoint {
        t,
        markov,
        petri,
        des,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> SweepResult {
        let params = CpuModelParams::paper_defaults()
            .with_replications(4)
            .with_horizon(800.0)
            .with_warmup(50.0);
        ThresholdSweep {
            params,
            t_values: vec![0.0, 0.25, 0.5, 1.0],
        }
        .run()
        .unwrap()
    }

    #[test]
    fn sweep_produces_fig4_shape() {
        let res = quick_sweep();
        assert_eq!(res.t_values(), vec![0.0, 0.25, 0.5, 1.0]);
        // Idle rises with T, standby falls — for every model.
        for kind in [BackendId::Markov, BackendId::PetriNet, BackendId::Des] {
            let idle = res.percent_series(kind, 2);
            let standby = res.percent_series(kind, 0);
            assert!(
                idle.last().unwrap() > idle.first().unwrap(),
                "{kind}: idle not rising: {idle:?}"
            );
            assert!(
                standby.last().unwrap() < standby.first().unwrap(),
                "{kind}: standby not falling: {standby:?}"
            );
            // Active ≈ ρ = 10% everywhere (D tiny).
            for a in res.percent_series(kind, 3) {
                assert!((a - 10.0).abs() < 2.5, "{kind}: active {a}%");
            }
        }
    }

    #[test]
    fn energy_rises_with_threshold_fig5_shape() {
        let res = quick_sweep();
        let p = PowerProfile::pxa271();
        for kind in [BackendId::Markov, BackendId::PetriNet, BackendId::Des] {
            let e = res.energy_series(kind, &p);
            assert!(
                e.last().unwrap() > e.first().unwrap(),
                "{kind}: energy not rising: {e:?}"
            );
            // All values in the physically-possible band.
            for v in &e {
                assert!(*v >= 17.0 * 0.8 && *v <= 193.0 * 800.0 / 1000.0);
            }
        }
    }

    #[test]
    fn models_agree_at_small_d() {
        let res = quick_sweep();
        for pt in &res.points {
            let d1 = pt.des.fractions.mean_abs_delta_pct(&pt.markov.fractions);
            let d2 = pt.des.fractions.mean_abs_delta_pct(&pt.petri.fractions);
            assert!(d1 < 3.0, "T={}: sim-markov Δ={d1}", pt.t);
            assert!(d2 < 3.0, "T={}: sim-pn Δ={d2}", pt.t);
        }
    }

    #[test]
    fn empty_sweep_returns_empty_result() {
        let sweep = ThresholdSweep {
            params: CpuModelParams::paper_defaults()
                .with_replications(1)
                .with_horizon(50.0),
            t_values: vec![],
        };
        let r = sweep.run().unwrap();
        assert!(r.points.is_empty());
    }
}
