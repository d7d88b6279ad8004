//! The unified solver-backend API.
//!
//! "Which backend" is one [`BackendId`] across the workspace, plus an
//! object-safe [`CpuSolver`] trait, a per-backend [`Capabilities`]
//! descriptor and a [`BackendRegistry`] the rest of the workspace
//! dispatches through — the single place a new backend has to be wired in.
//!
//! ```
//! use wsnem_core::{backend, BackendId, CpuModelParams, EvalOptions};
//!
//! let registry = backend::global();
//! let eval = registry
//!     .solve(
//!         BackendId::Markov,
//!         &CpuModelParams::paper_defaults(),
//!         &EvalOptions::default(),
//!     )
//!     .unwrap();
//! assert_eq!(eval.kind, BackendId::Markov);
//! ```

use std::sync::OnceLock;

use wsnem_stats::dist::{Dist, Sample};

use crate::error::CoreError;
use crate::evaluation::ModelEvaluation;
use crate::params::CpuModelParams;

/// Canonical identifier of a solver backend — the one name shared by the
/// core models, the node/network layer and the scenario schema.
///
/// Serialized as its canonical variant name (`"Markov"`, `"Mg1"`,
/// `"PetriNet"`, `"Des"`), so scenario files written against earlier
/// schema versions keep loading unchanged. The retired Erlang-phase CTMC
/// backend's names parse as [`BackendId::Mg1`], the exact closed form it
/// approximated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendId {
    /// Supplementary-variable closed forms (paper §4.1, Eqs. 1–24).
    Markov,
    /// Exact M/G/1 Pollaczek–Khinchine closed form — analytic occupancy and
    /// wait for any service-time law; the million-node fast path.
    Mg1,
    /// EDSPN token-game simulation (paper Fig. 3 / §4.2).
    PetriNet,
    /// Discrete-event simulation — the ground truth (the paper's Matlab
    /// benchmark).
    Des,
}

impl BackendId {
    /// Every backend, in canonical (cheapest-first) order.
    pub const ALL: [BackendId; 4] = [
        BackendId::Markov,
        BackendId::Mg1,
        BackendId::PetriNet,
        BackendId::Des,
    ];

    /// Canonical name — stable across schema versions and used for
    /// serialization.
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Markov => "Markov",
            BackendId::Mg1 => "Mg1",
            BackendId::PetriNet => "PetriNet",
            BackendId::Des => "Des",
        }
    }

    /// Display label matching the paper's figure legends.
    pub fn paper_label(self) -> &'static str {
        match self {
            BackendId::Markov => "Markov",
            BackendId::Mg1 => "M/G/1",
            BackendId::PetriNet => "Petri Net",
            BackendId::Des => "Simulation",
        }
    }

    /// Parse a backend name leniently (case-insensitive, with the common
    /// aliases users type), producing a did-you-mean error listing the
    /// registered backends on failure.
    pub fn parse(name: &str) -> Result<Self, CoreError> {
        let folded: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        for id in Self::ALL {
            if folded == id.name().to_ascii_lowercase() {
                return Ok(id);
            }
        }
        match folded.as_str() {
            // "M/G/1", "m-g-1" etc. already fold onto the canonical "mg1".
            // The retired Erlang-phase backend approximated the Mg1 closed
            // form; its names keep v1/v2 scenario files loading.
            "pk" | "pollaczekkhinchine" | "erlangphase" | "phase" | "erlang" => {
                return Ok(BackendId::Mg1)
            }
            "petri" | "pn" | "edspn" => return Ok(BackendId::PetriNet),
            "sim" | "simulation" => return Ok(BackendId::Des),
            _ => {}
        }
        let registered: Vec<String> = global().ids().iter().map(|b| b.name().into()).collect();
        let did_you_mean = registered
            .iter()
            .map(|cand| (edit_distance(&folded, &cand.to_ascii_lowercase()), cand))
            .filter(|(d, cand)| *d <= cand.len().div_ceil(2))
            .min_by_key(|(d, _)| *d)
            .map(|(_, cand)| cand.clone());
        Err(CoreError::UnknownBackend {
            name: name.to_owned(),
            did_you_mean,
            registered,
        })
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendId {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Levenshtein distance, for the did-you-mean suggestion.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

// Manual serde impls (instead of the derive) so unknown names fail with the
// registry-driven did-you-mean error rather than a bare "unknown variant".
#[cfg(feature = "serde")]
impl serde::Serialize for BackendId {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_owned())
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for BackendId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => {
                BackendId::parse(s).map_err(|e| serde::Error::custom(e.to_string()))
            }
            other => Err(serde::Error::expected("backend name string", other)),
        }
    }
}

/// Serializable service-time distribution for [`EvalOptions`] — the knob
/// that unpins the schema's historical "exponential service at rate μ"
/// assumption for the backends whose [`Capabilities`] allow it.
///
/// Every variant except [`ServiceDist::General`] keeps the configured mean
/// service time `1/μ`, so backends stay comparable at equal utilization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ServiceDist {
    /// Exponential service at rate μ — the paper's model; every backend
    /// supports it.
    #[default]
    Exponential,
    /// Constant service time `1/μ` (an M/D/1-style CPU).
    Deterministic,
    /// Erlang-`k` service with mean `1/μ` (variance `1/(k·μ²)`).
    Erlang {
        /// Number of phases (≥ 1).
        k: u32,
    },
    /// An arbitrary service-time distribution, given explicitly. The mean
    /// need not be `1/μ`; `μ` is ignored. Always treated as
    /// **non-exponential for capability gating** — even
    /// `General {{ Exponential }}`, whose rate may differ from `μ` — so an
    /// analytic backend can never silently solve at `μ` while the
    /// simulators honor a different rate. Use [`ServiceDist::Exponential`]
    /// to request the built-in service.
    General {
        /// The service-time distribution.
        dist: Dist,
    },
}

impl ServiceDist {
    /// True when this is exactly the exponential-at-μ service every backend
    /// models — i.e. the [`ServiceDist::Exponential`] variant. A
    /// [`ServiceDist::General`] exponential is deliberately *not* counted:
    /// its rate is free, and gating must never let backends disagree on
    /// which rate they solved (see the `General` docs).
    pub fn is_exponential(&self) -> bool {
        matches!(self, ServiceDist::Exponential)
    }

    /// Materialize the concrete distribution for service rate `mu`.
    pub fn to_dist(&self, mu: f64) -> Dist {
        match *self {
            ServiceDist::Exponential => Dist::Exponential { rate: mu },
            ServiceDist::Deterministic => Dist::Deterministic(1.0 / mu),
            ServiceDist::Erlang { k } => Dist::Erlang {
                k,
                rate: k as f64 * mu,
            },
            ServiceDist::General { dist } => dist,
        }
    }

    /// Validate (k ≥ 1, general distribution parameters in domain) for the
    /// given service rate.
    pub fn validate(&self, mu: f64) -> Result<(), CoreError> {
        if !(mu > 0.0) || !mu.is_finite() {
            return Err(CoreError::InvalidParameter {
                what: "mu",
                constraint: "> 0 and finite",
                value: mu,
            });
        }
        self.to_dist(mu)
            .validate()
            .map_err(|e| CoreError::InvalidService {
                detail: e.to_string(),
            })
    }

    /// Short display label for reports.
    pub fn label(&self) -> String {
        match self {
            ServiceDist::Exponential => "exponential".into(),
            ServiceDist::Deterministic => "deterministic".into(),
            ServiceDist::Erlang { k } => format!("erlang-{k}"),
            ServiceDist::General { dist } => format!("general ({dist:?})"),
        }
    }
}

/// Per-evaluation options shared by every backend: how to run a solve, as
/// opposed to what to solve. The model, its simulation budget and its seed
/// live on [`CpuModelParams`]; `EvalOptions::default()` is the paper's
/// model on all available cores.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Worker-thread pin for replication fan-out (`None` = available
    /// parallelism; outer-parallel callers pass `Some(1)`).
    pub threads: Option<usize>,
    /// Service-time distribution. Backends whose [`Capabilities`] lack
    /// `supports_service_dist` reject non-exponential choices with
    /// [`CoreError::Unsupported`] — never a silent exponential fallback.
    pub service: ServiceDist,
    /// Arrival workload override for the ground-truth DES backend. Backends
    /// with `assumes_poisson` ignore it (their numbers are then the *Poisson
    /// approximation*, which callers flag; the scenario layer's agreement
    /// report quantifies the distortion).
    pub workload: Option<wsnem_des::Workload>,
}

impl EvalOptions {
    /// Pin the replication worker-thread count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Choose the service-time distribution.
    pub fn with_service(mut self, service: ServiceDist) -> Self {
        self.service = service;
        self
    }

    /// Set the DES arrival workload.
    pub fn with_workload(mut self, workload: Option<wsnem_des::Workload>) -> Self {
        self.workload = workload;
        self
    }
}

/// What a backend can and cannot do — the machine-readable contract callers
/// dispatch on instead of matching on [`BackendId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Capabilities {
    /// The backend this describes.
    pub id: BackendId,
    /// Deterministic analytic/numeric solution (no Monte-Carlo noise, no
    /// seed sensitivity).
    pub analytic: bool,
    /// The evaluation the others are validated against (paper §5: the event
    /// simulator).
    pub ground_truth: bool,
    /// Models Poisson arrivals regardless of any workload override.
    pub assumes_poisson: bool,
    /// Accepts a non-exponential [`ServiceDist`]; backends without this
    /// return [`CoreError::Unsupported`] instead of wrong numbers.
    pub supports_service_dist: bool,
    /// Reports the mean number of jobs in the system.
    pub provides_mean_jobs: bool,
    /// Reports the mean per-job latency.
    pub provides_latency: bool,
    /// Consumes the seed/replication parameters (stochastic backends).
    pub uses_seed: bool,
    /// Relative evaluation cost rank (0 = cheapest); callers picking "the
    /// cheapest requested backend" order by this instead of matching.
    pub cost_rank: u8,
}

/// An object-safe solver: evaluate the paper's CPU model under shared
/// parameters and per-evaluation options.
///
/// Implementing a new backend means one `impl CpuSolver` plus one
/// [`BackendRegistry::register`] call — no more match-arm hunting across
/// five files.
///
/// # Purity
///
/// [`CpuSolver::solve`] must be a pure function of `(params, opts)`: equal
/// inputs give equal results (stochastic backends draw only from
/// [`CpuModelParams::master_seed`]), and callers may skip calls whose result
/// they already have.
/// The SoA network core relies on this — it solves once per run of
/// consecutive nodes with equal inputs and reuses the result for the rest
/// of the run.
pub trait CpuSolver: Send + Sync {
    /// The backend's capability descriptor (including its [`BackendId`]).
    fn capabilities(&self) -> Capabilities;

    /// Evaluate the model — a pure function of `(params, opts)` (see the
    /// trait docs).
    fn solve(
        &self,
        params: &CpuModelParams,
        opts: &EvalOptions,
    ) -> Result<ModelEvaluation, CoreError>;

    /// The backend's identifier (from [`CpuSolver::capabilities`]).
    fn id(&self) -> BackendId {
        self.capabilities().id
    }
}

/// The solver registry — the workspace's single backend-dispatch site.
///
/// [`BackendRegistry::builtin`] registers the four in-tree solvers; custom
/// registries can register additional (or replacement) [`CpuSolver`]s.
#[derive(Default)]
pub struct BackendRegistry {
    solvers: Vec<Box<dyn CpuSolver>>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("backends", &self.ids())
            .finish()
    }
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The four in-tree solvers, in canonical order. **This is the one
    /// backend-dispatch site in the workspace** — a new backend is wired in
    /// by registering it here (or into a custom registry).
    pub fn builtin() -> Self {
        let mut r = Self::new();
        r.register(Box::new(crate::models::markov_model::MarkovSolver));
        r.register(Box::new(crate::models::mg1_model::Mg1Solver));
        r.register(Box::new(crate::models::petri_model::PetriSolver));
        r.register(Box::new(crate::models::des_model::DesSolver));
        r
    }

    /// Register a solver, replacing any previous solver with the same
    /// [`BackendId`].
    pub fn register(&mut self, solver: Box<dyn CpuSolver>) {
        let id = solver.id();
        match self.solvers.iter_mut().find(|s| s.id() == id) {
            Some(slot) => *slot = solver,
            None => self.solvers.push(solver),
        }
    }

    /// The solver for a backend, if registered.
    pub fn get(&self, id: BackendId) -> Option<&dyn CpuSolver> {
        self.solvers.iter().find(|s| s.id() == id).map(Box::as_ref)
    }

    /// The capability descriptor of a registered backend.
    pub fn capabilities_of(&self, id: BackendId) -> Option<Capabilities> {
        self.get(id).map(CpuSolver::capabilities)
    }

    /// Registered backend ids, in registration order.
    pub fn ids(&self) -> Vec<BackendId> {
        self.solvers.iter().map(|s| s.id()).collect()
    }

    /// Capability descriptors of every registered backend, in registration
    /// order.
    pub fn capabilities(&self) -> Vec<Capabilities> {
        self.solvers.iter().map(|s| s.capabilities()).collect()
    }

    /// Iterate the registered solvers in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn CpuSolver> {
        self.solvers.iter().map(Box::as_ref)
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// The agreement reference among `ids`: the first one whose registered
    /// capabilities mark it the ground truth, else the first id (`None` only
    /// for an empty slice). Every cross-backend agreement figure is measured
    /// against this backend.
    pub fn agreement_reference(&self, ids: &[BackendId]) -> Option<BackendId> {
        ids.iter()
            .copied()
            .find(|&id| self.capabilities_of(id).is_some_and(|c| c.ground_truth))
            .or_else(|| ids.first().copied())
    }

    /// Evaluate `params` with the given backend.
    pub fn solve(
        &self,
        id: BackendId,
        params: &CpuModelParams,
        opts: &EvalOptions,
    ) -> Result<ModelEvaluation, CoreError> {
        let solver = self.get(id).ok_or_else(|| CoreError::UnknownBackend {
            name: id.name().to_owned(),
            did_you_mean: None,
            registered: self.ids().iter().map(|b| b.name().into()).collect(),
        })?;
        solver.solve(params, opts)
    }
}

/// The process-wide registry of built-in solvers — what [`BackendId`]
/// dispatch sites (node analysis, the scenario runner, the CLI) go through
/// by default. Code that registers custom solvers builds its own
/// [`BackendRegistry`] and passes it explicitly.
pub fn global() -> &'static BackendRegistry {
    static GLOBAL: OnceLock<BackendRegistry> = OnceLock::new();
    GLOBAL.get_or_init(BackendRegistry::builtin)
}

/// Shared capability guard: reject a non-exponential service distribution on
/// backends that would otherwise silently compute exponential numbers.
pub(crate) fn require_exponential_service(
    id: BackendId,
    opts: &EvalOptions,
) -> Result<(), CoreError> {
    if opts.service.is_exponential() {
        Ok(())
    } else {
        Err(CoreError::Unsupported {
            backend: id,
            what: format!(
                "non-exponential service distribution ({})",
                opts.service.label()
            ),
        })
    }
}

/// Shared stability gate of the backends that honour a service law (`Mg1`,
/// `PetriNet`, `Des`): the queue is stable when its load `λ·E[S] < 1`,
/// where `E[S]` is the mean of the law the backend solves. Under
/// [`ServiceDist::General`] that mean need not be `1/μ`, so λ/μ is the
/// wrong test there. The parametric laws have `E[S] = 1/μ`, and there the
/// gate also requires λ/μ < 1, the ratio [`CpuModelParams::rho`] tests:
/// `λ·fl(1/μ)` rounds to just below 1 at some λ = μ (49, 98, …), while at
/// some λ a hair under μ it is exactly 1, the pole of `Mg1`'s closed form.
pub(crate) fn require_stable(
    id: BackendId,
    params: &CpuModelParams,
    service: &ServiceDist,
) -> Result<(), CoreError> {
    let mut rho = params.lambda * service.to_dist(params.mu).mean();
    if !matches!(service, ServiceDist::General { .. }) {
        rho = rho.max(params.rho());
    }
    if rho < 1.0 {
        Ok(())
    } else {
        Err(CoreError::Unsupported {
            backend: id,
            what: format!("an unstable operating point (rho = lambda*E[S] = {rho:.6} >= 1)"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_round_trip() {
        for id in BackendId::ALL {
            assert_eq!(BackendId::parse(id.name()).unwrap(), id);
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(BackendId::Des.paper_label(), "Simulation");
        assert_eq!(BackendId::PetriNet.paper_label(), "Petri Net");
    }

    #[test]
    fn lenient_parse_accepts_aliases() {
        for (alias, id) in [
            ("markov", BackendId::Markov),
            ("m/g/1", BackendId::Mg1),
            ("MG1", BackendId::Mg1),
            ("pk", BackendId::Mg1),
            ("ErlangPhase", BackendId::Mg1),
            ("erlang-phase", BackendId::Mg1),
            ("phase", BackendId::Mg1),
            ("erlang", BackendId::Mg1),
            ("petri", BackendId::PetriNet),
            ("petri_net", BackendId::PetriNet),
            ("pn", BackendId::PetriNet),
            ("simulation", BackendId::Des),
            ("DES", BackendId::Des),
        ] {
            assert_eq!(BackendId::parse(alias).unwrap(), id, "{alias}");
        }
    }

    #[test]
    fn unknown_backend_gets_did_you_mean() {
        let err = BackendId::parse("Markvo").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Markvo"), "{msg}");
        assert!(msg.contains("did you mean `Markov`"), "{msg}");
        // The registered list is registry-driven, so it can never go stale.
        for id in global().ids() {
            assert!(msg.contains(id.name()), "{msg} missing {id}");
        }
        // Nothing close: no suggestion, but still the full list.
        let msg = BackendId::parse("frobnicator").unwrap_err().to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("Markov"), "{msg}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("markov", "markov"), 0);
        assert_eq!(edit_distance("markvo", "markov"), 2); // transposition
        assert_eq!(edit_distance("", "des"), 3);
    }

    #[test]
    fn service_dist_means_are_preserved() {
        let mu = 8.0;
        for (sd, cv2) in [
            (ServiceDist::Exponential, 1.0),
            (ServiceDist::Deterministic, 0.0),
            (ServiceDist::Erlang { k: 4 }, 0.25),
        ] {
            let d = sd.to_dist(mu);
            d.validate().unwrap();
            assert!((d.mean() - 1.0 / mu).abs() < 1e-12, "{sd:?}");
            assert!((d.cv2() - cv2).abs() < 1e-12, "{sd:?}");
        }
        let g = ServiceDist::General {
            dist: Dist::Uniform {
                low: 0.05,
                high: 0.15,
            },
        };
        assert!((g.to_dist(mu).mean() - 0.1).abs() < 1e-12);
        assert!(!g.is_exponential());
        // A General exponential is NOT the built-in service: its rate may
        // differ from mu, so it must go through the capability gate.
        assert!(!ServiceDist::General {
            dist: Dist::Exponential { rate: 3.0 }
        }
        .is_exponential());
        assert!(ServiceDist::Exponential.is_exponential());
        assert!(!ServiceDist::Deterministic.is_exponential());
        assert_eq!(ServiceDist::Erlang { k: 3 }.label(), "erlang-3");
    }

    #[test]
    fn service_dist_validation() {
        assert!(ServiceDist::Erlang { k: 0 }.validate(10.0).is_err());
        assert!(ServiceDist::Exponential.validate(0.0).is_err());
        assert!(ServiceDist::Exponential.validate(10.0).is_ok());
        assert!(ServiceDist::General {
            dist: Dist::Uniform {
                low: 1.0,
                high: 0.5
            }
        }
        .validate(10.0)
        .is_err());
    }

    #[test]
    fn builtin_registry_covers_all_backends() {
        let r = BackendRegistry::builtin();
        assert_eq!(r.ids(), BackendId::ALL.to_vec());
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        for caps in r.capabilities() {
            assert_eq!(r.capabilities_of(caps.id).unwrap(), caps);
            // Analytic backends are deterministic; stochastic ones use seeds.
            assert_eq!(caps.analytic, !caps.uses_seed, "{:?}", caps.id);
        }
        // Cost ranks are distinct, so "cheapest requested backend" is
        // well-defined without an enum match.
        let mut ranks: Vec<u8> = r.capabilities().iter().map(|c| c.cost_rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), 4);
        assert_eq!(format!("{r:?}").matches("Markov").count(), 1);
    }

    #[test]
    fn builtin_solvers_return_normalized_evaluations() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(4)
            .with_horizon(400.0);
        let r = BackendRegistry::builtin();
        for id in r.ids() {
            let e = r.solve(id, &params, &EvalOptions::default()).unwrap();
            assert!(e.fractions.is_normalized(1e-6), "{id}");
            assert_eq!(e.kind, id);
        }
    }

    #[test]
    fn agreement_reference_prefers_ground_truth() {
        let r = BackendRegistry::builtin();
        let (markov, mg1, des) = (BackendId::Markov, BackendId::Mg1, BackendId::Des);
        assert_eq!(r.agreement_reference(&[markov, des, mg1]), Some(des));
        assert_eq!(r.agreement_reference(&[mg1, markov]), Some(mg1));
        assert_eq!(r.agreement_reference(&[]), None);
        // Only registered capabilities count.
        assert_eq!(
            BackendRegistry::new().agreement_reference(&[markov, des]),
            Some(markov)
        );
    }

    #[test]
    fn registry_replaces_on_reregister() {
        struct FakeDes;
        impl CpuSolver for FakeDes {
            fn capabilities(&self) -> Capabilities {
                Capabilities {
                    id: BackendId::Des,
                    analytic: true,
                    ground_truth: false,
                    assumes_poisson: true,
                    supports_service_dist: false,
                    provides_mean_jobs: false,
                    provides_latency: false,
                    uses_seed: false,
                    cost_rank: 9,
                }
            }
            fn solve(
                &self,
                _params: &CpuModelParams,
                _opts: &EvalOptions,
            ) -> Result<ModelEvaluation, CoreError> {
                Err(CoreError::Unsupported {
                    backend: BackendId::Des,
                    what: "everything".into(),
                })
            }
        }
        let mut r = BackendRegistry::builtin();
        r.register(Box::new(FakeDes));
        assert_eq!(r.len(), 4, "replacement, not duplication");
        assert_eq!(r.capabilities_of(BackendId::Des).unwrap().cost_rank, 9);
        let err = r
            .solve(
                BackendId::Des,
                &CpuModelParams::paper_defaults(),
                &EvalOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }

    #[test]
    fn missing_backend_reported() {
        let r = BackendRegistry::new();
        let err = r
            .solve(
                BackendId::Markov,
                &CpuModelParams::paper_defaults(),
                &EvalOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownBackend { .. }), "{err}");
        assert!(r.get(BackendId::Markov).is_none());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip_and_did_you_mean() {
        for id in BackendId::ALL {
            let json = serde_json::to_string(&id).unwrap();
            assert_eq!(json, format!("\"{}\"", id.name()));
            let back: BackendId = serde_json::from_str(&json).unwrap();
            assert_eq!(back, id);
        }
        let err = serde_json::from_str::<BackendId>("\"PetriNte\"").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("did you mean `PetriNet`"), "{msg}");
        let err = serde_json::from_str::<BackendId>("42").unwrap_err();
        assert!(err.to_string().contains("backend name string"));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn service_dist_serde_round_trip() {
        for sd in [
            ServiceDist::Exponential,
            ServiceDist::Deterministic,
            ServiceDist::Erlang { k: 4 },
            ServiceDist::General {
                dist: Dist::Gamma {
                    shape: 2.0,
                    rate: 20.0,
                },
            },
        ] {
            let json = serde_json::to_string(&sd).unwrap();
            let back: ServiceDist = serde_json::from_str(&json).unwrap();
            assert_eq!(back, sd, "{json}");
        }
    }
}
