//! The CPU power-state simulator — ground truth for the paper's comparison.
//!
//! Model (paper §4): a single-server queue with
//!
//! * open (default: Poisson) or closed job arrivals,
//! * generally-distributed service (default: exponential),
//! * a constant **Power Down Threshold** `T`: after the system has been idle
//!   (no job in service, empty buffer) for `T` seconds, the CPU drops to
//!   Standby,
//! * a constant **Power Up Delay** `D`: a job arriving in Standby triggers a
//!   power-up phase of `D` seconds before service can start; jobs arriving
//!   meanwhile queue up.
//!
//! The future-event list is a fixed-slot agenda. Every kind of event but
//! one has at most one pending instance (the next open arrival, the
//! departure of the job in service, the power-down timer, the end of a
//! power-up, the end of the warm-up), so each kind owns one slot that holds
//! its `(time, seq)` or `+∞` when empty. Closed-workload submissions, the
//! one kind with many pending copies, wait in a small binary heap.
//! Cancelling the power-down timer empties its slot; nothing is left behind.
//!
//! Tie-breaking: every schedule draws `seq` from one monotone counter, and
//! the agenda pops the least `(time, seq)`, so events at the same instant
//! are processed in schedule order. An arrival and a power-down timeout at
//! the same instant therefore let the earlier-scheduled arrival cancel the
//! timer — i.e. the arrival wins, matching the Petri-net semantics where
//! the enabling check sees the new token.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use wsnem_energy::{CpuState, EnergyBreakdown, PowerProfile, StateFractions};
use wsnem_obs::{NoopObserver, Observer};
use wsnem_stats::dist::{Dist, Sample};
use wsnem_stats::online::Welford;
use wsnem_stats::rng::{Rng64, Xoshiro256PlusPlus};
use wsnem_stats::timeweighted::TimeWeighted;

use crate::error::DesError;
use crate::workload::{Workload, WorkloadGen};

/// Simulation parameters for one CPU run.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSimParams {
    /// Service-time distribution (the paper: exponential, mean 0.1 s).
    pub service: Dist,
    /// Power Down Threshold `T` in seconds; `f64::INFINITY` disables
    /// powering down (plain M/G/1 behaviour).
    pub power_down_threshold: f64,
    /// Power Up Delay `D` in seconds.
    pub power_up_delay: f64,
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Warm-up period (statistics reset at this time; `0` keeps everything).
    pub warmup: f64,
    /// Optional buffer capacity: arrivals beyond this many *waiting* jobs
    /// are dropped (`None` = infinite buffer, the paper's setting).
    pub max_queue: Option<usize>,
}

impl CpuSimParams {
    /// Parameters with the paper's service model (exponential, rate `mu`),
    /// thresholds and a 1000 s horizon.
    pub fn exponential_service(mu: f64, t_threshold: f64, d_delay: f64) -> Self {
        Self {
            service: Dist::Exponential { rate: mu },
            power_down_threshold: t_threshold,
            power_up_delay: d_delay,
            horizon: 1000.0,
            warmup: 0.0,
            max_queue: None,
        }
    }

    /// Validate the parameter set.
    pub fn validate(&self) -> Result<(), DesError> {
        self.service.validate()?;
        if !(self.power_down_threshold >= 0.0) {
            return Err(DesError::InvalidParameter {
                what: "power_down_threshold",
                constraint: ">= 0",
                value: self.power_down_threshold,
            });
        }
        if !(self.power_up_delay >= 0.0) || !self.power_up_delay.is_finite() {
            return Err(DesError::InvalidParameter {
                what: "power_up_delay",
                constraint: ">= 0 and finite",
                value: self.power_up_delay,
            });
        }
        if !(self.horizon > 0.0) || !self.horizon.is_finite() {
            return Err(DesError::InvalidParameter {
                what: "horizon",
                constraint: "> 0 and finite",
                value: self.horizon,
            });
        }
        if !(0.0..self.horizon).contains(&self.warmup) {
            return Err(DesError::InvalidParameter {
                what: "warmup",
                constraint: "0 <= warmup < horizon",
                value: self.warmup,
            });
        }
        Ok(())
    }
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuRunReport {
    /// Time-in-state fractions over the observation window.
    pub fractions: StateFractions,
    /// Length of the observation window (horizon − warmup).
    pub time_observed: f64,
    /// Jobs that arrived (post-warmup).
    pub arrivals: u64,
    /// Jobs that completed service (post-warmup).
    pub completions: u64,
    /// Jobs dropped at a full buffer (post-warmup).
    pub dropped: u64,
    /// Standby → PowerUp transitions.
    pub power_up_cycles: u64,
    /// On → Standby transitions.
    pub power_down_cycles: u64,
    /// Mean job latency (arrival → completion), seconds.
    pub mean_latency: f64,
    /// Latency sample variance.
    pub latency_variance: f64,
    /// Number of latency samples.
    pub latency_count: u64,
    /// Time-averaged number of jobs in the system (queue + in service).
    pub mean_jobs_in_system: f64,
    /// Completions per second over the observation window.
    pub throughput: f64,
}

impl CpuRunReport {
    /// Energy over the observed window for the given profile (Eq. 25).
    pub fn energy(&self, profile: &PowerProfile) -> EnergyBreakdown {
        wsnem_energy::energy_eq25(&self.fractions, profile, self.time_observed)
    }

    /// Energy total in joules (Eq. 25).
    pub fn energy_joules(&self, profile: &PowerProfile) -> f64 {
        self.energy(profile).total_joules()
    }

    /// Little's-law consistency check: `L ≈ λ_completed × W`. Returns the
    /// relative error between the time-averaged population and λW.
    pub fn littles_law_residual(&self) -> f64 {
        let lw = self.throughput * self.mean_latency;
        if self.mean_jobs_in_system == 0.0 {
            return if lw == 0.0 { 0.0 } else { f64::INFINITY };
        }
        (self.mean_jobs_in_system - lw).abs() / self.mean_jobs_in_system
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Power {
    Standby,
    PoweringUp,
    On,
}

/// An event kind. The first five have at most one pending instance each
/// and index the agenda's slots; closed submissions go to its heap.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Open-workload arrival (schedules its successor).
    Arrival,
    Departure,
    PowerDownTimeout,
    PowerUpDone,
    WarmupEnd,
    /// Closed-workload submission (successor scheduled at departure).
    ClosedArrival,
}

/// The slot kinds, in slot order.
const SLOT_KINDS: [Ev; 5] = [
    Ev::Arrival,
    Ev::Departure,
    Ev::PowerDownTimeout,
    Ev::PowerUpDone,
    Ev::WarmupEnd,
];

/// An event's place in the agenda: its time as an integer that sorts as
/// `f64::total_cmp` sorts times, then its schedule sequence number. The
/// tuple order is the pop order.
type Key = (i64, u64);

/// The map `f64::total_cmp` compares through: a time's bits as an `i64`,
/// with the magnitude bits flipped for negative times. It is its own
/// inverse. Closed think times drawn at start-up are not clamped, so
/// negative times do occur.
#[inline]
const fn flip(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The key of an empty slot: time `+∞`, after every scheduled event.
const EMPTY: Key = (flip(f64::INFINITY.to_bits() as i64), u64::MAX);

/// The fixed-slot future-event list (see the module docs).
#[derive(Debug)]
struct Agenda {
    /// The key of each slot kind's pending event, or [`EMPTY`].
    slots: [Key; 5],
    /// Pending closed-workload submissions, least key on top.
    closed: BinaryHeap<Reverse<Key>>,
    /// The last value handed out to a schedule.
    seq: u64,
    /// Time of the last pop; the agenda never goes backwards.
    last_popped: f64,
}

impl Agenda {
    fn new() -> Self {
        Self {
            slots: [EMPTY; 5],
            closed: BinaryHeap::new(),
            seq: 0,
            last_popped: f64::NEG_INFINITY,
        }
    }

    /// Schedule `ev` at absolute `time`. A slot kind must not be pending.
    #[inline]
    fn schedule(&mut self, time: f64, ev: Ev) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.seq += 1;
        let key = (flip(time.to_bits() as i64), self.seq);
        if ev == Ev::ClosedArrival {
            self.closed.push(Reverse(key));
        } else {
            let slot = &mut self.slots[ev as usize];
            debug_assert!(*slot == EMPTY, "{ev:?} is already pending");
            *slot = key;
        }
    }

    /// Drop the pending event of slot kind `ev`, if any.
    #[inline]
    fn cancel(&mut self, ev: Ev) {
        self.slots[ev as usize] = EMPTY;
    }

    /// Remove and return the least-key pending event.
    #[inline]
    fn pop(&mut self) -> Option<(f64, Ev)> {
        let mut best = self.closed.peek().map_or(EMPTY, |r| r.0);
        let mut from_slot = None;
        for (i, &key) in self.slots.iter().enumerate() {
            if key < best {
                best = key;
                from_slot = Some(i);
            }
        }
        let ev = match from_slot {
            Some(i) => {
                self.slots[i] = EMPTY;
                SLOT_KINDS[i]
            }
            None => {
                self.closed.pop()?;
                Ev::ClosedArrival
            }
        };
        let time = f64::from_bits(flip(best.0) as u64);
        debug_assert!(time >= self.last_popped, "agenda went backwards in time");
        self.last_popped = time;
        Some((time, ev))
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        let slots = self.slots.iter().filter(|&&key| key != EMPTY).count();
        slots + self.closed.len()
    }
}

/// The discrete-event CPU simulator.
#[derive(Debug)]
pub struct CpuDes {
    params: CpuSimParams,
    workload: Workload,
}

impl CpuDes {
    /// Build a simulator after validating parameters and workload.
    pub fn new(params: CpuSimParams, workload: Workload) -> Result<Self, DesError> {
        params.validate()?;
        workload.validate()?;
        Ok(Self { params, workload })
    }

    /// Convenience: run with a fresh xoshiro256++ stream for `seed`.
    pub fn run_with_seed(&self, seed: u64) -> CpuRunReport {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        self.run(&mut rng)
    }

    /// Execute one replication.
    pub fn run<R: Rng64 + ?Sized>(&self, rng: &mut R) -> CpuRunReport {
        Runner::new(&self.params, &self.workload, rng, &mut NoopObserver).run()
    }

    /// Execute one replication with an attached
    /// [`Observer`].
    ///
    /// The observer sees every dispatched event (`event`), the pending-queue
    /// depth after each pop (`queue_depth`), every CPU power-state change
    /// (`state_enter`/`state_exit`, with states indexed in the
    /// `[standby, powerup, idle, active]` order of
    /// [`CpuState::index`](wsnem_energy::CpuState::index)), and every RNG
    /// draw (`rng_draw`). Attaching an observer never perturbs the run: RNG
    /// draw order is identical with and without instrumentation, and with
    /// [`NoopObserver`] every hook compiles away to [`run`](Self::run)'s
    /// exact code.
    pub fn run_observed<R: Rng64 + ?Sized, O: Observer>(
        &self,
        rng: &mut R,
        obs: &mut O,
    ) -> CpuRunReport {
        Runner::new(&self.params, &self.workload, rng, obs).run()
    }
}

/// Per-run mutable state, split out so `CpuDes` stays reusable/shareable.
struct Runner<'a, R: Rng64 + ?Sized, O: Observer> {
    params: &'a CpuSimParams,
    rng: &'a mut R,
    obs: &'a mut O,
    /// Last state reported to the observer (instrumented runs only).
    obs_state: CpuState,
    /// When `obs_state` was entered.
    obs_entered: f64,
    agenda: Agenda,
    open_gen: Option<WorkloadGen>,
    think: Option<Dist>,
    now: f64,
    power: Power,
    serving: Option<f64>,
    buffer: VecDeque<f64>,
    durations: [f64; 4],
    last_change: f64,
    window_start: f64,
    jobs_in_system: TimeWeighted,
    latency: Welford,
    arrivals: u64,
    completions: u64,
    dropped: u64,
    power_ups: u64,
    power_downs: u64,
}

impl<'a, R: Rng64 + ?Sized, O: Observer> Runner<'a, R, O> {
    fn new(params: &'a CpuSimParams, workload: &Workload, rng: &'a mut R, obs: &'a mut O) -> Self {
        let mut agenda = Agenda::new();
        let mut open_gen = None;
        let mut think = None;
        match workload {
            Workload::Open(spec) => {
                let Ok(mut g) = WorkloadGen::new(spec.clone()) else {
                    unreachable!("workload spec validated in CpuDes::new")
                };
                if O::ENABLED {
                    obs.rng_draw();
                }
                let first = g.next_gap(rng);
                agenda.schedule(first, Ev::Arrival);
                open_gen = Some(g);
            }
            Workload::Closed(c) => {
                for _ in 0..c.population {
                    if O::ENABLED {
                        obs.rng_draw();
                    }
                    let t = c.think.sample(rng);
                    agenda.schedule(t, Ev::ClosedArrival);
                }
                think = Some(c.think);
            }
        }
        if params.warmup > 0.0 {
            agenda.schedule(params.warmup, Ev::WarmupEnd);
        }
        Self {
            params,
            rng,
            obs,
            obs_state: CpuState::Standby,
            obs_entered: 0.0,
            agenda,
            open_gen,
            think,
            now: 0.0,
            power: Power::Standby,
            serving: None,
            buffer: VecDeque::new(),
            durations: [0.0; 4],
            last_change: 0.0,
            window_start: 0.0,
            jobs_in_system: TimeWeighted::new(0.0, 0.0),
            latency: Welford::new(),
            arrivals: 0,
            completions: 0,
            dropped: 0,
            power_ups: 0,
            power_downs: 0,
        }
    }

    #[inline]
    fn current_state(&self) -> CpuState {
        match self.power {
            Power::Standby => CpuState::Standby,
            Power::PoweringUp => CpuState::PowerUp,
            Power::On => {
                if self.serving.is_some() {
                    CpuState::Active
                } else {
                    CpuState::Idle
                }
            }
        }
    }

    /// Accrue state-occupancy time up to `t`; call *before* mutating state.
    #[inline]
    fn accrue(&mut self, t: f64) {
        let dt = t - self.last_change;
        if dt > 0.0 {
            self.durations[self.current_state().index()] += dt;
        }
        self.last_change = t;
    }

    /// Report a power-state change to the observer, if any happened since
    /// the last call. Compiles away entirely for disabled observers.
    #[inline]
    fn note_state(&mut self) {
        if O::ENABLED {
            let state = self.current_state();
            if state != self.obs_state {
                self.obs.state_exit(
                    self.now,
                    self.obs_state.index() as u8,
                    self.now - self.obs_entered,
                );
                self.obs.state_enter(self.now, state.index() as u8);
                self.obs_state = state;
                self.obs_entered = self.now;
            }
        }
    }

    #[inline]
    fn touch_population(&mut self) {
        let n = self.buffer.len() + usize::from(self.serving.is_some());
        self.jobs_in_system.update(self.now, n as f64);
    }

    fn start_service(&mut self) {
        debug_assert!(self.power == Power::On && self.serving.is_none());
        if let Some(arrived) = self.buffer.pop_front() {
            self.serving = Some(arrived);
            if O::ENABLED {
                self.obs.rng_draw();
            }
            let s = self.params.service.sample(self.rng).max(0.0);
            self.agenda.schedule(self.now + s, Ev::Departure);
        }
    }

    fn arm_power_down_timer(&mut self) {
        let t = self.params.power_down_threshold;
        if t.is_finite() {
            self.agenda.schedule(self.now + t, Ev::PowerDownTimeout);
        }
    }

    fn handle_job_arrival(&mut self) {
        self.arrivals += 1;
        if let Some(cap) = self.params.max_queue {
            if self.buffer.len() >= cap {
                self.dropped += 1;
                // A dropped closed-workload customer goes straight back to
                // thinking.
                if let Some(think) = self.think {
                    if O::ENABLED {
                        self.obs.rng_draw();
                    }
                    let gap = think.sample(self.rng).max(0.0);
                    self.agenda.schedule(self.now + gap, Ev::ClosedArrival);
                }
                return;
            }
        }
        self.buffer.push_back(self.now);
        self.touch_population();
        match self.power {
            Power::Standby => {
                self.power = Power::PoweringUp;
                self.power_ups += 1;
                self.agenda
                    .schedule(self.now + self.params.power_up_delay, Ev::PowerUpDone);
            }
            Power::PoweringUp => {}
            Power::On => {
                self.agenda.cancel(Ev::PowerDownTimeout);
                if self.serving.is_none() {
                    self.start_service();
                }
            }
        }
    }

    fn handle_departure(&mut self) {
        // A Departure is only ever scheduled when a job enters service.
        let Some(arrived) = self.serving.take() else {
            unreachable!("departure without a job in service")
        };
        self.completions += 1;
        self.latency.push(self.now - arrived);
        self.touch_population();
        if let Some(think) = self.think {
            if O::ENABLED {
                self.obs.rng_draw();
            }
            let gap = think.sample(self.rng).max(0.0);
            self.agenda.schedule(self.now + gap, Ev::ClosedArrival);
        }
        if self.buffer.is_empty() {
            self.arm_power_down_timer();
        } else {
            self.start_service();
        }
    }

    fn handle_power_down(&mut self) {
        // The timer is cancelled whenever a job shows up, so firing implies
        // a genuinely idle system.
        debug_assert!(self.power == Power::On);
        debug_assert!(self.serving.is_none() && self.buffer.is_empty());
        self.power = Power::Standby;
        self.power_downs += 1;
    }

    fn handle_power_up_done(&mut self) {
        debug_assert!(self.power == Power::PoweringUp);
        self.power = Power::On;
        if self.buffer.is_empty() {
            // Defensive: power-up is always triggered by an arrival, but a
            // bounded buffer may have dropped it.
            self.arm_power_down_timer();
        } else {
            self.start_service();
        }
    }

    fn reset_statistics(&mut self) {
        self.durations = [0.0; 4];
        self.last_change = self.now;
        self.window_start = self.now;
        self.jobs_in_system.reset_window(self.now);
        self.latency = Welford::new();
        self.arrivals = 0;
        self.completions = 0;
        self.dropped = 0;
        self.power_ups = 0;
        self.power_downs = 0;
    }

    fn run(mut self) -> CpuRunReport {
        let horizon = self.params.horizon;
        if O::ENABLED {
            self.obs.state_enter(0.0, self.obs_state.index() as u8);
        }
        while let Some((t, ev)) = self.agenda.pop() {
            if t > horizon {
                break;
            }
            self.accrue(t);
            self.now = t;
            if O::ENABLED {
                let kind = match ev {
                    Ev::Arrival => "arrival",
                    Ev::ClosedArrival => "closed_arrival",
                    Ev::Departure => "departure",
                    Ev::PowerDownTimeout => "power_down_timeout",
                    Ev::PowerUpDone => "power_up_done",
                    Ev::WarmupEnd => "warmup_end",
                };
                self.obs.event(t, kind);
                self.obs.queue_depth(t, self.agenda.len());
            }
            match ev {
                Ev::Arrival => {
                    self.handle_job_arrival();
                    if O::ENABLED {
                        self.obs.rng_draw();
                    }
                    // Ev::Arrival is only scheduled for open workloads,
                    // which construct the generator in Runner::new.
                    let Some(gen) = self.open_gen.as_mut() else {
                        unreachable!("open arrival without generator")
                    };
                    let gap = gen.next_gap(self.rng);
                    self.agenda.schedule(self.now + gap, Ev::Arrival);
                }
                Ev::ClosedArrival => self.handle_job_arrival(),
                Ev::Departure => self.handle_departure(),
                Ev::PowerDownTimeout => self.handle_power_down(),
                Ev::PowerUpDone => self.handle_power_up_done(),
                Ev::WarmupEnd => self.reset_statistics(),
            }
            self.note_state();
        }
        // Close the books exactly at the horizon.
        self.accrue(horizon);
        self.now = horizon;
        if O::ENABLED {
            // Close the final sojourn so timeline totals span the full run.
            self.obs.state_exit(
                horizon,
                self.obs_state.index() as u8,
                horizon - self.obs_entered,
            );
        }
        self.jobs_in_system.advance_to(horizon);

        let observed = horizon - self.window_start;
        let total: f64 = self.durations.iter().sum();
        debug_assert!((total - observed).abs() < 1e-6 * observed.max(1.0));
        let inv = if observed > 0.0 { 1.0 / observed } else { 0.0 };
        let fractions = StateFractions::from_array([
            self.durations[0] * inv,
            self.durations[1] * inv,
            self.durations[2] * inv,
            self.durations[3] * inv,
        ]);
        CpuRunReport {
            fractions,
            time_observed: observed,
            arrivals: self.arrivals,
            completions: self.completions,
            dropped: self.dropped,
            power_up_cycles: self.power_ups,
            power_down_cycles: self.power_downs,
            mean_latency: self.latency.mean(),
            latency_variance: self.latency.variance(),
            latency_count: self.latency.count(),
            mean_jobs_in_system: self.jobs_in_system.mean(),
            throughput: if observed > 0.0 {
                self.completions as f64 / observed
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ClosedWorkload, OpenWorkload};

    fn paper_params(t: f64, d: f64) -> CpuSimParams {
        CpuSimParams {
            horizon: 5000.0,
            ..CpuSimParams::exponential_service(10.0, t, d)
        }
    }

    #[test]
    fn params_validation() {
        assert!(paper_params(0.5, 0.001).validate().is_ok());
        let mut p = paper_params(0.5, 0.001);
        p.power_down_threshold = -1.0;
        assert!(p.validate().is_err());
        let mut p = paper_params(0.5, 0.001);
        p.power_up_delay = f64::INFINITY;
        assert!(p.validate().is_err());
        let mut p = paper_params(0.5, 0.001);
        p.horizon = 0.0;
        assert!(p.validate().is_err());
        let mut p = paper_params(0.5, 0.001);
        p.warmup = p.horizon;
        assert!(p.validate().is_err());
        let mut p = paper_params(0.5, 0.001);
        p.service = Dist::Exponential { rate: -3.0 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn fractions_sum_to_one() {
        let sim = CpuDes::new(paper_params(0.3, 0.1), Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(7);
        assert!(
            r.fractions.is_normalized(1e-9),
            "fractions {:?}",
            r.fractions
        );
        assert!(r.time_observed > 0.0);
    }

    #[test]
    fn never_power_down_behaves_like_mg1_with_idle() {
        // T = ∞: after the initial power-up the CPU stays on; active
        // fraction → ρ = λ/μ, standby+powerup ≈ 0.
        let params = CpuSimParams {
            horizon: 20_000.0,
            warmup: 1000.0,
            ..CpuSimParams::exponential_service(10.0, f64::INFINITY, 0.001)
        };
        let sim = CpuDes::new(params, Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(42);
        assert!((r.fractions.active - 0.1).abs() < 0.01, "{:?}", r.fractions);
        assert!(r.fractions.standby < 1e-9);
        assert!(r.fractions.powerup < 1e-9);
        assert!((r.fractions.idle - 0.9).abs() < 0.01);
        assert_eq!(r.power_down_cycles, 0);
    }

    #[test]
    fn mm1_population_matches_theory() {
        // M/M/1 with ρ = 0.5 → mean jobs in system = ρ/(1−ρ) = 1.
        let params = CpuSimParams {
            horizon: 50_000.0,
            warmup: 2000.0,
            ..CpuSimParams::exponential_service(2.0, f64::INFINITY, 0.0)
        };
        let sim = CpuDes::new(params, Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(11);
        assert!(
            (r.mean_jobs_in_system - 1.0).abs() < 0.1,
            "L = {}",
            r.mean_jobs_in_system
        );
        // Mean latency W = 1/(μ−λ) = 1 s.
        assert!((r.mean_latency - 1.0).abs() < 0.1, "W = {}", r.mean_latency);
        assert!(r.littles_law_residual() < 0.05);
    }

    #[test]
    fn immediate_power_down_t_zero() {
        // T = 0: the CPU drops to standby the moment it goes idle → idle
        // fraction ≈ 0; every job burst pays the power-up delay.
        let sim = CpuDes::new(paper_params(0.0, 0.05), Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(3);
        assert!(r.fractions.idle < 1e-9, "idle = {}", r.fractions.idle);
        assert!(r.power_up_cycles > 100);
        assert!(r.power_up_cycles <= r.power_down_cycles + 1);
        assert!(r.fractions.standby > 0.5);
    }

    #[test]
    fn zero_power_up_delay() {
        let sim = CpuDes::new(paper_params(0.2, 0.0), Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(5);
        assert!(r.fractions.powerup < 1e-9);
        assert!(r.fractions.is_normalized(1e-9));
        assert!(r.completions > 0);
    }

    #[test]
    fn large_power_up_delay_queues_jobs() {
        // D = 10 s, λ = 1/s → each power-up accumulates ~10 jobs; utilization
        // still ≈ ρ because all jobs eventually get served.
        let params = CpuSimParams {
            horizon: 50_000.0,
            warmup: 5000.0,
            ..CpuSimParams::exponential_service(10.0, 0.5, 10.0)
        };
        let sim = CpuDes::new(params, Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(13);
        assert!(
            (r.fractions.active - 0.1).abs() < 0.02,
            "active = {}",
            r.fractions.active
        );
        assert!(
            r.fractions.powerup > 0.2,
            "powerup = {}",
            r.fractions.powerup
        );
        assert!(r.mean_latency > 1.0, "waking costs latency");
    }

    #[test]
    fn latencies_nonnegative_and_counted() {
        let sim = CpuDes::new(paper_params(0.5, 0.001), Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(21);
        assert_eq!(r.latency_count, r.completions);
        assert!(r.mean_latency >= 0.0);
        assert!(r.arrivals >= r.completions);
    }

    #[test]
    fn bounded_buffer_drops() {
        let params = CpuSimParams {
            max_queue: Some(1),
            horizon: 10_000.0,
            ..CpuSimParams::exponential_service(0.5, 0.5, 0.001)
        };
        // Overloaded: λ = 2, μ = 0.5 → most arrivals dropped.
        let sim = CpuDes::new(params, Workload::open_poisson(2.0)).unwrap();
        let r = sim.run_with_seed(9);
        assert!(r.dropped > 0);
        assert!(r.arrivals > r.completions + r.dropped / 2);
        assert!(r.fractions.is_normalized(1e-9));
    }

    #[test]
    fn closed_workload_bounded_population() {
        let params = paper_params(0.5, 0.01);
        let wl = Workload::Closed(ClosedWorkload {
            population: 3,
            think: Dist::Exponential { rate: 1.0 },
        });
        let sim = CpuDes::new(params, wl).unwrap();
        let r = sim.run_with_seed(17);
        // Population bound: never more than 3 jobs in the system.
        assert!(r.mean_jobs_in_system <= 3.0 + 1e-9);
        assert!(r.completions > 100);
        assert!(r.fractions.is_normalized(1e-9));
    }

    #[test]
    fn warmup_resets_statistics() {
        let mut params = paper_params(0.5, 0.001);
        params.warmup = 2500.0;
        let sim = CpuDes::new(params.clone(), Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(23);
        assert!((r.time_observed - 2500.0).abs() < 1e-9);
        // Roughly λ×window arrivals post-warmup.
        assert!((r.arrivals as f64 - 2500.0).abs() < 300.0, "{}", r.arrivals);
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = CpuDes::new(paper_params(0.4, 0.3), Workload::open_poisson(1.0)).unwrap();
        let a = sim.run_with_seed(99);
        let b = sim.run_with_seed(99);
        assert_eq!(a, b);
        let c = sim.run_with_seed(100);
        assert_ne!(a.fractions, c.fractions);
    }

    #[test]
    fn deterministic_arrivals_and_service_are_exact() {
        // Arrivals every 1 s, service 0.25 s, T = ∞ (stay on), D = 0:
        // active fraction must be exactly 0.25 after the first arrival.
        let params = CpuSimParams {
            service: Dist::Deterministic(0.25),
            power_down_threshold: f64::INFINITY,
            power_up_delay: 0.0,
            horizon: 10_001.0,
            warmup: 1.0,
            max_queue: None,
        };
        let wl = Workload::Open(OpenWorkload::Renewal(Dist::Deterministic(1.0)));
        let sim = CpuDes::new(params, wl).unwrap();
        let r = sim.run_with_seed(1);
        assert!(
            (r.fractions.active - 0.25).abs() < 1e-6,
            "active = {}",
            r.fractions.active
        );
        assert!((r.mean_latency - 0.25).abs() < 1e-9);
    }

    #[test]
    fn observers_do_not_perturb_runs() {
        use wsnem_obs::{Counters, NoopObserver, StateTimeline, Tee, TraceWriter};

        let configs = [
            (paper_params(0.5, 0.001), Workload::open_poisson(1.0)),
            (paper_params(0.0, 0.05), Workload::open_poisson(1.0)),
            (
                {
                    let mut p = paper_params(0.4, 0.3);
                    p.warmup = 1000.0;
                    p.max_queue = Some(2);
                    p
                },
                Workload::open_poisson(2.0),
            ),
            (
                paper_params(0.5, 0.01),
                Workload::Closed(ClosedWorkload {
                    population: 3,
                    think: Dist::Exponential { rate: 1.0 },
                }),
            ),
        ];
        for (i, (params, wl)) in configs.into_iter().enumerate() {
            let sim = CpuDes::new(params, wl).unwrap();
            for seed in [7u64, 99] {
                let mut rng_base = Xoshiro256PlusPlus::new(seed);
                let base = sim.run(&mut rng_base);

                let mut trace = TraceWriter::new(Vec::new()).with_limit(500);
                let mut rng = Xoshiro256PlusPlus::new(seed);
                let r = sim.run_observed(&mut rng, &mut trace);
                assert_eq!(r, base, "config {i} seed {seed}: TraceWriter");
                assert_eq!(rng, rng_base, "config {i} seed {seed}: TraceWriter RNG");
                assert!(trace.records_written() > 0);

                let mut timeline = StateTimeline::new();
                let mut rng = Xoshiro256PlusPlus::new(seed);
                let r = sim.run_observed(&mut rng, &mut timeline);
                assert_eq!(r, base, "config {i} seed {seed}: StateTimeline");
                assert_eq!(rng, rng_base, "config {i} seed {seed}: StateTimeline RNG");

                let mut counters = Counters::new();
                let mut rng = Xoshiro256PlusPlus::new(seed);
                let r = sim.run_observed(&mut rng, &mut counters);
                assert_eq!(r, base, "config {i} seed {seed}: Counters");
                let snap = counters.snapshot();
                assert!(snap.events > 0 && snap.rng_draws > 0);

                let mut tee = Tee::new(StateTimeline::new(), NoopObserver);
                let mut rng = Xoshiro256PlusPlus::new(seed);
                let r = sim.run_observed(&mut rng, &mut tee);
                assert_eq!(r, base, "config {i} seed {seed}: Tee");
            }
        }
    }

    #[test]
    fn timeline_sojourn_fractions_match_report() {
        // With warmup = 0 the observer's per-state sojourn totals span the
        // whole run, so its fractions must equal the report's exactly.
        use wsnem_obs::StateTimeline;
        let sim = CpuDes::new(paper_params(0.5, 0.001), Workload::open_poisson(1.0)).unwrap();
        let mut timeline = StateTimeline::new();
        let mut rng = Xoshiro256PlusPlus::new(42);
        let r = sim.run_observed(&mut rng, &mut timeline);
        assert!((timeline.total_time() - r.time_observed).abs() < 1e-9);
        let fr = r.fractions.as_array();
        for (state, &want) in fr.iter().enumerate() {
            let got = timeline.fraction(state as u8);
            assert!(
                (got - want).abs() < 1e-9,
                "state {state}: timeline {got} vs report {want}"
            );
        }
    }

    #[test]
    fn agenda_pops_ties_in_schedule_order() {
        let mut agenda = Agenda::new();
        agenda.schedule(2.0, Ev::ClosedArrival);
        agenda.schedule(1.0, Ev::PowerDownTimeout);
        agenda.schedule(1.0, Ev::ClosedArrival);
        agenda.schedule(1.0, Ev::Departure);
        agenda.schedule(1.0, Ev::ClosedArrival);
        agenda.schedule(2.0, Ev::Arrival);
        agenda.schedule(0.5, Ev::WarmupEnd);
        agenda.cancel(Ev::WarmupEnd);
        // Unclamped start-up think times may be negative.
        agenda.schedule(-1.0, Ev::ClosedArrival);
        assert_eq!(agenda.len(), 7);
        let order: Vec<(f64, Ev)> = std::iter::from_fn(|| agenda.pop()).collect();
        assert_eq!(
            order,
            [
                (-1.0, Ev::ClosedArrival),
                (1.0, Ev::PowerDownTimeout),
                (1.0, Ev::ClosedArrival),
                (1.0, Ev::Departure),
                (1.0, Ev::ClosedArrival),
                (2.0, Ev::ClosedArrival),
                (2.0, Ev::Arrival),
            ]
        );
        assert_eq!(agenda.len(), 0);
    }

    /// Assert that after the first power-up the CPU never powered down:
    /// the only standby time is the `first_arrival` seconds before it.
    fn assert_arrival_always_wins(r: &CpuRunReport, horizon: f64, first_arrival: f64) {
        assert_eq!(r.power_up_cycles, 1, "{r:?}");
        assert_eq!(r.power_down_cycles, 0, "{r:?}");
        assert!(
            (r.fractions.standby * horizon - first_arrival).abs() < 1e-9,
            "standby = {}",
            r.fractions.standby
        );
        assert!(r.completions > 100);
    }

    #[test]
    fn closed_submission_beats_a_tied_power_down_timer() {
        // Think time T: every departure schedules the next submission and
        // then arms a timer due at the same instant.
        let params = CpuSimParams {
            horizon: 1000.0,
            ..CpuSimParams::exponential_service(10.0, 0.5, 0.01)
        };
        let wl = Workload::Closed(ClosedWorkload {
            population: 1,
            think: Dist::Deterministic(0.5),
        });
        let r = CpuDes::new(params, wl).unwrap().run_with_seed(5);
        assert_arrival_always_wins(&r, 1000.0, 0.5);
    }

    #[test]
    fn open_arrival_beats_a_tied_power_down_timer() {
        // Arrivals every T + S: each job's timer falls due exactly when
        // the next job arrives, and that arrival was scheduled first.
        let params = CpuSimParams {
            service: Dist::Deterministic(0.25),
            power_down_threshold: 0.5,
            power_up_delay: 0.125,
            horizon: 1000.0,
            warmup: 0.0,
            max_queue: None,
        };
        let wl = Workload::Open(OpenWorkload::Renewal(Dist::Deterministic(0.75)));
        let r = CpuDes::new(params, wl).unwrap().run_with_seed(5);
        assert_arrival_always_wins(&r, 1000.0, 0.75);
    }

    #[test]
    fn energy_helpers() {
        let sim = CpuDes::new(paper_params(0.5, 0.001), Workload::open_poisson(1.0)).unwrap();
        let r = sim.run_with_seed(31);
        let p = PowerProfile::pxa271();
        let e = r.energy(&p);
        assert!(e.total_joules() > 0.0);
        assert!((r.energy_joules(&p) - e.total_joules()).abs() < 1e-12);
        // Bounded by the extreme per-state rates.
        let lo = 17.0 * r.time_observed / 1000.0;
        let hi = 193.0 * r.time_observed / 1000.0;
        assert!(e.total_joules() >= lo && e.total_joules() <= hi);
    }
}
