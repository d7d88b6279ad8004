//! The EDSPN token game.
//!
//! Execution alternates two phases:
//!
//! 1. **Vanishing resolution** — while any immediate transition is enabled,
//!    fire one (highest priority first; weight-proportional choice among
//!    ties) without advancing the clock. A chain longer than
//!    `max_vanishing_chain` aborts with [`PetriError::VanishingLoop`].
//! 2. **Tangible step** — every enabled timed transition holds a sampled
//!    firing time; the earliest fires and the clock advances. The race
//!    policy decides what happens to clocks on disabling
//!    ([`TimedPolicy::RaceResample`] discards, [`TimedPolicy::AgeMemory`]
//!    freezes the remaining time).
//!
//! Statistics (place token averages, marking rewards) integrate the
//! piecewise-constant tangible marking exactly between events; vanishing
//! markings have zero width and contribute nothing, matching standard
//! GSPN/EDSPN semantics.
//!
//! # Event-driven execution
//!
//! For nets above [`SCAN_THRESHOLD`] transitions the engine runs
//! event-driven rather than scan-driven; per event it pays O(log T + Δ)
//! instead of O(T + arcs):
//!
//! * **Incremental enabling counts** — the net precomputes a CSR of
//!   enabling conditions grouped by place ([`PetriNet::conds_of`]); the
//!   engine keeps one *unsatisfied-condition count* per transition and
//!   updates it from the `(place, old, new)` deltas of each firing, so
//!   enabling flips surface without re-reading the marking or re-walking
//!   arcs. The flip pass visits the exact transition sequence the
//!   full-recheck visits (fired first, then neighbours of changed places
//!   in order), so the RNG draw order — and therefore every trajectory —
//!   is preserved seed-for-seed.
//! * **Tombstone timer heap** — pending timed firings live in the shared
//!   [`wsnem_stats::pq::EventQueue`] (O(log T) schedule/pop, O(1) cancel),
//!   keyed by transition index so equal-time ties resolve exactly like a
//!   linear scan's "lowest index wins" rule.
//!
//! Small nets (the paper's CPU net has 8 transitions; M/M/1-style models
//! have 2) keep the direct path — `is_enabled` recheck plus a linear scan
//! of a flat `f64` timer array — because measured constant factors
//! dominate there: counting deltas and heap slab bookkeeping cost more
//! than walking two arcs. Both strategies share tie-break rules and RNG
//! draw order, so the chosen mode changes wall-clock only, never the
//! trajectory.
//!
//! # Firing plans
//!
//! Both modes take the per-firing neighbourhood from the net instead of
//! recomputing it: [`NetBuilder::build`](crate::net::NetBuilder::build)
//! stores, per transition, the places a firing changes and the
//! *recheck list* — every other transition reading those places,
//! deduplicated in first-visit order. A recheck never moves the marking,
//! so a repeated visit is a no-op and the deduplicated list reproduces the
//! full neighbour walk's visit order and RNG draws exactly. Unobserved
//! small-net firings apply the arcs straight to the marking; only an
//! attached observer reads the changed-place list (for `marking_update`).
//!
//! A scan-driven reference implementation is retained under `#[cfg(test)]`
//! (`sim::reference`) and a randomized battery (covering nets on both
//! sides of the threshold) asserts bit-identical outputs against it.

use wsnem_obs::{NoopObserver, Observer};
use wsnem_stats::dist::Sample;
use wsnem_stats::pq::{EventId, EventQueue};
use wsnem_stats::rng::Rng64;

use crate::error::PetriError;
use crate::net::{PetriNet, TimedPolicy, TransitionKind};
use crate::sim::{Reward, SimConfig, SimOutput};

/// Above this many transitions the engine switches to event-driven
/// execution (incremental enabling counts + tombstone timer heap); at or
/// below it, the direct `is_enabled` recheck and a linear minimum scan of
/// the timer vector are faster (fewer branches, no slab bookkeeping, no
/// count maintenance). Both strategies share tie-break rules and RNG draw
/// order, so the trajectory is identical — only the wall-clock changes.
const SCAN_THRESHOLD: usize = 16;

/// Timer value of a transition with no pending firing. A firing time of +∞
/// lies beyond every (finite) horizon, so the earliest-timer scan needs no
/// separate "scheduled" flag: an unscheduled slot simply never wins.
const UNSCHEDULED: f64 = f64::INFINITY;

/// Run one replication of the token game.
pub fn simulate<R: Rng64 + ?Sized>(
    net: &PetriNet,
    cfg: &SimConfig,
    rewards: &[Reward],
    rng: &mut R,
) -> Result<SimOutput, PetriError> {
    simulate_observed(net, cfg, rewards, rng, &mut NoopObserver)
}

/// Run one replication of the token game with an attached
/// [`Observer`](wsnem_obs::Observer).
///
/// The observer sees every firing (`firing`), every marking change
/// (`marking_update`), the timer-structure depth at each timed event
/// (`timer_depth`), each resolved vanishing chain (`vanishing_chain`), and
/// every RNG draw (`rng_draw`). Attaching an observer never perturbs the
/// trajectory: RNG draw order is identical with and without instrumentation,
/// and with [`NoopObserver`] (`ENABLED = false`) every hook compiles away,
/// leaving [`simulate`]'s exact machine code.
pub fn simulate_observed<R: Rng64 + ?Sized, O: Observer>(
    net: &PetriNet,
    cfg: &SimConfig,
    rewards: &[Reward],
    rng: &mut R,
    obs: &mut O,
) -> Result<SimOutput, PetriError> {
    cfg.validate()?;
    // Monomorphized per mode: zero runtime dispatch inside the hot loop.
    if net.n_transitions() > SCAN_THRESHOLD {
        Engine::<R, O, true>::new(net, cfg, rewards, rng, obs).run()
    } else {
        Engine::<R, O, false>::new(net, cfg, rewards, rng, obs).run()
    }
}

/// `ED` (event-driven) selects the mode at compile time: `true` runs
/// incremental counts + timer heap, `false` the small-net direct path.
struct Engine<'a, R: Rng64 + ?Sized, O: Observer, const ED: bool> {
    net: &'a PetriNet,
    cfg: &'a SimConfig,
    rewards: &'a [Reward],
    rng: &'a mut R,
    obs: &'a mut O,

    marking: crate::marking::Marking,
    now: f64,
    enabled: Vec<bool>,
    /// Sampled absolute firing time per transition while scheduled (timed
    /// only), [`UNSCHEDULED`] otherwise — scanned for the earliest firing
    /// on the small-net path, read back when AgeMemory freezes the
    /// remaining delay.
    timers: Vec<f64>,
    /// Frozen remaining delay for AgeMemory transitions while disabled.
    age_left: Vec<Option<f64>>,
    /// Unsatisfied enabling-condition count per transition; enabled iff 0
    /// (event-driven mode only).
    unsat: Vec<u32>,
    /// Heap handle of the pending firing per transition (event-driven mode
    /// only).
    timer_ids: Vec<Option<EventId>>,
    /// Pending timed firings, keyed by transition index for tie-breaks
    /// (event-driven mode only).
    queue: EventQueue<u32>,

    // Statistics.
    stats_start: f64,
    place_integral: Vec<f64>,
    reward_integral: Vec<f64>,
    reward_value: Vec<f64>,
    firings: Vec<u64>,
    warmup_done: bool,

    // Scratch buffer (no allocation in the hot loop).
    candidates: Vec<u32>,
}

impl<'a, R: Rng64 + ?Sized, O: Observer, const ED: bool> Engine<'a, R, O, ED> {
    fn new(
        net: &'a PetriNet,
        cfg: &'a SimConfig,
        rewards: &'a [Reward],
        rng: &'a mut R,
        obs: &'a mut O,
    ) -> Self {
        let marking = net.initial_marking();
        let nt = net.n_transitions();
        let mut unsat = vec![0u32; nt];
        if ED {
            net.count_unsat(&marking, &mut unsat);
        }
        let n_timed = net.timed_indices().len();
        Self {
            net,
            cfg,
            rewards,
            rng,
            obs,
            marking,
            now: 0.0,
            enabled: vec![false; nt],
            unsat,
            timers: vec![UNSCHEDULED; nt],
            timer_ids: vec![None; nt],
            queue: EventQueue::with_capacity(if ED { n_timed } else { 0 }),
            age_left: vec![None; nt],
            stats_start: 0.0,
            place_integral: vec![0.0; net.n_places()],
            reward_integral: vec![0.0; rewards.len()],
            reward_value: vec![0.0; rewards.len()],
            firings: vec![0; nt],
            warmup_done: cfg.warmup == 0.0,
            candidates: Vec::with_capacity(8),
        }
    }

    /// Fold one place's marking delta into the unsatisfied-condition counts.
    ///
    /// A condition of either kind flips exactly when `tokens >= bound`
    /// changes truth value; the inhibitor bit only decides the sign. Both
    /// are computed without branching on the arc kind.
    #[inline]
    fn apply_delta(&mut self, p: u32, old: u32, new: u32) {
        let net = self.net;
        for c in net.conds_of(p) {
            let ge_old = old >= c.bound();
            let ge_new = new >= c.bound();
            if ge_old != ge_new {
                // Became satisfied iff `tokens >= bound` now lands on the
                // satisfied side (inputs: true; inhibitors: false).
                if ge_new != c.inhibitor() {
                    self.unsat[c.trans as usize] -= 1;
                } else {
                    self.unsat[c.trans as usize] += 1;
                }
            }
        }
    }

    /// React to a (possible) enabling flip of transition `t`: sync the
    /// cached `enabled` bit with the unsatisfied count and maintain the
    /// timer according to the race policy. The RNG is touched only on a
    /// real flip of an enabled timed transition — exactly when the old
    /// full-recheck engine touched it, keeping trajectories seed-identical.
    fn flip_check(&mut self, t: u32) {
        let was = self.enabled[t as usize];
        let is = if ED {
            self.unsat[t as usize] == 0
        } else {
            self.net
                .is_enabled(&self.marking, crate::net::TransitionId(t))
        };
        if was == is {
            return;
        }
        self.enabled[t as usize] = is;
        match self.net.kind_ref(t) {
            TransitionKind::Immediate { .. } => {}
            TransitionKind::Timed { dist, policy } => {
                if is {
                    let delay = match policy {
                        TimedPolicy::RaceResample => {
                            if O::ENABLED {
                                self.obs.rng_draw();
                            }
                            dist.sample(self.rng).max(0.0)
                        }
                        TimedPolicy::AgeMemory => match self.age_left[t as usize].take() {
                            Some(left) => left,
                            None => {
                                if O::ENABLED {
                                    self.obs.rng_draw();
                                }
                                dist.sample(self.rng).max(0.0)
                            }
                        },
                    };
                    let at = self.now + delay;
                    self.timers[t as usize] = at;
                    if ED {
                        self.timer_ids[t as usize] =
                            Some(self.queue.schedule_keyed(at, t as u64, t));
                    }
                } else {
                    // An enabled timed transition always holds a timer, so
                    // `at` is its scheduled firing time.
                    let at = std::mem::replace(&mut self.timers[t as usize], UNSCHEDULED);
                    if ED {
                        if let Some(id) = self.timer_ids[t as usize].take() {
                            self.queue.cancel(id);
                        }
                    }
                    if *policy == TimedPolicy::AgeMemory {
                        self.age_left[t as usize] = Some((at - self.now).max(0.0));
                    }
                }
            }
        }
    }

    /// Fire `t`: move tokens and, event-driven, fold each place's delta
    /// into the enabling counts in the same pass (no second traversal, no
    /// old-value snapshots).
    fn fire_transition(&mut self, t: u32) {
        let net = self.net;
        if O::ENABLED {
            let immediate = net.kind_ref(t).is_immediate();
            self.obs.firing(self.now, t, immediate);
        }
        if ED {
            for &(p, mult) in net.input_arcs(t) {
                let old = self.marking.0[p as usize];
                debug_assert!(old >= mult, "firing disabled transition");
                let new = old - mult;
                self.marking.0[p as usize] = new;
                self.apply_delta(p, old, new);
            }
            for &(p, mult) in net.output_arcs(t) {
                let old = self.marking.0[p as usize];
                let new = old + mult;
                self.marking.0[p as usize] = new;
                self.apply_delta(p, old, new);
            }
        } else {
            // Small-net path: flips are rechecked directly from the
            // marking, so no count maintenance.
            net.fire_into(&mut self.marking, t);
        }
        if O::ENABLED {
            for &p in net.changed_places(t) {
                let tokens = self.marking.0[p as usize];
                self.obs.marking_update(self.now, p, tokens);
            }
        }
        if self.warmup_done {
            self.firings[t as usize] += 1;
        }
    }

    /// After firing, run flip checks over the fired transition and then
    /// its precompiled recheck list (the same visit order — and therefore
    /// RNG draw order — the scan engine used).
    fn propagate(&mut self, fired: u32) {
        // The fired transition consumed its own timer; force recompute
        // (without AgeMemory freezing — the clock was spent by firing).
        self.enabled[fired as usize] = false;
        self.timers[fired as usize] = UNSCHEDULED;
        if ED {
            if let Some(id) = self.timer_ids[fired as usize].take() {
                self.queue.cancel(id);
            }
        }
        self.flip_check(fired);
        // Enabling of neighbours of changed places may have flipped.
        for &t in self.net.recheck_after(fired) {
            self.flip_check(t);
        }
    }

    /// Fire one enabled immediate transition if any; returns whether one
    /// fired.
    fn fire_one_immediate(&mut self) -> bool {
        self.candidates.clear();
        let mut best_priority = 0u8;
        // `immediate_indices` is sorted highest priority first, so the
        // first enabled transition fixes the winning priority group and the
        // scan stops at the group's end instead of walking every immediate.
        // Priorities and weights come from the net's flat side tables — no
        // enum match per candidate.
        for &t in self.net.immediate_indices() {
            if !self.enabled[t as usize] {
                continue;
            }
            let priority = self.net.imm_priority(t);
            if self.candidates.is_empty() {
                self.candidates.push(t);
                best_priority = priority;
            } else if priority == best_priority {
                self.candidates.push(t);
            } else {
                break;
            }
        }
        let chosen = match self.candidates.len() {
            0 => return false,
            1 => self.candidates[0],
            _ => {
                // Weight-proportional random choice.
                let total: f64 = self
                    .candidates
                    .iter()
                    .map(|&t| self.net.imm_weight(t))
                    .sum();
                if O::ENABLED {
                    self.obs.rng_draw();
                }
                let mut u = self.rng.next_f64() * total;
                let mut pick = self.candidates[self.candidates.len() - 1];
                for &t in &self.candidates {
                    let weight = self.net.imm_weight(t);
                    if u < weight {
                        pick = t;
                        break;
                    }
                    u -= weight;
                }
                pick
            }
        };
        self.fire_transition(chosen);
        self.propagate(chosen);
        true
    }

    /// Exhaust immediate transitions (vanishing resolution).
    fn settle(&mut self) -> Result<(), PetriError> {
        let mut steps = 0usize;
        while self.fire_one_immediate() {
            steps += 1;
            if steps > self.cfg.max_vanishing_chain {
                return Err(PetriError::VanishingLoop { time: self.now });
            }
        }
        if O::ENABLED && steps > 0 {
            self.obs.vanishing_chain(self.now, steps);
        }
        // The tangible marking determines reward values until the next event.
        for (v, r) in self.reward_value.iter_mut().zip(self.rewards) {
            *v = r.eval(&self.marking);
        }
        Ok(())
    }

    /// Integrate statistics over `[self.now, t)` (marking constant there).
    fn accrue(&mut self, t: f64) {
        let dt = t - self.now;
        if dt <= 0.0 {
            return;
        }
        for (acc, &m) in self.place_integral.iter_mut().zip(self.marking.as_slice()) {
            *acc += m as f64 * dt;
        }
        for (acc, &v) in self.reward_integral.iter_mut().zip(&self.reward_value) {
            *acc += v * dt;
        }
    }

    fn reset_statistics(&mut self) {
        self.place_integral.iter_mut().for_each(|x| *x = 0.0);
        self.reward_integral.iter_mut().for_each(|x| *x = 0.0);
        self.firings.iter_mut().for_each(|x| *x = 0);
        self.stats_start = self.cfg.warmup;
        self.warmup_done = true;
    }

    /// Advance the clock to `t`, splitting the integration at the warm-up
    /// boundary if it lies inside `(now, t]`.
    fn advance_to(&mut self, t: f64) {
        if !self.warmup_done && t >= self.cfg.warmup {
            self.accrue(self.cfg.warmup);
            self.now = self.cfg.warmup;
            self.reset_statistics();
        }
        self.accrue(t);
        self.now = t;
    }

    fn run(mut self) -> Result<SimOutput, PetriError> {
        // Start-up flip pass in transition-index order (the order the old
        // full refresh sampled initial timers in).
        for t in 0..self.net.n_transitions() as u32 {
            self.flip_check(t);
        }
        self.settle()?;

        let horizon = self.cfg.horizon;
        let mut zeno_streak = 0usize;
        loop {
            // Earliest timed firing, ties to the lowest transition index:
            // O(log T) heap pop for many-timer nets, linear minimum scan
            // for small ones (same rule, so the same trajectory).
            let next = if ED {
                self.queue.pop()
            } else {
                let mut best = UNSCHEDULED;
                let mut pick = None;
                for &t in self.net.timed_indices() {
                    let at = self.timers[t as usize];
                    if at < best {
                        best = at;
                        pick = Some(t);
                    }
                }
                pick.map(|t| (best, t))
            };
            let Some((at, t)) = next else {
                break; // dead marking: idle to the horizon
            };
            debug_assert!(self.enabled[t as usize]);
            debug_assert_eq!(self.timers[t as usize], at);
            // This event is consumed (the heap already dropped its entry);
            // clear the per-transition handle so propagate's forced
            // recompute doesn't chase a stale id.
            self.timers[t as usize] = UNSCHEDULED;
            if ED {
                self.timer_ids[t as usize] = None;
            }
            if at > horizon {
                break;
            }
            if at <= self.now {
                zeno_streak += 1;
                if zeno_streak > self.cfg.zeno_guard {
                    return Err(PetriError::ZenoLoop {
                        time: self.now,
                        transition: self
                            .net
                            .transition_name(crate::net::TransitionId(t))
                            .to_owned(),
                    });
                }
            } else {
                zeno_streak = 0;
            }
            self.advance_to(at);
            if O::ENABLED {
                // Depth of the pending-timer structure after this event was
                // consumed: heap length event-driven, scheduled-timer count
                // on the direct path.
                let depth = if ED {
                    self.queue.len()
                } else {
                    self.timers.iter().filter(|&&x| x != UNSCHEDULED).count()
                };
                self.obs.timer_depth(at, depth);
            }
            self.fire_transition(t);
            self.propagate(t);
            self.settle()?;
        }
        self.advance_to(horizon);

        let observed = horizon - self.stats_start;
        let inv = if observed > 0.0 { 1.0 / observed } else { 0.0 };
        Ok(SimOutput {
            time_observed: observed,
            place_means: self.place_integral.iter().map(|x| x * inv).collect(),
            reward_means: self.reward_integral.iter().map(|x| x * inv).collect(),
            firings: self.firings,
            final_marking: self.marking,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetBuilder, PlaceId, TransitionKind};
    use crate::sim::Reward;
    use wsnem_stats::dist::Dist;
    use wsnem_stats::rng::Xoshiro256PlusPlus;

    fn run(net: &PetriNet, horizon: f64, rewards: &[Reward], seed: u64) -> SimOutput {
        let cfg = SimConfig::for_horizon(horizon);
        let mut rng = Xoshiro256PlusPlus::new(seed);
        simulate(net, &cfg, rewards, &mut rng).unwrap()
    }

    /// The paper's Fig. 1: P0 --T0--> P1, one token.
    #[test]
    fn fig1_single_transition() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t0 = b.exponential("T0", 2.0);
        b.input_arc(p0, t0, 1);
        b.output_arc(t0, p1, 1);
        let net = b.build().unwrap();
        let out = run(&net, 100.0, &[], 1);
        assert_eq!(out.final_marking.as_slice(), &[0, 1]);
        assert_eq!(out.firings, vec![1]);
        // P1 holds its token for ~(100 - Exp(2)) of 100 s.
        assert!(out.place_means[1] > 0.9);
        assert!((out.place_means[0] + out.place_means[1] - 1.0).abs() < 1e-9);
    }

    /// Two-state cycle: token alternates P0 -> P1 -> P0; mean tokens in P0
    /// must equal b/(a+b) (the CTMC stationary probability).
    #[test]
    fn two_state_cycle_matches_ctmc() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t01 = b.exponential("t01", 2.0);
        let t10 = b.exponential("t10", 3.0);
        b.input_arc(p0, t01, 1);
        b.output_arc(t01, p1, 1);
        b.input_arc(p1, t10, 1);
        b.output_arc(t10, p0, 1);
        let net = b.build().unwrap();
        let cfg = SimConfig {
            horizon: 50_000.0,
            warmup: 100.0,
            ..SimConfig::default()
        };
        let mut rng = Xoshiro256PlusPlus::new(42);
        let out = simulate(&net, &cfg, &[], &mut rng).unwrap();
        assert!(
            (out.place_means[0] - 0.6).abs() < 0.01,
            "{}",
            out.place_means[0]
        );
        assert!((out.place_means[1] - 0.4).abs() < 0.01);
        // Throughputs of the two transitions must match (flow balance) and
        // equal a·π0 = 1.2/s.
        assert!((out.throughput(0) - 1.2).abs() < 0.05);
        assert!((out.throughput(1) - 1.2).abs() < 0.05);
    }

    /// M/M/1 as a net: source (exp λ, no inputs) feeds Queue; server (exp μ)
    /// drains it. Mean queue ≈ ρ/(1−ρ), utilization ≈ ρ.
    #[test]
    fn mm1_net_matches_theory() {
        let mut b = NetBuilder::new();
        let q = b.place("Queue", 0);
        let arrive = b.exponential("arrive", 1.0);
        let serve = b.exponential("serve", 2.0);
        b.output_arc(arrive, q, 1);
        b.input_arc(q, serve, 1);
        let net = b.build().unwrap();
        let busy = Reward::indicator("busy", move |m| m.tokens(q) > 0);
        let cfg = SimConfig {
            horizon: 100_000.0,
            warmup: 1000.0,
            ..SimConfig::default()
        };
        let mut rng = Xoshiro256PlusPlus::new(7);
        let out = simulate(&net, &cfg, &[busy], &mut rng).unwrap();
        assert!(
            (out.place_means[0] - 1.0).abs() < 0.08,
            "L = {}",
            out.place_means[0]
        );
        assert!(
            (out.reward_means[0] - 0.5).abs() < 0.02,
            "ρ̂ = {}",
            out.reward_means[0]
        );
    }

    /// Deterministic transitions fire after exactly their delay.
    #[test]
    fn deterministic_timing_exact() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t = b.deterministic("t", 2.5);
        b.input_arc(p0, t, 1);
        b.output_arc(t, p1, 1);
        let net = b.build().unwrap();
        // Horizon 2.4: must NOT have fired.
        let out = run(&net, 2.4, &[], 1);
        assert_eq!(out.final_marking.as_slice(), &[1, 0]);
        // Horizon 2.6: must have fired; P1 occupied for 0.1/2.6 of the run.
        let out = run(&net, 2.6, &[], 1);
        assert_eq!(out.final_marking.as_slice(), &[0, 1]);
        assert!((out.place_means[1] - 0.1 / 2.6).abs() < 1e-9);
    }

    /// RaceResample (enabling memory): disabling resets a deterministic
    /// clock. An inhibited deterministic transition never fires if it is
    /// re-disabled faster than its delay.
    #[test]
    fn race_resample_resets_clock() {
        // "timer" (det 1.0) moves token P->Done but is inhibited by Busy.
        // "poke" (det 0.6) refills Busy; "drain" (det 0.3) empties Busy.
        // Busy is occupied during [poke, poke+0.3) every 0.6 s, so "timer"
        // is disabled every 0.6 s — it can never accumulate 1.0 s enabled.
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let done = b.place("Done", 0);
        let busy = b.place("Busy", 0);
        let gen = b.place("Gen", 1);
        let timer = b.deterministic("timer", 1.0);
        b.input_arc(p, timer, 1);
        b.output_arc(timer, done, 1);
        b.inhibitor_arc(busy, timer, 1);
        let poke = b.deterministic("poke", 0.6);
        b.input_arc(gen, poke, 1);
        b.output_arc(poke, busy, 1);
        let drain = b.deterministic("drain", 0.3);
        b.input_arc(busy, drain, 1);
        b.output_arc(drain, gen, 1);
        let net = b.build().unwrap();
        let out = run(&net, 100.0, &[], 5);
        assert_eq!(
            out.final_marking.tokens(done),
            0,
            "enabling-memory timer must keep resetting"
        );
    }

    /// AgeMemory: the same structure, but the timer keeps its progress
    /// across disablings, so it eventually fires.
    #[test]
    fn age_memory_accumulates_progress() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let done = b.place("Done", 0);
        let busy = b.place("Busy", 0);
        let gen = b.place("Gen", 1);
        let timer = b.transition(
            "timer",
            TransitionKind::Timed {
                dist: Dist::Deterministic(1.0),
                policy: crate::net::TimedPolicy::AgeMemory,
            },
        );
        b.input_arc(p, timer, 1);
        b.output_arc(timer, done, 1);
        b.inhibitor_arc(busy, timer, 1);
        let poke = b.deterministic("poke", 0.6);
        b.input_arc(gen, poke, 1);
        b.output_arc(poke, busy, 1);
        let drain = b.deterministic("drain", 0.3);
        b.input_arc(busy, drain, 1);
        b.output_arc(drain, gen, 1);
        let net = b.build().unwrap();
        let out = run(&net, 100.0, &[], 5);
        assert_eq!(out.final_marking.tokens(done), 1, "age memory must fire");
    }

    /// Immediate priorities: the higher-priority immediate always wins.
    #[test]
    fn immediate_priority_wins() {
        let mut b = NetBuilder::new();
        let src = b.place("Src", 0);
        let hi = b.place("Hi", 0);
        let lo = b.place("Lo", 0);
        let feed = b.exponential("feed", 1.0);
        b.output_arc(feed, src, 1);
        let t_hi = b.immediate("t_hi", 5, 1.0);
        b.input_arc(src, t_hi, 1);
        b.output_arc(t_hi, hi, 1);
        let t_lo = b.immediate("t_lo", 1, 1000.0);
        b.input_arc(src, t_lo, 1);
        b.output_arc(t_lo, lo, 1);
        let net = b.build().unwrap();
        let out = run(&net, 500.0, &[], 11);
        assert!(out.firings[1] > 100, "t_hi fired {}", out.firings[1]);
        assert_eq!(out.firings[2], 0, "low priority starves despite weight");
        assert_eq!(out.final_marking.tokens(lo), 0);
    }

    /// Equal-priority immediates split by weight.
    #[test]
    fn immediate_weights_split_probabilistically() {
        let mut b = NetBuilder::new();
        let src = b.place("Src", 0);
        let a = b.place("A", 0);
        let c = b.place("C", 0);
        let feed = b.exponential("feed", 10.0);
        b.output_arc(feed, src, 1);
        let ta = b.immediate("ta", 1, 3.0);
        b.input_arc(src, ta, 1);
        b.output_arc(ta, a, 1);
        let tc = b.immediate("tc", 1, 1.0);
        b.input_arc(src, tc, 1);
        b.output_arc(tc, c, 1);
        let net = b.build().unwrap();
        let out = run(&net, 3000.0, &[], 13);
        let total = (out.firings[1] + out.firings[2]) as f64;
        let frac_a = out.firings[1] as f64 / total;
        assert!((frac_a - 0.75).abs() < 0.02, "weight split {frac_a}");
    }

    /// A vanishing loop (two immediates feeding each other) is detected.
    #[test]
    fn vanishing_loop_detected() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t01 = b.immediate("t01", 1, 1.0);
        b.input_arc(p0, t01, 1);
        b.output_arc(t01, p1, 1);
        let t10 = b.immediate("t10", 1, 1.0);
        b.input_arc(p1, t10, 1);
        b.output_arc(t10, p0, 1);
        let net = b.build().unwrap();
        let cfg = SimConfig {
            horizon: 10.0,
            max_vanishing_chain: 1000,
            ..SimConfig::default()
        };
        let mut rng = Xoshiro256PlusPlus::new(3);
        assert!(matches!(
            simulate(&net, &cfg, &[], &mut rng),
            Err(PetriError::VanishingLoop { .. })
        ));
    }

    /// A zero-delay timed self-loop trips the Zeno guard.
    #[test]
    fn zeno_loop_detected() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let t = b.deterministic("t", 0.0);
        b.input_arc(p, t, 1);
        b.output_arc(t, p, 1);
        let net = b.build().unwrap();
        let cfg = SimConfig {
            horizon: 10.0,
            zeno_guard: 1000,
            ..SimConfig::default()
        };
        let mut rng = Xoshiro256PlusPlus::new(3);
        assert!(matches!(
            simulate(&net, &cfg, &[], &mut rng),
            Err(PetriError::ZenoLoop { .. })
        ));
    }

    /// Dead nets idle to the horizon with constant statistics.
    #[test]
    fn dead_marking_idles() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 3);
        let _unused = b.place("Q", 0);
        let t = b.exponential("t", 1.0);
        // t needs Q which is empty → dead immediately.
        let q = PlaceId(1);
        b.input_arc(q, t, 1);
        let net = b.build().unwrap();
        let _ = p;
        let out = run(&net, 50.0, &[Reward::tokens("p", PlaceId(0))], 9);
        assert_eq!(out.place_means[0], 3.0);
        assert_eq!(out.reward_means[0], 3.0);
        assert_eq!(out.firings, vec![0]);
        assert_eq!(out.time_observed, 50.0);
    }

    /// Warm-up removes the initial transient from the averages.
    #[test]
    fn warmup_truncation() {
        // Token starts in P0, moves to P1 after exactly 10 s and stays.
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t = b.deterministic("t", 10.0);
        b.input_arc(p0, t, 1);
        b.output_arc(t, p1, 1);
        let net = b.build().unwrap();
        let cfg = SimConfig {
            horizon: 100.0,
            warmup: 20.0,
            ..SimConfig::default()
        };
        let mut rng = Xoshiro256PlusPlus::new(1);
        let out = simulate(&net, &cfg, &[], &mut rng).unwrap();
        assert_eq!(out.place_means[1], 1.0, "transient excluded");
        assert_eq!(out.time_observed, 80.0);
        assert_eq!(out.firings, vec![0], "firing happened pre-warmup");
    }

    /// Determinism: same seed, same everything.
    #[test]
    fn deterministic_replication() {
        let mut b = NetBuilder::new();
        let q = b.place("Queue", 0);
        let arrive = b.exponential("arrive", 1.0);
        let serve = b.exponential("serve", 1.5);
        b.output_arc(arrive, q, 1);
        b.input_arc(q, serve, 1);
        let net = b.build().unwrap();
        let a = run(&net, 1000.0, &[], 123);
        let b2 = run(&net, 1000.0, &[], 123);
        assert_eq!(a, b2);
        let c = run(&net, 1000.0, &[], 124);
        assert_ne!(a.place_means, c.place_means);
    }
}
