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
//! * **Transition-keyed timer heap** — pending timed firings live in a
//!   `BinaryHeap` of `(time, transition)` entries (O(log T) schedule/pop),
//!   ordered by time and then by transition index, so equal-time ties
//!   resolve exactly like a linear scan's "lowest index wins" rule. A
//!   timed transition holds at most one pending firing, its `timers` slot,
//!   so nothing is cancelled: `pop` skips any entry whose time is not the
//!   transition's current timer. A stale entry that carries the live
//!   entry's exact `(time, transition)` is interchangeable with it. A
//!   firing time of +∞ equals the unscheduled slot value, so such an entry
//!   is never live; the linear scan never picks one either.
//!
//! Small nets (the paper's CPU net has 8 transitions; M/M/1-style models
//! have 2) keep the direct path — `is_enabled` recheck plus a linear scan
//! of a flat `f64` timer array — because measured constant factors
//! dominate there: counting deltas and heap bookkeeping cost more than
//! walking two arcs. Both strategies share tie-break rules and RNG
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
//!
//! # Marking memo
//!
//! The paper's net revisits few tangible markings: dozens per 1000 s
//! replication at its defaults, ~1300 at ρ = 0.9, against thousands of
//! firings. So the unobserved direct path keeps a memo of its marking
//! graph, built fresh for each replication and dropped with it:
//!
//! * **What is cached.** Each tangible marking gets a dense ID on its
//!   first visit (a `MarkingIndex` in `crate::marking`), with its reward
//!   values, so each reward closure runs once per distinct marking. Per
//!   `(ID, fired timed transition)` the memo records an *edge*: the
//!   successor ID after the vanishing closure, and the step's log, that is,
//!   the immediate transitions that fired and every enabling flip of a
//!   timed transition, in the order the live step made them.
//! * **Replay.** When a step's edge is recorded, the engine skips the arcs,
//!   the recheck walks, the immediate scan and the reward closures. It adds
//!   the firing counts, runs the timer work of each logged flip (sample,
//!   thaw, cancel or freeze) against the live timer state, and copies in
//!   the successor's marking and reward values.
//! * **Why the trajectory is unchanged.** Between tangible markings the
//!   only random numbers are the logged flips' timer samples and the
//!   weighted choices among tied immediates. Every enabling bit is a
//!   function of the marking, so the same marking and fired transition
//!   always yield the same flips in the same order; replaying them draws
//!   the same numbers in the same order. An edge whose closure made a
//!   weighted choice is never recorded, so that choice is always drawn
//!   live. Statistics still accrue from the same marking and reward values
//!   in the same order, so outputs are bit-identical with the memo or
//!   without it.
//! * **When it is bypassed.** An attached observer runs the live path
//!   unchanged, because it must see every firing and marking update.
//!   The memo switches itself off for the rest of the replication when it
//!   holds `MEMO_CAP` markings, when its log grows past `MEMO_LOG_CAP`
//!   entries, or when its misses outnumber its hits by `MEMO_MISS_LEAD`
//!   steps (markings that never repeat, as in an open queue that only
//!   grows). Nets on the event-driven path do not use it: their runs (the
//!   relay rings, say) rarely repeat a marking, and a replay would also
//!   have to restore the unsatisfied-condition counts and the timer heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wsnem_obs::{NoopObserver, Observer};
use wsnem_stats::dist::Sample;
use wsnem_stats::rng::Rng64;

use crate::error::PetriError;
use crate::marking::{Interned, MarkingIndex};
use crate::net::{PetriNet, TimedPolicy, TransitionKind};
use crate::sim::{Reward, SimConfig, SimOutput};

/// Above this many transitions the engine switches to event-driven
/// execution (incremental enabling counts + timer heap); at or below it,
/// the direct `is_enabled` recheck and a linear minimum scan of the timer
/// vector are faster (fewer branches, no heap or count maintenance). Both
/// strategies share tie-break rules and RNG draw order, so the trajectory
/// is identical — only the wall-clock changes.
const SCAN_THRESHOLD: usize = 16;

/// Timer value of a transition with no pending firing. A firing time of +∞
/// lies beyond every (finite) horizon, so the earliest-timer scan needs no
/// separate "scheduled" flag: an unscheduled slot simply never wins.
const UNSCHEDULED: f64 = f64::INFINITY;

/// Most tangible markings one replication's memo interns; the first
/// marking past it switches the memo off.
pub(crate) const MEMO_CAP: usize = 4096;

/// Most entries of the memo's step log; past it the memo switches off
/// (long vanishing chains could otherwise grow it without bound).
const MEMO_LOG_CAP: usize = 1 << 18;

/// The memo switches off once its misses outnumber its hits by more than
/// this many tangible steps: after 257 steps on a net whose markings never
/// repeat, but not while the first backlog of a queue that later cycles
/// fills (at λ = 9 and a 20 s power-up, ~200 new markings in a row).
const MEMO_MISS_LEAD: u32 = 256;

/// Step-log entry flags: an immediate firing, or an enabling flip of a
/// timed transition (with [`LOG_ON`] when it became enabled). The low bits
/// hold the transition index.
const LOG_FIRED: u32 = 1 << 31;
const LOG_ON: u32 = 1 << 30;

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
        let mut engine = Engine::<R, O, true>::new(net, cfg, rewards, rng, obs);
        engine.run()?;
        Ok(engine.into_output())
    } else {
        let mut engine = Engine::<R, O, false>::new(net, cfg, rewards, rng, obs);
        engine.run()?;
        Ok(engine.into_output())
    }
}

/// How one unobserved small-net run used its marking memo.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoCounts {
    /// Tangible steps replayed from the memo.
    pub hits: u32,
    /// Tangible steps fired live while the memo was on.
    pub misses: u32,
    /// Whether the memo was still on at the horizon.
    pub on: bool,
}

/// [`simulate`] on the direct path, also reporting the memo's counts.
#[cfg(test)]
pub(crate) fn simulate_counting_memo<R: Rng64 + ?Sized>(
    net: &PetriNet,
    cfg: &SimConfig,
    rewards: &[Reward],
    rng: &mut R,
) -> (Result<SimOutput, PetriError>, MemoCounts) {
    assert!(net.n_transitions() <= SCAN_THRESHOLD, "direct-path net");
    cfg.validate().expect("valid config");
    let mut obs = NoopObserver;
    let mut engine = Engine::<R, NoopObserver, false>::new(net, cfg, rewards, rng, &mut obs);
    let ran = engine.run();
    let counts = MemoCounts {
        hits: engine.memo.hits,
        misses: engine.memo.misses,
        on: engine.memo.on,
    };
    (ran.map(|()| engine.into_output()), counts)
}

/// The direct path's marking memo, built fresh for each replication (see
/// "Marking memo" in the module doc).
struct Memo {
    /// Whether the memo is in use; once off, it stays off.
    on: bool,
    /// Tangible markings visited so far, by ID.
    index: MarkingIndex,
    /// Reward values of each ID, `rewards.len()` per ID.
    rewards: Vec<f64>,
    /// Per `(ID, transition)`, at `id * n_transitions + t`: one plus the
    /// index of its recorded [`Edge`], or 0 while none is recorded.
    edge_of: Vec<u32>,
    edges: Vec<Edge>,
    /// The step logs of all edges, back to back: immediate firings and
    /// timed enabling flips in the order the live step made them.
    log: Vec<u32>,
    /// ID of the current tangible marking.
    cur: u32,
    /// Whether the live step being logged drew no random number for an
    /// immediate conflict, so that it may be replayed.
    cacheable: bool,
    hits: u32,
    misses: u32,
}

/// A recorded tangible step: firing `t` from marking `ID` leads to marking
/// `succ` after the vanishing closure, through `log[start..end]`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    succ: u32,
    start: u32,
    end: u32,
}

impl Memo {
    fn new(on: bool, n_places: usize) -> Self {
        Self {
            on,
            index: MarkingIndex::new(n_places, MEMO_CAP),
            rewards: Vec::new(),
            edge_of: Vec::new(),
            edges: Vec::new(),
            log: Vec::new(),
            cur: 0,
            cacheable: true,
            hits: 0,
            misses: 0,
        }
    }

    /// Switch off for the rest of the replication and free the tables.
    fn switch_off(&mut self) {
        *self = Self {
            hits: self.hits,
            misses: self.misses,
            ..Self::new(false, 0)
        };
    }
}

/// A timed firing on the event-driven path's heap: `(time bits,
/// transition)`. Firing times are never negative (the clock starts at 0
/// and delays are clamped at 0), and non-negative doubles order by their
/// bits as `f64::total_cmp` orders them, so the tuple order is the pop
/// order: earliest time first, then lowest transition index (`Reverse`
/// turns the max-heap into a min-heap).
type Pending = Reverse<(u64, u32)>;

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
    /// on the small-net path, matched against popped heap entries on the
    /// event-driven one, read back when AgeMemory freezes the remaining
    /// delay.
    timers: Vec<f64>,
    /// Frozen remaining delay for AgeMemory transitions while disabled.
    age_left: Vec<Option<f64>>,
    /// Unsatisfied enabling-condition count per transition; enabled iff 0
    /// (event-driven mode only).
    unsat: Vec<u32>,
    /// Scheduled timed firings, live and stale (event-driven mode only).
    heap: BinaryHeap<Pending>,

    // Statistics.
    stats_start: f64,
    place_integral: Vec<f64>,
    reward_integral: Vec<f64>,
    reward_value: Vec<f64>,
    firings: Vec<u64>,
    warmup_done: bool,

    // Scratch buffer (no allocation in the hot loop).
    candidates: Vec<u32>,

    /// Marking memo (direct path without an observer only).
    memo: Memo,
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
            heap: BinaryHeap::with_capacity(if ED { n_timed } else { 0 }),
            age_left: vec![None; nt],
            stats_start: 0.0,
            place_integral: vec![0.0; net.n_places()],
            reward_integral: vec![0.0; rewards.len()],
            reward_value: vec![0.0; rewards.len()],
            firings: vec![0; nt],
            warmup_done: cfg.warmup == 0.0,
            candidates: Vec::with_capacity(8),
            memo: Memo::new(!ED && !O::ENABLED, net.n_places()),
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
        if !ED && !O::ENABLED && self.memo.on && !self.net.kind_ref(t).is_immediate() {
            self.memo.log.push(t | if is { LOG_ON } else { 0 });
        }
        self.timer_flip(t, is);
    }

    /// Maintain the timer of transition `t` whose enabling just flipped to
    /// `is`, according to its race policy (immediates hold no timer).
    #[inline(always)]
    fn timer_flip(&mut self, t: u32, is: bool) {
        let TransitionKind::Timed { dist, policy } = self.net.kind_ref(t) else {
            return;
        };
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
                debug_assert!(at.is_sign_positive(), "heap keys need non-negative times");
                self.heap.push(Reverse((at.to_bits(), t)));
            }
        } else {
            // An enabled timed transition always holds a timer, so `at` is
            // its scheduled firing time.
            let at = std::mem::replace(&mut self.timers[t as usize], UNSCHEDULED);
            if *policy == TimedPolicy::AgeMemory {
                self.age_left[t as usize] = Some((at - self.now).max(0.0));
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
                // A drawn conflict resolution cannot be replayed.
                self.memo.cacheable = false;
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
        if !ED && !O::ENABLED && self.memo.on {
            self.memo.log.push(chosen | LOG_FIRED);
        }
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

    /// Fire timed transition `t` from the current tangible marking with the
    /// memo on: replay its recorded edge if the memo holds one, else fire
    /// it live and record the step.
    fn memo_step(&mut self, t: u32) -> Result<(), PetriError> {
        let slot = self.memo.cur as usize * self.net.n_transitions() + t as usize;
        match self.memo.edge_of[slot] {
            0 => self.record_step(t, slot),
            e => {
                self.memo.hits += 1;
                self.replay(t, self.memo.edges[e as usize - 1]);
                Ok(())
            }
        }
    }

    /// Fire `t` live with the memo on (which logs the step's immediate
    /// firings and timed flips); store it as the edge at `slot` if it drew
    /// no conflict resolution.
    fn record_step(&mut self, t: u32, slot: usize) -> Result<(), PetriError> {
        self.memo.misses += 1;
        let start = self.memo.log.len();
        self.memo.cacheable = true;
        self.fire_transition(t);
        self.propagate(t);
        self.settle()?;
        let Some(succ) = self.intern_tangible() else {
            return Ok(());
        };
        let memo = &mut self.memo;
        if memo.cacheable {
            memo.edges.push(Edge {
                succ,
                start: start as u32,
                end: memo.log.len() as u32,
            });
            memo.edge_of[slot] = memo.edges.len() as u32;
        } else {
            memo.log.truncate(start);
        }
        memo.cur = succ;
        if memo.log.len() > MEMO_LOG_CAP || memo.misses > memo.hits + MEMO_MISS_LEAD {
            memo.switch_off();
        }
        Ok(())
    }

    /// The memo ID of the current (tangible, settled) marking, cached with
    /// its reward values on a first visit; `None` switches the memo off
    /// when its table is full.
    fn intern_tangible(&mut self) -> Option<u32> {
        let memo = &mut self.memo;
        match memo.index.intern(self.marking.as_slice()) {
            Interned::Known(id) => Some(id),
            Interned::New(id) => {
                memo.rewards.extend_from_slice(&self.reward_value);
                let len = memo.edge_of.len() + self.net.n_transitions();
                memo.edge_of.resize(len, 0);
                Some(id)
            }
            Interned::Full => {
                memo.switch_off();
                None
            }
        }
    }

    /// Replay the recorded firing of timed transition `t`: the firing
    /// counts, the timer work of each logged flip in its logged order (so
    /// RNG draws keep their order), then the successor's marking and reward
    /// values.
    fn replay(&mut self, t: u32, edge: Edge) {
        if self.warmup_done {
            self.firings[t as usize] += 1;
        }
        // `propagate`'s reset of the fired transition (the main loop has
        // already unscheduled its timer).
        self.enabled[t as usize] = false;
        for i in edge.start..edge.end {
            let entry = self.memo.log[i as usize];
            let u = entry & !(LOG_FIRED | LOG_ON);
            if entry & LOG_FIRED != 0 {
                if self.warmup_done {
                    self.firings[u as usize] += 1;
                }
            } else {
                let is = entry & LOG_ON != 0;
                self.enabled[u as usize] = is;
                self.timer_flip(u, is);
            }
        }
        let memo = &mut self.memo;
        memo.cur = edge.succ;
        self.marking
            .0
            .copy_from_slice(memo.index.marking(edge.succ));
        let n = self.reward_value.len();
        let at = edge.succ as usize * n;
        self.reward_value.copy_from_slice(&memo.rewards[at..at + n]);
    }

    fn run(&mut self) -> Result<(), PetriError> {
        // Start-up flip pass in transition-index order (the order the old
        // full refresh sampled initial timers in).
        for t in 0..self.net.n_transitions() as u32 {
            self.flip_check(t);
        }
        self.settle()?;
        if self.memo.on {
            // The start-up pass logged its flips too; they belong to no edge.
            self.memo.log.clear();
            if let Some(id) = self.intern_tangible() {
                self.memo.cur = id;
            }
        }

        let horizon = self.cfg.horizon;
        let mut zeno_streak = 0usize;
        loop {
            // Earliest timed firing, ties to the lowest transition index:
            // O(log T) heap pop for many-timer nets, linear minimum scan
            // for small ones (same rule, so the same trajectory).
            let next = if ED {
                self.pop_pending()
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
            // This event is consumed (the heap already dropped its entry).
            self.timers[t as usize] = UNSCHEDULED;
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
                // Pending timers after this event was consumed: the
                // scheduled-timer count (the heap also holds stale entries).
                let depth = self.timers.iter().filter(|&&x| x != UNSCHEDULED).count();
                self.obs.timer_depth(at, depth);
            }
            if !ED && !O::ENABLED && self.memo.on {
                self.memo_step(t)?;
            } else {
                self.fire_transition(t);
                self.propagate(t);
                self.settle()?;
            }
        }
        self.advance_to(horizon);
        Ok(())
    }

    /// Remove and return the earliest live heap entry as `(time,
    /// transition)`, dropping stale entries on the way: an entry is live
    /// when its time is the transition's current timer and not
    /// [`UNSCHEDULED`].
    fn pop_pending(&mut self) -> Option<(f64, u32)> {
        while let Some(Reverse((bits, t))) = self.heap.pop() {
            if bits != UNSCHEDULED.to_bits() && bits == self.timers[t as usize].to_bits() {
                return Some((f64::from_bits(bits), t));
            }
        }
        None
    }

    fn into_output(self) -> SimOutput {
        let observed = self.cfg.horizon - self.stats_start;
        let inv = if observed > 0.0 { 1.0 / observed } else { 0.0 };
        SimOutput {
            time_observed: observed,
            place_means: self.place_integral.iter().map(|x| x * inv).collect(),
            reward_means: self.reward_integral.iter().map(|x| x * inv).collect(),
            firings: self.firings,
            final_marking: self.marking,
        }
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

    /// Event-driven nets with firing times of +∞ (a log-normal delay that
    /// overflows): an entry at +∞ never fires, whether its transition stays
    /// enabled (`never_live`), was disabled (`never_stale`, a stale entry
    /// whose time equals the unscheduled slot value) or froze its +∞
    /// remaining age (`frozen`). Once the finite relay finishes, only such
    /// entries are left, and the run idles to the horizon like the
    /// reference engine.
    #[test]
    fn infinite_firing_times_never_fire_on_the_event_driven_path() {
        let overflow = |policy| TransitionKind::Timed {
            dist: Dist::LogNormal {
                mu: 1000.0,
                sigma: 1.0,
            },
            policy,
        };
        let mut b = NetBuilder::new();
        let relay: Vec<PlaceId> = (0..=20)
            .map(|i| b.place(format!("C{i}"), u32::from(i == 0)))
            .collect();
        for i in 0..20 {
            let hop = b.deterministic(format!("hop{i}"), 0.5);
            b.input_arc(relay[i], hop, 1);
            b.output_arc(hop, relay[i + 1], 1);
        }
        let go = b.place("Go", 1);
        let done = b.place("Done", 0);
        let keep = b.place("Keep", 1);
        let never_stale = b.transition("never_stale", overflow(TimedPolicy::RaceResample));
        b.input_arc(go, never_stale, 1);
        let stop = b.deterministic("stop", 1.0);
        b.input_arc(go, stop, 1);
        b.output_arc(stop, done, 1);
        let never_live = b.transition("never_live", overflow(TimedPolicy::AgeMemory));
        b.input_arc(keep, never_live, 1);
        b.output_arc(never_live, keep, 1);
        // Enabled while the relay token waits in C5, over [2.5, 3.0).
        let frozen = b.transition("frozen", overflow(TimedPolicy::AgeMemory));
        b.input_arc(relay[5], frozen, 1);
        b.output_arc(frozen, relay[5], 1);
        let net = b.build().unwrap();
        assert!(net.n_transitions() > SCAN_THRESHOLD);
        let cfg = SimConfig::for_horizon(50.0);
        for seed in [1u64, 8] {
            let out = run(&net, 50.0, &[], seed);
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let reference =
                crate::sim::reference::simulate_reference(&net, &cfg, &[], &mut rng).unwrap();
            assert_eq!(out, reference, "seed {seed}");
            for t in [never_stale, never_live, frozen] {
                assert_eq!(out.firings[t.index()], 0, "{}", net.transition_name(t));
            }
            assert_eq!(out.firings[stop.index()], 1);
            assert_eq!(out.final_marking.tokens(done), 1);
            assert_eq!(out.final_marking.tokens(relay[20]), 1);
        }
    }
}
