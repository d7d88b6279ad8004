//! The scan-driven reference token game (test-only).
//!
//! This is the pre-event-driven engine, retained as the semantic
//! oracle for the heap+counter engine in [`super::engine`]: every event it
//! re-scans `timed_indices()` for the earliest timer and re-walks arcs via
//! `net.is_enabled()`. Slow, but obviously correct — the randomized battery
//! below asserts the production engine reproduces its `firings` and
//! `place_means` **bit-for-bit** on nets mixing immediates, both timer
//! policies, inhibitor arcs and zero-delay timed transitions.
//!
//! The oracle shares none of the engine's precompiled tables: after each
//! firing it collects the changed places and walks every reader of each,
//! repeats included, from adjacency lists it derives itself from the
//! public arc iterators.

use wsnem_stats::dist::Sample;
use wsnem_stats::rng::Rng64;

use crate::error::PetriError;
use crate::net::{PetriNet, TimedPolicy, TransitionKind};
use crate::sim::{Reward, SimConfig, SimOutput};

/// Run one replication with the scan-driven reference engine.
pub(crate) fn simulate_reference<R: Rng64 + ?Sized>(
    net: &PetriNet,
    cfg: &SimConfig,
    rewards: &[Reward],
    rng: &mut R,
) -> Result<SimOutput, PetriError> {
    cfg.validate()?;
    RefEngine::new(net, cfg, rewards, rng).run()
}

struct RefEngine<'a, R: Rng64 + ?Sized> {
    net: &'a PetriNet,
    cfg: &'a SimConfig,
    rewards: &'a [Reward],
    rng: &'a mut R,
    /// place index → transitions having it as input or inhibitor.
    affecting: Vec<Vec<u32>>,

    marking: crate::marking::Marking,
    now: f64,
    enabled: Vec<bool>,
    /// Sampled absolute firing time per transition (timed only).
    timers: Vec<Option<f64>>,
    /// Frozen remaining delay for AgeMemory transitions while disabled.
    age_left: Vec<Option<f64>>,

    // Statistics.
    stats_start: f64,
    place_integral: Vec<f64>,
    reward_integral: Vec<f64>,
    reward_value: Vec<f64>,
    firings: Vec<u64>,
    warmup_done: bool,

    // Scratch buffers.
    changed: Vec<u32>,
    candidates: Vec<u32>,
}

impl<'a, R: Rng64 + ?Sized> RefEngine<'a, R> {
    fn new(net: &'a PetriNet, cfg: &'a SimConfig, rewards: &'a [Reward], rng: &'a mut R) -> Self {
        let marking = net.initial_marking();
        let nt = net.n_transitions();
        let mut affecting: Vec<Vec<u32>> = vec![Vec::new(); net.n_places()];
        for t in net.transitions() {
            for (p, _) in net.inputs(t).chain(net.inhibitors(t)) {
                let list = &mut affecting[p.index()];
                if !list.contains(&(t.index() as u32)) {
                    list.push(t.index() as u32);
                }
            }
        }
        Self {
            net,
            cfg,
            rewards,
            rng,
            affecting,
            marking,
            now: 0.0,
            enabled: vec![false; nt],
            timers: vec![None; nt],
            age_left: vec![None; nt],
            stats_start: 0.0,
            place_integral: vec![0.0; net.n_places()],
            reward_integral: vec![0.0; rewards.len()],
            reward_value: vec![0.0; rewards.len()],
            firings: vec![0; nt],
            warmup_done: cfg.warmup == 0.0,
            changed: Vec::with_capacity(8),
            candidates: Vec::with_capacity(8),
        }
    }

    /// Recompute enabling of transition `t` by re-walking its arcs.
    fn refresh_transition(&mut self, t: u32) {
        let ti = crate::net::TransitionId(t);
        let was = self.enabled[t as usize];
        let is = self.net.is_enabled(&self.marking, ti);
        if was == is {
            return;
        }
        self.enabled[t as usize] = is;
        match self.net.kind(ti) {
            TransitionKind::Immediate { .. } => {}
            TransitionKind::Timed { dist, policy } => {
                if is {
                    let delay = match policy {
                        TimedPolicy::RaceResample => dist.sample(self.rng).max(0.0),
                        TimedPolicy::AgeMemory => self.age_left[t as usize]
                            .take()
                            .unwrap_or_else(|| dist.sample(self.rng).max(0.0)),
                    };
                    self.timers[t as usize] = Some(self.now + delay);
                } else {
                    let fire_at = self.timers[t as usize].take();
                    if policy == TimedPolicy::AgeMemory {
                        if let Some(at) = fire_at {
                            self.age_left[t as usize] = Some((at - self.now).max(0.0));
                        }
                    }
                }
            }
        }
    }

    /// Fire `t`, recording the changed places (inputs first, then outputs
    /// not already listed) into `changed`.
    fn fire(&mut self, t: u32) {
        self.changed.clear();
        for &(p, mult) in self.net.input_arcs(t) {
            self.marking.0[p as usize] -= mult;
            self.changed.push(p);
        }
        for &(p, mult) in self.net.output_arcs(t) {
            self.marking.0[p as usize] += mult;
            if !self.changed.contains(&p) {
                self.changed.push(p);
            }
        }
        if self.warmup_done {
            self.firings[t as usize] += 1;
        }
    }

    fn refresh_all(&mut self) {
        for t in 0..self.net.n_transitions() as u32 {
            self.refresh_transition(t);
        }
    }

    fn propagate(&mut self, fired: u32) {
        self.enabled[fired as usize] = false;
        self.timers[fired as usize] = None;
        self.refresh_transition(fired);
        for i in 0..self.changed.len() {
            let p = self.changed[i] as usize;
            for j in 0..self.affecting[p].len() {
                let t = self.affecting[p][j];
                if t != fired {
                    self.refresh_transition(t);
                }
            }
        }
    }

    fn fire_one_immediate(&mut self) -> bool {
        self.candidates.clear();
        let mut best_priority = 0u8;
        for &t in self.net.immediate_indices() {
            if !self.enabled[t as usize] {
                continue;
            }
            let TransitionKind::Immediate { priority, .. } =
                self.net.kind(crate::net::TransitionId(t))
            else {
                unreachable!("immediate_indices only lists immediates");
            };
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
                let total: f64 = self
                    .candidates
                    .iter()
                    .map(|&t| match self.net.kind(crate::net::TransitionId(t)) {
                        TransitionKind::Immediate { weight, .. } => weight,
                        _ => unreachable!(),
                    })
                    .sum();
                let mut u = self.rng.next_f64() * total;
                let mut pick = self.candidates[self.candidates.len() - 1];
                for &t in &self.candidates {
                    let TransitionKind::Immediate { weight, .. } =
                        self.net.kind(crate::net::TransitionId(t))
                    else {
                        unreachable!()
                    };
                    if u < weight {
                        pick = t;
                        break;
                    }
                    u -= weight;
                }
                pick
            }
        };
        self.fire(chosen);
        self.propagate(chosen);
        true
    }

    fn settle(&mut self) -> Result<(), PetriError> {
        let mut steps = 0usize;
        while self.fire_one_immediate() {
            steps += 1;
            if steps > self.cfg.max_vanishing_chain {
                return Err(PetriError::VanishingLoop { time: self.now });
            }
        }
        for (v, r) in self.reward_value.iter_mut().zip(self.rewards) {
            *v = r.eval(&self.marking);
        }
        Ok(())
    }

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
        self.refresh_all();
        self.settle()?;

        let horizon = self.cfg.horizon;
        let mut zeno_streak = 0usize;
        loop {
            // Earliest timed firing: the O(T) linear scan, ties to the
            // lowest transition index.
            let mut next: Option<(f64, u32)> = None;
            for &t in self.net.timed_indices() {
                if let Some(at) = self.timers[t as usize] {
                    debug_assert!(self.enabled[t as usize]);
                    match next {
                        Some((best, _)) if at >= best => {}
                        _ => next = Some((at, t)),
                    }
                }
            }
            let Some((at, t)) = next else {
                break; // dead marking: idle to the horizon
            };
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
            self.fire(t);
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
    use crate::net::{NetBuilder, PlaceId, TimedPolicy, TransitionKind};
    use crate::sim::engine::simulate;
    use wsnem_stats::dist::Dist;
    use wsnem_stats::rng::{Rng64, Xoshiro256PlusPlus};

    /// Build a seeded random net mixing immediate transitions (random
    /// priorities/weights), exponential and deterministic timed transitions
    /// under both race policies, zero-delay timed transitions, multi-input
    /// arcs and inhibitors. `wide` nets carry dozens of transitions so they
    /// cross the engine's heap threshold — the battery must exercise both
    /// the linear-scan and the timer-heap selection paths.
    fn random_net(rng: &mut Xoshiro256PlusPlus, wide: bool) -> PetriNet {
        let (n_places, n_trans) = if wide {
            (
                8 + (rng.next_u64() % 8) as usize,   // 8..=15
                24 + (rng.next_u64() % 16) as usize, // 24..=39
            )
        } else {
            (
                3 + (rng.next_u64() % 6) as usize, // 3..=8
                3 + (rng.next_u64() % 8) as usize, // 3..=10
            )
        };
        let mut b = NetBuilder::new();
        let places: Vec<PlaceId> = (0..n_places)
            .map(|i| b.place(format!("P{i}"), (rng.next_u64() % 3) as u32))
            .collect();
        for i in 0..n_trans {
            let kind = random_kind(rng, false);
            let t = b.transition(format!("T{i}"), kind);
            // Distinct places per arc kind: walk a random rotation.
            let start = (rng.next_u64() % n_places as u64) as usize;
            let n_in = 1 + (rng.next_u64() % 2) as usize;
            let n_out = 1 + (rng.next_u64() % 2) as usize;
            for k in 0..n_in {
                b.input_arc(
                    places[(start + k) % n_places],
                    t,
                    1 + (rng.next_u64() % 2) as u32,
                );
            }
            let out_start = (rng.next_u64() % n_places as u64) as usize;
            for k in 0..n_out {
                b.output_arc(
                    t,
                    places[(out_start + k) % n_places],
                    1 + (rng.next_u64() % 2) as u32,
                );
            }
            if rng.next_u64().is_multiple_of(3) {
                let p = (rng.next_u64() % n_places as u64) as usize;
                b.inhibitor_arc(places[p], t, 1 + (rng.next_u64() % 4) as u32);
            }
        }
        b.build().expect("random net is structurally valid")
    }

    /// A random transition kind: immediate (random priority/weight),
    /// zero-delay timed, exponential or deterministic, under either race
    /// policy. `timed_only` turns the immediate and zero-delay draws into
    /// exponentials (for sources, which would otherwise loop forever).
    fn random_kind(rng: &mut Xoshiro256PlusPlus, timed_only: bool) -> TransitionKind {
        let policy = |rng: &mut Xoshiro256PlusPlus| {
            if rng.next_u64().is_multiple_of(2) {
                TimedPolicy::RaceResample
            } else {
                TimedPolicy::AgeMemory
            }
        };
        match rng.next_u64() % 8 {
            0 | 1 if !timed_only => TransitionKind::Immediate {
                priority: (rng.next_u64() % 3) as u8,
                weight: 0.5 + rng.next_f64(),
            },
            // Zero-delay timed: stresses the Zeno path and equal-time
            // tie-breaking in the timer heap.
            2 if !timed_only => TransitionKind::Timed {
                dist: Dist::Deterministic(0.0),
                policy: policy(rng),
            },
            0..=5 => TransitionKind::Timed {
                dist: Dist::Exponential {
                    rate: 0.5 + 2.0 * rng.next_f64(),
                },
                policy: policy(rng),
            },
            _ => TransitionKind::Timed {
                dist: Dist::Deterministic(0.05 + rng.next_f64()),
                policy: policy(rng),
            },
        }
    }

    /// Second population, from its own generator: the arc shapes where a
    /// precompiled changed-place or recheck list could drift from the
    /// dynamic walk. Every net mixes
    ///
    /// * **sources** — timed transitions with no input arcs (the shape of
    ///   the paper's `AR` and the M/M/1 `arrive`), half of them bounded by
    ///   an inhibitor on a place they feed;
    /// * **self-loops** — transitions whose input and output arcs hit the
    ///   same place (the shape of `T5`, `T6` and `T2`): 2–3 inputs, a
    ///   proper subset of them put back, sometimes listed after a fresh
    ///   output place;
    /// * plain transitions as in [`random_net`].
    fn random_shaped_net(rng: &mut Xoshiro256PlusPlus, wide: bool) -> PetriNet {
        let n_places = 3 + (rng.next_u64() % if wide { 10 } else { 6 }) as usize;
        let n_trans = if wide {
            24 + (rng.next_u64() % 16) as usize // 24..=39
        } else {
            3 + (rng.next_u64() % 8) as usize // 3..=10
        };
        let mut b = NetBuilder::new();
        let places: Vec<PlaceId> = (0..n_places)
            .map(|i| b.place(format!("P{i}"), (rng.next_u64() % 3) as u32))
            .collect();
        let pick =
            |rng: &mut Xoshiro256PlusPlus| places[(rng.next_u64() % n_places as u64) as usize];
        for i in 0..n_trans {
            // The first two transitions are a source and a self-loop, so
            // every net carries both shapes.
            let shape = if i < 2 { i as u64 } else { rng.next_u64() % 4 };
            let t = b.transition(format!("T{i}"), random_kind(rng, shape == 0));
            let mult = |rng: &mut Xoshiro256PlusPlus| 1 + (rng.next_u64() % 2) as u32;
            match shape {
                0 => {
                    let out = pick(rng);
                    b.output_arc(t, out, mult(rng));
                    if rng.next_u64().is_multiple_of(2) {
                        b.inhibitor_arc(out, t, 2 + (rng.next_u64() % 4) as u32);
                    }
                }
                1 => {
                    let start = (rng.next_u64() % n_places as u64) as usize;
                    let n_in = 2 + (rng.next_u64() % 2) as usize;
                    let inputs: Vec<(PlaceId, u32)> = (0..n_in)
                        .map(|k| (places[(start + k) % n_places], mult(rng)))
                        .collect();
                    for &(p, m) in &inputs {
                        b.input_arc(p, t, m);
                    }
                    // Put back 1..n_in-1 of the inputs from a random one on
                    // (`T6` returns its first input, `T5` and `T2` a later
                    // one), mostly with the multiplicity taken so the
                    // place's marking does not move, with a fresh output
                    // place before them (`T6`: Power_Up, then P6), after
                    // them (`T2`: CPU_ON, then Active) or none (`T5`).
                    let fresh = places[(start + n_in) % n_places];
                    let fresh = (!inputs.iter().any(|&(p, _)| p == fresh)).then_some(fresh);
                    let fresh_at = rng.next_u64() % 3;
                    if let (Some(f), 1) = (fresh, fresh_at) {
                        b.output_arc(t, f, mult(rng));
                    }
                    let kept = 1 + (rng.next_u64() % (n_in as u64 - 1)) as usize;
                    let first = (rng.next_u64() % n_in as u64) as usize;
                    for k in 0..kept {
                        let (p, m) = inputs[(first + k) % n_in];
                        let m = if rng.next_u64().is_multiple_of(4) {
                            mult(rng)
                        } else {
                            m
                        };
                        b.output_arc(t, p, m);
                    }
                    if let (Some(f), 2) = (fresh, fresh_at) {
                        b.output_arc(t, f, mult(rng));
                    }
                }
                _ => {
                    let n_in = 1 + (rng.next_u64() % 2) as usize;
                    let start = (rng.next_u64() % n_places as u64) as usize;
                    for k in 0..n_in {
                        b.input_arc(places[(start + k) % n_places], t, mult(rng));
                    }
                    b.output_arc(t, pick(rng), mult(rng));
                }
            }
            if shape != 0 && rng.next_u64().is_multiple_of(3) {
                b.inhibitor_arc(pick(rng), t, 1 + (rng.next_u64() % 4) as u32);
            }
        }
        b.build().expect("shaped net is structurally valid")
    }

    /// One battery run: a net, its configuration and its RNG seed.
    struct Case {
        label: String,
        /// Whether the net came from [`random_shaped_net`].
        shaped: bool,
        net: PetriNet,
        cfg: SimConfig,
        seed: u64,
    }

    fn battery_cfg(case: u64) -> SimConfig {
        SimConfig {
            horizon: 40.0,
            warmup: if case.is_multiple_of(3) { 5.0 } else { 0.0 },
            // Tight guards so Zeno/vanishing-prone nets terminate fast
            // (and must do so identically in both engines).
            max_vanishing_chain: 5_000,
            zeno_guard: 5_000,
        }
    }

    /// The 80 [`random_net`] cases, then 48 [`random_shaped_net`] cases.
    /// Every fourth net of each population is wide (24+ transitions) so the
    /// heap-selection path is battered too, not just the scan.
    fn battery_cases() -> Vec<Case> {
        let mut cases = Vec::new();
        let mut gen = Xoshiro256PlusPlus::new(0xED5_B411E);
        for case in 0..80u64 {
            cases.push(Case {
                label: format!("case {case}"),
                shaped: false,
                net: random_net(&mut gen, case % 4 == 0),
                cfg: battery_cfg(case),
                seed: 1000 + case,
            });
        }
        let mut gen = Xoshiro256PlusPlus::new(0x5A9E_2008);
        for case in 0..48u64 {
            cases.push(Case {
                label: format!("shaped case {case}"),
                shaped: true,
                net: random_shaped_net(&mut gen, case % 4 == 0),
                cfg: battery_cfg(case),
                seed: 5000 + case,
            });
        }
        cases
    }

    /// The battery: for many seeded random nets, the heap+counter engine
    /// must reproduce the reference scan engine's output — `firings` and
    /// `place_means` bit-for-bit — or fail with the identical error.
    #[test]
    fn randomized_engine_equivalence_battery() {
        // Clean runs of the plain and the shaped population.
        let mut ok_runs = [0usize; 2];
        for Case {
            label: case,
            shaped,
            net,
            cfg,
            seed,
        } in battery_cases()
        {
            let mut rng_new = Xoshiro256PlusPlus::new(seed);
            let mut rng_ref = Xoshiro256PlusPlus::new(seed);
            let out_new = simulate(&net, &cfg, &[], &mut rng_new);
            let out_ref = simulate_reference(&net, &cfg, &[], &mut rng_ref);
            assert_eq!(out_new, out_ref, "{case} diverged");
            // Both engines must also have consumed the same RNG stream.
            assert_eq!(
                rng_new.next_u64(),
                rng_ref.next_u64(),
                "{case}: RNG streams desynchronized"
            );
            if out_new.is_ok() {
                ok_runs[shaped as usize] += 1;
            }
        }
        // The generators must actually produce runnable nets (not only
        // degenerate error cases) for the battery to mean anything; a few
        // Zeno/vanishing cases are expected and fine.
        assert!(ok_runs[0] >= 40, "only {} clean runs of 80", ok_runs[0]);
        assert!(
            ok_runs[1] >= 24,
            "only {} clean shaped runs of 48",
            ok_runs[1]
        );
    }

    /// Attaching any concrete observer must leave the trajectory — output
    /// AND RNG stream position — bit-identical to the unobserved run, over
    /// the same randomized populations as the engine battery.
    #[test]
    fn observer_equivalence_battery() {
        use crate::sim::engine::simulate_observed;
        use wsnem_obs::{Counters, NoopObserver, StateTimeline, Tee, TraceWriter};

        let mut traced_records = 0usize;
        for (
            i,
            Case {
                label: case,
                net,
                cfg,
                seed,
                ..
            },
        ) in battery_cases().into_iter().enumerate()
        {
            let mut rng_base = Xoshiro256PlusPlus::new(seed);
            let out_base = simulate(&net, &cfg, &[], &mut rng_base);

            // NDJSON trace into a memory sink (sampled on odd cases to also
            // cover the admission logic).
            let mut trace =
                TraceWriter::new(Vec::new()).with_sampling(if i % 2 == 1 { 3 } else { 1 });
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let out = simulate_observed(&net, &cfg, &[], &mut rng, &mut trace);
            assert_eq!(out, out_base, "{case}: TraceWriter perturbed run");
            assert_eq!(rng, rng_base, "{case}: TraceWriter moved the RNG");
            traced_records += trace.records_written();

            let mut timeline = StateTimeline::new();
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let out = simulate_observed(&net, &cfg, &[], &mut rng, &mut timeline);
            assert_eq!(out, out_base, "{case}: StateTimeline perturbed run");
            assert_eq!(rng, rng_base, "{case}: StateTimeline moved the RNG");

            let mut counters = Counters::new();
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let out = simulate_observed(&net, &cfg, &[], &mut rng, &mut counters);
            assert_eq!(out, out_base, "{case}: Counters perturbed run");
            assert_eq!(rng, rng_base, "{case}: Counters moved the RNG");
            if let Ok(ref o) = out_base {
                let total: u64 = o.firings.iter().sum();
                let snap = counters.snapshot();
                assert!(
                    snap.firings >= total,
                    "{case}: observer saw {} firings, report counted {total} \
                     (pre-warmup firings are observed but not reported)",
                    snap.firings
                );
            }

            let mut tee = Tee::new(Counters::new(), NoopObserver);
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let out = simulate_observed(&net, &cfg, &[], &mut rng, &mut tee);
            assert_eq!(out, out_base, "{case}: Tee perturbed run");
            assert_eq!(rng, rng_base, "{case}: Tee moved the RNG");
        }
        assert!(traced_records > 1000, "traces were empty: {traced_records}");
    }

    /// Same battery idea on the paper's own CPU net shape: rewards included,
    /// several seeds, longer horizon with warm-up.
    #[test]
    fn paper_shaped_net_equivalence_with_rewards() {
        // A miniature power-state net: Busy/Idle with an inhibitor-gated
        // deterministic power-down timer and an immediate dispatch.
        let mut b = NetBuilder::new();
        let queue = b.place("Queue", 0);
        let idle = b.place("Idle", 1);
        let busy = b.place("Busy", 0);
        let sleep = b.place("Sleep", 0);
        let arrive = b.exponential("arrive", 1.2);
        b.output_arc(arrive, queue, 1);
        b.inhibitor_arc(queue, arrive, 8);
        let dispatch = b.immediate("dispatch", 1, 1.0);
        b.input_arc(queue, dispatch, 1);
        b.input_arc(idle, dispatch, 1);
        b.output_arc(dispatch, busy, 1);
        let serve = b.exponential("serve", 4.0);
        b.input_arc(busy, serve, 1);
        b.output_arc(serve, idle, 1);
        let down = b.deterministic("down", 0.5);
        b.input_arc(idle, down, 1);
        b.output_arc(down, sleep, 1);
        b.inhibitor_arc(queue, down, 1);
        let wake = b.deterministic("wake", 0.1);
        b.input_arc(sleep, wake, 1);
        b.output_arc(wake, idle, 1);
        let net = b.build().unwrap();
        let rewards = [
            Reward::tokens("queue", queue),
            Reward::indicator("sleeping", move |m| m.tokens(sleep) > 0),
        ];
        let cfg = SimConfig {
            horizon: 500.0,
            warmup: 50.0,
            ..SimConfig::default()
        };
        for seed in [1u64, 7, 42, 1234, 0xDEAD] {
            let mut rng_new = Xoshiro256PlusPlus::new(seed);
            let mut rng_ref = Xoshiro256PlusPlus::new(seed);
            let a = simulate(&net, &cfg, &rewards, &mut rng_new).unwrap();
            let r = simulate_reference(&net, &cfg, &rewards, &mut rng_ref).unwrap();
            assert_eq!(a, r, "seed {seed}");
        }
    }

    /// The many-timed bench shape: a closed ring of relays, every place
    /// marked, so all transitions race concurrently — heap selection
    /// guaranteed, equal-rate ties abundant.
    #[test]
    fn relay_ring_equivalence() {
        let n = 64usize;
        let mut b = NetBuilder::new();
        let places: Vec<PlaceId> = (0..n).map(|i| b.place(format!("Q{i}"), 1)).collect();
        for i in 0..n {
            let t = b.exponential(format!("hop{i}"), 1.0);
            b.input_arc(places[i], t, 1);
            b.output_arc(t, places[(i + 1) % n], 1);
        }
        let net = b.build().unwrap();
        let cfg = SimConfig::for_horizon(25.0);
        for seed in [3u64, 17, 2024] {
            let mut rng_new = Xoshiro256PlusPlus::new(seed);
            let mut rng_ref = Xoshiro256PlusPlus::new(seed);
            let a = simulate(&net, &cfg, &[], &mut rng_new).unwrap();
            let r = simulate_reference(&net, &cfg, &[], &mut rng_ref).unwrap();
            assert_eq!(a, r, "seed {seed}");
            // Token conservation across the ring.
            assert_eq!(a.final_marking.as_slice().iter().sum::<u32>(), n as u32);
        }
    }

    /// Pinned AgeMemory freeze/thaw regression: a deterministic 1.0 s timer
    /// runs [0, 0.6), freezes with 0.4 s left while Busy is occupied
    /// [0.6, 0.9), thaws at 0.9 and completes the remaining 0.4 s at
    /// t = 1.3 exactly.
    #[test]
    fn age_memory_freeze_thaw_pinned() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let done = b.place("Done", 0);
        let busy = b.place("Busy", 0);
        let gen = b.place("Gen", 1);
        let timer = b.transition(
            "timer",
            TransitionKind::Timed {
                dist: Dist::Deterministic(1.0),
                policy: TimedPolicy::AgeMemory,
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
        let cfg = SimConfig::for_horizon(10.0);
        for seed in [5u64, 99] {
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let out = simulate(&net, &cfg, &[], &mut rng).unwrap();
            assert_eq!(out.final_marking.tokens(done), 1);
            // Done holds its token over [1.3, 10]: mean = 8.7 / 10.
            assert!(
                (out.place_means[done.index()] - 0.87).abs() < 1e-9,
                "thawed timer must fire at exactly t = 1.3, got mean {}",
                out.place_means[done.index()]
            );
            // And the reference engine agrees bit-for-bit.
            let mut rng_ref = Xoshiro256PlusPlus::new(seed);
            let r = simulate_reference(&net, &cfg, &[], &mut rng_ref).unwrap();
            assert_eq!(out, r);
        }
    }
}
