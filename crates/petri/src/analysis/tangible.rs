//! Vanishing elimination: GSPN → tangible CTMC.
//!
//! For nets whose timed transitions are all exponential, the stochastic
//! process over *tangible* markings is a CTMC: firing an exponential
//! transition may land in a vanishing marking, whose immediate firings are
//! folded into branching probabilities (weights over the maximal-priority
//! enabled immediates). Cycles among vanishing markings are rejected — they
//! correspond to immediate loops the simulator would also refuse.

use std::collections::HashMap;

use wsnem_markov::{Ctmc, CtmcBuilder, SteadyStateMethod};

use crate::analysis::reachability::{is_vanishing, ReachOptions};
use crate::error::PetriError;
use crate::marking::Marking;
use crate::net::{PetriNet, TransitionKind};

use wsnem_stats::dist::Dist;

/// The tangible-marking CTMC of a GSPN.
#[derive(Debug, Clone)]
pub struct TangibleChain {
    /// Tangible markings (CTMC states), index 0 deterministic from BFS.
    pub markings: Vec<Marking>,
    /// The generator.
    pub ctmc: Ctmc,
    /// Distribution over tangible states corresponding to the net's initial
    /// marking (the initial marking may be vanishing).
    pub initial_distribution: Vec<f64>,
}

impl TangibleChain {
    /// Stationary distribution over tangible markings.
    pub fn steady_state(&self) -> Result<Vec<f64>, PetriError> {
        Ok(self.ctmc.steady_state(SteadyStateMethod::Auto)?)
    }

    /// Expected token count of a place under a distribution `pi`.
    pub fn expected_tokens(&self, pi: &[f64], place: crate::net::PlaceId) -> f64 {
        self.markings
            .iter()
            .zip(pi)
            .map(|(m, p)| m.tokens(place) as f64 * p)
            .sum()
    }

    /// Expected value of an arbitrary marking function under `pi`.
    pub fn expected_reward(&self, pi: &[f64], f: impl Fn(&Marking) -> f64) -> f64 {
        self.markings.iter().zip(pi).map(|(m, p)| f(m) * p).sum()
    }

    /// Transient distribution at time `t` starting from the net's initial
    /// marking.
    pub fn transient(&self, t: f64, tol: f64) -> Result<Vec<f64>, PetriError> {
        Ok(self.ctmc.transient(&self.initial_distribution, t, tol)?)
    }
}

/// Reusable buffers for the vanishing-marking resolution path. Firing an
/// immediate used to allocate a winners vector, a fresh `fire` scratch and
/// an accumulation `HashMap` per marking; these are now reused across every
/// firing of the elimination (the ROADMAP's per-firing-allocation item), so
/// the only allocations left are the successor markings themselves — which
/// escape into the cache/CTMC and are inherent.
#[derive(Default)]
struct VanishingBufs {
    /// Maximal-priority enabled immediates of the marking under resolution.
    winners: Vec<(crate::net::TransitionId, f64)>,
    /// Pool of branch/accumulation vectors recycled across recursion levels.
    pool: Vec<Vec<(Marking, f64)>>,
}

impl VanishingBufs {
    fn take_vec(&mut self) -> Vec<(Marking, f64)> {
        self.pool.pop().unwrap_or_default()
    }

    fn put_vec(&mut self, mut v: Vec<(Marking, f64)>) {
        v.clear();
        self.pool.push(v);
    }
}

/// Immediate successors of a vanishing marking with branching
/// probabilities, written into `out` (cleared first) without per-firing
/// allocations beyond the successor markings.
fn immediate_branches_into(
    net: &PetriNet,
    m: &Marking,
    bufs: &mut VanishingBufs,
    out: &mut Vec<(Marking, f64)>,
) {
    let mut best_priority = 0u8;
    bufs.winners.clear();
    for t in net.transitions() {
        if let TransitionKind::Immediate { priority, weight } = net.kind(t) {
            if net.is_enabled(m, t) {
                if bufs.winners.is_empty() || priority > best_priority {
                    bufs.winners.clear();
                    bufs.winners.push((t, weight));
                    best_priority = priority;
                } else if priority == best_priority {
                    bufs.winners.push((t, weight));
                }
            }
        }
    }
    let total: f64 = bufs.winners.iter().map(|(_, w)| w).sum();
    out.clear();
    for i in 0..bufs.winners.len() {
        let (t, w) = bufs.winners[i];
        let mut next = m.clone();
        net.fire_into(&mut next, t.index() as u32);
        out.push((next, w / total));
    }
}

/// Resolve a (possibly vanishing) marking into a distribution over tangible
/// markings, detecting vanishing cycles via the DFS stack.
fn resolve(
    net: &PetriNet,
    m: &Marking,
    cache: &mut HashMap<Marking, Vec<(Marking, f64)>>,
    stack: &mut Vec<Marking>,
    bufs: &mut VanishingBufs,
) -> Result<Vec<(Marking, f64)>, PetriError> {
    if !is_vanishing(net, m) {
        return Ok(vec![(m.clone(), 1.0)]);
    }
    if let Some(hit) = cache.get(m) {
        return Ok(hit.clone());
    }
    if stack.contains(m) {
        return Err(PetriError::VanishingCycle {
            marking: m.to_string(),
        });
    }
    stack.push(m.clone());
    let mut branches = bufs.take_vec();
    immediate_branches_into(net, m, bufs, &mut branches);
    // Accumulate tangible probabilities with linear-search dedup: branch
    // sets are tiny (one entry per maximal-priority immediate), so this
    // beats a per-call HashMap — and the vector is recycled via the pool.
    let mut acc = bufs.take_vec();
    let mut resolution = Ok(());
    'outer: for (next, p) in branches.drain(..) {
        match resolve(net, &next, cache, stack, bufs) {
            Err(e) => {
                resolution = Err(e);
                break 'outer;
            }
            Ok(tangibles) => {
                for (tang, q) in tangibles {
                    match acc.iter_mut().find(|(t, _)| *t == tang) {
                        Some((_, prob)) => *prob += p * q,
                        None => acc.push((tang, p * q)),
                    }
                }
            }
        }
    }
    bufs.put_vec(branches);
    stack.pop();
    resolution?;
    // Deterministic order for reproducible CTMC construction.
    acc.sort_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
    cache.insert(m.clone(), acc.clone());
    Ok(acc)
}

/// Build the tangible CTMC of `net`.
///
/// Errors with [`PetriError::NonExponentialTimed`] if any timed transition
/// has a non-exponential distribution (deterministic transitions need either
/// simulation or phase-type approximation — see `wsnem-markov::phase`).
pub fn tangible_chain(net: &PetriNet, opts: ReachOptions) -> Result<TangibleChain, PetriError> {
    // Precondition: exponential timed transitions only.
    let mut rates: Vec<Option<f64>> = vec![None; net.n_transitions()];
    for t in net.transitions() {
        match net.kind(t) {
            TransitionKind::Immediate { .. } => {}
            TransitionKind::Timed { dist, .. } => match dist {
                Dist::Exponential { rate } => rates[t.index()] = Some(rate),
                _ => {
                    return Err(PetriError::NonExponentialTimed {
                        transition: net.transition_name(t).to_owned(),
                    })
                }
            },
        }
    }

    let mut cache: HashMap<Marking, Vec<(Marking, f64)>> = HashMap::new();
    let mut stack: Vec<Marking> = Vec::new();
    let mut bufs = VanishingBufs::default();

    let mut markings: Vec<Marking> = Vec::new();
    let mut index: HashMap<Marking, u32> = HashMap::new();
    let intern = |m: Marking,
                  markings: &mut Vec<Marking>,
                  index: &mut HashMap<Marking, u32>|
     -> Result<u32, PetriError> {
        if let Some(&i) = index.get(&m) {
            return Ok(i);
        }
        for p in net.places() {
            if m.tokens(p) > opts.max_tokens {
                return Err(PetriError::Unbounded {
                    place: net.place_name(p).to_owned(),
                    bound: opts.max_tokens,
                });
            }
        }
        if markings.len() >= opts.max_markings {
            return Err(PetriError::TooManyMarkings {
                limit: opts.max_markings,
            });
        }
        let i = markings.len() as u32;
        index.insert(m.clone(), i);
        markings.push(m);
        Ok(i)
    };

    // Initial distribution over tangible states.
    let init_branches = resolve(
        net,
        &net.initial_marking(),
        &mut cache,
        &mut stack,
        &mut bufs,
    )?;
    let mut init_pairs: Vec<(u32, f64)> = Vec::new();
    for (m, p) in init_branches {
        let i = intern(m, &mut markings, &mut index)?;
        init_pairs.push((i, p));
    }

    // BFS over tangible markings, accumulating rate triplets.
    let mut triplets: Vec<(u32, u32, f64)> = Vec::new();
    let mut frontier = 0usize;
    while frontier < markings.len() {
        let m = markings[frontier].clone();
        for t in net.transitions() {
            let Some(rate) = rates[t.index()] else {
                continue;
            };
            if !net.is_enabled(&m, t) {
                continue;
            }
            let mut next = m.clone();
            net.fire_into(&mut next, t.index() as u32);
            for (tang, p) in resolve(net, &next, &mut cache, &mut stack, &mut bufs)? {
                let j = intern(tang, &mut markings, &mut index)?;
                if j != frontier as u32 {
                    triplets.push((frontier as u32, j, rate * p));
                }
            }
        }
        frontier += 1;
    }

    let mut builder = CtmcBuilder::new(markings.len());
    for (i, j, r) in triplets {
        builder.rate(i as usize, j as usize, r)?;
    }
    let ctmc = builder.build()?;
    let mut initial_distribution = vec![0.0; markings.len()];
    for (i, p) in init_pairs {
        initial_distribution[i as usize] += p;
    }
    Ok(TangibleChain {
        markings,
        ctmc,
        initial_distribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    /// M/M/1/K as a net: steady state must match the closed form.
    #[test]
    fn mm1k_matches_closed_form() {
        let (lam, mu, k) = (1.0, 2.0, 5u32);
        let mut b = NetBuilder::new();
        let q = b.place("Queue", 0);
        let arrive = b.exponential("arrive", lam);
        b.output_arc(arrive, q, 1);
        b.inhibitor_arc(q, arrive, k);
        let serve = b.exponential("serve", mu);
        b.input_arc(q, serve, 1);
        let net = b.build().unwrap();

        let chain = tangible_chain(&net, ReachOptions::default()).unwrap();
        assert_eq!(chain.markings.len(), k as usize + 1);
        let pi = chain.steady_state().unwrap();
        let closed = wsnem_markov::mm1k(lam, mu, k).unwrap();
        // Markings are interned in BFS order 0,1,...,k tokens.
        for (i, m) in chain.markings.iter().enumerate() {
            let n = m.tokens(q);
            assert!(
                (pi[i] - closed.p_n(n)).abs() < 1e-9,
                "state {n}: {} vs {}",
                pi[i],
                closed.p_n(n)
            );
        }
        let l = chain.expected_tokens(&pi, q);
        assert!((l - closed.mean_jobs()).abs() < 1e-9);
    }

    /// Immediate transitions fold away: src --exp--> Wait --imm--> Busy
    /// --exp--> Idle behaves as a two-state CTMC.
    #[test]
    fn vanishing_elimination_two_state() {
        let mut b = NetBuilder::new();
        let idle = b.place("IdleP", 1);
        let wait = b.place("Wait", 0);
        let busy = b.place("Busy", 0);
        let go = b.exponential("go", 2.0);
        b.input_arc(idle, go, 1);
        b.output_arc(go, wait, 1);
        let im = b.immediate("im", 1, 1.0);
        b.input_arc(wait, im, 1);
        b.output_arc(im, busy, 1);
        let done = b.exponential("done", 3.0);
        b.input_arc(busy, done, 1);
        b.output_arc(done, idle, 1);
        let net = b.build().unwrap();

        let chain = tangible_chain(&net, ReachOptions::default()).unwrap();
        assert_eq!(chain.markings.len(), 2, "Wait marking is vanishing");
        let pi = chain.steady_state().unwrap();
        let busy_p = chain.expected_tokens(&pi, busy);
        // Two-state chain rates (2,3): P(busy) = 2/5.
        assert!((busy_p - 0.4).abs() < 1e-9, "{busy_p}");
        // Initial distribution is tangible Idle.
        assert!((chain.initial_distribution.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    /// Weighted immediate branching: exp source feeds an immediate conflict
    /// with weights 3:1 into two drained queues; throughput ratio must be 3.
    #[test]
    fn weighted_branching_probabilities() {
        let mut b = NetBuilder::new();
        let choice = b.place("Choice", 0);
        let qa = b.place("QA", 0);
        let qb = b.place("QB", 0);
        let src = b.exponential("src", 1.0);
        b.output_arc(src, choice, 1);
        // Keep the net bounded: src inhibited while a choice is pending or
        // either queue holds a token.
        b.inhibitor_arc(choice, src, 1);
        b.inhibitor_arc(qa, src, 1);
        b.inhibitor_arc(qb, src, 1);
        let ta = b.immediate("ta", 1, 3.0);
        b.input_arc(choice, ta, 1);
        b.output_arc(ta, qa, 1);
        let tb = b.immediate("tb", 1, 1.0);
        b.input_arc(choice, tb, 1);
        b.output_arc(tb, qb, 1);
        let da = b.exponential("da", 5.0);
        b.input_arc(qa, da, 1);
        let db = b.exponential("db", 5.0);
        b.input_arc(qb, db, 1);
        let net = b.build().unwrap();

        let chain = tangible_chain(&net, ReachOptions::default()).unwrap();
        let pi = chain.steady_state().unwrap();
        let pa = chain.expected_tokens(&pi, qa);
        let pb = chain.expected_tokens(&pi, qb);
        // Same drain rate → occupancy ratio equals branching ratio.
        assert!((pa / pb - 3.0).abs() < 1e-6, "ratio {}", pa / pb);
    }

    #[test]
    fn deterministic_transition_rejected() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let t = b.deterministic("t", 1.0);
        b.input_arc(p, t, 1);
        b.output_arc(t, p, 1);
        let net = b.build().unwrap();
        assert!(matches!(
            tangible_chain(&net, ReachOptions::default()),
            Err(PetriError::NonExponentialTimed { .. })
        ));
    }

    #[test]
    fn vanishing_cycle_rejected() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 0);
        let p1 = b.place("P1", 0);
        let src = b.exponential("src", 1.0);
        b.output_arc(src, p0, 1);
        b.inhibitor_arc(p0, src, 2);
        let t01 = b.immediate("a", 1, 1.0);
        b.input_arc(p0, t01, 1);
        b.output_arc(t01, p1, 1);
        let t10 = b.immediate("bk", 1, 1.0);
        b.input_arc(p1, t10, 1);
        b.output_arc(t10, p0, 1);
        let net = b.build().unwrap();
        assert!(matches!(
            tangible_chain(&net, ReachOptions::default()),
            Err(PetriError::VanishingCycle { .. })
        ));
    }

    /// The CTMC path and the simulator agree on an exponential-only net.
    #[test]
    fn ctmc_and_simulation_agree() {
        let mut b = NetBuilder::new();
        let q = b.place("Queue", 0);
        let arrive = b.exponential("arrive", 1.0);
        b.output_arc(arrive, q, 1);
        b.inhibitor_arc(q, arrive, 6);
        let serve = b.exponential("serve", 1.5);
        b.input_arc(q, serve, 1);
        let net = b.build().unwrap();

        let chain = tangible_chain(&net, ReachOptions::default()).unwrap();
        let pi = chain.steady_state().unwrap();
        let exact_l = chain.expected_tokens(&pi, q);

        let cfg = crate::sim::SimConfig {
            horizon: 60_000.0,
            warmup: 500.0,
            ..crate::sim::SimConfig::default()
        };
        let mut rng = wsnem_stats::rng::Xoshiro256PlusPlus::new(17);
        let out = crate::sim::simulate(&net, &cfg, &[], &mut rng).unwrap();
        assert!(
            (out.place_means[0] - exact_l).abs() < 0.05,
            "sim {} vs exact {exact_l}",
            out.place_means[0]
        );
    }

    #[test]
    fn transient_from_initial() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t01 = b.exponential("t01", 1.0);
        b.input_arc(p0, t01, 1);
        b.output_arc(t01, p1, 1);
        let t10 = b.exponential("t10", 1.0);
        b.input_arc(p1, t10, 1);
        b.output_arc(t10, p0, 1);
        let net = b.build().unwrap();
        let chain = tangible_chain(&net, ReachOptions::default()).unwrap();
        let p = chain.transient(1000.0, 1e-9).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-6);
    }
}
