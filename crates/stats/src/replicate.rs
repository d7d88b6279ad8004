//! Independent replications, run one way for every simulator.
//!
//! Replication `i` consumes stream `i` of the master seed
//! ([`StreamFactory::stream`]), the replications run on
//! [`par::map_indexed`], and their outputs are kept in replication order.
//! Every statistic is an in-order [`Welford::push`] over those outputs, so a
//! result is a pure function of `(master seed, n)`: bit-identical on 1
//! thread or 64, and whether the `n` replications ran in one call or were
//! appended in rounds by [`until_precise`].
//!
//! [`until_precise`] is sequential stopping. The paper (§2, §6) notes that
//! a Petri net must "be simulated for extended periods of time so that the
//! steady state probability is reached", but never says how long is long
//! enough. Rounds of replications are appended until every watched
//! quantity's Student-t interval is relatively tighter than a target, or
//! the replication budget runs out. Stopping decisions look only at
//! replication means (which are i.i.d.), so the procedure stays
//! statistically honest.
//!
//! ```
//! use std::convert::Infallible;
//! use wsnem_stats::replicate::replicate;
//! use wsnem_stats::Rng64;
//!
//! let run = replicate(16, 2008, Some(2), |rng| Ok::<_, Infallible>(rng.next_f64())).unwrap();
//! assert_eq!(run.reports.len(), 16);
//! assert!(run.ci(|&x| x, 0.95).unwrap().contains(0.5));
//! ```

use crate::ci::ConfidenceInterval;
use crate::error::StatsError;
use crate::online::Welford;
use crate::par;
use crate::rng::{StreamFactory, Xoshiro256PlusPlus};

/// The outputs of independent replications, in replication order.
#[derive(Debug, Clone, PartialEq)]
pub struct Replications<T> {
    /// Output of replication `i` at index `i`.
    pub reports: Vec<T>,
}

impl<T> Replications<T> {
    /// Number of replications.
    pub fn replications(&self) -> usize {
        self.reports.len()
    }

    /// Accumulator of `f` over the replications, pushed in replication order.
    pub fn welford(&self, f: impl Fn(&T) -> f64) -> Welford {
        let mut w = Welford::new();
        for r in &self.reports {
            w.push(f(r));
        }
        w
    }

    /// Mean of `f` across replications.
    pub fn mean(&self, f: impl Fn(&T) -> f64) -> f64 {
        self.welford(f).mean()
    }

    /// Student-t confidence interval of `f` across replications (needs at
    /// least two).
    pub fn ci(&self, f: impl Fn(&T) -> f64, level: f64) -> Result<ConfidenceInterval, StatsError> {
        ConfidenceInterval::from_welford(&self.welford(f), level)
    }
}

impl<T: Send> Replications<T> {
    /// Run replications `self.replications()..n` and append their outputs;
    /// on failure, the error of the lowest failing index.
    fn extend_to<E, F>(
        &mut self,
        n: usize,
        master_seed: u64,
        threads: Option<usize>,
        f: &F,
    ) -> Result<(), E>
    where
        E: Send,
        F: Fn(&mut Xoshiro256PlusPlus) -> Result<T, E> + Sync,
    {
        let factory = StreamFactory::new(master_seed);
        let from = self.reports.len();
        let outputs = par::map_indexed(n - from, threads, |j| {
            f(&mut factory.stream((from + j) as u64))
        });
        for out in outputs {
            self.reports.push(out?);
        }
        Ok(())
    }
}

/// Run `n` independent replications of `f` over `threads` workers (`None`
/// = available parallelism), replication `i` on stream `i` of
/// `master_seed`. On failure, returns the error of the lowest failing
/// replication.
///
/// # Panics
/// Panics if `n == 0`.
pub fn replicate<T, E, F>(
    n: usize,
    master_seed: u64,
    threads: Option<usize>,
    f: F,
) -> Result<Replications<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(&mut Xoshiro256PlusPlus) -> Result<T, E> + Sync,
{
    assert!(n > 0, "need at least one replication");
    let mut run = Replications {
        reports: Vec::with_capacity(n),
    };
    run.extend_to(n, master_seed, threads, &f)?;
    Ok(run)
}

/// Stopping rule for [`until_precise`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionTarget {
    /// Confidence level of the intervals (e.g. 0.95).
    pub level: f64,
    /// Target relative half-width (half-width / |mean|).
    pub rel_half_width: f64,
    /// Quantities with |mean| below this are judged by *absolute*
    /// half-width instead (relative precision is meaningless at ≈0 means,
    /// e.g. the PowerUp fraction at D = 1 ms).
    pub near_zero: f64,
    /// Replications per round.
    pub batch: usize,
    /// Minimum total replications before stopping is allowed.
    pub min_replications: usize,
    /// Hard cap on total replications.
    pub max_replications: usize,
}

impl Default for PrecisionTarget {
    fn default() -> Self {
        Self {
            level: 0.95,
            rel_half_width: 0.05,
            near_zero: 1e-3,
            batch: 8,
            min_replications: 8,
            max_replications: 512,
        }
    }
}

impl PrecisionTarget {
    /// Validate the target.
    pub fn validate(&self) -> Result<(), StatsError> {
        if !(0.0 < self.level && self.level < 1.0) {
            return Err(StatsError::InvalidParameter {
                what: "precision.level",
                constraint: "in (0, 1)",
                value: self.level,
            });
        }
        if !(self.rel_half_width > 0.0) {
            return Err(StatsError::InvalidParameter {
                what: "precision.rel_half_width",
                constraint: "> 0",
                value: self.rel_half_width,
            });
        }
        if self.batch == 0 {
            return Err(StatsError::InvalidParameter {
                what: "precision.batch",
                constraint: ">= 1",
                value: 0.0,
            });
        }
        if self.max_replications < self.min_replications.max(2) {
            return Err(StatsError::InvalidParameter {
                what: "precision.max_replications",
                constraint: ">= max(min_replications, 2)",
                value: self.max_replications as f64,
            });
        }
        Ok(())
    }

    /// Whether `ci` is as tight as the target asks.
    fn met(&self, ci: &ConfidenceInterval) -> bool {
        if ci.mean.abs() < self.near_zero {
            ci.half_width <= self.near_zero
        } else {
            ci.relative_half_width() <= self.rel_half_width
        }
    }
}

/// A replication run stopped by [`until_precise`].
#[derive(Debug, Clone)]
pub struct PreciseRun<T> {
    /// Every replication run, in replication order.
    pub run: Replications<T>,
    /// Whether every watched quantity met the target (false ⇒ the budget
    /// ran out).
    pub converged: bool,
    /// Confidence interval of each watched quantity at the stop.
    pub intervals: Vec<ConfidenceInterval>,
}

/// Replicate `f` in rounds until every quantity in `watch(output)` meets
/// `target`, or `target.max_replications` is reached.
///
/// The first round runs `max(min_replications, 2)` replications; each
/// later round appends replications up to
/// `min(max(n + batch, 2n), max_replications)`, so every replication index
/// runs exactly once and the result equals a fresh [`replicate`] of the
/// final `n`.
pub fn until_precise<T, E, F, W>(
    target: PrecisionTarget,
    master_seed: u64,
    threads: Option<usize>,
    f: F,
    watch: W,
) -> Result<PreciseRun<T>, E>
where
    T: Send,
    E: Send + From<StatsError>,
    F: Fn(&mut Xoshiro256PlusPlus) -> Result<T, E> + Sync,
    W: Fn(&T) -> &[f64],
{
    target.validate()?;
    let mut n = target.min_replications.max(2);
    let mut run = replicate(n, master_seed, threads, &f)?;
    loop {
        let intervals = (0..watch(&run.reports[0]).len())
            .map(|k| run.ci(|r| watch(r)[k], target.level))
            .collect::<Result<Vec<_>, _>>()?;
        let converged = intervals.iter().all(|ci| target.met(ci));
        if converged || n >= target.max_replications {
            return Ok(PreciseRun {
                run,
                converged,
                intervals,
            });
        }
        n = (n + target.batch).max(n * 2).min(target.max_replications);
        run.extend_to(n, master_seed, threads, &f)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A replication's output: the means of two noisy signals around 0.5
    /// and 0.1.
    fn sample(rng: &mut Xoshiro256PlusPlus) -> Result<[f64; 2], StatsError> {
        let (mut a, mut b) = (0.0, 0.0);
        for _ in 0..50 {
            a += rng.next_f64();
            b += 0.2 * rng.next_f64();
        }
        Ok([a / 50.0, b / 50.0])
    }

    fn watch(out: &[f64; 2]) -> &[f64] {
        out
    }

    fn bits(cis: &[ConfidenceInterval]) -> Vec<(u64, u64)> {
        cis.iter()
            .map(|ci| (ci.mean.to_bits(), ci.half_width.to_bits()))
            .collect()
    }

    #[test]
    fn outputs_and_intervals_equal_at_any_thread_count() {
        let runs: Vec<_> = [1, 2, 64]
            .into_iter()
            .map(|t| replicate(64, 2024, Some(t), sample).unwrap())
            .collect();
        let ci_bits = |run: &Replications<[f64; 2]>| {
            bits(&[
                run.ci(|o| o[0], 0.95).unwrap(),
                run.ci(|o| o[1], 0.99).unwrap(),
            ])
        };
        for run in &runs[1..] {
            assert_eq!(run.reports, runs[0].reports);
            assert_eq!(ci_bits(run), ci_bits(&runs[0]));
        }
    }

    #[test]
    fn statistics_are_ordered_pushes() {
        let run = replicate(16, 7, None, sample).unwrap();
        assert_eq!(run.replications(), 16);
        let mut w = Welford::new();
        for o in &run.reports {
            w.push(o[0]);
        }
        assert_eq!(run.welford(|o| o[0]), w);
        assert_eq!(run.mean(|o| o[0]).to_bits(), w.mean().to_bits());
        let ci = run.ci(|o| o[0], 0.95).unwrap();
        assert_eq!(ci, ConfidenceInterval::from_welford(&w, 0.95).unwrap());
        assert!(ci.contains(0.5), "[{}, {}]", ci.low(), ci.high());
    }

    #[test]
    fn more_threads_than_replications() {
        assert_eq!(replicate(2, 7, Some(16), sample).unwrap().replications(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let _ = replicate(0, 1, None, sample);
    }

    #[test]
    fn lowest_failing_index_wins() {
        // Replications 3, 5 and 6 fail; whichever worker finishes first,
        // the error is replication 3's.
        let factory = StreamFactory::new(11);
        let index: HashMap<u64, usize> = (0..8)
            .map(|i| (factory.stream(i as u64).next_u64(), i))
            .collect();
        for threads in [1, 4, 8] {
            let err = replicate(8, 11, Some(threads), |rng| {
                let i = index[&rng.next_u64()];
                if [3, 5, 6].contains(&i) {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, 3, "threads = {threads}");
        }
    }

    #[test]
    fn until_precise_runs_every_index_once() {
        // A target that takes more than two rounds (8, 16, then 32 or more).
        let target = PrecisionTarget {
            rel_half_width: 0.02,
            ..PrecisionTarget::default()
        };
        let factory = StreamFactory::new(5);
        let index: HashMap<u64, usize> = (0..512)
            .map(|i| (factory.stream(i as u64).next_u64(), i))
            .collect();
        let counts: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
        let stopped = until_precise(
            target,
            5,
            Some(2),
            |rng| {
                let mut probe = *rng;
                counts[index[&probe.next_u64()]].fetch_add(1, Ordering::Relaxed);
                sample(rng)
            },
            watch,
        )
        .unwrap();
        let n = stopped.run.replications();
        assert!(stopped.converged);
        assert!(n > 16, "the target must take more than two rounds, n = {n}");
        for (i, c) in counts.iter().enumerate() {
            let expected = usize::from(i < n);
            assert_eq!(c.load(Ordering::Relaxed), expected, "index {i}");
        }
    }

    #[test]
    fn appended_run_equals_fresh_run() {
        let target = PrecisionTarget {
            rel_half_width: 0.02,
            ..PrecisionTarget::default()
        };
        let stopped = until_precise(target, 9, Some(3), sample, watch).unwrap();
        let n = stopped.run.replications();
        let fresh = replicate(n, 9, Some(1), sample).unwrap();
        assert_eq!(stopped.run, fresh);
        let fresh_cis: Vec<_> = (0..2).map(|k| fresh.ci(|o| o[k], 0.95).unwrap()).collect();
        assert_eq!(bits(&stopped.intervals), bits(&fresh_cis));
    }

    #[test]
    fn budget_cap_reports_unconverged() {
        let target = PrecisionTarget {
            rel_half_width: 1e-6,
            min_replications: 4,
            max_replications: 8,
            ..PrecisionTarget::default()
        };
        let stopped = until_precise(target, 3, Some(2), sample, watch).unwrap();
        assert!(!stopped.converged, "impossible target must hit the cap");
        assert_eq!(stopped.run.replications(), 8);
    }

    #[test]
    fn invalid_target_is_rejected_before_running() {
        let target = PrecisionTarget {
            batch: 0,
            ..PrecisionTarget::default()
        };
        let err = until_precise(
            target,
            1,
            None,
            |_| unreachable!("rejected before running"),
            watch,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StatsError::InvalidParameter {
                what: "precision.batch",
                ..
            }
        ));
    }

    #[test]
    fn target_validation() {
        assert!(PrecisionTarget::default().validate().is_ok());
        assert!(PrecisionTarget {
            level: 1.5,
            ..PrecisionTarget::default()
        }
        .validate()
        .is_err());
        assert!(PrecisionTarget {
            rel_half_width: 0.0,
            ..PrecisionTarget::default()
        }
        .validate()
        .is_err());
        assert!(PrecisionTarget {
            batch: 0,
            ..PrecisionTarget::default()
        }
        .validate()
        .is_err());
        assert!(PrecisionTarget {
            min_replications: 100,
            max_replications: 10,
            ..PrecisionTarget::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn a_short_budget_names_max_replications_not_the_batch() {
        let err = PrecisionTarget {
            min_replications: 100,
            max_replications: 10,
            ..PrecisionTarget::default()
        }
        .validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                StatsError::InvalidParameter {
                    what: "precision.max_replications",
                    value,
                    ..
                } if value == 10.0
            ),
            "{err}"
        );
    }
}
