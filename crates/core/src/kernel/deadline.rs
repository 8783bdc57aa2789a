//! The deadline MDP (Section 3) as a [`LayerModel`], plus the kernel
//! entry point the three deadline solvers share.

use super::driver::{run, Direction, KernelConfig, LayerModel, Sweep};
use super::transitions::{q_actions, q_run, PmfCache, SharedPmfCache, TruncationTable, LANES};
use crate::dp::validate;
use crate::error::Result;
use crate::policy::DeadlinePolicy;
use crate::problem::DeadlineProblem;
use std::sync::Arc;

/// Layers = intervals (backward), states = remaining tasks, decisions =
/// action indices into `problem.actions`.
pub struct DeadlineDpModel<'a> {
    problem: &'a DeadlineProblem,
    trunc: &'a TruncationTable,
    /// Wave-scoped cross-solve pmf row cache (None = private rows).
    shared: Option<Arc<SharedPmfCache>>,
}

impl<'a> DeadlineDpModel<'a> {
    pub fn new(problem: &'a DeadlineProblem, trunc: &'a TruncationTable) -> Self {
        Self {
            problem,
            trunc,
            shared: None,
        }
    }

    /// Resolve per-worker pmf misses through `shared` — every worker's
    /// scratch cache consults (and feeds) the wave-wide row store.
    pub fn with_shared_cache(mut self, shared: Option<Arc<SharedPmfCache>>) -> Self {
        self.shared = shared;
        self
    }

    /// Make sure `rows` holds the pmf row of `(t, a)`, long enough for
    /// every state of the layer; returns the action's `(reward, s₀)`.
    fn prepare_row(&self, rows: &mut PmfCache, t: usize, a: usize) -> (f64, usize) {
        let action = self.problem.actions.get(a);
        let s0 = self.trunc.get(t, a);
        let len = (self.problem.n_tasks as usize - 1).min(s0) + 1;
        rows.row(t, a, self.problem.interval_arrivals[t], action.accept, len);
        (action.reward, s0)
    }

    /// Merge actions `a..a + W` into the best-so-far `(val, dec)` of state
    /// `n`, their Q values computed side by side by [`q_actions`];
    /// returns `W`.
    #[allow(clippy::too_many_arguments)]
    fn scan_lanes<const W: usize>(
        &self,
        t: usize,
        n: usize,
        a: usize,
        prev: &[f64],
        rows: &PmfCache,
        val: &mut f64,
        dec: &mut u32,
    ) -> usize {
        let lanes = std::array::from_fn(|i| {
            let action = a + i;
            (
                self.problem.actions.get(action).reward,
                self.trunc.get(t, action),
                rows.built(action),
            )
        });
        for (i, q) in q_actions::<W>(n, prev, lanes).into_iter().enumerate() {
            if q < *val {
                *val = q;
                *dec = (a + i) as u32;
            }
        }
        W
    }
}

/// States whose Q values for one action are computed before they are
/// merged into the best-so-far: each action's pmf row is read once per
/// block rather than once per lane block, and the values fit on the
/// stack.
const BLOCK: usize = 8 * LANES;

impl LayerModel for DeadlineDpModel<'_> {
    /// Per-worker Poisson pmf rows, one per `(layer, action)` — shared by
    /// every state the worker sweeps instead of recomputed per
    /// `(state, action)`.
    type Scratch = PmfCache;

    fn width(&self) -> usize {
        self.problem.n_tasks as usize + 1
    }

    fn n_steps(&self) -> usize {
        self.problem.n_intervals()
    }

    fn n_actions(&self) -> usize {
        self.problem.actions.len()
    }

    fn make_scratch(&self) -> PmfCache {
        PmfCache::with_shared(self.problem.actions.len(), self.shared.clone())
    }

    fn terminal(&self, out: &mut [f64]) {
        for (m, v) in out.iter_mut().enumerate() {
            *v = self.problem.penalty.terminal_cost(m as u32);
        }
    }

    fn default_grain(&self) -> usize {
        // A deadline backup costs O(C · min(n, s₀)) pmf terms — expensive
        // enough that small chunks already amortise a spawn.
        8
    }

    /// Every candidate action is merged into a state's best-so-far on a
    /// strict `<`, in ascending action order, so ties keep the cheaper
    /// action and a state whose every Q is NaN or `+∞` keeps
    /// `(+∞, a_lo)`. A run of several states goes block by block and,
    /// within a block, action by action, `q_run` filling one action's
    /// Q values for the block; a single state (a `MonotoneDivide`
    /// midpoint) scans its bracket with `q_actions`, several actions
    /// side by side.
    fn solve_range(
        &self,
        t: usize,
        lo: usize,
        a_lo: usize,
        a_hi: usize,
        prev: &[f64],
        vals: &mut [f64],
        decs: &mut [u32],
        rows: &mut PmfCache,
    ) {
        debug_assert!(a_lo <= a_hi && a_hi < self.problem.actions.len());
        let (lo, vals, decs) = if lo == 0 {
            // Nothing left to price: cost 0, decision unused.
            vals[0] = 0.0;
            decs[0] = 0;
            (1, &mut vals[1..], &mut decs[1..])
        } else {
            (lo, vals, decs)
        };
        if vals.is_empty() {
            return;
        }
        vals.fill(f64::INFINITY);
        decs.fill(a_lo as u32);
        if let ([val], [dec]) = (&mut *vals, &mut *decs) {
            for a in a_lo..=a_hi {
                self.prepare_row(rows, t, a);
            }
            let mut a = a_lo;
            while a <= a_hi {
                a += match a_hi + 1 - a {
                    LANES.. => self.scan_lanes::<LANES>(t, lo, a, prev, rows, val, dec),
                    4.. => self.scan_lanes::<4>(t, lo, a, prev, rows, val, dec),
                    2.. => self.scan_lanes::<2>(t, lo, a, prev, rows, val, dec),
                    _ => self.scan_lanes::<1>(t, lo, a, prev, rows, val, dec),
                };
            }
            return;
        }
        let mut q = [0.0; BLOCK];
        for (b, (vals, decs)) in vals
            .chunks_mut(BLOCK)
            .zip(decs.chunks_mut(BLOCK))
            .enumerate()
        {
            let q = &mut q[..vals.len()];
            for a in a_lo..=a_hi {
                let (c, s0) = self.prepare_row(rows, t, a);
                q_run(c, lo + b * BLOCK, prev, s0, rows.built(a), q);
                for ((val, dec), &q) in vals.iter_mut().zip(decs.iter_mut()).zip(q.iter()) {
                    if q < *val {
                        *val = q;
                        *dec = a as u32;
                    }
                }
            }
        }
    }
}

/// Solve the deadline MDP on the kernel with an explicit truncation
/// table, sweep strategy and parallelism config — the single engine
/// behind [`crate::dp::solve_simple`], [`crate::dp::solve_truncated`] and
/// [`crate::dp::solve_efficient`].
pub fn solve_deadline(
    problem: &DeadlineProblem,
    trunc: &TruncationTable,
    sweep: Sweep,
    cfg: &KernelConfig,
) -> Result<DeadlinePolicy> {
    solve_deadline_with_cache(problem, trunc, sweep, cfg, None)
}

/// [`solve_deadline`] resolving pmf rows through an optional wave-wide
/// [`SharedPmfCache`]: rows a concurrent (or earlier) solve of the
/// same wave already built are reused instead of recomputed. Sharing
/// is bitwise-invisible — rows are pure functions of their key and
/// prefix-stable across lengths — so the policy is identical to the
/// uncached solve (see `shared_cache_solve_is_bitwise_identical`).
pub fn solve_deadline_with_cache(
    problem: &DeadlineProblem,
    trunc: &TruncationTable,
    sweep: Sweep,
    cfg: &KernelConfig,
    shared: Option<Arc<SharedPmfCache>>,
) -> Result<DeadlinePolicy> {
    validate(problem)?;
    let model = DeadlineDpModel::new(problem, trunc).with_shared_cache(shared);
    let (values, policy) = run(&model, sweep, Direction::Backward, cfg);
    Ok(DeadlinePolicy::new(
        problem.n_tasks,
        problem.n_intervals(),
        policy.into_vec(),
        values.into_vec(),
        problem.actions.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::{ActionSet, PriceAction};
    use crate::dp::test_support::varied_problems;
    use crate::penalty::PenaltyModel;

    /// Solve `states` of layer `t` as one run over `[a_lo, a_hi]`.
    fn solve_run(
        model: &DeadlineDpModel<'_>,
        t: usize,
        states: std::ops::Range<usize>,
        a_lo: usize,
        a_hi: usize,
        prev: &[f64],
    ) -> (Vec<f64>, Vec<u32>) {
        let mut vals = vec![f64::NAN; states.len()];
        let mut decs = vec![u32::MAX; states.len()];
        let mut scratch = model.make_scratch();
        model.solve_range(
            t,
            states.start,
            a_lo,
            a_hi,
            prev,
            &mut vals,
            &mut decs,
            &mut scratch,
        );
        (vals, decs)
    }

    #[test]
    fn solve_range_respects_the_action_bracket() {
        let actions = ActionSet::new(vec![
            PriceAction {
                reward: 0.0,
                accept: 0.0,
            },
            PriceAction {
                reward: 5.0,
                accept: 0.5,
            },
            PriceAction {
                reward: 9.0,
                accept: 0.9,
            },
        ]);
        let p = DeadlineProblem::new(
            3,
            vec![3.0],
            actions,
            PenaltyModel::Linear { per_task: 1000.0 },
        );
        let trunc = TruncationTable::none(&p);
        let model = DeadlineDpModel::new(&p, &trunc);
        // Terminal row: huge penalty makes high acceptance attractive.
        let opt_next = [0.0, 1000.0, 2000.0, 3000.0];
        let (_, full) = solve_run(&model, 0, 3..4, 0, 2, &opt_next);
        assert_eq!(full, [2]);
        // Restricting to [0, 1] must pick from that range.
        let (_, restricted) = solve_run(&model, 0, 3..4, 0, 1, &opt_next);
        assert_eq!(restricted, [1]);
        // State 0 is priced at nothing, whatever the bracket.
        let (vals, decs) = solve_run(&model, 0, 0..4, 1, 2, &opt_next);
        assert_eq!((vals[0], decs[0]), (0.0, 0));
    }

    /// A previous layer of `+∞` or NaN makes every Q non-finite or NaN;
    /// no action then beats the `+∞` start, so every state reports
    /// `(+∞, a_lo)` — in state lanes, leftover states and a lone state's
    /// action lanes alike.
    #[test]
    fn non_finite_previous_layer_gives_infinity_at_a_lo() {
        let p = crate::testkit::small_problem(40, 2);
        let trunc = TruncationTable::with_eps(&p, 1e-9);
        let model = DeadlineDpModel::new(&p, &trunc);
        for poison in [f64::INFINITY, f64::NAN] {
            let mut prev = vec![poison; 41];
            prev[0] = 0.0;
            for (states, a_lo) in [(1..41, 0), (1..41, 3), (7..8, 0), (7..8, 3)] {
                let (vals, decs) = solve_run(&model, 0, states, a_lo, 12, &prev);
                assert!(
                    vals.iter().all(|&v| v == f64::INFINITY),
                    "{poison}: {vals:?}"
                );
                assert!(decs.iter().all(|&d| d == a_lo as u32), "{poison}: {decs:?}");
            }
        }
    }

    /// Solving through a shared pmf cache — including a warm cache fed
    /// by a previous solve — must be bitwise identical to the private
    /// solve, across sweep strategies and thread counts.
    #[test]
    fn shared_cache_solve_is_bitwise_identical() {
        for p in varied_problems() {
            let trunc = TruncationTable::with_eps(&p, 1e-9);
            let reference =
                solve_deadline(&p, &trunc, Sweep::Dense, &KernelConfig::serial()).unwrap();
            let shared = Arc::new(SharedPmfCache::new());
            for sweep in [Sweep::Dense, Sweep::MonotoneDivide] {
                for threads in [1, 2, 0] {
                    let cfg = KernelConfig { threads, grain: 2 };
                    let got = solve_deadline_with_cache(
                        &p,
                        &trunc,
                        sweep,
                        &cfg,
                        Some(Arc::clone(&shared)),
                    )
                    .unwrap();
                    for t in 0..p.n_intervals() {
                        for m in 1..=p.n_tasks {
                            assert_eq!(
                                reference.cost_to_go(m, t).to_bits(),
                                got.cost_to_go(m, t).to_bits(),
                                "shared-cache cost differs at (n={m}, t={t}), \
                                 sweep {sweep:?}, {threads} threads"
                            );
                            assert_eq!(
                                reference.action_index(m, t),
                                got.action_index(m, t),
                                "shared-cache action differs at (n={m}, t={t})"
                            );
                        }
                    }
                }
            }
            assert!(
                shared.hits() > 0,
                "repeated solves of one problem must hit the shared cache"
            );
        }
    }

    /// The kernel must be bitwise identical across sweep strategies and
    /// thread counts on the whole `varied_problems` family.
    #[test]
    fn kernel_invariant_to_threads_and_sweep() {
        for p in varied_problems() {
            let trunc = TruncationTable::with_eps(&p, 1e-9);
            let reference =
                solve_deadline(&p, &trunc, Sweep::Dense, &KernelConfig::serial()).unwrap();
            for sweep in [Sweep::Dense, Sweep::MonotoneDivide] {
                for threads in [1, 2, 4, 0] {
                    let cfg = KernelConfig { threads, grain: 2 };
                    let got = solve_deadline(&p, &trunc, sweep, &cfg).unwrap();
                    for t in 0..p.n_intervals() {
                        for m in 1..=p.n_tasks {
                            assert_eq!(
                                reference.action_index(m, t),
                                got.action_index(m, t),
                                "action mismatch at (n={m}, t={t}), sweep {sweep:?}, {threads} threads"
                            );
                            assert_eq!(
                                reference.cost_to_go(m, t).to_bits(),
                                got.cost_to_go(m, t).to_bits(),
                                "cost not bitwise equal at (n={m}, t={t}), sweep {sweep:?}, {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }
}
