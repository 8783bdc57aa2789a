//! The fixed-budget DPs (Section 4) as [`LayerModel`]s.
//!
//! Both budget solvers minimise `Σ 1/p(c_i)` over integer-cent price
//! assignments; they differ only in bookkeeping:
//!
//! - [`BudgetAssignModel`] is the Theorem 6 DP: `f(i, b)` = best value
//!   assigning the first `i` tasks with budget *at most* `b`, infeasible
//!   cells propagated as `+∞`.
//! - [`BudgetMdpModel`] is the Theorem 4 worker-arrival MDP: `V(n, b)` =
//!   expected remaining arrivals with `n` tasks and `b` cents left,
//!   feasibility pruned with the `(n−1)·c_min` reserve.
//!
//! Layers = task counts (forward induction), states = budget in cents,
//! decisions = *prices in cents* (`u32::MAX` = infeasible state).

use super::driver::LayerModel;
use crate::actions::ActionSet;
use crate::error::{PricingError, Result};

/// Integer-cent actions with positive acceptance, as `(price, 1/p)`
/// pairs — the validated action view both budget solvers share.
pub struct IntegerActions {
    pub acts: Vec<(usize, f64)>,
    pub c_min: usize,
}

impl IntegerActions {
    /// Validate and extract. `solver` names the caller in error messages.
    pub fn from_action_set(actions: &ActionSet, solver: &str) -> Result<Self> {
        let mut acts: Vec<(usize, f64)> = Vec::new();
        for a in actions.iter() {
            if a.accept <= 0.0 {
                continue;
            }
            let c = a.reward.round();
            if (a.reward - c).abs() > 1e-9 || c < 0.0 {
                return Err(PricingError::InvalidProblem(format!(
                    "{solver} needs integer cent rewards, got {}",
                    a.reward
                )));
            }
            acts.push((c as usize, 1.0 / a.accept));
        }
        if acts.is_empty() {
            return Err(PricingError::InvalidProblem(
                "no action with positive acceptance".into(),
            ));
        }
        let c_min = acts.iter().map(|&(c, _)| c).min().expect("non-empty");
        Ok(Self { acts, c_min })
    }

    /// Reject problems whose budget cannot cover `n` tasks at the
    /// cheapest price.
    pub fn check_feasible(&self, n_tasks: u32, b_max: usize) -> Result<()> {
        if self.c_min * n_tasks as usize > b_max {
            return Err(PricingError::Infeasible(format!(
                "budget {b_max} below N·c_min = {}",
                self.c_min * n_tasks as usize
            )));
        }
        Ok(())
    }
}

/// Theorem 6: assignment DP over (tasks assigned, budget spent ≤ b).
pub struct BudgetAssignModel<'a> {
    acts: &'a [(usize, f64)],
    n_tasks: usize,
    width: usize,
}

impl<'a> BudgetAssignModel<'a> {
    pub fn new(acts: &'a IntegerActions, n_tasks: u32, b_max: usize) -> Self {
        Self {
            acts: &acts.acts,
            n_tasks: n_tasks as usize,
            width: b_max + 1,
        }
    }
}

impl LayerModel for BudgetAssignModel<'_> {
    type Scratch = ();

    fn width(&self) -> usize {
        self.width
    }

    fn n_steps(&self) -> usize {
        self.n_tasks
    }

    fn n_actions(&self) -> usize {
        self.acts.len()
    }

    fn make_scratch(&self) {}

    fn terminal(&self, out: &mut [f64]) {
        out.fill(0.0); // zero tasks cost nothing at any budget
    }

    fn default_grain(&self) -> usize {
        // A budget cell is a bare O(C) scan (~40 flops). With the
        // persistent `ft-exec` pool a layer dispatch costs on the order
        // of a queue push + wakeup (no thread spawn), so a few hundred
        // cells already amortise it — down from 4096 when every layer
        // paid a fresh spawn/join.
        512
    }

    fn solve_range(
        &self,
        _i: usize,
        lo: usize,
        _a_lo: usize,
        _a_hi: usize,
        prev: &[f64],
        vals: &mut [f64],
        decs: &mut [u32],
        _scratch: &mut (),
    ) {
        for (j, (val, dec)) in vals.iter_mut().zip(decs.iter_mut()).enumerate() {
            let b = lo + j;
            let mut best = f64::INFINITY;
            let mut choice = u32::MAX;
            for &(c, inv_p) in self.acts {
                if c > b {
                    continue;
                }
                let prev_v = prev[b - c];
                if !prev_v.is_finite() {
                    continue;
                }
                let v = prev_v + inv_p;
                if v < best {
                    best = v;
                    choice = c as u32;
                }
            }
            *val = best;
            *dec = choice;
        }
    }
}

/// Theorem 4: the worker-arrival MDP over (remaining tasks, budget).
pub struct BudgetMdpModel<'a> {
    acts: &'a [(usize, f64)],
    c_min: usize,
    n_tasks: usize,
    width: usize,
}

impl<'a> BudgetMdpModel<'a> {
    pub fn new(acts: &'a IntegerActions, n_tasks: u32, b_max: usize) -> Self {
        Self {
            acts: &acts.acts,
            c_min: acts.c_min,
            n_tasks: n_tasks as usize,
            width: b_max + 1,
        }
    }
}

impl LayerModel for BudgetMdpModel<'_> {
    type Scratch = ();

    fn width(&self) -> usize {
        self.width
    }

    fn n_steps(&self) -> usize {
        self.n_tasks
    }

    fn n_actions(&self) -> usize {
        self.acts.len()
    }

    fn make_scratch(&self) {}

    fn terminal(&self, out: &mut [f64]) {
        out.fill(0.0); // V(0, b) = 0
    }

    fn default_grain(&self) -> usize {
        // Same pooled-dispatch amortisation as `BudgetAssignModel`.
        512
    }

    fn solve_range(
        &self,
        m: usize,
        lo: usize,
        _a_lo: usize,
        _a_hi: usize,
        prev: &[f64],
        vals: &mut [f64],
        decs: &mut [u32],
        _scratch: &mut (),
    ) {
        for (j, (val, dec)) in vals.iter_mut().zip(decs.iter_mut()).enumerate() {
            let b = lo + j;
            let mut best = f64::INFINITY;
            let mut best_c = u32::MAX;
            // Feasibility: after paying c, the remaining m−1 tasks still
            // need (m−1)·c_min.
            for &(c, inv_p) in self.acts {
                if c + (m - 1) * self.c_min > b {
                    continue;
                }
                let v = inv_p + prev[b - c];
                if v < best {
                    best = v;
                    best_c = c as u32;
                }
            }
            *val = best;
            *dec = best_c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_market::{LogitAcceptance, PriceGrid};

    #[test]
    fn integer_actions_validation() {
        let acc = LogitAcceptance::new(4.0, 0.0, 20.0);
        let set = ActionSet::from_grid(PriceGrid::new(1, 5), &acc);
        let ia = IntegerActions::from_action_set(&set, "test").unwrap();
        assert_eq!(ia.acts.len(), 5);
        assert_eq!(ia.c_min, 1);
        assert!(ia.check_feasible(10, 10).is_ok());
        assert!(matches!(
            ia.check_feasible(10, 9),
            Err(PricingError::Infeasible(_))
        ));
    }

    /// Now that the budget grain is low enough for real problems to fan
    /// out on the pool, the sweep must stay bitwise-identical to the
    /// serial baseline — for both budget models, at the default grain
    /// and at an aggressive one, for thread counts 1, 2, 4 and auto.
    #[test]
    fn budget_models_bitwise_invariant_to_threads_at_new_grain() {
        use super::super::driver::{run, Direction, KernelConfig, Sweep};
        let acc = LogitAcceptance::new(5.0, 0.0, 25.0);
        let set = ActionSet::from_grid(PriceGrid::new(1, 18), &acc);
        let ia = IntegerActions::from_action_set(&set, "test").unwrap();
        // Wide enough (width 2001 > 2 × 512) that the default grain
        // genuinely splits the layer into multiple chunks.
        let (n_tasks, b_max) = (12u32, 2000usize);
        let assign = BudgetAssignModel::new(&ia, n_tasks, b_max);
        let mdp = BudgetMdpModel::new(&ia, n_tasks, b_max);

        fn solve<M: super::LayerModel>(model: &M, cfg: &KernelConfig) -> (Vec<f64>, Vec<u32>) {
            let (v, p) = run(model, Sweep::Dense, Direction::Forward, cfg);
            (v.into_vec(), p.into_vec())
        }

        for (label, grain) in [("default", 0usize), ("fine", 64)] {
            let reference_assign = solve(&assign, &KernelConfig { threads: 1, grain });
            let reference_mdp = solve(&mdp, &KernelConfig { threads: 1, grain });
            for threads in [2usize, 4, 0] {
                let cfg = KernelConfig { threads, grain };
                let got_assign = solve(&assign, &cfg);
                let got_mdp = solve(&mdp, &cfg);
                for (reference, got, model) in [
                    (&reference_assign, &got_assign, "assign"),
                    (&reference_mdp, &got_mdp, "mdp"),
                ] {
                    assert_eq!(
                        reference.1, got.1,
                        "{model} decisions differ ({label} grain, {threads} threads)"
                    );
                    let reference_bits: Vec<u64> =
                        reference.0.iter().map(|v| v.to_bits()).collect();
                    let got_bits: Vec<u64> = got.0.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        reference_bits, got_bits,
                        "{model} values not bitwise equal ({label} grain, {threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn fractional_rewards_rejected() {
        let set = ActionSet::new(vec![
            crate::actions::PriceAction {
                reward: 1.5,
                accept: 0.5,
            },
            crate::actions::PriceAction {
                reward: 2.0,
                accept: 0.6,
            },
        ]);
        assert!(matches!(
            IntegerActions::from_action_set(&set, "test"),
            Err(PricingError::InvalidProblem(_))
        ));
    }
}
