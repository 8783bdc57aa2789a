//! Workload inputs: the campaign fleets and the request streams, all
//! derived from the seed.

use crate::rng::Rng;
use ft_core::registry::{CampaignObservation, CampaignSpec, ObservedState};
use ft_core::{ActionSet, BudgetProblem, CampaignId, DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};

fn deadline(
    n: u32,
    intervals: usize,
    per_hour: f64,
    grid_max: u32,
    logit: (f64, f64, f64),
    penalty: f64,
) -> CampaignSpec {
    CampaignSpec::Deadline {
        problem: DeadlineProblem::from_market(
            n,
            8.0,
            intervals,
            &ConstantRate::new(per_hour),
            PriceGrid::new(0, grid_max),
            &LogitAcceptance::new(logit.0, logit.1, logit.2),
            PenaltyModel::Linear { per_task: penalty },
        ),
        eps: None,
    }
}

fn budget(
    n: u32,
    cents: usize,
    grid: (u32, u32),
    logit: LogitAcceptance,
    rate: f64,
) -> CampaignSpec {
    CampaignSpec::Budget {
        problem: BudgetProblem::new(
            n,
            cents as f64,
            ActionSet::from_grid(PriceGrid::new(grid.0, grid.1), &logit),
            rate,
        ),
    }
}

/// Steps of two low-discrepancy (Kronecker) sequences: the fractional
/// parts of the golden ratio and of the square root of two.
const GOLDEN: f64 = 0.618_033_988_749_895;
const SQRT2: f64 = 0.414_213_562_373_095;

/// The `i`-th point in `[0, 1)` of the sequence with this step, rotated
/// by `offset`. Every prefix covers `[0, 1)` evenly.
fn kronecker(offset: f64, step: f64, i: usize) -> f64 {
    (offset + step * i as f64).fract()
}

/// Everyday marketplace fleet: mixed deadline and budget campaigns, no
/// two with the same parameters. Deadline sizes (N 20–150, T 16–32)
/// come from seed-rotated low-discrepancy sequences, so a batch taken
/// from the front of the fleet costs about the same solver work
/// whatever the seed; everything else is drawn at random.
pub fn marketplace(rng: &mut Rng, deadlines: usize, budgets: usize) -> Vec<CampaignSpec> {
    let mut out = Vec::with_capacity(deadlines + budgets);
    let (n_offset, t_offset) = (rng.unit(), rng.unit());
    for i in 0..deadlines {
        let n = 20 + (131.0 * kronecker(n_offset, GOLDEN, i)) as u32;
        let per_hour = 400.0 + 2600.0 * rng.unit();
        out.push(deadline(
            n,
            16 + (17.0 * kronecker(t_offset, SQRT2, i)) as usize,
            per_hour,
            rng.range(20, 40) as u32,
            (
                4.0 + 11.0 * rng.unit(),
                -0.5 * rng.unit(),
                30.0 + 300.0 * rng.unit(),
            ),
            200.0 + 800.0 * rng.unit(),
        ));
    }
    for _ in 0..budgets {
        let n = rng.range(20, 60) as u32;
        let cents = n as usize * rng.range(8, 15) as usize;
        let logit = LogitAcceptance::new(4.0 + 4.0 * rng.unit(), 0.0, 20.0 + 40.0 * rng.unit());
        out.push(budget(n, cents, (1, 25), logit, 500.0 + 600.0 * rng.unit()));
    }
    out
}

/// The recalibration-storm fleet: identical deadline campaigns, so the
/// corrected re-solves share their pmf rows.
pub fn storm(count: usize, n: u32, intervals: usize) -> Vec<CampaignSpec> {
    (0..count)
        .map(|_| deadline(n, intervals, 2000.0, 40, (15.0, -0.39, 2000.0), 1000.0))
        .collect()
}

/// The batch of distinct solves: deadline problems with N in 200–5000
/// and T in 24–48 at distinct arrival rates (so no two share a pmf
/// row), plus paper-scale budget MDPs (N = 200, B = 2500). The sizes
/// are fixed by rank with a small seeded jitter on N, so the batch's
/// solver work, which its largest problems dominate, barely depends on
/// the seed; the arrival rates are drawn at random.
pub fn batch(rng: &mut Rng, deadlines: usize, budgets: usize) -> Vec<CampaignSpec> {
    let mut out = Vec::with_capacity(deadlines + budgets);
    for i in 0..deadlines {
        // Log-spaced N from 200 to 5000, each moved by up to a tenth of
        // the spacing.
        let frac = (i as f64 + 0.2 * (rng.unit() - 0.5)) / (deadlines - 1) as f64;
        let n = (200.0 * 25f64.powf(frac.clamp(0.0, 1.0))).round() as u32;
        // Enough arrivals to finish the batch at mid-grid prices.
        let per_hour = f64::from(n) * (60.0 + 40.0 * rng.unit()) + rng.unit();
        out.push(deadline(
            n,
            24 + (25.0 * kronecker(0.0, GOLDEN, i)) as usize,
            per_hour,
            40,
            (15.0, -0.39, 2000.0),
            1000.0,
        ));
    }
    for _ in 0..budgets {
        out.push(budget(
            200,
            2500,
            (1, 40),
            LogitAcceptance::paper_eq13(),
            5100.0 + 100.0 * rng.unit(),
        ));
    }
    out
}

/// `(n_tasks, intervals or budget cents)` of a spec.
pub fn shape(spec: &CampaignSpec) -> (u32, usize) {
    match spec {
        CampaignSpec::Deadline { problem, .. } => (problem.n_tasks, problem.n_intervals()),
        CampaignSpec::Budget { problem } => (problem.n_tasks, problem.budget as usize),
    }
}

/// A random quotable state of campaign `spec`.
pub fn random_state(rng: &mut Rng, spec: &CampaignSpec) -> ObservedState {
    match spec {
        CampaignSpec::Deadline { problem, .. } => ObservedState::Deadline {
            remaining: rng.range(1, u64::from(problem.n_tasks)) as u32,
            interval: rng.range(0, problem.n_intervals() as u64 - 1) as usize,
        },
        CampaignSpec::Budget { problem } => {
            let remaining = rng.range(1, u64::from(problem.n_tasks)) as u32;
            // At least the cheapest price per remaining task, so the
            // state is feasible.
            let floor = u64::from(remaining) * problem.actions.min_reward().max(1.0) as u64;
            let top = (problem.budget as u64).max(floor);
            ObservedState::Budget {
                remaining,
                budget_cents: rng.range(floor, top) as usize,
            }
        }
    }
}

/// The query string of a price request for `state`.
pub fn price_path(id: CampaignId, state: ObservedState) -> String {
    match state {
        ObservedState::Deadline {
            remaining,
            interval,
        } => format!("/campaigns/{id}/price?remaining={remaining}&interval={interval}"),
        ObservedState::Budget {
            remaining,
            budget_cents,
        } => format!("/campaigns/{id}/price?remaining={remaining}&budget_cents={budget_cents}"),
    }
}

/// One item of a bulk quote body.
pub fn quote_item(id: CampaignId, state: ObservedState) -> String {
    match state {
        ObservedState::Deadline {
            remaining,
            interval,
        } => format!("{{\"id\":{id},\"remaining\":{remaining},\"interval\":{interval}}}"),
        ObservedState::Budget {
            remaining,
            budget_cents,
        } => format!("{{\"id\":{id},\"remaining\":{remaining},\"budget_cents\":{budget_cents}}}"),
    }
}

/// The JSON body of a single observation.
pub fn observation_body(obs: &CampaignObservation) -> String {
    match *obs {
        CampaignObservation::Deadline {
            interval,
            completions,
            ..
        } => format!("{{\"interval\":{interval},\"completions\":{completions}}}"),
        CampaignObservation::Budget {
            completions,
            spent_cents,
            ..
        } => format!("{{\"completions\":{completions},\"spent_cents\":{spent_cents}}}"),
    }
}

/// The observation stream. Each visit goes to a campaign drawn at random
/// from the less recently visited half of those with visits left. The
/// draws keep the every-third-report re-solves of an identical fleet out
/// of lockstep, and a campaign's reports stay at least half a round of
/// visits apart, so two of them are never in the pipeline at once (the
/// server may run pipelined requests concurrently, and a deadline
/// campaign refuses an interval reported out of order). A deadline visit
/// reports the campaign's next interval and stops short of the horizon;
/// a budget visit reports progress until half the batch or budget is
/// used, then empty ticks.
pub struct ObservationStream {
    next_interval: Vec<usize>,
    /// Completions and cents a budget campaign has reported.
    reported: Vec<(u64, usize)>,
    /// Visit number of each campaign's last visit; before the first,
    /// distinct negative numbers in a seeded order.
    last_visit: Vec<i64>,
    visits: i64,
    rng: Rng,
    /// Storm campaigns report no completions at all, so every
    /// correction sits exactly on the adaptive clamp; plain ones report
    /// 0–2 per interval.
    storm: bool,
}

impl ObservationStream {
    pub fn new(rng: &Rng, fleet: &[CampaignSpec], storm: bool) -> Self {
        let mut rng = rng.fork(0x0b5e);
        let mut order: Vec<usize> = (0..fleet.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        let mut last_visit = vec![0; fleet.len()];
        for (rank, &c) in order.iter().enumerate() {
            last_visit[c] = rank as i64 - fleet.len() as i64;
        }
        Self {
            next_interval: vec![0; fleet.len()],
            reported: vec![(0, 0); fleet.len()],
            last_visit,
            visits: 0,
            rng,
            storm,
        }
    }

    /// The next `(campaign index, observation)`, or `None` once every
    /// campaign has used its visits.
    pub fn next(&mut self, fleet: &[CampaignSpec]) -> Option<(usize, CampaignObservation)> {
        let mut open: Vec<usize> = (0..fleet.len())
            .filter(|&c| match &fleet[c] {
                CampaignSpec::Deadline { problem, .. } => {
                    self.next_interval[c] + 2 < problem.n_intervals()
                }
                CampaignSpec::Budget { .. } => true,
            })
            .collect();
        if open.is_empty() {
            return None;
        }
        open.sort_unstable_by_key(|&c| self.last_visit[c]);
        let c = open[self.rng.range(0, (open.len() as u64 - 1) / 2) as usize];
        self.visits += 1;
        self.last_visit[c] = self.visits;
        let obs = match &fleet[c] {
            CampaignSpec::Deadline { .. } => {
                let interval = self.next_interval[c];
                self.next_interval[c] += 1;
                CampaignObservation::Deadline {
                    interval,
                    completions: if self.storm { 0 } else { self.rng.range(0, 2) },
                    posted: None,
                }
            }
            CampaignSpec::Budget { problem } => {
                let (done, spent) = self.reported[c];
                let mut completions = self.rng.range(0, 1);
                let mut cents = completions as usize * self.rng.range(1, 25) as usize;
                if 2 * (done + completions) > u64::from(problem.n_tasks)
                    || 2 * (spent + cents) as u64 > problem.budget as u64
                {
                    (completions, cents) = (0, 0);
                }
                self.reported[c] = (done + completions, spent + cents);
                CampaignObservation::Budget {
                    completions,
                    spent_cents: cents,
                    posted: None,
                    offers: None,
                }
            }
        };
        Some((c, obs))
    }
}
