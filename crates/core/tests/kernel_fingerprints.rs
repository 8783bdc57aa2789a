//! Cross-commit fingerprints of the deadline kernel.
//!
//! The determinism suites (`steal_invariance.rs`, the kernel's unit
//! tests) compare one build against itself: thread counts, sweeps and
//! steals must not move a bit. They cannot notice a kernel rewrite that
//! changes every policy consistently. This file pins the bits
//! themselves: the fnv1a64 fingerprint of every `(cost-to-go, action)`
//! cell of the Dense, `MonotoneDivide` and untruncated solves, with the
//! expected values captured from the scalar per-state backup that
//! preceded the lane-batched one. A change to the backup's operation
//! order, the truncation points or the pmf rows shows up here.
//!
//! The shapes are chosen to reach the paths the small `testkit`
//! problems never do:
//!
//! - `mid`: N = 300 with Poisson means up to about 200, so `s₀ < N` and
//!   runs of consecutive states straddle the `k = s₀` boundary.
//! - `wide`: the `solve-batch` fleet's largest deadline shape (N = 5000,
//!   T = 24). A quarter of its cells have means far above 745, where
//!   `exp(−λ)` underflows and the pmf rows are seeded from log space. Its
//!   collapsed-bracket `MonotoneDivide` segments are long runs of
//!   consecutive states under one action.

use ft_core::kernel::deadline::solve_deadline;
use ft_core::kernel::{KernelConfig, Sweep, TruncationTable};
use ft_core::{ActionSet, DeadlinePolicy, DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};

const EPS: f64 = 1e-9;

fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(policy: &DeadlinePolicy, p: &DeadlineProblem) -> u64 {
    let mut words = Vec::new();
    for t in 0..p.n_intervals() {
        for m in 1..=p.n_tasks {
            words.push(policy.cost_to_go(m, t).to_bits());
            words.push(policy.action_index(m, t) as u64);
        }
    }
    fnv1a64(words)
}

/// N = 300, T = 12, per-interval arrivals 60–260 under a 31-price logit
/// grid: means run from near 0 up to about 200.
fn mid_problem() -> DeadlineProblem {
    let acc = LogitAcceptance::new(6.0, -0.5, 60.0);
    DeadlineProblem::new(
        300,
        (0..12)
            .map(|i| 160.0 + 100.0 * (0.7 * i as f64).sin())
            .collect(),
        ActionSet::from_grid(PriceGrid::new(0, 30), &acc),
        PenaltyModel::Linear { per_task: 400.0 },
    )
}

/// The `solve-batch` fleet's largest deadline shape: N = 5000, 8 hours in
/// 24 intervals at 80 arrivals per task-hour, the 41-price grid and the
/// logit the benchmark uses.
fn wide_problem() -> DeadlineProblem {
    DeadlineProblem::from_market(
        5000,
        8.0,
        24,
        &ConstantRate::new(5000.0 * 80.0),
        PriceGrid::new(0, 40),
        &LogitAcceptance::new(15.0, -0.39, 2000.0),
        PenaltyModel::Linear { per_task: 1000.0 },
    )
}

/// `(label, problem, truncated, sweep, expected fingerprint)`.
fn cases() -> Vec<(&'static str, DeadlineProblem, bool, Sweep, u64)> {
    vec![
        (
            "mid/dense",
            mid_problem(),
            true,
            Sweep::Dense,
            0xb588_c23b_0e23_e179,
        ),
        (
            "mid/monotone",
            mid_problem(),
            true,
            Sweep::MonotoneDivide,
            0xb588_c23b_0e23_e179,
        ),
        (
            "mid/untruncated",
            mid_problem(),
            false,
            Sweep::Dense,
            0x930c_aeff_d4ac_6cc7,
        ),
        (
            "wide/monotone",
            wide_problem(),
            true,
            Sweep::MonotoneDivide,
            0x85c0_4516_485f_cc13,
        ),
    ]
}

#[test]
fn shapes_reach_the_paths_they_are_meant_to() {
    let mid = mid_problem();
    let trunc = TruncationTable::with_eps(&mid, EPS);
    let below = (0..mid.n_intervals())
        .flat_map(|t| (0..mid.actions.len()).map(move |a| (t, a)))
        .filter(|&(t, a)| trunc.get(t, a) < mid.n_tasks as usize)
        .count();
    assert!(
        below > mid.n_intervals() * mid.actions.len() / 2,
        "mid: most cells must truncate below N ({below} do)"
    );
    let wide = wide_problem();
    for (t, &lam) in wide.interval_arrivals.iter().enumerate() {
        let log_space = wide
            .actions
            .iter()
            .filter(|a| lam * a.accept > 745.0)
            .count();
        assert!(
            log_space >= wide.actions.len() / 4,
            "wide: interval {t} has only {log_space} cells on the log-space pmf path"
        );
    }
}

/// Every pinned solve reproduces its captured fingerprint, serially and
/// on the pool.
#[test]
fn kernel_fingerprints_match_the_scalar_backup() {
    let mut mismatches = Vec::new();
    for (label, p, truncated, sweep, expected) in cases() {
        let trunc = if truncated {
            TruncationTable::with_eps(&p, EPS)
        } else {
            TruncationTable::none(&p)
        };
        for cfg in [KernelConfig::serial(), KernelConfig::default()] {
            let policy = solve_deadline(&p, &trunc, sweep, &cfg).expect("solve");
            let got = fingerprint(&policy, &p);
            if got != expected {
                mismatches.push(format!(
                    "{label} ({} threads): got {got:#018x}, want {expected:#018x}",
                    cfg.threads
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
