//! Serial vs parallel solver kernel on the Algorithm 1/2 solve path.
//!
//! The acceptance bar for the kernel refactor: ≥ 2× speedup for
//! `solve_simple`-class workloads at N ≥ 500 tasks on ≥ 4 cores. The
//! checked-in `BENCH_solver.json` at the workspace root is a snapshot of
//! this bench (regenerate with
//! `CRITERION_JSON=$PWD/BENCH_solver.json cargo bench -p ft-bench --bench solver_parallel`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_core::kernel::deadline::solve_deadline;
use ft_core::kernel::{KernelConfig, Sweep, TruncationTable};
use ft_core::{DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use std::hint::black_box;

/// A paper-shaped problem with a 12-interval horizon so the exact
/// (untruncated) Algorithm 1 stays benchable at N = 2000.
fn problem(n_tasks: u32) -> DeadlineProblem {
    DeadlineProblem::from_market(
        n_tasks,
        24.0,
        12,
        &ConstantRate::new(5100.0),
        PriceGrid::new(0, 40),
        &LogitAcceptance::paper_eq13(),
        PenaltyModel::Linear { per_task: 200.0 },
    )
}

fn bench_sweep(c: &mut Criterion, group_name: &str, sweep: Sweep, eps: Option<f64>) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for &n in &[100u32, 500, 2000] {
        let p = problem(n);
        let trunc = match eps {
            Some(e) => TruncationTable::with_eps(&p, e),
            None => TruncationTable::none(&p),
        };
        for (label, cfg) in [
            ("serial", KernelConfig::serial()),
            ("parallel", KernelConfig::default()),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &p, |b, p| {
                b.iter(|| {
                    black_box(
                        solve_deadline(p, &trunc, sweep, &cfg)
                            .unwrap()
                            .expected_total_cost(),
                    )
                })
            });
        }
    }
    group.finish();
}

/// Algorithm 1 exact: the `solve_simple` workload of the acceptance bar.
fn simple_class(c: &mut Criterion) {
    bench_sweep(c, "solver_parallel/simple_dense", Sweep::Dense, None);
}

/// Algorithm 1 + Poisson truncation at 1e-9 (the production default).
fn truncated_class(c: &mut Criterion) {
    bench_sweep(
        c,
        "solver_parallel/truncated_dense",
        Sweep::Dense,
        Some(1e-9),
    );
}

/// Algorithm 2 (monotone divide-and-conquer) + truncation.
fn efficient_class(c: &mut Criterion) {
    bench_sweep(
        c,
        "solver_parallel/efficient_monotone",
        Sweep::MonotoneDivide,
        Some(1e-9),
    );
}

/// Algorithm 2 on the largest deadline shape of the repository
/// benchmark's `solve-batch` fleet: N = 5000 over 24 intervals of an
/// 8-hour horizon at 80 arrivals per task-hour. Most of its backup terms
/// sit in divide segments whose action bracket has collapsed, the runs
/// the lane-batched backup serves.
fn efficient_batch_class(c: &mut Criterion) {
    let p = DeadlineProblem::from_market(
        5000,
        8.0,
        24,
        &ConstantRate::new(5000.0 * 80.0),
        PriceGrid::new(0, 40),
        &LogitAcceptance::new(15.0, -0.39, 2000.0),
        PenaltyModel::Linear { per_task: 1000.0 },
    );
    let trunc = TruncationTable::with_eps(&p, 1e-9);
    let mut group = c.benchmark_group("solver_parallel/efficient_batch");
    group.sample_size(10);
    for (label, cfg) in [
        ("serial", KernelConfig::serial()),
        ("parallel", KernelConfig::default()),
    ] {
        group.bench_with_input(BenchmarkId::new(label, p.n_tasks), &p, |b, p| {
            b.iter(|| {
                black_box(
                    solve_deadline(p, &trunc, Sweep::MonotoneDivide, &cfg)
                        .unwrap()
                        .expected_total_cost(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    simple_class,
    truncated_class,
    efficient_class,
    efficient_batch_class
);
criterion_main!(benches);
