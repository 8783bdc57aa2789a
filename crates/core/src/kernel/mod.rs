//! The shared solver kernel: one parallel backward-induction engine for
//! every DP in the paper.
//!
//! Before this module existed, the five solvers (`dp::solve_simple`,
//! `dp::solve_truncated`, `dp::solve_efficient`,
//! `budget::solve_budget_exact`, `budget::solve_budget_mdp`) each
//! hand-rolled the same three ingredients: a flat value table over a
//! `(state, layer)` grid, Poisson/feasibility transition machinery with
//! per-solver scratch buffers, and a layer-by-layer induction loop. The
//! kernel factors those out:
//!
//! - [`table`]: the [`ValueTable`] / [`PolicyTable`] arenas — flat,
//!   row-major, sized once up front.
//! - [`transitions`]: the [`TruncationTable`] (Section 3.2 / Table 1
//!   truncation points), the shared pmf rows, and the Bellman backup:
//!   [`q_value`] for one state, and its lane-batched forms that the
//!   deadline model runs — [`LANES`](transitions::LANES) consecutive
//!   states under one action (a dense chunk, a collapsed divide segment),
//!   or up to that many actions at one state (a divide midpoint).
//! - [`driver`]: the [`LayerModel`] trait plus [`run`], the induction
//!   driver. Each layer's states are independent given the previous
//!   layer, so the driver sweeps them in parallel (`ft-exec`) either
//!   densely (Algorithm 1) or by monotone divide-and-conquer
//!   (Algorithm 2 / Conjecture 1), handing the model runs of states
//!   through [`LayerModel::solve_range`].
//! - [`deadline`] / [`budget`]: the concrete models the five public
//!   solvers plug in.
//!
//! Parallel sweeps partition states into contiguous chunks whose cells
//! are computed with exactly the same floating-point operations as the
//! serial loop, so policies are bitwise identical for any thread count —
//! the cross-solver agreement tests in `tests/props.rs` rely on this.
//! The lanes keep that contract: each lane sums its own cell's terms in
//! the one-state order, so no sum is reassociated, and
//! `tests/kernel_fingerprints.rs` pins the resulting bits.

pub mod budget;
pub mod deadline;
pub mod driver;
pub mod table;
pub mod transitions;

pub use driver::{run, Direction, KernelConfig, LayerModel, Sweep};
pub use table::{PolicyTable, ValueTable};
pub use transitions::{q_value, PmfCache, PmfRow, SharedPmfCache, TruncationTable};
