//! Golden-trace conformance suite for the edgeIS reproduction.
//!
//! The paper's split between the mobile fast path (MAMT mask transfer)
//! and the edge slow path (full inference) only works if the fast paths
//! stay *exactly* faithful: a silently diverged mask transfer corrupts
//! every downstream anchor-placement and RoI-pruning decision. This crate
//! is the single oracle layer that previous PRs hand-rolled per test:
//!
//! * **Golden traces** — [`scenario`] runs the full pipeline over fixed
//!   scenarios and [`trace`] serializes a canonical per-frame trace
//!   (pose, mask digests, CFRS decisions, wire digests, resilience
//!   state) as compact JSON under `tests/golden/`, regenerable with the
//!   `golden --bless` bin.
//! * **Differential oracles** — [`diff`] compares two traces (or two raw
//!   result slices) and reports the *first diverging frame and field
//!   with both values*, instead of a bare `assert_eq!`. Used for serial
//!   vs `EDGEIS_THREADS=N`, the shipped ORB detector vs its clamped
//!   reference oracle ([`scenario::detector_divergence`]), and
//!   `serial_fifo` vs the batched/sharded serving backends.
//! * **Metamorphic oracles** — invariants from the paper that need no
//!   reference run: mask-transfer equivariance under rigid motion, CFRS
//!   quality monotonicity, RoI-pruning dominance soundness (§IV), NMS
//!   idempotence. These live in this crate's `tests/`.
//!
//! Everything traced is virtual-clock deterministic; wall-clock stage
//! timings are excluded by construction (see `edgeis::trace`).

pub mod diff;
pub mod envfp;
pub mod golden;
pub mod scenario;
pub mod trace;

pub use diff::{
    assert_identical, assert_parallel_matches_serial, diff_canonical, first_slice_divergence,
    write_divergence_report, Divergence,
};
pub use golden::{
    check_golden, golden_dir, golden_path, load_golden, repo_root, save_golden, GoldenVerdict,
};
pub use scenario::{
    golden_scenarios, matrix_scenarios, record_fleet_failover, MatrixScenario, Scenario,
};
pub use trace::{Trace, TraceFrame};
