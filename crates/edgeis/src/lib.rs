//! **edgeIS** — edge-assisted real-time instance segmentation
//! (reproduction of Zhang et al., ICDCS 2022).
//!
//! This crate assembles the full "transfer+infer" system from the
//! substrate crates:
//!
//! - the mobile side couples [`edgeis_vo`] (motion-aware mobile mask
//!   transfer, §III) with [`cfrs`] (content-based fine-grained RoI
//!   selection, §V) and a calibrated mobile compute-cost model;
//! - the edge side wraps [`edgeis_segnet`]'s model simulator with a
//!   busy-queue (§IV, contour instructed inference acceleration) behind a
//!   [`edgeis_netsim`] link;
//! - [`baselines`] implements the comparison systems of §VI-B: pure
//!   on-device inference, best-effort offloading with motion-vector
//!   tracking, EAAR and EdgeDuet retrofitted for segmentation;
//! - [`pipeline`] runs any [`SegmentationSystem`] over a synthetic
//!   [`edgeis_scene::World`] on a virtual clock and scores every frame
//!   against pixel-exact ground truth ([`metrics`]).
//!
//! # Quickstart
//!
//! ```no_run
//! use edgeis::experiment::{run_system, ExperimentConfig, SystemKind};
//! use edgeis_netsim::LinkKind;
//! use edgeis_scene::datasets;
//!
//! let config = ExperimentConfig::default();
//! let world = datasets::indoor_simple(1);
//! let report = run_system(SystemKind::EdgeIs, &world, LinkKind::Wifi5, &config);
//! println!("mean IoU = {:.3}", report.mean_iou());
//! ```

pub mod baselines;
pub mod cfrs;
pub mod chaos;
pub mod cost;
pub mod edge;
pub mod experiment;
pub mod fleet;
pub mod hash;
pub mod metrics;
pub mod multi;
pub mod pipeline;
pub mod resources;
pub mod serving;
pub mod slo;
pub mod system;
pub mod trace;
pub mod wire;

pub use cfrs::{CfrsConfig, CfrsDecision, CfrsPlanner};
pub use edge::{EdgeFaultConfig, PendingResponse, SharedEdge};
pub use experiment::{run_system, run_system_with_faults, ExperimentConfig, FaultPlan, SystemKind};
pub use fleet::{
    rendezvous_rank, EdgeFleet, FleetConfig, FleetStats, HandoffRecord, PlacementPolicy,
};
pub use metrics::{
    percentile, FrameOutcome, FrameRecord, OutcomeSummary, Report, ResilienceStats,
    StageBreakdownMs, StageSummary,
};
pub use pipeline::run_pipeline;
pub use serving::{ServingConfig, ServingRuntime, ServingStats};
pub use slo::{ScenarioSlo, SloOutcome};
pub use system::{
    EdgeIsConfig, EdgeIsSystem, FrameInput, FrameOutput, LinkHealth, ResilienceConfig,
    SegmentationSystem,
};
pub use trace::{digest_masks, fnv1a64, fnv1a64_extend, FrameTrace};
