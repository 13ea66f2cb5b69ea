//! Geometric substrate for the edgeIS reproduction.
//!
//! This crate implements the projective-geometry machinery that the paper's
//! visual-odometry front end (§III) is built on:
//!
//! - fixed-size linear algebra ([`Vec2`], [`Vec3`], [`Mat3`]) and small dense
//!   solvers ([`linalg`]),
//! - rotations and rigid transforms ([`SO3`], [`SE3`]) with exponential /
//!   logarithm maps,
//! - a pinhole [`Camera`] model,
//! - the normalized 8-point algorithm, fundamental / essential matrices and
//!   pose recovery ([`epipolar`]),
//! - linear triangulation ([`triangulate`]),
//! - a generic [`ransac`](mod@ransac) driver,
//! - Gauss–Newton pose-only bundle adjustment with a Huber kernel ([`ba`]).
//!
//! Everything is `f64`, deterministic and allocation-light; no external
//! linear-algebra crate is used.
//!
//! # Example
//!
//! ```
//! use edgeis_geometry::{Camera, Vec3, SE3};
//!
//! let cam = Camera::new(500.0, 500.0, 320.0, 240.0, 640, 480);
//! let p = cam.project(&SE3::identity(), Vec3::new(0.1, -0.2, 2.0)).unwrap();
//! assert!((p.x - 345.0).abs() < 1e-9);
//! ```

pub mod ba;
pub mod camera;
pub mod epipolar;
pub mod linalg;
pub mod mat;
pub mod ransac;
pub mod se3;
pub mod triangulate;
pub mod vec;

pub use ba::{refine_pose, BaConfig, BaResult, Observation};
pub use camera::Camera;
pub use epipolar::{
    decompose_essential, essential_from_fundamental, fundamental_eight_point, recover_pose,
    sampson_distance, FundamentalError,
};
pub use mat::Mat3;
pub use ransac::{ransac, RansacConfig, RansacResult};
pub use se3::{SE3, SO3};
pub use triangulate::{triangulate_dlt, triangulate_midpoint, TriangulationError};
pub use vec::{Vec2, Vec3};
