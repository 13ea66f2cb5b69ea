//! Scene objects: shapes, classes, textures and motion models.

use edgeis_geometry::{Vec3, SE3, SO3};

/// Semantic class of an object — mirrors the label vocabulary the paper's
/// scenarios need (street objects for the KITTI-like preset, industrial
/// equipment for the oil-field study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// A person (dynamic in most presets).
    Person,
    /// A car or truck.
    Car,
    /// Generic indoor furniture.
    Furniture,
    /// An oil separator vessel.
    OilSeparator,
    /// Industrial piping.
    Tube,
    /// A pump unit.
    Pump,
    /// Anything else.
    Generic,
}

impl ObjectClass {
    /// A stable small integer id for the class (used by the detector
    /// simulator's class-confidence model).
    pub fn index(self) -> usize {
        match self {
            Self::Person => 0,
            Self::Car => 1,
            Self::Furniture => 2,
            Self::OilSeparator => 3,
            Self::Tube => 4,
            Self::Pump => 5,
            Self::Generic => 6,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Person => "person",
            Self::Car => "car",
            Self::Furniture => "furniture",
            Self::OilSeparator => "oil-separator",
            Self::Tube => "tube",
            Self::Pump => "pump",
            Self::Generic => "object",
        }
    }
}

/// Object geometry, expressed in the object's local frame centered at its
/// pose origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// An axis-aligned box with the given half-extents.
    Cuboid {
        /// Half-extents along local x, y, z.
        half_extents: Vec3,
    },
    /// A cylinder along the local y axis.
    Cylinder {
        /// Radius in the local x/z plane.
        radius: f64,
        /// Half the height along local y.
        half_height: f64,
    },
}

impl Shape {
    /// Half-extents of the local axis-aligned box that holds the shape
    /// (`(r, half_height, r)` for a cylinder).
    pub(crate) fn half_extents(&self) -> Vec3 {
        match *self {
            Shape::Cuboid { half_extents } => half_extents,
            Shape::Cylinder {
                radius,
                half_height,
            } => Vec3::new(radius, half_height, radius),
        }
    }

    /// Ray–shape intersection in the local frame: returns the smallest
    /// positive `t` along `origin + t * dir`.
    pub fn intersect_local(&self, origin: Vec3, dir: Vec3) -> Option<f64> {
        match *self {
            Shape::Cuboid { half_extents } => ray_aabb(origin, dir, half_extents),
            Shape::Cylinder {
                radius,
                half_height,
            } => ray_cylinder(origin, dir, radius, half_height),
        }
    }
}

fn ray_aabb(o: Vec3, d: Vec3, he: Vec3) -> Option<f64> {
    let mut t_min = f64::NEG_INFINITY;
    let mut t_max = f64::INFINITY;
    for (oa, da, ha) in [(o.x, d.x, he.x), (o.y, d.y, he.y), (o.z, d.z, he.z)] {
        if da.abs() < 1e-12 {
            if oa.abs() > ha {
                return None;
            }
            continue;
        }
        let inv = 1.0 / da;
        let mut t0 = (-ha - oa) * inv;
        let mut t1 = (ha - oa) * inv;
        if t0 > t1 {
            std::mem::swap(&mut t0, &mut t1);
        }
        t_min = t_min.max(t0);
        t_max = t_max.min(t1);
        if t_min > t_max {
            return None;
        }
    }
    if t_max < 1e-9 {
        return None;
    }
    Some(if t_min > 1e-9 { t_min } else { t_max })
}

fn ray_cylinder(o: Vec3, d: Vec3, radius: f64, half_height: f64) -> Option<f64> {
    // Side surface: solve (ox + t dx)^2 + (oz + t dz)^2 = r^2.
    let a = d.x * d.x + d.z * d.z;
    let mut best: Option<f64> = None;
    if a > 1e-12 {
        let b = 2.0 * (o.x * d.x + o.z * d.z);
        let c = o.x * o.x + o.z * o.z - radius * radius;
        let disc = b * b - 4.0 * a * c;
        if disc >= 0.0 {
            let sq = disc.sqrt();
            for t in [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)] {
                if t > 1e-9 {
                    let y = o.y + t * d.y;
                    if y.abs() <= half_height && best.is_none_or(|bt| t < bt) {
                        best = Some(t);
                    }
                }
            }
        }
    }
    // End caps at y = ±half_height.
    if d.y.abs() > 1e-12 {
        for cap in [-half_height, half_height] {
            let t = (cap - o.y) / d.y;
            if t > 1e-9 {
                let x = o.x + t * d.x;
                let z = o.z + t * d.z;
                if x * x + z * z <= radius * radius && best.is_none_or(|bt| t < bt) {
                    best = Some(t);
                }
            }
        }
    }
    best
}

/// How an object moves over time (in the world frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionModel {
    /// The object never moves.
    Static,
    /// Constant linear velocity (m/s).
    Linear {
        /// Velocity vector.
        velocity: Vec3,
    },
    /// Oscillates sinusoidally around the initial position.
    Oscillate {
        /// Peak displacement vector.
        amplitude: Vec3,
        /// Angular frequency in rad/s.
        omega: f64,
    },
    /// Rotates in place about the local y axis while drifting.
    Spin {
        /// Angular rate about local y, rad/s.
        rate: f64,
        /// Drift velocity.
        velocity: Vec3,
    },
}

impl MotionModel {
    /// Whether the object can move at all.
    pub fn is_dynamic(&self) -> bool {
        !matches!(self, MotionModel::Static)
    }
}

/// A textured object placed in the world.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Instance id (≥ 1; 0 is reserved for background in label maps).
    pub id: u16,
    /// Semantic class.
    pub class: ObjectClass,
    /// Geometry in the local frame.
    pub shape: Shape,
    /// Initial pose: local frame to world (`T_wo`).
    pub initial_pose: SE3,
    /// Texture seed for the procedural surface pattern.
    pub texture_seed: u32,
    /// Motion model.
    pub motion: MotionModel,
    /// Background structure (walls, shelving): rendered with label 0 so it
    /// is never an instance, but still provides visual texture and
    /// off-ground-plane geometry for the VO front end.
    pub is_background: bool,
    /// Existence window `[birth, death)` in seconds; `None` means the
    /// object exists for the whole run. Drives the birth/death churn
    /// scenario: outside the window the object neither renders nor
    /// occludes. Defaults to `None`.
    pub lifetime: Option<(f64, f64)>,
}

impl SceneObject {
    /// Builds a static object.
    ///
    /// # Panics
    ///
    /// Panics if `id == 0` (reserved for background).
    pub fn new(id: u16, class: ObjectClass, shape: Shape, position: Vec3) -> Self {
        assert!(id != 0, "object id 0 is reserved for background");
        Self {
            id,
            class,
            shape,
            initial_pose: SE3::new(SO3::identity(), position),
            texture_seed: id as u32 * 7919,
            motion: MotionModel::Static,
            is_background: false,
            lifetime: None,
        }
    }

    /// Marks this object as background structure (builder style): it will
    /// render with label 0 (no instance) while still contributing texture
    /// and parallax.
    pub fn as_background(mut self) -> Self {
        self.is_background = true;
        self
    }

    /// Sets a motion model (builder style).
    pub fn with_motion(mut self, motion: MotionModel) -> Self {
        self.motion = motion;
        self
    }

    /// Sets an initial orientation (builder style).
    pub fn with_rotation(mut self, rotation: SO3) -> Self {
        self.initial_pose = SE3::new(rotation, self.initial_pose.translation);
        self
    }

    /// Restricts the object to the existence window `[birth, death)`
    /// seconds (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `birth >= death`.
    pub fn with_lifetime(mut self, birth: f64, death: f64) -> Self {
        assert!(birth < death, "lifetime window must be non-empty");
        self.lifetime = Some((birth, death));
        self
    }

    /// Whether the object exists at time `t`.
    pub fn is_active_at(&self, t: f64) -> bool {
        match self.lifetime {
            None => true,
            Some((birth, death)) => t >= birth && t < death,
        }
    }

    /// The object's world pose at time `t` seconds.
    pub fn pose_at(&self, t: f64) -> SE3 {
        match self.motion {
            MotionModel::Static => self.initial_pose,
            MotionModel::Linear { velocity } => SE3::new(
                self.initial_pose.rotation,
                self.initial_pose.translation + velocity * t,
            ),
            MotionModel::Oscillate { amplitude, omega } => SE3::new(
                self.initial_pose.rotation,
                self.initial_pose.translation + amplitude * (omega * t).sin(),
            ),
            MotionModel::Spin { rate, velocity } => SE3::new(
                self.initial_pose.rotation * SO3::from_yaw(rate * t),
                self.initial_pose.translation + velocity * t,
            ),
        }
    }

    /// Whether the object moves in this world.
    pub fn is_dynamic(&self) -> bool {
        self.motion.is_dynamic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ray_hits_cuboid_front_face() {
        let s = Shape::Cuboid {
            half_extents: Vec3::new(1.0, 1.0, 1.0),
        };
        let t = s
            .intersect_local(Vec3::new(0.0, 0.0, -5.0), Vec3::Z)
            .unwrap();
        assert!((t - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ray_misses_cuboid() {
        let s = Shape::Cuboid {
            half_extents: Vec3::new(1.0, 1.0, 1.0),
        };
        assert!(s
            .intersect_local(Vec3::new(5.0, 0.0, -5.0), Vec3::Z)
            .is_none());
    }

    #[test]
    fn ray_inside_cuboid_exits() {
        let s = Shape::Cuboid {
            half_extents: Vec3::new(1.0, 1.0, 1.0),
        };
        let t = s.intersect_local(Vec3::ZERO, Vec3::Z).unwrap();
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ray_hits_cylinder_side() {
        let s = Shape::Cylinder {
            radius: 1.0,
            half_height: 2.0,
        };
        let t = s
            .intersect_local(Vec3::new(0.0, 0.0, -4.0), Vec3::Z)
            .unwrap();
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ray_hits_cylinder_cap() {
        let s = Shape::Cylinder {
            radius: 1.0,
            half_height: 2.0,
        };
        let t = s
            .intersect_local(Vec3::new(0.3, -5.0, 0.0), Vec3::Y)
            .unwrap();
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ray_misses_cylinder_above() {
        let s = Shape::Cylinder {
            radius: 1.0,
            half_height: 1.0,
        };
        assert!(s
            .intersect_local(Vec3::new(0.0, 3.0, -4.0), Vec3::Z)
            .is_none());
    }

    #[test]
    fn linear_motion_pose() {
        let obj = SceneObject::new(
            1,
            ObjectClass::Car,
            Shape::Cuboid {
                half_extents: Vec3::new(1.0, 0.5, 2.0),
            },
            Vec3::new(0.0, 0.0, 10.0),
        )
        .with_motion(MotionModel::Linear {
            velocity: Vec3::new(1.0, 0.0, 0.0),
        });
        let p = obj.pose_at(2.5);
        assert!((p.translation - Vec3::new(2.5, 0.0, 10.0)).norm() < 1e-12);
        assert!(obj.is_dynamic());
    }

    #[test]
    fn oscillation_returns_to_origin() {
        let obj = SceneObject::new(
            2,
            ObjectClass::Person,
            Shape::Cylinder {
                radius: 0.3,
                half_height: 0.9,
            },
            Vec3::new(1.0, 0.0, 5.0),
        )
        .with_motion(MotionModel::Oscillate {
            amplitude: Vec3::new(0.5, 0.0, 0.0),
            omega: std::f64::consts::PI,
        });
        let p = obj.pose_at(2.0); // sin(2π) = 0
        assert!((p.translation - Vec3::new(1.0, 0.0, 5.0)).norm() < 1e-9);
    }

    #[test]
    fn static_object_never_moves() {
        let obj = SceneObject::new(
            3,
            ObjectClass::Furniture,
            Shape::Cuboid {
                half_extents: Vec3::new(0.5, 0.5, 0.5),
            },
            Vec3::new(0.0, 0.5, 3.0),
        );
        assert_eq!(obj.pose_at(0.0), obj.pose_at(100.0));
        assert!(!obj.is_dynamic());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_id_panics() {
        let _ = SceneObject::new(
            0,
            ObjectClass::Generic,
            Shape::Cuboid {
                half_extents: Vec3::new(1.0, 1.0, 1.0),
            },
            Vec3::ZERO,
        );
    }

    #[test]
    fn lifetime_window_half_open() {
        let obj = SceneObject::new(
            4,
            ObjectClass::Generic,
            Shape::Cuboid {
                half_extents: Vec3::new(0.5, 0.5, 0.5),
            },
            Vec3::new(0.0, 0.5, 3.0),
        )
        .with_lifetime(1.0, 2.0);
        assert!(!obj.is_active_at(0.99));
        assert!(obj.is_active_at(1.0));
        assert!(obj.is_active_at(1.99));
        assert!(!obj.is_active_at(2.0));
        // Default: always alive.
        let always = SceneObject::new(
            5,
            ObjectClass::Generic,
            Shape::Cuboid {
                half_extents: Vec3::new(0.5, 0.5, 0.5),
            },
            Vec3::ZERO,
        );
        assert!(always.is_active_at(0.0) && always.is_active_at(1e6));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_lifetime_panics() {
        let _ = SceneObject::new(
            6,
            ObjectClass::Generic,
            Shape::Cuboid {
                half_extents: Vec3::new(0.5, 0.5, 0.5),
            },
            Vec3::ZERO,
        )
        .with_lifetime(2.0, 2.0);
    }

    #[test]
    fn class_indices_unique() {
        use std::collections::HashSet;
        let classes = [
            ObjectClass::Person,
            ObjectClass::Car,
            ObjectClass::Furniture,
            ObjectClass::OilSeparator,
            ObjectClass::Tube,
            ObjectClass::Pump,
            ObjectClass::Generic,
        ];
        let set: HashSet<usize> = classes.iter().map(|c| c.index()).collect();
        assert_eq!(set.len(), classes.len());
    }
}
