//! Property tests for the ray-cast renderer — the source of every
//! ground-truth label the conformance suite scores against, so its own
//! correctness has to be established independently:
//!
//! - **Occlusion**: the label at each pixel is the nearest hit along the
//!   ray, re-derived here per pixel by a brute-force scan over all shapes
//!   with none of the renderer's shortcuts: neither its screen-rectangle
//!   and bounding-sphere culls nor the per-frame list of live objects it
//!   hoists out of the pixel loop (poses and inverses, the camera center
//!   in each object frame, bounding radii). Besides random scenes in
//!   front of the camera, it covers what the rectangle cull must clip or
//!   give up on: objects across or behind the camera plane, a camera
//!   inside or millimetres from a surface, long facades, and faces seen
//!   exactly edge-on, whose grazing rays only the cull's padding keeps.
//! - **Pinned output**: every image and label byte of five presets at
//!   fixed frames folds into constants recorded before the hoisting, the
//!   per-column normalized x and the lighting tone table existed, so a
//!   speed-up that moves one bit fails.
//! - **Roll invariance**: a 180° roll about the optical axis is an exact
//!   pixel permutation for a centered principal point, so image and
//!   labels must be the point-reflection of the unrolled render,
//!   bit-for-bit.
//! - **Dimension agreement**: every matrix preset renders image and label
//!   planes matching the camera geometry at every supported resolution.

use edgeis_geometry::{Camera, Mat3, Vec2, Vec3, SE3, SO3};
use edgeis_rng::{for_each_case, StdRng};
use edgeis_scene::render::GROUND_Y;
use edgeis_scene::{datasets, MotionModel, ObjectClass, Scene, SceneObject, Shape};

fn shape(rng: &mut StdRng) -> Shape {
    let cuboid = rng.random_bool(0.5);
    let (a, b, c) = (
        rng.random_range(0.2..1.5),
        rng.random_range(0.2..1.5),
        rng.random_range(0.2..1.5),
    );
    if cuboid {
        Shape::Cuboid {
            half_extents: Vec3::new(a, b, c),
        }
    } else {
        Shape::Cylinder {
            radius: a * 0.7,
            half_height: b,
        }
    }
}

fn motion(rng: &mut StdRng) -> MotionModel {
    let kind = rng.random_range(0u8..3);
    let (x, y, z) = (
        rng.random_range(-0.8..0.8),
        rng.random_range(-0.3..0.3),
        rng.random_range(-0.8..0.8),
    );
    let omega = rng.random_range(0.5..3.0);
    match kind {
        0 => MotionModel::Static,
        1 => MotionModel::Linear {
            velocity: Vec3::new(x, y, z),
        },
        _ => MotionModel::Oscillate {
            amplitude: Vec3::new(x * 0.6, y, z * 0.6),
            omega,
        },
    }
}

/// Random scenes: a handful of objects in front of the camera, some
/// moving, some with finite lifetimes, occasionally tagged background.
fn scene(rng: &mut StdRng) -> Scene {
    let n = rng.random_range(1u16..6);
    let objects = (1..=n)
        .map(|id| {
            let (shape, motion) = (shape(rng), motion(rng));
            let center = Vec3::new(
                rng.random_range(-3.0..3.0),
                rng.random_range(-1.0..1.2),
                rng.random_range(2.0..9.0),
            );
            let mut obj =
                SceneObject::new(id, ObjectClass::Generic, shape, center).with_motion(motion);
            if rng.random_bool(0.5) {
                let birth = rng.random_range(0.0..1.0);
                obj = obj.with_lifetime(birth, birth + rng.random_range(1.5..4.0));
            }
            if rng.random_range(0u8..4) == 0 {
                obj = obj.as_background();
            }
            obj
        })
        .collect();
    Scene::new(objects)
}

fn pose(rng: &mut StdRng) -> SE3 {
    let t = Vec3::new(
        rng.random_range(-0.6..0.6),
        rng.random_range(-0.3..0.3),
        rng.random_range(-0.6..0.6),
    );
    let w = Vec3::new(
        rng.random_range(-0.25..0.25),
        rng.random_range(-0.25..0.25),
        rng.random_range(-0.25..0.25),
    );
    SE3::new(SO3::exp(w), t)
}

/// The expected label at one pixel, by scanning every shape with no
/// culling: nearest positive hit wins, the ground plane and sky are
/// background, and `is_background` objects hit as geometry but label 0.
fn brute_force_label(scene: &Scene, camera: &Camera, t_cw: &SE3, t: f64, u: u32, v: u32) -> u16 {
    let cam_center = t_cw.camera_center();
    let r_wc = t_cw.rotation.inverse();
    let n = camera.normalize(Vec2::new(u as f64 + 0.5, v as f64 + 0.5));
    let dir = (r_wc * Vec3::new(n.x, n.y, 1.0)).normalized();

    let mut best_t = f64::INFINITY;
    let mut best_label = 0u16;
    for obj in scene.objects() {
        if !obj.is_active_at(t) {
            continue;
        }
        let pose_ow = obj.pose_at(t).inverse();
        let o_local = pose_ow.transform(cam_center);
        let d_local = pose_ow.rotation * dir;
        if let Some(hit_t) = obj.shape.intersect_local(o_local, d_local) {
            if hit_t < best_t {
                best_t = hit_t;
                best_label = if obj.is_background { 0 } else { obj.id };
            }
        }
    }
    if dir.y.abs() > 1e-9 {
        let tg = (GROUND_Y - cam_center.y) / dir.y;
        if tg > 1e-9 && tg < best_t {
            best_label = 0;
        }
    }
    best_label
}

/// The renderer's culls, per-frame live-object list and hit ordering
/// never change which instance a pixel reports.
#[test]
fn labels_match_uncached_nearest_hit() {
    for_each_case(|rng| {
        let (scene, pose, t) = (scene(rng), pose(rng), rng.random_range(0.0..4.0));
        let camera = Camera::with_hfov(1.2, 64, 48);
        let frame = scene.render_at(&camera, &pose, t);
        // Every 3rd pixel keeps the case fast while still sweeping the
        // whole image (including silhouette boundaries).
        for v in (0..48u32).step_by(3) {
            for u in (0..64u32).step_by(3) {
                let expected = brute_force_label(&scene, &camera, &pose, t, u, v);
                assert_eq!(
                    frame.labels.get(u, v),
                    expected,
                    "pixel ({u}, {v}) at t={t}"
                );
            }
        }
    });
}

/// A random orientation: any axis, an angle up to π.
fn rotation(rng: &mut StdRng) -> SO3 {
    let axis = Vec3::new(
        rng.random_range(-1.0..1.0),
        rng.random_range(-1.0..1.0),
        rng.random_range(-1.0..1.0),
    );
    SO3::from_axis_angle(
        axis + Vec3::new(0.0, 0.0, 1e-3),
        rng.random_range(0.0..std::f64::consts::PI),
    )
}

/// A static, rotated object of either shape placed by where it sits
/// relative to `camera` at `t_cw`, for the cases a screen-space cull can
/// get wrong: boxes that straddle the camera plane or sit behind it, a
/// camera inside or within millimetres of a surface (or a little beyond
/// the cull's near plane), long thin facades reaching past the camera on
/// both sides, and small objects centimetres away at the frame's edge.
fn hard_object(rng: &mut StdRng, id: u16, camera: &Camera, t_cw: &SE3) -> SceneObject {
    let t_wc = t_cw.inverse();
    let rot = rotation(rng);
    let mut shape = shape(rng);
    let kind = rng.random_range(0u8..6);
    let center_cam = match kind {
        // In front, at any distance down to half a metre.
        0 => Vec3::new(
            rng.random_range(-3.0..3.0),
            rng.random_range(-2.0..2.0),
            rng.random_range(0.5..8.0),
        ),
        // Across the camera plane.
        1 => Vec3::new(
            rng.random_range(-2.0..2.0),
            rng.random_range(-1.5..1.5),
            rng.random_range(-1.0..1.0),
        ),
        // Behind the camera.
        2 => Vec3::new(
            rng.random_range(-3.0..3.0),
            rng.random_range(-2.0..2.0),
            rng.random_range(-8.0..-0.2),
        ),
        // The camera inside the shape or just off one face: a local point
        // at `gap` outside the surface (negative = inside) is put on the
        // camera centre.
        3 => {
            let gap = if rng.random_bool(0.5) {
                rng.random_range(-0.003..0.005)
            } else {
                rng.random_range(0.0..0.2)
            };
            let on_surface = match shape {
                Shape::Cuboid { half_extents: he } => {
                    let axis = rng.random_range(0usize..3);
                    let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                    let mut q = [
                        rng.random_range(-he.x..he.x),
                        rng.random_range(-he.y..he.y),
                        rng.random_range(-he.z..he.z),
                    ];
                    q[axis] = sign * ([he.x, he.y, he.z][axis] + gap);
                    Vec3::new(q[0], q[1], q[2])
                }
                Shape::Cylinder {
                    radius,
                    half_height,
                } => {
                    if rng.random_bool(0.7) {
                        let a = rng.random_range(0.0..std::f64::consts::TAU);
                        let r = radius + gap;
                        Vec3::new(
                            r * a.cos(),
                            rng.random_range(-half_height..half_height),
                            r * a.sin(),
                        )
                    } else {
                        let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                        let r = radius * rng.random_range(0.0..1.0f64).sqrt();
                        let a = rng.random_range(0.0..std::f64::consts::TAU);
                        Vec3::new(r * a.cos(), sign * (half_height + gap), r * a.sin())
                    }
                }
            };
            // Object centre such that `rot * on_surface + centre` is the
            // camera centre (the origin in the camera frame).
            -(t_cw.rotation * (rot * on_surface))
        }
        // A centimetre-sized object a few centimetres away on the ray
        // through a pixel near the frame's edge. Seen that steeply, all
        // of it can be closer in depth than its distance from the camera.
        5 => {
            shape = match shape {
                Shape::Cuboid { half_extents } => Shape::Cuboid {
                    half_extents: half_extents * 0.01,
                },
                Shape::Cylinder {
                    radius,
                    half_height,
                } => Shape::Cylinder {
                    radius: radius * 0.01,
                    half_height: half_height * 0.01,
                },
            };
            let edge = |rng: &mut StdRng, size: u32| {
                let inset = rng.random_range(0.0..6.0);
                if rng.random_bool(0.5) {
                    inset
                } else {
                    f64::from(size) - inset
                }
            };
            let pixel = Vec2::new(edge(rng, camera.width), edge(rng, camera.height));
            let n = camera.normalize(pixel);
            Vec3::new(n.x, n.y, 1.0).normalized() * rng.random_range(0.02..0.1)
        }
        // A facade: a long thin slab beside the camera's path.
        _ => {
            shape = Shape::Cuboid {
                half_extents: Vec3::new(
                    rng.random_range(0.05..0.3),
                    rng.random_range(1.0..4.0),
                    rng.random_range(10.0..30.0),
                ),
            };
            let side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            Vec3::new(
                side * rng.random_range(0.4..4.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-10.0..15.0),
            )
        }
    };
    let rot = if kind == 4 {
        // Facades run roughly along the view axis.
        SO3::exp(Vec3::new(
            rng.random_range(-0.1..0.1),
            rng.random_range(-0.6..0.6),
            rng.random_range(-0.1..0.1),
        ))
    } else {
        rot
    };
    let center = t_wc.transform(center_cam);
    let mut obj = SceneObject::new(id, ObjectClass::Generic, shape, center).with_rotation(rot);
    if rng.random_range(0u8..6) == 0 {
        obj = obj.as_background();
    }
    obj
}

/// A camera with random focal lengths and an off-centre principal point,
/// so the cull's projection sees more than the symmetric default.
fn skewed_camera(rng: &mut StdRng) -> Camera {
    let fx = rng.random_range(30.0..90.0);
    Camera::new(
        fx,
        fx * rng.random_range(0.8..1.25),
        rng.random_range(20.0..44.0),
        rng.random_range(14.0..34.0),
        64,
        48,
    )
}

/// The screen-rectangle cull never drops a hit, at every pixel, for
/// objects the cull has to clip or give up on: rotated boxes and
/// cylinders across or behind the camera plane, a camera inside or
/// millimetres from a surface, long facades, and small objects
/// centimetres away at the frame's edge.
#[test]
fn labels_match_brute_force_around_the_camera_plane() {
    for_each_case(|rng| {
        let pose = pose(rng);
        let camera = if rng.random_bool(0.5) {
            Camera::with_hfov(1.2, 64, 48)
        } else {
            skewed_camera(rng)
        };
        let n = rng.random_range(1u16..5);
        let scene = Scene::new(
            (1..=n)
                .map(|id| hard_object(rng, id, &camera, &pose))
                .collect(),
        );
        let frame = scene.render_at(&camera, &pose, 0.0);
        for v in 0..48u32 {
            for u in 0..64u32 {
                let expected = brute_force_label(&scene, &camera, &pose, 0.0, u, v);
                assert_eq!(frame.labels.get(u, v), expected, "pixel ({u}, {v})");
            }
        }
    });
}

/// Boxes seen exactly edge-on: one face lies in the plane through the
/// camera centre and the pixel-centre column `u = 32` (principal point
/// `cx = 32.5`), so that column's rays graze the face and whether they
/// hit comes down to rounding. The cull's padding must keep them.
#[test]
fn edge_on_faces_keep_their_grazing_column() {
    for_each_case(|rng| {
        let pose = pose(rng);
        let fx = rng.random_range(30.0..90.0);
        let camera = Camera::new(fx, fx, 32.5, rng.random_range(14.0..34.0), 64, 48);
        let he = Vec3::new(
            rng.random_range(0.2..1.5),
            rng.random_range(0.2..1.5),
            rng.random_range(0.2..1.5),
        );
        let side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
        let center_cam = Vec3::new(
            -side * he.x,
            rng.random_range(-1.0..1.0),
            rng.random_range(2.0..6.0),
        );
        let rot =
            pose.rotation.inverse() * SO3::from_axis_angle(Vec3::X, rng.random_range(-1.5..1.5));
        let obj = SceneObject::new(
            1,
            ObjectClass::Generic,
            Shape::Cuboid { half_extents: he },
            pose.inverse().transform(center_cam),
        )
        .with_rotation(rot);
        let scene = Scene::new(vec![obj]);
        let frame = scene.render_at(&camera, &pose, 0.0);
        for v in 0..48u32 {
            for u in 30..35u32 {
                let expected = brute_force_label(&scene, &camera, &pose, 0.0, u, v);
                assert_eq!(frame.labels.get(u, v), expected, "pixel ({u}, {v})");
            }
        }
    });
}

/// A 180° optical-axis roll point-reflects the image plane exactly
/// (principal point is centered, and the roll matrix is all ±1/0, so
/// the rotated ray directions are bit-exact sign flips).
#[test]
fn half_turn_roll_point_reflects_image_and_labels() {
    for_each_case(|rng| {
        let (scene, pose, t) = (scene(rng), pose(rng), rng.random_range(0.0..4.0));
        let camera = Camera::with_hfov(1.2, 64, 48);
        let roll = SO3::from_matrix_unchecked(Mat3::from_row_vecs(
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ));
        let rolled_pose = SE3::new(roll * pose.rotation, roll * pose.translation);
        let base = scene.render_at(&camera, &pose, t);
        let rolled = scene.render_at(&camera, &rolled_pose, t);
        for v in 0..48u32 {
            for u in 0..64u32 {
                let (mu, mv) = (63 - u, 47 - v);
                assert_eq!(
                    rolled.labels.get(u, v),
                    base.labels.get(mu, mv),
                    "label at ({u}, {v})"
                );
                assert_eq!(
                    rolled.image.get(u, v),
                    base.image.get(mu, mv),
                    "pixel at ({u}, {v})"
                );
            }
        }
    });
}

/// Every scenario-matrix preset renders image and label planes that agree
/// with each other and with the camera geometry, at every resolution the
/// conformance suite uses (QQVGA smoke, QVGA matrix, VGA hi-res).
#[test]
fn presets_render_consistent_dimensions_at_all_resolutions() {
    for (name, preset) in datasets::MATRIX_PRESETS {
        let world = preset(42);
        for (w, h) in [(80u32, 60u32), (320, 240), (640, 480)] {
            let camera = Camera::with_hfov(1.2, w, h);
            let pose = world.trajectory.pose_at(0.5);
            let frame = world.scene.render_at(&camera, &pose, 0.5);
            assert_eq!(frame.image.width(), w, "{name} image width at {w}x{h}");
            assert_eq!(frame.image.height(), h, "{name} image height at {w}x{h}");
            assert_eq!(frame.labels.width(), w, "{name} label width at {w}x{h}");
            assert_eq!(frame.labels.height(), h, "{name} label height at {w}x{h}");
            // Labels only name objects that exist in the scene and are
            // never the ids of background-tagged geometry.
            for id in frame.labels.instance_ids() {
                let obj = world
                    .scene
                    .object(id)
                    .unwrap_or_else(|| panic!("{name}: label {id} has no object"));
                assert!(!obj.is_background, "{name}: background object {id} labeled");
            }
        }
    }
}

/// FNV-1a 64 fold of one frame's image bytes then its labels as
/// little-endian `u16`s (the same fold as `edgeis::hash::fnv1a64_extend`,
/// restated because `edgeis-scene` sits below `edgeis`).
fn frame_digest(mut digest: u64, frame: &edgeis_scene::RenderedFrame) -> u64 {
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(frame.image.as_bytes());
    for v in 0..frame.labels.height() {
        for u in 0..frame.labels.width() {
            fold(&frame.labels.get(u, v).to_le_bytes());
        }
    }
    digest
}

/// Pins the renderer's exact output: every image and label byte of four
/// matrix presets at QVGA (including Drift lighting and lifetime churn)
/// and the VGA atrium, at frames 0, 15, 45 and 90 of their 30 fps
/// trajectories. Any change to the ray-caster that is meant to be a pure
/// speed-up must leave these constants alone.
#[test]
fn render_output_is_pinned() {
    const QVGA: (u32, u32) = (320, 240);
    const VGA: (u32, u32) = (640, 480);
    let cases: [(&str, datasets::PresetFn, (u32, u32)); 5] = [
        ("patrol_drift", datasets::patrol_drift, QVGA),
        ("urban_rush", datasets::urban_rush, QVGA),
        ("lighting_shift", datasets::lighting_shift, QVGA),
        ("object_churn", datasets::object_churn, QVGA),
        ("atrium_hires", datasets::atrium_hires, VGA),
    ];
    let folds: Vec<(&str, u64)> = cases
        .iter()
        .map(|&(name, preset, (w, h))| {
            let world = preset(1);
            let camera = Camera::with_hfov(1.2, w, h);
            let digest = [0u32, 15, 45, 90]
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |d, &i| {
                    let t = f64::from(i) / 30.0;
                    let pose = world.trajectory.pose_at(t);
                    frame_digest(d, &world.scene.render_at(&camera, &pose, t))
                });
            (name, digest)
        })
        .collect();
    let pinned = [
        ("patrol_drift", 0x4936_5038_d16e_9380),
        ("urban_rush", 0x61c2_6cd0_2642_ecf5),
        ("lighting_shift", 0xe5ff_79af_0791_e8f9),
        ("object_churn", 0xa977_4a25_d0fd_2d79),
        ("atrium_hires", 0x8172_bed9_2090_4fac),
    ];
    assert_eq!(folds, pinned, "renderer output changed: {folds:x?}");
}
