//! Ray-cast renderer producing frames with exact instance ground truth.

use crate::object::{SceneObject, Shape};
use edgeis_geometry::{Camera, Vec2, Vec3, SE3};
use edgeis_imaging::{GrayImage, LabelMap};

/// World-frame y coordinate of the ground plane (below the camera, since
/// +Y points down in our convention).
pub const GROUND_Y: f64 = 1.6;

/// A rendered frame: pixels plus per-pixel instance labels and the exact
/// camera pose used.
#[derive(Debug, Clone)]
pub struct RenderedFrame {
    /// Grayscale pixels.
    pub image: GrayImage,
    /// Ground-truth per-pixel instance ids (0 = background).
    pub labels: LabelMap,
    /// The camera pose `T_cw` this frame was rendered from.
    pub pose: SE3,
    /// Simulation time in seconds.
    pub time: f64,
}

/// Global illumination model applied to rendered pixel values (labels are
/// untouched — ground truth is geometric, not photometric).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Lighting {
    /// Constant illumination. Pixel values are exactly the procedural
    /// textures — the only mode that existed before the scenario matrix,
    /// and still the default, so every pre-matrix scene renders
    /// bit-identically.
    #[default]
    Steady,
    /// Sinusoidal exposure drift: gain `1 + amplitude·sin(2πt/period)`,
    /// modeling auto-exposure hunting under shifting light. Stresses the
    /// brightness-sensitive stages (FAST thresholds, BRIEF descriptors)
    /// without moving any geometry.
    Drift {
        /// Full gain cycle length in seconds.
        period_s: f64,
        /// Peak relative gain deviation (e.g. `0.25` → gain in 0.75–1.25).
        amplitude: f64,
    },
}

impl Lighting {
    /// The lit value of every texture value at time `t`: entry `v` is
    /// what texture value `v` renders as.
    fn tone_table(&self, t: f64) -> [u8; 256] {
        let mut table: [u8; 256] = std::array::from_fn(|v| v as u8);
        if let Lighting::Drift {
            period_s,
            amplitude,
        } = *self
        {
            let gain = 1.0 + amplitude * (std::f64::consts::TAU * t / period_s).sin();
            for value in &mut table {
                *value = (*value as f64 * gain).round().clamp(0.0, 255.0) as u8;
            }
        }
        table
    }
}

/// A renderable world: a set of objects over a textured ground plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    objects: Vec<SceneObject>,
    /// Seed for the ground / sky texture.
    pub background_seed: u32,
    /// Illumination model (defaults to [`Lighting::Steady`], which is
    /// bit-identical to the pre-lighting renderer).
    pub lighting: Lighting,
}

impl Scene {
    /// Creates a scene from objects.
    ///
    /// # Panics
    ///
    /// Panics if two objects share an id.
    pub fn new(objects: Vec<SceneObject>) -> Self {
        let mut ids: Vec<u16> = objects.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), objects.len(), "duplicate object ids");
        Self {
            objects,
            background_seed: 0xbead,
            lighting: Lighting::default(),
        }
    }

    /// Sets the illumination model (builder style).
    pub fn with_lighting(mut self, lighting: Lighting) -> Self {
        self.lighting = lighting;
        self
    }

    /// The objects in the scene.
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Mutable access to the objects (e.g. to retarget motion mid-run).
    pub fn objects_mut(&mut self) -> &mut [SceneObject] {
        &mut self.objects
    }

    /// Looks up an object by instance id.
    pub fn object(&self, id: u16) -> Option<&SceneObject> {
        self.objects.iter().find(|o| o.id == id)
    }

    /// Renders the scene at time `t` from pose `t_cw`.
    ///
    /// Every pixel is ray-cast against all objects (nearest hit wins) and
    /// the ground plane; the label map records the instance id of the hit
    /// object, giving pixel-exact ground truth.
    pub fn render_at(&self, camera: &Camera, t_cw: &SE3, t: f64) -> RenderedFrame {
        let w = camera.width;
        let h = camera.height;
        let cam_center = t_cw.camera_center();
        let r_wc = t_cw.rotation.inverse();

        // What depends only on the frame is computed once, with the same
        // floating-point operations a per-pixel computation would use, so
        // every output bit is unchanged: the objects alive at `t`
        // (birth/death churn) with their poses and screen rectangles, the
        // normalized image-plane x of each column, and the lighting as a
        // per-value tone table.
        //
        // The small vectors are sized up front and allocated before the
        // frame buffers: grown piecemeal, or allocated after the buffers,
        // they fragmented the heap enough to raise perfbench's peak RSS on
        // `patrol_steady` by 2%.
        let near_reach = NEAR * max_corner_ray_length(camera);
        let mut live = Vec::with_capacity(self.objects.len());
        live.extend(
            self.objects
                .iter()
                .filter(|o| o.is_active_at(t))
                .map(|object| LiveObject::new(object, t, camera, t_cw, near_reach)),
        );
        let norm_x: Vec<f64> = (0..w)
            .map(|u| camera.normalize(Vec2::new(u as f64 + 0.5, 0.0)).x)
            .collect();
        let tone = self.lighting.tone_table(t);
        let ground_dy = GROUND_Y - cam_center.y;
        let mut image = GrayImage::new(w, h);
        let mut labels = LabelMap::new(w, h);

        for v in 0..h {
            let ny = camera.normalize(Vec2::new(0.0, v as f64 + 0.5)).y;
            for (u, &nx) in (0..w).zip(&norm_x) {
                let dir = (r_wc * Vec3::new(nx, ny, 1.0)).normalized();

                let mut best_t = f64::INFINITY;
                let mut best_obj: Option<&LiveObject> = None;

                for obj in &live {
                    if !obj.rect.contains(u, v) {
                        continue;
                    }
                    // Intersect in the object frame.
                    let d_local = obj.pose_ow.rotation * dir;
                    if let Some(hit_t) = obj.shape.intersect_local(obj.origin_local, d_local) {
                        if hit_t < best_t {
                            best_t = hit_t;
                            best_obj = Some(obj);
                        }
                    }
                }

                // Ground plane.
                let mut ground_t = f64::INFINITY;
                if dir.y.abs() > 1e-9 {
                    let tg = ground_dy / dir.y;
                    if tg > 1e-9 {
                        ground_t = tg;
                    }
                }

                let (value, label) = if best_t < ground_t {
                    let obj = best_obj.expect("hit without object");
                    let hit_world = cam_center + dir * best_t;
                    let hit_local = obj.pose_ow.transform(hit_world);
                    (object_texture(hit_local, obj.texture_seed), obj.label)
                } else if ground_t.is_finite() {
                    let hit = cam_center + dir * ground_t;
                    (ground_texture(hit, self.background_seed), 0)
                } else {
                    (sky_texture(dir, self.background_seed), 0)
                };

                image.set(u, v, tone[usize::from(value)]);
                labels.set(u, v, label);
            }
        }

        RenderedFrame {
            image,
            labels,
            pose: *t_cw,
            time: t,
        }
    }

    /// Convenience: renders at `t = 0`.
    pub fn render(&self, camera: &Camera, t_cw: &SE3) -> RenderedFrame {
        self.render_at(camera, t_cw, 0.0)
    }
}

/// Camera-frame depth of the plane that clips each object's box before
/// its corners are projected to a screen rectangle.
const NEAR: f64 = 0.05;

/// Pixels added on each side of a screen rectangle. They cover the
/// rounding of the corner projections and of the per-pixel rays.
const RECT_PAD: f64 = 2.0;

/// The longest `|(x, y, 1)|` over the image's four corners in normalized
/// image-plane coordinates. Every pixel ray's camera-frame direction is
/// `(x, y, 1)` over that length, so a hit at distance `d` along it lies
/// at depth at least `d / max_corner_ray_length`.
fn max_corner_ray_length(camera: &Camera) -> f64 {
    let (w, h) = (f64::from(camera.width), f64::from(camera.height));
    [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h)]
        .into_iter()
        .map(|(u, v)| {
            let n = camera.normalize(Vec2::new(u, v));
            Vec3::new(n.x, n.y, 1.0).norm()
        })
        .fold(0.0, f64::max)
}

/// An inclusive pixel rectangle that holds every pixel whose ray can hit
/// an object. Empty when `x0 > x1`.
struct PixelRect {
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
}

impl PixelRect {
    const EMPTY: Self = Self {
        x0: 1,
        x1: 0,
        y0: 1,
        y1: 0,
    };

    fn full(camera: &Camera) -> Self {
        Self {
            x0: 0,
            x1: camera.width - 1,
            y0: 0,
            y1: camera.height - 1,
        }
    }

    /// The padded screen rectangle of the local box `[-half, half]` seen
    /// through `t_co` (object → camera), clipped at depth [`NEAR`].
    ///
    /// The part of the box in front of the near plane is a convex
    /// polytope whose vertices are the box corners in front of the plane
    /// and the points where the 12 box edges cross it. Perspective
    /// projection keeps it convex, so its image lies inside the bounding
    /// rectangle of those vertices' projections. A pixel is inside the
    /// rectangle when its centre `(u + ½, v + ½)` is.
    fn of_box(camera: &Camera, t_co: &SE3, half: Vec3) -> Self {
        let corners: [Vec3; 8] = std::array::from_fn(|i| {
            let pick = |bit: usize, e: f64| if i & bit == 0 { -e } else { e };
            t_co.transform(Vec3::new(pick(1, half.x), pick(2, half.y), pick(4, half.z)))
        });
        let (mut lo, mut hi) = (
            Vec2::new(f64::INFINITY, f64::INFINITY),
            Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        let mut include = |p: Vec3| {
            let x = camera.fx * p.x / p.z + camera.cx;
            let y = camera.fy * p.y / p.z + camera.cy;
            lo = Vec2::new(lo.x.min(x), lo.y.min(y));
            hi = Vec2::new(hi.x.max(x), hi.y.max(y));
        };
        for (i, &a) in corners.iter().enumerate() {
            if a.z >= NEAR {
                include(a);
            }
            for bit in [1, 2, 4] {
                let b = corners[i | bit];
                if i & bit == 0 && (a.z < NEAR) != (b.z < NEAR) {
                    let s = (NEAR - a.z) / (b.z - a.z);
                    let p = a + (b - a) * s;
                    include(Vec3::new(p.x, p.y, NEAR));
                }
            }
        }
        let (w, h) = (f64::from(camera.width), f64::from(camera.height));
        let x0 = (lo.x - RECT_PAD - 0.5).ceil().max(0.0);
        let x1 = (hi.x + RECT_PAD - 0.5).floor().min(w - 1.0);
        let y0 = (lo.y - RECT_PAD - 0.5).ceil().max(0.0);
        let y1 = (hi.y + RECT_PAD - 0.5).floor().min(h - 1.0);
        // Also false when no vertex lies in front of the plane (lo = +∞).
        if x0 <= x1 && y0 <= y1 {
            Self {
                x0: x0 as u32,
                x1: x1 as u32,
                y0: y0 as u32,
                y1: y1 as u32,
            }
        } else {
            Self::EMPTY
        }
    }

    #[inline]
    fn contains(&self, u: u32, v: u32) -> bool {
        self.x0 <= u && u <= self.x1 && self.y0 <= v && v <= self.y1
    }
}

/// An object that exists at the frame's time, with the per-frame
/// quantities the pixel loop reads.
struct LiveObject {
    shape: Shape,
    texture_seed: u32,
    /// Label-map id: 0 for background structure.
    label: u16,
    /// World → object-local transform at the frame's time.
    pose_ow: SE3,
    /// Camera center in the object's local frame.
    origin_local: Vec3,
    /// The pixels whose rays can hit the object; the rest skip it.
    rect: PixelRect,
}

impl LiveObject {
    /// `near_reach` is [`NEAR`] times [`max_corner_ray_length`]: a camera
    /// at least that far from the object's box sees every hit on it at
    /// depth ≥ [`NEAR`], in front of the plane [`PixelRect::of_box`]
    /// clips at. A closer camera tests the object at every pixel.
    fn new(object: &SceneObject, t: f64, camera: &Camera, t_cw: &SE3, near_reach: f64) -> Self {
        let cam_center = t_cw.camera_center();
        let pose_wo = object.pose_at(t);
        let pose_ow = pose_wo.inverse();
        let origin_local = pose_ow.transform(cam_center);
        let half = object.shape.half_extents();
        let gap = Vec3::new(
            (origin_local.x.abs() - half.x).max(0.0),
            (origin_local.y.abs() - half.y).max(0.0),
            (origin_local.z.abs() - half.z).max(0.0),
        );
        let rect = if gap.norm_squared() < near_reach * near_reach {
            PixelRect::full(camera)
        } else {
            PixelRect::of_box(camera, &(*t_cw * pose_wo), half)
        };
        Self {
            shape: object.shape,
            texture_seed: object.texture_seed,
            label: if object.is_background { 0 } else { object.id },
            pose_ow,
            origin_local,
            rect,
        }
    }
}

/// Integer lattice hash → `[0, 255]`.
fn hash3(x: i64, y: i64, z: i64, seed: u32) -> u8 {
    let mut h = (x as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((y as u64).wrapping_mul(0xc2b2ae3d27d4eb4f))
        .wrapping_add((z as u64).wrapping_mul(0x165667b19e3779f9))
        .wrapping_add(seed as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    (h & 0xff) as u8
}

/// Procedural surface texture for objects: a blocky 2-octave pattern in
/// object-local coordinates (moves rigidly with the object), brightened so
/// objects contrast with the ground.
fn object_texture(p_local: Vec3, seed: u32) -> u8 {
    let q = 8.0; // texels per meter, coarse octave
    let c1 = hash3(
        (p_local.x * q).floor() as i64,
        (p_local.y * q).floor() as i64,
        (p_local.z * q).floor() as i64,
        seed,
    ) as u32;
    let c2 = hash3(
        (p_local.x * q * 4.0).floor() as i64,
        (p_local.y * q * 4.0).floor() as i64,
        (p_local.z * q * 4.0).floor() as i64,
        seed ^ 0xabcd,
    ) as u32;
    (140 + ((c1 * 2 + c2) % 110)) as u8
}

/// Ground texture: a darker blocky pattern keyed on (x, z).
fn ground_texture(p: Vec3, seed: u32) -> u8 {
    let q = 4.0;
    let c1 = hash3((p.x * q).floor() as i64, 0, (p.z * q).floor() as i64, seed) as u32;
    let c2 = hash3(
        (p.x * q * 4.0).floor() as i64,
        1,
        (p.z * q * 4.0).floor() as i64,
        seed ^ 0x55aa,
    ) as u32;
    (20 + ((c1 + c2) % 90)) as u8
}

/// Sky: almost featureless (a faint horizontal banding).
fn sky_texture(dir: Vec3, seed: u32) -> u8 {
    let band = ((dir.y * 40.0).floor() as i64).rem_euclid(2);
    let base = 200 + band as u8 * 3;
    base.wrapping_add((seed % 3) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{MotionModel, ObjectClass, Shape};
    use edgeis_geometry::SO3;

    fn small_camera() -> Camera {
        Camera::with_hfov(1.2, 96, 72)
    }

    fn one_box_scene() -> Scene {
        Scene::new(vec![SceneObject::new(
            1,
            ObjectClass::Furniture,
            Shape::Cuboid {
                half_extents: Vec3::new(0.5, 0.5, 0.5),
            },
            Vec3::new(0.0, 0.5, 4.0),
        )])
    }

    #[test]
    fn object_appears_in_center() {
        let scene = one_box_scene();
        let frame = scene.render(&small_camera(), &SE3::identity());
        let cx = 48;
        let cy = 36 + 4; // object slightly below center (y = +0.5 is down)
        assert_eq!(frame.labels.get(cx, cy), 1);
        // Object pixels brighter than ground pixels on average.
        let obj_mask = frame.labels.instance_mask(1);
        assert!(
            obj_mask.area() > 50,
            "object too small: {}",
            obj_mask.area()
        );
    }

    #[test]
    fn empty_scene_is_all_background() {
        let scene = Scene::new(vec![]);
        let frame = scene.render(&small_camera(), &SE3::identity());
        assert_eq!(frame.labels.instance_ids(), Vec::<u16>::new());
    }

    #[test]
    fn ground_and_sky_split() {
        let scene = Scene::new(vec![]);
        let frame = scene.render(&small_camera(), &SE3::identity());
        // Bottom of the image: ground (dark). Top: sky (bright).
        let bottom = frame.image.get(48, 70) as i32;
        let top = frame.image.get(48, 2) as i32;
        assert!(top > 150, "sky value {top}");
        assert!(bottom < 150, "ground value {bottom}");
    }

    #[test]
    fn nearer_object_occludes() {
        let scene = Scene::new(vec![
            SceneObject::new(
                1,
                ObjectClass::Furniture,
                Shape::Cuboid {
                    half_extents: Vec3::new(1.0, 1.0, 0.5),
                },
                Vec3::new(0.0, 0.0, 6.0),
            ),
            SceneObject::new(
                2,
                ObjectClass::Furniture,
                Shape::Cuboid {
                    half_extents: Vec3::new(0.3, 0.3, 0.3),
                },
                Vec3::new(0.0, 0.0, 3.0),
            ),
        ]);
        let frame = scene.render(&small_camera(), &SE3::identity());
        assert_eq!(frame.labels.get(48, 36), 2, "near object should win");
        // Far object visible around the near one.
        assert!(frame.labels.instance_ids().contains(&1));
    }

    #[test]
    fn moving_object_changes_labels_over_time() {
        let mut scene = one_box_scene();
        scene.objects_mut()[0].motion = MotionModel::Linear {
            velocity: Vec3::new(1.0, 0.0, 0.0),
        };
        let cam = small_camera();
        let f0 = scene.render_at(&cam, &SE3::identity(), 0.0);
        let f1 = scene.render_at(&cam, &SE3::identity(), 1.0);
        let m0 = f0.labels.instance_mask(1);
        let m1 = f1.labels.instance_mask(1);
        let (c0x, _) = m0.centroid().unwrap();
        let (c1x, _) = m1.centroid().unwrap();
        assert!(c1x > c0x + 5.0, "object should move right: {c0x} -> {c1x}");
    }

    #[test]
    fn camera_translation_shifts_object() {
        let scene = one_box_scene();
        let cam = small_camera();
        let f0 = scene.render(&cam, &SE3::identity());
        // Camera moves right => T_cw translation is negative of center move.
        let t1 = SE3::new(SO3::identity(), Vec3::new(-0.5, 0.0, 0.0));
        let f1 = scene.render(&cam, &t1);
        let (c0x, _) = f0.labels.instance_mask(1).centroid().unwrap();
        let (c1x, _) = f1.labels.instance_mask(1).centroid().unwrap();
        assert!(c1x < c0x - 2.0, "object should shift left: {c0x} -> {c1x}");
    }

    #[test]
    fn texture_rigid_with_object() {
        // A translating object carries its texture: the pixel values inside
        // the mask should be (mostly) a shifted copy.
        let mut scene = one_box_scene();
        scene.objects_mut()[0].motion = MotionModel::Linear {
            velocity: Vec3::new(0.5, 0.0, 0.0),
        };
        let cam = small_camera();
        let f0 = scene.render_at(&cam, &SE3::identity(), 0.0);
        let f1 = scene.render_at(&cam, &SE3::identity(), 0.2);
        let m0 = f0.labels.instance_mask(1);
        let (c0x, c0y) = m0.centroid().unwrap();
        let (c1x, c1y) = f1.labels.instance_mask(1).centroid().unwrap();
        let dx = c1x - c0x;
        let dy = c1y - c0y;
        let mut same = 0;
        let mut total = 0;
        for (x, y) in m0.iter_set() {
            let nx = (x as f64 + dx).round() as i64;
            let ny = (y as f64 + dy).round() as i64;
            if nx >= 0
                && ny >= 0
                && (nx as u32) < 96
                && (ny as u32) < 72
                && f1.labels.get_or_background(nx, ny) == 1
            {
                total += 1;
                let v0 = f0.image.get(x, y) as i32;
                let v1 = f1.image.get(nx as u32, ny as u32) as i32;
                if (v0 - v1).abs() < 30 {
                    same += 1;
                }
            }
        }
        assert!(total > 30);
        assert!(
            same * 10 >= total * 6,
            "texture not rigid: {same}/{total} stable"
        );
    }

    #[test]
    fn steady_lighting_is_bit_identical_to_default() {
        // The explicit Steady builder must equal the implicit default, and
        // rendering must not depend on t through lighting.
        let scene = one_box_scene();
        let lit = one_box_scene().with_lighting(Lighting::Steady);
        let cam = small_camera();
        let a = scene.render_at(&cam, &SE3::identity(), 0.37);
        let b = lit.render_at(&cam, &SE3::identity(), 0.37);
        assert_eq!(a.image, b.image);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn lighting_drift_changes_pixels_not_labels() {
        let scene = one_box_scene().with_lighting(Lighting::Drift {
            period_s: 4.0,
            amplitude: 0.3,
        });
        let steady = one_box_scene();
        let cam = small_camera();
        // At the gain peak (t = period/4) pixels brighten but ground truth
        // is untouched.
        let lit = scene.render_at(&cam, &SE3::identity(), 1.0);
        let base = steady.render_at(&cam, &SE3::identity(), 1.0);
        assert_eq!(lit.labels, base.labels);
        assert_ne!(lit.image, base.image);
        let mean = |img: &GrayImage| {
            let mut sum = 0u64;
            for y in 0..img.height() {
                for x in 0..img.width() {
                    sum += img.get(x, y) as u64;
                }
            }
            sum as f64 / (img.width() * img.height()) as f64
        };
        assert!(mean(&lit.image) > mean(&base.image) * 1.1);
    }

    #[test]
    fn dead_objects_neither_render_nor_occlude() {
        // A huge occluder that only exists during [1, 2): before birth and
        // after death the scene must look exactly like it was never there.
        let occluder = SceneObject::new(
            7,
            ObjectClass::Furniture,
            Shape::Cuboid {
                half_extents: Vec3::new(2.0, 2.0, 0.2),
            },
            Vec3::new(0.0, 0.0, 2.0),
        )
        .with_lifetime(1.0, 2.0);
        let mut objects = one_box_scene().objects().to_vec();
        objects.push(occluder);
        let with_churn = Scene::new(objects);
        let without = one_box_scene();
        let cam = small_camera();
        for t in [0.0, 2.5] {
            let a = with_churn.render_at(&cam, &SE3::identity(), t);
            let b = without.render_at(&cam, &SE3::identity(), t);
            assert_eq!(a.image, b.image, "t={t}");
            assert_eq!(a.labels, b.labels, "t={t}");
        }
        // Alive: it fills the view and hides the box.
        let alive = with_churn.render_at(&cam, &SE3::identity(), 1.5);
        assert!(alive.labels.instance_ids().contains(&7));
        assert!(!alive.labels.instance_ids().contains(&1));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_panic() {
        let o = SceneObject::new(
            1,
            ObjectClass::Generic,
            Shape::Cuboid {
                half_extents: Vec3::new(1.0, 1.0, 1.0),
            },
            Vec3::ZERO,
        );
        let _ = Scene::new(vec![o.clone(), o]);
    }

    #[test]
    fn determinism() {
        let scene = one_box_scene();
        let cam = small_camera();
        let a = scene.render(&cam, &SE3::identity());
        let b = scene.render(&cam, &SE3::identity());
        assert_eq!(a.image, b.image);
        assert_eq!(a.labels, b.labels);
    }
}
