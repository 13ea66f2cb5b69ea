//! FPN anchor geometry and the paper's dynamic anchor placement (§IV-A).

use crate::roi::BBox;

/// Feature-pyramid configuration: strides and per-level base anchor sizes,
/// mirroring the ResNet-FPN used by Mask R-CNN (P2–P6).
#[derive(Debug, Clone, PartialEq)]
pub struct FpnConfig {
    /// Stride of each pyramid level in pixels.
    pub strides: Vec<u32>,
    /// Base anchor size of each level (same length as `strides`).
    pub sizes: Vec<f64>,
    /// Anchor aspect ratios shared by all levels.
    pub aspect_ratios: Vec<f64>,
}

impl Default for FpnConfig {
    fn default() -> Self {
        Self {
            strides: vec![4, 8, 16, 32, 64],
            sizes: vec![32.0, 64.0, 128.0, 256.0, 512.0],
            aspect_ratios: vec![0.5, 1.0, 2.0],
        }
    }
}

impl FpnConfig {
    /// Total anchors for a full frame of the given size.
    pub fn full_frame_anchor_count(&self, width: u32, height: u32) -> usize {
        self.strides
            .iter()
            .map(|&s| {
                (width.div_ceil(s) as usize)
                    * (height.div_ceil(s) as usize)
                    * self.aspect_ratios.len()
            })
            .sum()
    }
}

/// One guidance box from the mobile side: the surrounding box of a
/// transferred mask (with its class), or a newly observed area (class
/// unknown).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidanceBox {
    /// Pixel-space box.
    pub bbox: BBox,
    /// Known class id when this box surrounds a transferred mask.
    pub class_id: Option<u8>,
    /// Instance label from the mobile cache (for result association).
    pub instance: Option<u16>,
}

/// Mobile-side guidance for one inference: where to place anchors and what
/// is already known (the "instruction" of contour instructed acceleration).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Guidance {
    /// Boxes around transferred masks plus new-area boxes.
    pub boxes: Vec<GuidanceBox>,
}

impl Guidance {
    /// Whether there is no guidance (model must scan the full frame).
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Indices of boxes with a known object (class + instance).
    pub fn known_areas(&self) -> Vec<usize> {
        self.boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.class_id.is_some())
            .map(|(i, _)| i)
            .collect()
    }
}

/// A generated anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// Anchor box.
    pub bbox: BBox,
    /// Pyramid level index.
    pub level: usize,
    /// The guidance area that admitted this anchor (`None` under full-frame
    /// placement or for new-area boxes without class).
    pub area_id: Option<usize>,
}

/// The anchor grid generator.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorGrid {
    config: FpnConfig,
    width: u32,
    height: u32,
}

impl AnchorGrid {
    /// Creates a grid for a frame size.
    pub fn new(config: FpnConfig, width: u32, height: u32) -> Self {
        Self {
            config,
            width,
            height,
        }
    }

    /// The FPN configuration.
    pub fn config(&self) -> &FpnConfig {
        &self.config
    }

    /// Generates anchors for the whole frame (the unguided baseline: "RPN
    /// needs to slide a small network across the whole convolutional
    /// feature map").
    pub fn full_frame(&self) -> Vec<Anchor> {
        let mut anchors =
            Vec::with_capacity(self.config.full_frame_anchor_count(self.width, self.height));
        for (level, stride, dims) in self.levels() {
            for gy in 0..self.height.div_ceil(stride) {
                for gx in 0..self.width.div_ceil(stride) {
                    let cx = (gx * stride) as f64 + stride as f64 / 2.0;
                    let cy = (gy * stride) as f64 + stride as f64 / 2.0;
                    for &(w, h) in &dims {
                        anchors.push(Anchor {
                            bbox: BBox::from_center(cx, cy, w, h),
                            level,
                            area_id: None,
                        });
                    }
                }
            }
        }
        anchors
    }

    /// Dynamic anchor placement (§IV-A): anchors are generated only where a
    /// guidance box admits them — the sliding-window positions whose center
    /// falls inside an (expanded) guidance box. Each anchor records which
    /// area admitted it, for downstream grouping in RoI pruning.
    ///
    /// Falls back to [`AnchorGrid::full_frame`] when guidance is empty.
    pub fn guided(&self, guidance: &Guidance, margin: f64) -> Vec<Anchor> {
        if guidance.is_empty() {
            return self.full_frame();
        }
        let expanded: Vec<BBox> = guidance
            .boxes
            .iter()
            .map(|g| {
                g.bbox
                    .expanded(margin, self.width as f64, self.height as f64)
            })
            .collect();

        let mut anchors = Vec::new();
        for (level, stride, dims) in self.levels() {
            for gy in 0..self.height.div_ceil(stride) {
                for gx in 0..self.width.div_ceil(stride) {
                    let cx = (gx * stride) as f64 + stride as f64 / 2.0;
                    let cy = (gy * stride) as f64 + stride as f64 / 2.0;
                    let Some(area) = expanded.iter().position(|b| b.contains(cx, cy)) else {
                        continue;
                    };
                    // Area id is only meaningful for known-class boxes.
                    let area_id = guidance.boxes[area].class_id.map(|_| area);
                    for &(w, h) in &dims {
                        anchors.push(Anchor {
                            bbox: BBox::from_center(cx, cy, w, h),
                            level,
                            area_id,
                        });
                    }
                }
            }
        }
        anchors
    }

    /// Each pyramid level's index, stride and anchor `(width, height)`
    /// per aspect ratio, `size·√ar` by `size/√ar`, computed once per
    /// level rather than once per grid position.
    fn levels(&self) -> impl Iterator<Item = (usize, u32, Vec<(f64, f64)>)> + '_ {
        let config = &self.config;
        config
            .strides
            .iter()
            .zip(&config.sizes)
            .enumerate()
            .map(|(level, (&stride, &size))| {
                let dims = config
                    .aspect_ratios
                    .iter()
                    .map(|ar| (size * ar.sqrt(), size / ar.sqrt()))
                    .collect();
                (level, stride, dims)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> AnchorGrid {
        AnchorGrid::new(FpnConfig::default(), 320, 240)
    }

    #[test]
    fn full_frame_count_matches_formula() {
        let g = grid();
        let anchors = g.full_frame();
        assert_eq!(anchors.len(), g.config().full_frame_anchor_count(320, 240));
        // 320x240: P2 80*60*3 = 14400 dominates.
        assert!(anchors.len() > 14_000);
    }

    #[test]
    fn guided_is_much_smaller() {
        let g = grid();
        let guidance = Guidance {
            boxes: vec![GuidanceBox {
                bbox: BBox::new(100.0, 80.0, 160.0, 140.0),
                class_id: Some(2),
                instance: Some(1),
            }],
        };
        let guided = g.guided(&guidance, 16.0);
        let full = g.full_frame();
        assert!(
            guided.len() * 5 < full.len(),
            "guided {} vs full {}",
            guided.len(),
            full.len()
        );
        assert!(!guided.is_empty());
        // All admitted anchors carry the area id.
        assert!(guided.iter().all(|a| a.area_id == Some(0)));
    }

    #[test]
    fn empty_guidance_falls_back_to_full() {
        let g = grid();
        assert_eq!(
            g.guided(&Guidance::default(), 16.0).len(),
            g.full_frame().len()
        );
    }

    #[test]
    fn new_area_boxes_have_no_area_id() {
        let g = grid();
        let guidance = Guidance {
            boxes: vec![GuidanceBox {
                bbox: BBox::new(0.0, 0.0, 60.0, 60.0),
                class_id: None,
                instance: None,
            }],
        };
        let guided = g.guided(&guidance, 0.0);
        assert!(!guided.is_empty());
        assert!(guided.iter().all(|a| a.area_id.is_none()));
    }

    #[test]
    fn anchors_cover_all_levels() {
        let anchors = grid().full_frame();
        let mut levels: Vec<usize> = anchors.iter().map(|a| a.level).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn known_areas_filter() {
        let guidance = Guidance {
            boxes: vec![
                GuidanceBox {
                    bbox: BBox::new(0.0, 0.0, 10.0, 10.0),
                    class_id: Some(1),
                    instance: Some(3),
                },
                GuidanceBox {
                    bbox: BBox::new(20.0, 20.0, 30.0, 30.0),
                    class_id: None,
                    instance: None,
                },
            ],
        };
        assert_eq!(guidance.known_areas(), vec![0]);
    }
}
