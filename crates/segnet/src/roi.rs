//! Boxes, RoIs, NMS variants and the paper's RoI pruning rule (§IV-B).

/// An axis-aligned box in pixel coordinates, `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x0: f64,
    /// Top edge.
    pub y0: f64,
    /// Right edge (exclusive).
    pub x1: f64,
    /// Bottom edge (exclusive).
    pub y1: f64,
}

impl BBox {
    /// Creates a box from corners; callers guarantee `x0 <= x1`, `y0 <= y1`.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        debug_assert!(x0 <= x1 && y0 <= y1, "degenerate box");
        Self { x0, y0, x1, y1 }
    }

    /// A box from center and size.
    pub fn from_center(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        Self::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
    }

    /// Box area.
    pub fn area(&self) -> f64 {
        (self.x1 - self.x0).max(0.0) * (self.y1 - self.y0).max(0.0)
    }

    /// Box center.
    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BBox) -> f64 {
        let ix0 = self.x0.max(other.x0);
        let iy0 = self.y0.max(other.y0);
        let ix1 = self.x1.min(other.x1);
        let iy1 = self.y1.min(other.y1);
        let inter = (ix1 - ix0).max(0.0) * (iy1 - iy0).max(0.0);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Whether a point lies inside the box.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// The smallest box containing both.
    pub fn union_box(&self, other: &BBox) -> BBox {
        BBox::new(
            self.x0.min(other.x0),
            self.y0.min(other.y0),
            self.x1.max(other.x1),
            self.y1.max(other.y1),
        )
    }

    /// Expands the box by `margin` on every side, clamped to the frame.
    pub fn expanded(&self, margin: f64, width: f64, height: f64) -> BBox {
        BBox::new(
            (self.x0 - margin).max(0.0),
            (self.y0 - margin).max(0.0),
            (self.x1 + margin).min(width),
            (self.y1 + margin).min(height),
        )
    }
}

/// A region of interest produced by the RPN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roi {
    /// Proposed box.
    pub bbox: BBox,
    /// Objectness / class confidence in `[0, 1]`.
    pub score: f64,
    /// The guidance area this RoI came from (`None` = unknown content).
    pub area_id: Option<usize>,
}

/// Classical greedy NMS: keep the highest-scored box, suppress overlaps
/// above `iou_threshold`, repeat.
pub fn greedy_nms(mut rois: Vec<Roi>, iou_threshold: f64) -> Vec<Roi> {
    rois.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<Roi> = Vec::new();
    'cand: for roi in rois {
        for k in &kept {
            if k.bbox.iou(&roi.bbox) > iou_threshold {
                continue 'cand;
            }
        }
        kept.push(roi);
    }
    kept
}

/// Fast NMS (YOLACT): a box is suppressed if *any* higher-scored box
/// overlaps it above the threshold — including boxes that were themselves
/// suppressed. Slightly over-suppresses but needs only one triangular
/// IoU pass; the paper applies it to RoIs from unknown areas.
pub fn fast_nms(mut rois: Vec<Roi>, iou_threshold: f64) -> Vec<Roi> {
    rois.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // The triangular pass: j is suppressed iff any i < j overlaps it.
    let suppressed: Vec<bool> = (0..rois.len())
        .map(|j| (0..j).any(|i| rois[i].bbox.iou(&rois[j].bbox) > iou_threshold))
        .collect();
    rois.into_iter()
        .zip(suppressed)
        .filter(|(_, s)| !*s)
        .map(|(r, _)| r)
        .collect()
}

/// The paper's RoI pruning (§IV-B, Fig. 7): within a guidance area whose
/// object class and initial box are known, an RoI is pruned when another
/// RoI in the same area has **both** a higher confidence score **and** a
/// higher IoU with the initial box. RoIs from unknown areas are left for
/// Fast NMS.
///
/// Returns `(survivors, pruned_count)`.
pub fn prune_rois(rois: Vec<Roi>, initial_boxes: &[BBox]) -> (Vec<Roi>, usize) {
    let mut survivors = Vec::with_capacity(rois.len());
    let mut pruned = 0usize;

    // Group indices by area.
    let mut by_area: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    let mut unknown: Vec<usize> = Vec::new();
    for (i, r) in rois.iter().enumerate() {
        match r.area_id {
            Some(a) if a < initial_boxes.len() => by_area.entry(a).or_default().push(i),
            _ => unknown.push(i),
        }
    }

    for (area, indices) in by_area {
        let init = &initial_boxes[area];
        // Precompute (score, iou-with-initial-box).
        let scored: Vec<(usize, f64, f64)> = indices
            .iter()
            .map(|&i| (i, rois[i].score, rois[i].bbox.iou(init)))
            .collect();
        for &(i, s, q) in &scored {
            let dominated = scored.iter().any(|&(j, s2, q2)| j != i && s2 > s && q2 > q);
            if dominated {
                pruned += 1;
            } else {
                survivors.push(rois[i]);
            }
        }
    }
    for i in unknown {
        survivors.push(rois[i]);
    }
    (survivors, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roi(x: f64, y: f64, w: f64, h: f64, score: f64, area: Option<usize>) -> Roi {
        Roi {
            bbox: BBox::new(x, y, x + w, y + h),
            score,
            area_id: area,
        }
    }

    #[test]
    fn bbox_iou_basics() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.iou(&a), 1.0);
        let b = BBox::new(10.0, 10.0, 20.0, 20.0);
        assert_eq!(a.iou(&b), 0.0);
        let c = BBox::new(5.0, 0.0, 15.0, 10.0);
        assert!((a.iou(&c) - 50.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn bbox_expand_clamps() {
        let a = BBox::new(2.0, 2.0, 8.0, 8.0);
        let e = a.expanded(5.0, 10.0, 10.0);
        assert_eq!((e.x0, e.y0, e.x1, e.y1), (0.0, 0.0, 10.0, 10.0));
    }

    #[test]
    fn greedy_nms_keeps_best_of_cluster() {
        let rois = vec![
            roi(0.0, 0.0, 10.0, 10.0, 0.9, None),
            roi(1.0, 1.0, 10.0, 10.0, 0.8, None),
            roi(0.5, 0.0, 10.0, 10.0, 0.7, None),
            roi(50.0, 50.0, 10.0, 10.0, 0.6, None),
        ];
        let kept = greedy_nms(rois, 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert_eq!(kept[1].score, 0.6);
    }

    #[test]
    fn fast_nms_over_suppresses_chains() {
        // A chain a-b-c where a overlaps b, b overlaps c, but a does not
        // overlap c: greedy keeps {a, c}; fast keeps {a} only if b's
        // suppression still suppresses c — YOLACT semantics keep b
        // suppressing c.
        let a = roi(0.0, 0.0, 10.0, 10.0, 0.9, None);
        let b = roi(6.0, 0.0, 10.0, 10.0, 0.8, None);
        let c = roi(12.0, 0.0, 10.0, 10.0, 0.7, None);
        let greedy = greedy_nms(vec![a, b, c], 0.2);
        let fast = fast_nms(vec![a, b, c], 0.2);
        assert_eq!(greedy.len(), 2);
        assert_eq!(fast.len(), 1, "fast NMS suppresses the chain");
    }

    #[test]
    fn fast_nms_equal_on_disjoint() {
        let rois = vec![
            roi(0.0, 0.0, 5.0, 5.0, 0.9, None),
            roi(20.0, 20.0, 5.0, 5.0, 0.8, None),
        ];
        assert_eq!(fast_nms(rois.clone(), 0.5).len(), 2);
        assert_eq!(greedy_nms(rois, 0.5).len(), 2);
    }

    #[test]
    fn prune_dominated_roi() {
        let init = BBox::new(0.0, 0.0, 10.0, 10.0);
        let rois = vec![
            roi(0.0, 0.0, 10.0, 10.0, 0.9, Some(0)), // dominant
            roi(3.0, 3.0, 10.0, 10.0, 0.5, Some(0)), // worse score AND iou
        ];
        let (kept, pruned) = prune_rois(rois, &[init]);
        assert_eq!(pruned, 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn no_prune_without_joint_dominance() {
        let init = BBox::new(0.0, 0.0, 10.0, 10.0);
        let rois = vec![
            // Higher score but lower IoU with the initial box...
            roi(4.0, 4.0, 10.0, 10.0, 0.9, Some(0)),
            // ...vs lower score but higher IoU: neither dominates.
            roi(0.0, 0.0, 10.0, 10.0, 0.5, Some(0)),
        ];
        let (kept, pruned) = prune_rois(rois, &[init]);
        assert_eq!(pruned, 0);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn unknown_area_rois_pass_through() {
        let rois = vec![roi(0.0, 0.0, 5.0, 5.0, 0.4, None)];
        let (kept, pruned) = prune_rois(rois, &[]);
        assert_eq!(pruned, 0);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn prune_is_per_area() {
        let boxes = [
            BBox::new(0.0, 0.0, 10.0, 10.0),
            BBox::new(50.0, 50.0, 60.0, 60.0),
        ];
        let rois = vec![
            roi(0.0, 0.0, 10.0, 10.0, 0.9, Some(0)),
            // In area 1: lower score and lower IoU than the area-0 winner,
            // but no competitor in its own area, so it survives.
            roi(50.0, 50.0, 9.0, 9.0, 0.3, Some(1)),
        ];
        let (kept, pruned) = prune_rois(rois, &boxes);
        assert_eq!(pruned, 0);
        assert_eq!(kept.len(), 2);
    }
}
