//! The labeled 3-D map ("mask-assisted mapping", §III-A).

use edgeis_geometry::Vec3;
use edgeis_imaging::Descriptor;

/// A triangulated 3-D point with its semantic annotation.
///
/// Positions live in the map frame — the world frame fixed at
/// initialization. Points on a moving object keep their *initial*
/// coordinates; the object's rigid motion is tracked separately as a pose
/// ([`crate::TrackedObject`]), exactly as §III-B prescribes.
#[derive(Debug, Clone, PartialEq)]
pub struct MapPoint {
    /// Unique id.
    pub id: usize,
    /// Position in the map frame.
    pub position: Vec3,
    /// Instance label: 0 = background, otherwise the object instance id.
    pub label: u16,
    /// Representative ORB descriptor (from the first observation).
    pub descriptor: Descriptor,
    /// Frame id of the most recent successful match.
    pub last_seen: u64,
    /// Number of frames that matched this point.
    pub observations: u32,
    /// Whether an edge annotation has ever covered this point. Unannotated
    /// points mark newly observed content — the yellow points of Fig. 8b
    /// that drive the §V transmission trigger.
    pub annotated: bool,
}

/// The point map with label-aware queries and the paper's periodic
/// "clearing algorithm" (§VI-F: low-utilization data is dropped to keep
/// memory bounded).
#[derive(Debug, Clone, Default)]
pub struct Map {
    points: Vec<MapPoint>,
    next_id: usize,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the map has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points.
    pub fn points(&self) -> &[MapPoint] {
        &self.points
    }

    /// Point by index (not id).
    pub fn point(&self, idx: usize) -> &MapPoint {
        &self.points[idx]
    }

    /// Adds a point, returning its id. `annotated` records whether the
    /// point's label comes from an edge annotation (true) or is a default
    /// (newly observed content, false).
    pub fn add_point_with_annotation(
        &mut self,
        position: Vec3,
        label: u16,
        descriptor: Descriptor,
        frame_id: u64,
        annotated: bool,
    ) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.points.push(MapPoint {
            id,
            position,
            label,
            descriptor,
            last_seen: frame_id,
            observations: 1,
            annotated,
        });
        id
    }

    /// Adds an annotated point, returning its id.
    pub fn add_point(
        &mut self,
        position: Vec3,
        label: u16,
        descriptor: Descriptor,
        frame_id: u64,
    ) -> usize {
        self.add_point_with_annotation(position, label, descriptor, frame_id, true)
    }

    /// Descriptor list aligned with point indices, for brute-force matching.
    pub fn descriptors(&self) -> Vec<Descriptor> {
        self.points.iter().map(|p| p.descriptor).collect()
    }

    /// Current index of the point with a given id.
    ///
    /// Indices shift when [`Map::cleanup`] removes points; ids are stable,
    /// so long-lived references (frame match records, object membership)
    /// store ids and resolve them through this method.
    pub fn index_of(&self, id: usize) -> Option<usize> {
        self.points.binary_search_by_key(&id, |p| p.id).ok()
    }

    /// Point by stable id.
    pub fn get_by_id(&self, id: usize) -> Option<&MapPoint> {
        self.index_of(id).map(|i| &self.points[i])
    }

    /// Ids of points with a given label.
    pub fn ids_with_label(&self, label: u16) -> Vec<usize> {
        self.points
            .iter()
            .filter(|p| p.label == label)
            .map(|p| p.id)
            .collect()
    }

    /// Distinct non-background labels present in the map.
    pub fn labels(&self) -> Vec<u16> {
        let mut labels: Vec<u16> = self
            .points
            .iter()
            .map(|p| p.label)
            .filter(|&l| l != 0)
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Marks a point as observed in `frame_id`.
    pub fn record_observation(&mut self, idx: usize, frame_id: u64) {
        let p = &mut self.points[idx];
        p.last_seen = p.last_seen.max(frame_id);
        p.observations += 1;
    }

    /// Re-labels a point (e.g. when an edge mask first covers it) and
    /// marks it annotated.
    pub fn set_label(&mut self, idx: usize, label: u16) {
        self.points[idx].label = label;
        self.points[idx].annotated = true;
    }

    /// The clearing algorithm: if the map exceeds `max_points`, drop the
    /// least-recently-observed points down to the limit. Returns how many
    /// points were removed.
    pub fn cleanup(&mut self, max_points: usize) -> usize {
        if self.points.len() <= max_points {
            return 0;
        }
        let excess = self.points.len() - max_points;
        // Sort by (last_seen, observations) ascending and drop the head,
        // then restore the sorted-by-id invariant that `index_of` needs.
        self.points.sort_by_key(|p| (p.last_seen, p.observations));
        self.points.drain(0..excess);
        self.points.sort_by_key(|p| p.id);
        excess
    }

    /// Approximate in-memory footprint in bytes (for the Fig. 15 resource
    /// accounting).
    pub fn memory_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<MapPoint>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(v: u64) -> Descriptor {
        Descriptor([v, v ^ 1, v ^ 2, v ^ 3])
    }

    #[test]
    fn add_and_query() {
        let mut map = Map::new();
        let a = map.add_point(Vec3::new(1.0, 0.0, 2.0), 0, desc(1), 0);
        let b = map.add_point(Vec3::new(0.0, 1.0, 3.0), 5, desc(2), 0);
        assert_ne!(a, b);
        assert_eq!(map.len(), 2);
        assert_eq!(map.labels(), vec![5]);
        assert_eq!(map.ids_with_label(5), vec![b]);
        assert_eq!(map.ids_with_label(0), vec![a]);
        assert_eq!(map.get_by_id(b).unwrap().label, 5);
    }

    #[test]
    fn ids_stable_across_cleanup() {
        let mut map = Map::new();
        let ids: Vec<usize> = (0..50u64)
            .map(|i| map.add_point(Vec3::ZERO, 0, desc(i), i))
            .collect();
        map.cleanup(20);
        // Survivors resolve to the same points; evicted ids return None.
        for &id in &ids[..30] {
            assert!(map.get_by_id(id).is_none());
        }
        for &id in &ids[30..] {
            assert_eq!(map.get_by_id(id).unwrap().id, id);
        }
    }

    #[test]
    fn observation_updates() {
        let mut map = Map::new();
        map.add_point(Vec3::ZERO, 0, desc(1), 0);
        map.record_observation(0, 7);
        assert_eq!(map.point(0).last_seen, 7);
        assert_eq!(map.point(0).observations, 2);
    }

    #[test]
    fn cleanup_drops_stale_points() {
        let mut map = Map::new();
        for i in 0..100u64 {
            map.add_point(Vec3::ZERO, 0, desc(i), i);
        }
        let removed = map.cleanup(40);
        assert_eq!(removed, 60);
        assert_eq!(map.len(), 40);
        // Survivors are the most recently seen.
        assert!(map.points().iter().all(|p| p.last_seen >= 60));
    }

    #[test]
    fn cleanup_noop_when_small() {
        let mut map = Map::new();
        map.add_point(Vec3::ZERO, 0, desc(1), 0);
        assert_eq!(map.cleanup(10), 0);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn relabeling() {
        let mut map = Map::new();
        map.add_point(Vec3::ZERO, 0, desc(1), 0);
        map.set_label(0, 3);
        assert_eq!(map.labels(), vec![3]);
    }

    #[test]
    fn memory_grows_with_points() {
        let mut map = Map::new();
        let m0 = map.memory_bytes();
        for i in 0..10 {
            map.add_point(Vec3::ZERO, 0, desc(i), 0);
        }
        assert!(map.memory_bytes() > m0);
    }
}
