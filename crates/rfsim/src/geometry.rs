//! Room geometry: segments, walls, and rectangular rooms.
//!
//! The paper's testbed is a 5 m × 5 m office. [`Room`] models it as four
//! [`Wall`]s (line segments with a material and an inward-facing normal);
//! the ray tracer mirrors transmitters across walls to enumerate specular
//! reflection paths.

use crate::material::Material;
use movr_math::Vec2;

/// Numerical slack for geometric predicates (metres).
pub const GEOM_EPS: f64 = 1e-9;

/// A directed line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Vec2,
    /// End point.
    pub b: Vec2,
}

impl Segment {
    /// Creates a segment from `a` to `b`.
    pub const fn new(a: Vec2, b: Vec2) -> Self {
        Segment { a, b }
    }

    /// Segment length in metres.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Direction from `a` to `b` (unit vector; zero for a degenerate
    /// segment).
    pub fn direction(&self) -> Vec2 {
        (self.b - self.a).normalized()
    }

    /// The point at parameter `t ∈ [0,1]` along the segment.
    pub fn point_at(&self, t: f64) -> Vec2 {
        self.a.lerp(self.b, t)
    }

    /// Intersection with another segment, as the parameter `t` along
    /// `self` and `u` along `other`, both strictly inside `(ε, 1−ε)`.
    ///
    /// Endpoint grazes are excluded on purpose: a reflection path's bounce
    /// point coincides with the wall it bounces off, and must not be
    /// reported as the wall "occluding" the path.
    pub fn intersect_interior(&self, other: &Segment) -> Option<(f64, f64)> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        if denom.abs() < GEOM_EPS {
            return None; // parallel or degenerate
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let lo = 1e-6;
        let hi = 1.0 - 1e-6;
        if t > lo && t < hi && u > lo && u < hi {
            Some((t, u))
        } else {
            None
        }
    }

    /// Shortest distance from a point to this segment, and the parameter
    /// `t ∈ [0,1]` of the closest point.
    pub fn distance_to_point(&self, p: Vec2) -> (f64, f64) {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq < GEOM_EPS * GEOM_EPS {
            return (self.a.distance(p), 0.0);
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        (self.point_at(t).distance(p), t)
    }
}

/// A wall: a segment, its material, and the inward normal of the room.
#[derive(Debug, Clone, Copy)]
pub struct Wall {
    /// The wall span in room coordinates.
    pub segment: Segment,
    /// What the wall is made of (sets reflection/penetration loss).
    pub material: Material,
    /// Unit normal pointing into the room (the side rays arrive from).
    pub normal: Vec2,
}

impl Wall {
    /// Creates a wall; the normal is normalised defensively.
    pub fn new(segment: Segment, material: Material, normal: Vec2) -> Self {
        Wall {
            segment,
            material,
            normal: normal.normalized(),
        }
    }

    /// Mirrors a point across the (infinite) line carrying this wall — the
    /// image-method primitive for specular reflection paths.
    pub fn mirror_point(&self, p: Vec2) -> Vec2 {
        let a = self.segment.a;
        let d = self.segment.direction();
        let ap = p - a;
        let along = d * ap.dot(d);
        let across = ap - along;
        a + along - across
    }
}

/// A free-standing reflective panel inside the room: a whiteboard, a
/// metal cabinet side, a bookshelf face. Unlike a [`Wall`] it is
/// two-sided — rays can bounce off either face — and it also *occludes*
/// paths that cross it (by its material's penetration loss).
#[derive(Debug, Clone, Copy)]
pub struct Surface {
    /// The panel span in room coordinates.
    pub segment: Segment,
    /// What the panel is made of (sets reflection/penetration loss).
    pub material: Material,
}

impl Surface {
    /// Creates a panel.
    pub fn new(segment: Segment, material: Material) -> Self {
        Surface { segment, material }
    }

    /// Mirrors a point across the panel's carrying line (image method).
    pub fn mirror_point(&self, p: Vec2) -> Vec2 {
        let a = self.segment.a;
        let d = self.segment.direction();
        let ap = p - a;
        let along = d * ap.dot(d);
        let across = ap - along;
        a + along - across
    }
}

/// A room bounded by a simple polygon of material walls (CCW vertex
/// order), optionally furnished with interior reflective [`Surface`]s.
/// Rectangular rooms are the common case; non-convex shapes (an L-shaped
/// studio) are supported — the ray tracer discards paths whose legs
/// would pass through a wall.
#[derive(Debug, Clone)]
pub struct Room {
    vertices: Vec<Vec2>,
    width: f64,
    depth: f64,
    convex: bool,
    walls: Vec<Wall>,
    surfaces: Vec<Surface>,
}

impl Room {
    /// Creates a `width × depth` room with all four walls of one material.
    ///
    /// # Panics
    /// Panics if either dimension is not strictly positive.
    pub fn rectangular(width: f64, depth: f64, material: Material) -> Self {
        Room::with_wall_materials(width, depth, [material; 4])
    }

    /// Creates a room with per-wall materials, ordered
    /// `[south (y=0), east (x=width), north (y=depth), west (x=0)]`.
    pub fn with_wall_materials(width: f64, depth: f64, materials: [Material; 4]) -> Self {
        assert!( // constructor contract on scene-geometry constants
            width > 0.0 && depth > 0.0,
            "room dimensions must be positive"
        );
        let vertices = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(width, 0.0),
            Vec2::new(width, depth),
            Vec2::new(0.0, depth),
        ];
        Room::polygon_with_materials(vertices, &materials)
    }

    /// A room bounded by an arbitrary simple polygon given in
    /// counter-clockwise order, all walls of one material.
    ///
    /// # Panics
    /// Panics with fewer than 3 vertices or clockwise/degenerate winding.
    pub fn polygon(vertices: Vec<Vec2>, material: Material) -> Self {
        let n = vertices.len();
        Room::polygon_with_materials(vertices, &vec![material; n])
    }

    /// Polygon room with one material per wall (wall `i` runs from
    /// vertex `i` to vertex `i+1`).
    pub fn polygon_with_materials(vertices: Vec<Vec2>, materials: &[Material]) -> Self {
        assert!(vertices.len() >= 3, "a room needs at least 3 vertices"); // documented constructor contract on scene geometry
        assert_eq!( // documented constructor contract on scene geometry
            materials.len(),
            vertices.len(),
            "one material per wall required"
        );
        // Signed area (shoelace): positive = counter-clockwise.
        let mut area2 = 0.0;
        for i in 0..vertices.len() {
            let a = vertices[i]; // i ranges over 0..vertices.len()
            let b = vertices[(i + 1) % vertices.len()]; // index reduced mod vertices.len()
            area2 += a.cross(b);
        }
        assert!( // documented constructor contract — winding is fixed at scene-definition time
            area2 > GEOM_EPS,
            "vertices must wind counter-clockwise around a positive area"
        );

        let mut walls = Vec::with_capacity(vertices.len());
        let mut convex = true;
        for i in 0..vertices.len() {
            let a = vertices[i]; // i ranges over 0..vertices.len()
            let b = vertices[(i + 1) % vertices.len()]; // index reduced mod vertices.len()
            let c = vertices[(i + 2) % vertices.len()]; // index reduced mod vertices.len()
            let seg = Segment::new(a, b);
            // CCW winding puts the interior on the left of each edge.
            let normal = seg.direction().perp();
            walls.push(Wall::new(seg, materials[i], normal)); // materials.len() == vertices.len() is asserted above
            if (b - a).cross(c - b) < -GEOM_EPS {
                convex = false;
            }
        }
        let width = vertices.iter().map(|v| v.x).fold(f64::NEG_INFINITY, f64::max);
        let depth = vertices.iter().map(|v| v.y).fold(f64::NEG_INFINITY, f64::max);
        Room {
            vertices,
            width,
            depth,
            convex,
            walls,
            surfaces: Vec::new(),
        }
    }

    /// An L-shaped studio: the 5 m × 5 m office with a 2 m × 2 m corner
    /// bitten out of the north-east — a non-convex room where some
    /// point pairs have no line of sight at all.
    pub fn l_shaped_studio() -> Self {
        Room::polygon(
            vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(5.0, 0.0),
                Vec2::new(5.0, 3.0),
                Vec2::new(3.0, 3.0),
                Vec2::new(3.0, 5.0),
                Vec2::new(0.0, 5.0),
            ],
            Material::Drywall,
        )
    }

    /// The paper's 5 m × 5 m drywall office (bare walls).
    pub fn paper_office() -> Self {
        Room::rectangular(5.0, 5.0, Material::Drywall)
    }

    /// The paper's office "with standard furniture": a metal whiteboard
    /// on the north wall, a wooden bookshelf along the south wall, and a
    /// metal cabinet side near the south-west. The metal faces are the
    /// good reflectors a real office offers NLOS beam-switching schemes —
    /// placed on walls a player facing the (west-wall) AP can actually
    /// beamform toward.
    pub fn furnished_office() -> Self {
        let mut room = Room::paper_office();
        room.add_surface(Surface::new(
            Segment::new(Vec2::new(1.5, 4.9), Vec2::new(3.2, 4.9)),
            Material::Metal,
        ));
        room.add_surface(Surface::new(
            Segment::new(Vec2::new(1.5, 0.15), Vec2::new(3.0, 0.15)),
            Material::Wood,
        ));
        room.add_surface(Surface::new(
            Segment::new(Vec2::new(0.15, 1.0), Vec2::new(0.8, 0.6)),
            Material::Metal,
        ));
        room
    }

    /// Adds an interior reflective panel.
    pub fn add_surface(&mut self, surface: Surface) {
        self.surfaces.push(surface);
    }

    /// The interior panels.
    pub fn surfaces(&self) -> &[Surface] {
        &self.surfaces
    }

    /// Bounding-box width (max x extent) in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Bounding-box depth (max y extent) in metres.
    pub fn depth(&self) -> f64 {
        self.depth
    }

    /// The boundary walls, one per polygon edge.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// The boundary vertices (CCW).
    pub fn vertices(&self) -> &[Vec2] {
        &self.vertices
    }

    /// True if the room is convex (every interior segment then stays
    /// clear of the walls automatically).
    pub fn is_convex(&self) -> bool {
        self.convex
    }

    /// True if `p` lies strictly inside the room (even-odd ray cast,
    /// with points on or within [`GEOM_EPS`]-ish of a wall excluded).
    pub fn contains(&self, p: Vec2) -> bool {
        // Exclude the boundary band first.
        for w in &self.walls {
            if w.segment.distance_to_point(p).0 <= GEOM_EPS {
                return false;
            }
        }
        // Even-odd crossing count with a horizontal ray toward +x.
        let mut inside = false;
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i]; // i ranges over 0..vertices.len()
            let b = self.vertices[(i + 1) % n]; // index reduced mod vertices.len()
            let crosses = (a.y > p.y) != (b.y > p.y);
            if crosses {
                let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if x_at > p.x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// The polygon centroid (vertex average — adequate for nudging
    /// points inward).
    pub fn centroid(&self) -> Vec2 {
        let sum = self
            .vertices
            .iter()
            .fold(Vec2::ZERO, |acc, &v| acc + v);
        sum / movr_math::convert::usize_to_f64(self.vertices.len())
    }

    /// Clamps a point to lie inside the room with at least `margin` to
    /// every wall. For points outside (or too close to a wall) the point
    /// is pulled toward the centroid until it qualifies.
    pub fn clamp_inside(&self, p: Vec2, margin: f64) -> Vec2 {
        let ok = |q: Vec2| {
            self.contains(q)
                && self
                    .walls
                    .iter()
                    .all(|w| w.segment.distance_to_point(q).0 >= margin)
        };
        if ok(p) {
            return p;
        }
        let centre = self.centroid();
        // Walk toward the centroid; the centroid region of any sane room
        // satisfies the margin, so the walk terminates.
        let mut t = 0.05;
        while t < 1.0 {
            let q = p.lerp(centre, t);
            if ok(q) {
                return q;
            }
            t += 0.05;
        }
        centre
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn segment_basics() {
        let s = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(3.0, 4.0));
        assert!(close(s.length(), 5.0));
        assert!(close(s.direction().norm(), 1.0));
        assert_eq!(s.point_at(0.5), Vec2::new(1.5, 2.0));
    }

    #[test]
    fn crossing_segments_intersect() {
        let a = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 2.0));
        let b = Segment::new(Vec2::new(0.0, 2.0), Vec2::new(2.0, 0.0));
        let (t, u) = a.intersect_interior(&b).expect("must cross");
        assert!(close(t, 0.5));
        assert!(close(u, 0.5));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let a = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let b = Segment::new(Vec2::new(0.0, 1.0), Vec2::new(1.0, 1.0));
        assert!(a.intersect_interior(&b).is_none());
    }

    #[test]
    fn endpoint_graze_is_not_an_intersection() {
        // `b` starts exactly on `a`'s endpoint: must not count, else a
        // reflection path would be occluded by its own bounce wall.
        let a = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let b = Segment::new(Vec2::new(1.0, 0.0), Vec2::new(1.0, 1.0));
        assert!(a.intersect_interior(&b).is_none());
    }

    #[test]
    fn disjoint_segments() {
        let a = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let b = Segment::new(Vec2::new(2.0, -1.0), Vec2::new(2.0, 1.0));
        assert!(a.intersect_interior(&b).is_none());
    }

    #[test]
    fn point_segment_distance() {
        let s = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0));
        let (d, t) = s.distance_to_point(Vec2::new(1.0, 1.0));
        assert!(close(d, 1.0));
        assert!(close(t, 0.5));
        // Beyond the endpoint the distance is to the endpoint.
        let (d2, t2) = s.distance_to_point(Vec2::new(3.0, 0.0));
        assert!(close(d2, 1.0));
        assert!(close(t2, 1.0));
    }

    #[test]
    fn degenerate_segment_distance() {
        let s = Segment::new(Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0));
        let (d, t) = s.distance_to_point(Vec2::new(4.0, 5.0));
        assert!(close(d, 5.0));
        assert_eq!(t, 0.0);
    }

    #[test]
    fn mirror_across_south_wall() {
        let room = Room::paper_office();
        let south = &room.walls()[0];
        let p = Vec2::new(2.0, 1.5);
        let m = south.mirror_point(p);
        assert!(close(m.x, 2.0));
        assert!(close(m.y, -1.5));
        // Mirroring twice returns the original point.
        let back = south.mirror_point(m);
        assert!(close(back.x, p.x) && close(back.y, p.y));
    }

    #[test]
    fn mirror_across_east_wall() {
        let room = Room::paper_office();
        let east = &room.walls()[1];
        let m = east.mirror_point(Vec2::new(4.0, 2.0));
        assert!(close(m.x, 6.0));
        assert!(close(m.y, 2.0));
    }

    #[test]
    fn room_contains() {
        let room = Room::paper_office();
        assert!(room.contains(Vec2::new(2.5, 2.5)));
        assert!(!room.contains(Vec2::new(-0.1, 2.5)));
        assert!(!room.contains(Vec2::new(2.5, 5.1)));
        assert!(!room.contains(Vec2::new(5.0, 2.5))); // on the wall
    }

    #[test]
    fn room_clamp() {
        let room = Room::paper_office();
        // Inside with margin: unchanged.
        let q = Vec2::new(2.0, 2.0);
        assert_eq!(room.clamp_inside(q, 0.25), q);
        // Outside: pulled to an interior point respecting the margin.
        let p = room.clamp_inside(Vec2::new(-3.0, 9.0), 0.25);
        assert!(room.contains(p));
        for w in room.walls() {
            assert!(w.segment.distance_to_point(p).0 >= 0.25);
        }
    }

    #[test]
    fn polygon_room_ccw_required() {
        let cw = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.0, 5.0),
            Vec2::new(5.0, 5.0),
            Vec2::new(5.0, 0.0),
        ];
        let r = std::panic::catch_unwind(|| Room::polygon(cw, Material::Drywall));
        assert!(r.is_err(), "clockwise winding must be rejected");
    }

    #[test]
    fn l_shaped_room_geometry() {
        let room = Room::l_shaped_studio();
        assert!(!room.is_convex());
        assert_eq!(room.walls().len(), 6);
        // Inside the main body and inside the leg.
        assert!(room.contains(Vec2::new(1.0, 4.0)));
        assert!(room.contains(Vec2::new(4.0, 1.0)));
        // Inside the bitten-out corner: outside the room.
        assert!(!room.contains(Vec2::new(4.0, 4.0)));
        // The rectangle test points still behave.
        assert!(room.contains(Vec2::new(2.0, 2.0)));
        assert!(!room.contains(Vec2::new(-0.1, 2.5)));
    }

    #[test]
    fn l_shaped_normals_point_inward() {
        let room = Room::l_shaped_studio();
        for wall in room.walls() {
            let mid = wall.segment.point_at(0.5);
            let stepped = mid + wall.normal * 0.05;
            assert!(
                room.contains(stepped),
                "normal at {mid} must step into the interior"
            );
        }
    }

    #[test]
    fn l_shaped_clamp_respects_the_notch() {
        let room = Room::l_shaped_studio();
        // A point in the notch gets pulled into the room.
        let p = room.clamp_inside(Vec2::new(4.5, 4.5), 0.3);
        assert!(room.contains(p));
        for w in room.walls() {
            assert!(w.segment.distance_to_point(p).0 >= 0.3);
        }
    }

    #[test]
    fn walls_normals_point_inward() {
        let room = Room::paper_office();
        let centre = Vec2::new(2.5, 2.5);
        for wall in room.walls() {
            let mid = wall.segment.point_at(0.5);
            // Moving from the wall along the normal gets closer to centre.
            let stepped = mid + wall.normal * 0.1;
            assert!(stepped.distance(centre) < mid.distance(centre));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_room_rejected() {
        Room::rectangular(0.0, 5.0, Material::Drywall);
    }
}
