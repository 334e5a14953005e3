//! Specular path tracing with the image method.
//!
//! In a convex room the multipath structure at mmWave is dominated by the
//! line of sight plus a handful of low-order specular wall bounces —
//! everything else is tens of dB down. The tracer enumerates:
//!
//! * the LOS path,
//! * every first-order path (TX → wall → RX), by mirroring the TX across
//!   each wall and intersecting the image ray with the wall segment,
//! * every second-order path (TX → wall A → wall B → RX), by mirroring
//!   twice, for distinct wall pairs.
//!
//! Each returned [`Path`] carries its geometry (vertices, departure and
//! arrival bearings) and its loss budget excluding antenna gains and FSPL:
//! the sum of per-bounce reflection losses and per-segment obstacle
//! shadowing. Higher layers add Friis loss and antenna gains.
//!
//! A trace has two halves. The *candidates* are fixed by the endpoints
//! and the room: every chain's vertices, length, bearings, reflection
//! loss and interior-panel penetration, less the chains that cross a wall
//! (`candidate_paths`). *Shading* is set by the obstacles: it sums
//! each segment's shadow loss and admits the paths under the excess-loss
//! cap (`Candidate::shade`). [`trace_paths`] composes the two, and a
//! [`LinkMemo`](crate::LinkMemo) keeps the candidates while only
//! obstacles move.

use crate::geometry::{Room, Segment, Surface, Wall};
use crate::obstacle::{total_shadow_loss_db, Obstacle};
use movr_math::Vec2;

/// How a path got from TX to RX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Direct line of sight.
    LineOfSight,
    /// Specular reflection path with the given bounce count (1 or 2).
    Reflected {
        /// Number of specular bounces along the path.
        order: usize,
    },
}

/// The maximum number of vertices a traced path can have: TX, up to two
/// bounces, RX.
pub const MAX_PATH_VERTICES: usize = 4;

/// A path's vertex chain, stored inline (no heap allocation) since the
/// tracer emits at most [`MAX_PATH_VERTICES`] points per path. Derefs to
/// `&[Vec2]`, so slice methods (`len`, `windows`, indexing, iteration)
/// work unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertices {
    buf: [Vec2; MAX_PATH_VERTICES],
    len: u8,
}

impl Vertices {
    /// The vertices as a slice, `[tx, bounce…, rx]`.
    pub fn as_slice(&self) -> &[Vec2] {
        &self.buf[..usize::from(self.len)] // len <= MAX_PATH_VERTICES by construction of every Vertices value
    }
}

impl std::ops::Deref for Vertices {
    type Target = [Vec2];

    fn deref(&self) -> &[Vec2] {
        self.as_slice()
    }
}

impl From<[Vec2; 2]> for Vertices {
    fn from(v: [Vec2; 2]) -> Self {
        Vertices {
            buf: [v[0], v[1], Vec2::ZERO, Vec2::ZERO], // literal indices into a [Vec2; 2] parameter
            len: 2,
        }
    }
}

impl From<[Vec2; 3]> for Vertices {
    fn from(v: [Vec2; 3]) -> Self {
        Vertices {
            buf: [v[0], v[1], v[2], Vec2::ZERO], // literal indices into a [Vec2; 3] parameter
            len: 3,
        }
    }
}

impl From<[Vec2; 4]> for Vertices {
    fn from(v: [Vec2; 4]) -> Self {
        Vertices { buf: v, len: 4 }
    }
}

impl<'a> IntoIterator for &'a Vertices {
    type Item = &'a Vec2;
    type IntoIter = std::slice::Iter<'a, Vec2>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One propagation path between a transmitter and a receiver.
///
/// `PartialEq` is exact (bitwise on every float field) — equality means
/// "the very same traced path", which is what cache-consistency checks
/// need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Whether this is the LoS path or a reflection (and its order).
    pub kind: PathKind,
    /// Geometry: `[tx, bounce…, rx]`.
    pub vertices: Vertices,
    /// Total geometric length, metres.
    pub length_m: f64,
    /// Bearing (degrees) of the first segment leaving the TX — where the
    /// TX must point its beam to launch energy onto this path.
    pub departure_deg: f64,
    /// Bearing (degrees) from the RX toward the last bounce (or the TX for
    /// LOS) — where the RX must point its beam to collect this path.
    pub arrival_deg: f64,
    /// Sum of per-bounce reflection losses, dB.
    pub reflection_loss_db: f64,
    /// Sum of obstacle shadowing losses over all segments, dB.
    pub shadow_loss_db: f64,
}

impl Path {
    /// Combined excess loss of the path (reflection + shadowing), dB.
    /// FSPL and antenna gains are *not* included.
    pub fn excess_loss_db(&self) -> f64 {
        self.reflection_loss_db + self.shadow_loss_db
    }
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Maximum reflection order to enumerate (0 = LOS only, max 2).
    pub max_order: usize,
    /// Paths with more excess loss than this are discarded early.
    pub max_excess_loss_db: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            max_order: 2,
            max_excess_loss_db: 80.0,
        }
    }
}

/// Enumerates propagation paths between `tx` and `rx` in `room`, applying
/// shadowing from `obstacles`: each candidate (`candidate_paths`) is
/// shaded as it is enumerated (`Candidate::shade`).
///
/// Both endpoints must be inside the room. Paths are returned in
/// deterministic order: LOS first, then first-order bounces in wall order,
/// then off interior panels in panel order, then second-order in
/// wall-pair order.
pub fn trace_paths(
    room: &Room,
    obstacles: &[Obstacle],
    tx: Vec2,
    rx: Vec2,
    config: &TraceConfig,
) -> Vec<Path> {
    let mut paths = Vec::new();
    candidate_paths(room, tx, rx, config, |c| {
        paths.extend(c.shade(obstacles, config));
    });
    paths
}

/// A path before shading: everything its endpoints and the room fix. The
/// obstacles add only the shadow loss, and with it whether the path is
/// admitted ([`Candidate::shade`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    kind: PathKind,
    vertices: Vertices,
    length_m: f64,
    departure_deg: f64,
    arrival_deg: f64,
    reflection_loss_db: f64,
    /// Penetration loss of the interior panels the chain crosses, dB.
    panel_loss_db: f64,
}

impl Candidate {
    /// The path under `obstacles`, or `None` when its excess loss
    /// exceeds `config.max_excess_loss_db`. The shadow loss is each
    /// segment's obstacle loss, summed, plus the panels' penetration loss.
    pub(crate) fn shade(&self, obstacles: &[Obstacle], config: &TraceConfig) -> Option<Path> {
        let shadow_loss_db: f64 = self
            .vertices
            .windows(2)
            .map(|w| total_shadow_loss_db(obstacles, &Segment::new(w[0], w[1])))
            .sum::<f64>()
            + self.panel_loss_db;
        let path = Path {
            kind: self.kind,
            vertices: self.vertices,
            length_m: self.length_m,
            departure_deg: self.departure_deg,
            arrival_deg: self.arrival_deg,
            reflection_loss_db: self.reflection_loss_db,
            shadow_loss_db,
        };
        (path.excess_loss_db() <= config.max_excess_loss_db).then_some(path)
    }
}

/// Calls `f` with every candidate path between `tx` and `rx` in `room`,
/// in [`trace_paths`] order. In a non-convex room a
/// geometrically-constructed path can pass through a wall; such
/// candidates are discarded outright (walls are thick — this is not the
/// thin-panel penetration case).
///
/// # Panics
/// Panics if either endpoint is outside the room.
pub(crate) fn candidate_paths(
    room: &Room,
    tx: Vec2,
    rx: Vec2,
    config: &TraceConfig,
    mut f: impl FnMut(Candidate),
) {
    assert!(room.contains(tx), "tx must be inside the room");
    assert!(room.contains(rx), "rx must be inside the room");

    let surfaces = room.surfaces();
    let mut push = |c: Option<Candidate>| {
        if let Some(c) = c {
            if room.is_convex() || !crosses_any_wall(room.walls(), &c.vertices) {
                f(c);
            }
        }
    };

    push(make_candidate(
        PathKind::LineOfSight,
        [tx, rx].into(),
        &[],
        surfaces,
    ));

    if config.max_order >= 1 {
        for wall in room.walls() {
            push(first_order_path(wall, surfaces, tx, rx));
        }
        // First-order bounces off interior panels (furniture).
        for surface in surfaces {
            push(surface_path(surface, surfaces, tx, rx));
        }
    }

    if config.max_order >= 2 {
        let walls = room.walls();
        for (i, wa) in walls.iter().enumerate() {
            for (j, wb) in walls.iter().enumerate() {
                if i == j {
                    continue;
                }
                push(second_order_path(wa, wb, surfaces, tx, rx));
            }
        }
    }
}

/// True if any leg of the vertex chain crosses a wall's interior. Legs
/// that merely *end* on a wall (their own bounce point) do not count —
/// interior intersection tests exclude endpoint grazes.
fn crosses_any_wall(walls: &[Wall], vertices: &[Vec2]) -> bool {
    for leg in vertices.windows(2) {
        let seg = Segment::new(leg[0], leg[1]);
        for w in walls {
            if seg.intersect_interior(&w.segment).is_some() {
                return true;
            }
        }
    }
    false
}

/// Penetration loss (dB) the interior panels inflict on a vertex chain:
/// every leg that crosses a panel's interior pays that panel's material
/// penetration loss. Legs *ending on* a panel (its own bounce point) are
/// excluded automatically because interior intersection tests reject
/// endpoint grazes.
fn surface_occlusion_db(surfaces: &[Surface], vertices: &[Vec2]) -> f64 {
    let mut loss = 0.0;
    for leg in vertices.windows(2) {
        let seg = Segment::new(leg[0], leg[1]);
        for s in surfaces {
            if seg.intersect_interior(&s.segment).is_some() {
                loss += s.material.penetration_loss_db();
            }
        }
    }
    loss
}

/// Builds a candidate from its vertex chain: geometry, reflection loss
/// and panel penetration. Returns `None` for degenerate (zero-length)
/// chains.
fn make_candidate(
    kind: PathKind,
    vertices: Vertices,
    bounce_losses_db: &[f64],
    surfaces: &[Surface],
) -> Option<Candidate> {
    debug_assert!(vertices.len() >= 2);
    let mut length = 0.0;
    for w in vertices.windows(2) {
        length += w[0].distance(w[1]);
    }
    if length < 1e-6 {
        return None;
    }
    let departure_deg = vertices[0].bearing_deg_to(vertices[1]);
    let n = vertices.len();
    let arrival_deg = vertices[n - 1].bearing_deg_to(vertices[n - 2]);
    let reflection_loss_db: f64 = bounce_losses_db.iter().sum();
    Some(Candidate {
        kind,
        vertices,
        length_m: length,
        departure_deg,
        arrival_deg,
        reflection_loss_db,
        panel_loss_db: surface_occlusion_db(surfaces, &vertices),
    })
}

/// TX → `wall` → RX via the image method: mirror the TX across the wall,
/// draw image→RX, and bounce where that line crosses the wall segment.
fn first_order_path(wall: &Wall, surfaces: &[Surface], tx: Vec2, rx: Vec2) -> Option<Candidate> {
    let image = wall.mirror_point(tx);
    let bounce = wall_hit(&wall.segment, image, rx)?;
    make_candidate(
        PathKind::Reflected { order: 1 },
        [tx, bounce, rx].into(),
        &[wall.material.reflection_loss_db()],
        surfaces,
    )
}

/// TX → interior panel → RX: the image method off a two-sided furniture
/// face.
fn surface_path(surface: &Surface, surfaces: &[Surface], tx: Vec2, rx: Vec2) -> Option<Candidate> {
    let image = surface.mirror_point(tx);
    let bounce = wall_hit(&surface.segment, image, rx)?;
    // A specular bounce requires TX and RX on the same side of the panel.
    let d = surface.segment.direction();
    let side_tx = d.cross(tx - surface.segment.a);
    let side_rx = d.cross(rx - surface.segment.a);
    if side_tx * side_rx <= 0.0 {
        return None;
    }
    make_candidate(
        PathKind::Reflected { order: 1 },
        [tx, bounce, rx].into(),
        &[surface.material.reflection_loss_db()],
        surfaces,
    )
}

/// TX → `wa` → `wb` → RX: mirror TX across `wa`, mirror that image across
/// `wb`, intersect backwards.
fn second_order_path(
    wa: &Wall,
    wb: &Wall,
    surfaces: &[Surface],
    tx: Vec2,
    rx: Vec2,
) -> Option<Candidate> {
    let image1 = wa.mirror_point(tx);
    let image2 = wb.mirror_point(image1);
    // Last bounce: where image2 → rx crosses wall B.
    let b2 = wall_hit(&wb.segment, image2, rx)?;
    // First bounce: where image1 → b2 crosses wall A.
    let b1 = wall_hit(&wa.segment, image1, b2)?;
    // The leg tx→b1 must leave the room interior correctly: with a convex
    // room it cannot exit, but b1 == b2 degeneracies (corner hits) are
    // rejected by a minimum segment length.
    if b1.distance(b2) < 1e-6 || tx.distance(b1) < 1e-6 || b2.distance(rx) < 1e-6 {
        return None;
    }
    make_candidate(
        PathKind::Reflected { order: 2 },
        [tx, b1, b2, rx].into(),
        &[
            wa.material.reflection_loss_db(),
            wb.material.reflection_loss_db(),
        ],
        surfaces,
    )
}

/// Where the segment `from → to` crosses `target`, if it does so
/// strictly in the interiors of both.
fn wall_hit(target: &Segment, from: Vec2, to: Vec2) -> Option<Vec2> {
    let ray = Segment::new(from, to);
    let (t, _u) = ray.intersect_interior(target)?;
    Some(ray.point_at(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;
    use crate::obstacle::BodyPart;

    fn office() -> Room {
        Room::paper_office()
    }

    #[test]
    fn los_path_geometry() {
        let room = office();
        let tx = Vec2::new(1.0, 1.0);
        let rx = Vec2::new(4.0, 1.0);
        let paths = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        let los = paths
            .iter()
            .find(|p| p.kind == PathKind::LineOfSight)
            .expect("LOS exists");
        assert!((los.length_m - 3.0).abs() < 1e-9);
        assert!((los.departure_deg - 0.0).abs() < 1e-9);
        assert!((los.arrival_deg.abs() - 180.0).abs() < 1e-9);
        assert_eq!(los.excess_loss_db(), 0.0);
    }

    #[test]
    fn first_order_count_in_open_room() {
        // Between two interior points of a rectangle, all four walls give a
        // valid single-bounce path.
        let room = office();
        let paths = trace_paths(
            &room,
            &[],
            Vec2::new(1.0, 2.0),
            Vec2::new(4.0, 3.0),
            &TraceConfig {
                max_order: 1,
                max_excess_loss_db: 100.0,
            },
        );
        let first: Vec<_> = paths
            .iter()
            .filter(|p| p.kind == (PathKind::Reflected { order: 1 }))
            .collect();
        assert_eq!(first.len(), 4);
        for p in first {
            assert_eq!(p.vertices.len(), 3);
            assert!(p.reflection_loss_db > 0.0);
            // Reflected paths are longer than LOS.
            assert!(p.length_m > paths[0].length_m);
        }
    }

    #[test]
    fn image_method_equal_angles() {
        // Symmetric placement about a wall midpoint: bounce at the midpoint,
        // angle in == angle out.
        let room = office();
        let tx = Vec2::new(2.0, 1.0);
        let rx = Vec2::new(3.0, 1.0);
        let paths = trace_paths(
            &room,
            &[],
            tx,
            rx,
            &TraceConfig {
                max_order: 1,
                max_excess_loss_db: 100.0,
            },
        );
        // South wall (y=0) bounce must land at x=2.5.
        let south = paths
            .iter()
            .find(|p| {
                matches!(p.kind, PathKind::Reflected { order: 1 }) && p.vertices[1].y.abs() < 1e-9
            })
            .expect("south-wall bounce");
        assert!((south.vertices[1].x - 2.5).abs() < 1e-9);
        // Path length = 2 * sqrt(0.5² + 1²).
        let expect = 2.0 * (0.25f64 + 1.0).sqrt();
        assert!((south.length_m - expect).abs() < 1e-9);
    }

    #[test]
    fn second_order_paths_exist_and_are_longer() {
        let room = office();
        let tx = Vec2::new(1.0, 2.5);
        let rx = Vec2::new(4.0, 2.5);
        let paths = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        let los_len = paths[0].length_m;
        let second: Vec<_> = paths
            .iter()
            .filter(|p| p.kind == (PathKind::Reflected { order: 2 }))
            .collect();
        assert!(!second.is_empty(), "expected double-bounce paths");
        for p in &second {
            assert_eq!(p.vertices.len(), 4);
            assert!(p.length_m > los_len);
            // Two bounces, two reflection losses.
            assert!(p.reflection_loss_db >= 2.0 * Material::Drywall.reflection_loss_db() - 1e-9);
        }
    }

    #[test]
    fn obstacle_on_los_shadows_only_los() {
        let room = office();
        let tx = Vec2::new(1.0, 2.5);
        let rx = Vec2::new(4.0, 2.5);
        let hand = Obstacle::new(BodyPart::Hand, Vec2::new(2.5, 2.5));
        let paths = trace_paths(&room, &[hand], tx, rx, &TraceConfig::default());
        let los = paths
            .iter()
            .find(|p| p.kind == PathKind::LineOfSight)
            .unwrap();
        assert!(los.shadow_loss_db > 0.0);
        assert!((los.shadow_loss_db - BodyPart::Hand.shadow_loss_db()).abs() < 1e-9);
        // Wall-bounce paths swing wide of a centred hand: at least one
        // reflected path must be clear.
        assert!(paths
            .iter()
            .filter(|p| p.kind != PathKind::LineOfSight)
            .any(|p| p.shadow_loss_db <= 0.0));
    }

    #[test]
    fn loss_cap_prunes_paths() {
        let room = office();
        let tx = Vec2::new(1.0, 2.5);
        let rx = Vec2::new(4.0, 2.5);
        let all = trace_paths(
            &room,
            &[],
            tx,
            rx,
            &TraceConfig {
                max_order: 2,
                max_excess_loss_db: 100.0,
            },
        );
        let pruned = trace_paths(
            &room,
            &[],
            tx,
            rx,
            &TraceConfig {
                max_order: 2,
                max_excess_loss_db: 10.0,
            },
        );
        // A 10 dB cap keeps LOS and drops every drywall double-bounce
        // (2 × 9 dB = 18 dB).
        assert!(pruned.len() < all.len());
        assert!(pruned
            .iter()
            .all(|p| p.kind != PathKind::Reflected { order: 2 }));
    }

    #[test]
    fn max_order_zero_is_los_only() {
        let room = office();
        let paths = trace_paths(
            &room,
            &[],
            Vec2::new(1.0, 1.0),
            Vec2::new(3.0, 3.0),
            &TraceConfig {
                max_order: 0,
                max_excess_loss_db: 100.0,
            },
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
    }

    #[test]
    fn deterministic_ordering() {
        let room = office();
        let a = trace_paths(
            &room,
            &[],
            Vec2::new(1.1, 2.2),
            Vec2::new(3.9, 1.7),
            &TraceConfig::default(),
        );
        let b = trace_paths(
            &room,
            &[],
            Vec2::new(1.1, 2.2),
            Vec2::new(3.9, 1.7),
            &TraceConfig::default(),
        );
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.kind, pb.kind);
            assert_eq!(pa.length_m, pb.length_m);
        }
    }

    #[test]
    #[should_panic(expected = "inside the room")]
    fn tx_outside_room_panics() {
        trace_paths(
            &office(),
            &[],
            Vec2::new(-1.0, 1.0),
            Vec2::new(3.0, 3.0),
            &TraceConfig::default(),
        );
    }

    #[test]
    fn surface_adds_a_bounce_path() {
        let mut room = office();
        // A metal panel parallel to the LOS, offset north.
        room.add_surface(crate::geometry::Surface::new(
            Segment::new(Vec2::new(1.5, 4.0), Vec2::new(3.5, 4.0)),
            Material::Metal,
        ));
        let tx = Vec2::new(1.0, 2.0);
        let rx = Vec2::new(4.0, 2.0);
        let furnished = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        // The panel bounce reflects at y=4 and pays only metal's tiny loss.
        let panel_path = furnished
            .iter()
            .find(|p| {
                p.vertices.len() == 3 && (p.vertices[1].y - 4.0).abs() < 1e-9
            })
            .expect("panel bounce");
        assert!(
            (panel_path.reflection_loss_db - Material::Metal.reflection_loss_db()).abs() < 1e-9
        );
        // And the panel shadows the north-wall bounce behind it: that
        // path (bounce at y=5) either got pruned or pays penetration.
        let north = furnished
            .iter()
            .find(|p| p.vertices.len() == 3 && (p.vertices[1].y - 5.0).abs() < 1e-9);
        assert!(
            north.is_none() || north.unwrap().shadow_loss_db > 0.0,
            "panel must shadow the wall behind it"
        );
    }

    #[test]
    fn surface_occludes_paths_crossing_it() {
        let mut room = office();
        // A metal cabinet square across the LOS.
        room.add_surface(crate::geometry::Surface::new(
            Segment::new(Vec2::new(2.5, 1.5), Vec2::new(2.5, 2.5)),
            Material::Metal,
        ));
        let tx = Vec2::new(1.0, 2.0);
        let rx = Vec2::new(4.0, 2.0);
        let paths = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        let los = paths
            .iter()
            .find(|p| p.kind == PathKind::LineOfSight)
            .unwrap();
        assert!(
            (los.shadow_loss_db - Material::Metal.penetration_loss_db()).abs() < 1e-9,
            "LOS must pay the panel's penetration loss: {}",
            los.shadow_loss_db
        );
        // Wall bounces over the top (north wall) clear the cabinet.
        assert!(paths
            .iter()
            .any(|p| p.kind != PathKind::LineOfSight && p.shadow_loss_db == 0.0));
    }

    #[test]
    fn surface_bounce_requires_same_side() {
        let mut room = office();
        room.add_surface(crate::geometry::Surface::new(
            Segment::new(Vec2::new(2.5, 1.5), Vec2::new(2.5, 2.5)),
            Material::Metal,
        ));
        // TX and RX on opposite sides of the panel: no specular bounce
        // off it (only occlusion) — no path may reflect at x = 2.5.
        let tx = Vec2::new(1.0, 2.0);
        let rx = Vec2::new(4.0, 2.0);
        let furnished = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        assert!(!furnished.iter().any(|p| {
            p.vertices.len() == 3
                && (p.vertices[1].x - 2.5).abs() < 1e-9
                && p.vertices[1].y > 1.4
                && p.vertices[1].y < 2.6
        }));
    }

    #[test]
    fn metal_panel_beats_the_drywall_bounce() {
        // A metal panel just inside the north wall: its bounce is ~6 dB
        // stronger than the drywall wall bounce on the same geometry —
        // why a furnished office is kinder to NLOS schemes.
        let mut room = office();
        room.add_surface(crate::geometry::Surface::new(
            Segment::new(Vec2::new(1.5, 4.9), Vec2::new(3.5, 4.9)),
            Material::Metal,
        ));
        let tx = Vec2::new(1.0, 2.5);
        let rx = Vec2::new(4.0, 2.5);
        let blocker = Obstacle::new(BodyPart::Torso, Vec2::new(2.5, 2.5));
        let paths = trace_paths(&room, &[blocker], tx, rx, &TraceConfig::default());
        let best_clear = paths
            .iter()
            .filter(|p| p.kind != PathKind::LineOfSight && p.shadow_loss_db == 0.0)
            .min_by(|a, b| a.excess_loss_db().partial_cmp(&b.excess_loss_db()).unwrap())
            .expect("a clear bounce exists");
        assert!(
            (best_clear.reflection_loss_db - Material::Metal.reflection_loss_db()).abs() < 1e-9,
            "the metal panel should be the best clear path, got {} dB",
            best_clear.reflection_loss_db
        );
    }

    #[test]
    fn furnished_office_has_panels_and_traces() {
        let room = Room::furnished_office();
        assert_eq!(room.surfaces().len(), 3);
        let paths = trace_paths(
            &room,
            &[],
            Vec2::new(1.0, 2.5),
            Vec2::new(4.0, 2.5),
            &TraceConfig::default(),
        );
        assert!(!paths.is_empty());
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
    }

    #[test]
    fn l_shaped_room_blocks_around_the_corner() {
        // TX deep in the north leg, RX deep in the east leg: the straight
        // line passes through the bitten-out corner, so there is no line
        // of sight, and every surviving path must avoid the notch walls.
        let room = Room::l_shaped_studio();
        let tx = Vec2::new(2.5, 4.5);
        let rx = Vec2::new(4.5, 2.5);
        let paths = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        assert!(
            !paths.iter().any(|p| p.kind == PathKind::LineOfSight),
            "the corner must kill the LOS"
        );
        // Around-the-corner bounce paths can exist; all must be clear of
        // every wall interior.
        for p in &paths {
            for leg in p.vertices.windows(2) {
                let seg = Segment::new(leg[0], leg[1]);
                for w in room.walls() {
                    assert!(
                        seg.intersect_interior(&w.segment).is_none(),
                        "leg {:?} crosses a wall",
                        leg
                    );
                }
            }
        }
    }

    #[test]
    fn l_shaped_room_clear_pairs_keep_los() {
        // Two points in the main (west) body see each other normally.
        let room = Room::l_shaped_studio();
        let paths = trace_paths(
            &room,
            &[],
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 4.0),
            &TraceConfig::default(),
        );
        assert_eq!(paths[0].kind, PathKind::LineOfSight);
        assert!(paths.len() > 1, "bounces exist too");
    }

    #[test]
    fn path_length_is_the_sum_of_its_segments() {
        let room = office();
        let paths = trace_paths(
            &room,
            &[],
            Vec2::new(1.0, 1.0),
            Vec2::new(4.0, 4.0),
            &TraceConfig::default(),
        );
        for p in paths {
            let sum: f64 = p
                .vertices
                .windows(2)
                .map(|w| Segment::new(w[0], w[1]).length())
                .sum();
            assert!((sum - p.length_m).abs() < 1e-9);
        }
    }
}
