//! Scenes: a room, a carrier, obstacles, and link-budget evaluation.
//!
//! [`Scene`] is the façade the rest of the workspace talks to: place a
//! transmitter and a receiver, hand over their antenna patterns, and get a
//! [`LinkBudget`] back — received power, SNR, and the path breakdown.

use crate::cache::TracedLink;
use crate::channel::Channel;
use crate::geometry::Room;
use crate::noise::NoiseModel;
use crate::obstacle::Obstacle;
use crate::pattern::Pattern;
use crate::raytrace::{candidate_paths, trace_paths, Candidate, Path, TraceConfig};
use movr_math::Vec2;

/// The cheap half of a link evaluation: received power and SNR for one
/// weighting of an already-traced path set. [`LinkBudget`] is this plus
/// the owned path list.
#[derive(Debug, Clone, Copy)]
pub struct LinkEval {
    /// Received signal power, dBm (coherent sum over paths).
    pub received_dbm: f64,
    /// SNR at the receiver, dB.
    pub snr_db: f64,
}

/// The result of evaluating a link in a scene.
#[derive(Debug, Clone)]
pub struct LinkBudget {
    /// Received signal power, dBm (coherent sum over paths).
    pub received_dbm: f64,
    /// SNR at the receiver, dB.
    pub snr_db: f64,
    /// The traced paths that contributed (post pruning).
    pub paths: Vec<Path>,
}

/// A simulation scene: geometry, carrier, noise and mutable obstacles.
#[derive(Debug, Clone)]
pub struct Scene {
    room: Room,
    channel: Channel,
    noise: NoiseModel,
    trace: TraceConfig,
    obstacles: Vec<Obstacle>,
}

impl Scene {
    /// Creates a scene.
    pub fn new(room: Room, channel: Channel, noise: NoiseModel) -> Self {
        Scene {
            room,
            channel,
            noise,
            trace: TraceConfig::default(),
            obstacles: Vec::new(),
        }
    }

    /// The paper's setup: 5 m × 5 m drywall office, 24 GHz carrier,
    /// 802.11ad-class receiver noise.
    pub fn paper_office() -> Self {
        Scene::new(
            Room::paper_office(),
            Channel::new(24.0e9),
            NoiseModel::ieee_802_11ad(),
        )
    }

    /// The same office "with standard furniture" (§5): interior
    /// reflective panels that both occlude paths and offer extra specular
    /// bounces — notably a metal whiteboard, the best NLOS reflector a
    /// real office has.
    pub fn furnished_office() -> Self {
        Scene::new(
            Room::furnished_office(),
            Channel::new(24.0e9),
            NoiseModel::ieee_802_11ad(),
        )
    }

    /// The room geometry.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// The channel (carrier) model.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Current obstacles.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Adds an obstacle, returning its index in [`Scene::obstacles`].
    pub fn add_obstacle(&mut self, o: Obstacle) -> usize {
        self.obstacles.push(o);
        self.obstacles.len() - 1
    }

    /// Removes all obstacles.
    pub fn clear_obstacles(&mut self) {
        self.obstacles.clear();
    }

    /// Replaces the whole obstacle set (used by motion traces each tick
    /// and by session checkpoint restore).
    pub fn set_obstacles(&mut self, obstacles: Vec<Obstacle>) {
        self.obstacles = obstacles;
    }

    /// Traces propagation paths between two points under the current
    /// obstacle set.
    pub fn paths_between(&self, tx: Vec2, rx: Vec2) -> Vec<Path> {
        trace_paths(&self.room, &self.obstacles, tx, rx, &self.trace)
    }

    /// Replaces `out` with the candidate paths between two points: the
    /// half of a trace the endpoints and the room fix.
    pub(crate) fn candidates_between(&self, tx: Vec2, rx: Vec2, out: &mut Vec<Candidate>) {
        out.clear();
        candidate_paths(&self.room, tx, rx, &self.trace, |c| out.push(c));
    }

    /// `candidate` shaded under the current obstacle set, or `None` when
    /// the tracer would not admit it.
    pub(crate) fn shade(&self, candidate: &Candidate) -> Option<Path> {
        candidate.shade(&self.obstacles, &self.trace)
    }

    /// Traces the `tx → rx` link once and returns a [`TracedLink`] whose
    /// paths can be reweighted cheaply under different antenna patterns.
    /// The borrow of `self` makes a stale read impossible by construction:
    /// the scene cannot be mutated while the traced link is alive.
    pub fn trace_link(&self, tx: Vec2, rx: Vec2) -> TracedLink<'_> {
        TracedLink::new(self, tx, rx)
    }

    /// Evaluates the full link budget for a transmitter at `tx_pos`
    /// radiating `tx_power_dbm` through `tx_pattern`, received at `rx_pos`
    /// through `rx_pattern`: [`Scene::trace_link`], then
    /// [`TracedLink::evaluate`].
    pub fn link_budget(
        &self,
        tx_pos: Vec2,
        tx_pattern: &dyn Pattern,
        tx_power_dbm: f64,
        rx_pos: Vec2,
        rx_pattern: &dyn Pattern,
    ) -> LinkBudget {
        let link = self.trace_link(tx_pos, rx_pos);
        let eval = link.evaluate(tx_pattern, tx_power_dbm, rx_pattern);
        LinkBudget {
            received_dbm: eval.received_dbm,
            snr_db: eval.snr_db,
            paths: link.into_paths(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obstacle::BodyPart;
    use crate::pattern::{IsotropicPattern, SectorPattern};

    #[test]
    fn closer_is_stronger() {
        let scene = Scene::paper_office();
        let iso = IsotropicPattern;
        let near = scene.link_budget(
            Vec2::new(1.0, 2.5),
            &iso,
            10.0,
            Vec2::new(2.0, 2.5),
            &iso,
        );
        let far = scene.link_budget(
            Vec2::new(1.0, 2.5),
            &iso,
            10.0,
            Vec2::new(4.5, 2.5),
            &iso,
        );
        assert!(near.snr_db > far.snr_db);
    }

    #[test]
    fn blockage_drops_snr_substantially() {
        let mut scene = Scene::paper_office();
        let tx = Vec2::new(0.5, 2.5);
        let rx = Vec2::new(4.5, 2.5);
        // Narrow beams pointed at each other, as the paper's radios are.
        let tx_beam = SectorPattern::new(0.0, 10.0, 15.0);
        let rx_beam = SectorPattern::new(180.0, 10.0, 15.0);
        let clear = scene.link_budget(tx, &tx_beam, 10.0, rx, &rx_beam);
        scene.add_obstacle(Obstacle::new(BodyPart::Hand, Vec2::new(2.5, 2.5)));
        let blocked = scene.link_budget(tx, &tx_beam, 10.0, rx, &rx_beam);
        let drop = clear.snr_db - blocked.snr_db;
        // §3: hand blockage costs ≳14 dB.
        assert!(drop > 10.0, "drop={drop}");
    }

    #[test]
    fn obstacle_management() {
        let mut scene = Scene::paper_office();
        let idx = scene.add_obstacle(Obstacle::new(BodyPart::Torso, Vec2::new(2.0, 2.0)));
        assert_eq!(idx, 0);
        assert_eq!(scene.obstacles()[idx].center, Vec2::new(2.0, 2.0));
        scene.clear_obstacles();
        assert!(scene.obstacles().is_empty());
    }

    #[test]
    fn directional_beams_beat_isotropic() {
        let scene = Scene::paper_office();
        let tx = Vec2::new(1.0, 2.5);
        let rx = Vec2::new(4.0, 2.5);
        let iso = scene.link_budget(tx, &IsotropicPattern, 10.0, rx, &IsotropicPattern);
        let tx_beam = SectorPattern::new(0.0, 10.0, 15.0);
        let rx_beam = SectorPattern::new(180.0, 10.0, 15.0);
        let dir = scene.link_budget(tx, &tx_beam, 10.0, rx, &rx_beam);
        // Directional link gains roughly Gt+Gr over isotropic; multipath
        // structure changes too (sidelobe-suppressed bounces), so allow a
        // loose band.
        let gain = dir.snr_db - iso.snr_db;
        assert!(gain > 20.0, "gain={gain}");
    }

    #[test]
    fn misaimed_beam_loses_link() {
        let scene = Scene::paper_office();
        let tx = Vec2::new(1.0, 2.5);
        let rx = Vec2::new(4.0, 2.5);
        let aimed = SectorPattern::new(0.0, 10.0, 15.0);
        let misaimed = SectorPattern::new(90.0, 10.0, 15.0);
        let rx_beam = SectorPattern::new(180.0, 10.0, 15.0);
        let good = scene.link_budget(tx, &aimed, 10.0, rx, &rx_beam);
        let bad = scene.link_budget(tx, &misaimed, 10.0, rx, &rx_beam);
        assert!(good.snr_db - bad.snr_db > 15.0);
    }
}
