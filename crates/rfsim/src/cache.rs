//! Traced links: separate the expensive geometry (ray tracing) from the
//! cheap per-beam reweighting.
//!
//! A 101×101 alignment sweep evaluates the same TX/RX positions 10,201
//! times with different beam weights; the image-method trace is identical
//! for every probe. [`TracedLink`] traces once and reweights per query,
//! either one pattern query per path ([`TracedLink::evaluate`], the
//! per-frame path) or frozen into a [`LinkBatch`] that takes precomputed
//! gain rows ([`TracedLink::batch`], the sweeps). Both end in the same
//! coherent fold as [`Scene::link_budget`], so every form is
//! bit-identical to re-tracing by construction.

use crate::batch::LinkBatch;
use crate::pattern::Pattern;
use crate::raytrace::Path;
use crate::scene::{LinkEval, Scene};
use movr_math::Vec2;

/// A link whose paths were traced once and can be reweighted cheaply.
///
/// Holds a shared borrow of the [`Scene`], so the scene cannot be mutated
/// (no obstacle can move) while this exists — a stale read is impossible
/// by construction, not by runtime check.
#[derive(Debug)]
pub struct TracedLink<'s> {
    scene: &'s Scene,
    tx: Vec2,
    rx: Vec2,
    paths: Vec<Path>,
}

impl<'s> TracedLink<'s> {
    pub(crate) fn new(scene: &'s Scene, tx: Vec2, rx: Vec2) -> Self {
        let paths = scene.paths_between(tx, rx);
        TracedLink {
            scene,
            tx,
            rx,
            paths,
        }
    }

    /// The scene the paths were traced in.
    pub fn scene(&self) -> &'s Scene {
        self.scene
    }

    /// Transmitter position.
    pub fn tx(&self) -> Vec2 {
        self.tx
    }

    /// Receiver position.
    pub fn rx(&self) -> Vec2 {
        self.rx
    }

    /// The traced paths (post pruning), in deterministic tracer order.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Freezes the traced paths into a [`LinkBatch`]: complex taps and
    /// departure/arrival bearings in path order, plus the scene's noise
    /// budget. The batch owns its data (no scene borrow) and evaluates
    /// bit-identically to [`TracedLink::evaluate`] given the same
    /// per-path gains.
    pub fn batch(&self) -> LinkBatch {
        let channel = self.scene.channel();
        let mut taps = Vec::with_capacity(self.paths.len());
        let mut departure = Vec::with_capacity(self.paths.len());
        let mut arrival = Vec::with_capacity(self.paths.len());
        for p in &self.paths {
            taps.push(channel.path_gain(p).coefficient);
            departure.push(p.departure_deg);
            arrival.push(p.arrival_deg);
        }
        LinkBatch::new(taps, departure, arrival, self.scene.noise())
    }

    /// Reweights the traced paths under the given patterns and transmit
    /// power. O(paths), no ray tracing.
    pub fn evaluate(
        &self,
        tx_pattern: &dyn Pattern,
        tx_power_dbm: f64,
        rx_pattern: &dyn Pattern,
    ) -> LinkEval {
        self.scene
            .eval_paths(&self.paths, tx_pattern, tx_power_dbm, rx_pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obstacle::{BodyPart, Obstacle};
    use crate::pattern::SectorPattern;

    #[test]
    fn traced_link_matches_link_budget_bitwise() {
        let mut scene = Scene::paper_office();
        scene.add_obstacle(Obstacle::new(BodyPart::Hand, Vec2::new(2.4, 2.5)));
        let tx = Vec2::new(0.5, 2.5);
        let rx = Vec2::new(4.5, 2.5);
        let txp = SectorPattern::new(0.0, 10.0, 15.0);
        let rxp = SectorPattern::new(180.0, 10.0, 15.0);
        let link = scene.trace_link(tx, rx);
        let cached = link.evaluate(&txp, 10.0, &rxp);
        let plain = scene.link_budget(tx, &txp, 10.0, rx, &rxp);
        assert_eq!(cached.received_dbm, plain.received_dbm);
        assert_eq!(cached.snr_db, plain.snr_db);
        assert_eq!(link.paths().len(), plain.paths.len());
    }
}
