//! Traced links: separate the expensive geometry (ray tracing and the
//! per-path taps) from the cheap per-beam reweighting.
//!
//! A 101×101 alignment sweep evaluates the same TX/RX positions 10,201
//! times with different beam weights; the image-method trace is identical
//! for every probe. [`TracedLink`] traces once, computes each path's
//! complex tap once, and reweights per query in one of three forms: one
//! pattern query per path ([`TracedLink::evaluate`], behind
//! `evaluate_link` and `relay_link_on`), gain rows over its own paths
//! ([`TracedLink::evaluate_rows`], the per-frame decision, which keeps
//! each end's row while that end's pattern repeats), or frozen into a
//! [`LinkBatch`] that takes gain rows ([`TracedLink::batch`], the
//! sweeps). All three fold the stored taps through the same coherent
//! sum, so every form is bit-identical to re-tracing by construction.
//!
//! Across frames the geometry often holds still: a held pose or a static
//! scene repeats the previous frame's obstacles and endpoints bit for
//! bit, and a link whose radios hold still keeps its endpoints while
//! bodies move through the room. A [`LinkMemo`] keeps one link's
//! candidate paths while its endpoints repeat and its shaded paths and
//! taps while its obstacles repeat too. When only obstacles moved it
//! re-shades the candidates, and its [`Reuse`] says whether the same
//! paths came out, so a caller that keeps gain rows over the paths knows
//! when to drop them.

use crate::batch::LinkBatch;
use crate::channel::coherent_sum;
use crate::obstacle::Obstacle;
use crate::pattern::Pattern;
use crate::raytrace::{Candidate, Path};
use crate::scene::{LinkEval, Scene};
use movr_math::{linear_to_db, Vec2, C64};
use std::borrow::Cow;

/// A link whose paths and taps were computed once and can be reweighted
/// cheaply.
///
/// Holds a shared borrow of the [`Scene`] (and, when it came from a
/// [`LinkMemo`], of the memo), so neither can be mutated — no obstacle
/// can move — while this exists: a stale read is impossible by
/// construction, not by runtime check.
#[derive(Debug)]
pub struct TracedLink<'s> {
    scene: &'s Scene,
    tx: Vec2,
    rx: Vec2,
    paths: Cow<'s, [Path]>,
    /// `Channel::path_gain(paths[i]).coefficient`, in path order.
    taps: Cow<'s, [C64]>,
}

/// Traces `tx → rx` in `scene` and computes each path's tap.
fn trace(scene: &Scene, tx: Vec2, rx: Vec2) -> (Vec<Path>, Vec<C64>) {
    let paths = scene.paths_between(tx, rx);
    let channel = scene.channel();
    let taps = paths
        .iter()
        .map(|p| channel.path_gain(p).coefficient)
        .collect();
    (paths, taps)
}

impl<'s> TracedLink<'s> {
    pub(crate) fn new(scene: &'s Scene, tx: Vec2, rx: Vec2) -> Self {
        let (paths, taps) = trace(scene, tx, rx);
        TracedLink {
            scene,
            tx,
            rx,
            paths: Cow::Owned(paths),
            taps: Cow::Owned(taps),
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

    /// The traced paths, owned.
    pub(crate) fn into_paths(self) -> Vec<Path> {
        self.paths.into_owned()
    }

    /// Freezes the traced paths into a [`LinkBatch`]: complex taps and
    /// departure/arrival bearings in path order, plus the scene's noise
    /// budget. The batch owns its data (no scene borrow) and evaluates
    /// bit-identically to [`TracedLink::evaluate`] given the same
    /// per-path gains.
    pub fn batch(&self) -> LinkBatch {
        let departure = self.paths.iter().map(|p| p.departure_deg).collect();
        let arrival = self.paths.iter().map(|p| p.arrival_deg).collect();
        LinkBatch::new(self.taps.to_vec(), departure, arrival, self.scene.noise())
    }

    /// Reweights the traced paths under the given patterns and transmit
    /// power: one pattern query per path and end, folded with the stored
    /// taps. O(paths), no ray tracing.
    pub fn evaluate(
        &self,
        tx_pattern: &dyn Pattern,
        tx_power_dbm: f64,
        rx_pattern: &dyn Pattern,
    ) -> LinkEval {
        let terms = self.taps.iter().zip(self.paths.iter()).map(|(tap, p)| {
            let gain_db = tx_pattern.gain_dbi(p.departure_deg) + rx_pattern.gain_dbi(p.arrival_deg);
            (*tap, gain_db)
        });
        let received_dbm = tx_power_dbm + linear_to_db(coherent_sum(terms).norm_sq());
        LinkEval {
            received_dbm,
            snr_db: self.scene.noise().snr_db(received_dbm),
        }
    }

    /// Reweights the traced paths under precomputed gain rows:
    /// `tx_gains_dbi[i]` is the transmit end's gain toward path `i`'s
    /// departure and `rx_gains_dbi[i]` the receive end's toward its
    /// arrival. The stored taps go through [`LinkBatch::received_dbm`]'s
    /// fold, so rows filled from a pattern's `gain_dbi` give
    /// [`TracedLink::evaluate`]'s result under that pattern, bit for bit.
    ///
    /// # Panics
    /// Panics if either row's length differs from the path count.
    pub fn evaluate_rows(
        &self,
        tx_power_dbm: f64,
        tx_gains_dbi: &[f64],
        rx_gains_dbi: &[f64],
    ) -> LinkEval {
        let received_dbm =
            crate::batch::received_dbm(&self.taps, tx_power_dbm, tx_gains_dbi, rx_gains_dbi);
        LinkEval {
            received_dbm,
            snr_db: self.scene.noise().snr_db(received_dbm),
        }
    }
}

/// How much of a remembered link [`LinkMemo::trace`] could keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// The endpoints and the obstacles repeat: the remembered paths and
    /// taps, untouched.
    Hit,
    /// Only obstacles changed, and re-shading admitted the same paths in
    /// the same order, so every path keeps its vertices and bearings.
    /// Shadow losses are new, and so is the tap of each path whose loss
    /// changed.
    Reshaded,
    /// The endpoints moved, or the obstacles changed which paths are
    /// admitted.
    Retraced,
}

/// One link's last trace, kept in two halves with a key each.
///
/// The candidate paths, everything the endpoints and the room fix, are
/// keyed on both endpoints; the shaded paths and their taps on the
/// scene's obstacle list too. Keys compare bit for bit (`f64::to_bits`,
/// so −0.0 and +0.0 differ). Everything else the trace reads — room,
/// carrier, trace configuration — is fixed when a [`Scene`] is built, so
/// a memo serves the one scene its owner keeps beside it. Memory is one
/// link's candidates, paths and taps plus a copy of the obstacle list.
#[derive(Debug, Clone, Default)]
pub struct LinkMemo {
    /// Endpoints of the remembered candidates; `None` before the first
    /// trace.
    ends: Option<(Vec2, Vec2)>,
    /// Every candidate between `ends`, in tracer order.
    candidates: Vec<Candidate>,
    /// Per candidate, the shadow loss and tap it was last admitted with,
    /// or `None` when the last shading did not admit it.
    admitted: Vec<Option<(f64, C64)>>,
    /// The obstacles the paths were shaded under.
    obstacles: Vec<Obstacle>,
    paths: Vec<Path>,
    taps: Vec<C64>,
}

fn same_point(a: Vec2, b: Vec2) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

fn same_obstacles(a: &[Obstacle], b: &[Obstacle]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(a, b)| a.kind == b.kind && same_point(a.center, b.center))
}

impl LinkMemo {
    /// An empty memo: the first [`LinkMemo::trace`] traces.
    pub fn new() -> Self {
        LinkMemo::default()
    }

    /// The `tx → rx` link in `scene`, and how much of the remembered link
    /// it kept: the remembered paths and taps when the endpoints and
    /// obstacles repeat ([`Reuse::Hit`]); the remembered candidates,
    /// shaded under the new obstacles, when only the obstacles changed
    /// ([`Reuse::Reshaded`] or [`Reuse::Retraced`]); otherwise a fresh
    /// trace ([`Reuse::Retraced`]). Whatever it computes is remembered.
    ///
    /// Either way the link is bit-identical to
    /// [`Scene::trace_link`]`(tx, rx)`: the candidates are a pure
    /// function of the endpoints and the scene's fixed parts, shading
    /// runs the tracer's own `Candidate::shade`, and a kept tap belongs
    /// to the same candidate with a bitwise-equal shadow loss, while
    /// `Channel::path_gain` reads only the length, the reflection loss
    /// and the shadow loss.
    pub fn trace<'a>(
        &'a mut self,
        scene: &'a Scene,
        tx: Vec2,
        rx: Vec2,
    ) -> (TracedLink<'a>, Reuse) {
        let same_ends = self
            .ends
            .is_some_and(|(t, r)| same_point(t, tx) && same_point(r, rx));
        let reuse = if !same_ends {
            // No key survives a trace that panics (an endpoint outside
            // the room) over a half-built candidate list.
            self.ends = None;
            scene.candidates_between(tx, rx, &mut self.candidates);
            self.ends = Some((tx, rx));
            self.admitted.clear();
            self.admitted.resize(self.candidates.len(), None);
            self.shade(scene);
            Reuse::Retraced
        } else if !same_obstacles(&self.obstacles, scene.obstacles()) {
            if self.shade(scene) {
                Reuse::Reshaded
            } else {
                Reuse::Retraced
            }
        } else {
            Reuse::Hit
        };
        let link = TracedLink {
            scene,
            tx,
            rx,
            paths: Cow::Borrowed(&self.paths),
            taps: Cow::Borrowed(&self.taps),
        };
        (link, reuse)
    }

    /// Shades every candidate under `scene`'s obstacles and rebuilds the
    /// paths and taps, keeping the tap of each candidate admitted again
    /// with a bitwise-equal shadow loss. True when the shading admitted
    /// the same candidates as the last one.
    fn shade(&mut self, scene: &Scene) -> bool {
        self.obstacles.clear();
        self.obstacles.extend_from_slice(scene.obstacles());
        self.paths.clear();
        self.taps.clear();
        let channel = scene.channel();
        let mut same = true;
        for (candidate, admitted) in self.candidates.iter().zip(&mut self.admitted) {
            let path = scene.shade(candidate);
            same &= path.is_some() == admitted.is_some();
            *admitted = path.map(|p| {
                let tap = match *admitted {
                    Some((loss, tap)) if loss.to_bits() == p.shadow_loss_db.to_bits() => tap,
                    _ => channel.path_gain(&p).coefficient,
                };
                self.paths.push(p);
                self.taps.push(tap);
                (p.shadow_loss_db, tap)
            });
        }
        same
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obstacle::BodyPart;
    use crate::pattern::{Pattern, SectorPattern};

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
        let tx_row: Vec<f64> = link
            .paths()
            .iter()
            .map(|p| txp.gain_dbi(p.departure_deg))
            .collect();
        let rx_row: Vec<f64> = link
            .paths()
            .iter()
            .map(|p| rxp.gain_dbi(p.arrival_deg))
            .collect();
        let rowed = link.evaluate_rows(10.0, &tx_row, &rx_row);
        assert_eq!(rowed.received_dbm.to_bits(), plain.received_dbm.to_bits());
        assert_eq!(rowed.snr_db.to_bits(), plain.snr_db.to_bits());
    }
}
