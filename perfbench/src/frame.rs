//! The per-frame replay shared by the `session` and `fleet` workloads.
//!
//! A twin `MovrSystem::paper_setup` re-decides every frame from the same
//! `(t, world)` the session saw, so its decisions must reproduce the
//! session's realignment, mode-switch and reflector-frame counts. The
//! calls made inside that decision are then replayed one by one on the
//! same inputs, each in its own span: the direct `evaluate_link`, and
//! for each reflector candidate its two traced hops, one §4.2 ramp and
//! `relay_link_on`. The no-tracking re-sweep's second ramp is not
//! replayed (which frames need it is not observable from outside).

use crate::spans::Tracer;
use movr::gain_control::run_gain_control;
use movr::relay::relay_link_on;
use movr::system::{LinkMode, MovrSystem, SystemConfig};
use movr_motion::WorldState;
use movr_radio::{evaluate_link, RadioEndpoint};

/// A twin deployment plus the counts of its decisions.
pub struct FrameTwin {
    twin: MovrSystem,
    config: SystemConfig,
    last_mode: Option<LinkMode>,
    /// Frames replayed.
    pub frames: usize,
    /// Frames the twin flagged as realigned.
    pub realignments: usize,
    /// Mode changes after the first mode.
    pub mode_switches: usize,
    /// Frames served through a reflector.
    pub reflector_frames: usize,
    /// Links the decisions traced: the direct one plus two per
    /// reflector candidate.
    pub links: usize,
    /// §4.2 ramps replayed and their total steps.
    pub ramps: usize,
    /// Total steps over those ramps.
    pub ramp_steps: usize,
}

impl FrameTwin {
    /// A twin of the canonical deployment under `config`.
    pub fn new(config: SystemConfig) -> Self {
        FrameTwin {
            twin: MovrSystem::paper_setup(config),
            config,
            last_mode: None,
            frames: 0,
            realignments: 0,
            mode_switches: 0,
            reflector_frames: 0,
            links: 0,
            ramps: 0,
            ramp_steps: 0,
        }
    }

    /// Replays one frame: the twin's `evaluate_at` in a
    /// `system.direct_frame` or `system.reflector_frame` span, then its
    /// calls under a `system.replay` root. Returns the span ids of the
    /// decision and of the replay root.
    pub fn frame(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        t_s: f64,
        world: &WorldState,
    ) -> (usize, usize) {
        let start = tr.now();
        let d = self.twin.evaluate_at(t_s, world);
        let end = tr.now();
        let name = match d.mode {
            LinkMode::Direct => "system.direct_frame",
            LinkMode::Reflector(_) => "system.reflector_frame",
        };
        let decision = tr.push(name, op, (start, end), None);

        self.frames += 1;
        self.realignments += usize::from(d.realigned);
        if self.last_mode != Some(d.mode) {
            self.mode_switches += usize::from(self.last_mode.is_some());
            self.last_mode = Some(d.mode);
        }
        self.reflector_frames += usize::from(matches!(d.mode, LinkMode::Reflector(_)));

        let root = tr.begin("system.replay", op);
        let scene = self.twin.scene();
        let ap = *self.twin.ap();
        let hs = RadioEndpoint::paper_radio(
            world.player.receiver_position(),
            world.player.receiver_boresight_deg(),
        );
        let mut ap_direct = ap;
        ap_direct.steer_toward(hs.position());
        let mut hs_direct = hs;
        hs_direct.steer_toward(ap.position());
        tr.time("radio.evaluate_link", op, || {
            evaluate_link(scene, &ap_direct, &hs_direct)
        });
        self.links += 1;

        // Reflector candidates are evaluated whenever the direct path
        // fell below the switch threshold; in direct mode the decision's
        // SNR is the direct SNR.
        let candidates = matches!(d.mode, LinkMode::Reflector(_))
            || d.snr_db < self.config.snr_switch_threshold_db;
        if candidates {
            for reflector in self.twin.reflectors() {
                let mut ap_r = ap;
                ap_r.steer_toward(reflector.position());
                let mut hs_r = hs;
                hs_r.steer_toward(reflector.position());
                let hop1 = tr.time("rfsim.trace_link", op, || {
                    scene.trace_link(ap.position(), reflector.position())
                });
                let hop2 = tr.time("rfsim.trace_link", op, || {
                    scene.trace_link(reflector.position(), hs_r.position())
                });
                self.links += 2;
                let mut unit = reflector.clone();
                let gain = tr.time("gain_control.ramp", op, || {
                    run_gain_control(&mut unit, &self.config.gain_control)
                });
                self.ramps += 1;
                self.ramp_steps += gain.trace.len();
                tr.time("relay.link_on", op, || {
                    relay_link_on(&hop1, &hop2, &ap_r, &unit, hs_r.array())
                });
            }
        }
        tr.end(root);
        (decision, root)
    }
}
