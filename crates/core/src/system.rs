//! The MoVR link manager.
//!
//! Ties the pieces into the system of Fig. 5: a mmWave AP beside the PC,
//! one or more wall-mounted reflectors, and the headset. Per evaluation
//! instant the manager:
//!
//! 1. updates the propagation scene from the player's pose (her own head
//!    and hand are obstacles, plus any bystanders),
//! 2. evaluates the direct AP→headset link and each reflector path
//!    (receive beam on the calibrated AP bearing, transmit beam at the
//!    headset, gain set by the §4.2 loop), re-shading a link's
//!    remembered paths when only its obstacles changed since the last
//!    evaluation, re-tracing it only when its endpoints moved, and
//!    recomputing a link end's gain row only when the paths changed or
//!    that end's beam pattern did,
//! 3. serves the direct path while it is VR-grade, otherwise fails over
//!    to the best reflector (§4: "in the case of a blockage ... the AP
//!    steers its beam towards the MoVR reflector"),
//! 4. accounts the realignment *cost*: with §6 tracking assistance the
//!    reflector's transmit beam follows the tracked headset continuously;
//!    without it, a blockage triggers a windowed beam re-sweep whose
//!    latency stalls frames.

use crate::gain_control::{run_gain_control, run_gain_control_recorded, GainControlConfig};
use crate::reflector::MovrReflector;
use crate::relay::{relay_budget, RelayBudget};
use movr_math::{wrap_deg_180, Vec2};
use movr_motion::{LighthouseTracker, WorldState};
use movr_obs::{NullRecorder, Recorder};
use movr_phased_array::SteeredArray;
use movr_radio::{RadioEndpoint, RateTable};
use movr_rfsim::{LinkEval, LinkMemo, Reuse, Scene};
use movr_sim::SimTime;

/// Device seed of the canonical `paper_setup` reflector unit.
///
/// `MovrReflector::wall_mounted`'s seed individualises the manufactured
/// unit (leakage surface, sensor noise). The paper evaluated one physical
/// prototype; this seed selects the simulated unit that stands in for it,
/// chosen so the reflector path at the canonical posture behaves like the
/// measured device (within a few dB of the unblocked LOS, Fig. 9). Seeds
/// are unit serial numbers, not randomness knobs: changing the in-tree
/// RNG re-rolls the whole batch, and this constant is where the canonical
/// unit gets re-picked (see `tests/end_to_end.rs`).
pub const PAPER_DEVICE_SEED: u64 = 2;

/// Which path carries the data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// AP beams straight at the headset.
    Direct,
    /// AP beams at reflector `i`, which relays to the headset.
    Reflector(usize),
}

/// The manager's verdict for one instant.
#[derive(Debug, Clone, Copy)]
pub struct LinkDecision {
    /// The path chosen.
    pub mode: LinkMode,
    /// Delivered SNR, dB.
    pub snr_db: f64,
    /// 802.11ad rate at that SNR, Mb/s.
    pub rate_mbps: f64,
    /// True if the rate sustains the VR stream.
    pub supports_vr: bool,
    /// True if beams had to be re-aimed this instant.
    pub realigned: bool,
    /// Wall-clock cost of that re-aiming (zero when `realigned == false`).
    pub realignment_cost: SimTime,
}

/// System-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Serve the direct path while its SNR is at least this, dB.
    pub snr_switch_threshold_db: f64,
    /// §6 tracking-assisted realignment (true) vs sweep-on-degradation
    /// (false).
    pub use_tracking: bool,
    /// Predictive beam tracking (§6 future work): aim each transmit-beam
    /// command at where the tracked pose will be when the command takes
    /// effect, instead of where it was when the command was issued.
    /// Only meaningful with `use_tracking`.
    pub use_prediction: bool,
    /// Gain-control parameters.
    pub gain_control: GainControlConfig,
    /// Half-width of the no-tracking re-sweep window, degrees.
    pub realign_window_deg: f64,
    /// Control-channel latency per reflector beam command.
    pub beam_command_latency: SimTime,
    /// AP/headset measurement dwell per sweep step.
    pub sweep_dwell: SimTime,
    /// Fault injection: probability that a reflector beam command is
    /// lost in the control plane (the beam then holds its previous
    /// angle until the next command gets through).
    pub command_loss_probability: f64,
    /// RNG seed for the tracker and fault injection.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            snr_switch_threshold_db: movr_radio::VR_REQUIRED_SNR_DB + 2.0,
            use_tracking: true,
            use_prediction: false,
            gain_control: GainControlConfig::default(),
            realign_window_deg: 15.0,
            beam_command_latency: SimTime::from_micros(7_500),
            sweep_dwell: SimTime::from_micros(50),
            command_loss_probability: 0.0,
            seed: 0,
        }
    }
}

impl SystemConfig {
    /// The cost of a windowed re-sweep: n beam commands and n² dwells,
    /// with n = ⌊2·`realign_window_deg` + 1⌋ beams, or `None` when the
    /// window is NaN or negative (the re-sweep would cost nothing) or the
    /// cost does not fit in a [`SimTime`].
    pub(crate) fn sweep_cost(&self) -> Option<SimTime> {
        let window = self.realign_window_deg;
        if window.is_nan() || window < 0.0 {
            return None;
        }
        let n = movr_math::convert::f64_to_u64(2.0 * window + 1.0);
        let commands = n.checked_mul(self.beam_command_latency.as_nanos())?;
        let dwells = n.checked_mul(self.sweep_dwell.as_nanos())?.checked_mul(n)?;
        commands.checked_add(dwells).map(SimTime::from_nanos)
    }
}

/// The full MoVR deployment.
#[derive(Debug, Clone)]
pub struct MovrSystem {
    scene: Scene,
    ap: RadioEndpoint,
    /// The installed reflectors, in installation order.
    reflectors: Vec<Installed>,
    tracker: LighthouseTracker,
    predictor: crate::tracking::BeamPredictor,
    fault_rng: movr_math::SimRng,
    rate_table: RateTable,
    mode: LinkMode,
    config: SystemConfig,
    /// The AP → headset link.
    direct: MemoisedLink,
}

/// One installed reflector: the unit, its calibration, its beam history
/// and its two hops.
#[derive(Debug, Clone)]
struct Installed {
    unit: MovrReflector,
    /// Calibrated incidence bearing (reflector → AP).
    incidence_deg: f64,
    /// Calibrated AP bearing (AP → reflector).
    ap_to_reflector_deg: f64,
    /// Last served transmit bearing (for no-tracking staleness).
    last_tx_deg: f64,
    /// Transmit-beam command issued at the previous evaluation: it takes
    /// effect one control latency later, i.e. "now".
    commanded_tx: f64,
    /// The AP → reflector and reflector → headset hops. Like
    /// `MovrSystem`'s direct link, derived from the scene and the beams,
    /// so not checkpointed.
    hops: [MemoisedLink; 2],
}

impl Installed {
    /// The budget relayed by this reflector from `ap` to `hs` in `scene`
    /// at its current beams and gain, as `relay_link_on` computes it.
    fn relay(&mut self, scene: &Scene, ap: &RadioEndpoint, hs: &RadioEndpoint) -> RelayBudget {
        let unit = &self.unit;
        let [to_reflector, to_headset] = &mut self.hops;
        let mount = unit.position();
        let hop1_dbm = to_reflector
            .evaluate(
                scene,
                (ap.position(), ap.array()),
                ap.tx_power_dbm(),
                (mount, unit.rx_array()),
            )
            .received_dbm;
        // Hop 2 is traced and weighted only when the amplifier re-radiates.
        relay_budget(hop1_dbm, scene, unit, |out_dbm| {
            let hs_end = (hs.position(), hs.array());
            to_headset.evaluate(scene, (mount, unit.tx_array()), out_dbm, hs_end)
        })
    }
}

/// One link a deployment evaluates frame after frame: its last trace and,
/// per end, the gain row last computed over that trace.
///
/// A row is one end's gain toward every traced path (the transmit end
/// toward each departure, the receive end toward each arrival), kept with
/// the [`SteeredArray`] it was computed for. [`MemoisedLink::evaluate`]
/// traces through its [`LinkMemo`], and a [`Reuse::Retraced`] link
/// forgets both rows, so new paths are never weighted by old rows. A
/// re-shaded link keeps them: its paths and bearings are the ones they
/// were computed over. A row is recomputed when the link was re-traced
/// or when [`SteeredArray::same_pattern`] says its end's pattern
/// changed. Rows fold through the same coherent sum as
/// [`TracedLink::evaluate`](movr_rfsim::TracedLink::evaluate), so a
/// reused row gives the bits a fresh weighting would.
#[derive(Debug, Clone, Default)]
struct MemoisedLink {
    memo: LinkMemo,
    /// The transmit end's row, then the receive end's; boxed at the first
    /// trace, so an unused link stays small and cheap to build.
    rows: Option<Box<[GainRow; 2]>>,
}

/// One end's gains toward a traced link's paths, in path order, and the
/// array they were computed for (`None` while there is no row).
#[derive(Debug, Clone, Default)]
struct GainRow {
    array: Option<SteeredArray>,
    gains_dbi: Vec<f64>,
}

impl GainRow {
    /// `array`'s gains toward `bearings_deg`: the remembered row when it
    /// was computed for the same pattern, otherwise a fresh one, which is
    /// remembered.
    fn gains(&mut self, array: &SteeredArray, bearings_deg: impl Iterator<Item = f64>) -> &[f64] {
        if !self.array.as_ref().is_some_and(|a| a.same_pattern(array)) {
            self.gains_dbi.clear();
            self.gains_dbi
                .extend(bearings_deg.map(|b| array.gain_dbi(b)));
            self.array = Some(*array);
        }
        &self.gains_dbi
    }
}

impl MemoisedLink {
    /// The budget of the array at `tx` transmitting at `tx_power_dbm` to
    /// the array at `rx` in `scene`:
    /// [`TracedLink::evaluate`](movr_rfsim::TracedLink::evaluate) under
    /// their patterns, re-shaded when only the link's obstacles changed
    /// since the last call, traced afresh when its endpoints did, and
    /// weighted through the remembered rows wherever the paths and a
    /// pattern repeat.
    fn evaluate(
        &mut self,
        scene: &Scene,
        tx: (Vec2, &SteeredArray),
        tx_power_dbm: f64,
        rx: (Vec2, &SteeredArray),
    ) -> LinkEval {
        let (link, reuse) = self.memo.trace(scene, tx.0, rx.0);
        let [tx_row, rx_row] = &mut **self.rows.get_or_insert_with(Box::default);
        if reuse == Reuse::Retraced {
            tx_row.array = None;
            rx_row.array = None;
        }
        let paths = link.paths();
        let tx_gains = tx_row.gains(tx.1, paths.iter().map(|p| p.departure_deg));
        let rx_gains = rx_row.gains(rx.1, paths.iter().map(|p| p.arrival_deg));
        link.evaluate_rows(tx_power_dbm, tx_gains, rx_gains)
    }
}

impl MovrSystem {
    /// An empty deployment: AP only, no reflectors yet.
    pub fn new(scene: Scene, ap: RadioEndpoint, config: SystemConfig) -> Self {
        MovrSystem {
            scene,
            ap,
            reflectors: Vec::new(),
            tracker: LighthouseTracker::new(config.seed),
            predictor: crate::tracking::BeamPredictor::new(),
            fault_rng: movr_math::SimRng::seed_from_u64(config.seed ^ 0xFA_517),
            rate_table: RateTable,
            mode: LinkMode::Direct,
            config,
            direct: MemoisedLink::default(),
        }
    }

    /// The canonical single-reflector layout: 5 m × 5 m office, AP on the
    /// west wall, reflector high on the north wall. The short AP–reflector
    /// hop matches the paper's §5.2 observation that "the AP distance to
    /// the MoVR reflector is shorter than its distance to the headset's
    /// receiver", and the reflector sits at a moderate angular offset from
    /// the AP as seen from the play area, so a player facing the AP keeps
    /// the reflector inside her receiver's electronic scan range.
    pub fn paper_setup(config: SystemConfig) -> Self {
        let scene = Scene::paper_office();
        let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
        let mut sys = MovrSystem::new(scene, ap, config);
        sys.add_reflector(MovrReflector::wall_mounted(
            Vec2::new(1.0, 4.75),
            -70.0,
            PAPER_DEVICE_SEED,
        ));
        sys
    }

    /// Installs a reflector and calibrates its incidence angle.
    ///
    /// Calibration here uses the installed geometry (positions are known
    /// at mounting time); the §4.1 *protocol* that discovers the same
    /// angle without that knowledge is implemented in
    /// [`crate::alignment::estimate_incidence`] and validated against
    /// ground truth in the Fig. 8 benchmark.
    pub fn add_reflector(&mut self, mut unit: MovrReflector) -> usize {
        let incidence_deg = unit.position().bearing_deg_to(self.ap.position());
        let ap_to_reflector_deg = self.ap.position().bearing_deg_to(unit.position());
        unit.steer_rx(incidence_deg);
        self.reflectors.push(Installed {
            unit,
            incidence_deg,
            ap_to_reflector_deg,
            last_tx_deg: f64::NAN,
            commanded_tx: f64::NAN,
            hops: Default::default(),
        });
        self.reflectors.len() - 1
    }

    /// The scene (read access — benches inspect obstacles).
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The AP endpoint.
    pub fn ap(&self) -> &RadioEndpoint {
        &self.ap
    }

    /// Installed reflectors, in installation order.
    pub fn reflectors(&self) -> impl ExactSizeIterator<Item = &MovrReflector> {
        self.reflectors.iter().map(|r| &r.unit)
    }

    /// The current serving mode.
    pub fn mode(&self) -> LinkMode {
        self.mode
    }

    /// Builds the headset endpoint for the player's current pose.
    fn headset_for(&self, world: &WorldState) -> RadioEndpoint {
        RadioEndpoint::paper_radio(
            world.player.receiver_position(),
            world.player.receiver_boresight_deg(),
        )
    }

    /// Loads the player/world obstacles into the scene.
    fn sync_scene(&mut self, world: &WorldState) {
        self.scene.set_obstacles(world.all_obstacles());
    }

    /// SNR of `ap → hs` over the direct link, as `evaluate_link` computes
    /// it.
    fn direct_snr_db(&mut self, ap: &RadioEndpoint, hs: &RadioEndpoint) -> f64 {
        let (tx, rx) = ((ap.position(), ap.array()), (hs.position(), hs.array()));
        self.direct
            .evaluate(&self.scene, tx, ap.tx_power_dbm(), rx)
            .snr_db
    }

    /// SNR of the direct path with both ends aimed at each other, under
    /// the world's obstacles. The AP's beam and the serving mode are left
    /// as they were, but the scene's obstacles become the world's (a
    /// checkpoint captures them) and the direct link's memo takes this
    /// geometry.
    pub fn evaluate_direct(&mut self, world: &WorldState) -> f64 {
        self.sync_scene(world);
        let mut ap = self.ap;
        let mut hs = self.headset_for(world);
        ap.steer_toward(hs.position());
        hs.steer_toward(ap.position());
        self.direct_snr_db(&ap, &hs)
    }

    /// The relayed budget via reflector `i` with ideal (oracle) transmit
    /// aiming at the true receiver position — the best MoVR can do.
    /// Runs gain control for the chosen beams.
    pub fn evaluate_via_reflector(&mut self, i: usize, world: &WorldState) -> RelayBudget {
        self.sync_scene(world);
        let mut ap = self.ap;
        let mut hs = self.headset_for(world);
        let r = &mut self.reflectors[i];
        ap.steer_to(r.ap_to_reflector_deg);
        hs.steer_toward(r.unit.position());

        let tx_deg = r.unit.position().bearing_deg_to(hs.position());
        r.unit.steer_rx(r.incidence_deg);
        r.unit.steer_tx(tx_deg);
        run_gain_control(&mut r.unit, &self.config.gain_control);
        r.relay(&self.scene, &ap, &hs)
    }

    /// The cost of a no-tracking windowed re-sweep of one reflector's
    /// transmit beam against the headset's receive beam, or
    /// [`SimTime::MAX`] for a NaN or negative window or a cost that does
    /// not fit (a session rejects such a configuration).
    pub fn sweep_realignment_cost(&self) -> SimTime {
        self.config.sweep_cost().unwrap_or(SimTime::MAX)
    }

    /// The cost of a tracking-assisted realignment: one beam command.
    pub fn tracking_realignment_cost(&self) -> SimTime {
        self.config.beam_command_latency
    }

    /// Evaluates the link at time `t_s` for the given world and commits
    /// the decision (beams, mode) as persistent state.
    pub fn evaluate_at(&mut self, t_s: f64, world: &WorldState) -> LinkDecision {
        self.evaluate_at_recorded(t_s, world, &mut NullRecorder)
    }

    /// [`MovrSystem::evaluate_at`] with observability: every §4.2 gain
    /// ramp the evaluation triggers (one per reflector candidate, plus
    /// the re-run after a degraded-beam re-sweep) is recorded as a
    /// `gain_ramp` span with its `gain_step`/`gain_backoff`/`gain_ceiling`
    /// events, stamped at the evaluation instant. The decision is
    /// bit-identical to the plain call.
    pub fn evaluate_at_recorded(
        &mut self,
        t_s: f64,
        world: &WorldState,
        rec: &mut dyn Recorder,
    ) -> LinkDecision {
        let now = SimTime::from_secs_f64(t_s);
        self.sync_scene(world);
        let mut hs = self.headset_for(world);
        let tracked = self.tracker.track(t_s, &world.player);
        self.predictor.observe(t_s, tracked);

        // --- Direct candidate -------------------------------------------------
        let mut ap_direct = self.ap;
        ap_direct.steer_toward(tracked.receiver_position());
        let mut hs_direct = hs;
        hs_direct.steer_toward(ap_direct.position());
        let direct_snr = self.direct_snr_db(&ap_direct, &hs_direct);

        if direct_snr >= self.config.snr_switch_threshold_db {
            let realigned = self.mode != LinkMode::Direct;
            self.mode = LinkMode::Direct;
            self.ap = ap_direct;
            return self.decision(direct_snr, realigned, SimTime::ZERO);
        }

        // --- Reflector candidates ---------------------------------------------
        let sweep_cost = self.sweep_realignment_cost();
        let mut best: Option<(usize, f64, bool, SimTime)> = None;
        for (i, r) in self.reflectors.iter_mut().enumerate() {
            let mut ap_r = self.ap;
            ap_r.steer_to(r.ap_to_reflector_deg);
            hs.steer_toward(r.unit.position());
            r.unit.steer_rx(r.incidence_deg);

            let ideal_tx = r
                .unit
                .position()
                .bearing_deg_to(tracked.receiver_position());

            let (tx_deg, mut realigned, mut cost) = if self.config.use_tracking {
                // §6: the beam follows the tracked pose continuously. A
                // command takes one control latency to reach the
                // reflector, so the beam in effect *now* is what was
                // commanded at the previous evaluation; the command we
                // issue now aims at the pose — predicted ahead by the
                // command latency when prediction is enabled — and will
                // serve the next instant. Command traffic rides the
                // control plane asynchronously: it does not stall the
                // data stream, so the cost is zero (mode switches and
                // sweeps are the stalls).
                let command = if self.config.use_prediction {
                    let effect_at =
                        t_s + self.config.beam_command_latency.as_secs_f64();
                    self.predictor
                        .predict_bearing_from(r.unit.position(), effect_at)
                        .unwrap_or(ideal_tx)
                } else {
                    ideal_tx
                };
                let in_effect = if r.commanded_tx.is_nan() {
                    command
                } else {
                    r.commanded_tx
                };
                // Fault injection: a lost command leaves the previous
                // angle in force; the beam catches up next evaluation.
                if r.commanded_tx.is_nan()
                    || !self.fault_rng.chance(self.config.command_loss_probability)
                {
                    r.commanded_tx = command;
                }
                let moved =
                    r.last_tx_deg.is_nan() || wrap_deg_180(in_effect - r.last_tx_deg).abs() > 1.0;
                (in_effect, moved, SimTime::ZERO)
            } else if r.last_tx_deg.is_nan() {
                // First use: full windowed sweep to find the headset.
                (ideal_tx, true, sweep_cost)
            } else {
                // Keep the stale beam; a re-sweep happens only if the
                // served SNR degrades (checked below).
                (r.last_tx_deg, false, SimTime::ZERO)
            };

            r.unit.steer_tx(tx_deg);
            run_gain_control_recorded(&mut r.unit, &self.config.gain_control, now, rec);
            // Geometry is frozen for this evaluation (the scene was
            // synced above), so each relay hop is traced or re-shaded at
            // most once — not at all when it repeats the last
            // evaluation's — and a degraded-beam re-run below recomputes
            // only the reflector's transmit row.
            let mut budget = r.relay(&self.scene, &ap_r, &hs);

            if !self.config.use_tracking
                && budget.end_snr_db < self.config.snr_switch_threshold_db
            {
                // Degraded on the stale beam: pay for a re-sweep, which
                // finds the current best transmit angle.
                r.unit.steer_tx(ideal_tx);
                run_gain_control_recorded(&mut r.unit, &self.config.gain_control, now, rec);
                budget = r.relay(&self.scene, &ap_r, &hs);
                realigned = true;
                cost = sweep_cost;
            }

            r.last_tx_deg = r.unit.tx_array().steering_deg();

            if best.is_none_or(|(_, s, _, _)| budget.end_snr_db > s) {
                best = Some((i, budget.end_snr_db, realigned, cost));
            }
        }

        match best {
            Some((i, snr, realigned, cost)) if snr > direct_snr => {
                let switched = self.mode != LinkMode::Reflector(i);
                self.mode = LinkMode::Reflector(i);
                self.ap.steer_to(self.reflectors[i].ap_to_reflector_deg);
                // A path switch needs a coordinated AP + reflector
                // command round: the stream stalls for one control
                // latency (on top of any sweep already accounted).
                let cost = if switched {
                    cost.max(self.tracking_realignment_cost())
                } else {
                    cost
                };
                self.decision(snr, realigned || switched, cost)
            }
            _ => {
                // No reflector beats the (degraded) direct path.
                let realigned = self.mode != LinkMode::Direct;
                self.mode = LinkMode::Direct;
                self.ap = ap_direct;
                self.decision(direct_snr, realigned, SimTime::ZERO)
            }
        }
    }

    /// Captures every piece of mutable deployment state for a session
    /// checkpoint. Calibration (incidence/AP bearings), geometry, and
    /// config are construction inputs, not state — a restore target is
    /// expected to have been built identically.
    pub(crate) fn checkpoint(&self) -> SystemCheckpoint {
        SystemCheckpoint {
            ap_steering_deg: self.ap.array().steering_deg(),
            mode: self.mode,
            reflectors: self
                .reflectors
                .iter()
                .map(|r| ReflectorCheckpoint {
                    rx_steering_deg: r.unit.rx_array().steering_deg(),
                    tx_steering_deg: r.unit.tx_array().steering_deg(),
                    gain_db: r.unit.amplifier().gain_db(),
                    amp_enabled: r.unit.amplifier().is_enabled(),
                    modulating: r.unit.is_modulating(),
                    sensor_rng: r.unit.sensor_rng_state(),
                    last_tx_deg: r.last_tx_deg,
                    commanded_tx: r.commanded_tx,
                })
                .collect(),
            tracker: self.tracker.state(),
            predictor_history: self.predictor.history(),
            fault_rng: self.fault_rng.state(),
            obstacles: self.scene.obstacles().to_vec(),
        }
    }

    /// Applies a [`MovrSystem::checkpoint`] capture. The deployment must
    /// match the one that produced it (same reflector count; a
    /// `LinkMode::Reflector` index must name an installed unit) — the
    /// snapshot layer surfaces the returned message as a structured error.
    pub(crate) fn restore_checkpoint(
        &mut self,
        cp: SystemCheckpoint,
    ) -> Result<(), &'static str> {
        if cp.reflectors.len() != self.reflectors.len() {
            return Err("snapshot reflector count differs from the deployment");
        }
        if let LinkMode::Reflector(i) = cp.mode {
            if i >= self.reflectors.len() {
                return Err("snapshot link mode names an uninstalled reflector");
            }
        }
        // Steering and gain restores go through the normal command paths:
        // the captured values are already-applied (clamped) outputs, so
        // re-applying them is exact.
        self.ap.steer_to(cp.ap_steering_deg);
        self.mode = cp.mode;
        for (rcp, r) in cp.reflectors.into_iter().zip(&mut self.reflectors) {
            r.unit.steer_rx(rcp.rx_steering_deg);
            r.unit.steer_tx(rcp.tx_steering_deg);
            r.unit.set_gain_db(rcp.gain_db);
            r.unit.set_amplifier_enabled(rcp.amp_enabled);
            r.unit.set_modulating(rcp.modulating);
            r.unit.restore_sensor_rng_state(rcp.sensor_rng);
            r.last_tx_deg = rcp.last_tx_deg;
            r.commanded_tx = rcp.commanded_tx;
        }
        self.tracker.restore_state(cp.tracker);
        self.predictor.restore_history(cp.predictor_history);
        self.fault_rng = movr_math::SimRng::from_state(cp.fault_rng);
        self.scene.set_obstacles(cp.obstacles);
        Ok(())
    }

    fn decision(&self, snr_db: f64, realigned: bool, cost: SimTime) -> LinkDecision {
        let rate = self.rate_table.rate_mbps(snr_db);
        LinkDecision {
            mode: self.mode,
            snr_db,
            rate_mbps: rate,
            supports_vr: self.rate_table.supports_vr(snr_db),
            realigned,
            realignment_cost: if realigned { cost } else { SimTime::ZERO },
        }
    }

    /// Convenience wrapper: evaluate at t = 0.
    pub fn evaluate(&mut self, world: &WorldState) -> LinkDecision {
        self.evaluate_at(0.0, world)
    }
}

/// Every mutable field of a [`MovrSystem`] mid-session, as plain data —
/// the crate-internal transport between the deployment and the snapshot
/// codec (`crate::snapshot`).
#[derive(Debug, Clone)]
pub(crate) struct SystemCheckpoint {
    /// Applied AP steering bearing, degrees.
    pub(crate) ap_steering_deg: f64,
    /// Serving mode.
    pub(crate) mode: LinkMode,
    /// Per-reflector device state, in installation order.
    pub(crate) reflectors: Vec<ReflectorCheckpoint>,
    /// Tracker state: `(rng, last_update_s, last_pose)`.
    pub(crate) tracker: ([u64; 4], f64, Option<movr_motion::TrackedPose>),
    /// Predictor observation history, oldest first.
    pub(crate) predictor_history: Vec<(f64, movr_motion::TrackedPose)>,
    /// Fault-injection RNG state.
    pub(crate) fault_rng: [u64; 4],
    /// Scene obstacles in force at the checkpoint instant.
    pub(crate) obstacles: Vec<movr_rfsim::Obstacle>,
}

/// One reflector's mutable state within a [`SystemCheckpoint`].
#[derive(Debug, Clone)]
pub(crate) struct ReflectorCheckpoint {
    /// Applied receive-beam bearing, degrees.
    pub(crate) rx_steering_deg: f64,
    /// Applied transmit-beam bearing, degrees.
    pub(crate) tx_steering_deg: f64,
    /// Applied amplifier gain, dB.
    pub(crate) gain_db: f64,
    /// Amplifier power state.
    pub(crate) amp_enabled: bool,
    /// Backscatter modulation flag.
    pub(crate) modulating: bool,
    /// Current-sensor noise RNG state.
    pub(crate) sensor_rng: [u64; 4],
    /// Last served transmit bearing (NaN before first use).
    pub(crate) last_tx_deg: f64,
    /// In-flight transmit-beam command (NaN before first use).
    pub(crate) commanded_tx: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_motion::PlayerState;
    use movr_rfsim::{BodyPart, Obstacle};

    impl MovrSystem {
        /// Forgets every memo: all state derived from the scene and the beams
        /// (traces and gain rows), so the next evaluation computes each link
        /// afresh. The destructuring names every field, so a field added later
        /// does not compile until it is sorted here as state or as a memo.
        fn forget_memos(&mut self) {
            let MovrSystem {
                scene: _,
                ap: _,
                reflectors,
                tracker: _,
                predictor: _,
                fault_rng: _,
                rate_table: _,
                mode: _,
                config: _,
                direct,
            } = self;
            *direct = MemoisedLink::default();
            for r in reflectors {
                let Installed {
                    unit: _,
                    incidence_deg: _,
                    ap_to_reflector_deg: _,
                    last_tx_deg: _,
                    commanded_tx: _,
                    hops,
                } = r;
                *hops = Default::default();
            }
        }
    }

    fn facing_ap_player() -> PlayerState {
        // In the play area east of the room, facing the AP on the west
        // wall.
        let center = Vec2::new(4.0, 2.5);
        let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
        PlayerState::standing(center, yaw)
    }

    #[test]
    fn clear_los_serves_direct() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let world = WorldState::player_only(facing_ap_player());
        let d = sys.evaluate(&world);
        assert_eq!(d.mode, LinkMode::Direct);
        assert!(d.supports_vr, "snr={}", d.snr_db);
        assert!(d.snr_db > 17.0);
    }

    #[test]
    fn hand_blockage_fails_over_to_reflector() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let player = facing_ap_player().with_hand(true);
        let world = WorldState::player_only(player);
        let d = sys.evaluate(&world);
        assert_eq!(d.mode, LinkMode::Reflector(0), "snr={}", d.snr_db);
        assert!(d.supports_vr, "MoVR must restore VR-grade SNR: {}", d.snr_db);
    }

    #[test]
    fn failover_and_return() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let clear = WorldState::player_only(facing_ap_player());
        let blocked = WorldState::player_only(facing_ap_player().with_hand(true));

        let d1 = sys.evaluate_at(0.0, &clear);
        assert_eq!(d1.mode, LinkMode::Direct);
        let d2 = sys.evaluate_at(1.0, &blocked);
        assert_eq!(d2.mode, LinkMode::Reflector(0));
        assert!(d2.realigned);
        let d3 = sys.evaluate_at(2.0, &blocked);
        assert_eq!(d3.mode, LinkMode::Reflector(0));
        // Stable service: no further realignment while nothing moves.
        assert!(!d3.realigned);
        let d4 = sys.evaluate_at(3.0, &clear);
        assert_eq!(d4.mode, LinkMode::Direct);
    }

    #[test]
    fn head_turn_blockage_recovered() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        // Player turns 80° away from the AP — the AP leaves the receiver's
        // ±70° scan range and the head shadows the direct path, while the
        // north-wall reflector stays in the forward hemisphere.
        let player = facing_ap_player().with_yaw(100.0);
        let d = sys.evaluate(&WorldState::player_only(player));
        assert_eq!(d.mode, LinkMode::Reflector(0));
        assert!(d.snr_db > 15.0, "snr={}", d.snr_db);
    }

    #[test]
    fn bystander_blockage_recovered() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let mut world = WorldState::player_only(facing_ap_player());
        // A torso squarely on the AP↔headset line.
        world
            .others
            .push(Obstacle::new(BodyPart::Torso, Vec2::new(2.0, 2.5)));
        let d = sys.evaluate(&world);
        assert_eq!(d.mode, LinkMode::Reflector(0));
        assert!(d.supports_vr, "snr={}", d.snr_db);
    }

    #[test]
    fn command_loss_degrades_gracefully() {
        // A 30% command-loss rate on a *moving* player leaves the beam
        // stale sometimes, but the system keeps serving and recovers.
        use movr_motion::{MotionTrace, RandomWalk};
        let room = movr_rfsim::Room::paper_office();
        let trace = RandomWalk::with_gaze(&room, 42, 10.0, Vec2::new(0.5, 2.5));

        let run = |loss: f64| {
            let mut sys = MovrSystem::paper_setup(SystemConfig {
                command_loss_probability: loss,
                ..Default::default()
            });
            let mut worst = f64::INFINITY;
            let mut sum = 0.0;
            let mut n = 0;
            let mut t = 0.0;
            while t < 10.0 {
                let d = sys.evaluate_at(t, &trace.world_at(t));
                worst = worst.min(d.snr_db);
                sum += d.snr_db;
                n += 1;
                t += 1.0 / 90.0;
            }
            (sum / n as f64, worst)
        };
        let (clean_mean, _) = run(0.0);
        let (lossy_mean, lossy_worst) = run(0.3);
        // Graceful: mean within a couple of dB; still serviceable.
        assert!(
            clean_mean - lossy_mean < 2.0,
            "clean {clean_mean} lossy {lossy_mean}"
        );
        assert!(lossy_worst > -10.0, "worst {lossy_worst}");
    }

    #[test]
    fn tracking_realignment_is_cheap_sweep_is_not() {
        let sys = MovrSystem::paper_setup(SystemConfig::default());
        let track = sys.tracking_realignment_cost();
        let sweep = sys.sweep_realignment_cost();
        assert!(track < SimTime::from_millis(10), "track={track}");
        assert!(sweep > SimTime::from_millis(100), "sweep={sweep}");
        assert!(sweep.as_nanos() > 10 * track.as_nanos());
    }

    #[test]
    fn no_tracking_pays_sweep_on_blockage() {
        let cfg = SystemConfig {
            use_tracking: false,
            ..Default::default()
        };
        let mut sys = MovrSystem::paper_setup(cfg);
        let clear = WorldState::player_only(facing_ap_player());
        let blocked = WorldState::player_only(facing_ap_player().with_hand(true));
        sys.evaluate_at(0.0, &clear);
        let d = sys.evaluate_at(1.0, &blocked);
        assert_eq!(d.mode, LinkMode::Reflector(0));
        assert!(d.realigned);
        assert_eq!(d.realignment_cost, sys.sweep_realignment_cost());
    }

    #[test]
    fn checkpoint_round_trip_continues_bit_identically() {
        // Drive one system through a blockage, checkpoint mid-flight,
        // apply the capture to a freshly built twin, and require every
        // subsequent decision to match to the bit.
        let cfg = SystemConfig {
            command_loss_probability: 0.2,
            ..Default::default()
        };
        let mut live = MovrSystem::paper_setup(cfg);
        let clear = WorldState::player_only(facing_ap_player());
        let blocked = WorldState::player_only(facing_ap_player().with_hand(true));
        live.evaluate_at(0.0, &clear);
        live.evaluate_at(0.5, &blocked);

        let mut twin = MovrSystem::paper_setup(cfg);
        twin.restore_checkpoint(live.checkpoint()).unwrap();
        assert_eq!(twin.mode(), live.mode());
        for k in 1..40 {
            let t = 0.5 + k as f64 * 0.02;
            let world = if k % 3 == 0 { &clear } else { &blocked };
            let a = live.evaluate_at(t, world);
            let b = twin.evaluate_at(t, world);
            assert_eq!(a.mode, b.mode, "t={t}");
            assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits(), "t={t}");
            assert_eq!(a.realigned, b.realigned, "t={t}");
            assert_eq!(a.realignment_cost, b.realignment_cost, "t={t}");
        }
    }

    /// A decision as comparable data, every f64 by its bits.
    fn decision_bits(d: &LinkDecision) -> (LinkMode, u64, u64, bool, bool, SimTime) {
        (
            d.mode,
            d.snr_db.to_bits(),
            d.rate_mbps.to_bits(),
            d.supports_vr,
            d.realigned,
            d.realignment_cost,
        )
    }

    /// Torsos walking from their starts onto hop 1 (AP → reflector),
    /// each at its own pace, while the player holds a pose.
    struct Crowd {
        player: PlayerState,
        walkers: Vec<movr_motion::WalkerCrossing>,
        duration_s: f64,
    }

    impl movr_motion::MotionTrace for Crowd {
        fn duration_s(&self) -> f64 {
            self.duration_s
        }

        fn world_at(&self, t_s: f64) -> WorldState {
            let t = t_s.clamp(0.0, self.duration_s);
            let mut world = WorldState::player_only(self.player);
            let torsos = self.walkers.iter().map(|w| w.walker_position(t));
            world
                .others
                .extend(torsos.map(|at| Obstacle::new(BodyPart::Torso, at)));
            world
        }
    }

    /// The motion of seeded case `case` over `duration_s`: {held pose,
    /// hand raise, walker, gaze walk, crowd} by `case % 5`, drawn from
    /// `r`. In the crowd, three torsos converge on the AP → reflector
    /// line of sight while the player's raised hand blocks the direct
    /// path, so hop 1 is re-shaded each frame a torso moves: its paths
    /// hold while fewer than three torsos stand on it, and the third
    /// takes the line of sight past the tracer's 80 dB cap.
    fn case_trace(
        case: u64,
        r: &mut movr_math::SimRng,
        duration_s: f64,
    ) -> Box<dyn movr_motion::MotionTrace> {
        use movr_motion::{HandRaise, RandomWalk, StaticScene, WalkerCrossing};
        let ap = Vec2::new(0.5, 2.5);
        let d = duration_s;
        let facing_ap = |r: &mut movr_math::SimRng| {
            let pos = Vec2::new(r.uniform(2.5, 4.5), r.uniform(1.0, 4.0));
            PlayerState::standing(pos, pos.bearing_deg_to(ap) + r.uniform(-20.0, 20.0))
        };
        match case % 5 {
            0 => Box::new(StaticScene::new(facing_ap(r), d)),
            1 => Box::new(HandRaise {
                base: facing_ap(r),
                raise_at_s: r.uniform(0.0, d / 2.0),
                lower_at_s: r.uniform(d / 2.0, d),
                duration_s: d,
            }),
            2 => {
                let x = r.uniform(1.2, 2.4);
                Box::new(WalkerCrossing {
                    player: facing_ap(r),
                    from: Vec2::new(x, 1.5),
                    to: Vec2::new(x, 3.5),
                    start_s: r.uniform(0.0, d / 2.0),
                    speed_mps: 1.2,
                    duration_s: d,
                })
            }
            3 => Box::new(RandomWalk::with_gaze(
                &movr_rfsim::Room::paper_office(),
                r.next_u64(),
                d,
                ap,
            )),
            _ => {
                let player = facing_ap(r).with_hand(true);
                let reflector = Vec2::new(1.0, 4.75);
                let walkers = [0.3, 0.5, 0.7]
                    .map(|f| {
                        let to = ap.lerp(reflector, f);
                        WalkerCrossing {
                            player,
                            from: to + Vec2::new(r.uniform(0.2, 0.6), r.uniform(-0.3, 0.3)),
                            to,
                            start_s: r.uniform(0.0, d / 4.0),
                            speed_mps: r.uniform(0.8, 1.6),
                            duration_s: d,
                        }
                    })
                    .to_vec();
                Box::new(Crowd {
                    player,
                    walkers,
                    duration_s: d,
                })
            }
        }
    }

    /// The configuration of seeded case `case`: tracking on for
    /// `case % 8 < 4`, lossy commands, a seed drawn from `r`.
    fn case_config(case: u64, r: &mut movr_math::SimRng) -> SystemConfig {
        SystemConfig {
            use_tracking: case % 8 < 4,
            command_loss_probability: 0.1,
            seed: r.next_u64(),
            ..Default::default()
        }
    }

    #[test]
    fn remembered_traces_decide_bit_identically_to_fresh_ones() {
        // 64 seeded cases: {static, hand raise, walker, gaze walk,
        // crowd} × tracking on/off. A system stepped frame by frame,
        // whose memos replay every link whose geometry repeats, must
        // decide exactly like a twin whose memos are emptied before every
        // frame. Mid-run the stepped system is checkpointed and restored
        // into a unit whose memos hold another frame's geometry.
        use movr_math::SimRng;
        const FRAMES: usize = 72;
        for case in 0..64u64 {
            let mut r = SimRng::seed_from_u64(case);
            let trace = case_trace(case, &mut r, FRAMES as f64 / 90.0);
            let config = case_config(case, &mut r);
            let cut = r.uniform_usize(1, FRAMES);
            let mut live = MovrSystem::paper_setup(config);
            let mut twin = MovrSystem::paper_setup(config);
            for k in 0..FRAMES {
                let t = k as f64 / 90.0;
                let world = trace.world_at(t);
                if k == cut {
                    let mut resumed = MovrSystem::paper_setup(config);
                    resumed.evaluate_at(0.0, &trace.world_at(0.0));
                    resumed.restore_checkpoint(live.checkpoint()).unwrap();
                    live = resumed;
                }
                twin.forget_memos();
                let a = live.evaluate_at(t, &world);
                let b = twin.evaluate_at(t, &world);
                assert_eq!(
                    decision_bits(&a),
                    decision_bits(&b),
                    "case {case} frame {k}"
                );
            }
        }
    }

    /// A relay budget as comparable data, every f64 by its bits.
    type BudgetBits = (u64, u64, Option<u64>, u64, u64, u64, bool);

    fn budget_bits(b: &RelayBudget) -> BudgetBits {
        (
            b.hop1_received_dbm.to_bits(),
            b.hop1_snr_db.to_bits(),
            b.relay_output_dbm.map(f64::to_bits),
            b.hop2_received_dbm.to_bits(),
            b.hop2_snr_db.to_bits(),
            b.end_snr_db.to_bits(),
            b.saturated,
        )
    }

    #[test]
    fn remembered_rows_match_fresh_ones_under_any_interleaving() {
        // 48 seeded cases: {held pose, hand raise, walker, gaze walk,
        // crowd} × tracking on/off, half of them with a second
        // reflector. Each step makes one seeded call on the memoised
        // system, mostly `evaluate_at`, otherwise `evaluate_direct`,
        // `evaluate_via_reflector` or a checkpoint restore into a unit
        // whose memos hold another instant's geometry. A twin makes the
        // same calls after forgetting every memo, and every decision, SNR
        // and budget must match it bit for bit — whatever call re-traced
        // or re-shaded a link or re-steered a beam last.
        use movr_math::SimRng;
        const STEPS: usize = 96;
        let duration_s = STEPS as f64 / 90.0;
        for case in 0..48u64 {
            let mut r = SimRng::seed_from_u64(0x5EED_0000 + case);
            let trace = case_trace(case, &mut r, duration_s);
            let config = case_config(case, &mut r);
            let deployment = |config: SystemConfig| {
                let mut sys = MovrSystem::paper_setup(config);
                if case % 2 == 1 {
                    sys.add_reflector(MovrReflector::wall_mounted(Vec2::new(4.0, 4.75), -110.0, 3));
                }
                sys
            };
            let mut live = deployment(config);
            let mut twin = deployment(config);
            for k in 0..STEPS {
                let t = k as f64 / 90.0;
                let world = trace.world_at(t);
                let at = format!("case {case} step {k}");
                twin.forget_memos();
                match r.uniform_usize(0, 7) {
                    0..=3 => assert_eq!(
                        decision_bits(&live.evaluate_at(t, &world)),
                        decision_bits(&twin.evaluate_at(t, &world)),
                        "{at}: evaluate_at"
                    ),
                    4 => assert_eq!(
                        live.evaluate_direct(&world).to_bits(),
                        twin.evaluate_direct(&world).to_bits(),
                        "{at}: evaluate_direct"
                    ),
                    5 => {
                        let i = r.uniform_usize(0, live.reflectors().len() - 1);
                        assert_eq!(
                            budget_bits(&live.evaluate_via_reflector(i, &world)),
                            budget_bits(&twin.evaluate_via_reflector(i, &world)),
                            "{at}: evaluate_via_reflector({i})"
                        );
                    }
                    _ => {
                        let mut resumed = deployment(config);
                        let elsewhere = trace.world_at(r.uniform(0.0, duration_s));
                        resumed.evaluate_at(0.0, &elsewhere);
                        resumed.restore_checkpoint(live.checkpoint()).unwrap();
                        live = resumed;
                    }
                }
            }
        }
    }

    #[test]
    fn restore_puts_each_record_back_on_its_own_reflector() {
        // Three reflectors at distinct mounts, so any two differ in every
        // restored field, and a restore that crossed two records would
        // show. The twin first holds another instant's state.
        let deployment = || {
            let mut sys = MovrSystem::paper_setup(SystemConfig {
                command_loss_probability: 0.3,
                ..Default::default()
            });
            sys.add_reflector(MovrReflector::wall_mounted(Vec2::new(4.0, 4.75), -110.0, 3));
            sys.add_reflector(MovrReflector::wall_mounted(Vec2::new(2.5, 0.25), 90.0, 4));
            sys
        };
        let blocked = WorldState::player_only(facing_ap_player().with_hand(true));
        let mut live = deployment();
        for k in 0..6 {
            live.evaluate_at(k as f64 / 90.0, &blocked);
        }
        let mut twin = deployment();
        let turned = WorldState::player_only(facing_ap_player().with_yaw(100.0));
        twin.evaluate_at(0.0, &turned);
        twin.restore_checkpoint(live.checkpoint()).unwrap();
        let fields = |sys: &MovrSystem| -> Vec<[u64; 5]> {
            let record = |r: &Installed| {
                [
                    r.last_tx_deg,
                    r.commanded_tx,
                    r.unit.rx_array().steering_deg(),
                    r.unit.tx_array().steering_deg(),
                    r.unit.amplifier().gain_db(),
                ]
                .map(f64::to_bits)
            };
            sys.reflectors.iter().map(record).collect()
        };
        let restored = fields(&twin);
        assert_eq!(restored, fields(&live));
        for field in 0..5 {
            let values: Vec<u64> = restored.iter().map(|r| r[field]).collect();
            let distinct: std::collections::BTreeSet<_> = values.iter().collect();
            assert_eq!(distinct.len(), 3, "field {field}: {values:?}");
        }
    }

    #[test]
    fn checkpoint_rejects_mismatched_deployment() {
        let mut donor = MovrSystem::paper_setup(SystemConfig::default());
        donor.add_reflector(MovrReflector::wall_mounted(
            Vec2::new(4.0, 4.75),
            -110.0,
            3,
        ));
        let cp = donor.checkpoint();
        let mut single = MovrSystem::paper_setup(SystemConfig::default());
        assert!(single.restore_checkpoint(cp).is_err());
    }

    #[test]
    fn oracle_reflector_path_is_vr_grade() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let world = WorldState::player_only(facing_ap_player().with_hand(true));
        let b = sys.evaluate_via_reflector(0, &world);
        assert!(!b.saturated);
        assert!(b.end_snr_db > 15.0, "snr={}", b.end_snr_db);
    }

    #[test]
    fn direct_and_reflector_evaluations_are_consistent() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let world = WorldState::player_only(facing_ap_player());
        let direct = sys.evaluate_direct(&world);
        let via = sys.evaluate_via_reflector(0, &world).end_snr_db;
        let decision = sys.evaluate(&world);
        // The committed decision matches the better candidate (direct is
        // preferred when above threshold). Each evaluation draws fresh
        // tracker noise from the shared RNG stream, so two measurements
        // of the same pose differ at noise scale — compare with a
        // noise-sized tolerance, not bit-exactly.
        assert!(
            decision.snr_db >= direct.min(via) - 0.1,
            "decision={} direct={} via={} mode={:?}",
            decision.snr_db,
            direct,
            via,
            decision.mode
        );
    }
}
