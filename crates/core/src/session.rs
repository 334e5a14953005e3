//! End-to-end VR sessions.
//!
//! Drives a motion trace through the link manager at the display's 90 Hz
//! frame cadence and accounts every frame: did it arrive within the
//! motion-to-photon budget, given the link's instantaneous rate and any
//! beam-realignment stall in progress? The output is the player-facing
//! quality the paper argues MoVR delivers and the baselines do not.
//!
//! The loop is exposed two ways: the one-shot [`run_session`] family, and
//! the stepwise [`Session`], which advances one frame per call and keeps
//! *all* mutable state in a [`SessionState`] — the unit the checkpoint
//! codec ([`crate::snapshot::Snapshot`]) serialises, so a session can be
//! cut at any frame boundary, round-tripped through bytes, and resumed
//! bit-identically.

use crate::system::{LinkMode, MovrSystem, SystemConfig};
use movr_math::convert::{f64_to_u64, u64_to_f64, usize_to_f64, usize_to_u64};
use movr_math::{SimRng, Summary};
use movr_motion::MotionTrace;
use movr_obs::{Event, Histogram, MetricsSnapshot, NullRecorder, Recorder};
use movr_radio::{FrameConfig, McsEntry, PerModel, RateAdapter};
use movr_sim::SimTime;
use movr_vr::{GlitchReport, GlitchTracker, LatencyBudget, VrTrafficModel};

pub use movr_radio::RatePolicy;

/// How the session is linked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// HDMI cable: every frame arrives (the tethered reference).
    Tethered,
    /// mmWave direct path only, beams always mutually aimed — what a
    /// WHDI-class link with perfect steering but no reflector achieves.
    DirectOnly,
    /// The full MoVR system; `tracking` selects §6's fast realignment.
    Movr {
        /// Enable §6 fast realignment from headset pose tracking.
        tracking: bool,
    },
}

/// Session parameters.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Which link strategy the session runs (§3 baselines or MoVR).
    pub strategy: Strategy,
    /// VR traffic generator parameters.
    pub traffic: VrTrafficModel,
    /// Motion-to-photon latency budget.
    pub latency: LatencyBudget,
    /// Physical-layer system parameters.
    pub system: SystemConfig,
    /// MCS selection policy.
    pub rate_policy: RatePolicy,
    /// 802.11ad PPDU framing used for airtime accounting.
    pub framing: FrameConfig,
    /// RMS noise on the SNR reports fed to non-oracle policies, dB.
    pub snr_report_sigma_db: f64,
}

impl SessionConfig {
    /// A session with the given strategy and all defaults (oracle rate
    /// selection, standard framing).
    pub fn with_strategy(strategy: Strategy) -> Self {
        let mut system = SystemConfig::default();
        if let Strategy::Movr { tracking } = strategy {
            system.use_tracking = tracking;
        }
        SessionConfig {
            strategy,
            traffic: VrTrafficModel::vive(),
            latency: LatencyBudget::default(),
            system,
            rate_policy: RatePolicy::Oracle,
            framing: FrameConfig::default(),
            snr_report_sigma_db: 0.5,
        }
    }
}

/// What a session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Session length, seconds.
    pub duration_s: f64,
    /// Frame-delivery accounting.
    pub glitches: GlitchReport,
    /// Mean link SNR across the frames with a finite SNR, dB; +∞ when
    /// there are none (every tethered frame is +∞).
    pub mean_snr_db: f64,
    /// Worst finite frame SNR, dB; +∞ when there is none.
    pub min_snr_db: f64,
    /// Mode switches (direct ↔ reflector).
    pub mode_switches: usize,
    /// Realignment events.
    pub realignments: usize,
    /// Fraction of frames served via a reflector.
    pub reflector_fraction: f64,
    /// Structured session metrics: counters (`frames_*`, `mode_switches`,
    /// `rate_up`, ...) and histograms (`frame_snr_db`, `frame_airtime_ns`,
    /// `realign_stall_ns`), built from the session's typed accounting. A
    /// counter appears once it is non-zero, a histogram once it has been
    /// observed into; always populated, independent of any event recorder.
    pub metrics: MetricsSnapshot,
}

impl SessionOutcome {
    /// Grades the session with the default QoE model.
    pub fn grade(&self) -> movr_vr::QualityGrade {
        movr_vr::QualityModel::default().grade(&self.glitches, self.duration_s)
    }
}

/// Every piece of mid-session mutable state, in one struct. This is the
/// exact unit the checkpoint codec serialises: anything the frame loop
/// reads *and* writes lives here, while [`SessionConfig`] (and the
/// deployment's calibration/geometry) are construction inputs that a
/// restore target must supply identically. Fields are crate-private; the
/// public surface is [`Session`] plus [`crate::snapshot::Snapshot`].
///
/// The typed fields are the session's only accounting: the frame count
/// is the glitch tracker's, the worst SNR is the SNR histogram's exact
/// minimum, and [`Session::outcome`] derives the metrics snapshot.
pub struct SessionState {
    pub(crate) system: MovrSystem,
    pub(crate) adapter: RateAdapter,
    pub(crate) report_rng: SimRng,
    pub(crate) glitches: GlitchTracker,
    /// Sum of the finite frame SNRs: the reported mean is this over the
    /// finite count, which is not bit-identical to the Welford mean.
    pub(crate) snr_sum: f64,
    pub(crate) mode_switches: usize,
    pub(crate) realignments: usize,
    pub(crate) reflector_frames: usize,
    pub(crate) rate_up: usize,
    pub(crate) rate_down: usize,
    pub(crate) rate_outage: usize,
    pub(crate) last_mode: Option<LinkMode>,
    /// The link is unusable until this instant while a sweep is running.
    pub(crate) blocked_until: SimTime,
    // `frame_snr_db`, `frame_airtime_ns` and `realign_stall_ns`, each
    // created by its first observation.
    pub(crate) snr_hist: Option<Histogram>,
    pub(crate) airtime_hist: Option<Histogram>,
    pub(crate) stall_hist: Option<Histogram>,
    /// The session clock: the instant of the last processed frame (zero
    /// before the first).
    pub(crate) now: SimTime,
    /// The instant of the next frame: zero at the start, then one frame
    /// interval after `now`.
    pub(crate) next_frame: SimTime,
}

// Bucket layouts of the session histograms. A snapshot stores only their
// counts, so changing a layout changes the snapshot format.
pub(crate) fn snr_layout() -> Histogram {
    Histogram::linear(-10.0, 50.0, 60)
}
pub(crate) fn airtime_layout() -> Histogram {
    Histogram::log_spaced(1e5, 1e8, 30)
}
pub(crate) fn stall_layout() -> Histogram {
    Histogram::log_spaced(1e6, 1e10, 24)
}

/// A stepwise VR session: the frame loop of [`run_session`] opened up at
/// the frame boundary. Each [`Session::step_frame`] call processes
/// exactly one frame and advances the frame clock one frame interval;
/// between calls the session is a plain value that can be checkpointed
/// with [`Session::snapshot`] and later resumed with
/// [`Session::restore`], continuing bit-identically — same RNG draws,
/// same metrics, same recorded timeline.
pub struct Session {
    config: SessionConfig,
    state: SessionState,
}

/// The largest `traffic.frame_bits` a session runs: 2^53, the largest
/// bit count an `f64` holds exactly.
const MAX_FRAME_BITS: f64 = 9_007_199_254_740_992.0;

/// Why `config` cannot run a session, if it cannot: a
/// `traffic.refresh_hz` that gives no frame interval of at least 1 ns (a
/// rate that is zero, negative or NaN, or one above 2 GHz, whose interval
/// rounds to 0 ns and would stop the frame clock), a `traffic.frame_bits`
/// that is NaN, negative or above [`MAX_FRAME_BITS`], a
/// `system.command_loss_probability` outside [0, 1] (which
/// [`SimRng::chance`] clamps) or NaN (which it reads as "never lost"), a
/// NaN `system.snr_switch_threshold_db` (no frame would ever be served
/// direct), a `system.realign_window_deg` that is NaN or negative (the
/// re-sweep would cost nothing) or whose re-sweep cost, with
/// `beam_command_latency` and `sweep_dwell`, does not fit in a
/// [`SimTime`], an `snr_report_sigma_db` that is negative, NaN or
/// infinite (a NaN makes every noisy report NaN), or a hysteresis rate
/// policy with `up_count = 0`, which [`RateAdapter::new`] rejects.
pub(crate) fn config_error(config: &SessionConfig) -> Option<String> {
    let hz = config.traffic.refresh_hz;
    // `VrTrafficModel::frame_interval` without its panic on a negative,
    // NaN or infinite interval.
    let interval = SimTime::try_from_secs_f64(1.0 / hz);
    if interval.is_none_or(|t| t <= SimTime::ZERO) {
        return Some(format!(
            "refresh_hz = {hz} Hz gives no frame interval of at least 1 ns; \
             it must be positive and at most 2 GHz"
        ));
    }
    let bits = config.traffic.frame_bits;
    if !(0.0..=MAX_FRAME_BITS).contains(&bits) {
        return Some(format!(
            "frame_bits = {bits:?} is not a frame size; \
             it must be a bit count from 0 to 2^53"
        ));
    }
    let loss = config.system.command_loss_probability;
    if !(0.0..=1.0).contains(&loss) {
        return Some(format!(
            "command_loss_probability = {loss:?} is not a probability; \
             it must be from 0 to 1"
        ));
    }
    let threshold = config.system.snr_switch_threshold_db;
    if threshold.is_nan() {
        return Some(format!(
            "snr_switch_threshold_db = {threshold:?} dB is not a threshold; \
             no frame would be served direct"
        ));
    }
    let s = &config.system;
    if s.sweep_cost().is_none() {
        return Some(format!(
            "realign_window_deg = {:?} with beam_command_latency = {} ns and sweep_dwell = {} ns \
             gives no re-sweep cost; the window must be at least 0 and the cost below 2^64 ns",
            s.realign_window_deg,
            s.beam_command_latency.as_nanos(),
            s.sweep_dwell.as_nanos()
        ));
    }
    let sigma = config.snr_report_sigma_db;
    if !(sigma.is_finite() && sigma >= 0.0) {
        return Some(format!(
            "snr_report_sigma_db = {sigma:?} dB is not a noise level; \
             it must be finite and at least 0"
        ));
    }
    if let RatePolicy::HysteresisPolicy { up_count: 0, .. } = config.rate_policy {
        return Some(
            "up_count = 0 under the hysteresis rate policy; \
             an upgrade needs at least 1 qualifying report"
                .to_string(),
        );
    }
    None
}

impl Session {
    /// A session over the canonical single-reflector deployment.
    pub fn new(config: &SessionConfig) -> Self {
        Session::on_system(MovrSystem::paper_setup(config.system), config)
    }

    /// A session over a caller-built deployment (see [`run_session_on`]).
    ///
    /// # Panics
    /// Panics if `config.traffic.refresh_hz` does not give a frame
    /// interval of at least 1 ns (a rate that is zero, negative or NaN,
    /// or one above 2 GHz, whose interval rounds to 0 ns and would stop
    /// the frame clock), if `config.traffic.frame_bits` is NaN, negative
    /// or above 2^53, if `config.system.command_loss_probability` is
    /// outside [0, 1] or NaN, if `config.system.snr_switch_threshold_db`
    /// is NaN, if the no-tracking re-sweep's window or cost is out of range,
    /// if `config.snr_report_sigma_db` is negative, NaN or infinite, or if
    /// the rate policy is hysteresis with `up_count = 0`.
    pub fn on_system(system: MovrSystem, config: &SessionConfig) -> Self {
        if let Some(why) = config_error(config) {
            panic!("{why}");
        }
        Session {
            config: *config,
            state: SessionState {
                system,
                adapter: RateAdapter::new(config.rate_policy),
                report_rng: SimRng::seed_from_u64(config.system.seed ^ 0x5E55_1055),
                glitches: GlitchTracker::new(),
                snr_sum: 0.0,
                mode_switches: 0,
                realignments: 0,
                reflector_frames: 0,
                rate_up: 0,
                rate_down: 0,
                rate_outage: 0,
                last_mode: None,
                blocked_until: SimTime::ZERO,
                snr_hist: None,
                airtime_hist: None,
                stall_hist: None,
                now: SimTime::ZERO,
                next_frame: SimTime::ZERO,
            },
        }
    }

    /// Reassembles a session from decoded parts (checkpoint restore),
    /// whose caller has checked `config` with [`config_error`].
    pub(crate) fn from_parts(config: SessionConfig, state: SessionState) -> Self {
        Session { config, state }
    }

    /// The configuration the session runs under.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The session's mutable state (checkpoint capture).
    pub(crate) fn state(&self) -> &SessionState {
        &self.state
    }

    /// Frames processed so far.
    pub fn frames(&self) -> usize {
        self.state.glitches.frames_total()
    }

    /// The session clock: the instant of the last processed frame (zero
    /// before the first).
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// Serialises the session's entire mutable state to the versioned
    /// snapshot format (see [`crate::snapshot`]).
    pub fn snapshot(&self) -> Vec<u8> {
        crate::snapshot::Snapshot::capture(self)
    }

    /// Restores a [`Session::snapshot`] onto the canonical deployment.
    /// `config` must fingerprint-match the capturing session's config.
    pub fn restore(
        bytes: &[u8],
        config: &SessionConfig,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        crate::snapshot::Snapshot::restore(bytes, config)
    }

    /// Processes the next frame, if it is due within the trace's
    /// duration. Returns `false` when the session is over.
    pub fn step_frame(&mut self, trace: &dyn MotionTrace) -> bool {
        self.step_frame_recorded(trace, &mut NullRecorder)
    }

    /// [`Session::step_frame`] with observability (the event vocabulary
    /// is documented on [`run_session_recorded`]).
    pub fn step_frame_recorded(
        &mut self,
        trace: &dyn MotionTrace,
        rec: &mut dyn Recorder,
    ) -> bool {
        let config = self.config;
        let st = &mut self.state;
        let now = st.next_frame;
        if now > SimTime::from_secs_f64(trace.duration_s()) {
            return false;
        }
        st.now = now;
        let per_model = PerModel::default();
        let t_s = now.as_secs_f64();
        let world = trace.world_at(t_s);

        let mut frame_mode: Option<LinkMode> = None;
        let snr_db = match config.strategy {
            Strategy::Tethered => f64::INFINITY,
            Strategy::DirectOnly => st.system.evaluate_direct(&world),
            Strategy::Movr { .. } => {
                let d = st.system.evaluate_at_recorded(t_s, &world, rec);
                if d.realigned {
                    st.realignments += 1;
                    let done = now.saturating_add(d.realignment_cost);
                    st.blocked_until = st.blocked_until.max(done);
                    if d.realignment_cost > SimTime::ZERO {
                        st.stall_hist
                            .get_or_insert_with(stall_layout)
                            .observe(u64_to_f64(d.realignment_cost.as_nanos()));
                    }
                    if rec.enabled() {
                        rec.record(
                            Event::new(now, "realign")
                                .with("mode", mode_name(d.mode))
                                .with("cost_ns", d.realignment_cost),
                        );
                        if d.realignment_cost > SimTime::ZERO {
                            let id = rec.start_span(now, "realign_stall");
                            rec.end_span(done, "realign_stall", id);
                        }
                    }
                }
                if st.last_mode != Some(d.mode) {
                    if st.last_mode.is_some() {
                        st.mode_switches += 1;
                    }
                    if rec.enabled() {
                        let mut e = Event::new(now, "mode_switch")
                            .with("to", mode_name(d.mode));
                        if let Some(prev) = st.last_mode {
                            e = e.with("from", mode_name(prev));
                        }
                        if let LinkMode::Reflector(i) = d.mode {
                            e = e.with("reflector", usize_to_u64(i));
                        }
                        rec.record(e);
                    }
                    st.last_mode = Some(d.mode);
                }
                if matches!(d.mode, LinkMode::Reflector(_)) {
                    st.reflector_frames += 1;
                }
                frame_mode = Some(d.mode);
                d.snr_db
            }
        };

        if snr_db.is_finite() {
            st.snr_sum += snr_db;
        }
        st.snr_hist.get_or_insert_with(snr_layout).observe(snr_db);

        let mut frame_mcs: Option<&'static McsEntry> = None;
        let mut frame_airtime: Option<SimTime> = None;
        let delivered = if config.strategy == Strategy::Tethered {
            true
        } else {
            // The transmitter picks an MCS from its (possibly noisy) SNR
            // report; the frame then needs its PPDU burst — inflated by
            // the expected retransmissions at the true SNR's PER — to fit
            // the latency budget together with any realignment stall.
            let report = match config.rate_policy {
                RatePolicy::Oracle => snr_db,
                _ => snr_db + st.report_rng.normal(0.0, config.snr_report_sigma_db),
            };
            let before = st.adapter.current();
            let chosen = st.adapter.on_snr_report(report);
            // Each MCS change is classified once: its counter, and its
            // event when a recorder listens. Steady-state reports stay
            // silent so a 90 Hz report stream doesn't flood the timeline.
            let change = match (before.map(|m| m.index), chosen.map(|m| m.index)) {
                (Some(b), Some(a)) if a > b => {
                    st.rate_up += 1;
                    Some("rate_up")
                }
                (Some(b), Some(a)) if a < b => {
                    st.rate_down += 1;
                    Some("rate_down")
                }
                (Some(_), None) => {
                    st.rate_outage += 1;
                    Some("rate_outage")
                }
                (None, Some(_)) => Some("rate_restore"),
                _ => None,
            };
            if let Some(kind) = change.filter(|_| rec.enabled()) {
                let mut e = Event::new(now, kind).with("snr_report_db", report);
                if let Some(m) = before {
                    e = e.with("from_mcs", usize_to_u64(m.index));
                }
                if let Some(m) = chosen {
                    e = e.with("to_mcs", usize_to_u64(m.index));
                }
                rec.record(e);
            }
            match chosen {
                None => false,
                Some(mcs) => {
                    frame_mcs = Some(mcs);
                    let per = per_model.per(mcs, snr_db).min(0.99);
                    let base = config
                        .framing
                        .burst_airtime(mcs, f64_to_u64(config.traffic.frame_bits));
                    let airtime =
                        SimTime::from_secs_f64(base.as_secs_f64() / (1.0 - per));
                    frame_airtime = Some(airtime);
                    st.airtime_hist
                        .get_or_insert_with(airtime_layout)
                        .observe(u64_to_f64(airtime.as_nanos()));
                    let stall = st.blocked_until.saturating_since(now);
                    config.latency.meets_deadline(airtime, stall)
                }
            }
        };
        let stall_before = st.glitches.current_stall_frames();
        st.glitches.record(delivered);
        if rec.enabled() {
            if delivered && stall_before > 0 {
                rec.record(
                    Event::new(now, "stall_recovered").with("stall_frames", stall_before),
                );
            }
            let mut e = Event::new(now, "frame")
                .with("delivered", delivered)
                .with("snr_db", snr_db)
                .with("stall_ns", st.blocked_until.saturating_since(now));
            if let Some(mcs) = frame_mcs {
                e = e.with("mcs", usize_to_u64(mcs.index));
            }
            if let Some(airtime) = frame_airtime {
                e = e.with("airtime_ns", airtime);
            }
            if let Some(mode) = frame_mode {
                e = e.with("mode", mode_name(mode));
                if let LinkMode::Reflector(i) = mode {
                    e = e.with("reflector", usize_to_u64(i));
                }
            }
            rec.record(e);
        }

        st.next_frame = now + config.traffic.frame_interval();
        true
    }

    /// The session's accounting so far, graded against `duration_s`
    /// (callers pass the trace duration; a finished session's outcome is
    /// what [`run_session`] returns).
    pub fn outcome(&self, duration_s: f64) -> SessionOutcome {
        let st = &self.state;
        let glitches = st.glitches.report();
        let frames = glitches.frames_total;
        let snr = st.snr_hist.as_ref().map(Histogram::summary);
        let finite = snr.map_or(0, Summary::count);
        SessionOutcome {
            duration_s,
            glitches,
            mean_snr_db: if finite == 0 {
                f64::INFINITY
            } else {
                st.snr_sum / usize_to_f64(finite)
            },
            min_snr_db: snr.map_or(f64::INFINITY, Summary::min),
            mode_switches: st.mode_switches,
            realignments: st.realignments,
            reflector_fraction: if frames == 0 {
                0.0
            } else {
                usize_to_f64(st.reflector_frames) / usize_to_f64(frames)
            },
            metrics: metrics_snapshot(st, &glitches),
        }
    }
}

/// The session's metrics, derived from its typed accounting: a counter
/// appears once it is non-zero and a histogram once it exists, each list
/// sorted by name.
fn metrics_snapshot(st: &SessionState, glitches: &GlitchReport) -> MetricsSnapshot {
    let counters = [
        ("frames_delivered", glitches.frames_delivered),
        (
            "frames_missed",
            glitches.frames_total - glitches.frames_delivered,
        ),
        ("frames_total", glitches.frames_total),
        ("mode_switches", st.mode_switches),
        ("rate_down", st.rate_down),
        ("rate_outage", st.rate_outage),
        ("rate_up", st.rate_up),
        ("realignments", st.realignments),
        ("reflector_frames", st.reflector_frames),
    ];
    let histograms = [
        ("frame_airtime_ns", &st.airtime_hist),
        ("frame_snr_db", &st.snr_hist),
        ("realign_stall_ns", &st.stall_hist),
    ];
    MetricsSnapshot {
        counters: counters
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| (name.to_string(), usize_to_u64(n)))
            .collect(),
        gauges: Vec::new(),
        histograms: histograms
            .into_iter()
            .filter_map(|(name, h)| Some((name.to_string(), h.clone()?)))
            .collect(),
    }
}

/// Runs a session over `trace` under `config`, using the canonical
/// single-reflector deployment.
pub fn run_session(trace: &dyn MotionTrace, config: &SessionConfig) -> SessionOutcome {
    run_session_on(MovrSystem::paper_setup(config.system), trace, config)
}

/// [`run_session`] with observability. Per frame it emits one `frame`
/// event (`delivered`, `snr_db`, `mcs` when transmitting, `stall_ns`,
/// `mode`/`reflector` for MoVR strategies); transitions add
/// `mode_switch`, `realign` (with a `realign_stall` span covering the
/// blocked interval), `stall_recovered` (with the run length the player
/// just sat through), one `rate_up`/`rate_down`/`rate_outage`/
/// `rate_restore` per MCS change (`snr_report_db`, plus `from_mcs` and
/// `to_mcs` where the link had or has an MCS), and the gain-control
/// events of the layers underneath. The outcome — including the
/// `metrics` snapshot, which is collected whether or not events are
/// recorded — is bit-identical under any recorder: observation never
/// draws RNG.
pub fn run_session_recorded(
    trace: &dyn MotionTrace,
    config: &SessionConfig,
    rec: &mut dyn Recorder,
) -> SessionOutcome {
    let mut session = Session::new(config);
    while session.step_frame_recorded(trace, rec) {}
    session.outcome(trace.duration_s())
}

/// Runs a session on a caller-built deployment — multi-reflector
/// layouts, L-shaped rooms, non-default calibration. The system should
/// have been built with `config.system` (or equivalent) so its tracking
/// and realignment behaviour matches the session's accounting.
pub fn run_session_on(
    system: MovrSystem,
    trace: &dyn MotionTrace,
    config: &SessionConfig,
) -> SessionOutcome {
    let mut session = Session::on_system(system, config);
    while session.step_frame(trace) {}
    session.outcome(trace.duration_s())
}

/// Stable short name for a link mode, for event fields.
fn mode_name(mode: LinkMode) -> &'static str {
    match mode {
        LinkMode::Direct => "direct",
        LinkMode::Reflector(_) => "reflector",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::Vec2;
    use movr_motion::{HandRaise, PlayerState, StaticScene};

    fn facing_ap() -> PlayerState {
        let center = Vec2::new(4.0, 2.5);
        let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
        PlayerState::standing(center, yaw)
    }

    #[test]
    fn tethered_session_is_perfect() {
        let trace = StaticScene::new(facing_ap(), 2.0);
        let out = run_session(&trace, &SessionConfig::with_strategy(Strategy::Tethered));
        assert_eq!(out.glitches.loss_rate, 0.0);
        assert!(out.glitches.frames_total > 170);
        // A cable has no link SNR: no finite frame, so the mean is +∞.
        assert_eq!(out.mean_snr_db, f64::INFINITY);
        assert!(out.min_snr_db <= out.mean_snr_db);
    }

    /// A session at `refresh_hz` over a short static trace, run to its end.
    fn run_at_refresh(refresh_hz: f64) {
        let mut cfg = SessionConfig::with_strategy(Strategy::Tethered);
        cfg.traffic.refresh_hz = refresh_hz;
        run_session(&StaticScene::new(facing_ap(), 0.01), &cfg);
    }

    #[test]
    #[should_panic(expected = "refresh_hz = 0 Hz")]
    fn zero_refresh_rate_is_rejected() {
        run_at_refresh(0.0);
    }

    #[test]
    #[should_panic(expected = "refresh_hz = NaN Hz")]
    fn nan_refresh_rate_is_rejected() {
        run_at_refresh(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "refresh_hz = 3000000000 Hz")]
    fn refresh_rate_with_a_zero_ns_frame_interval_is_rejected() {
        // 1 / 3 GHz is a third of a nanosecond, which rounds to 0 ns: the
        // frame clock would never advance.
        run_at_refresh(3e9);
    }

    #[test]
    #[should_panic(expected = "frame_bits = 1.7976931348623157e308")]
    fn unbounded_frame_size_is_rejected() {
        let mut cfg = SessionConfig::with_strategy(Strategy::DirectOnly);
        cfg.traffic.frame_bits = f64::MAX;
        Session::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "realign_window_deg = NaN with")]
    fn nan_realign_window_is_rejected() {
        // At a NaN window the no-tracking re-sweep cost 0 ns.
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: false });
        cfg.system.realign_window_deg = f64::NAN;
        Session::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "realign_window_deg = -0.4 with")]
    fn negative_realign_window_is_rejected() {
        // ⌊2 · (−0.4) + 1⌋ = 0 beams: the re-sweep cost 0 ns.
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: false });
        cfg.system.realign_window_deg = -0.4;
        Session::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "realign_window_deg = 10000000.0 with")]
    fn overflowing_re_sweep_cost_is_rejected() {
        // 2e7 + 1 beams: n² dwells of 50 µs are about 2.0e19 ns; 2^64 ns is
        // about 1.8e19.
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: false });
        cfg.system.realign_window_deg = 1e7;
        Session::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "command_loss_probability = 1.5 is not a probability")]
    fn out_of_range_command_loss_is_rejected() {
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
        cfg.system.command_loss_probability = 1.5;
        Session::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "snr_switch_threshold_db = NaN dB")]
    fn nan_switch_threshold_is_rejected() {
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
        cfg.system.snr_switch_threshold_db = f64::NAN;
        Session::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "snr_report_sigma_db = -0.5 dB is not a noise level")]
    fn negative_report_noise_is_rejected() {
        let mut cfg = SessionConfig::with_strategy(Strategy::DirectOnly);
        cfg.snr_report_sigma_db = -0.5;
        Session::new(&cfg);
    }

    #[test]
    fn a_realignment_past_the_clock_limit_saturates_it() {
        // One command of 2^64 − 11 ns is a re-sweep cost that fits, so the
        // config is accepted, but the frame time plus it does not: the
        // first reflector frame of the hand raise overflowed the clock.
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: false });
        cfg.system.realign_window_deg = 0.0;
        cfg.system.sweep_dwell = SimTime::ZERO;
        cfg.system.beam_command_latency = SimTime::from_nanos(u64::MAX - 10);
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 0.2,
            lower_at_s: 0.6,
            duration_s: 0.8,
        };
        let mut session = Session::new(&cfg);
        while session.step_frame(&trace) {}
        let state = session.state();
        assert!(state.realignments > 0, "the hand raise realigns");
        assert_eq!(state.blocked_until, SimTime::MAX);
    }

    #[test]
    fn the_largest_frame_size_steps() {
        // 2^53 bits is about 4.3e9 full PPDUs per frame; each frame's
        // airtime is one product over them, not a loop.
        for strategy in [Strategy::DirectOnly, Strategy::Movr { tracking: true }] {
            let mut cfg = SessionConfig::with_strategy(strategy);
            cfg.traffic.frame_bits = MAX_FRAME_BITS;
            let trace = StaticScene::new(facing_ap(), 1.0);
            let mut session = Session::new(&cfg);
            for frame in 0..3 {
                assert!(session.step_frame(&trace), "{strategy:?} frame {frame}");
            }
        }
    }

    #[test]
    fn clear_static_direct_session_is_clean() {
        let trace = StaticScene::new(facing_ap(), 2.0);
        let out = run_session(&trace, &SessionConfig::with_strategy(Strategy::DirectOnly));
        assert_eq!(out.glitches.loss_rate, 0.0, "mean snr {}", out.mean_snr_db);
    }

    #[test]
    fn hand_raise_glitches_direct_but_not_movr() {
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 1.0,
            lower_at_s: 3.0,
            duration_s: 4.0,
        };
        let direct = run_session(&trace, &SessionConfig::with_strategy(Strategy::DirectOnly));
        let movr = run_session(
            &trace,
            &SessionConfig::with_strategy(Strategy::Movr { tracking: true }),
        );
        // Direct loses the entire 2 s of blockage (~50% of frames).
        assert!(
            direct.glitches.loss_rate > 0.4,
            "direct loss {}",
            direct.glitches.loss_rate
        );
        // MoVR rides the reflector through it.
        assert!(
            movr.glitches.loss_rate < 0.05,
            "movr loss {}",
            movr.glitches.loss_rate
        );
        assert!(movr.reflector_fraction > 0.3);
        assert!(movr.mode_switches >= 1);
    }

    #[test]
    fn tracking_beats_sweeping_on_stalls() {
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 1.0,
            lower_at_s: 3.0,
            duration_s: 4.0,
        };
        let tracked = run_session(
            &trace,
            &SessionConfig::with_strategy(Strategy::Movr { tracking: true }),
        );
        let swept = run_session(
            &trace,
            &SessionConfig::with_strategy(Strategy::Movr { tracking: false }),
        );
        assert!(
            tracked.glitches.longest_stall_frames <= swept.glitches.longest_stall_frames,
            "tracked stall {} vs swept {}",
            tracked.glitches.longest_stall_frames,
            swept.glitches.longest_stall_frames
        );
        assert!(tracked.glitches.loss_rate <= swept.glitches.loss_rate + 1e-9);
    }

    #[test]
    fn session_grading() {
        // Tethered is indistinguishable from a cable; direct-only through
        // a long blockage is at best poor.
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 1.0,
            lower_at_s: 3.0,
            duration_s: 4.0,
        };
        let tethered = run_session(&trace, &SessionConfig::with_strategy(Strategy::Tethered));
        assert_eq!(tethered.grade(), movr_vr::QualityGrade::Excellent);
        let direct = run_session(&trace, &SessionConfig::with_strategy(Strategy::DirectOnly));
        assert!(direct.grade() <= movr_vr::QualityGrade::Poor, "{:?}", direct.grade());
        // MoVR drops ~a frame per failover; in a short window with two
        // transitions that honestly grades Fair — still far above the
        // direct path's experience.
        let movr = run_session(
            &trace,
            &SessionConfig::with_strategy(Strategy::Movr { tracking: true }),
        );
        assert!(movr.grade() >= movr_vr::QualityGrade::Fair, "{:?}", movr.grade());
        assert!(movr.grade() > direct.grade());
    }

    #[test]
    fn rate_policies_rank_sensibly() {
        // On a clear static link, the oracle and a mild hysteresis policy
        // both deliver everything; an over-conservative backoff can cost
        // frames (it may pick an MCS too slow for the frame interval).
        let trace = StaticScene::new(facing_ap(), 2.0);
        let mut oracle = SessionConfig::with_strategy(Strategy::DirectOnly);
        oracle.rate_policy = RatePolicy::Oracle;
        let mut hyst = oracle;
        hyst.rate_policy = RatePolicy::HysteresisPolicy {
            up_margin_db: 1.0,
            up_count: 3,
            backoff_db: 0.5,
        };
        let mut timid = oracle;
        timid.rate_policy = RatePolicy::Threshold { backoff_db: 8.0 };

        let o = run_session(&trace, &oracle).glitches.loss_rate;
        let h = run_session(&trace, &hyst).glitches.loss_rate;
        let t = run_session(&trace, &timid).glitches.loss_rate;
        assert_eq!(o, 0.0);
        assert!(h <= o + 0.05, "hysteresis {h}");
        assert!(t >= h, "an 8 dB backoff can't beat a tuned policy");
    }

    #[test]
    fn noisy_reports_are_reproducible() {
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 0.5,
            lower_at_s: 1.0,
            duration_s: 2.0,
        };
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
        cfg.rate_policy = RatePolicy::Threshold { backoff_db: 1.0 };
        let a = run_session(&trace, &cfg);
        let b = run_session(&trace, &cfg);
        assert_eq!(a.glitches, b.glitches);
    }

    #[test]
    fn framing_overhead_shifts_the_viability_edge() {
        // At MCS 12 (4.62 Gb/s) the 44.4 Mbit frame takes ~9.6 ms of
        // payload airtime plus framing overhead: it no longer fits the
        // 10 ms budget. The session's effective VR threshold is therefore
        // MCS 13+, slightly stricter than the bare ladder suggests.
        let cfg = SessionConfig::with_strategy(Strategy::DirectOnly);
        let table = movr_radio::RateTable;
        let mcs12 = &table.entries()[12];
        let mcs13 = &table.entries()[13];
        let bits = cfg.traffic.frame_bits as u64;
        let at12 = cfg.framing.burst_airtime(mcs12, bits);
        let at13 = cfg.framing.burst_airtime(mcs13, bits);
        assert!(!cfg.latency.meets_deadline(at12, movr_sim::SimTime::ZERO));
        assert!(cfg.latency.meets_deadline(at13, movr_sim::SimTime::ZERO));
    }

    #[test]
    fn metrics_snapshot_mirrors_outcome() {
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 1.0,
            lower_at_s: 3.0,
            duration_s: 4.0,
        };
        let out = run_session(
            &trace,
            &SessionConfig::with_strategy(Strategy::Movr { tracking: true }),
        );
        let m = &out.metrics;
        // `MetricsSnapshot::to_json` relies on name-sorted sections.
        assert!(m.counters.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(m.histograms.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            m.counter("frames_total"),
            Some(out.glitches.frames_total as u64)
        );
        assert_eq!(
            m.counter("frames_delivered"),
            Some(out.glitches.frames_delivered as u64)
        );
        assert_eq!(
            m.counter("frames_missed"),
            Some((out.glitches.frames_total - out.glitches.frames_delivered) as u64)
        );
        assert_eq!(m.counter("mode_switches"), Some(out.mode_switches as u64));
        assert_eq!(m.counter("realignments"), Some(out.realignments as u64));
        let snr = m.histogram("frame_snr_db").expect("snr histogram");
        assert_eq!(snr.count(), out.glitches.frames_total as u64);
        assert!((snr.summary().mean() - out.mean_snr_db).abs() < 1e-9);
        assert_eq!(snr.summary().min(), out.min_snr_db);
    }

    #[test]
    fn recorded_session_timeline_is_consistent() {
        use movr_obs::{MemoryRecorder, Value};
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 1.0,
            lower_at_s: 3.0,
            duration_s: 4.0,
        };
        let cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
        let mut rec = MemoryRecorder::new();
        let out = run_session_recorded(&trace, &cfg, &mut rec);

        // One frame event per frame, flagged exactly like the report.
        assert_eq!(rec.of_kind("frame").count(), out.glitches.frames_total);
        let delivered = rec
            .of_kind("frame")
            .filter(|e| e.field("delivered") == Some(&Value::Bool(true)))
            .count();
        assert_eq!(delivered, out.glitches.frames_delivered);
        // Transitions match the counters.
        assert_eq!(rec.of_kind("mode_switch").count(), out.mode_switches + 1);
        assert_eq!(rec.of_kind("realign").count(), out.realignments);
        // Every glitch run that ended within the session announced its
        // recovery (a final unrecovered stall would not).
        assert!(rec.of_kind("stall_recovered").count() <= out.glitches.glitch_events);
        assert!(out.glitches.glitch_events > 0, "scenario must glitch");
        // Frame timestamps are monotonically increasing. (The full stream
        // is not sorted: a realign_stall span's end event is stamped at
        // the future unblock instant the moment the stall is known.)
        let ts: Vec<_> = rec.of_kind("frame").map(|e| e.t).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn null_recorder_outcome_matches_plain_run() {
        use movr_obs::{MemoryRecorder, NullRecorder};
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 1.0,
            lower_at_s: 3.0,
            duration_s: 4.0,
        };
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
        cfg.rate_policy = RatePolicy::Threshold { backoff_db: 1.0 };
        let plain = run_session(&trace, &cfg);
        let nulled = run_session_recorded(&trace, &cfg, &mut NullRecorder);
        let mut mem = MemoryRecorder::new();
        let memed = run_session_recorded(&trace, &cfg, &mut mem);
        // Observation must never perturb the simulation: all three runs
        // are bit-identical, down to the metrics serialization.
        assert_eq!(plain.glitches, nulled.glitches);
        assert_eq!(plain.glitches, memed.glitches);
        assert_eq!(plain.mean_snr_db, nulled.mean_snr_db);
        assert_eq!(plain.mean_snr_db, memed.mean_snr_db);
        assert_eq!(plain.min_snr_db, memed.min_snr_db);
        assert_eq!(plain.metrics.to_json(), nulled.metrics.to_json());
        assert_eq!(plain.metrics.to_json(), memed.metrics.to_json());
        assert!(!mem.is_empty());
    }

    #[test]
    fn outcome_bookkeeping_consistent() {
        let trace = StaticScene::new(facing_ap(), 1.0);
        let out = run_session(
            &trace,
            &SessionConfig::with_strategy(Strategy::Movr { tracking: true }),
        );
        let r = &out.glitches;
        assert_eq!(
            r.frames_total,
            r.frames_delivered + (r.loss_rate * r.frames_total as f64).round() as usize
        );
        assert!(out.reflector_fraction >= 0.0 && out.reflector_fraction <= 1.0);
        assert!(out.min_snr_db <= out.mean_snr_db);
    }

    #[test]
    fn stepwise_session_matches_one_shot_run() {
        // The Session step API is the same loop run_session uses — the
        // outcomes must be bit-identical, and intermediate outcomes must
        // be monotone in frames processed.
        let trace = HandRaise {
            base: facing_ap(),
            raise_at_s: 1.0,
            lower_at_s: 3.0,
            duration_s: 4.0,
        };
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
        cfg.rate_policy = RatePolicy::Threshold { backoff_db: 1.0 };
        let one_shot = run_session(&trace, &cfg);

        let mut session = Session::new(&cfg);
        let mut stepped = 0usize;
        while session.step_frame(&trace) {
            stepped += 1;
            assert_eq!(session.frames(), stepped);
        }
        let out = session.outcome(trace.duration_s());
        assert_eq!(out.glitches, one_shot.glitches);
        assert_eq!(out.mean_snr_db.to_bits(), one_shot.mean_snr_db.to_bits());
        assert_eq!(out.min_snr_db.to_bits(), one_shot.min_snr_db.to_bits());
        assert_eq!(out.mode_switches, one_shot.mode_switches);
        assert_eq!(out.realignments, one_shot.realignments);
        assert_eq!(out.metrics.to_json(), one_shot.metrics.to_json());
        // Stepping past the end stays over.
        assert!(!session.step_frame(&trace));
        assert_eq!(session.frames(), stepped);
    }
}
