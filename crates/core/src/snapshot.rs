//! Session checkpoint/restore.
//!
//! Serialises a [`Session`]'s entire mutable state ([`SessionState`]) to
//! a versioned, zero-dependency binary format and restores it
//! bit-identically: the resumed session draws the same RNG sequences,
//! accumulates the same f64 bit patterns, and records the same timeline
//! as the uninterrupted run (property-tested in `tests/checkpoint.rs`).
//!
//! ## Format (version 2)
//!
//! Little-endian throughout; f64s are stored as raw `to_bits` patterns
//! (NaN payloads, `-0.0`, and infinities survive verbatim); lists are
//! length-prefixed.
//!
//! | offset | field |
//! |---|---|
//! | 0 | magic `"MOVRSNAP"` (8 bytes, as a little-endian u64) |
//! | 8 | format version (u32) |
//! | 12 | [`config_fingerprint`] of the capturing [`SessionConfig`] (u64) |
//! | 20 | body: clock and pending frame, accounting, link state, system checkpoint, histograms |
//! | len−8 | FNV-1a 64 checksum of everything before it |
//!
//! The body stores typed state only: no metric names, no histogram bucket
//! edges (the layouts are constants of the session), and no counter that
//! duplicates another. The clock is followed by the one pending frame in
//! the shape of a one-entry event list (count 1, frame instant, tag 0),
//! the layout version 2 has always had. Each histogram is a presence
//! byte followed, when present, by its bucket counts and exact Welford
//! state. The frame count is the glitch tracker's, so it cannot disagree
//! with a second copy.
//!
//! Restore checks, in order: buffer length → magic → version → checksum
//! → config fingerprint → body decode — so *any* single-byte corruption
//! yields a structured [`SnapshotError`], never a panic. A checksum-valid
//! body whose parts contradict each other (a pending-frame count other
//! than one, a frame before the clock, more delivered frames than frames,
//! a histogram summary larger than its buckets, bucket counts that
//! overflow) is [`SnapshotError::Malformed`].
//!
//! ## What is (and isn't) in a snapshot
//!
//! **In:** every value the frame loop mutates — sim clock and next frame
//! instant, RNG streams (SNR reports, tracker noise, fault injection,
//! sensor noise), rate-adapter state, glitch tracker, session counters and
//! histogram counts (exact Welford state), beam steering, amplifier gain,
//! in-flight beam commands, tracker/predictor history, scene obstacles.
//!
//! **Out:** everything derivable from construction inputs — the
//! [`SessionConfig`] (only its fingerprint is stored), deployment
//! geometry and calibration, rate tables, and the motion trace. A
//! restore target must be built from the same config, deployment, and
//! trace; the fingerprint and deployment-shape checks catch mismatches.
//!
//! ## Versioning policy
//!
//! The version bumps on **any** byte-layout change, field addition, or
//! semantic change to an existing field; there are no in-version
//! extensions. Readers reject other versions outright
//! ([`SnapshotError::UnsupportedVersion`] names both sides) rather than
//! attempt migration — a snapshot is a short-lived mid-run artifact, not
//! an archival format.

use crate::session::{
    airtime_layout, snr_layout, stall_layout, RatePolicy, Session, SessionConfig, SessionState,
    Strategy,
};
use crate::system::{LinkMode, MovrSystem, ReflectorCheckpoint, SystemCheckpoint};
use movr_math::{fnv1a64, SimRng, Summary, WireError, WireReader, WireWriter};
use movr_motion::TrackedPose;
use movr_obs::Histogram;
use movr_radio::RateAdapter;
use movr_rfsim::{BodyPart, Obstacle};
use movr_sim::SimTime;
use movr_vr::GlitchTracker;
use std::fmt;

/// The snapshot format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 2;

/// `"MOVRSNAP"` as a little-endian u64 — the first eight bytes.
const MAGIC: u64 = u64::from_le_bytes(*b"MOVRSNAP");

/// Minimum plausible snapshot: header (8 + 4 + 8) plus checksum footer.
const MIN_LEN: usize = 8 + 4 + 8 + 8;

/// Why a snapshot failed to restore. Every variant is a structured,
/// non-panicking rejection of external bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer cannot even hold the header and checksum footer.
    TooShort {
        /// The buffer length actually presented.
        len: usize,
    },
    /// The first eight bytes are not the `MOVRSNAP` magic.
    BadMagic,
    /// The format version is not the one this build reads.
    UnsupportedVersion {
        /// The version the snapshot claims.
        found: u32,
    },
    /// The FNV-1a footer does not match the payload.
    ChecksumMismatch,
    /// The snapshot was captured under a different [`SessionConfig`].
    ConfigMismatch {
        /// Fingerprint of the config offered at restore.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The body failed to decode or validate.
    Malformed {
        /// What was wrong.
        what: String,
    },
    /// The body decoded, but does not fit the deployment it was offered
    /// (e.g. a different reflector count).
    SystemMismatch {
        /// What did not fit.
        what: &'static str,
    },
    /// The config offered at restore matches the snapshot's fingerprint
    /// but cannot run a session: its `refresh_hz` gives no frame interval
    /// of at least 1 ns, so the restored frame clock would never advance.
    InvalidConfig {
        /// What is wrong with the config.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort { len } => write!(
                f,
                "snapshot too short: {len} bytes cannot hold a header and checksum"
            ),
            SnapshotError::BadMagic => write!(f, "not a MoVR snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "snapshot format version {found} is not supported \
                 (this build reads format version {FORMAT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch: the bytes are corrupted")
            }
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was captured under a different session config \
                 (fingerprint {found:#018x}, restore offered {expected:#018x})"
            ),
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot body: {what}"),
            SnapshotError::SystemMismatch { what } => {
                write!(f, "snapshot does not fit the deployment: {what}")
            }
            SnapshotError::InvalidConfig { what } => {
                write!(f, "session config cannot run: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Malformed {
            what: e.to_string(),
        }
    }
}

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed { what: what.into() }
}

/// The session checkpoint codec: [`Snapshot::capture`] freezes a
/// [`Session`] to bytes, [`Snapshot::restore`] reassembles one that
/// continues bit-identically.
pub struct Snapshot;

impl Snapshot {
    /// Serialises the session's entire mutable state. The bytes embed
    /// the format version, a fingerprint of the session's config, and a
    /// trailing checksum.
    pub fn capture(session: &Session) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(config_fingerprint(session.config()));
        encode_state(&mut w, session.state());
        w.finish_with_checksum()
    }

    /// Restores a capture onto the canonical paper deployment built from
    /// `config.system` (the [`Session::new`] analogue).
    pub fn restore(bytes: &[u8], config: &SessionConfig) -> Result<Session, SnapshotError> {
        Snapshot::restore_on(bytes, MovrSystem::paper_setup(config.system), config)
    }

    /// Restores a capture onto a caller-built deployment, which must
    /// match the capturing session's (same reflector count and, for the
    /// resume to be exact, same geometry and calibration).
    pub fn restore_on(
        bytes: &[u8],
        system: MovrSystem,
        config: &SessionConfig,
    ) -> Result<Session, SnapshotError> {
        if bytes.len() < MIN_LEN {
            return Err(SnapshotError::TooShort { len: bytes.len() });
        }
        // Header sanity first (magic, version) so "not a snapshot at
        // all" and "a snapshot from another format era" are named as
        // such rather than as checksum noise…
        let mut head = WireReader::new(bytes);
        if head.u64()? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = head.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        // …then the checksum over the whole payload, so everything after
        // this point reads verified bytes.
        let mut r = match WireReader::verify_checksum_footer(bytes) {
            Err(_) => return Err(SnapshotError::TooShort { len: bytes.len() }),
            Ok(None) => return Err(SnapshotError::ChecksumMismatch),
            Ok(Some(r)) => r,
        };
        let _ = r.u64()?; // magic, re-read within the payload view
        let _ = r.u32()?; // version
        let found = r.u64()?;
        let expected = config_fingerprint(config);
        if found != expected {
            return Err(SnapshotError::ConfigMismatch { expected, found });
        }
        // `Session::on_system`'s check, which `Session::from_parts` skips.
        if let Some(what) = crate::session::frame_interval_error(config) {
            return Err(SnapshotError::InvalidConfig { what });
        }
        let state = decode_state(&mut r, system, config)?;
        if r.remaining() != 0 {
            return Err(malformed(format!(
                "{} trailing bytes after the decoded state",
                r.remaining()
            )));
        }
        Ok(Session::from_parts(*config, state))
    }
}

/// Canonical fingerprint of a [`SessionConfig`]: FNV-1a 64 over the
/// wire-encoded fields. Two configs fingerprint equal iff every field —
/// strategy, traffic, latency budget, system knobs, rate policy,
/// framing, report noise — is bit-identical; a snapshot refuses to
/// restore under a config that fingerprints differently.
pub fn config_fingerprint(config: &SessionConfig) -> u64 {
    let mut w = WireWriter::new();
    match config.strategy {
        Strategy::Tethered => w.u8(0),
        Strategy::DirectOnly => w.u8(1),
        Strategy::Movr { tracking } => {
            w.u8(2);
            w.bool(tracking);
        }
    }
    w.f64(config.traffic.refresh_hz);
    w.f64(config.traffic.frame_bits);
    w.u64(config.latency.budget.as_nanos());
    w.u64(config.latency.processing.as_nanos());
    let s = &config.system;
    w.f64(s.snr_switch_threshold_db);
    w.bool(s.use_tracking);
    w.bool(s.use_prediction);
    w.f64(s.gain_control.step_db);
    w.f64(s.gain_control.jump_threshold_a);
    w.f64(s.gain_control.backoff_db);
    w.usize(s.gain_control.reads_per_step);
    w.f64(s.realign_window_deg);
    w.u64(s.beam_command_latency.as_nanos());
    w.u64(s.sweep_dwell.as_nanos());
    w.f64(s.command_loss_probability);
    w.u64(s.seed);
    match config.rate_policy {
        RatePolicy::Oracle => w.u8(0),
        RatePolicy::Threshold { backoff_db } => {
            w.u8(1);
            w.f64(backoff_db);
        }
        RatePolicy::HysteresisPolicy {
            up_margin_db,
            up_count,
            backoff_db,
        } => {
            w.u8(2);
            w.f64(up_margin_db);
            w.usize(up_count);
            w.f64(backoff_db);
        }
    }
    w.u64(config.framing.preamble_ns);
    w.u64(config.framing.header_ns);
    w.u64(config.framing.sifs_ns);
    w.u64(config.framing.max_psdu_bits);
    w.f64(config.snr_report_sigma_db);
    fnv1a64(w.bytes())
}

// --- body encoding ---------------------------------------------------------

fn encode_rng(w: &mut WireWriter, s: [u64; 4]) {
    for word in s {
        w.u64(word);
    }
}

fn encode_mode(w: &mut WireWriter, mode: LinkMode) {
    match mode {
        LinkMode::Direct => w.u8(1),
        LinkMode::Reflector(i) => {
            w.u8(2);
            w.usize(i);
        }
    }
}

fn encode_pose(w: &mut WireWriter, pose: TrackedPose) {
    w.f64(pose.center.x);
    w.f64(pose.center.y);
    w.f64(pose.yaw_deg);
}

fn body_part_tag(kind: BodyPart) -> u8 {
    match kind {
        BodyPart::Hand => 0,
        BodyPart::Head => 1,
        BodyPart::Torso => 2,
        BodyPart::Furniture => 3,
        BodyPart::MetalFurniture => 4,
    }
}

fn encode_histogram(w: &mut WireWriter, h: Option<&Histogram>) {
    let Some(h) = h else {
        w.bool(false);
        return;
    };
    w.bool(true);
    for c in h.bucket_counts() {
        w.u64(*c);
    }
    let (n, mean, m2, min, max) = h.summary().welford_state();
    w.usize(n);
    w.f64(mean);
    w.f64(m2);
    w.f64(min);
    w.f64(max);
}

fn encode_state(w: &mut WireWriter, st: &SessionState) {
    // Exhaustive destructures (no `..`): a field added to `SessionState`,
    // `SystemCheckpoint` or `ReflectorCheckpoint` does not compile until
    // this encoder names it, just as `decode_state`'s struct literals must.
    let SessionState {
        system,
        adapter,
        report_rng,
        glitches,
        snr_sum,
        mode_switches,
        realignments,
        reflector_frames,
        rate_up,
        rate_down,
        rate_outage,
        last_mode,
        blocked_until,
        snr_hist,
        airtime_hist,
        stall_hist,
        now,
        next_frame,
    } = st;

    // Clock and the pending frame: count 1, its instant, frame tag 0.
    w.u64(now.as_nanos());
    w.usize(1);
    w.u64(next_frame.as_nanos());
    w.u8(0);

    // Accounting: the glitch tracker (which owns the frame count), the
    // SNR sum, and the session counters.
    let (total, delivered, events, current, longest) = glitches.state();
    w.usize(total);
    w.usize(delivered);
    w.usize(events);
    w.usize(current);
    w.usize(longest);
    w.f64(*snr_sum);
    w.usize(*mode_switches);
    w.usize(*realignments);
    w.usize(*reflector_frames);
    w.usize(*rate_up);
    w.usize(*rate_down);
    w.usize(*rate_outage);

    // Link state: serving mode, stall horizon, SNR-report noise stream
    // and rate adapter.
    match *last_mode {
        None => w.u8(0),
        Some(mode) => encode_mode(w, mode),
    }
    w.u64(blocked_until.as_nanos());
    encode_rng(w, report_rng.state());
    let (current_mcs, up_streak) = adapter.state();
    match current_mcs {
        None => w.bool(false),
        Some(i) => {
            w.bool(true);
            w.usize(i);
        }
    }
    w.usize(up_streak);

    // Deployment state.
    let SystemCheckpoint {
        ap_steering_deg,
        mode,
        reflectors,
        tracker,
        predictor_history,
        fault_rng,
        obstacles,
    } = system.checkpoint();
    w.f64(ap_steering_deg);
    encode_mode(w, mode);
    w.usize(reflectors.len());
    for r in reflectors {
        let ReflectorCheckpoint {
            rx_steering_deg,
            tx_steering_deg,
            gain_db,
            amp_enabled,
            modulating,
            sensor_rng,
            last_tx_deg,
            commanded_tx,
        } = r;
        w.f64(rx_steering_deg);
        w.f64(tx_steering_deg);
        w.f64(gain_db);
        w.bool(amp_enabled);
        w.bool(modulating);
        encode_rng(w, sensor_rng);
        w.f64(last_tx_deg);
        w.f64(commanded_tx);
    }
    let (tracker_rng, last_update_s, last_pose) = tracker;
    encode_rng(w, tracker_rng);
    w.f64(last_update_s);
    match last_pose {
        None => w.bool(false),
        Some(p) => {
            w.bool(true);
            encode_pose(w, p);
        }
    }
    w.usize(predictor_history.len());
    for (t, p) in predictor_history {
        w.f64(t);
        encode_pose(w, p);
    }
    encode_rng(w, fault_rng);
    w.usize(obstacles.len());
    for o in &obstacles {
        w.u8(body_part_tag(o.kind));
        w.f64(o.center.x);
        w.f64(o.center.y);
    }

    // Histograms, in the session's fixed order.
    encode_histogram(w, snr_hist.as_ref());
    encode_histogram(w, airtime_hist.as_ref());
    encode_histogram(w, stall_hist.as_ref());
}

// --- body decoding ---------------------------------------------------------

fn decode_rng(r: &mut WireReader) -> Result<[u64; 4], SnapshotError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

fn decode_mode(r: &mut WireReader) -> Result<LinkMode, SnapshotError> {
    match r.u8()? {
        1 => Ok(LinkMode::Direct),
        2 => Ok(LinkMode::Reflector(r.usize()?)),
        tag => Err(malformed(format!("unknown link-mode tag {tag}"))),
    }
}

fn decode_pose(r: &mut WireReader) -> Result<TrackedPose, SnapshotError> {
    Ok(TrackedPose {
        center: movr_math::Vec2::new(r.f64()?, r.f64()?),
        yaw_deg: r.f64()?,
    })
}

fn decode_body_part(tag: u8) -> Result<BodyPart, SnapshotError> {
    match tag {
        0 => Ok(BodyPart::Hand),
        1 => Ok(BodyPart::Head),
        2 => Ok(BodyPart::Torso),
        3 => Ok(BodyPart::Furniture),
        4 => Ok(BodyPart::MetalFurniture),
        _ => Err(malformed(format!("unknown body-part tag {tag}"))),
    }
}

/// Reads one [`encode_histogram`] record into the bucket layout `layout`
/// builds, re-validated by [`Histogram::from_parts`].
fn decode_histogram(
    r: &mut WireReader,
    layout: fn() -> Histogram,
) -> Result<Option<Histogram>, SnapshotError> {
    if !r.bool()? {
        return Ok(None);
    }
    let layout = layout();
    let mut counts = Vec::new();
    for _ in layout.bucket_counts() {
        counts.push(r.u64()?);
    }
    // An overflowing sum saturates, and `from_parts` rejects it.
    let total = counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
    let summary = Summary::from_welford_state((r.usize()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?));
    Histogram::from_parts(layout.edges().to_vec(), counts, total, summary)
        .map(Some)
        .map_err(|e| malformed(e.to_string()))
}

fn decode_state(
    r: &mut WireReader,
    mut system: MovrSystem,
    config: &SessionConfig,
) -> Result<SessionState, SnapshotError> {
    // Clock and the pending frame.
    let now = SimTime::from_nanos(r.u64()?);
    let n_pending = r.usize()?;
    if n_pending != 1 {
        return Err(malformed(format!(
            "{n_pending} pending frames; a session has exactly one"
        )));
    }
    let next_frame = SimTime::from_nanos(r.u64()?);
    match r.u8()? {
        0 => {}
        tag => return Err(malformed(format!("unknown session-event tag {tag}"))),
    }
    if next_frame < now {
        return Err(malformed(format!(
            "pending frame at {next_frame} predates restored clock {now}"
        )));
    }

    // Accounting.
    let (frames, delivered) = (r.usize()?, r.usize()?);
    if delivered > frames {
        return Err(malformed(
            "glitch tracker delivered more frames than it saw",
        ));
    }
    let glitches =
        GlitchTracker::from_state((frames, delivered, r.usize()?, r.usize()?, r.usize()?));
    let snr_sum = r.f64()?;
    let mode_switches = r.usize()?;
    let realignments = r.usize()?;
    let reflector_frames = r.usize()?;
    let rate_up = r.usize()?;
    let rate_down = r.usize()?;
    let rate_outage = r.usize()?;

    // Link state.
    let last_mode = match r.u8()? {
        0 => None,
        1 => Some(LinkMode::Direct),
        2 => Some(LinkMode::Reflector(r.usize()?)),
        tag => return Err(malformed(format!("unknown link-mode tag {tag}"))),
    };
    let blocked_until = SimTime::from_nanos(r.u64()?);
    let report_rng = SimRng::from_state(decode_rng(r)?);
    let current_mcs = if r.bool()? { Some(r.usize()?) } else { None };
    let up_streak = r.usize()?;
    let mut adapter = RateAdapter::new(config.rate_policy);
    adapter
        .restore_state(current_mcs, up_streak)
        .map_err(|e| malformed(e.to_string()))?;

    // Deployment state.
    let ap_steering_deg = r.f64()?;
    let mode = decode_mode(r)?;
    let n_reflectors = r.usize()?;
    let mut reflectors = Vec::new();
    for _ in 0..n_reflectors {
        reflectors.push(ReflectorCheckpoint {
            rx_steering_deg: r.f64()?,
            tx_steering_deg: r.f64()?,
            gain_db: r.f64()?,
            amp_enabled: r.bool()?,
            modulating: r.bool()?,
            sensor_rng: decode_rng(r)?,
            last_tx_deg: r.f64()?,
            commanded_tx: r.f64()?,
        });
    }
    let tracker_rng = decode_rng(r)?;
    let last_update_s = r.f64()?;
    let last_pose = if r.bool()? {
        Some(decode_pose(r)?)
    } else {
        None
    };
    let n_history = r.usize()?;
    let mut predictor_history = Vec::new();
    for _ in 0..n_history {
        let t = r.f64()?;
        predictor_history.push((t, decode_pose(r)?));
    }
    let fault_rng = decode_rng(r)?;
    let n_obstacles = r.usize()?;
    let mut obstacles = Vec::new();
    for _ in 0..n_obstacles {
        let kind = decode_body_part(r.u8()?)?;
        let center = movr_math::Vec2::new(r.f64()?, r.f64()?);
        obstacles.push(Obstacle::new(kind, center));
    }
    system
        .restore_checkpoint(SystemCheckpoint {
            ap_steering_deg,
            mode,
            reflectors,
            tracker: (tracker_rng, last_update_s, last_pose),
            predictor_history,
            fault_rng,
            obstacles,
        })
        .map_err(|what| SnapshotError::SystemMismatch { what })?;

    // Histograms.
    let snr_hist = decode_histogram(r, snr_layout)?;
    let airtime_hist = decode_histogram(r, airtime_layout)?;
    let stall_hist = decode_histogram(r, stall_layout)?;

    Ok(SessionState {
        system,
        adapter,
        report_rng,
        glitches,
        snr_sum,
        mode_switches,
        realignments,
        reflector_frames,
        rate_up,
        rate_down,
        rate_outage,
        last_mode,
        blocked_until,
        snr_hist,
        airtime_hist,
        stall_hist,
        now,
        next_frame,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Strategy;
    use movr_math::Vec2;
    use movr_motion::{HandRaise, PlayerState};

    fn trace() -> HandRaise {
        let center = Vec2::new(4.0, 2.5);
        let yaw = center.bearing_deg_to(Vec2::new(0.5, 2.5));
        HandRaise {
            base: PlayerState::standing(center, yaw),
            raise_at_s: 0.4,
            lower_at_s: 0.9,
            duration_s: 1.4,
        }
    }

    fn config() -> SessionConfig {
        let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
        cfg.rate_policy = RatePolicy::Threshold { backoff_db: 1.0 };
        cfg
    }

    #[test]
    fn capture_restore_resume_is_bit_identical() {
        let cfg = config();
        let tr = trace();
        let mut full = Session::new(&cfg);
        let mut cut = Session::new(&cfg);
        for _ in 0..40 {
            assert!(full.step_frame(&tr));
            assert!(cut.step_frame(&tr));
        }
        let bytes = Snapshot::capture(&cut);
        drop(cut);
        let mut resumed = Snapshot::restore(&bytes, &cfg).expect("restore");
        assert_eq!(resumed.frames(), 40);
        while full.step_frame(&tr) {
            assert!(resumed.step_frame(&tr));
        }
        assert!(!resumed.step_frame(&tr));
        let a = full.outcome(tr.duration_s);
        let b = resumed.outcome(tr.duration_s);
        assert_eq!(a.glitches, b.glitches);
        assert_eq!(a.mean_snr_db.to_bits(), b.mean_snr_db.to_bits());
        assert_eq!(a.min_snr_db.to_bits(), b.min_snr_db.to_bits());
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    }

    #[test]
    fn capture_is_deterministic_and_stable() {
        let cfg = config();
        let tr = trace();
        let mut s = Session::new(&cfg);
        for _ in 0..10 {
            s.step_frame(&tr);
        }
        let a = Snapshot::capture(&s);
        let b = Snapshot::capture(&s);
        assert_eq!(a, b, "capture must not perturb or depend on ambient state");
        // Capturing is non-destructive: the session still steps.
        assert!(s.step_frame(&tr));
    }

    #[test]
    fn fresh_session_round_trips() {
        // Zero frames processed: all sentinels (NaN beam bearings, absent
        // histograms) survive the trip.
        let cfg = config();
        let s = Session::new(&cfg);
        let bytes = Snapshot::capture(&s);
        let restored = Snapshot::restore(&bytes, &cfg).expect("restore fresh");
        assert_eq!(restored.frames(), 0);
        assert_eq!(Snapshot::capture(&restored), bytes);
    }

    #[test]
    fn wrong_version_error_names_the_format_version() {
        let cfg = config();
        let s = Session::new(&cfg);
        let mut bytes = Snapshot::capture(&s);
        bytes[8] = 99; // version u32 LE low byte
        let Err(err) = Snapshot::restore(&bytes, &cfg) else {
            panic!("a foreign format version must be rejected");
        };
        assert_eq!(err, SnapshotError::UnsupportedVersion { found: 99 });
        let msg = err.to_string();
        assert!(msg.contains("version 99"), "{msg}");
        assert!(msg.contains("format version 2"), "{msg}");
    }

    #[test]
    fn config_fingerprint_is_sensitive_to_every_knob() {
        let base = config();
        let fp = config_fingerprint(&base);
        let mut c1 = base;
        c1.snr_report_sigma_db += 0.1;
        let mut c2 = base;
        c2.system.seed ^= 1;
        let mut c3 = base;
        c3.rate_policy = RatePolicy::Oracle;
        let mut c4 = base;
        c4.latency.budget += SimTime::from_nanos(1);
        for (i, c) in [c1, c2, c3, c4].iter().enumerate() {
            assert_ne!(fp, config_fingerprint(c), "knob {i} must change the fingerprint");
        }
        assert_eq!(fp, config_fingerprint(&base));
    }

    #[test]
    fn restore_under_different_config_is_rejected() {
        let cfg = config();
        let mut s = Session::new(&cfg);
        let tr = trace();
        for _ in 0..5 {
            s.step_frame(&tr);
        }
        let bytes = Snapshot::capture(&s);
        let mut other = cfg;
        other.system.seed ^= 0xDEAD;
        match Snapshot::restore(&bytes, &other) {
            Err(SnapshotError::ConfigMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            Err(e) => panic!("expected ConfigMismatch, got {e:?}"),
            Ok(_) => panic!("expected ConfigMismatch, got a session"),
        }
    }
}
