//! Property-based tests on cross-crate invariants.
//!
//! Each property encodes something the design *must* hold everywhere, not
//! just at the unit tests' hand-picked points: stability of the gain
//! controller across arbitrary beam postures and devices, geometric sanity
//! of the path tracer, monotonicity of the rate ladder, conservation in
//! the dB algebra.
//!
//! The runner is the in-tree `movr-testkit` harness (seeded generation,
//! greedy shrinking); every property runs at least the default 96 cases,
//! overridable with `MOVR_TESTKIT_CASES` / `MOVR_TESTKIT_SEED`.

use movr::gain_control::{run_gain_control, run_gain_control_recorded, GainControlConfig};
use movr::reflector::MovrReflector;
use movr::relay::{relay_end_snr_batched, relay_input_noise, relay_link_on};
use movr_math::{db_to_linear, linear_to_db, wrap_deg_180, Cdf, Vec2};
use movr_obs::{Key, Kind, MemoryRecorder, Value};
use movr_phased_array::UniformLinearArray;
use movr_radio::{ArrayPattern, RadioEndpoint, RateTable};
use movr_rfsim::{
    trace_paths, BodyPart, Channel, IsotropicPattern, LinkMemo, NoiseModel, Obstacle, Path,
    PathKind, Reuse, Room, Scene, SectorPattern, TraceConfig,
};
use movr_sim::SimTime;
use movr_testkit::{
    angle_deg, choice, f64_range, prop_assert, prop_assert_eq, prop_assume, property, u64_range,
    usize_range, vec2_in, vec_of,
};

// ---------------- math ----------------

property! {
    fn wrap_180_is_idempotent_and_in_range(deg in f64_range(-1e4, 1e4)) {
        let w = wrap_deg_180(deg);
        prop_assert!((-180.0..=180.0).contains(&w));
        prop_assert!((wrap_deg_180(w) - w).abs() < 1e-9);
        // Same direction modulo 360.
        let diff = (deg - w) / 360.0;
        prop_assert!((diff - diff.round()).abs() < 1e-9);
    }
}

property! {
    fn db_roundtrip(db in f64_range(-120.0, 60.0)) {
        prop_assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
    }
}

property! {
    fn db_addition_is_linear_multiplication(
        a in f64_range(-60.0, 30.0),
        b in f64_range(-60.0, 30.0),
    ) {
        let lin = db_to_linear(a) * db_to_linear(b);
        prop_assert!((linear_to_db(lin) - (a + b)).abs() < 1e-9);
    }
}

property! {
    fn cdf_is_monotone_and_normalised(xs in vec_of(f64_range(-100.0, 100.0), 1, 63)) {
        let mut xs = xs;
        xs.iter_mut().for_each(|x| *x = (*x * 100.0).round() / 100.0);
        let cdf = Cdf::new(xs.clone());
        prop_assert_eq!(cdf.len(), xs.len());
        prop_assert!(cdf.fraction_leq(f64::NEG_INFINITY) == 0.0);
        prop_assert!((cdf.fraction_leq(1e9) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = cdf.quantile(q);
            prop_assert!(v >= prev || q == 0.0);
            prev = v;
        }
        prop_assert!(cdf.min() <= cdf.median() && cdf.median() <= cdf.max());
    }
}

// ---------------- phased array ----------------

property! {
    fn array_factor_bounded_by_unity(
        n in usize_range(2, 23),
        steer in f64_range(-50.0, 50.0),
        theta in f64_range(-89.0, 89.0),
    ) {
        let arr = UniformLinearArray::new(
            n,
            0.5,
            movr_phased_array::PatchElement::default(),
            movr_phased_array::PhaseShifter::default(),
        );
        prop_assert!(arr.array_factor(steer, theta).abs() <= 1.0 + 1e-9);
    }
}

property! {
    fn steered_gain_is_near_best(steer in f64_range(-45.0, 45.0)) {
        let arr = UniformLinearArray::paper_array();
        let at_steer = arr.gain_dbi(steer, steer);
        let mut best = f64::NEG_INFINITY;
        let mut t = -89.0;
        while t < 89.0 {
            best = best.max(arr.gain_dbi(steer, t));
            t += 0.25;
        }
        prop_assert!(best - at_steer < 1.5, "steer={steer} best={best} at={at_steer}");
    }
}

// ---------------- ray tracing ----------------

property! {
    fn traced_paths_are_geometrically_sane(
        tx_x in f64_range(0.3, 4.7), tx_y in f64_range(0.3, 4.7),
        rx_x in f64_range(0.3, 4.7), rx_y in f64_range(0.3, 4.7),
    ) {
        let room = Room::paper_office();
        let tx = Vec2::new(tx_x, tx_y);
        let rx = Vec2::new(rx_x, rx_y);
        prop_assume!(tx.distance(rx) > 0.05);
        let paths = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        prop_assert!(!paths.is_empty());
        let direct = tx.distance(rx);
        for p in &paths {
            // No path is shorter than the straight line.
            prop_assert!(p.length_m >= direct - 1e-9);
            prop_assert!(p.excess_loss_db() >= 0.0);
            // Vertices stay within the closed room.
            for v in &p.vertices {
                prop_assert!(v.x >= -1e-9 && v.x <= 5.0 + 1e-9);
                prop_assert!(v.y >= -1e-9 && v.y <= 5.0 + 1e-9);
            }
        }
        // The LOS path is exactly the straight line.
        prop_assert!((paths[0].length_m - direct).abs() < 1e-9);
    }
}

property! {
    fn shadow_loss_bounded_and_monotone(
        offset in f64_range(0.0, 0.6),
        kind in choice(vec![BodyPart::Hand, BodyPart::Head, BodyPart::Torso]),
    ) {
        let seg = movr_rfsim::Segment::new(Vec2::new(0.0, 0.0), Vec2::new(4.0, 0.0));
        let near = Obstacle::new(kind, Vec2::new(2.0, offset));
        let far = Obstacle::new(kind, Vec2::new(2.0, offset + 0.05));
        let l_near = near.shadow_loss_on(&seg);
        let l_far = far.shadow_loss_on(&seg);
        prop_assert!((0.0..=kind.shadow_loss_db()).contains(&l_near));
        prop_assert!(l_far <= l_near + 1e-9, "loss must not grow with distance");
    }
}

// ---------------- rate ladder ----------------

property! {
    fn rate_is_monotone_in_snr_prop(
        a in f64_range(-10.0, 40.0),
        b in f64_range(-10.0, 40.0),
    ) {
        let t = RateTable;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(t.rate_mbps(lo) <= t.rate_mbps(hi));
    }
}

// ---------------- gain control ----------------

property! {
    fn gain_control_never_saturates(
        seed in u64_range(0, 499),
        rx_local in f64_range(-45.0, 45.0),
        tx_local in f64_range(-45.0, 45.0),
    ) {
        let mut r = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, seed);
        r.steer_rx(-70.0 + rx_local);
        r.steer_tx(-70.0 + tx_local);
        let res = run_gain_control(&mut r, &GainControlConfig::default());
        // The §4.2 invariant, across arbitrary devices and beam postures.
        prop_assert!(!r.is_saturated(),
            "seed={seed} chose {} vs loop {}", res.chosen_gain_db, r.loop_attenuation_db());
        prop_assert!(res.chosen_gain_db < r.loop_attenuation_db());
    }
}

/// The §4.2 ramp written the plain way, as the reference: every step
/// takes all its reads, and every read recomputes the loop attenuation
/// and the amplifier's true current. Returns the chosen gain, the knee
/// flag and each step's (gain, mean read).
fn per_read_ramp(r: &mut MovrReflector, cfg: &GainControlConfig) -> (f64, bool, Vec<(f64, f64)>) {
    let read_avg = |r: &mut MovrReflector| {
        let mut acc = 0.0;
        for _ in 0..cfg.reads_per_step {
            let true_current = r.amplifier().supply_current_a(r.loop_attenuation_db());
            acc += r.current_sensor_mut().measure_a(true_current);
        }
        acc / cfg.reads_per_step as f64
    };
    let min_gain = r.amplifier().min_gain_db;
    let max_gain = r.amplifier().max_gain_db;
    let mut gain = r.set_gain_db(min_gain);
    let mut prev = read_avg(r);
    let mut steps = vec![(gain, prev)];
    loop {
        if gain >= max_gain {
            return (gain, false, steps);
        }
        gain = r.set_gain_db(gain + cfg.step_db);
        let current = read_avg(r);
        steps.push((gain, current));
        if current - prev > cfg.jump_threshold_a {
            let safe = (gain - cfg.step_db - cfg.backoff_db).max(min_gain);
            return (r.set_gain_db(safe), true, steps);
        }
        prev = current;
    }
}

property! {
    cases = 3000,
    fn gain_control_matches_the_per_read_ramp(
        // Device seed, RX and TX beams off boresight, gain before the ramp,
        // and the amplifier on (three draws in four) or off.
        unit in (
            u64_range(0, 499),
            f64_range(-45.0, 45.0),
            f64_range(-45.0, 45.0),
            f64_range(0.0, 53.0),
            choice(vec![true, true, true, false]),
        ),
        // Sensor noise; a threshold drawn up to just past twice the largest
        // read error, where quiet steps start, or across 0–80 mA.
        noise in (f64_range(0.0, 0.003), choice(vec![true, false]), f64_range(0.0, 1.0)),
        // Step, backoff, reads per step.
        ramp in (f64_range(0.1, 3.0), f64_range(0.0, 3.0), usize_range(1, 5)),
    ) {
        let (seed, rx_local, tx_local, start_gain_db, amplifier_on) = unit;
        let (noise_rms_a, near_bound, threshold_unit) = noise;
        let (step_db, backoff_db, reads_per_step) = ramp;
        let mut device = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, seed);
        device.steer_rx(-70.0 + rx_local);
        device.steer_tx(-70.0 + tx_local);
        device.set_gain_db(start_gain_db);
        device.set_amplifier_enabled(amplifier_on);
        let sensor = device.current_sensor_mut();
        sensor.noise_rms_a = noise_rms_a;
        let two_e = 2.0 * sensor.max_read_error_a();
        let cfg = GainControlConfig {
            step_db,
            jump_threshold_a: threshold_unit * if near_bound { 1.2 * two_e } else { 0.08 },
            backoff_db,
            reads_per_step,
        };

        let mut reference = device.clone();
        let (chosen, knee, steps) = per_read_ramp(&mut reference, &cfg);
        let gains: Vec<u64> = steps.iter().map(|s| s.0.to_bits()).collect();

        let mut plain = device.clone();
        let res = run_gain_control(&mut plain, &cfg);
        prop_assert_eq!(res.chosen_gain_db.to_bits(), chosen.to_bits());
        prop_assert_eq!(res.knee_detected, knee);
        prop_assert_eq!(res.trace.iter().map(|g| g.to_bits()).collect::<Vec<_>>(), gains.clone());
        prop_assert_eq!(plain.sensor_rng_state(), reference.sensor_rng_state());
        prop_assert_eq!(plain.amplifier().gain_db().to_bits(), chosen.to_bits());

        let mut recorded = device.clone();
        let mut rec = MemoryRecorder::new();
        let res = run_gain_control_recorded(&mut recorded, &cfg, SimTime::ZERO, &mut rec);
        prop_assert_eq!(res.chosen_gain_db.to_bits(), chosen.to_bits());
        prop_assert_eq!(res.knee_detected, knee);
        prop_assert_eq!(res.trace.iter().map(|g| g.to_bits()).collect::<Vec<_>>(), gains);
        prop_assert_eq!(recorded.sensor_rng_state(), reference.sensor_rng_state());
        let stepped: Vec<Option<u64>> = rec
            .of_kind(Kind::GainStep)
            .map(|e| match e.field(Key::CurrentA) {
                Some(Value::F64(a)) => Some(a.to_bits()),
                _ => None,
            })
            .collect();
        let currents: Vec<Option<u64>> = steps.iter().map(|s| Some(s.1.to_bits())).collect();
        prop_assert_eq!(stepped, currents);
    }
}

// ---------------- framing ----------------

property! {
    fn burst_airtime_at_least_ideal(
        bits in u64_range(1, 399_999_999),
        mcs_idx in usize_range(1, 15),
    ) {
        use movr_radio::FrameConfig;
        let cfg = FrameConfig::default();
        let mcs = &RateTable.entries()[mcs_idx];
        let t = cfg.burst_airtime(mcs, bits).as_secs_f64();
        let ideal = bits as f64 / (mcs.rate_mbps * 1e6);
        prop_assert!(t >= ideal);
        // Overhead stays bounded: even tiny bursts pay at most one
        // preamble+header+SIFS per PSDU.
        let n = cfg.ppdu_count(bits) as f64;
        let max_overhead = n * 6e-6;
        prop_assert!(t <= ideal + max_overhead, "t={t} ideal={ideal} n={n}");
    }
}

// ---------------- polygon rooms ----------------

property! {
    fn polygon_room_contains_centroid_and_rejects_outside(
        w in f64_range(2.0, 8.0),
        d in f64_range(2.0, 8.0),
    ) {
        use movr_rfsim::Material;
        let room = movr_rfsim::Room::rectangular(w, d, Material::Drywall);
        prop_assert!(room.contains(room.centroid()));
        prop_assert!(!room.contains(movr_math::Vec2::new(-0.5, d / 2.0)));
        prop_assert!(!room.contains(movr_math::Vec2::new(w + 0.5, d / 2.0)));
        // clamp_inside always lands inside with the margin.
        let p = room.clamp_inside(movr_math::Vec2::new(w * 2.0, -d), 0.3);
        prop_assert!(room.contains(p));
    }
}

property! {
    fn l_shaped_paths_never_cross_walls(
        tx_x in f64_range(0.4, 2.6), tx_y in f64_range(0.4, 4.6),
        rx_x in f64_range(0.4, 4.6), rx_y in f64_range(0.4, 2.6),
    ) {
        let room = Room::l_shaped_studio();
        let tx = Vec2::new(tx_x, tx_y);
        let rx = Vec2::new(rx_x, rx_y);
        prop_assume!(room.contains(tx) && room.contains(rx));
        prop_assume!(tx.distance(rx) > 0.05);
        let paths = trace_paths(&room, &[], tx, rx, &TraceConfig::default());
        for p in &paths {
            for leg in p.vertices.windows(2) {
                let seg = movr_rfsim::Segment::new(leg[0], leg[1]);
                for w in room.walls() {
                    prop_assert!(
                        seg.intersect_interior(&w.segment).is_none(),
                        "a path leg crosses a wall"
                    );
                }
            }
        }
    }
}

// ---------------- rate adaptation ----------------

property! {
    fn hysteresis_never_selects_undecodable(
        reports in vec_of(f64_range(-10.0, 35.0), 1, 63),
        policy in usize_range(0, 2),
        backoff_db in f64_range(0.0, 3.0),
        up_margin_db in f64_range(0.0, 3.0),
        up_count in usize_range(1, 4),
    ) {
        use movr_radio::{RateAdapter, RatePolicy};
        let (policy, backoff_db) = match policy {
            0 => (RatePolicy::Oracle, 0.0),
            1 => (RatePolicy::Threshold { backoff_db }, backoff_db),
            _ => (
                RatePolicy::HysteresisPolicy { up_margin_db, up_count, backoff_db },
                backoff_db,
            ),
        };
        let mut adapter = RateAdapter::new(policy);
        for &snr in &reports {
            // After every report, a rung is chosen only when the backed-off
            // report decodes one, and it is never above that ideal rung:
            // upgrades may lag, downgrades and outages may not.
            let Some(mcs) = adapter.on_snr_report(snr) else { continue };
            let ideal = RateTable.best_mcs(snr - backoff_db);
            prop_assert!(ideal.is_some(), "rung {} chosen where none decodes at {snr} dB", mcs.index);
            let ideal = ideal.map_or(0, |m| m.index);
            prop_assert!(mcs.index <= ideal, "rung {} above ideal {ideal} at {snr} dB", mcs.index);
        }
    }
}

// ---------------- predictor ----------------

property! {
    fn predictor_extrapolation_is_exact_for_linear_motion(
        vx in f64_range(-2.0, 2.0),
        vy in f64_range(-2.0, 2.0),
        w in f64_range(-120.0, 120.0),
    ) {
        use movr::tracking::BeamPredictor;
        use movr_motion::TrackedPose;
        let mut p = BeamPredictor::new();
        for k in 0..4 {
            let t = k as f64 * 0.01;
            p.observe(
                t,
                TrackedPose {
                    center: Vec2::new(2.0 + vx * t, 2.0 + vy * t),
                    yaw_deg: w * t,
                },
            );
        }
        let pred = p.predict(0.05).unwrap();
        prop_assert!((pred.center.x - (2.0 + vx * 0.05)).abs() < 1e-6);
        prop_assert!((pred.center.y - (2.0 + vy * 0.05)).abs() < 1e-6);
        prop_assert!(movr_math::wrap_deg_180(pred.yaw_deg - w * 0.05).abs() < 1e-6);
    }
}

// ---------------- observability ----------------

property! {
    fn histogram_count_equals_bucket_sum(
        values in vec_of(f64_range(-1e4, 1e4), 0, 63),
        lo in f64_range(-100.0, 99.0),
        width in f64_range(0.1, 200.0),
        n_buckets in usize_range(1, 40),
    ) {
        use movr_obs::Histogram;
        let mut h = Histogram::linear(lo, lo + width, n_buckets);
        for &v in &values {
            h.observe(v);
        }
        // The structural invariant: every observation lands in exactly
        // one bucket (underflow and overflow included), so the total
        // count equals the sum over all buckets — regardless of range,
        // resolution, or where the samples fall.
        let bucket_sum: u64 = h.bucket_counts().iter().sum();
        prop_assert_eq!(h.count(), bucket_sum);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.summary().count(), values.len());

        // Merging two disjoint halves equals observing the whole stream.
        let (first, second) = values.split_at(values.len() / 2);
        let mut a = Histogram::linear(lo, lo + width, n_buckets);
        let mut b = Histogram::linear(lo, lo + width, n_buckets);
        first.iter().for_each(|&v| a.observe(v));
        second.iter().for_each(|&v| b.observe(v));
        a.try_merge(&b).expect("same layout");
        prop_assert_eq!(a.count(), h.count());
        prop_assert_eq!(a.bucket_counts(), h.bucket_counts());
        prop_assert_eq!(a.underflow(), h.underflow());
        prop_assert_eq!(a.overflow(), h.overflow());
    }
}

// ---------------- link evaluation ----------------

/// How a drawn case sets the reflector's amplifier, relative to the
/// loop attenuation `L` of its drawn beam pair.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GainSetting {
    /// Comfortably stable: `L` minus the drawn margin.
    Below,
    /// Within a dB of `L`: stable or saturated depending on the draw.
    Near,
    /// The amplifier's maximum — often past `L`, hence saturated.
    Max,
    /// Amplifier switched off.
    Off,
}

property! {
    // A thousand cases keep every cascade branch well populated: about
    // half live, a quarter off, a quarter saturated.
    cases = 1000,
    fn scalar_and_batched_evaluation_agree_on_random_geometry(
        furnished in choice(vec![false, true]),
        nodes in (
            vec2_in(0.2, 4.8, 0.2, 4.8),
            vec2_in(0.2, 4.8, 0.2, 4.8),
            vec2_in(0.2, 4.8, 0.2, 4.8),
        ),
        obstacles in vec_of(
            (
                choice(vec![BodyPart::Hand, BodyPart::Head, BodyPart::Torso]),
                vec2_in(0.2, 4.8, 0.2, 4.8),
            ),
            0,
            3,
        ),
        steering in (angle_deg(), angle_deg(), angle_deg(), angle_deg(), angle_deg()),
        gain in (
            choice(vec![GainSetting::Below, GainSetting::Near, GainSetting::Max, GainSetting::Off]),
            f64_range(0.0, 1.0),
            u64_range(0, 15),
        ),
    ) {
        let (ap_pos, refl_pos, hs_pos) = nodes;
        prop_assume!(ap_pos.distance(refl_pos) > 0.05);
        prop_assume!(refl_pos.distance(hs_pos) > 0.05);
        prop_assume!(ap_pos.distance(hs_pos) > 0.05);
        let (ap_deg, facing_deg, rx_deg, tx_deg, hs_deg) = steering;
        let (setting, fraction, device_seed) = gain;

        let mut scene = if furnished { Scene::furnished_office() } else { Scene::paper_office() };
        for &(kind, center) in &obstacles {
            scene.add_obstacle(Obstacle::new(kind, center));
        }
        let mut ap = RadioEndpoint::paper_radio(ap_pos, ap_pos.bearing_deg_to(refl_pos));
        ap.steer_to(ap_deg);
        let mut headset = RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(refl_pos));
        headset.steer_to(hs_deg);
        let mut reflector = MovrReflector::wall_mounted(refl_pos, facing_deg, device_seed);
        reflector.steer_rx(rx_deg);
        reflector.steer_tx(tx_deg);
        let leak = reflector.loop_attenuation_db();
        match setting {
            GainSetting::Below => {
                reflector.set_gain_db(leak - 3.0 - 17.0 * fraction);
            }
            GainSetting::Near => {
                reflector.set_gain_db(leak - 1.0 + 2.0 * fraction);
            }
            GainSetting::Max => {
                reflector.set_gain_db(reflector.amplifier().max_gain_db);
            }
            GainSetting::Off => reflector.set_amplifier_enabled(false),
        }

        let hop1 = scene.trace_link(ap.position(), reflector.position());
        let hop2 = scene.trace_link(reflector.position(), headset.position());

        // One hop, both ways: patterns queried per traced path against
        // gain rows from `gain_dbi_batch`.
        let legs = [
            (&hop1, ap.array(), ap.tx_power_dbm(), reflector.rx_array()),
            (&hop2, reflector.tx_array(), 10.0, headset.array()),
        ];
        for (link, tx, tx_power_dbm, rx) in legs {
            let scalar = link.evaluate(&ArrayPattern(tx), tx_power_dbm, &ArrayPattern(rx));
            let batch = link.batch();
            let rowed = batch.eval(
                tx_power_dbm,
                &tx.gain_dbi_batch(batch.departure_deg()),
                &rx.gain_dbi_batch(batch.arrival_deg()),
            );
            prop_assert_eq!(scalar.received_dbm.to_bits(), rowed.received_dbm.to_bits());
            prop_assert_eq!(scalar.snr_db.to_bits(), rowed.snr_db.to_bits());
        }

        // The relayed link: the per-frame scalar budget against the
        // reflection sweep's batched fold and cascade.
        let scalar = relay_link_on(&hop1, &hop2, &ap, &reflector, headset.array());
        let h1 = hop1.batch().with_noise(&relay_input_noise(&scene));
        let h2 = hop2.batch();
        let hop1_received_dbm = h1.received_dbm(
            ap.tx_power_dbm(),
            &ap.array().gain_dbi_batch(h1.departure_deg()),
            &reflector.rx_array().gain_dbi_batch(h1.arrival_deg()),
        );
        let hop1_snr_db = h1.snr_db(hop1_received_dbm);
        let end_snr_db = relay_end_snr_batched(
            hop1_received_dbm,
            hop1_snr_db,
            reflector.effective_gain_db(),
            &h2,
            &reflector.tx_array().gain_dbi_batch(h2.departure_deg()),
            &headset.array().gain_dbi_batch(h2.arrival_deg()),
        );
        prop_assert_eq!(scalar.hop1_received_dbm.to_bits(), hop1_received_dbm.to_bits());
        prop_assert_eq!(scalar.hop1_snr_db.to_bits(), hop1_snr_db.to_bits());
        prop_assert_eq!(scalar.end_snr_db.to_bits(), end_snr_db.to_bits());
    }
}

// ---------------- trace memo ----------------

/// True when `a` and `b` hold the same paths in the same order, whatever
/// their shadow losses: what a re-shade that reports
/// [`Reuse::Reshaded`] keeps.
fn same_geometry(a: &[Path], b: &[Path]) -> bool {
    let unshaded = |p: &Path| Path {
        shadow_loss_db: 0.0,
        ..*p
    };
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| unshaded(p) == unshaded(q))
}

property! {
    fn link_cache_tracks_obstacle_motion_exactly(
        tx_x in f64_range(0.3, 4.7),
        rx_y in f64_range(0.3, 4.7),
        ox in f64_range(0.5, 4.5),
        dx in f64_range(-0.4, 0.4),
        kind in choice(vec![BodyPart::Hand, BodyPart::Head, BodyPart::Torso]),
    ) {
        let tx = Vec2::new(tx_x, 0.8);
        let rx = Vec2::new(4.2, rx_y);
        let (ox, oy) = (ox, 2.5);
        let (dx, dy) = (dx, -dx / 2.0);
        prop_assume!(tx.distance(rx) > 0.05);
        prop_assume!(dx != 0.0);

        let mut scene = Scene::paper_office();
        scene.set_obstacles(vec![Obstacle::new(kind, Vec2::new(ox, oy))]);
        let mut memo = LinkMemo::new();
        // Remember the link at the original obstacle position…
        let (first, reuse) = memo.trace(&scene, tx, rx);
        prop_assert!(reuse == Reuse::Retraced, "the first read traces");
        let before = first.paths().to_vec();
        prop_assert_eq!(memo.trace(&scene, tx, rx).1, Reuse::Hit);
        // …then move the obstacle and read the link again through the
        // memo: the move re-shades the remembered candidates, reports
        // `Reshaded` exactly when the same paths come out, and the new
        // shading is remembered.
        scene.set_obstacles(vec![Obstacle::new(kind, Vec2::new(ox + dx, oy + dy))]);
        let (moved, reuse) = memo.trace(&scene, tx, rx);
        let expect_reuse = if same_geometry(&before, moved.paths()) {
            Reuse::Reshaded
        } else {
            Reuse::Retraced
        };
        prop_assert!(reuse == expect_reuse, "the move re-shades: {reuse:?}");
        prop_assert_eq!(memo.trace(&scene, tx, rx).1, Reuse::Hit);
        let (remembered, reuse) = memo.trace(&scene, tx, rx);
        prop_assert!(reuse == Reuse::Hit, "a repeat hands back the remembered trace");

        // Reference: a scene built directly with the final obstacle
        // position, traced fresh. Must match the memo *exactly* — same
        // path count, every float bit-identical — and so must a link
        // evaluation over the remembered taps.
        let mut fresh = Scene::paper_office();
        fresh.add_obstacle(Obstacle::new(kind, Vec2::new(ox + dx, oy + dy)));
        let expect = fresh.trace_link(tx, rx);
        prop_assert_eq!(remembered.paths(), expect.paths());
        let beam = SectorPattern::new(tx.bearing_deg_to(rx), 10.0, 15.0);
        let got = remembered.evaluate(&beam, 10.0, &IsotropicPattern);
        let want = expect.evaluate(&beam, 10.0, &IsotropicPattern);
        prop_assert_eq!(got.received_dbm.to_bits(), want.received_dbm.to_bits());
        prop_assert_eq!(got.snr_db.to_bits(), want.snr_db.to_bits());
    }
}

#[test]
fn link_memo_misses_on_any_bit_of_geometry() {
    let tx = Vec2::new(0.5, 2.5);
    let rx = Vec2::new(4.0, 2.0);
    // A hand on the line of sight, and a bystander centred on the west
    // wall's line (x = +0.0).
    let hand = Obstacle::new(BodyPart::Hand, Vec2::new(2.2, 2.3));
    let bystander = Obstacle::new(BodyPart::Torso, Vec2::new(0.0, 4.0));
    let one_ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
    let base = vec![hand, bystander];
    let cases = [
        (
            "hand moved by one ulp",
            vec![hand.moved_to(Vec2::new(one_ulp(2.2), 2.3)), bystander],
            tx,
            rx,
            Reuse::Reshaded,
        ),
        (
            "bystander x flipped from +0.0 to -0.0",
            vec![hand, bystander.moved_to(Vec2::new(-0.0, 4.0))],
            tx,
            rx,
            Reuse::Reshaded,
        ),
        (
            "receiver moved",
            base.clone(),
            tx,
            Vec2::new(4.0, 2.1),
            Reuse::Retraced,
        ),
        (
            "transmitter moved",
            base.clone(),
            Vec2::new(0.5, 2.6),
            rx,
            Reuse::Retraced,
        ),
        ("direction swapped", base.clone(), rx, tx, Reuse::Retraced),
        ("bystander left", vec![hand], tx, rx, Reuse::Reshaded),
    ];
    for (what, obstacles, t, r, expect) in cases {
        let mut scene = Scene::paper_office();
        scene.set_obstacles(base.clone());
        let mut memo = LinkMemo::new();
        let _ = memo.trace(&scene, tx, rx);
        assert_eq!(
            memo.trace(&scene, tx, rx).1,
            Reuse::Hit,
            "{what}: the trace is remembered"
        );
        scene.set_obstacles(obstacles);
        let (link, reuse) = memo.trace(&scene, t, r);
        assert_eq!(reuse, expect, "{what}: must miss");
        let traced = link.paths().to_vec();
        assert_eq!(
            traced,
            scene.trace_link(t, r).paths(),
            "{what}: traced afresh"
        );
        assert_eq!(
            memo.trace(&scene, t, r).1,
            Reuse::Hit,
            "{what}: the new trace is remembered"
        );
    }
}

#[test]
fn link_memo_retraces_when_stacked_torsos_prune_a_path() {
    // In each room, torsos step one by one onto a line of sight (30 dB
    // each) until three of them push it past the tracer's 80 dB cap,
    // then step off again one by one. Every read through the memo must
    // equal a fresh trace bit for bit, re-tracing when the admitted set
    // changes and re-shading otherwise; the third torso's arrival and
    // departure must each re-trace.
    let scene_in = |room| Scene::new(room, Channel::new(24.0e9), NoiseModel::ieee_802_11ad());
    let rooms = [
        (
            "paper_office",
            Scene::paper_office(),
            Vec2::new(0.5, 2.5),
            Vec2::new(4.0, 2.0),
        ),
        (
            "furnished_office",
            Scene::furnished_office(),
            Vec2::new(0.5, 2.5),
            Vec2::new(4.0, 2.0),
        ),
        (
            "l_shaped_studio",
            scene_in(Room::l_shaped_studio()),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 4.0),
        ),
    ];
    for (room, mut scene, tx, rx) in rooms {
        let torsos: Vec<Obstacle> = [0.3, 0.5, 0.7]
            .iter()
            .map(|&f| Obstacle::new(BodyPart::Torso, tx.lerp(rx, f)))
            .collect();
        let on_path = [0, 1, 2, 3, 2, 1, 0];
        let mut memo = LinkMemo::new();
        let mut last: Option<Vec<Path>> = None;
        for (step, &n) in on_path.iter().enumerate() {
            scene.set_obstacles(torsos[..n].to_vec());
            let (link, reuse) = memo.trace(&scene, tx, rx);
            let paths = link.paths().to_vec();
            let fresh = scene.trace_link(tx, rx);
            assert_eq!(paths, fresh.paths(), "{room} step {step}");
            let los = paths.iter().any(|p| p.kind == PathKind::LineOfSight);
            assert_eq!(
                los,
                n < 3,
                "{room} step {step}: the line of sight is pruned at 90 dB"
            );
            let expect = match &last {
                Some(before) if same_geometry(before, &paths) => Reuse::Reshaded,
                _ => Reuse::Retraced,
            };
            assert_eq!(reuse, expect, "{room} step {step}");
            if step == 3 || step == 4 {
                assert_eq!(reuse, Reuse::Retraced, "{room} step {step}");
            }
            let beam = SectorPattern::new(tx.bearing_deg_to(rx), 10.0, 15.0);
            let got = link.evaluate(&beam, 10.0, &IsotropicPattern);
            let want = fresh.evaluate(&beam, 10.0, &IsotropicPattern);
            assert_eq!(
                got.received_dbm.to_bits(),
                want.received_dbm.to_bits(),
                "{room} step {step}"
            );
            last = Some(paths);
        }
    }
}

// ---------------- frame clock ----------------

property! {
    /// A session's frames fall exactly at 0, Δ, 2Δ, … up to the trace
    /// end, where Δ is the traffic model's frame interval.
    fn event_queue_pops_sorted(
        refresh_hz in f64_range(30.0, 240.0),
        duration_s in f64_range(0.0, 0.5),
    ) {
        use movr::session::{Session, SessionConfig, Strategy};
        let mut cfg = SessionConfig::with_strategy(Strategy::Tethered);
        cfg.traffic.refresh_hz = refresh_hz;
        let delta = cfg.traffic.frame_interval();
        let end = SimTime::from_secs_f64(duration_s);
        let player = movr_motion::PlayerState::standing(Vec2::new(4.0, 2.5), 180.0);
        let trace = movr_motion::StaticScene::new(player, duration_s);
        let mut session = Session::new(&cfg);
        let mut instants = Vec::new();
        while session.step_frame(&trace) {
            instants.push(session.now());
        }
        let expected: Vec<SimTime> = (0..)
            .map(|k| SimTime::from_nanos(k * delta.as_nanos()))
            .take_while(|&t| t <= end)
            .collect();
        prop_assert_eq!(instants, expected);
        prop_assert!(!session.step_frame(&trace), "a finished session stays over");
    }
}
