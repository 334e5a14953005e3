//! The `align` workload: one operation installs a reflector at a fresh
//! seeded wall mount and then searches its reflection angle toward a
//! seeded headset.
//!
//! Install is `install_reflector` over a `CommandSession::bluetooth`
//! link: the §4.1 101×101 incidence sweep, its 101 beam commands and the
//! §4.2 ramp at the parked beams. The search is `estimate_reflection`
//! over 101 reflector TX beams × 61 headset beams, one §4.2 ramp per TX
//! beam. Rooms alternate between the bare and the furnished office.
//! Every codebook is centred on the true bearing at 1° steps: the paper's
//! fixed 40°–140° sweep misses the true bearing of most mounts.
//!
//! The batch kernels do nearly all the work here — phased-array pages
//! and gain rows, the batched relay folds and the tone meter — and none
//! in the other workloads.

use crate::spans::{Ledger, Tracer};
use crate::stats::{calibration_ns, median, quantile, tail_quantile, Digest, CALIBRATION_REF_NS};
use crate::{
    calibration_note, end_to_end, finish_traced, rng_for, time_setup, Budget, Metric, Options,
    Outcome, MAX_SPANS,
};
use movr::alignment::{
    estimate_reflection, AlignmentConfig, AlignmentResult, ReflectionResult, SweepParams,
};
use movr::gain_control::{run_gain_control, GainControlConfig};
use movr::install::{install_reflector, InstallConfig, InstallReport};
use movr::reflector::MovrReflector;
use movr::relay::{relay_end_snr_batched, relay_input_noise, round_trip_reflection_batched};
use movr_control::{CommandSession, ControlMessage, SessionStatus};
use movr_math::{wrap_deg_180, SimRng, Vec2};
use movr_phased_array::{Codebook, PatternTable};
use movr_radio::RadioEndpoint;
use movr_rfsim::Scene;
use movr_sim::SimTime;
use movr_testkit::Timer;

/// The AP of the paper's deployment: west wall, boresight 20°.
const AP_POSITION: Vec2 = Vec2 { x: 0.5, y: 2.5 };
const AP_BORESIGHT_DEG: f64 = 20.0;
/// Beams per sweep: the paper's 101 at 1°, and 61 for the headset.
const SWEEP_BEAMS: usize = 101;
const HEADSET_BEAMS: usize = 61;
/// Operations in the warm-up, whose outputs the digest covers.
const WARMUP_OPS: u64 = 16;
/// Operations per timed batch (two of each room).
const BATCH_OPS: u64 = 4;
/// RNG stream label of this workload's inputs.
const STREAM: u64 = 0xA119;

/// The inputs of one operation, all derived from `(seed, index)`.
struct OpInput {
    room: usize,
    reflector: MovrReflector,
    install: InstallConfig,
    link_seed: u64,
    sweep_seed: u64,
    headset: RadioEndpoint,
    tx_codebook: Codebook,
    headset_codebook: Codebook,
    truth_deg: f64,
}

/// A codebook of `n` beams at 1° centred on `centre_deg`.
fn centred(centre_deg: f64, n: usize) -> Codebook {
    let half = (n - 1) as f64 / 2.0;
    Codebook::sweep(centre_deg - half, centre_deg + half, 1.0)
}

fn op_input(seed: u64, index: u64) -> OpInput {
    let mut r = rng_for(seed, STREAM, index);
    // Mount on the north wall or the north-west corner, facing the play
    // area, as the Fig. 8 experiment does.
    let pos = if r.chance(0.6) {
        Vec2::new(r.uniform(0.8, 3.5), 4.75)
    } else {
        Vec2::new(r.uniform(0.6, 2.2), r.uniform(3.8, 4.75))
    };
    let bore = pos.bearing_deg_to(Vec2::new(1.8, 2.2)) + r.uniform(-10.0, 10.0);
    let reflector = MovrReflector::wall_mounted(pos, bore, r.next_u64());
    let truth_deg = pos.bearing_deg_to(AP_POSITION);
    let install = InstallConfig {
        alignment: AlignmentConfig {
            ap_codebook: centred(AP_POSITION.bearing_deg_to(pos), SWEEP_BEAMS),
            reflector_codebook: centred(truth_deg, SWEEP_BEAMS),
            ..AlignmentConfig::default()
        },
        ..InstallConfig::default()
    };
    let hs = Vec2::new(r.uniform(2.0, 4.5), r.uniform(0.5, 3.5));
    OpInput {
        room: usize::from(index % 2 == 1),
        reflector,
        install,
        link_seed: r.next_u64(),
        sweep_seed: r.next_u64(),
        headset: RadioEndpoint::paper_radio(hs, hs.bearing_deg_to(pos)),
        tx_codebook: centred(pos.bearing_deg_to(hs), SWEEP_BEAMS),
        headset_codebook: centred(hs.bearing_deg_to(pos), HEADSET_BEAMS),
        truth_deg,
    }
}

/// What the workload keeps from set-up.
struct Deployment {
    scenes: [Scene; 2],
    ap: RadioEndpoint,
    warmup: Vec<OpInput>,
}

fn setup(seed: u64) -> Deployment {
    Deployment {
        scenes: [Scene::paper_office(), Scene::furnished_office()],
        ap: RadioEndpoint::paper_radio(AP_POSITION, AP_BORESIGHT_DEG),
        warmup: (0..WARMUP_OPS).map(|i| op_input(seed, i)).collect(),
    }
}

/// One operation's results and host times.
struct OpResult {
    install: InstallReport,
    reflection: ReflectionResult,
    saturated: bool,
    install_ns: u64,
    reflection_ns: u64,
    /// Traced runs: the search's RNG and reflector at its start.
    search_state: Option<(SimRng, MovrReflector)>,
}

/// Runs one operation. With a tracer, spans wrap the op and its two
/// public calls, and the search's starting state is kept for replay.
fn execute(dep: &Deployment, input: &OpInput, tr: Option<(&mut Tracer, u64)>) -> OpResult {
    let scene = &dep.scenes[input.room];
    let mut reflector = input.reflector.clone();
    let mut link = CommandSession::bluetooth(input.link_seed, input.install.max_retries);
    let mut rng = SimRng::seed_from_u64(input.sweep_seed);
    let mut tracer = tr;
    let op_span = tracer.as_mut().map(|(t, op)| t.begin("alignment.op", *op));

    let clock = Timer::start();
    let install = install_reflector(
        scene,
        &dep.ap,
        &mut reflector,
        &mut link,
        &input.install,
        &mut rng,
    );
    let install_ns = clock.elapsed_ns();
    let search_state = tracer.as_ref().map(|_| (rng.clone(), reflector.clone()));

    let clock = Timer::start();
    let mut ap = dep.ap;
    ap.steer_to(install.alignment.ap_angle_deg);
    let sweep = SweepParams {
        tx_codebook: &input.tx_codebook,
        headset_codebook: &input.headset_codebook,
        config: &input.install.alignment,
    };
    let reflection = estimate_reflection(
        scene,
        &ap,
        reflector.clone(),
        input.headset,
        &sweep,
        &mut rng,
    );
    let reflection_ns = clock.elapsed_ns();

    if let (Some((t, op)), Some(id)) = (tracer, op_span) {
        let end = t.now();
        let start = end - reflection_ns;
        t.push("alignment.reflection", op, (start, end), Some(id));
        t.push(
            "alignment.install",
            op,
            (start - install_ns, start),
            Some(id),
        );
        t.end(id);
    }
    OpResult {
        saturated: reflector.is_saturated(),
        install,
        reflection,
        install_ns,
        reflection_ns,
        search_state,
    }
}

fn in_codebook(cb: &Codebook, deg: f64) -> bool {
    cb.beams().iter().any(|b| b.to_bits() == deg.to_bits())
}

/// The checks any correct build passes: full measurement counts, finite
/// peaks, chosen beams from their codebooks, and no reflector left
/// saturated by the install (the §4.2 invariant).
fn check(input: &OpInput, r: &OpResult) -> Result<(), String> {
    let cfg = &input.install.alignment;
    let a = &r.install.alignment;
    let s = &r.reflection;
    let probes = cfg.reflector_codebook.len() * cfg.ap_codebook.len();
    if a.measurements != probes {
        return Err(format!(
            "incidence sweep took {} of {probes} measurements",
            a.measurements
        ));
    }
    let searched = input.tx_codebook.len() * input.headset_codebook.len();
    if s.measurements != searched {
        return Err(format!(
            "reflection search took {} of {searched} measurements",
            s.measurements
        ));
    }
    if !a.peak_power_dbm.is_finite() || !s.peak_snr_db.is_finite() {
        return Err(format!(
            "non-finite peak: {} dBm, {} dB",
            a.peak_power_dbm, s.peak_snr_db
        ));
    }
    if !in_codebook(&cfg.reflector_codebook, a.reflector_angle_deg)
        || !in_codebook(&cfg.ap_codebook, a.ap_angle_deg)
        || !in_codebook(&input.tx_codebook, s.tx_angle_deg)
        || !in_codebook(&input.headset_codebook, s.headset_angle_deg)
    {
        return Err("a chosen beam is outside its codebook".to_string());
    }
    if r.saturated {
        return Err("reflector left saturated after install".to_string());
    }
    Ok(())
}

fn fold(d: &mut Digest, r: &OpResult) {
    let AlignmentResult {
        reflector_angle_deg,
        ap_angle_deg,
        peak_power_dbm,
        measurements,
        ..
    } = r.install.alignment;
    for x in [
        reflector_angle_deg,
        ap_angle_deg,
        peak_power_dbm,
        r.install.gain.chosen_gain_db,
        r.reflection.tx_angle_deg,
        r.reflection.headset_angle_deg,
        r.reflection.peak_snr_db,
    ] {
        d.float(x);
    }
    for n in [
        measurements,
        r.reflection.measurements,
        r.install.commands,
        r.install.retries,
    ] {
        d.word(n as u64);
    }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let (dep, setup_times) = time_setup(|| setup(opts.seed));

    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let mut within_2deg = 0u64;
    let mut probes = 0usize;
    let mut tracer = Tracer::default();
    let mut replay = Replay::default();
    let mut batch = (0u64, 0u64, 0u64); // ops, op ns, search ns
    let mut batch_cal = CALIBRATION_REF_NS;
    let mut calibrations = Vec::new();
    // Per batch: raw ops/s, calibrated ops/s, calibrated searches/s.
    let mut batches: Vec<(f64, f64, f64)> = Vec::new();

    let mut budget: Option<Budget> = None;
    let mut index = 0u64;
    loop {
        let warm = index < WARMUP_OPS;
        if !warm {
            let budget = budget.get_or_insert_with(|| Budget::start(opts.seconds));
            if budget.spent() || tracer.spans().len() > MAX_SPANS {
                break;
            }
        }
        if !warm && !opts.trace && batch.0 == 0 {
            batch_cal = calibration_ns();
            calibrations.push(batch_cal);
        }
        let fresh;
        let input = if warm {
            &dep.warmup[index as usize]
        } else {
            fresh = op_input(opts.seed, index);
            &fresh
        };
        let mut r = execute(&dep, input, None);
        out.attempted += 1;
        let mut verdict = check(input, &r);
        if opts.trace {
            let untraced_ns = r.install_ns + r.reflection_ns;
            let traced = execute(&dep, input, Some((&mut tracer, index)));
            if verdict.is_ok() && !same_outputs(&r, &traced) {
                verdict = Err("traced operation diverged from the untraced one".to_string());
            }
            replay.op(&mut tracer, &dep, input, &traced, index, untraced_ns);
            r = traced;
        }
        if let Err(why) = verdict {
            out.failed += 1;
            if out.failed <= 3 {
                out.notes.push(format!("op {index} failed: {why}"));
            }
        }
        if warm {
            fold(&mut digest, &r);
            probes += r.install.alignment.measurements + r.reflection.measurements;
            let err = wrap_deg_180(r.install.alignment.reflector_angle_deg - input.truth_deg).abs();
            within_2deg += u64::from(err <= 2.0);
        } else if !opts.trace {
            batch.0 += 1;
            batch.1 += r.install_ns + r.reflection_ns;
            batch.2 += r.reflection_ns;
            if batch.0 == BATCH_OPS {
                let ops = batch.0 as f64;
                let factor = batch_cal / CALIBRATION_REF_NS;
                batches.push((
                    ops / (batch.1 as f64 * 1e-9),
                    ops / (batch.1 as f64 * 1e-9) * factor,
                    ops / (batch.2 as f64 * 1e-9) * factor,
                ));
                batch = (0, 0, 0);
            }
        }
        index += 1;
    }

    out.digest = digest.value();
    out.stats = vec![
        Metric::new(
            "alignment.probes_per_op",
            probes as f64 / WARMUP_OPS as f64,
            "count",
        ),
        Metric::new(
            "alignment.within_2deg_share",
            within_2deg as f64 / WARMUP_OPS as f64,
            "share",
        ),
    ];
    if opts.trace {
        let line = format!(
            "{} replay_diverged={}",
            replay.ledger.line("align", "ops"),
            replay.diverged
        );
        finish_traced(&mut out, opts, &tracer, replay.metrics(&tracer), line);
    } else {
        let raw: Vec<f64> = batches.iter().map(|b| b.0).collect();
        let main: Vec<f64> = batches.iter().map(|b| b.1).collect();
        let aux: Vec<f64> = batches.iter().map(|b| b.2).collect();
        out.metrics = end_to_end(setup_times.calibrated_s(), median(&main), median(&aux));
        out.named = vec![
            Metric::new("setup_s", setup_times.raw_s(), "s"),
            Metric::new("align_per_s", median(&raw), "ops/s"),
        ];
        out.notes.push(format!(
            "{} timed batches of {BATCH_OPS} ops; align_per_s quartiles {:.3} / {:.3}; calibrated main_per_s quartiles {:.3} / {:.3}",
            batches.len(),
            quantile(&raw, 0.25),
            quantile(&raw, 0.75),
            quantile(&main, 0.25),
            quantile(&main, 0.75)
        ));
        out.notes.push(calibration_note(&calibrations));
    }
    out
}

fn same_outputs(a: &OpResult, b: &OpResult) -> bool {
    let (mut da, mut db) = (Digest::default(), Digest::default());
    fold(&mut da, a);
    fold(&mut db, b);
    da.value() == db.value() && a.saturated == b.saturated
}

/// Replays each traced operation's calls one by one on its own inputs —
/// links, pages, gain rows, probe rows, tone readings, ramps and
/// commands — each in its own span under an `alignment.replay` root.
#[derive(Default)]
struct Replay {
    /// Layer sum, untraced and traced time per operation.
    ledger: Ledger,
    ramp_steps: usize,
    ramps: usize,
    diverged: usize,
}

impl Replay {
    fn op(
        &mut self,
        tr: &mut Tracer,
        dep: &Deployment,
        input: &OpInput,
        r: &OpResult,
        op: u64,
        untraced_ns: u64,
    ) {
        let scene = &dep.scenes[input.room];
        let root = tr.begin("alignment.replay", op);
        let mut faithful = self.commands(tr, input, &r.install, op);
        faithful &= self.incidence(tr, scene, dep.ap, input, &r.install.alignment, op);
        faithful &= self.park(tr, input, &r.install, op);
        let mut ap = dep.ap;
        ap.steer_to(r.install.alignment.ap_angle_deg);
        faithful &= self.search(tr, scene, ap, input, r, op);
        tr.end(root);
        self.diverged += usize::from(!faithful);
        let layer_sum = tr.spans()[root].child_ns as f64;
        let traced_ns = (r.install_ns + r.reflection_ns) as f64;
        self.ledger.push(layer_sum, untraced_ns as f64, traced_ns);
    }

    /// The install's command sequence, replayed on a fresh link with the
    /// same seed; faithful when it costs the same commands and retries.
    fn commands(
        &mut self,
        tr: &mut Tracer,
        input: &OpInput,
        report: &InstallReport,
        op: u64,
    ) -> bool {
        let mut link = CommandSession::bluetooth(input.link_seed, input.install.max_retries);
        let mut now = SimTime::ZERO;
        let beam = |deg: f64| ControlMessage::SetReflectorBeams {
            rx_deg: deg,
            tx_deg: deg,
        };
        // Lost commands cost nothing but the sweep's beam commands, which
        // the install pays 50 ms for.
        let mut script = vec![(
            ControlMessage::StartModulation { freq_hz: 100e3 },
            SimTime::ZERO,
        )];
        let beams = input.install.alignment.reflector_codebook.beams();
        script.extend(
            beams
                .iter()
                .map(|&deg| (beam(deg), SimTime::from_millis(50))),
        );
        script.push((ControlMessage::StopModulation, SimTime::ZERO));
        script.push((beam(report.alignment.reflector_angle_deg), SimTime::ZERO));
        script.push((ControlMessage::RunGainControl, SimTime::ZERO));
        for (msg, lost) in script {
            command(tr, op, &mut link, &mut now, msg, lost);
        }
        // The gain loop runs on the reflector: 30 µs of ADC work per step.
        now += SimTime::from_nanos(report.gain.trace.len() as u64 * 30_000);
        let done = ControlMessage::GainControlDone {
            gain_db: report.gain.chosen_gain_db,
        };
        command(tr, op, &mut link, &mut now, done, SimTime::ZERO);
        let stats = link.stats();
        stats.submitted == report.commands && stats.retries == report.retries
    }

    /// The §4.1 incidence sweep: two traced links, two AP gain pages,
    /// then per reflector beam its steering, two gain rows, one row of
    /// round-trip folds and one row of tone readings.
    fn incidence(
        &mut self,
        tr: &mut Tracer,
        scene: &Scene,
        ap: RadioEndpoint,
        input: &OpInput,
        result: &AlignmentResult,
        op: u64,
    ) -> bool {
        let cfg = &input.install.alignment;
        let mut reflector = input.reflector.clone();
        reflector.set_gain_db(cfg.probe_gain_db);
        reflector.set_modulating(cfg.modulated);
        let fwd = tr.time("rfsim.trace_link", op, || {
            scene
                .trace_link(ap.position(), reflector.position())
                .batch()
        });
        let bck = tr.time("rfsim.trace_link", op, || {
            scene
                .trace_link(reflector.position(), ap.position())
                .batch()
        });
        let (table, fwd_page) = tr.time("phased-array.fill_page", op, || {
            let table = PatternTable::new(ap.array(), &cfg.ap_codebook);
            let page = table.fill_page(fwd.departure_deg());
            (table, page)
        });
        let bck_page = tr.time("phased-array.fill_page", op, || {
            table.fill_page(bck.arrival_deg())
        });
        let meter = if cfg.modulated {
            cfg.probe.modulated_meter(ap.tx_power_dbm())
        } else {
            cfg.probe.unmodulated_meter(ap.tx_power_dbm())
        };
        let mut rng = SimRng::seed_from_u64(input.sweep_seed);
        let mut reflected = vec![0.0; table.len()];
        let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
        for &theta1 in cfg.reflector_codebook.beams() {
            let gain_db = tr.time("phased-array.steer", op, || {
                reflector.steer_both(theta1);
                reflector.effective_gain_db()
            });
            let rx = tr.time("phased-array.gain_row", op, || {
                reflector.rx_array().gain_dbi_batch(fwd.arrival_deg())
            });
            let tx = tr.time("phased-array.gain_row", op, || {
                reflector.tx_array().gain_dbi_batch(bck.departure_deg())
            });
            tr.time("relay.round_trip_row", op, || {
                for (j, slot) in reflected.iter_mut().enumerate() {
                    *slot = round_trip_reflection_batched(
                        &fwd,
                        &bck,
                        fwd_page.row(j),
                        bck_page.row(j),
                        ap.tx_power_dbm(),
                        gain_db,
                        &rx,
                        &tx,
                    )
                    .unwrap_or(f64::NEG_INFINITY);
                }
            });
            tr.time("radio.tone_row", op, || {
                for (j, &p) in reflected.iter().enumerate() {
                    let reading = meter.measure(p, &mut rng);
                    if reading.power_dbm > best.0 {
                        best = (reading.power_dbm, theta1, table.beam_deg(j));
                    }
                }
            });
        }
        bits_eq(
            &[best.0, best.1, best.2],
            &[
                result.peak_power_dbm,
                result.reflector_angle_deg,
                result.ap_angle_deg,
            ],
        )
    }

    /// The §4.2 ramp at the parked beams.
    fn park(&mut self, tr: &mut Tracer, input: &OpInput, report: &InstallReport, op: u64) -> bool {
        let mut reflector = input.reflector.clone();
        reflector.set_modulating(false);
        reflector.steer_rx(report.alignment.reflector_angle_deg);
        reflector.steer_tx(report.alignment.reflector_angle_deg);
        let gain = tr.time("gain_control.ramp", op, || {
            run_gain_control(&mut reflector, &input.install.gain_control)
        });
        self.ramps += 1;
        self.ramp_steps += gain.trace.len();
        gain.chosen_gain_db.to_bits() == report.gain.chosen_gain_db.to_bits()
    }

    /// The reflection search: two traced links, the headset page and the
    /// fixed hop-1 gain rows, then per TX beam its steering, one ramp, a
    /// gain row, one row of end-SNR folds and one row of report noise.
    /// Replays from the search's starting state kept by [`execute`].
    fn search(
        &mut self,
        tr: &mut Tracer,
        scene: &Scene,
        ap: RadioEndpoint,
        input: &OpInput,
        r: &OpResult,
        op: u64,
    ) -> bool {
        let Some((mut rng, mut reflector)) = r.search_state.clone() else {
            return false;
        };
        let result = &r.reflection;
        let headset = input.headset;
        reflector.set_modulating(false);
        let hop1 = tr.time("rfsim.trace_link", op, || {
            scene
                .trace_link(ap.position(), reflector.position())
                .batch()
                .with_noise(&relay_input_noise(scene))
        });
        let hop2 = tr.time("rfsim.trace_link", op, || {
            scene
                .trace_link(reflector.position(), headset.position())
                .batch()
        });
        let (table, page) = tr.time("phased-array.fill_page", op, || {
            let table = PatternTable::new(headset.array(), &input.headset_codebook);
            let page = table.fill_page(hop2.arrival_deg());
            (table, page)
        });
        let ap_gains = tr.time("phased-array.gain_row", op, || {
            ap.array().gain_dbi_batch(hop1.departure_deg())
        });
        let rx_gains = tr.time("phased-array.gain_row", op, || {
            reflector.rx_array().gain_dbi_batch(hop1.arrival_deg())
        });
        let hop1_dbm = hop1.received_dbm(ap.tx_power_dbm(), &ap_gains, &rx_gains);
        let hop1_snr = hop1.snr_db(hop1_dbm);
        let ramp_cfg = GainControlConfig::default();
        let mut snr = vec![0.0; table.len()];
        let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
        for &tx_deg in input.tx_codebook.beams() {
            tr.time("phased-array.steer", op, || reflector.steer_tx(tx_deg));
            let gain = tr.time("gain_control.ramp", op, || {
                run_gain_control(&mut reflector, &ramp_cfg)
            });
            self.ramps += 1;
            self.ramp_steps += gain.trace.len();
            let relay_gain = reflector.effective_gain_db();
            let tx_gains = tr.time("phased-array.gain_row", op, || {
                reflector.tx_array().gain_dbi_batch(hop2.departure_deg())
            });
            tr.time("relay.end_snr_row", op, || {
                for (j, slot) in snr.iter_mut().enumerate() {
                    *slot = relay_end_snr_batched(
                        hop1_dbm,
                        hop1_snr,
                        relay_gain,
                        &hop2,
                        &tx_gains,
                        page.row(j),
                    );
                }
            });
            tr.time("alignment.report_noise_row", op, || {
                for (j, &s) in snr.iter().enumerate() {
                    let reported = s + rng.normal(0.0, 0.5);
                    if reported > best.0 {
                        best = (reported, tx_deg, table.beam_deg(j));
                    }
                }
            });
        }
        bits_eq(
            &[best.0, best.1, best.2],
            &[
                result.peak_snr_db,
                result.tx_angle_deg,
                result.headset_angle_deg,
            ],
        )
    }

    fn metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let us = |name: &str| median(&tr.durations(name)) * 1e-3;
        let ops = tr.durations("alignment.op");
        let tail = tail_quantile(ops.len());
        let mut metrics = vec![
            Metric::new("alignment.op_ms_p50", median(&ops) * 1e-6, "ms"),
            Metric::new("alignment.op_ms_p99", quantile(&ops, tail) * 1e-6, "ms"),
            Metric::new("alignment.op_samples", ops.len() as f64, "count"),
            Metric::new(
                "alignment.report_noise_row_us",
                us("alignment.report_noise_row"),
                "us",
            ),
            Metric::new("relay.round_trip_row_us", us("relay.round_trip_row"), "us"),
            Metric::new("relay.end_snr_row_us", us("relay.end_snr_row"), "us"),
            Metric::new(
                "phased-array.fill_page_us",
                us("phased-array.fill_page"),
                "us",
            ),
            Metric::new(
                "phased-array.gain_row_us",
                us("phased-array.gain_row"),
                "us",
            ),
            Metric::new("phased-array.steer_us", us("phased-array.steer"), "us"),
            Metric::new(
                "radio.tone_measure_ns",
                median(&tr.durations("radio.tone_row")) / SWEEP_BEAMS as f64,
                "ns",
            ),
            Metric::new("control.command_us", us("control.command"), "us"),
            Metric::new("gain_control.ramp_us", us("gain_control.ramp"), "us"),
            Metric::new(
                "gain_control.steps_per_ramp",
                self.ramp_steps as f64 / self.ramps.max(1) as f64,
                "count",
            ),
            Metric::new("rfsim.trace_link_us", us("rfsim.trace_link"), "us"),
            Metric::new(
                "rfsim.links_per_op",
                tr.count("rfsim.trace_link") as f64 / ops.len().max(1) as f64,
                "count",
            ),
        ];
        metrics.extend(self.ledger.metrics("align"));
        metrics
    }
}

/// Sends one command at `now` and drives it to resolution, as the
/// install does; `now` moves to the ack, or by `lost` when it fails.
fn command(
    tr: &mut Tracer,
    op: u64,
    link: &mut CommandSession,
    now: &mut SimTime,
    msg: ControlMessage,
    lost: SimTime,
) {
    let at = tr.time("control.command", op, || {
        if !link.submit(*now, msg) {
            return None;
        }
        let deadline = *now + SimTime::from_secs_f64(5.0);
        match link.drive_until_resolved(*now, SimTime::from_millis(1), deadline) {
            (SessionStatus::Acked(at), _) => Some(at),
            _ => None,
        }
    });
    *now = at.unwrap_or(*now + lost);
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
