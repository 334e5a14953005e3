//! The streaming fleet reducer: JSONL event streams in, [`Rollup`] out.
//!
//! One pass, bounded memory. Each line is read, dispatched on its
//! `kind`, folded into the rollup, and dropped — the reducer never
//! holds more than the current line plus the open-span table (spans
//! that have started but not yet ended, keyed by `(session, span_id)`).
//! Event streams from [`crate::SessionTagged`] recorders carry a
//! `session` field; untagged streams fold into session 0.
//!
//! A line is read by [`FlatObject::parse`] where it can be: a flat
//! object of scalars, sliced without allocating, whose numbers are
//! converted only when the fold asks for them. Every line the recorders
//! write takes that path; any other line goes to [`Json::parse`]. The
//! flat reader accepts only lines that `Json::parse` reads the same way,
//! and the fold reads both through one private accessor trait, so a
//! line is accepted, rejected and reported the same way whichever
//! reader took it.
//!
//! Determinism: the rollup is pure addition over per-event
//! contributions, so any partition of the input into whole streams —
//! one file or many, reduced sequentially or in parallel and then
//! [`Rollup::merge`]d in input order — produces byte-identical
//! [`Rollup::to_json`] output. (Splitting *within* a stream is the one
//! unsupported cut: it can separate a `span_start` from its
//! `span_end`, and unclosed spans are dropped, matching
//! [`crate::MemoryRecorder::spans`].)

use crate::rollup::Rollup;
use movr_math::json::{FlatObject, Json, Scalar};
use std::collections::BTreeMap;
use std::io::BufRead;

/// Indices into the rollup's fleet sketch array, in
/// [`crate::FLEET_SKETCHES`] order.
const SK_AIRTIME: usize = 0;
const SK_REALIGN: usize = 1;
const SK_SNR: usize = 2;
const SK_STALL: usize = 3;

/// A reduce failure: which stream, which 1-based line, and what was
/// wrong with it. I/O errors and malformed lines both land here —
/// a fleet rollup computed from a half-read stream would be silently
/// wrong, so the reducer refuses instead.
#[derive(Debug)]
pub struct ReduceError {
    /// Label of the offending stream (file name, or `"<input>"`).
    pub stream: String,
    /// 1-based line number within that stream (0 = before any line).
    pub line: u64,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.stream, self.line, self.what)
    }
}

impl std::error::Error for ReduceError {}

/// The open-span table: `(session, span_id)` → `(span name, start ns)`.
type OpenSpans = BTreeMap<(u64, u64), (String, u64)>;

/// A field value as the fold reads it, from either reader.
trait Field {
    fn as_u64(&self) -> Option<u64>;
    fn as_f64(&self) -> Option<f64>;
    fn as_str(&self) -> Option<&str>;
    fn as_bool(&self) -> Option<bool>;
}

impl Field for Json<'_> {
    fn as_u64(&self) -> Option<u64> {
        Json::as_u64(self)
    }
    fn as_f64(&self) -> Option<f64> {
        Json::as_f64(self)
    }
    fn as_str(&self) -> Option<&str> {
        Json::as_str(self)
    }
    fn as_bool(&self) -> Option<bool> {
        Json::as_bool(self)
    }
}

impl Field for Scalar<'_> {
    fn as_u64(&self) -> Option<u64> {
        Scalar::as_u64(self)
    }
    fn as_f64(&self) -> Option<f64> {
        Scalar::as_f64(self)
    }
    fn as_str(&self) -> Option<&str> {
        Scalar::as_str(self)
    }
    fn as_bool(&self) -> Option<bool> {
        Scalar::as_bool(self)
    }
}

fn fold_line(
    rollup: &mut Rollup,
    open: &mut OpenSpans,
    line: &str,
) -> Result<(), String> {
    if let Some(flat) = FlatObject::parse(line) {
        return fold_fields(rollup, open, |name| flat.get(name));
    }
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    fold_fields(rollup, open, |name| doc.get(name))
}

/// Folds one event line, read through `get`: its fields by name, first
/// match.
fn fold_fields<'d, F: Field + 'd>(
    rollup: &mut Rollup,
    open: &mut OpenSpans,
    get: impl Fn(&str) -> Option<&'d F>,
) -> Result<(), String> {
    let kind = get("kind")
        .and_then(F::as_str)
        .ok_or("event line has no string `kind` field")?;
    let t_ns = int_field(&get, "event line", "t_ns")?;
    let session = match get("session") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or("`session` field is not an integer in 0..=2^53 - 1")?,
    };

    rollup.session_mut(session).events += 1;
    match kind {
        "frame" => {
            let delivered = get("delivered")
                .and_then(F::as_bool)
                .ok_or("frame event has no bool `delivered` field")?;
            let s = rollup.session_mut(session);
            s.frames_total += 1;
            if delivered {
                s.frames_delivered += 1;
            }
            if let Some(snr) = get("snr_db").and_then(F::as_f64) {
                rollup.observe(SK_SNR, snr);
            }
            if let Some(air) = get("airtime_ns").and_then(F::as_f64) {
                rollup.observe(SK_AIRTIME, air);
            }
        }
        "mode_switch" => {
            let to = get("to")
                .and_then(F::as_str)
                .ok_or("mode_switch event has no string `to` field")?;
            let from = match get("from") {
                None => "start",
                Some(v) => v
                    .as_str()
                    .ok_or("mode_switch `from` field is not a string")?,
            };
            let s = rollup.session_mut(session);
            if from != "start" {
                s.mode_switches += 1;
            }
            *s.transitions
                .entry((from.to_string(), to.to_string()))
                .or_insert(0) += 1;
        }
        "realign" => {
            let cost = int_field(&get, "realign event", "cost_ns")?;
            let s = rollup.session_mut(session);
            s.realigns += 1;
            s.realign_time_ns += cost;
            rollup.observe(SK_REALIGN, movr_math::convert::u64_to_f64(cost));
        }
        "stall_recovered" => {
            let frames = int_field(&get, "stall_recovered event", "stall_frames")?;
            let s = rollup.session_mut(session);
            s.glitches += 1;
            s.glitch_frames += frames;
        }
        "span_start" => {
            let (name, id) = span_fields(&get)?;
            open.insert((session, id), (name.to_string(), t_ns));
        }
        "span_end" => {
            let (name, id) = span_fields(&get)?;
            // An end without a matching start (stream cut mid-span) is
            // dropped, like an unclosed start.
            if let Some((start_name, start_ns)) = open.remove(&(session, id)) {
                if start_name != name {
                    return Err(format!(
                        "span {id} started as `{start_name}` but ended as `{name}`"
                    ));
                }
                if name == "realign_stall" {
                    let dur = t_ns.saturating_sub(start_ns);
                    let s = rollup.session_mut(session);
                    s.stall_spans += 1;
                    s.stall_time_ns += dur;
                    rollup.observe(SK_STALL, movr_math::convert::u64_to_f64(dur));
                }
            }
        }
        // Unknown kinds are counted in `events` and otherwise skipped,
        // so older reducers tolerate newer instrumented binaries.
        _ => {}
    }
    Ok(())
}

fn span_fields<'d, F: Field + 'd>(
    get: &impl Fn(&str) -> Option<&'d F>,
) -> Result<(&'d str, u64), String> {
    let name = get("span")
        .and_then(F::as_str)
        .ok_or("span event has no string `span` field")?;
    let id = int_field(get, "span event", "span_id")?;
    Ok((name, id))
}

/// Field `name` as an integer. The readers hold integers exactly only up
/// to 2^53 − 1 (see [`Json::as_u64`]), so the error names that range.
fn int_field<'d, F: Field + 'd>(
    get: &impl Fn(&str) -> Option<&'d F>,
    what: &str,
    name: &str,
) -> Result<u64, String> {
    get(name)
        .and_then(F::as_u64)
        .ok_or_else(|| format!("{what} has no `{name}` field holding an integer in 0..=2^53 - 1"))
}

/// Folds borrowed JSONL lines (blank lines skipped) into `rollup`.
/// Returns the number of event lines consumed. `stream` labels error
/// messages.
pub fn reduce_lines<'a>(
    stream: &str,
    lines: impl IntoIterator<Item = &'a str>,
    rollup: &mut Rollup,
) -> Result<u64, ReduceError> {
    let mut open = OpenSpans::new();
    let mut n = 0u64;
    for (i, line) in lines.into_iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        fold_line(rollup, &mut open, line).map_err(|what| ReduceError {
            stream: stream.to_string(),
            line: movr_math::convert::usize_to_u64(i) + 1,
            what,
        })?;
        n += 1;
    }
    Ok(n)
}

/// Folds one stream line by line into a fresh [`Rollup`] — memory
/// stays bounded by one line plus the open-span table no matter how
/// large the input is. Returns the rollup and the event lines consumed.
pub fn reduce_one_stream<R: BufRead>(
    label: &str,
    mut reader: R,
) -> Result<(Rollup, u64), ReduceError> {
    let mut rollup = Rollup::new();
    let mut open = OpenSpans::new();
    let mut buf = String::new();
    let mut lineno = 0u64;
    let mut total = 0u64;
    loop {
        buf.clear();
        let read = reader.read_line(&mut buf).map_err(|e| ReduceError {
            stream: label.to_string(),
            line: lineno + 1,
            what: format!("read failed: {e}"),
        })?;
        if read == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        fold_line(&mut rollup, &mut open, line).map_err(|what| ReduceError {
            stream: label.to_string(),
            line: lineno,
            what,
        })?;
        total += 1;
    }
    Ok((rollup, total))
}

/// Folds every labelled stream into `rollup`: each stream is reduced
/// into its own fresh rollup ([`reduce_one_stream`]) and the results
/// are merged in input order. This per-stream-then-merge shape is the
/// *only* fold shape the reducer ever uses — the exact mean/variance
/// accumulators are float-order dependent, so mixing "fold it all into
/// one rollup" with "merge partials" would produce last-ulp
/// differences. Holding the shape fixed makes the output byte-identical
/// however the streams are distributed across threads. Returns total
/// event lines consumed.
pub fn reduce_streams<R: BufRead>(
    streams: impl IntoIterator<Item = (String, R)>,
    rollup: &mut Rollup,
) -> Result<u64, ReduceError> {
    let mut total = 0u64;
    for (label, reader) in streams {
        let (part, n) = reduce_one_stream(&label, reader)?;
        rollup.merge(&part).map_err(|e| ReduceError {
            stream: label.clone(),
            line: 0,
            what: format!("rollup merge failed: {e}"),
        })?;
        total += n;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::json::Json;

    const SAMPLE: &str = "\
{\"t_ns\":0,\"kind\":\"mode_switch\",\"to\":\"los\",\"session\":1}\n\
{\"t_ns\":11000000,\"kind\":\"frame\",\"delivered\":true,\"snr_db\":21.5,\"airtime_ns\":450000,\"session\":1}\n\
{\"t_ns\":22000000,\"kind\":\"realign\",\"mode\":\"reflector0\",\"cost_ns\":2000000,\"session\":1}\n\
{\"t_ns\":22000000,\"kind\":\"span_start\",\"span\":\"realign_stall\",\"span_id\":0,\"session\":1}\n\
{\"t_ns\":24000000,\"kind\":\"span_end\",\"span\":\"realign_stall\",\"span_id\":0,\"session\":1}\n\
{\"t_ns\":22000000,\"kind\":\"mode_switch\",\"from\":\"los\",\"to\":\"reflector0\",\"session\":1}\n\
{\"t_ns\":33000000,\"kind\":\"frame\",\"delivered\":false,\"snr_db\":3.0,\"session\":1}\n\
{\"t_ns\":44000000,\"kind\":\"stall_recovered\",\"stall_frames\":1,\"session\":1}\n\
{\"t_ns\":44000000,\"kind\":\"frame\",\"delivered\":true,\"snr_db\":19.0,\"airtime_ns\":500000,\"session\":1}\n";

    #[test]
    fn folds_every_kind_into_the_right_counters() {
        let mut r = Rollup::new();
        let n = reduce_lines("<test>", SAMPLE.lines(), &mut r).expect("valid stream");
        assert_eq!(n, 9);
        let s = &r.sessions()[&1];
        assert_eq!(s.events, 9);
        assert_eq!(s.frames_total, 3);
        assert_eq!(s.frames_delivered, 2);
        assert_eq!(s.mode_switches, 1);
        assert_eq!(s.realigns, 1);
        assert_eq!(s.realign_time_ns, 2_000_000);
        assert_eq!(s.stall_spans, 1);
        assert_eq!(s.stall_time_ns, 2_000_000);
        assert_eq!(s.glitches, 1);
        assert_eq!(s.glitch_frames, 1);
        assert_eq!(
            s.transitions[&("start".to_string(), "los".to_string())],
            1
        );
        assert_eq!(
            s.transitions[&("los".to_string(), "reflector0".to_string())],
            1
        );
        assert_eq!(r.sketch("snr_db").expect("snr").count(), 3);
        assert_eq!(r.sketch("airtime_ns").expect("airtime").count(), 2);
        assert_eq!(r.sketch("stall_ns").expect("stall").count(), 1);
        assert_eq!(r.sketch("realign_cost_ns").expect("realign").count(), 1);
    }

    #[test]
    fn untagged_lines_fold_into_session_zero() {
        let mut r = Rollup::new();
        reduce_lines(
            "<test>",
            ["{\"t_ns\":0,\"kind\":\"frame\",\"delivered\":true,\"snr_db\":10.0}"],
            &mut r,
        )
        .expect("valid");
        assert_eq!(r.sessions()[&0].frames_total, 1);
    }

    #[test]
    fn stream_fold_shape_is_byte_stable_however_streams_are_grouped() {
        // reduce_streams must equal "reduce each stream alone, merge in
        // order" byte for byte — that equivalence is what makes the
        // parallel fan-out in the movr-obs binary thread-count
        // invariant.
        let a = SAMPLE.to_string();
        let b = SAMPLE.replace("\"session\":1", "\"session\":2");
        let mut whole = Rollup::new();
        reduce_streams(
            [
                ("a".to_string(), a.as_bytes()),
                ("b".to_string(), b.as_bytes()),
            ],
            &mut whole,
        )
        .expect("streams");

        let (left, _) = reduce_one_stream("a", a.as_bytes()).expect("a");
        let (right, _) = reduce_one_stream("b", b.as_bytes()).expect("b");
        let mut acc = Rollup::new();
        acc.merge(&left).expect("schema");
        acc.merge(&right).expect("schema");

        assert_eq!(acc.to_json(), whole.to_json());
        assert_eq!(whole.sessions().len(), 2);
    }

    #[test]
    fn reduce_streams_reads_bufread_sources() {
        let mut r = Rollup::new();
        let n = reduce_streams(
            [
                ("a.jsonl".to_string(), SAMPLE.as_bytes()),
                ("b.jsonl".to_string(), "\n".as_bytes()),
            ],
            &mut r,
        )
        .expect("valid streams");
        assert_eq!(n, 9);
        assert_eq!(r.sessions().len(), 1);
    }

    #[test]
    fn malformed_lines_error_with_stream_and_line() {
        let mut r = Rollup::new();
        let err = reduce_lines(
            "fleet-3.jsonl",
            ["{\"t_ns\":0,\"kind\":\"frame\",\"delivered\":true}", "{nope"],
            &mut r,
        )
        .expect_err("bad line");
        assert_eq!(err.stream, "fleet-3.jsonl");
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("fleet-3.jsonl:2: "), "{err}");

        let err = reduce_lines(
            "<x>",
            ["{\"t_ns\":0,\"kind\":\"mode_switch\"}"],
            &mut r,
        )
        .expect_err("missing `to`");
        assert!(err.what.contains("`to`"), "{err}");
    }

    #[test]
    fn session_ids_past_2_pow_53_minus_1_are_errors_not_merged() {
        use crate::{Event, JsonlWriter, Recorder, SessionTagged};
        use movr_math::json::MAX_EXACT_INTEGER;
        let stream = |session: u64| {
            let mut w = JsonlWriter::new(Vec::new());
            SessionTagged::new(&mut w, session).record(Event::new(movr_sim::SimTime::ZERO, "x"));
            w.finish().expect("in-memory sink cannot fail")
        };
        let (r, _) = reduce_one_stream("<last>", &stream(MAX_EXACT_INTEGER)[..]).expect("in range");
        assert_eq!(r.sessions()[&MAX_EXACT_INTEGER].events, 1);
        // 2^53 + 1 parses to 2^53, so 2^53 must be refused for the two
        // streams to stay apart.
        for session in [MAX_EXACT_INTEGER + 1, MAX_EXACT_INTEGER + 2, u64::MAX] {
            let err = reduce_one_stream("<past>", &stream(session)[..]).expect_err("out of range");
            assert_eq!(err.line, 1, "{session}: {err}");
            assert!(err.what.contains("0..=2^53 - 1"), "{session}: {err}");
        }
    }

    #[test]
    fn overflowing_number_is_an_error_naming_stream_and_line() {
        // `1e999` is no `f64`: it must stop the reduce at its line
        // instead of folding +inf into the SNR sketch.
        let lines = [
            "{\"t_ns\":0,\"kind\":\"frame\",\"delivered\":true,\"snr_db\":21.5}",
            "{\"t_ns\":11,\"kind\":\"frame\",\"delivered\":true,\"snr_db\":1e999}",
        ];
        let mut r = Rollup::new();
        let err = reduce_lines("fleet-5.jsonl", lines, &mut r).expect_err("1e999");
        assert_eq!((err.stream.as_str(), err.line), ("fleet-5.jsonl", 2));
        assert!(err.what.contains("out of range"), "{err}");

        let text = lines.join("\n");
        let err = reduce_one_stream("fleet-5.jsonl", text.as_bytes()).expect_err("1e999");
        assert_eq!((err.stream.as_str(), err.line), ("fleet-5.jsonl", 2));
    }

    #[test]
    fn span_cut_across_stream_boundary_is_dropped_not_crashed() {
        let start = "{\"t_ns\":5,\"kind\":\"span_start\",\"span\":\"realign_stall\",\"span_id\":9}";
        let end = "{\"t_ns\":8,\"kind\":\"span_end\",\"span\":\"realign_stall\",\"span_id\":9}";
        let mut r = Rollup::new();
        reduce_lines("<a>", [start], &mut r).expect("start only");
        reduce_lines("<b>", [end], &mut r).expect("end only");
        assert_eq!(r.sessions()[&0].stall_spans, 0);
        assert_eq!(r.sessions()[&0].events, 2);
    }

    #[test]
    fn rollup_json_from_reduce_parses_and_counts_match() {
        let mut r = Rollup::new();
        reduce_lines("<t>", SAMPLE.lines(), &mut r).expect("valid");
        let json = r.to_json();
        let doc = Json::parse(&json).expect("rollup parses");
        let fleet = doc.get("fleet").expect("fleet");
        assert_eq!(fleet.get("events").and_then(Json::as_u64), Some(9));
        assert_eq!(fleet.get("sessions").and_then(Json::as_u64), Some(1));
    }
}
