//! Fleet rollups: the bounded-memory aggregate the streaming reducer
//! folds event streams into.
//!
//! A [`Rollup`] holds, for an arbitrary number of input events:
//!
//! * four fleet-wide [`Sketch`]es ([`FLEET_SKETCHES`]) — SNR, frame
//!   airtime, stall duration, realignment latency;
//! * one [`SessionRollup`] per session — frame/glitch/realign counters
//!   and a mode-transition matrix;
//! * nothing else. Memory is `O(sessions + modes² + sketch buckets)`,
//!   independent of event count.
//!
//! Rollups merge ([`Rollup::merge`]) so streams can be reduced
//! per-file in parallel and combined, and serialise to a single JSON
//! object with sorted keys ([`Rollup::write_json`]) so the result is
//! byte-identical across runs, thread counts, and machines — fit for
//! golden pinning. [`diff_json`] reports the structural difference of
//! two such documents path by path.

use crate::metrics::{write_json_f64, MergeError};
use crate::sketch::{Sketch, SketchSpec, Spacing};
use movr_math::json::{write_str, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The fleet sketch layouts, in output (alphabetical) order. Changing a
/// layout is a schema change: rollups only merge when specs match.
pub const FLEET_SKETCHES: [(&str, SketchSpec); 4] = [
    (
        // Per-frame wireless airtime: 100 µs .. 100 ms, log-spaced.
        "airtime_ns",
        SketchSpec {
            lo: 1e5,
            hi: 1e8,
            buckets: 60,
            spacing: Spacing::Log,
        },
    ),
    (
        // Realignment cost per event: 1 ms .. 10 s, log-spaced.
        "realign_cost_ns",
        SketchSpec {
            lo: 1e6,
            hi: 1e10,
            buckets: 48,
            spacing: Spacing::Log,
        },
    ),
    (
        // Frame SNR in dB — already logarithmic, so linear buckets.
        "snr_db",
        SketchSpec {
            lo: -10.0,
            hi: 50.0,
            buckets: 120,
            spacing: Spacing::Linear,
        },
    ),
    (
        // Realignment stall spans: 1 ms .. 10 s, log-spaced.
        "stall_ns",
        SketchSpec {
            lo: 1e6,
            hi: 1e10,
            buckets: 48,
            spacing: Spacing::Log,
        },
    ),
];

/// Per-session aggregate: counters plus the mode-transition matrix.
/// The matrix key is `(from, to)`; a session's first mode arrives as a
/// transition from `"start"`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionRollup {
    /// Total event lines attributed to this session.
    pub events: u64,
    /// Frames delivered on time.
    pub frames_delivered: u64,
    /// Frames attempted.
    pub frames_total: u64,
    /// Contiguous missed-frame runs that ended (`stall_recovered`).
    pub glitches: u64,
    /// Frames lost inside those runs.
    pub glitch_frames: u64,
    /// Mode switches after the first mode was established.
    pub mode_switches: u64,
    /// Total realignment cost, ns.
    pub realign_time_ns: u64,
    /// Realignment events.
    pub realigns: u64,
    /// Closed `realign_stall` spans.
    pub stall_spans: u64,
    /// Total closed `realign_stall` span time, ns.
    pub stall_time_ns: u64,
    /// Mode-transition counts, keyed `(from, to)`.
    pub transitions: BTreeMap<(String, String), u64>,
}

impl SessionRollup {
    fn absorb(&mut self, other: &SessionRollup) {
        self.events += other.events;
        self.frames_delivered += other.frames_delivered;
        self.frames_total += other.frames_total;
        self.glitches += other.glitches;
        self.glitch_frames += other.glitch_frames;
        self.mode_switches += other.mode_switches;
        self.realign_time_ns += other.realign_time_ns;
        self.realigns += other.realigns;
        self.stall_spans += other.stall_spans;
        self.stall_time_ns += other.stall_time_ns;
        for (k, n) in &other.transitions {
            *self.transitions.entry(k.clone()).or_insert(0) += n;
        }
    }

    /// Writes the scalar counters up to and including `realigns`
    /// (everything alphabetically before the fleet-only keys).
    fn write_scalars_head(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"events\":{},\"frames_delivered\":{},\"frames_total\":{},\
             \"glitch_frames\":{},\"glitches\":{},\"mode_switches\":{},\
             \"realign_time_ns\":{},\"realigns\":{}",
            self.events,
            self.frames_delivered,
            self.frames_total,
            self.glitch_frames,
            self.glitches,
            self.mode_switches,
            self.realign_time_ns,
            self.realigns,
        );
    }

    fn write_scalars_tail(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"stall_spans\":{},\"stall_time_ns\":{},",
            self.stall_spans, self.stall_time_ns
        );
        write_transitions(out, &self.transitions);
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        self.write_scalars_head(out);
        out.push(',');
        self.write_scalars_tail(out);
        out.push('}');
    }
}

fn write_transitions(out: &mut String, m: &BTreeMap<(String, String), u64>) {
    out.push_str("\"transitions\":{");
    for (i, ((from, to), n)) in m.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Mode names come from the input stream, so the key is escaped.
        write_str(out, &format!("{from}->{to}"));
        let _ = write!(out, ":{n}");
    }
    out.push('}');
}

/// The full fleet aggregate (see module docs).
#[derive(Debug, Clone)]
pub struct Rollup {
    sessions: BTreeMap<u64, SessionRollup>,
    sketches: [Sketch; 4],
}

impl Default for Rollup {
    fn default() -> Self {
        Rollup::new()
    }
}

impl Rollup {
    /// An empty rollup with the standard [`FLEET_SKETCHES`] layouts.
    pub fn new() -> Self {
        let mk = |i: usize| Sketch::new(FLEET_SKETCHES[i].1); // called with i in 0..4 below; FLEET_SKETCHES has four entries
        Rollup {
            sessions: BTreeMap::new(),
            sketches: [mk(0), mk(1), mk(2), mk(3)],
        }
    }

    /// The per-session aggregates, keyed by session id.
    pub fn sessions(&self) -> &BTreeMap<u64, SessionRollup> {
        &self.sessions
    }

    /// The fleet sketch named `name` (one of [`FLEET_SKETCHES`]).
    pub fn sketch(&self, name: &str) -> Option<&Sketch> {
        FLEET_SKETCHES
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| &self.sketches[i])
    }

    pub(crate) fn session_mut(&mut self, id: u64) -> &mut SessionRollup {
        self.sessions.entry(id).or_default()
    }

    pub(crate) fn observe(&mut self, sketch: usize, v: f64) {
        self.sketches[sketch].observe(v);
    }

    /// The fleet-wide aggregate: every session's counters and
    /// transition matrix summed.
    pub fn fleet_totals(&self) -> SessionRollup {
        let mut all = SessionRollup::default();
        for s in self.sessions.values() {
            all.absorb(s);
        }
        all
    }

    /// Merges `other` into `self`. Errors (without partial effect on the
    /// sketches) when sketch layouts differ — i.e. the rollups came from
    /// different schema versions.
    pub fn merge(&mut self, other: &Rollup) -> Result<(), MergeError> {
        // Validate every layout before mutating any sketch, so a schema
        // mismatch cannot leave `self` half-merged.
        for (a, b) in self.sketches.iter().zip(&other.sketches) {
            if a.spec() != b.spec() {
                return Err(MergeError::new(
                    a.histogram().edges(),
                    b.histogram().edges(),
                ));
            }
        }
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.try_merge(b)?;
        }
        for (id, s) in &other.sessions {
            self.session_mut(*id).absorb(s);
        }
        Ok(())
    }

    /// Serialises the rollup as one JSON object with sorted keys:
    /// `{"fleet":{…},"schema":1,"sessions":{"0":{…},…}}`. Deterministic:
    /// the same events in the same per-session order produce identical
    /// bytes regardless of how the streams were split across files or
    /// threads.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let fleet = self.fleet_totals();
        out.push_str("{\"fleet\":{");
        fleet.write_scalars_head(&mut out);
        let _ = write!(&mut out, ",\"sessions\":{},\"sketches\":{{", self.sessions.len());
        for (i, (name, _)) in FLEET_SKETCHES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(&mut out, "\"{name}\":");
            self.sketches[i].write_json(&mut out);
        }
        out.push_str("},");
        fleet.write_scalars_tail(&mut out);
        out.push_str("},\"schema\":1,\"sessions\":{");
        for (i, (id, s)) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(&mut out, "\"{id}\":");
            s.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

/// One structural difference between two JSON documents: the path where
/// they diverge and what each side holds there (`None` = absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Dotted path from the root, array elements as `[i]`.
    pub path: String,
    /// Rendering of the left value at `path`, if present.
    pub left: Option<String>,
    /// Rendering of the right value at `path`, if present.
    pub right: Option<String>,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let absent = "(absent)".to_string();
        write!(
            f,
            "{}: {} != {}",
            self.path,
            self.left.as_ref().unwrap_or(&absent),
            self.right.as_ref().unwrap_or(&absent),
        )
    }
}

fn render(j: &Json<'_>) -> String {
    let mut s = String::new();
    match j {
        Json::Null => s.push_str("null"),
        Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => write_json_f64(&mut s, *x),
        Json::Str(text) => write_str(&mut s, text),
        Json::Arr(a) => s = format!("[…{} items]", a.len()),
        Json::Obj(o) => s = format!("{{…{} keys}}", o.len()),
    }
    s
}

/// The dotted path of object key `k` under `path`.
fn key_path(path: &str, k: &str) -> String {
    if path.is_empty() {
        k.to_string()
    } else {
        format!("{path}.{k}")
    }
}

fn diff_walk(path: &str, a: &Json<'_>, b: &Json<'_>, out: &mut Vec<DiffEntry>) {
    match (a, b) {
        (Json::Obj(ao), Json::Obj(bo)) => {
            for (k, av) in ao {
                let sub = key_path(path, k);
                match bo.iter().find(|(bk, _)| bk == k) {
                    Some((_, bv)) => diff_walk(&sub, av, bv, out),
                    None => out.push(DiffEntry {
                        path: sub,
                        left: Some(render(av)),
                        right: None,
                    }),
                }
            }
            for (k, bv) in bo {
                if !ao.iter().any(|(ak, _)| ak == k) {
                    out.push(DiffEntry {
                        path: key_path(path, k),
                        left: None,
                        right: Some(render(bv)),
                    });
                }
            }
        }
        (Json::Arr(aa), Json::Arr(ba)) => {
            for (i, pair) in aa.iter().zip(ba).enumerate() {
                diff_walk(&format!("{path}[{i}]"), pair.0, pair.1, out);
            }
            for (i, av) in aa.iter().enumerate().skip(ba.len()) {
                out.push(DiffEntry {
                    path: format!("{path}[{i}]"),
                    left: Some(render(av)),
                    right: None,
                });
            }
            for (i, bv) in ba.iter().enumerate().skip(aa.len()) {
                out.push(DiffEntry {
                    path: format!("{path}[{i}]"),
                    left: None,
                    right: Some(render(bv)),
                });
            }
        }
        _ => {
            let same = match (a, b) {
                (Json::Null, Json::Null) => true,
                (Json::Bool(x), Json::Bool(y)) => x == y,
                (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
                (Json::Str(x), Json::Str(y)) => x == y,
                _ => false,
            };
            if !same {
                out.push(DiffEntry {
                    path: path.to_string(),
                    left: Some(render(a)),
                    right: Some(render(b)),
                });
            }
        }
    }
}

/// Structurally compares two JSON documents, returning one entry per
/// diverging path (empty = identical). Object key order is ignored;
/// numbers compare bit-exactly (so `-0.0 != 0.0`, and `null`-encoded
/// non-finites only equal `null`).
pub fn diff_json(a: &Json<'_>, b: &Json<'_>) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    diff_walk("", a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rollup {
        let mut r = Rollup::new();
        {
            let s = r.session_mut(0);
            s.events = 10;
            s.frames_total = 4;
            s.frames_delivered = 3;
            s.mode_switches = 1;
            *s.transitions
                .entry(("start".into(), "los".into()))
                .or_insert(0) += 1;
            *s.transitions
                .entry(("los".into(), "reflector0".into()))
                .or_insert(0) += 1;
        }
        r.observe(2, 21.5);
        r.observe(2, 24.0);
        r
    }

    #[test]
    fn json_shape_is_sorted_and_parses() {
        let r = sample();
        let json = r.to_json();
        let doc = Json::parse(&json).expect("rollup JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_u64),
            Some(1),
            "{json}"
        );
        let fleet = doc.get("fleet").expect("fleet");
        assert_eq!(fleet.get("sessions").and_then(Json::as_u64), Some(1));
        assert_eq!(fleet.get("frames_total").and_then(Json::as_u64), Some(4));
        let snr = fleet
            .get("sketches")
            .and_then(|s| s.get("snr_db"))
            .expect("snr sketch");
        assert_eq!(snr.get("count").and_then(Json::as_u64), Some(2));
        // Keys sorted at every level we emit.
        let top: Vec<&str> = doc
            .fields()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(top, ["fleet", "schema", "sessions"]);
        let fleet_keys: Vec<&str> = fleet
            .fields()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = fleet_keys.clone();
        sorted.sort_unstable();
        assert_eq!(fleet_keys, sorted);
    }

    #[test]
    fn transitions_render_as_from_arrow_to() {
        let json = sample().to_json();
        assert!(
            json.contains("\"transitions\":{\"los->reflector0\":1,\"start->los\":1}"),
            "{json}"
        );
    }

    #[test]
    fn merge_equals_sequential_fold() {
        let mut a = sample();
        let b = sample();
        a.merge(&b).expect("same schema");
        let json = a.to_json();
        let doc = Json::parse(&json).expect("parses");
        let fleet = doc.get("fleet").expect("fleet");
        assert_eq!(fleet.get("frames_total").and_then(Json::as_u64), Some(8));
        assert_eq!(fleet.get("sessions").and_then(Json::as_u64), Some(1));
        let snr = fleet.get("sketches").and_then(|s| s.get("snr_db")).expect("snr");
        assert_eq!(snr.get("count").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn diff_reports_changed_and_missing_paths() {
        let a = Json::parse(r#"{"x":{"y":1,"z":2},"v":[1,2]}"#).expect("a");
        let b = Json::parse(r#"{"x":{"y":1,"w":3},"v":[1]}"#).expect("b");
        let d = diff_json(&a, &b);
        let paths: Vec<&str> = d.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["x.z", "x.w", "v[1]"]);
        assert_eq!(d[0].right, None);
        assert_eq!(d[1].left, None);
        assert!(d[2].to_string().contains("v[1]: 2 != (absent)"), "{}", d[2]);
    }

    #[test]
    fn diff_of_identical_rollups_is_empty() {
        let (a_text, b_text) = (sample().to_json(), sample().to_json());
        let a = Json::parse(&a_text).expect("a");
        let b = Json::parse(&b_text).expect("b");
        assert!(diff_json(&a, &b).is_empty());
    }

    #[test]
    fn merge_rejects_mismatched_schema() {
        let mut a = Rollup::new();
        let mut b = Rollup::new();
        b.sketches[0] = Sketch::new(SketchSpec::log(1.0, 10.0, 3));
        assert!(a.merge(&b).is_err());
        // And self is untouched: still merges with a clean peer.
        assert!(a.merge(&Rollup::new()).is_ok());
    }
}
