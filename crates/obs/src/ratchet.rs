//! The perf ratchet: pins bench medians in a checked-in baseline and
//! fails when a run regresses past its tolerance.
//!
//! The baseline is a small TOML subset (`bench-baseline.toml`) read by
//! [`movr_math::toml`], so a key set twice or a repeated `[bench.*]`
//! header is an error naming its line, never a silently loosened pin:
//!
//! ```toml
//! schema = 1
//!
//! [bench.alignment_sweep_101x101_cached]
//! median_ns = 23191563.0   # pinned median on the reference machine
//! max_ratio = 4.0          # fail when measured > pinned * max_ratio
//!
//! [speedup.sweep_speedup]
//! min = 5.0                # fail when reported speedup < min
//!
//! [speedup.fleet_speedup]
//! min = 1.5
//! skip_below_threads = 2   # skipped when the run had fewer threads
//! ```
//!
//! Bench results arrive as the JSON lines `cargo bench` writes (see
//! `out/BENCH_sweep.json`), read by [`movr_math::json`]: measurement
//! lines carry `median_ns`, summary lines carry `speedup` (and
//! optionally `threads`). Two rules are built in on top of the baseline
//! entries: a named line missing from the run fails, and any
//! `bit_identical` / `byte_identical` field present in a checked line
//! must be `true`.
//!
//! Tolerances are deliberately wide ratios, not absolute bounds — the
//! ratchet must pass on any machine while still catching a lost
//! order-of-magnitude (a cache that stopped caching, a fan-out that
//! went serial).

use movr_math::json::Json;
use movr_math::toml;
use std::fmt::Write as _;

/// One pinned measurement bench: fail when the measured `median_ns`
/// exceeds `median_ns * max_ratio`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPin {
    /// Bench name (the JSON line's `name` field).
    pub name: String,
    /// Pinned median, ns, from the reference run.
    pub median_ns: f64,
    /// Allowed slowdown factor relative to the pin.
    pub max_ratio: f64,
}

/// One pinned speedup summary: fail when the reported `speedup` falls
/// below `min`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupPin {
    /// Summary line name.
    pub name: String,
    /// Minimum acceptable speedup.
    pub min: f64,
    /// Skip the check when the line's `threads` field is below this
    /// (single-core machines cannot demonstrate a parallel speedup).
    pub skip_below_threads: Option<u64>,
}

/// A parsed `bench-baseline.toml`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchBaseline {
    /// Measurement pins, in file order.
    pub benches: Vec<BenchPin>,
    /// Speedup pins, in file order.
    pub speedups: Vec<SpeedupPin>,
}

/// A baseline file or bench stream that could not be interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetError {
    /// 1-based line in the offending file.
    pub line: u64,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for RatchetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for RatchetError {}

fn bad(line: usize, what: impl Into<String>) -> RatchetError {
    RatchetError {
        line: movr_math::convert::usize_to_u64(line),
        what: what.into(),
    }
}

/// Parses the baseline: an optional root `schema = 1`, `[bench.NAME]`
/// tables with `median_ns` and `max_ratio`, and `[speedup.NAME]` tables
/// with `min` and an optional integer `skip_below_threads`. Anything
/// else is an error — the file is checked in, so strictness costs
/// nothing and catches typos.
pub fn parse_baseline(text: &str) -> Result<BenchBaseline, RatchetError> {
    let mut out = BenchBaseline::default();
    for table in toml::parse(text).map_err(|e| bad(e.line, e.what))? {
        let (header, at) = (table.name, table.line);
        let (section, name) = match header.split_once('.') {
            _ if at == 0 => ("", ""),
            Some((s @ ("bench" | "speedup"), name)) if !table.array => (s, name),
            _ => return Err(bad(at, format!("unknown section `[{header}]`"))),
        };
        let (mut median_ns, mut max_ratio, mut min, mut skip) = (None, None, None, None);
        for (key, value, line) in &table.keys {
            let num = value
                .as_f64()
                .ok_or_else(|| bad(*line, format!("`{key}` is not a number")));
            match (section, *key) {
                ("", "schema") if value.as_u64() == Some(1) => {}
                ("", "schema") => return Err(bad(*line, format!("unsupported schema `{}`", num?))),
                ("bench", "median_ns") => median_ns = Some(num?),
                ("bench", "max_ratio") => max_ratio = Some(num?),
                ("speedup", "min") => min = Some(num?),
                ("speedup", "skip_below_threads") => {
                    let n = value.as_u64();
                    skip =
                        Some(n.ok_or_else(|| bad(*line, "skip_below_threads must be an integer"))?);
                }
                _ => return Err(bad(*line, format!("unexpected key `{key}` here"))),
            }
        }
        let name = name.to_string();
        match (section, median_ns, max_ratio, min) {
            ("bench", Some(median_ns), Some(max_ratio), _) => out.benches.push(BenchPin {
                name,
                median_ns,
                max_ratio,
            }),
            ("speedup", _, _, Some(min)) => out.speedups.push(SpeedupPin {
                name,
                min,
                skip_below_threads: skip,
            }),
            ("bench", ..) => {
                return Err(bad(
                    at,
                    format!("[{header}] needs `median_ns` and `max_ratio`"),
                ))
            }
            ("speedup", ..) => return Err(bad(at, format!("[{header}] needs `min`"))),
            _ => {}
        }
    }
    Ok(out)
}

/// One checked entry of a ratchet run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// The baseline entry's name.
    pub name: String,
    /// `"ok"`, `"skip"`, or `"FAIL"`.
    pub status: &'static str,
    /// Human-readable measurement vs bound.
    pub detail: String,
}

impl CheckOutcome {
    /// True unless the entry regressed.
    pub fn passed(&self) -> bool {
        self.status != "FAIL"
    }
}

fn fmt_num(x: f64) -> String {
    let mut s = String::new();
    crate::metrics::write_json_f64(&mut s, x);
    s
}

/// Runs the ratchet: every baseline entry against the bench JSON lines
/// (non-JSON lines are ignored, so raw `cargo bench` output works).
/// Returns one outcome per baseline entry, in baseline order. Errors
/// only when the bench stream itself is unreadable; regressions are
/// reported as failed outcomes, not errors.
pub fn check(
    baseline: &BenchBaseline,
    bench_lines: &str,
) -> Result<Vec<CheckOutcome>, RatchetError> {
    let mut rows: Vec<Json> = Vec::new();
    for (i, raw) in bench_lines.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('{') {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| bad(i + 1, e.to_string()))?;
        rows.push(doc);
    }
    let find = |name: &str| {
        rows.iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
    };
    let identity_ok = |row: &Json| -> bool {
        ["bit_identical", "byte_identical"].iter().all(|k| {
            row.get(k).map_or(true, |v| v.as_bool() == Some(true))
        })
    };

    let mut out = Vec::new();
    for pin in &baseline.benches {
        let outcome = match find(&pin.name) {
            None => CheckOutcome {
                name: pin.name.clone(),
                status: "FAIL",
                detail: "bench line missing from the run".to_string(),
            },
            Some(row) => match row.get("median_ns").and_then(Json::as_f64) {
                None => CheckOutcome {
                    name: pin.name.clone(),
                    status: "FAIL",
                    detail: "bench line has no `median_ns`".to_string(),
                },
                Some(measured) => {
                    let bound = pin.median_ns * pin.max_ratio;
                    let mut detail = String::new();
                    let _ = write!(
                        detail,
                        "median {} ns vs bound {} ns (pin {} × {})",
                        fmt_num(measured),
                        fmt_num(bound),
                        fmt_num(pin.median_ns),
                        fmt_num(pin.max_ratio),
                    );
                    let ok = measured <= bound && identity_ok(row);
                    if !identity_ok(row) {
                        detail.push_str("; identity flag is false");
                    }
                    CheckOutcome {
                        name: pin.name.clone(),
                        status: if ok { "ok" } else { "FAIL" },
                        detail,
                    }
                }
            },
        };
        out.push(outcome);
    }
    for pin in &baseline.speedups {
        let outcome = match find(&pin.name) {
            None => CheckOutcome {
                name: pin.name.clone(),
                status: "FAIL",
                detail: "summary line missing from the run".to_string(),
            },
            Some(row) => {
                let threads = row.get("threads").and_then(Json::as_u64);
                let skip = match (pin.skip_below_threads, threads) {
                    (Some(need), Some(have)) => have < need,
                    _ => false,
                };
                if skip {
                    CheckOutcome {
                        name: pin.name.clone(),
                        status: "skip",
                        detail: format!(
                            "run had {} thread(s), pin needs {}",
                            threads.unwrap_or(0),
                            pin.skip_below_threads.unwrap_or(0),
                        ),
                    }
                } else {
                    match row.get("speedup").and_then(Json::as_f64) {
                        None => CheckOutcome {
                            name: pin.name.clone(),
                            status: "FAIL",
                            detail: "summary line has no `speedup`".to_string(),
                        },
                        Some(sp) => {
                            let ok = sp >= pin.min && identity_ok(row);
                            let mut detail =
                                format!("speedup {} vs min {}", fmt_num(sp), fmt_num(pin.min));
                            if !identity_ok(row) {
                                detail.push_str("; identity flag is false");
                            }
                            CheckOutcome {
                                name: pin.name.clone(),
                                status: if ok { "ok" } else { "FAIL" },
                                detail,
                            }
                        }
                    }
                }
            }
        };
        out.push(outcome);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = "\
# reference machine pins\n\
schema = 1\n\
\n\
[bench.sweep_cached]\n\
median_ns = 1000000.0  # 1 ms\n\
max_ratio = 4.0\n\
\n\
[speedup.sweep_speedup]\n\
min = 5.0\n\
\n\
[speedup.fleet_speedup]\n\
min = 1.5\n\
skip_below_threads = 2\n";

    fn bench_lines(cached_median: f64, sweep: f64, fleet: f64, threads: u64) -> String {
        format!(
            "warmup noise\n\
             {{\"name\":\"sweep_cached\",\"median_ns\":{cached_median},\"samples\":8}}\n\
             {{\"name\":\"sweep_speedup\",\"speedup\":{sweep},\"bit_identical\":true}}\n\
             {{\"name\":\"fleet_speedup\",\"speedup\":{fleet},\"threads\":{threads},\"byte_identical\":true}}\n"
        )
    }

    #[test]
    fn parses_the_baseline_shape() {
        let b = parse_baseline(BASELINE).expect("valid baseline");
        assert_eq!(b.benches.len(), 1);
        assert_eq!(b.benches[0].name, "sweep_cached");
        assert_eq!(b.benches[0].max_ratio, 4.0);
        assert_eq!(b.speedups.len(), 2);
        assert_eq!(b.speedups[1].skip_below_threads, Some(2));
    }

    #[test]
    fn baseline_typos_are_rejected_with_line_numbers() {
        assert!(parse_baseline("[wat.x]\n").is_err());
        assert!(parse_baseline("[bench.x]\nmedian_ns = fast\n").is_err());
        let e = parse_baseline("schema = 1\nnot a pair\n").expect_err("bad line");
        assert_eq!(e.line, 2);
        // Incomplete sections fail even with no bad line.
        assert!(parse_baseline("[bench.x]\nmedian_ns = 1.0\n").is_err());
        assert!(parse_baseline("[speedup.x]\n").is_err());
        assert!(parse_baseline("schema = 2\n").is_err());
        // A repeated key or `[bench.*]` header is an error, not an override.
        let e = parse_baseline("[bench.x]\nmedian_ns = 1.0\nmax_ratio = 1.0\nmedian_ns = 1e12\n")
            .expect_err("repeated key");
        assert_eq!(e.line, 4);
        let pin = "[bench.x]\nmedian_ns = 1.0\nmax_ratio = 1.0\n";
        let e = parse_baseline(&format!("{pin}{pin}")).expect_err("repeated header");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn within_tolerance_passes_and_regression_fails() {
        let b = parse_baseline(BASELINE).expect("valid");
        let ok = check(&b, &bench_lines(3_900_000.0, 13.0, 2.0, 4)).expect("readable");
        assert!(ok.iter().all(CheckOutcome::passed), "{ok:?}");

        let slow = check(&b, &bench_lines(4_100_000.0, 13.0, 2.0, 4)).expect("readable");
        assert_eq!(slow[0].status, "FAIL", "{slow:?}");

        let lost = check(&b, &bench_lines(3_900_000.0, 4.9, 2.0, 4)).expect("readable");
        assert_eq!(lost[1].status, "FAIL", "{lost:?}");
    }

    #[test]
    fn single_threaded_runs_skip_the_fleet_speedup_pin() {
        let b = parse_baseline(BASELINE).expect("valid");
        let out = check(&b, &bench_lines(3_900_000.0, 13.0, 0.98, 1)).expect("readable");
        let fleet = out.iter().find(|o| o.name == "fleet_speedup").expect("entry");
        assert_eq!(fleet.status, "skip");
        assert!(out.iter().all(CheckOutcome::passed));
    }

    #[test]
    fn missing_lines_and_false_identity_flags_fail() {
        let b = parse_baseline(BASELINE).expect("valid");
        let out = check(&b, "no json here\n").expect("readable");
        assert!(out.iter().all(|o| o.status == "FAIL"), "{out:?}");

        let flipped = bench_lines(3_900_000.0, 13.0, 2.0, 4)
            .replace("\"bit_identical\":true", "\"bit_identical\":false");
        let out = check(&b, &flipped).expect("readable");
        let sweep = out.iter().find(|o| o.name == "sweep_speedup").expect("entry");
        assert_eq!(sweep.status, "FAIL");
        assert!(sweep.detail.contains("identity"), "{}", sweep.detail);
    }

    #[test]
    fn unreadable_json_is_an_error_not_a_pass() {
        let b = parse_baseline(BASELINE).expect("valid");
        let e = check(&b, "{\"name\":broken\n").expect_err("bad json");
        assert_eq!(e.line, 1);
    }
}
