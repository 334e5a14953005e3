//! The perf ratchet: pins each bench's ratio to the testkit's frozen
//! calibration kernel in a checked-in baseline and fails when a run
//! regresses past its tolerance.
//!
//! The baseline is a small TOML subset (`bench-baseline.toml`) read by
//! [`movr_math::toml`], so a key set twice or a repeated `[bench.*]`
//! header is an error naming its line, never a silently loosened pin:
//!
//! ```toml
//! schema = 2
//!
//! [bench.alignment_sweep_101x101_batched]
//! kernel_ratio = 5.494     # pinned median of sample time ÷ kernel time
//! max_ratio = 1.3          # fail when measured > pinned * max_ratio
//!
//! [speedup.sweep_skip_speedup]
//! min = 2.0                # fail when reported speedup < min
//!
//! [speedup.fleet_speedup]
//! min = 1.2
//! skip_below_threads = 2   # skipped when the run had fewer threads
//! ```
//!
//! Bench results arrive as the JSON lines `cargo bench` writes (see
//! `out/BENCH_sweep.json`), read by [`movr_math::json`]: measurement
//! lines carry `kernel_ratio` (and raw `median_ns` for humans), summary
//! lines carry `speedup` (and optionally `threads`). Two rules are built
//! in on top of the baseline entries: a named line missing from the run
//! fails, and any `bit_identical` / `byte_identical` field present in a
//! checked line must be `true`.
//!
//! A row's `kernel_ratio` is the median, over its samples, of the
//! sample's time divided by the calibration kernel's, run for as long as
//! a sample just before it, so a slower or busier host moves it far less
//! than it moves raw nanoseconds. Each `max_ratio` is set from the row's
//! spread over repeated runs on one machine (the baseline's comments
//! give it). A pin carries over between machines only as far as the
//! kernel and the row slow down alike, so a new machine re-pins.

use movr_math::json::Json;
use movr_math::toml;
use std::fmt::Write as _;

/// One pinned measurement bench: fail when the measured `kernel_ratio`
/// exceeds `kernel_ratio * max_ratio`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPin {
    /// Bench name (the JSON line's `name` field).
    pub name: String,
    /// Pinned ratio of the row's time to the calibration kernel's.
    pub kernel_ratio: f64,
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

/// Parses the baseline: an optional root `schema = 2`, `[bench.NAME]`
/// tables with `kernel_ratio` and `max_ratio`, and `[speedup.NAME]` tables
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
        let (mut kernel_ratio, mut max_ratio, mut min, mut skip) = (None, None, None, None);
        for (key, value, line) in &table.keys {
            let num = value
                .as_f64()
                .ok_or_else(|| bad(*line, format!("`{key}` is not a number")));
            match (section, *key) {
                ("", "schema") if value.as_u64() == Some(2) => {}
                ("", "schema") => {
                    return Err(bad(
                        *line,
                        format!("unsupported schema `{}`; pins are schema 2 (`kernel_ratio`)", num?),
                    ))
                }
                ("bench", "kernel_ratio") => kernel_ratio = Some(num?),
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
        match (section, kernel_ratio, max_ratio, min) {
            ("bench", Some(kernel_ratio), Some(max_ratio), _) => out.benches.push(BenchPin {
                name,
                kernel_ratio,
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
                    format!("[{header}] needs `kernel_ratio` and `max_ratio`"),
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
            row.get(k).is_none_or(|v| v.as_bool() == Some(true))
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
            Some(row) => match row.get("kernel_ratio").and_then(Json::as_f64) {
                None => CheckOutcome {
                    name: pin.name.clone(),
                    status: "FAIL",
                    detail: "bench line has no `kernel_ratio`".to_string(),
                },
                Some(measured) => {
                    let ratio = measured / pin.kernel_ratio;
                    let mut detail = String::new();
                    let _ = write!(
                        detail,
                        "kernel ratio {} is {ratio:.2}× the pin {} (max {})",
                        fmt_num(measured),
                        fmt_num(pin.kernel_ratio),
                        fmt_num(pin.max_ratio),
                    );
                    let ok = measured <= pin.kernel_ratio * pin.max_ratio && identity_ok(row);
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
                            "run had {} thread(s), pin needs {}; speedup {}",
                            threads.unwrap_or(0),
                            pin.skip_below_threads.unwrap_or(0),
                            row.get("speedup").and_then(Json::as_f64).map_or("absent".to_string(), fmt_num),
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
schema = 2\n\
\n\
[bench.sweep_batched]\n\
kernel_ratio = 5.0  # five kernel runs\n\
max_ratio = 1.5\n\
\n\
[speedup.sweep_skip_speedup]\n\
min = 2.0\n\
\n\
[speedup.fleet_speedup]\n\
min = 1.5\n\
skip_below_threads = 2\n";

    fn bench_lines(ratio: f64, skip: f64, fleet: f64, threads: u64) -> String {
        format!(
            "warmup noise\n\
             {{\"name\":\"sweep_batched\",\"kernel_ratio\":{ratio},\"median_ns\":9e6,\"samples\":8}}\n\
             {{\"name\":\"sweep_skip_speedup\",\"speedup\":{skip},\"bit_identical\":true}}\n\
             {{\"name\":\"fleet_speedup\",\"speedup\":{fleet},\"threads\":{threads},\"byte_identical\":true}}\n"
        )
    }

    #[test]
    fn parses_the_baseline_shape() {
        let b = parse_baseline(BASELINE).expect("valid baseline");
        assert_eq!(b.benches.len(), 1);
        assert_eq!(b.benches[0].name, "sweep_batched");
        assert_eq!(b.benches[0].kernel_ratio, 5.0);
        assert_eq!(b.benches[0].max_ratio, 1.5);
        assert_eq!(b.speedups.len(), 2);
        assert_eq!(b.speedups[1].skip_below_threads, Some(2));
    }

    #[test]
    fn baseline_typos_are_rejected_with_line_numbers() {
        assert!(parse_baseline("[wat.x]\n").is_err());
        assert!(parse_baseline("[bench.x]\nkernel_ratio = fast\n").is_err());
        let e = parse_baseline("schema = 2\nnot a pair\n").expect_err("bad line");
        assert_eq!(e.line, 2);
        // Incomplete sections fail even with no bad line.
        assert!(parse_baseline("[bench.x]\nkernel_ratio = 1.0\n").is_err());
        assert!(parse_baseline("[speedup.x]\n").is_err());
        assert!(parse_baseline("schema = 3\n").is_err());
        // A raw-nanosecond pin is not a kernel-ratio pin.
        assert!(parse_baseline("[bench.x]\nmedian_ns = 1.0\nmax_ratio = 1.0\n").is_err());
        // A repeated key or `[bench.*]` header is an error, not an override.
        let e = parse_baseline("[bench.x]\nkernel_ratio = 1.0\nmax_ratio = 1.0\nkernel_ratio = 1e12\n")
            .expect_err("repeated key");
        assert_eq!(e.line, 4);
        let pin = "[bench.x]\nkernel_ratio = 1.0\nmax_ratio = 1.0\n";
        let e = parse_baseline(&format!("{pin}{pin}")).expect_err("repeated header");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn schema_1_is_rejected_by_naming_schema_2() {
        let e = parse_baseline("schema = 1\n").expect_err("old schema");
        assert_eq!(e.line, 1);
        assert!(e.what.contains("schema 2"), "{e}");
    }

    #[test]
    fn within_tolerance_passes_and_regression_fails() {
        let b = parse_baseline(BASELINE).expect("valid");
        let ok = check(&b, &bench_lines(7.4, 3.8, 2.0, 4)).expect("readable");
        assert!(ok.iter().all(CheckOutcome::passed), "{ok:?}");

        let lost = check(&b, &bench_lines(7.4, 1.9, 2.0, 4)).expect("readable");
        assert_eq!(lost[1].status, "FAIL", "{lost:?}");
    }

    #[test]
    fn a_row_at_1_6_times_its_pin_fails_a_1_5_bound() {
        let b = parse_baseline(BASELINE).expect("valid");
        let slow = check(&b, &bench_lines(8.0, 3.8, 2.0, 4)).expect("readable");
        assert_eq!(slow[0].status, "FAIL", "{slow:?}");
        assert!(slow[0].detail.contains("1.60× the pin 5 (max 1.5)"), "{}", slow[0].detail);
    }

    #[test]
    fn a_bench_line_without_a_kernel_ratio_fails() {
        let b = parse_baseline(BASELINE).expect("valid");
        let raw = bench_lines(5.0, 3.8, 2.0, 4).replace("\"kernel_ratio\":5,", "");
        assert!(!raw.contains("kernel_ratio"));
        let out = check(&b, &raw).expect("readable");
        assert_eq!(out[0].status, "FAIL", "{out:?}");
        assert!(out[0].detail.contains("no `kernel_ratio`"), "{}", out[0].detail);
    }

    #[test]
    fn single_threaded_runs_skip_the_fleet_speedup_pin() {
        let b = parse_baseline(BASELINE).expect("valid");
        let out = check(&b, &bench_lines(5.0, 3.8, 0.98, 1)).expect("readable");
        let fleet = out.iter().find(|o| o.name == "fleet_speedup").expect("entry");
        assert_eq!(fleet.status, "skip");
        assert!(fleet.detail.contains("speedup 0.98"), "{}", fleet.detail);
        assert!(out.iter().all(CheckOutcome::passed));
    }

    #[test]
    fn missing_lines_and_false_identity_flags_fail() {
        let b = parse_baseline(BASELINE).expect("valid");
        let out = check(&b, "no json here\n").expect("readable");
        assert!(out.iter().all(|o| o.status == "FAIL"), "{out:?}");

        let flipped = bench_lines(5.0, 3.8, 2.0, 4)
            .replace("\"bit_identical\":true", "\"bit_identical\":false");
        let out = check(&b, &flipped).expect("readable");
        let skip = out.iter().find(|o| o.name == "sweep_skip_speedup").expect("entry");
        assert_eq!(skip.status, "FAIL");
        assert!(skip.detail.contains("identity"), "{}", skip.detail);
    }

    #[test]
    fn unreadable_json_is_an_error_not_a_pass() {
        let b = parse_baseline(BASELINE).expect("valid");
        let e = check(&b, "{\"name\":broken\n").expect_err("bad json");
        assert_eq!(e.line, 1);
    }
}
