//! The property runner: seeded case generation, discard handling, and
//! greedy shrinking.
//!
//! [`check`] is the engine (returns the failure for inspection);
//! [`for_all`] / [`for_all_with`] are the test-facing wrappers that panic
//! with a reproduction report; the [`crate::property!`] macro wraps a
//! whole `#[test]` around them.

use crate::gen::Gen;
use crate::PropResult;
use movr_math::SimRng;

/// Why a single case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropError {
    /// An assertion failed; the message describes which.
    Failed(String),
    /// `prop_assume!` rejected the inputs; the case is not counted.
    Discard,
}

impl PropError {
    /// Builds the `Failed` variant (used by the assertion macros).
    pub fn failed(msg: impl Into<String>) -> Self {
        PropError::Failed(msg.into())
    }
}

/// Runner parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of passing cases required.
    pub cases: u32,
    /// Base seed; each case derives its inputs from `(seed, case index)`.
    pub seed: u64,
    /// Maximum accepted shrink steps before reporting.
    pub max_shrink_steps: u32,
    /// Abort if discards exceed `cases * max_discard_ratio`.
    pub max_discard_ratio: u32,
}

impl Config {
    /// Default case count, overridable with `MOVR_TESTKIT_CASES`.
    pub fn default_cases() -> u32 {
        std::env::var("MOVR_TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(96)
    }

    /// Default base seed, overridable with `MOVR_TESTKIT_SEED`.
    pub fn default_seed() -> u64 {
        std::env::var("MOVR_TESTKIT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x4D6F_5652) // "MoVR"
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: Config::default_cases(),
            seed: Config::default_seed(),
            max_shrink_steps: 1024,
            max_discard_ratio: 10,
        }
    }
}

/// Statistics from a passing run.
#[derive(Debug, Clone, Copy)]
pub struct CheckReport {
    /// Cases that ran and passed.
    pub cases: u32,
    /// Inputs rejected by `prop_assume!`.
    pub discards: u32,
}

/// A falsified property, with the original and shrunk counterexamples.
#[derive(Debug, Clone)]
pub struct Failure<V> {
    /// Index of the failing case (0-based).
    pub case: u32,
    /// The generated input that first failed.
    pub original: V,
    /// The simplest failing input greedy shrinking reached.
    pub shrunk: V,
    /// Accepted shrink steps between `original` and `shrunk`.
    pub shrink_steps: u32,
    /// The assertion message at the shrunk input.
    pub message: String,
    /// Base seed of the run (reproduce by fixing `MOVR_TESTKIT_SEED`).
    pub seed: u64,
}

/// Runs `prop` over `cfg.cases` generated inputs; on failure, shrinks
/// greedily and returns the [`Failure`] instead of panicking.
pub fn check<G, F>(cfg: &Config, gen: &G, prop: F) -> Result<CheckReport, Failure<G::Value>>
where
    G: Gen,
    F: Fn(&G::Value) -> PropResult,
{
    let mut discards = 0u32;
    let max_discards = cfg.cases.saturating_mul(cfg.max_discard_ratio);
    let mut passed = 0u32;
    let mut case = 0u32;
    while passed < cfg.cases {
        // Each case draws from its own forked stream so a property that
        // consumes extra randomness cannot shift later cases.
        let mut rng = SimRng::seed_from_u64(cfg.seed).fork(u64::from(case));
        let value = gen.generate(&mut rng);
        case += 1;
        match prop(&value) {
            Ok(()) => passed += 1,
            Err(PropError::Discard) => {
                discards += 1;
                assert!(
                    discards <= max_discards,
                    "property discarded {discards} inputs for {passed} passes; \
                     loosen the generator or the prop_assume! conditions"
                );
            }
            Err(PropError::Failed(message)) => {
                let (shrunk, shrink_steps, message) =
                    shrink_failure(cfg, gen, &prop, value.clone(), message);
                return Err(Failure {
                    case: case - 1,
                    original: value,
                    shrunk,
                    shrink_steps,
                    message,
                    seed: cfg.seed,
                });
            }
        }
    }
    Ok(CheckReport {
        cases: passed,
        discards,
    })
}

/// Greedy descent: repeatedly replace the failing input with the first
/// shrink candidate that still fails, until none does.
fn shrink_failure<G, F>(
    cfg: &Config,
    gen: &G,
    prop: &F,
    mut current: G::Value,
    mut message: String,
) -> (G::Value, u32, String)
where
    G: Gen,
    F: Fn(&G::Value) -> PropResult,
{
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in gen.shrink(&current) {
            if let Err(PropError::Failed(m)) = prop(&cand) {
                current = cand;
                message = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, steps, message)
}

/// Checks `prop` with the default [`Config`], panicking with a shrunk
/// counterexample report on failure.
pub fn for_all<G, F>(name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> PropResult,
{
    for_all_with(name, &Config::default(), gen, prop);
}

/// [`for_all`] with an explicit [`Config`].
pub fn for_all_with<G, F>(name: &str, cfg: &Config, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> PropResult,
{
    if let Err(f) = check(cfg, gen, prop) {
        panic!(
            "property `{name}` falsified at case {case} (seed {seed}):\n  \
             original: {original:?}\n  \
             shrunk ({steps} steps): {shrunk:?}\n  \
             assertion: {message}\n\
             reproduce with MOVR_TESTKIT_SEED={seed}",
            case = f.case,
            seed = f.seed,
            original = f.original,
            steps = f.shrink_steps,
            shrunk = f.shrunk,
            message = f.message,
        );
    }
}

/// Asserts a condition inside a property body; on failure the case is
/// reported (and shrunk) rather than panicking the whole test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if $cond {
        } else {
            return ::core::result::Result::Err($crate::PropError::failed(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return ::core::result::Result::Err($crate::PropError::failed(format!(
                concat!("assertion failed: ", stringify!($cond), ": {}"),
                format_args!($($fmt)+)
            )));
        }
    };
}

/// Asserts two expressions are equal inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::PropError::failed(format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Asserts two expressions are unequal inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::PropError::failed(format!(
                "assertion failed: `{} != {}` (both: {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Rejects inputs that don't satisfy a precondition; the case is redrawn
/// and not counted toward the case target.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::PropError::Discard);
        }
    };
}

/// Declares a property as a `#[test]`.
///
/// ```
/// use movr_testkit::{property, prop_assert, f64_range};
///
/// property! {
///     fn addition_commutes(a in f64_range(-1e3, 1e3), b in f64_range(-1e3, 1e3)) {
///         prop_assert!((a + b - (b + a)).abs() < 1e-12);
///     }
/// }
/// ```
///
/// An optional `cases = N,` prefix overrides the default case count:
///
/// ```
/// use movr_testkit::{property, prop_assert, usize_range};
///
/// property! {
///     cases = 256,
///     fn small_is_small(n in usize_range(0, 9)) {
///         prop_assert!(n < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! property {
    (cases = $cases:expr, $(#[$meta:meta])* fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let cfg = $crate::Config {
                cases: $cases,
                ..$crate::Config::default()
            };
            let gen = ($($gen,)+);
            $crate::for_all_with(stringify!($name), &cfg, &gen, |__case| {
                #[allow(unused_mut, reason = "every case arg is bound mut; only some bodies mutate")]
                let ($(mut $arg,)+) = ::core::clone::Clone::clone(__case);
                $body
                ::core::result::Result::Ok(())
            });
        }
    };
    ($(#[$meta:meta])* fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block) => {
        $crate::property! {
            cases = $crate::Config::default_cases(),
            $(#[$meta])* fn $name($($arg in $gen),+) $body
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::gen::{f64_range, usize_range, vec_of};
    use crate::{check, Config, PropError};

    fn cfg(cases: u32) -> Config {
        Config {
            cases,
            seed: 7,
            ..Config::default()
        }
    }

    #[test]
    fn passing_property_reports_case_count() {
        let report = check(&cfg(64), &(f64_range(0.0, 1.0),), |&(v,)| {
            crate::prop_assert!((0.0..1.0).contains(&v));
            Ok(())
        })
        .expect("property holds");
        assert_eq!(report.cases, 64);
        assert_eq!(report.discards, 0);
    }

    #[test]
    fn failing_property_shrinks_to_the_boundary() {
        // Deliberately false: claims every draw is below 100. Greedy
        // shrinking must walk the counterexample down to (nearly) the
        // boundary value 100 — far below the typical first failure.
        let g = (f64_range(0.0, 10_000.0),);
        let failure = check(&cfg(200), &g, |&(v,)| {
            crate::prop_assert!(v < 100.0, "v={v}");
            Ok(())
        })
        .expect_err("property is false");
        let (orig,) = failure.original;
        let (shrunk,) = failure.shrunk;
        assert!(orig >= 100.0);
        assert!(shrunk >= 100.0, "shrunk value must still fail");
        assert!(
            shrunk <= 110.0,
            "greedy shrinking should approach the boundary, got {shrunk}"
        );
        assert!(shrunk <= orig);
        assert!(failure.shrink_steps > 0 || orig <= 110.0);
        assert!(failure.message.contains("assertion failed"));
    }

    #[test]
    fn shrinking_minimises_vectors() {
        // False whenever the vector contains any element >= 5; the minimal
        // counterexample is a single-element vector.
        let g = (vec_of(usize_range(0, 9), 0, 12),);
        let failure = check(&cfg(200), &g, |(xs,)| {
            crate::prop_assert!(xs.iter().all(|&x| x < 5), "xs={xs:?}");
            Ok(())
        })
        .expect_err("property is false");
        let (shrunk,) = failure.shrunk;
        assert_eq!(shrunk.len(), 1, "shrunk to one offending element: {shrunk:?}");
        assert_eq!(shrunk[0], 5, "offending element shrunk to the boundary");
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let mut ran = 0u32;
        let counter = std::cell::Cell::new(0u32);
        let report = check(&cfg(32), &(usize_range(0, 9),), |&(v,)| {
            counter.set(counter.get() + 1);
            crate::prop_assume!(v % 2 == 0);
            Ok(())
        })
        .expect("holds");
        ran += report.cases;
        assert_eq!(ran, 32);
        assert!(report.discards > 0, "some odd draws must have been assumed away");
        assert_eq!(counter.get(), report.cases + report.discards);
    }

    #[test]
    fn runaway_discards_panic() {
        let result = std::panic::catch_unwind(|| {
            let _ = check(&cfg(16), &(usize_range(0, 9),), |_| {
                Err(PropError::Discard)
            });
        });
        assert!(result.is_err(), "discarding every input must abort loudly");
    }

    #[test]
    fn same_seed_generates_same_cases() {
        let collect = |seed: u64| {
            let vals = std::cell::RefCell::new(Vec::new());
            let c = Config {
                cases: 16,
                seed,
                ..Config::default()
            };
            let _ = check(&c, &(f64_range(0.0, 1.0),), |&(v,)| {
                vals.borrow_mut().push(v);
                Ok(())
            });
            vals.into_inner()
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }

    // The macro form itself, exercised as real tests.
    crate::property! {
        fn macro_form_runs(a in f64_range(-1.0, 1.0), b in f64_range(-1.0, 1.0)) {
            crate::prop_assert!((a + b).abs() <= 2.0);
        }
    }

    crate::property! {
        cases = 128,
        fn macro_form_with_cases_and_assume(n in usize_range(0, 100)) {
            crate::prop_assume!(n > 0);
            crate::prop_assert!(n >= 1);
        }
    }
}
