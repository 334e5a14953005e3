//! Oracle for the in-tree float writer: `movr_math::json::write_f64_bytes`
//! must append exactly the text `format!("{x}")` gives, for every `f64`.
//! Every float in a recorded timeline, rollup, metrics snapshot or bench
//! line goes through it, so one differing byte here is one differing
//! byte in every golden downstream.
//!
//! The cases cover seeded random bit patterns, every biased exponent at
//! its edge mantissas, short dyadic values k/2^m, integers up to 2^64,
//! decimal values k·10^e across the whole exponent range, subnormals and
//! the specials, plus the two exact ties that pin Display's round-half-up
//! rule against reference Ryū's round-half-even.

use movr_math::json::{write_f64_bytes, write_u64_bytes};
use movr_math::SimRng;
use std::fmt::Write as _;

/// The text `write_f64_bytes` appends for `x`.
fn written(x: f64) -> String {
    let mut s = Vec::new();
    write_f64_bytes(&mut s, x);
    String::from_utf8(s).expect("the float writer writes ASCII")
}

/// Checks `write_f64_bytes` against `format!` on every value, both signs.
fn check(values: impl IntoIterator<Item = f64>) -> usize {
    let (mut ours, mut std) = (Vec::new(), String::new());
    let mut n = 0;
    for x in values {
        for x in [x, -x] {
            ours.clear();
            std.clear();
            write_f64_bytes(&mut ours, x);
            write!(std, "{x}").expect("writing to a String cannot fail");
            assert_eq!(ours, std.as_bytes(), "bits {:#018x}", x.to_bits());
            n += 1;
        }
    }
    n
}

#[test]
fn random_bit_patterns_print_as_display_does() {
    let mut rng = SimRng::seed_from_u64(0x5eed_f10a7);
    let n = check((0..500_000).map(|_| f64::from_bits(rng.next_u64())));
    assert_eq!(n, 1_000_000);
}

#[test]
fn every_exponent_with_edge_mantissas_prints_as_display_does() {
    const TOP: u64 = (1 << 52) - 1;
    let mantissas = [
        0,
        1,
        2,
        3,
        4,
        5,
        1 << 51,
        (1 << 51) - 1,
        (1 << 51) + 1,
        TOP - 1,
        TOP,
    ];
    check((0..2047u64).flat_map(|e| mantissas.map(|m| f64::from_bits(e << 52 | m))));
}

#[test]
fn short_dyadic_values_print_as_display_does() {
    check((0..=4096u32).flat_map(|k| (0..=64).map(move |m| f64::from(k) / 2f64.powi(m))));
}

#[test]
fn integers_up_to_2_pow_64_print_as_display_does() {
    check((0..=100_000u32).map(f64::from));
    let around_powers = (0..64u32).flat_map(|i| {
        let p = 1u64 << i;
        [
            p - 1,
            p,
            p.saturating_add(1),
            p.saturating_mul(3),
            p.wrapping_neg(),
        ]
    });
    let mut rng = SimRng::seed_from_u64(64);
    let random = (0..20_000).map(|_| rng.next_u64() >> (rng.next_u32() % 64));
    // `as` rounds to nearest, the same `f64` a literal of that integer parses to.
    check(around_powers.chain(random).map(|n| n as f64));
    check([18_446_744_073_709_551_616.0]);
}

#[test]
fn decimal_values_print_as_display_does() {
    let ks = [
        1u32, 2, 3, 5, 7, 9, 12, 25, 99, 123, 1_000, 4_095, 31_415, 999_999, 4_503_599,
    ];
    check((-330..=310).flat_map(|e| {
        ks.map(|k| {
            format!("{k}e{e}")
                .parse::<f64>()
                .expect("a decimal literal parses")
        })
    }));
}

#[test]
fn subnormals_and_specials_print_as_display_does() {
    let mut rng = SimRng::seed_from_u64(0xde_0a11);
    let subnormals = (0..20_000).map(|_| f64::from_bits(rng.next_u64() >> 12));
    check(subnormals.chain((0..64).map(|i| f64::from_bits(1 << i >> 12))));
    check([
        0.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        f64::EPSILON,
        f64::INFINITY,
    ]);
    let mut s = Vec::new();
    write_f64_bytes(&mut s, f64::NAN);
    write_f64_bytes(&mut s, -0.0);
    write_f64_bytes(&mut s, f64::NEG_INFINITY);
    assert_eq!(s, b"NaN-0-inf");
    let s = written(5e-324);
    assert_eq!(s.len(), 2 + 324, "{s}");
    let s = written(f64::MAX);
    assert_eq!(s.len(), 309, "{s}");
}

#[test]
fn exact_ties_round_half_up_as_display_does() {
    // 2^50 + 1/4 and 2^50 + 7/4 sit exactly halfway between two equally
    // short 17-digit candidates; reference Ryū would print `…624.2` and
    // `…625.8`, Display prints the larger one both times.
    let two_50 = 2f64.powi(50);
    for (x, want) in [
        (two_50 + 0.25, "1125899906842624.3"),
        (two_50 + 1.75, "1125899906842625.8"),
    ] {
        assert_eq!(written(x), want);
        assert_eq!(format!("{x}"), want);
    }
}

#[test]
fn integers_print_as_display_does() {
    let mut s = Vec::new();
    for n in [
        0,
        1,
        9,
        10,
        99,
        100,
        1_000_000,
        u64::MAX / 10,
        u64::MAX - 1,
        u64::MAX,
    ] {
        s.clear();
        write_u64_bytes(&mut s, n);
        assert_eq!(s, n.to_string().into_bytes());
    }
}
