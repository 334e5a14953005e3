//! Seeded value generators with shrinking.
//!
//! A [`Gen`] produces random values from a [`SimRng`] and, on failure,
//! proposes *simpler* candidate values for greedy shrinking: numbers move
//! toward zero (or the range bound nearest zero), vectors lose elements,
//! enum choices move toward the first variant. Tuples of generators are
//! themselves generators, shrinking one component at a time — that is what
//! multi-argument [`crate::property!`] blocks run on.

use movr_math::{SimRng, Vec2};
use std::fmt::Debug;

/// A deterministic, shrinkable value source.
pub trait Gen {
    /// The value type produced.
    type Value: Clone + Debug;

    /// Draws one value from `rng`.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Proposes strictly-simpler candidates for a failing `value`.
    ///
    /// The runner greedily takes the first candidate that still fails and
    /// recurses; returning an empty vec ends shrinking. Candidates must
    /// stay inside the generator's own domain.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ---------------------------------------------------------------- floats

/// Uniform `f64` in `[lo, hi)`. See [`f64_range`].
#[derive(Debug, Clone, Copy)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` in `[lo, hi)`, shrinking toward the in-range value
/// nearest zero.
pub fn f64_range(lo: f64, hi: f64) -> F64Range {
    assert!(lo < hi, "f64_range requires lo < hi, got [{lo}, {hi})");
    F64Range { lo, hi }
}

/// Uniform bearing in `[-180, 180)` degrees.
pub fn angle_deg() -> F64Range {
    f64_range(-180.0, 180.0)
}

impl F64Range {
    /// The in-range point shrinking moves toward.
    fn origin(&self) -> f64 {
        self.lo.max(0.0).min(self.hi.max(self.lo))
    }

    fn contains(&self, v: f64) -> bool {
        v >= self.lo && v < self.hi
    }
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut SimRng) -> f64 {
        rng.uniform(self.lo, self.hi)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let origin = self.origin();
        let mut out = Vec::new();
        let mut push = |c: f64| {
            // Strictly closer to the origin, so never `v` itself.
            if self.contains(c) && (c - origin).abs() < (v - origin).abs() {
                out.push(c);
            }
        };
        push(origin);
        push(v.trunc());
        push(origin + (v - origin) / 2.0);
        push(origin + (v - origin) * 0.9);
        out
    }
}

// -------------------------------------------------------------- integers

/// Uniform `usize` in `[lo, hi]`. See [`usize_range`].
#[derive(Debug, Clone, Copy)]
pub struct UsizeRange {
    lo: usize,
    hi: usize,
}

/// Uniform `usize` in `[lo, hi]` inclusive, shrinking toward `lo`.
pub fn usize_range(lo: usize, hi: usize) -> UsizeRange {
    assert!(lo <= hi, "usize_range requires lo <= hi, got [{lo}, {hi}]");
    UsizeRange { lo, hi }
}

impl Gen for UsizeRange {
    type Value = usize;

    fn generate(&self, rng: &mut SimRng) -> usize {
        rng.uniform_usize(self.lo, self.hi)
    }

    fn shrink(&self, value: &usize) -> Vec<usize> {
        let v = *value;
        let mut out = Vec::new();
        if v > self.lo {
            out.push(self.lo);
            let half = self.lo + (v - self.lo) / 2;
            if half != self.lo && half != v {
                out.push(half);
            }
            if v - 1 != self.lo && v - 1 != half {
                out.push(v - 1);
            }
        }
        out
    }
}

/// Uniform `u64` in `[lo, hi]`. See [`u64_range`].
#[derive(Debug, Clone, Copy)]
pub struct U64Range {
    lo: u64,
    hi: u64,
}

/// Uniform `u64` in `[lo, hi]` inclusive, shrinking toward `lo`.
pub fn u64_range(lo: u64, hi: u64) -> U64Range {
    assert!(lo <= hi, "u64_range requires lo <= hi, got [{lo}, {hi}]");
    U64Range { lo, hi }
}

impl Gen for U64Range {
    type Value = u64;

    fn generate(&self, rng: &mut SimRng) -> u64 {
        if self.hi - self.lo == u64::MAX {
            return rng.next_u64();
        }
        self.lo + rng.next_u64() % (self.hi - self.lo + 1)
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        let v = *value;
        let mut out = Vec::new();
        if v > self.lo {
            out.push(self.lo);
            let half = self.lo + (v - self.lo) / 2;
            if half != self.lo && half != v {
                out.push(half);
            }
            if v - 1 != self.lo && v - 1 != half {
                out.push(v - 1);
            }
        }
        out
    }
}

// -------------------------------------------------------------- geometry

/// Uniform [`Vec2`] in an axis-aligned box. See [`vec2_in`].
#[derive(Debug, Clone, Copy)]
pub struct Vec2In {
    x: F64Range,
    y: F64Range,
}

/// Uniform [`Vec2`] with `x` in `[x_lo, x_hi)` and `y` in `[y_lo, y_hi)`,
/// shrinking one coordinate at a time.
pub fn vec2_in(x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64) -> Vec2In {
    Vec2In {
        x: f64_range(x_lo, x_hi),
        y: f64_range(y_lo, y_hi),
    }
}

impl Gen for Vec2In {
    type Value = Vec2;

    fn generate(&self, rng: &mut SimRng) -> Vec2 {
        Vec2::new(self.x.generate(rng), self.y.generate(rng))
    }

    fn shrink(&self, value: &Vec2) -> Vec<Vec2> {
        let mut out = Vec::new();
        for cx in self.x.shrink(&value.x) {
            out.push(Vec2::new(cx, value.y));
        }
        for cy in self.y.shrink(&value.y) {
            out.push(Vec2::new(value.x, cy));
        }
        out
    }
}

// ------------------------------------------------------ enums / constants

/// Uniform pick from a fixed list. See [`choice`].
#[derive(Debug, Clone)]
pub struct Choice<T> {
    items: Vec<T>,
}

/// Uniform pick from `items` (enum variants, materials, body parts…),
/// shrinking toward earlier entries — order the list simplest-first.
pub fn choice<T: Clone + Debug + PartialEq>(items: Vec<T>) -> Choice<T> {
    assert!(!items.is_empty(), "choice requires a non-empty list");
    Choice { items }
}

impl<T: Clone + Debug + PartialEq> Gen for Choice<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        self.items[rng.uniform_usize(0, self.items.len() - 1)].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        match self.items.iter().position(|x| x == value) {
            Some(i) => self.items[..i].to_vec(),
            None => Vec::new(),
        }
    }
}

/// Always produces the same value; never shrinks. See [`just`].
#[derive(Debug, Clone)]
pub struct Just<T> {
    value: T,
}

/// The constant generator: always `value`.
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just { value }
}

impl<T: Clone + Debug> Gen for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SimRng) -> T {
        self.value.clone()
    }
}

// ---------------------------------------------------------------- vectors

/// Random-length vector of a sub-generator's values. See [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecOf<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

/// Vector of `elem` values with uniform length in `[min_len, max_len]`.
/// Shrinks first by dropping elements (halving, then one at a time), then
/// by shrinking individual elements.
pub fn vec_of<G: Gen>(elem: G, min_len: usize, max_len: usize) -> VecOf<G> {
    assert!(min_len <= max_len, "vec_of requires min_len <= max_len");
    VecOf {
        elem,
        min_len,
        max_len,
    }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SimRng) -> Vec<G::Value> {
        let len = rng.uniform_usize(self.min_len, self.max_len);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // Structural shrinks: shorter vectors first.
        if len > self.min_len {
            let half = self.min_len.max(len / 2);
            if half < len {
                out.push(value[..half].to_vec());
            }
            out.push(value[..len - 1].to_vec());
            // Dropping a prefix can expose failures the suffix causes.
            if len > self.min_len && len > 1 {
                out.push(value[1..].to_vec());
            }
        }
        // Element-wise shrinks, capped so candidate lists stay small.
        for i in 0..len.min(8) {
            for cand in self.elem.shrink(&value[i]) {
                let mut copy = value.clone();
                copy[i] = cand;
                out.push(copy);
            }
        }
        out
    }
}

// ----------------------------------------------------------------- tuples

macro_rules! impl_gen_for_tuple {
    ($($g:ident / $v:ident / $i:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut SimRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&value.$i) {
                        let mut copy = value.clone();
                        copy.$i = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    };
}

impl_gen_for_tuple!(G0 / V0 / 0);
impl_gen_for_tuple!(G0 / V0 / 0, G1 / V1 / 1);
impl_gen_for_tuple!(G0 / V0 / 0, G1 / V1 / 1, G2 / V2 / 2);
impl_gen_for_tuple!(G0 / V0 / 0, G1 / V1 / 1, G2 / V2 / 2, G3 / V3 / 3);
impl_gen_for_tuple!(G0 / V0 / 0, G1 / V1 / 1, G2 / V2 / 2, G3 / V3 / 3, G4 / V4 / 4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_range_generates_in_range_and_shrinks_toward_zero() {
        let g = f64_range(-10.0, 10.0);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..500 {
            let v = g.generate(&mut rng);
            assert!((-10.0..10.0).contains(&v));
        }
        for cand in g.shrink(&7.5) {
            assert!(cand.abs() < 7.5);
            assert!((-10.0..10.0).contains(&cand));
        }
        assert!(g.shrink(&0.0).is_empty());
    }

    #[test]
    fn f64_range_positive_domain_shrinks_toward_lo() {
        let g = f64_range(3.0, 9.0);
        for cand in g.shrink(&8.0) {
            assert!((3.0..8.0).contains(&cand));
        }
        assert!(g.shrink(&3.0).is_empty());
    }

    #[test]
    fn usize_range_shrinks_toward_lo() {
        let g = usize_range(2, 40);
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..200 {
            let v = g.generate(&mut rng);
            assert!((2..=40).contains(&v));
        }
        assert!(g.shrink(&2).is_empty());
        for cand in g.shrink(&17) {
            assert!((2..17).contains(&cand));
        }
    }

    #[test]
    fn choice_is_uniformish_and_shrinks_to_earlier() {
        let g = choice(vec!["a", "b", "c"]);
        let mut rng = SimRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            match g.generate(&mut rng) {
                "a" => counts[0] += 1,
                "b" => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        for c in counts {
            assert!((800..1200).contains(&c), "counts={counts:?}");
        }
        assert_eq!(g.shrink(&"c"), vec!["a", "b"]);
        assert!(g.shrink(&"a").is_empty());
    }

    #[test]
    fn vec_of_respects_length_and_shrinks_shorter() {
        let g = vec_of(f64_range(0.0, 1.0), 1, 8);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            let v = g.generate(&mut rng);
            assert!((1..=8).contains(&v.len()));
        }
        let v = g.generate(&mut rng);
        for cand in g.shrink(&v) {
            assert!(!cand.is_empty());
        }
        if v.len() > 1 {
            assert!(g.shrink(&v).iter().any(|c| c.len() < v.len()));
        }
    }

    #[test]
    fn tuple_gen_shrinks_one_component_at_a_time() {
        let g = (f64_range(-5.0, 5.0), usize_range(0, 10));
        let value = (4.0, 6usize);
        for (a, b) in g.shrink(&value) {
            let changed_a = a != value.0;
            let changed_b = b != value.1;
            assert!(changed_a ^ changed_b, "exactly one component shrinks");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = (vec2_in(0.0, 5.0, 0.0, 5.0), u64_range(0, 1000));
        let mut r1 = SimRng::seed_from_u64(9);
        let mut r2 = SimRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(g.generate(&mut r1), g.generate(&mut r2));
        }
    }
}
