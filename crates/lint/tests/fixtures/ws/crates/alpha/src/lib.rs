//! Fixture: seeded violations for the movr-lint self-test.
//! selftest.rs asserts the exact (rule, line) of every hit below.

use std::time::Instant;

pub fn wall_clock() -> Instant {
    Instant::now()
}

pub fn entropy() -> u64 {
    let mut r = rand::thread_rng();
    r.next()
}

pub fn correlated(rng: &mut SimRng) -> (SimRng, SimRng) {
    let a = rng.fork(7);
    let b = rng.fork(7);
    (a, b)
}

pub fn raw_db(x: f64) -> f64 {
    10f64.powf(x / 10.0)
}

pub fn raw_amp(x: f64) -> f64 {
    20.0 * x.log10()
}

pub fn exact(a: f64) -> bool {
    a == 0.0
}

pub fn probe_recorded(rec: &mut dyn Recorder) {}

pub fn risky(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn lossy(x: f64) -> u32 {
    x as u32
}

#[allow(dead_code)]
fn suppressed() {}

#[allow(dead_code)] // fixture demonstrating a justified allow
fn justified() {}
