//! Fixture fan-out shapes: seeded parallel-capture violations the
//! self-test pins, plus the sanctioned clean forms (per-item fork,
//! read-only captures, values returned instead of shared).

use movr_math::SimRng;
use movr_sim::pool_map;
use std::cell::RefCell;

/// Seeded: one closure committing all three parallel-capture sins on
/// three distinct lines.
pub fn tally(items: &[u64], rng: &mut SimRng) -> Vec<u64> {
    let mut total = 0u64;
    let memo = RefCell::new(1u64);
    pool_map(items, 4, |_, &x| {
        total += x;
        let boost = *memo.borrow() ^ x;
        boost ^ rng.next_u64()
    })
}

/// Seeded: scoped spawn pushing into an enclosing buffer.
pub fn spawned(shared: &mut Vec<u64>) {
    std::thread::scope(|scope| {
        scope.spawn(|| shared.push(1));
    });
}

/// Clean: per-item fork keyed on the item index, per-worker state
/// built inside the closure, read-only capture of `scale`.
pub fn forked(items: &[u64], rng: &mut SimRng, scale: u64) -> Vec<u64> {
    pool_map(items, 4, |i, &x| {
        let mut child = rng.fork(1000 + i);
        let mut acc = x * scale;
        acc ^= child.next_u64();
        acc
    })
}

/// Clean: mutation from the *scope* closure runs on the caller thread;
/// only `spawn` bodies cross the boundary.
pub fn joined(shared: &mut Vec<u64>) {
    std::thread::scope(|_scope| {
        shared.push(0);
    });
}

/// Carrier context: the stream hides one field deep, so handing `ctx`
/// to a helper hands over the stream.
pub struct Ctx {
    pub rng: SimRng,
}

fn jitter(x: u64, ctx: &mut Ctx) -> u64 {
    x ^ ctx.rng.next_u64()
}

/// Seeded: `ctx` carries the stream into `jitter`, which draws.
pub fn batched(items: &[u64], ctx: &mut Ctx) -> Vec<u64> {
    pool_map(items, 4, |_, &x| jitter(x, ctx))
}

/// Clean: a per-item child forked from the carrier inside the closure
/// is the only stream the items see.
pub fn batched_forked(items: &[u64], ctx: &mut Ctx) -> Vec<u64> {
    pool_map(items, 4, |i, &x| {
        let mut child = ctx.rng.fork(4000 + i);
        scramble(x, &mut child)
    })
}

fn scramble(x: u64, r: &mut SimRng) -> u64 {
    x ^ r.next_u64()
}
