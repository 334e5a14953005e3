//! A scoped fan-out for deterministic parallel maps.
//!
//! Coverage maps, blockage surveys, Monte Carlo session fleets and the
//! trace reducer are embarrassingly parallel: every item is independent
//! and the output is just the per-item results in input order.
//! [`pool_map`] splits such work into chunks; the calling thread runs
//! chunk 0 and one scoped thread per further chunk runs the rest. Every
//! thread it starts has ended when it returns, so closures may borrow.
//!
//! The output is **byte-identical for any thread count**, because
//!
//! * the input is split into contiguous chunks in order, balanced so
//!   chunk sizes differ by at most one,
//! * chunk `i` always runs on thread `i` — assignment is a function of
//!   `(items.len(), threads)` alone, never of scheduling,
//! * threads share no mutable state (each chunk returns its own `Vec`),
//! * chunk results are reassembled by chunk index, not arrival order.
//!
//! So [`pool_map`] is byte-identical to the serial map. Each item's
//! closure receives the item's index in the input, so callers that need
//! randomness can fork a deterministic per-item RNG instead of sharing a
//! sequence across threads. Panics inside a job are caught per item and
//! reported with the item's input index once every chunk has ended.
//!
//! Nested calls from inside a chunk, the caller's chunk 0 included, run
//! inline on the thread that makes them: a fan-out per item of a
//! fan-out would start threads by the product of the two counts. Inline
//! execution preserves the byte-identity contract (it *is* the serial
//! path).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Number of threads worth fanning out to on this machine (≥ 1).
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Balanced contiguous chunk layout: `(start, end)` bounds splitting
/// `len` items over exactly `chunks` threads, in order. Every chunk gets
/// `len / chunks` items and the first `len % chunks` chunks one extra,
/// so chunk sizes never differ by more than one and no trailing chunk is
/// empty. (`ceil`-sized splitting would strand trailing threads: 5 items
/// over 4 threads in chunks of ⌈5/4⌉ = 2 make [2, 2, 1] and leave the
/// fourth thread idle; this yields [2, 1, 1, 1].)
///
/// `chunks` must be in `1..=len`; [`pool_map`] clamps before calling.
fn chunk_bounds(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    debug_assert!(chunks >= 1 && chunks <= len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Renders a propagated panic payload for attribution messages.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// True while this thread runs a [`pool_map`] chunk; nested maps
    /// detect it and run inline.
    static IN_POOL_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Runs one chunk whose first item has input index `start`, stopping at
/// the first item whose closure panics: its results, or that item's
/// index and panic message.
fn run_chunk<T, R, F>(f: &F, start: usize, chunk: &[T]) -> Result<Vec<R>, (usize, String)>
where
    F: Fn(usize, &T) -> R,
{
    IN_POOL_MAP.with(|flag| flag.set(true));
    let outcome = (start..)
        .zip(chunk)
        .map(|(i, t)| {
            catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|p| (i, panic_detail(p.as_ref())))
        })
        .collect();
    IN_POOL_MAP.with(|flag| flag.set(false));
    outcome
}

/// Maps `f` over `items` on up to `threads` threads, returning the
/// results in input order; `f` receives `(index, &item)` where `index`
/// is the item's position in `items`, and the output is byte-identical
/// to the serial map for every `threads` value.
///
/// The calling thread runs the first chunk, and one scoped thread per
/// further chunk runs the others; all of them have ended when this
/// returns. Takes `items` by value, so each chunk moves to its thread
/// and items need only be `Send`. A `threads` of 0 is treated as 1;
/// more threads than items uses one chunk per item; calls from inside a
/// chunk run inline serially.
///
/// # Panics
/// Panics if any invocation of `f` panics, once every chunk has ended;
/// the propagated message names the input index of the item whose
/// closure died, from the earliest chunk that had one.
///
/// # Threads share nothing mutable
///
/// The output is the same at any thread count only if no item's closure
/// sees another item's effects. The `Fn + Send + Sync` bound on `f`
/// makes rustc enforce that: each block marked `compile_fail` below is
/// rejected, and the block after it, which differs only in the hazard,
/// compiles. (rustdoc checks only that a `compile_fail` block fails,
/// not its error code; the compiling twin is what shows it fails for
/// the hazard.)
///
/// A closure cannot write to what it captures (E0594):
///
/// ```compile_fail,E0594
/// let mut total = 0u64;
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |_, &x| {
///     total += x;
///     total
/// });
/// ```
///
/// ```
/// let total = 0u64;
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |_, &x| {
///     let total = total + x;
///     total
/// });
/// ```
///
/// Nor capture shared interior mutability: `RefCell` and `Cell` are not
/// `Sync`, and `Rc` is neither `Send` nor `Sync` (E0277):
///
/// ```compile_fail,E0277
/// let memo = std::cell::RefCell::new(1u64);
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |_, &x| *memo.borrow() ^ x);
/// ```
///
/// ```compile_fail,E0277
/// let memo = std::cell::Cell::new(1u64);
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |_, &x| memo.get() ^ x);
/// ```
///
/// ```compile_fail,E0277
/// let memo = std::rc::Rc::new(1u64);
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |_, &x| *memo ^ x);
/// ```
///
/// ```
/// let memo = std::sync::Arc::new(1u64);
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |_, &x| *memo ^ x);
/// ```
///
/// Nor draw from a captured random stream: a draw takes `&mut self`, as
/// `SimRng::next_u64` and `SimRng::fork` do (E0596). Each item builds
/// its own stream from its index instead. (A `rng.clone()` inside the
/// closure would compile; movr-lint's `rng-fork-aliased` rejects it.)
///
/// ```compile_fail,E0596
/// # struct Stream(u64);
/// # impl Stream {
/// #     fn draw(&mut self) -> u64 {
/// #         self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
/// #         self.0
/// #     }
/// # }
/// let mut rng = Stream(7);
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |_, &x| x ^ rng.draw());
/// ```
///
/// ```
/// # struct Stream(u64);
/// # impl Stream {
/// #     fn draw(&mut self) -> u64 {
/// #         self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
/// #         self.0
/// #     }
/// # }
/// movr_sim::pool_map(vec![1u64, 2, 3], 2, move |i, &x| x ^ Stream(7 + i as u64).draw());
/// ```
pub fn pool_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Send + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 || IN_POOL_MAP.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Split chunks 1.. off the input as owned `Vec`s, back to front so
    // each `split_off` is O(chunk), and restore their order; what is left
    // is chunk 0.
    let len = items.len();
    let mut first = items;
    let mut chunks: Vec<(usize, Vec<T>)> = chunk_bounds(len, threads)[1..]
        .iter()
        .rev()
        .map(|&(start, _)| (start, first.split_off(start)))
        .collect();
    chunks.reverse();

    let f = &f;
    // Every chunk has ended when the scope returns, so a failure is
    // reported only once all are quiescent, and the earliest chunk's
    // failure wins deterministically.
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one thread spawner; its `Fn + Send + Sync` bound keeps threads from sharing state"
    )]
    let outcomes: Vec<_> = thread::scope(|s| {
        let spawned: Vec<_> = chunks
            .into_iter()
            .map(|(start, chunk)| s.spawn(move || run_chunk(f, start, &chunk)))
            .collect();
        let mut outcomes = vec![run_chunk(f, 0, &first)];
        // A chunk catches its items' panics, so its thread cannot die.
        outcomes.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("pool chunk returned")),
        );
        outcomes
    });
    let mut out = Vec::with_capacity(len);
    for outcome in outcomes {
        match outcome {
            Ok(results) => out.extend(results),
            // Deliberate propagation of a job panic, with attribution.
            Err((item, detail)) => {
                panic!("pool_map worker panicked while processing item {item}: {detail}")
            }
        }
    }
    out
}

/// A fieldless handle whose [`WorkerPool::map`] is [`pool_map`]. It is
/// kept only because the `perfbench` crate calls `WorkerPool::new()` and
/// `map`; it goes once perfbench calls [`pool_map`] directly (ROADMAP
/// item 4).
#[derive(Debug, Default)]
pub struct WorkerPool;

impl WorkerPool {
    /// A handle; it owns no threads.
    pub fn new() -> Self {
        WorkerPool
    }

    /// [`pool_map`].
    ///
    /// # Panics
    /// As [`pool_map`].
    pub fn map<T, R, F>(&self, items: Vec<T>, threads: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &T) -> R + Send + Sync,
    {
        pool_map(items, threads, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// movr-sim has zero dependencies by design, so the property test
    /// carries its own LCG (Knuth's MMIX constants).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    fn work(i: usize, x: &u64) -> u64 {
        let salt = u64::try_from(i).expect("test index fits");
        x.wrapping_mul(2654435761).rotate_left(13) ^ salt
    }

    /// The serial map every pool output must equal.
    fn serial(items: &[u64]) -> Vec<u64> {
        items.iter().enumerate().map(|(i, x)| work(i, x)).collect()
    }

    fn here() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn property_pool_matches_serial_map() {
        // Random item counts and thread counts, including threads ≫ len,
        // threads == len ± 1, and single items.
        let mut rng = Lcg(0x5EED);
        for round in 0..200 {
            let len = (rng.next() % 65) as usize;
            let threads = (rng.next() % 9) as usize;
            let items: Vec<u64> = (0..len).map(|_| rng.next()).collect();
            let expect = serial(&items);
            let got = pool_map(items, threads, work);
            assert_eq!(got, expect, "round={round} len={len} threads={threads}");
        }
    }

    #[test]
    fn chunk_zero_runs_on_the_caller() {
        let ids = pool_map((0..6u64).collect(), 3, |_, _| here());
        assert_eq!(ids[..2], [here(), here()], "chunk 0 on the calling thread");
        assert!(
            ids[2..].iter().all(|&id| id != here()),
            "chunks 1.. off it: {ids:?}"
        );
    }

    #[test]
    fn closures_may_borrow_locals() {
        let salts: Vec<u64> = (0..40u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        let items: Vec<u64> = (100..140).collect();
        let got = pool_map(items.clone(), 3, |i, x| work(i, x) ^ salts[i]);
        let expect: Vec<u64> = serial(&items)
            .iter()
            .zip(&salts)
            .map(|(w, s)| w ^ s)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn worker_pool_map_is_pool_map() {
        let items: Vec<u64> = (0..33).collect();
        assert_eq!(
            WorkerPool::new().map(items.clone(), 4, work),
            pool_map(items, 4, work)
        );
    }

    #[test]
    fn panic_names_the_item_and_pool_survives() {
        let err = std::panic::catch_unwind(|| {
            pool_map((0..16u64).collect(), 4, |_, &x| {
                assert!(x != 5, "item 5 is cursed");
                x
            });
        })
        .expect_err("the job must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("propagated panic carries a String message");
        assert!(
            msg.contains("while processing item 5"),
            "panic message should name item 5, got: {msg}"
        );
        assert!(
            msg.contains("item 5 is cursed"),
            "panic message should carry the job's own message, got: {msg}"
        );
        // The next call on the same thread fans out and runs normally.
        let after = pool_map((0..16u64).collect(), 4, work);
        assert_eq!(after, serial(&(0..16u64).collect::<Vec<_>>()));
    }

    #[test]
    fn earliest_chunk_failure_wins_when_several_panic() {
        let err = std::panic::catch_unwind(|| {
            // Items 3, 7, 11 all panic — in different chunks of [0..4),
            // [4..8), [8..12); the report must pick chunk 0's item 3.
            pool_map((0..12u64).collect(), 3, |i, _| {
                assert!(i % 4 != 3, "boom");
                i
            });
        })
        .expect_err("jobs must panic");
        let msg = err.downcast_ref::<String>().expect("String message");
        assert!(
            msg.contains("while processing item 3:"),
            "earliest chunk's failure must win, got: {msg}"
        );
    }

    #[test]
    fn nested_pool_map_runs_inline_without_deadlock() {
        // Every chunk fans out again; the inner calls must run inline on
        // the thread that makes them, chunk 0's caller included.
        let outer: Vec<u64> = (0..4).collect();
        let got = pool_map(outer, 4, |i, &x| {
            let inner: Vec<u64> = (0..8).map(|k| x.wrapping_add(k)).collect();
            let inner_expect = serial(&inner);
            let inner_got = pool_map(inner, 4, |j, y| (work(j, y), here()));
            assert!(
                inner_got.iter().all(|&(_, id)| id == here()),
                "outer item {i}"
            );
            let values: Vec<u64> = inner_got.into_iter().map(|(v, _)| v).collect();
            assert_eq!(values, inner_expect, "outer item {i}");
            (values.iter().fold(0u64, |a, &b| a.wrapping_add(b)), here())
        });
        assert_eq!(got[0].1, here(), "the outer chunk 0 ran on the caller");
        // The caller's flag is cleared again: a later top-level call
        // fans out.
        let ids = pool_map((0..4u64).collect(), 4, |_, _| here());
        assert_eq!(ids[0], here());
        assert!(
            ids[1..].iter().all(|&id| id != here()),
            "fanned out again: {ids:?}"
        );
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one_and_cover_everything() {
        // The regression case: 5 items over 4 threads must not split
        // [2, 2, 1] with a fourth thread idle. Balanced sizing gives
        // every thread something to do.
        assert_eq!(chunk_bounds(5, 4), [(0, 2), (2, 3), (3, 4), (4, 5)]);
        for len in 1..=64usize {
            for chunks in 1..=len {
                let bounds = chunk_bounds(len, chunks);
                assert_eq!(bounds.len(), chunks, "len={len} chunks={chunks}");
                let mut expect_start = 0;
                let mut min_size = usize::MAX;
                let mut max_size = 0;
                for &(start, end) in &bounds {
                    assert_eq!(start, expect_start, "contiguous, in order");
                    assert!(end > start, "no empty chunk (len={len} chunks={chunks})");
                    min_size = min_size.min(end - start);
                    max_size = max_size.max(end - start);
                    expect_start = end;
                }
                assert_eq!(expect_start, len, "chunks cover the input");
                assert!(
                    max_size - min_size <= 1,
                    "balanced (len={len} chunks={chunks})"
                );
            }
        }
    }

    #[test]
    fn threads_near_item_count_leave_no_worker_idle() {
        // Behavioural form of the same regression: with 5 items on 4
        // threads the items must span 4 distinct threads. `ThreadId` has
        // no order, so the set is a deduplicated `Vec`.
        let out = pool_map((0..5u32).collect(), 4, |_, &x| (x * 10, here()));
        let values: Vec<u32> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, [0, 10, 20, 30, 40]);
        let mut seen: Vec<ThreadId> = Vec::new();
        for &(_, id) in &out {
            if !seen.contains(&id) {
                seen.push(id);
            }
        }
        assert_eq!(seen.len(), 4, "all four threads busy");
    }

    #[test]
    fn indices_match_positions() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = pool_map(items, 2, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_and_zero_threads() {
        let empty: Vec<u64> = Vec::new();
        assert!(pool_map(empty, 4, work).is_empty());
        assert_eq!(pool_map(vec![41u64], 0, |_, &x| x + 1), [42]);
    }
}
