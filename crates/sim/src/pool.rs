//! A persistent worker pool for deterministic parallel maps.
//!
//! Coverage maps, blockage surveys, Monte Carlo session fleets and the
//! trace reducer are embarrassingly parallel: every item is independent
//! and the output is just the per-item results in input order.
//! [`WorkerPool`] fans such work out over threads that stay alive:
//! workers are spawned lazily on first use, fed jobs over channels, and
//! reused for every subsequent call, so a caller that maps once per
//! batch pays thread creation once, not per call.
//!
//! The output is **byte-identical for any thread count**, because
//!
//! * the input is split into contiguous chunks in order, balanced so
//!   chunk sizes differ by at most one,
//! * chunk `i` always goes to worker `i` — assignment is a function of
//!   `(items.len(), threads)` alone, never of scheduling,
//! * workers share no mutable state (each chunk returns its own `Vec`),
//! * chunk results are reassembled by chunk index, not arrival order.
//!
//! So [`WorkerPool::map`] is byte-identical to the serial map. Each
//! item's closure receives the item's index in the input, so callers
//! that need randomness can fork a deterministic per-item RNG instead of
//! sharing a sequence across threads. Panics inside a job are caught per
//! item, reported with the item's input index, and leave the pool
//! healthy — workers survive and the next call proceeds normally.
//!
//! Nested calls from inside a worker run inline on the calling worker:
//! fanning out from a worker onto the same pool could otherwise deadlock
//! with every worker waiting on jobs queued behind its own. Inline
//! execution preserves the byte-identity contract (it *is* the serial
//! path).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

/// Number of worker threads worth spawning on this machine (≥ 1).
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Balanced contiguous chunk layout: `(start, end)` bounds splitting
/// `len` items over exactly `chunks` workers, in order. Every chunk gets
/// `len / chunks` items and the first `len % chunks` chunks one extra,
/// so chunk sizes never differ by more than one and no trailing chunk is
/// empty. (`ceil`-sized splitting would strand trailing workers: 5 items
/// over 4 threads in chunks of ⌈5/4⌉ = 2 make [2, 2, 1] and leave the
/// fourth worker idle; this yields [2, 1, 1, 1].)
///
/// `chunks` must be in `1..=len`; [`WorkerPool::map`] clamps before
/// calling.
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

/// An owned job: closures are `'static` because pool workers outlive any
/// single call.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// True on threads owned by any [`WorkerPool`]; nested maps detect
    /// it and run inline instead of deadlocking on their own queue.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A lazily-grown set of persistent worker threads. See the module docs
/// for the determinism and panic contracts.
///
/// Most callers want the process-wide pool via [`pool_map`]; owning an
/// instance is for tests and for callers that need their worker count
/// accounted separately. Dropping an owned pool closes its job channels,
/// which shuts the workers down.
#[derive(Debug, Default)]
pub struct WorkerPool {
    senders: Mutex<Vec<Sender<Job>>>,
    spawned: AtomicUsize,
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned on first use.
    pub fn new() -> Self {
        WorkerPool::default()
    }

    /// Total worker threads this pool has ever spawned. Reuse means this
    /// stays at the high-water thread count no matter how many times
    /// [`WorkerPool::map`] runs.
    pub fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Grows the worker set to at least `n` threads (never shrinks).
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool is the workspace's one thread spawner; its `map` bounds keep workers from sharing state"
    )]
    fn ensure_workers(&self, n: usize) {
        let mut senders = self.senders.lock().expect("pool lock clean"); // poisoned-lock invariant, not decoded input
        while senders.len() < n {
            let (tx, rx) = channel::<Job>();
            thread::Builder::new()
                .name(format!("movr-pool-{}", senders.len()))
                .spawn(move || {
                    IN_POOL_WORKER.with(|flag| flag.set(true));
                    // Runs until the pool (sender side) is dropped.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn pool worker"); // thread spawn failure is unrecoverable resource exhaustion, not input
            self.spawned.fetch_add(1, Ordering::Relaxed);
            senders.push(tx);
        }
    }

    /// Maps `f` over `items` on up to `threads` pool workers, returning
    /// the results in input order; `f` receives `(index, &item)` where
    /// `index` is the item's position in `items`, and the output is
    /// byte-identical to the serial map for every `threads` value.
    ///
    /// Takes `items` by value: chunks are moved to the workers, so the
    /// items (and `f`) must be `'static` — the price of workers that
    /// outlive the call. A `threads` of 0 is treated as 1; more threads
    /// than items uses one chunk per item; calls from inside a pool
    /// worker run inline serially.
    ///
    /// # Panics
    /// Panics if any invocation of `f` panics; the propagated message
    /// names the input index of the item whose closure died. The pool
    /// itself stays usable.
    pub fn map<T, R, F>(&self, items: Vec<T>, threads: usize, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let threads = threads.max(1).min(items.len());
        let nested = IN_POOL_WORKER.with(Cell::get);
        if threads == 1 || nested {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        let bounds = chunk_bounds(items.len(), threads);
        self.ensure_workers(threads);
        let f = Arc::new(f);
        let (result_tx, result_rx) = channel::<(usize, Result<Vec<R>, (usize, String)>)>();

        // Split the input into owned chunks, back to front so each
        // `split_off` is O(chunk), then restore chunk order.
        let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(threads);
        let mut rest = items;
        for &(start, _) in bounds.iter().rev() {
            chunks.push((start, rest.split_off(start)));
        }
        chunks.reverse();

        {
            let senders = self.senders.lock().expect("pool lock clean"); // poisoned-lock invariant, not decoded input
            let assigned = chunks.into_iter().enumerate().zip(senders.iter());
            for ((ci, (start, chunk)), sender) in assigned {
                let f = Arc::clone(&f);
                let tx = result_tx.clone();
                let job: Job = Box::new(move || {
                    let mut results = Vec::with_capacity(chunk.len());
                    let mut failure: Option<(usize, String)> = None;
                    for (j, t) in chunk.iter().enumerate() {
                        match catch_unwind(AssertUnwindSafe(|| f(start + j, t))) {
                            Ok(r) => results.push(r),
                            Err(payload) => {
                                failure = Some((start + j, panic_detail(payload.as_ref())));
                                break;
                            }
                        }
                    }
                    let outcome = match failure {
                        None => Ok(results),
                        Some(fail) => Err(fail),
                    };
                    // The caller may already be unwinding from another
                    // chunk's failure; a closed result channel is fine.
                    let _ = tx.send((ci, outcome));
                });
                sender.send(job).expect("pool worker alive"); // workers outlive the pool that feeds them, by construction
            }
        }
        drop(result_tx);

        // Drain every chunk before reporting anything: results arrive in
        // completion order, the output is assembled in chunk order, and
        // a failure is reported only after all workers are quiescent (so
        // the earliest-chunk failure wins deterministically).
        let mut slots: Vec<Option<Vec<R>>> = (0..threads).map(|_| None).collect();
        let mut failure: Option<(usize, usize, String)> = None;
        for _ in 0..threads {
            let (ci, outcome) = result_rx.recv().expect("pool worker delivers its chunk"); // every dispatched chunk sends exactly one result
            match outcome {
                Ok(results) => slots[ci] = Some(results), // ci enumerates 0..threads, the length of `slots`
                Err((item, detail)) => {
                    if failure.as_ref().is_none_or(|f| ci < f.0) {
                        failure = Some((ci, item, detail));
                    }
                }
            }
        }
        if let Some((_, item, detail)) = failure {
            panic!("pool_map worker panicked while processing item {item}: {detail}"); // deliberate propagation of a job panic, with attribution
        }
        let mut out = Vec::with_capacity(slots.iter().map(|s| s.as_ref().map_or(0, Vec::len)).sum());
        for slot in slots {
            out.extend(slot.expect("every chunk either failed or delivered")); // failure case returned above; remaining slots are filled
        }
        out
    }
}

/// The process-wide pool behind [`pool_map`], spawned lazily.
pub fn global_pool() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(WorkerPool::new)
}

/// [`WorkerPool::map`] on the process-wide pool. First call spawns the
/// workers; later calls reuse them.
///
/// # Panics
/// Propagates job panics with item attribution, like [`WorkerPool::map`].
///
/// # Workers share nothing mutable
///
/// The output is the same at any thread count only if no item's closure
/// sees another item's effects. The `Fn + Send + Sync + 'static` bound on
/// `f` makes rustc enforce that: each block marked `compile_fail` below
/// is rejected, and the block after it, which differs only in the
/// hazard, compiles. (rustdoc checks only that a `compile_fail` block
/// fails, not its error code; the compiling twin is what shows it fails
/// for the hazard.)
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
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    global_pool().map(items, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn property_pool_matches_serial_map() {
        // Random item counts and thread counts, including threads ≫ len,
        // threads == len ± 1, and single items.
        let pool = WorkerPool::new();
        let mut rng = Lcg(0x5EED);
        for round in 0..200 {
            let len = (rng.next() % 65) as usize;
            let threads = (rng.next() % 9) as usize;
            let items: Vec<u64> = (0..len).map(|_| rng.next()).collect();
            let expect = serial(&items);
            let got = pool.map(items, threads, work);
            assert_eq!(got, expect, "round={round} len={len} threads={threads}");
        }
    }

    #[test]
    fn pool_reuse_spawns_no_extra_threads() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..32).collect();
        for round in 0..1000 {
            let out = pool.map(items.clone(), 4, work);
            assert_eq!(out.len(), 32, "round={round}");
        }
        assert_eq!(
            pool.threads_spawned(),
            4,
            "1000 invocations must reuse the original 4 workers"
        );
    }

    #[test]
    fn lazy_growth_only_to_the_high_water_mark() {
        let pool = WorkerPool::new();
        assert_eq!(pool.threads_spawned(), 0, "no workers before first use");
        pool.map((0..8u64).collect(), 2, work);
        assert_eq!(pool.threads_spawned(), 2);
        pool.map((0..8u64).collect(), 5, work);
        assert_eq!(pool.threads_spawned(), 5, "grows to the new demand");
        pool.map((0..8u64).collect(), 3, work);
        assert_eq!(pool.threads_spawned(), 5, "never shrinks, never respawns");
    }

    #[test]
    fn panic_names_the_item_and_pool_survives() {
        let pool = Arc::new(WorkerPool::new());
        let p = Arc::clone(&pool);
        let err = std::panic::catch_unwind(AssertUnwindSafe(move || {
            p.map((0..16u64).collect(), 4, |_, &x| {
                assert!(x != 5, "item 5 is cursed");
                x
            });
        }))
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
        // The workers caught the panic and are still serving jobs.
        let after = pool.map((0..16u64).collect(), 4, work);
        assert_eq!(after, serial(&(0..16u64).collect::<Vec<_>>()));
        assert_eq!(pool.threads_spawned(), 4, "no respawn after a job panic");
    }

    #[test]
    fn earliest_chunk_failure_wins_when_several_panic() {
        let pool = WorkerPool::new();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Items 3, 7, 11 all panic — in different chunks of [0..4),
            // [4..8), [8..12); the report must pick chunk 0's item 3.
            pool.map((0..12u64).collect(), 3, |i, _| {
                assert!(i % 4 != 3, "boom");
                i
            });
        }))
        .expect_err("jobs must panic");
        let msg = err.downcast_ref::<String>().expect("String message");
        assert!(
            msg.contains("while processing item 3:"),
            "earliest chunk's failure must win, got: {msg}"
        );
    }

    #[test]
    fn nested_pool_map_runs_inline_without_deadlock() {
        // Every worker fans out again through the global pool; the inner
        // calls must run inline on the workers rather than queueing
        // behind themselves.
        let outer: Vec<u64> = (0..4).collect();
        let got = pool_map(outer, 4, |i, &x| {
            let inner: Vec<u64> = (0..8).map(|k| x.wrapping_add(k)).collect();
            let inner_expect = serial(&inner);
            let inner_got = pool_map(inner, 4, work);
            assert_eq!(inner_got, inner_expect, "outer item {i}");
            inner_got.iter().fold(0u64, |a, &b| a.wrapping_add(b))
        });
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one_and_cover_everything() {
        // The regression case: 5 items over 4 threads must not split
        // [2, 2, 1] with a fourth worker idle. Balanced sizing gives
        // every worker something to do.
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
                assert!(max_size - min_size <= 1, "balanced (len={len} chunks={chunks})");
            }
        }
    }

    #[test]
    fn threads_near_item_count_leave_no_worker_idle() {
        // Behavioural form of the same regression: with 5 items on 4
        // threads the observed worker set must span 4 distinct threads.
        // `ThreadId` has no order, so the set is a deduplicated `Vec`.
        let pool = WorkerPool::new();
        let seen: Arc<Mutex<Vec<thread::ThreadId>>> = Arc::default();
        let record = Arc::clone(&seen);
        let out = pool.map((0..5u32).collect(), 4, move |_, &x| {
            let mut ids = record.lock().expect("clean lock");
            let id = thread::current().id();
            if !ids.contains(&id) {
                ids.push(id);
            }
            x * 10
        });
        assert_eq!(out, [0, 10, 20, 30, 40]);
        assert_eq!(
            seen.lock().expect("clean lock").len(),
            4,
            "all four workers busy"
        );
    }

    #[test]
    fn indices_match_positions() {
        let pool = WorkerPool::new();
        let items = vec!["a", "b", "c", "d", "e"];
        let got = pool.map(items, 2, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_and_zero_threads() {
        let pool = WorkerPool::new();
        let empty: Vec<u64> = Vec::new();
        assert!(pool.map(empty, 4, work).is_empty());
        assert_eq!(pool.threads_spawned(), 0, "empty input spawns nothing");
        assert_eq!(pool.map(vec![41u64], 0, |_, &x| x + 1), [42]);
        assert_eq!(pool.threads_spawned(), 0, "serial path spawns nothing");
    }
}
