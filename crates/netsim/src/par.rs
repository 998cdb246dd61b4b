//! Deterministic parallel execution for embarrassingly parallel stages.
//!
//! The evaluation pipeline's hot paths — per-tree forest training,
//! per-trace defense emulation, per-cell experiment fan-out — are all
//! independent work items. This module runs them on `std::thread::scope`
//! with *static chunked work-splitting*: the item list is cut into one
//! contiguous chunk per worker, each worker fills its own output slot,
//! and results are reassembled in item order.
//!
//! Determinism contract: the closure receives the item **index**, and
//! any randomness it needs must be derived from a root [`crate::SimRng`]
//! forked on that index (never from a shared, sequentially-consumed
//! stream). Under that discipline the output is bit-identical regardless
//! of thread count — `STOB_THREADS=1` equals `STOB_THREADS=8` — because
//! thread count only changes *where* an item runs, never *what* it
//! computes. The regression test `tests/determinism.rs` holds the
//! workspace to this.
//!
//! Thread-count resolution order:
//! 1. [`set_threads`] override (used by tests),
//! 2. the `STOB_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! ```
//! use netsim::{par, SimRng};
//! let root = SimRng::new(7);
//! // Fork per item index: bit-identical at any thread count.
//! let out = par::par_map(&[10u64, 20, 30], |i, &x| {
//!     let mut rng = root.fork(i as u64 + 1);
//!     x + rng.next_below(5)
//! });
//! assert_eq!(out, par::par_map_n(3, &[10u64, 20, 30], |i, &x| {
//!     let mut rng = root.fork(i as u64 + 1);
//!     x + rng.next_below(5)
//! }));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force a thread count process-wide (0 restores automatic resolution).
/// Intended for tests and experiments that sweep thread counts; results
/// must not depend on it — that is the module's whole guarantee.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// The thread count parallel stages will use right now.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    match crate::env::parse::<usize>("STOB_THREADS") {
        Some(0) => {
            crate::env::warn_once(
                "STOB_THREADS=0",
                "STOB_THREADS=0 is not a valid thread count; using automatic resolution",
            );
        }
        Some(n) => return n,
        None => {}
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` in parallel, preserving order. `f` gets
/// `(index, &item)`; see the module docs for the determinism contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_n(threads(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_n<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Static chunking: worker w takes the contiguous range of items
    // [w*chunk, ...); the last worker absorbs the remainder. Chunk
    // boundaries depend only on (n, workers), so the (index, item)
    // pairs each closure call sees are identical at any worker count.
    let chunk = n.div_ceil(workers);
    let f = &f;
    let mut out: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // Both bounds clamp to n: with n = 5, workers = 4 the
                // last worker's nominal range [6, 8) starts past the
                // slice and must collapse to empty.
                let lo = (w * chunk).min(n);
                let hi = ((w + 1) * chunk).min(n);
                let slice = &items[lo..hi];
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(off, t)| f(lo + off, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("parallel worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// Render a caught panic payload as a message string.
pub fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`par_map`] with per-item panic containment: a panicking item yields
/// `Err(message)` in its slot instead of tearing down the whole fan-out.
///
/// The worker threads themselves never die — each closure call is wrapped
/// in `catch_unwind` — so one poisoned item cannot take the rest of its
/// chunk (or the run) with it. The determinism contract is unchanged:
/// which items panic, and with what message, is a pure function of the
/// items. Note the default panic hook still prints to stderr; callers
/// soaking known-panicking inputs see the backtrace noise but keep their
/// results.
pub fn par_map_catch<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(items, |i, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t))).map_err(panic_message)
    })
}

/// Run `n` independent jobs in parallel, preserving order — the
/// fan-out form of [`par_map`] for when there is no input slice.
pub fn par_run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let idx: Vec<usize> = (0..n).collect();
    par_map(&idx, |_, &i| f(i))
}

// ---------------------------------------------------------------------
// Wall-clock stage timing
// ---------------------------------------------------------------------

/// Lightweight per-stage wall-clock collection, rendered on the bench
/// bins' stderr (never into their JSON reports, which stay
/// deterministic).
#[derive(Debug, Default)]
pub struct Timings {
    stages: Vec<(String, f64)>,
}

impl Timings {
    pub fn new() -> Self {
        Timings::default()
    }

    /// Time a closure and record it under `stage` (accumulating if the
    /// stage was already recorded).
    pub fn time<R>(&mut self, stage: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.push(stage, start.elapsed().as_secs_f64());
        r
    }

    /// Record `secs` of wall-clock under `stage`.
    pub fn push(&mut self, stage: &str, secs: f64) {
        if let Some((_, acc)) = self.stages.iter_mut().find(|(s, _)| s == stage) {
            *acc += secs;
        } else {
            self.stages.push((stage.to_string(), secs));
        }
    }

    pub fn get(&self, stage: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|(s, _)| s == stage)
            .map(|&(_, t)| t)
    }

    pub fn total(&self) -> f64 {
        self.stages.iter().map(|&(_, t)| t).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl std::fmt::Display for Timings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[timings threads={}]", threads())?;
        for (stage, secs) in &self.stages {
            write!(f, " {stage}={secs:.3}s")?;
        }
        write!(f, " total={:.3}s", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 7, 16, 1000, 2000] {
            let out = par_map_n(workers, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out.len(), items.len(), "workers={workers}");
            assert!(out.iter().enumerate().all(|(i, &y)| y == 2 * i as u64));
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map_n(8, &none, |_, &x| x).is_empty());
        assert_eq!(par_map_n(8, &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn worker_start_past_input_collapses_to_empty_chunk() {
        // n = 5, workers = 4 -> chunk = 2: the last worker's nominal
        // range starts at 6, past the slice. Regression test for the
        // out-of-range slice panic.
        let items: Vec<u32> = (0..5).collect();
        let out = par_map_n(4, &items, |_, &x| x * 3);
        assert_eq!(out, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn thread_count_invariant_with_forked_rng() {
        // The canonical usage pattern: per-item rng forked on index.
        let root = SimRng::new(0xFEED);
        let items: Vec<usize> = (0..200).collect();
        let run = |workers: usize| {
            par_map_n(workers, &items, |i, _| {
                let mut rng = root.fork(i as u64 + 1);
                (0..50)
                    .map(|_| rng.next_u64())
                    .fold(0u64, u64::wrapping_add)
            })
        };
        let one = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), one, "workers={workers} diverged");
        }
    }

    #[test]
    fn par_map_catch_contains_poisoned_items() {
        let items: Vec<u32> = (0..20).collect();
        let results = par_map_catch(&items, |_, &x| {
            if x % 7 == 3 {
                panic!("poisoned item {x}");
            }
            x * 2
        });
        assert_eq!(results.len(), items.len());
        for (i, r) in results.iter().enumerate() {
            if i % 7 == 3 {
                let msg = r.as_ref().expect_err("item should have panicked");
                assert!(msg.contains(&format!("poisoned item {i}")), "{msg}");
            } else {
                assert_eq!(*r.as_ref().expect("healthy item"), 2 * i as u32);
            }
        }
    }

    #[test]
    fn par_run_matches_sequential() {
        let seq: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(par_run(37, |i| i * i), seq);
    }

    #[test]
    fn set_threads_overrides_env_and_auto() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn timings_accumulate_and_render() {
        let mut t = Timings::new();
        let x = t.time("fit", || 21 * 2);
        assert_eq!(x, 42);
        t.push("fit", 1.0);
        t.push("emulate", 0.5);
        assert!(t.get("fit").expect("fit stage") >= 1.0);
        assert!(t.total() >= 1.5);
        let line = format!("{t}");
        assert!(line.starts_with("[timings threads="), "{line}");
        assert!(
            line.contains(" fit=") && line.contains(" emulate="),
            "{line}"
        );
    }
}
