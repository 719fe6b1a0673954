//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! path-depends on this shim instead (see the root `Cargo.toml`
//! `[workspace.dependencies]`). It implements exactly the parallel-iterator
//! surface the workspace uses — `par_chunks{,_mut}`, `into_par_iter` on
//! `Range<usize>`, `map`/`for_each`/`enumerate`/`zip`/`collect`/`reduce` —
//! with real fork-join parallelism: items go into a shared queue and
//! [`current_num_threads`] scoped threads drain it. Work items here are
//! coarse (≥ 2^14-element chunks, whole images, matrix rows), so one mutex
//! pop per item is noise next to the kernel work.
//!
//! Pool width is scoped, not global. Outside any [`ThreadPool::install`],
//! the width is a process default computed once (`RAYON_NUM_THREADS`,
//! else `available_parallelism()`). Inside `install`, it is that pool's
//! width for the calling thread until `install` returns or unwinds. The
//! workers a parallel call spawns split the caller's width between them,
//! so nested parallel calls stay inside the caller's budget.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

thread_local! {
    /// Width installed on this thread; 0 means "none, use the default".
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// The process default width: `RAYON_NUM_THREADS` when set to a positive
/// integer (the real rayon's global-pool env knob), otherwise
/// `available_parallelism()`. Read once per process.
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
    })
}

/// Pool width seen by the calling thread: the width of the innermost
/// [`ThreadPool::install`] it runs in (or the share a parallel call gave
/// its worker), otherwise the process default.
pub fn current_num_threads() -> usize {
    match WIDTH.get() {
        0 => default_num_threads(),
        w => w,
    }
}

/// Restores the calling thread's previous width when dropped, on unwind
/// too.
struct WidthGuard(usize);

impl WidthGuard {
    fn set(width: usize) -> Self {
        WidthGuard(WIDTH.replace(width))
    }
}

impl Drop for WidthGuard {
    fn drop(&mut self) {
        WIDTH.set(self.0);
    }
}

/// Builds a [`ThreadPool`] (crates.io-shaped; only `num_threads` is kept).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the process-default width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool width; 0 means the process default.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. The shim spawns threads per parallel call, so this
    /// only records the width and never fails.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = match self.num_threads {
            0 => default_num_threads(),
            n => n,
        };
        Ok(ThreadPool { width })
    }
}

/// Error type of [`ThreadPoolBuilder::build`].
#[derive(Debug)]
pub struct ThreadPoolBuildError;

/// A pool width that parallel calls made inside [`ThreadPool::install`]
/// use.
#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with [`current_num_threads`] equal
    /// to this pool's width, restoring the previous width when `op`
    /// returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _restore = WidthGuard::set(self.width);
        op()
    }
}

/// Runs `f` over `items` on a scoped thread pool, returning results in
/// item order. Falls back to the calling thread for 0/1 items or when the
/// pool width is one. Each worker runs with an equal share of the caller's
/// width (at least 1).
fn execute<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    let width = current_num_threads();
    let threads = width.min(n).max(1);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let share = (width / threads).max(1);
    let queue = Mutex::new(items.into_iter().enumerate());
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                WIDTH.set(share);
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let next = queue.lock().unwrap().next();
                    match next {
                        Some((i, item)) => local.push((i, f(item))),
                        None => break,
                    }
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in collected.into_inner().unwrap() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("worker dropped an item")).collect()
}

/// An eagerly materialized parallel iterator over `items`.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Runs `f` on every item across the pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        execute(self.items, f);
    }

    /// Lazy parallel map; consumed by `collect`/`reduce`.
    pub fn map<R, F>(self, f: F) -> ParMap<I, F>
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Pairs every item with its index, like `Iterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    /// Zips two parallel iterators, truncating to the shorter side.
    pub fn zip<J: Send>(self, other: ParIter<J>) -> ParIter<(I, J)> {
        ParIter { items: self.items.into_iter().zip(other.items).collect() }
    }
}

/// A mapped parallel iterator (the result of [`ParIter::map`]).
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I, F> ParMap<I, F>
where
    I: Send,
{
    /// Executes the map across the pool and collects in item order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        C: FromIterator<R>,
    {
        execute(self.items, self.f).into_iter().collect()
    }

    /// Executes the map across the pool, then folds the ordered results
    /// with `op` starting from `identity()`.
    pub fn reduce<R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        execute(self.items, self.f).into_iter().fold(identity(), op)
    }

    /// Runs the mapped closure for every item, discarding results.
    pub fn for_each<R>(self)
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        execute(self.items, self.f);
    }
}

/// `into_par_iter()` — implemented for the index ranges the kernels use.
pub trait IntoParallelIterator {
    /// Element type of the resulting parallel iterator.
    type Item: Send;
    /// Converts into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-element chunks (last may be shorter).
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter { items: self.chunks(size).collect() }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint mutable `size`-element chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter { items: self.chunks_mut(size).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn chunks_mut_zip_for_each_touches_everything() {
        let n = 10_000;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut y = vec![0.0f32; n];
        y.par_chunks_mut(64).zip(x.par_chunks(64)).for_each(|(yc, xc)| {
            for (a, b) in yc.iter_mut().zip(xc) {
                *a = 2.0 * b;
            }
        });
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
    }

    #[test]
    fn enumerate_indices_match() {
        let mut data = vec![0usize; 500];
        data.par_chunks_mut(7).enumerate().for_each(|(c, chunk)| {
            for v in chunk.iter_mut() {
                *v = c;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 7);
        }
    }

    #[test]
    fn reduce_matches_sequential_sum() {
        let total = (0..257usize).into_par_iter().map(|i| i as u64).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 256 * 257 / 2);
    }

    #[test]
    fn empty_range_is_fine() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn install_scopes_the_width() {
        let outside = crate::current_num_threads();
        assert!(outside >= 1);
        for width in [1, 2, 4] {
            let pool = crate::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let (seen, sum) = pool.install(|| {
                let sum =
                    (0..100usize).into_par_iter().map(|i| i as u64).reduce(|| 0, |a, b| a + b);
                (crate::current_num_threads(), sum)
            });
            assert_eq!((seen, sum), (width, 99 * 100 / 2));
            assert_eq!(crate::current_num_threads(), outside);
        }
    }

    #[test]
    fn num_threads_env_override() {
        // `RAYON_NUM_THREADS` sets the process default once, at first use,
        // so it is checked in a child copy of this test binary started
        // with the variable set; the parent never touches its own env.
        if std::env::var("RAYON_NUM_THREADS").as_deref() == Ok("3") {
            assert_eq!(crate::current_num_threads(), 3);
            let pool = crate::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            assert_eq!(pool.install(crate::current_num_threads), 1);
            assert_eq!(crate::current_num_threads(), 3);
            let default_pool = crate::ThreadPoolBuilder::new().build().unwrap();
            assert_eq!(default_pool.install(crate::current_num_threads), 3);
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["tests::num_threads_env_override", "--exact"])
            .env("RAYON_NUM_THREADS", "3")
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "child failed: {stdout}");
        assert!(stdout.contains("1 passed"), "child ran no test: {stdout}");
    }

    #[test]
    fn default_width_pool_matches_the_process_default() {
        let pool = crate::ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(pool.install(crate::current_num_threads), crate::current_num_threads());
    }

    #[test]
    fn nested_install_restores_the_outer_width() {
        let pool = |n| crate::ThreadPoolBuilder::new().num_threads(n).build().unwrap();
        pool(4).install(|| {
            pool(2).install(|| assert_eq!(crate::current_num_threads(), 2));
            assert_eq!(crate::current_num_threads(), 4);
        });
    }

    #[test]
    fn install_restores_the_width_on_unwind() {
        let outside = crate::current_num_threads();
        let pool = crate::ThreadPoolBuilder::new().num_threads(outside + 3).build().unwrap();
        let caught = std::panic::catch_unwind(|| pool.install(|| panic!("inside install")));
        assert!(caught.is_err());
        assert_eq!(crate::current_num_threads(), outside);
    }

    #[test]
    fn workers_split_the_callers_width() {
        let pool = |n| crate::ThreadPoolBuilder::new().num_threads(n).build().unwrap();
        let widths = |items: usize| -> Vec<usize> {
            (0..items).into_par_iter().map(|_| crate::current_num_threads()).collect()
        };
        // 2 workers share a width of 4; 4 or more items get one thread each.
        assert_eq!(pool(4).install(|| widths(2)), vec![2, 2]);
        assert_eq!(pool(4).install(|| widths(8)), vec![1; 8]);
        // One item runs on the calling thread with the whole width.
        assert_eq!(pool(4).install(|| widths(1)), vec![4]);
        assert_eq!(pool(3).install(|| widths(2)), vec![1, 1]);
    }
}
