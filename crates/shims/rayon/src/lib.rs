//! One order-preserving parallel map on `std::thread::scope`.
//!
//! The package keeps the name `rayon` only because the lock files record
//! it under that name; it implements none of rayon's API. [`par_map`]
//! splits its input into one contiguous chunk per thread and concatenates
//! the chunk results in input order, so its output equals the serial
//! `items.into_iter().map(f).collect()` element for element. The
//! experiment drivers' bit-identical replay relies on this.
//!
//! The thread count is `RAYON_NUM_THREADS` when set to a positive number,
//! otherwise `std::thread::available_parallelism()`. With one thread the
//! map is the plain serial loop.

use std::sync::OnceLock;

fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Applies `f` to every item across threads and returns the results in
/// input order. A panic in `f` is re-raised on the calling thread.
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    map_on(items, &f, num_threads())
}

fn map_on<I, O, F>(items: Vec<I>, f: &F, threads: usize) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let chunks = items.len().div_ceil(chunk);
    let mut items = items.into_iter();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..chunks)
            .map(|_| {
                let c: Vec<I> = items.by_ref().take(chunk).collect();
                s.spawn(move || c.into_iter().map(f).collect::<Vec<O>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_serial_map_for_every_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in 1..=12 {
            assert_eq!(map_on(items.clone(), &|x| x * x + 1, threads), expect);
        }
        let few: Vec<u64> = (0..5).collect();
        assert_eq!(map_on(few, &|x| x + 1, 12), vec![1, 2, 3, 4, 5]);
        assert_eq!(par_map(items, |x| x * x + 1), expect);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        for threads in [1, 4] {
            assert!(map_on(Vec::<u32>::new(), &|x| x, threads).is_empty());
        }
        assert!(par_map(Vec::<u32>::new(), |x| x).is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_on(
                (0..10).collect::<Vec<u32>>(),
                &|x| {
                    assert!(x != 7, "boom");
                    x
                },
                4,
            )
        });
        assert!(result.is_err());
    }
}
