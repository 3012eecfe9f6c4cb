//! Parallel execution of independent trials.
//!
//! Population-protocol experiments are ensembles of independent runs, so we
//! parallelise across trials with scoped threads (no extra dependency). Each
//! trial receives its index; the caller derives a per-trial seed via
//! [`crate::rng::derive`] so results are independent of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use by default: the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Run `trials` independent trials of `f` (called with the trial index) on
/// `threads` worker threads and return the results in trial order.
///
/// Work is distributed dynamically (atomic work-stealing counter), so uneven
/// trial durations do not idle workers. Each worker returns its
/// `(trial, result)` pairs through its join handle; the results are put in
/// trial order after the join.
///
/// # Panics
///
/// Re-raises the panic of any trial.
pub fn run_trials<R, F>(trials: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(trials.max(1));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= trials {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u32> = run_trials(0, 4, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_works() {
        let out = run_trials(10, 1, |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Trials with wildly different costs still all complete.
        let out = run_trials(32, 4, |i| {
            let mut acc = 0u64;
            for x in 0..(i as u64 % 7) * 1000 {
                acc = acc.wrapping_add(x);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 32);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn a_trial_panic_is_re_raised_with_its_own_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_trials(8, 2, |i| {
                if i == 5 {
                    panic!("trial 5 failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the trial panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"trial 5 failed"));
    }
}
