//! Thread-count provenance for the benchmark harness.
//!
//! The frame pipeline is single-threaded: one MAMT pass per QVGA frame
//! is too small for fork-join to pay for its threads, so every hot loop
//! runs inline. This crate keeps only the two functions the standalone
//! benchmark workspace (`perfbench/`) links: [`with_threads`] scopes its
//! run and [`num_threads`] reports the thread count into the run's
//! provenance, which is always 1.

/// Worker threads the frame pipeline uses: always 1.
pub fn num_threads() -> usize {
    1
}

/// Runs `f`. The requested count `_n` is ignored because the frame
/// pipeline never forks.
pub fn with_threads<R>(_n: usize, f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_runs_inline_and_reports_one_thread() {
        let caller = std::thread::current().id();
        let (id, n) = with_threads(4, || (std::thread::current().id(), num_threads()));
        assert_eq!(id, caller);
        assert_eq!(n, 1);
    }
}
