//! The work-stealing shard pool — the workspace's one parallel executor.
//!
//! [`shard_map`] maps a function over a vector of independent jobs on a
//! pool of scoped threads ([`std::thread::scope`]), preserving input
//! order. Idle shards steal the next unclaimed job through a shared atomic
//! cursor, so the *assignment* of jobs to threads is nondeterministic —
//! which is exactly why everything built on top (the campaign executors,
//! and experiments that map seeds from [`crate::seed::cell_seed`]) must
//! derive a job's behaviour from its index alone, never from which shard
//! ran it.
//!
//! # Panic containment
//!
//! A panicking job does not poison the batch: every job runs under
//! [`std::panic::catch_unwind`], the remaining jobs still execute, and the
//! pool then re-raises the panic of the **lowest-indexed** failing job with
//! its original payload. Callers observe the same panic they would have
//! seen running the jobs serially — deterministically, regardless of shard
//! count or scheduling.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default shard count: one per available core.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Maps `f` over `items` on [`default_shards`] threads, preserving order.
pub fn shard_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    shard_map_with(default_shards(), items, f)
}

/// Maps `f` over `items` on exactly `shards` worker threads (clamped to
/// `1..=items.len()`), preserving input order in the output.
///
/// Jobs are claimed dynamically: each worker repeatedly takes the next
/// unprocessed index, so stragglers never serialize the batch. With
/// `shards == 1` (or a single item) the map runs inline on the caller's
/// thread — the serial reference behaviour.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed panicking job, after all
/// other jobs have completed (see the [module docs](self)).
pub fn shard_map_with<I, T, F>(shards: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, n);
    if shards == 1 {
        // Inline serial path: panics propagate from the panicking job
        // directly, which matches the pool's lowest-index-first contract
        // (later jobs simply never run — they cannot have been observed).
        return items.into_iter().map(f).collect();
    }

    // Jobs are moved out of their slots exactly once, keyed by the atomic
    // cursor; the per-slot mutex is uncontended by construction.
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    type JobResult<T> = (usize, Result<T, Box<dyn std::any::Any + Send>>);

    let gathered: Vec<JobResult<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<JobResult<T>> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("job slot lock")
                            .take()
                            .expect("job claimed exactly once");
                        // AssertUnwindSafe: the panic is re-raised to the
                        // caller below, so no half-updated state is ever
                        // observed across the boundary.
                        local.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker itself never panics"))
            .collect()
    });

    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    for (i, r) in gathered {
        match r {
            Ok(v) => out[i] = Some(v),
            Err(payload) => {
                if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_panic = Some((i, payload));
                }
            }
        }
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    out.into_iter()
        .map(|r| r.expect("every job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = shard_map_with(4, (0..1000u64).collect(), |x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out: Vec<u64> = shard_map_with(8, Vec::new(), |x: u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn fewer_items_than_shards() {
        let out = shard_map_with(64, vec![1u64, 2, 3], |x| x + 10);
        assert_eq!(out, vec![11, 12, 13]);
        assert_eq!(shard_map_with(64, vec![3u64], |x| x * x), vec![9]);
    }

    #[test]
    fn zero_shards_clamps_to_serial() {
        let out = shard_map_with(0, vec![5u64, 6], |x| x);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn result_is_shard_count_invariant() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37)).collect();
        for shards in [1, 2, 3, 8, 32] {
            let out = shard_map_with(shards, items.clone(), |x| x.wrapping_mul(0x9E37));
            assert_eq!(out, expect, "shards={shards}");
        }
    }

    #[test]
    fn panic_carries_original_payload_and_lowest_index() {
        for shards in [2, 8] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                shard_map_with(shards, (0..100u64).collect(), |x| {
                    if x == 13 || x == 77 {
                        panic!("job {x} failed");
                    }
                    x
                })
            }))
            .expect_err("must propagate the job panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("panic payload is the original format string");
            assert_eq!(msg, "job 13 failed", "lowest-indexed panic wins");
        }
    }

    #[test]
    fn other_jobs_complete_despite_a_panic() {
        use std::sync::atomic::AtomicU64;
        let done = AtomicU64::new(0);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            shard_map_with(4, (0..50u64).collect(), |x| {
                if x == 0 {
                    panic!("first job dies");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert_eq!(done.load(Ordering::Relaxed), 49, "survivors all ran");
    }
}
