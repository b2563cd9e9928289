//! In-tree, offline stand-in for the `rayon` crate.
//!
//! Implements the structured-parallelism subset this workspace uses —
//! [`scope`]/[`Scope::spawn`], [`join`], and [`current_num_threads`] —
//! over `std::thread::scope` (stable since 1.63). Unlike real rayon
//! there is no global work-stealing pool: every `spawn` is an OS
//! thread, so callers are expected to spawn one long-lived task per
//! worker (the `eta-parallel` kernels partition work into per-thread
//! panels before spawning, which is also what keeps their results
//! deterministic).

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::thread as std_thread;

/// Debug-build ceiling on spawns per scope. Real rayon multiplexes any
/// number of tasks onto its fixed pool, but the shim backs every spawn
/// with an OS thread, so a caller that spawns per *item* instead of per
/// *worker* degrades quietly — thousands of threads instead of a
/// handful. The engine's contract is one long-lived task per worker
/// (`workers <= current_num_threads()`); the cap enforces that shape
/// with headroom: `current_num_threads().max(SPAWN_CAP_FLOOR)` keeps
/// small CI machines and the shim's own fan-out tests from tripping
/// while still catching per-item spawning at real workloads.
const SPAWN_CAP_FLOOR: usize = 128;

fn spawn_cap() -> usize {
    current_num_threads().max(SPAWN_CAP_FLOOR)
}

/// Number of threads the machine can usefully run concurrently
/// (rayon reports its pool size here; the shim reports the hardware's
/// available parallelism, falling back to 1 when unknown).
pub fn current_num_threads() -> usize {
    std_thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Scope handle passed to [`scope`]'s closure and to each spawned
/// closure (rayon passes the scope so children can spawn siblings).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std_thread::Scope<'scope, 'env>,
    /// Spawns issued from this handle (each nested handle counts its
    /// own children — the cap bounds fan-out per spawning thread,
    /// which is what turns into simultaneous OS threads here).
    spawned: Cell<usize>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task in the scope. Matches rayon's fire-and-forget
    /// signature: no join handle, the task's result is discarded, and
    /// [`scope`] does not return until every spawned task finishes.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when one handle issues more than
    /// `current_num_threads().max(128)` spawns — the shim backs every
    /// spawn with an OS thread, so per-item spawning (instead of the
    /// engine's one-task-per-worker partitioning) must fail loudly
    /// rather than silently oversubscribe the machine.
    ///
    /// # Data races do not compile
    ///
    /// The numeric crates forbid `unsafe_code` and clippy bans their
    /// locks and atomics (`clippy.toml`), so the `Send + 'scope` bound
    /// above plus the borrow checker is the whole race detector: each
    /// example below is rejected at compile time. Two tasks sharing one
    /// `&mut`:
    ///
    /// ```compile_fail,E0382
    /// pub fn bad(out: &mut Vec<f32>) {
    ///     rayon::scope(|s| {
    ///         s.spawn(move |_| out[0] = 1.0);
    ///         s.spawn(move |_| out[0] = 2.0);
    ///     });
    /// }
    /// ```
    ///
    /// A looped spawn moving one `&mut` into every iteration:
    ///
    /// ```compile_fail,E0382
    /// pub fn bad(acc: &mut Vec<f32>, n: usize) {
    ///     rayon::scope(|s| {
    ///         for i in 0..n {
    ///             s.spawn(move |_| acc.push(i as f32));
    ///         }
    ///     });
    /// }
    /// ```
    ///
    /// One task writing what a sibling reads (the value read would
    /// depend on scheduling):
    ///
    /// ```compile_fail,E0382
    /// pub fn bad(state: &mut Vec<f32>, out: &mut [f32]) {
    ///     rayon::scope(|s| {
    ///         s.spawn(move |_| state[0] = 1.0);
    ///         s.spawn(move |_| out[0] = state[0]);
    ///     });
    /// }
    /// ```
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let n = self.spawned.get() + 1;
        self.spawned.set(n);
        debug_assert!(
            n <= spawn_cap(),
            "{n} spawns from one scope handle exceeds the shim cap of {} \
             (one OS thread per spawn): partition work per worker, not per item",
            spawn_cap()
        );
        let inner = self.inner;
        inner.spawn(move || {
            f(&Scope {
                inner,
                spawned: Cell::new(0),
            })
        });
    }
}

/// Creates a scope in which tasks borrowing from the environment can be
/// spawned; all tasks are joined before `scope` returns. A panic in any
/// spawned task propagates to the caller when the scope joins, matching
/// rayon's contract.
///
/// The shape every parallel kernel in the workspace uses — partition
/// first, then hand each task its own disjoint `&mut` window (the
/// racy variants under [`Scope::spawn`] are compile errors):
///
/// ```
/// pub fn good(out: &mut [f32], w: usize) {
///     rayon::scope(|s| {
///         for (c, chunk) in out.chunks_mut(w).enumerate() {
///             s.spawn(move |_| {
///                 for v in chunk.iter_mut() {
///                     *v = c as f32;
///                 }
///             });
///         }
///     });
/// }
/// let mut out = [0.0f32; 6];
/// good(&mut out, 2);
/// assert_eq!(out, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
/// ```
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    std_thread::scope(|s| {
        f(&Scope {
            inner: s,
            spawned: Cell::new(0),
        })
    })
}

/// Runs both closures, potentially in parallel, and returns both
/// results. The shim runs `a` on a scoped worker thread and `b` on the
/// calling thread; a panic in either propagates.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std_thread::scope(|s| {
        let ha = s.spawn(a);
        let rb = b();
        let ra = ha.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (ra, rb)
    })
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "the tests count spawned tasks across threads"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_spawned_tasks() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_spawn_through_scope_handle() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                counter.fetch_add(1, Ordering::SeqCst);
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds the shim cap")]
    fn spawn_cap_trips_on_per_item_spawning() {
        let cap = super::spawn_cap();
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..=cap {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    }

    #[test]
    fn scope_borrows_mutable_disjoint_chunks() {
        let mut data = [0u32; 16];
        scope(|s| {
            for chunk in data.chunks_mut(4) {
                s.spawn(move |_| {
                    for v in chunk {
                        *v += 1;
                    }
                });
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }
}
