//! Two-way fork-join over one process-wide helper thread.
//!
//! [`join`] runs two closures and returns both results. The first one
//! goes to a single helper thread, spawned on first use and shared by
//! the whole process; the caller runs the second one meanwhile. When the
//! helper is busy (another `join` holds it, or this `join` is nested in
//! one) or cannot be had (one CPU, or the spawn failed), the caller runs
//! both closures inline, first `a` then `b`. If the helper has not picked
//! `a` up by the time `b` is done, the caller takes it back and runs it
//! itself. Either way the same closures run on the same data, so a
//! computation whose two halves share no mutable state gives the same
//! bits on every path.
//!
//! The handoff allocates nothing: the job lives on the caller's stack,
//! and the caller does not return before the helper is done with it.
//! After each job the helper spins for [`SPIN`] waiting for the next one,
//! then parks, so it costs no CPU while no `join` runs. A panic on either
//! side is caught and re-raised on the caller once both sides are done.

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long the helper spins for its next job before it parks, and how
/// long a caller spins for the helper's result before it parks. On a
/// 2-vCPU VM a round trip to a spinning helper took ~1 µs and one to a
/// parked helper ~23 µs (p90 ~70 µs). The caller-only stretches between
/// the critic stages of `Sac::update` (policy passes) run to ~100 µs
/// there; with 50 µs the helper parked twice per update and 4k-step
/// pretraining took ~7 % longer than with 100 µs (medians of 8 runs),
/// while 200 and 400 µs gained nothing more.
const SPIN: Duration = Duration::from_micros(100);

/// Spin iterations between two clock reads.
const SPINS_PER_CLOCK_READ: u32 = 16;

// Helper states.
/// No job posted.
const IDLE: u8 = 0;
/// A job is in [`JOB`] and nobody has started it.
const POSTED: u8 = 1;
/// The helper is running the job.
const RUNNING: u8 = 2;
/// The helper has finished the job and no longer touches it.
const DONE: u8 = 3;

// Memory ordering: the claimant writes the job, then publishes it with
// the Release store of POSTED, which the helper's Acquire CAS to RUNNING
// pairs with (so `JOB` itself can be Relaxed). The helper publishes the
// result with the Release store of DONE, which the claimant's Acquire
// load pairs with. Releasing `CLAIMED` (Release) after resetting `STATE`
// pairs with the next claimant's Acquire CAS, so it sees IDLE.

/// Held by the one caller that owns the helper, from posting its job
/// until it has collected the result.
static CLAIMED: AtomicBool = AtomicBool::new(false);
/// The helper's state; only the claimant moves it out of [`IDLE`].
static STATE: AtomicU8 = AtomicU8::new(IDLE);
/// The posted job. Read by the helper only after it has moved
/// [`STATE`] from [`POSTED`] to [`RUNNING`].
static JOB: AtomicPtr<Header> = AtomicPtr::new(std::ptr::null_mut());
/// The helper thread, or `None` when it cannot be had.
static HELPER: OnceLock<Option<Thread>> = OnceLock::new();

/// The type-erased front of a [`StackJob`].
#[repr(C)]
struct Header {
    /// Runs the job behind this header and stores its result.
    run: unsafe fn(*const Header),
    /// The caller, unparked once the job is done.
    owner: Thread,
}

/// A job on the caller's stack: the closure and, once run, its result.
#[repr(C)]
struct StackJob<F, R> {
    header: Header,
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
}

impl<F: FnOnce() -> R, R> StackJob<F, R> {
    /// # Safety
    ///
    /// `h` must point at a live `StackJob<F, R>` (whose `repr(C)` puts
    /// the header first) that no other thread touches until this
    /// returns, and must carry the provenance of the whole job.
    unsafe fn run(h: *const Header) {
        let job = &*h.cast::<Self>();
        let f = (*job.f.get()).take();
        let run = || f.expect("a job runs once")();
        *job.result.get() = Some(panic::catch_unwind(AssertUnwindSafe(run)));
    }
}

/// Runs `a` and `b`, `a` on the helper thread when it is free, and
/// returns both results. See the module docs.
///
/// # Panics
///
/// Re-raises a panic from either closure once both are done (`a`'s
/// first when both panic).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    let Some(helper) = helper() else {
        return (a(), b());
    };
    if CLAIMED
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return (a(), b());
    }
    let job = StackJob {
        header: Header {
            run: StackJob::<A, RA>::run,
            owner: thread::current(),
        },
        f: UnsafeCell::new(Some(a)),
        result: UnsafeCell::new(None),
    };
    // From the whole job, not its `header` field: `run` reads and writes
    // the fields behind the header through this pointer.
    let h = std::ptr::addr_of!(job).cast::<Header>().cast_mut();
    JOB.store(h, Ordering::Relaxed);
    STATE.store(POSTED, Ordering::Release);
    helper.unpark();

    let rb = panic::catch_unwind(AssertUnwindSafe(b));

    let ra = if STATE
        .compare_exchange(POSTED, IDLE, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        // Taken back before the helper started it: run it here.
        CLAIMED.store(false, Ordering::Release);
        let f = job.f.into_inner().expect("a job runs once");
        panic::catch_unwind(AssertUnwindSafe(f))
    } else {
        wait_until(|| STATE.load(Ordering::Acquire) == DONE);
        STATE.store(IDLE, Ordering::Relaxed);
        CLAIMED.store(false, Ordering::Release);
        job.result.into_inner().expect("the helper stored a result")
    };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(p), _) | (_, Err(p)) => panic::resume_unwind(p),
    }
}

/// The helper thread, spawned on first use; `None` on a single CPU or if
/// the spawn fails. Its handle is dropped on purpose: the helper serves
/// the whole process and lives until it exits, and it cannot panic
/// (jobs run under `catch_unwind`).
fn helper() -> Option<&'static Thread> {
    HELPER
        .get_or_init(|| {
            let cpus = thread::available_parallelism().map_or(1, |n| n.get());
            if cpus < 2 {
                return None;
            }
            thread::Builder::new()
                .name("mtat-join".into())
                .spawn(helper_loop)
                .ok()
                .map(|h| h.thread().clone())
        })
        .as_ref()
}

/// Spins for [`SPIN`] until `done()`, then parks between checks.
fn wait_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    let mut spins = 0u32;
    while !done() {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(SPINS_PER_CLOCK_READ) && start.elapsed() >= SPIN {
            thread::park();
        } else {
            std::hint::spin_loop();
        }
    }
}

fn helper_loop() {
    loop {
        wait_until(|| STATE.load(Ordering::Acquire) == POSTED);
        if STATE
            .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            continue; // the caller took its job back
        }
        let h = JOB.load(Ordering::Relaxed);
        // SAFETY: `h` points at the `StackJob` whose `run` it names
        // (`join` posts them together). Winning POSTED →
        // RUNNING makes this thread the only one touching the job, and
        // its owner stays in `join` until it sees DONE, so the job
        // outlives this block.
        let owner = unsafe {
            ((*h).run)(h);
            (*h).owner.clone()
        };
        STATE.store(DONE, Ordering::Release);
        owner.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn each_closure_runs_exactly_once_and_results_pair_up() {
        for i in 0..1000u64 {
            let (ca, cb) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (x, y) = join(
                || {
                    ca.fetch_add(1, Ordering::Relaxed);
                    i * 2
                },
                || {
                    cb.fetch_add(1, Ordering::Relaxed);
                    i * 3
                },
            );
            assert_eq!((x, y), (i * 2, i * 3));
            assert_eq!(ca.load(Ordering::Relaxed), 1);
            assert_eq!(cb.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn both_sides_can_write_disjoint_borrows() {
        let mut left = vec![0u64; 256];
        let mut right = vec![0u64; 256];
        join(
            || left.iter_mut().enumerate().for_each(|(i, v)| *v = i as u64),
            || right.iter_mut().for_each(|v| *v = 7),
        );
        assert!(left.iter().enumerate().all(|(i, &v)| v == i as u64));
        assert!(right.iter().all(|&v| v == 7));
    }

    #[test]
    fn a_panic_on_either_side_propagates() {
        let hit = AtomicUsize::new(0);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            join(|| panic!("left"), || hit.fetch_add(1, Ordering::Relaxed))
        }));
        let p = r.expect_err("a's panic propagates");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"left"));

        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            join(|| hit.fetch_add(1, Ordering::Relaxed), || panic!("right"))
        }));
        let p = r.expect_err("b's panic propagates");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"right"));

        // The helper is free again afterwards.
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn nested_join_falls_back_inline() {
        let ((a1, a2), (b1, b2)) = join(|| join(|| 1, || 2), || join(|| 3, || 4));
        assert_eq!((a1, a2, b1, b2), (1, 2, 3, 4));
    }

    #[test]
    fn concurrent_joins_all_complete() {
        let threads = 4;
        let barrier = Barrier::new(threads);
        let total = AtomicUsize::new(0);
        thread::scope(|s| {
            for t in 0..threads {
                let (barrier, total) = (&barrier, &total);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..2000 {
                        let (x, y) = join(|| t + i, || join(|| i, || t));
                        assert_eq!((x, y), (t + i, (i, t)));
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), threads * 2000);
    }
}
