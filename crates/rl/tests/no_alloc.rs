//! `Sac::update` does no heap allocation once its minibatch buffers
//! have grown to the batch size: every pass runs in buffers the agent
//! owns and reuses, on the calling thread and on the `join` helper that
//! runs one critic. A counting global allocator checks it. It counts on
//! marked threads only, so the test harness's own allocations never
//! interfere: the test thread, and the helper, which marks itself by
//! running the first closure of a `join` whose second closure waits for
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mtat_rl::join;
use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn update_does_not_allocate_at_a_steady_batch_size() {
    COUNTED.with(|c| c.set(true));
    // Mark whichever thread runs `join`'s first closure: the helper
    // whenever it can be had, since the second closure cannot finish
    // (and so take the first one back) before the first has run. The
    // boxed allocation there proves that thread's allocations count.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let marked = AtomicBool::new(false);
    join(
        || {
            COUNTED.with(|c| c.set(true));
            drop(std::hint::black_box(Box::new(0u64)));
            marked.store(true, Ordering::Release);
        },
        || {
            while !marked.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        },
    );
    assert!(ALLOCATIONS.load(Ordering::Relaxed) > before);

    let mut cfg = SacConfig::paper(3, 1);
    cfg.update_every = usize::MAX;
    let mut sac = Sac::new(cfg, 11);
    for i in 0..500u32 {
        let x = f64::from(i % 97) / 97.0;
        sac.observe(Transition {
            state: vec![x, 1.0 - x, 0.5],
            action: vec![x * 2.0 - 1.0],
            reward: -x,
            next_state: vec![1.0 - x, x, 0.5],
            done: i % 200 == 199,
        });
    }
    // The first round grows the buffers to the batch size.
    sac.update();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..20 {
        sac.update();
    }
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed) - before, 0);
    assert_eq!(sac.updates_done(), 21);
}
