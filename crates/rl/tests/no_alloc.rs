//! `Sac::update` does no heap allocation once its minibatch buffers
//! have grown to the batch size: every pass runs in buffers the agent
//! owns and reuses. A counting global allocator checks it, counting per
//! thread so the test harness's own allocations never interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn update_does_not_allocate_at_a_steady_batch_size() {
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
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..20 {
        sac.update();
    }
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);
    assert_eq!(sac.updates_done(), 21);
}
