//! Byte-identity pin for the SAC update.
//!
//! The digest below is the FNV-1a-64 of the agent's `Snap` bytes after
//! a fixed, deterministic training history. It was captured from the
//! per-sample reference implementation of `Sac::update`, before the
//! minibatch kernels replaced it. Any change to the summation order of
//! a dot product or a gradient accumulation, or to the order of RNG
//! draws, changes it. Regenerate only for a deliberate behaviour change:
//!
//! ```text
//! MTAT_GOLDEN_PRINT=1 cargo test -p mtat-rl --test agent_pin -- --nocapture
//! ```

use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_snapshot::{fnv1a64, Snap, SnapWriter};

/// 2,000 deterministic transitions, then 400 explicit updates.
fn pinned_agent() -> Sac {
    let mut cfg = SacConfig::paper(3, 1);
    cfg.update_every = usize::MAX;
    let mut sac = Sac::new(cfg, 11);
    for i in 0..2000u32 {
        let x = f64::from(i % 97) / 97.0;
        sac.observe(Transition {
            state: vec![x, 1.0 - x, 0.5],
            action: vec![x * 2.0 - 1.0],
            reward: -x,
            next_state: vec![1.0 - x, x, 0.5],
            done: i % 200 == 199,
        });
    }
    for _ in 0..400 {
        sac.update();
    }
    sac
}

#[test]
fn sac_update_agent_bytes_are_pinned() {
    let sac = pinned_agent();
    assert_eq!(sac.updates_done(), 400);
    let mut w = SnapWriter::new();
    sac.snap(&mut w);
    let digest = fnv1a64(&w.into_bytes());
    if std::env::var_os("MTAT_GOLDEN_PRINT").is_some() {
        println!("sac_update digest: {digest:016x}");
    }
    assert_eq!(
        digest, 0xeb43_2a3c_2237_8d17,
        "agent bytes changed: {digest:016x}"
    );
}
