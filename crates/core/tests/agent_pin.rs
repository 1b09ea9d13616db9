//! Byte-identity pin for SAC pretraining as `MtatPolicy` runs it.
//!
//! The digest is the FNV-1a-64 of the `Snap` bytes of a short
//! `LcPartitioner::pretrained` agent (Redis on the paper host). It was
//! captured from the per-sample reference implementation of the SAC
//! update, before the minibatch kernels replaced it. Regenerate only for
//! a deliberate behaviour change:
//!
//! ```text
//! MTAT_GOLDEN_PRINT=1 cargo test -p mtat-core --test agent_pin -- --nocapture
//! ```

use mtat_core::config::SimConfig;
use mtat_core::policy::mtat::MtatConfig;
use mtat_core::ppm::lc::{LcPartitioner, LcPartitionerConfig};
use mtat_snapshot::{fnv1a64, Snap, SnapWriter};
use mtat_workloads::lc::LcSpec;

#[test]
fn pretrained_agent_bytes_are_pinned() {
    let sim = SimConfig::paper();
    let cfg = LcPartitionerConfig {
        fmem_total: sim.mem.fmem_bytes(),
        max_step_bytes: sim.migration_bw * sim.interval_secs / 2.0,
        online_learning: true,
        explore: false,
    };
    let p = LcPartitioner::pretrained(&LcSpec::redis(), cfg, 1500, MtatConfig::full().seed);
    assert!(p.agent().updates_done() > 600);
    let mut w = SnapWriter::new();
    p.agent().snap(&mut w);
    let digest = fnv1a64(&w.into_bytes());
    if std::env::var_os("MTAT_GOLDEN_PRINT").is_some() {
        println!("pretrained digest: {digest:016x}");
    }
    assert_eq!(
        digest, 0x4e97_0abf_cc12_441c,
        "agent bytes changed: {digest:016x}"
    );
}
