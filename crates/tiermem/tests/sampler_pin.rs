//! Pins the batched sampler's output stream, and checks that the
//! touched-rank paths agree with the untracked ones.
//!
//! Each digest is the FNV-1a-64 of the estimates and touched ranks after
//! every call of a fixed sequence. They were captured from the branchy
//! alias select and the per-rank `round` scale-up, before the
//! branch-free kernel and the scale table replaced them. Any change to
//! the RNG call order, the alias lookup or the rounding changes them.
//! Regenerate only for a deliberate behaviour change:
//!
//! ```text
//! MTAT_GOLDEN_PRINT=1 cargo test -p mtat-tiermem --test sampler_pin -- --nocapture
//! ```

use mtat_snapshot::fnv1a64;
use mtat_tiermem::sampler::{AccessSampler, TouchedSet, WeightTable};

/// Calls per pinned stream.
const CALLS: usize = 50;

/// Normalized Zipf(s) weights over `n` ranks, hottest first.
fn zipf(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|w| w / total).collect()
}

/// Normalized weights with zero-weight ranks interleaved (rank order
/// is not hotness order, as after a scenario mutation).
fn holey(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n)
        .map(|r| {
            if r % 3 == 1 {
                0.0
            } else {
                1.0 + (r % 7) as f64
            }
        })
        .collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|w| w / total).collect()
}

/// Total true accesses for call `i`: sweeps both Poisson branches
/// (aggregate mean below and above 30) and an idle call.
fn load(i: usize, period: f64) -> f64 {
    match i % 5 {
        0 => 0.0,
        1 => 7.0 * period,
        2 => 29.0 * period,
        _ => (400.0 + 311.0 * i as f64) * period,
    }
}

/// Appends one call's estimates and touched ranks, little-endian.
fn record(bytes: &mut Vec<u8>, out: &[u64], touched: &TouchedSet) {
    for &v in out {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for r in touched.iter_ranks() {
        bytes.extend_from_slice(&(r as u64).to_le_bytes());
    }
}

/// Digest of `CALLS` consecutive weighted calls.
fn weighted_digest(weights: &[f64], period: f64, seed: u64) -> u64 {
    let table = WeightTable::new_unsorted(weights).unwrap();
    let mut s = AccessSampler::new(period, seed).unwrap();
    let mut out = vec![0u64; table.len()];
    let mut touched = TouchedSet::default();
    let mut bytes = Vec::new();
    for i in 0..CALLS {
        s.sample_weighted_estimates_touched(&mut out, &mut touched, load(i, period), &table);
        record(&mut bytes, &out, &touched);
    }
    fnv1a64(&bytes)
}

/// Digest of `CALLS` consecutive uniform calls over `n` pages.
fn uniform_digest(n: usize, period: f64, seed: u64) -> u64 {
    let mut s = AccessSampler::new(period, seed).unwrap();
    let mut out = vec![0u64; n];
    let mut touched = TouchedSet::default();
    let mut bytes = Vec::new();
    for i in 0..CALLS {
        let per_page = load(i, period) / n as f64;
        s.sample_uniform_estimates_touched(&mut out, &mut touched, per_page);
        record(&mut bytes, &out, &touched);
    }
    fnv1a64(&bytes)
}

fn check_digests(what: &str, got: &[u64], want: &[u64]) {
    if std::env::var_os("MTAT_GOLDEN_PRINT").is_some() {
        println!("{what} digests: {got:016x?}");
    }
    assert_eq!(got, want, "{what} sampler stream changed: {got:016x?}");
}

#[test]
fn weighted_stream_is_pinned() {
    let got = [
        weighted_digest(&zipf(4096, 1.1), 101.0, 7),
        weighted_digest(&zipf(300, 0.8), 2.5, 8),
        weighted_digest(&holey(1000), 64.0, 9),
        weighted_digest(&[1.0], 101.0, 10),
    ];
    let want = [
        0xabdd_11ac_6d0d_c1e7,
        0x97ad_86be_caae_1dae,
        0x3278_09d1_8d9b_e982,
        0x9077_1578_c2e8_739f,
    ];
    check_digests("weighted", &got, &want);
}

#[test]
fn uniform_stream_is_pinned() {
    let got = [
        uniform_digest(4096, 101.0, 11),
        uniform_digest(300, 2.5, 12),
        uniform_digest(1, 64.0, 13),
    ];
    let want = [
        0x908f_6a5b_14a1_da4b,
        0xfe4e_609c_ab54_56c3,
        0x2caa_e0bc_e392_c544,
    ];
    check_digests("uniform", &got, &want);
}

/// Fault states the agreement checks cycle through: nominal, blackout,
/// and a quarter of events kept.
const FAULTS: [(bool, f64); 3] = [(false, 1.0), (true, 1.0), (false, 0.25)];

/// Asserts the touched set is exactly the nonzero entries of `out`.
fn assert_touched_is_support(out: &[u64], touched: &TouchedSet) {
    let ranks: Vec<usize> = touched.iter_ranks().collect();
    let nonzero: Vec<usize> = (0..out.len()).filter(|&r| out[r] != 0).collect();
    assert_eq!(ranks, nonzero);
}

#[test]
fn weighted_touched_path_matches_untracked() {
    for (weights, period) in [
        (zipf(4096, 1.1), 101.0),
        (holey(1000), 2.5),
        (vec![1.0], 64.0),
    ] {
        let table = WeightTable::new_unsorted(&weights).unwrap();
        let mut plain = AccessSampler::new(period, 21).unwrap();
        let mut tracked = AccessSampler::new(period, 21).unwrap();
        let mut a = vec![0u64; table.len()];
        let mut b = vec![0u64; table.len()];
        let mut touched = TouchedSet::default();
        for i in 0..3 * CALLS {
            let (blackout, keep) = FAULTS[(i / 7) % FAULTS.len()];
            plain.set_fault_state(blackout, keep);
            tracked.set_fault_state(blackout, keep);
            let total = load(i, period);
            plain.sample_weighted_estimates(&mut a, total, &table);
            tracked.sample_weighted_estimates_touched(&mut b, &mut touched, total, &table);
            assert_eq!(a, b, "call {i} (blackout {blackout}, keep {keep})");
            assert_touched_is_support(&b, &touched);
        }
    }
}

#[test]
fn uniform_touched_path_matches_untracked() {
    for (n, period) in [(4096usize, 101.0), (300, 2.5), (1, 64.0)] {
        let mut plain = AccessSampler::new(period, 22).unwrap();
        let mut tracked = AccessSampler::new(period, 22).unwrap();
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        let mut touched = TouchedSet::default();
        for i in 0..3 * CALLS {
            let (blackout, keep) = FAULTS[(i / 7) % FAULTS.len()];
            plain.set_fault_state(blackout, keep);
            tracked.set_fault_state(blackout, keep);
            let per_page = load(i, period) / n as f64;
            plain.sample_uniform_estimates(&mut a, per_page);
            tracked.sample_uniform_estimates_touched(&mut b, &mut touched, per_page);
            assert_eq!(a, b, "call {i} (blackout {blackout}, keep {keep})");
            assert_touched_is_support(&b, &touched);
        }
    }
}
