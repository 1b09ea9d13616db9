//! Microbenchmarks for the SoA arena hot paths and the SAC update.
//!
//! Times the three primitives the adaptive per-tick cost decomposes
//! into, in isolation, so a regression in any one of them is visible
//! before it washes out in the end-to-end ticks/sec number:
//!
//! * **migrate_batch** — owner-run batched tier moves over a candidate
//!   slice (pages/sec, ping-ponging a block between tiers so every call
//!   does real work);
//! * **rebin** — `AccessHistogram::add_rank` calls that each cross a
//!   bin boundary, exercising the swap-remove + segment-push index
//!   maintenance (ops/sec);
//! * **hottest-scan** — `hottest_matching_into` over a populated
//!   histogram with the residency-bitset predicate, the gather step of
//!   every enforcement tick (scans/sec and pages/sec).
//!
//! plus the learning kernel behind SAC pretraining:
//!
//! * **sac_update** — `Sac::update` rounds at `SacConfig::paper` (batch
//!   64, 64×64 twin critics) on a filled replay buffer (updates/sec);
//! * **pretrain** — the wall time of one full 12k-step
//!   `LcPartitioner::pretrained` on the paper host, as every process
//!   that builds `mtat_full` pays it (seconds, median of 3);
//!
//! and the PEBS sampler's scatter, the largest stage of a tick:
//!
//! * **sampler_weighted** — `sample_weighted_estimates_touched` over the
//!   four paper BE tables at their per-tick event counts (events/sec).
//!
//! Writes `BENCH_micro.json` (override with `--out PATH`); CI uploads
//! the file as an artifact next to the span traces. Absolute numbers
//! are machine-dependent — the file is a provenance record, not a gate
//! (the gate is `perf_baseline --check`).

use std::time::Instant;

use mtat_core::config::SimConfig;
use mtat_core::policy::mtat::MtatConfig;
use mtat_core::ppm::lc::{LcPartitioner, LcPartitionerConfig};
use mtat_obs::Obs;
use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_snapshot::{fnv1a64, Snap, SnapWriter};
use mtat_tiermem::histogram::{AccessHistogram, NUM_BINS};
use mtat_tiermem::memory::{InitialPlacement, MemorySpec, TieredMemory};
use mtat_tiermem::page::{PageId, PageRegion, Tier};
use mtat_tiermem::sampler::{AccessSampler, TouchedSet};
use mtat_tiermem::MIB;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;

/// Minimum wall time per measurement; repeats until exceeded so quick
/// primitives still get a stable rate.
const MIN_SECS: f64 = 0.25;

/// Ping-pongs a 256-page block between tiers and returns pages/sec.
fn bench_migrate_batch() -> f64 {
    let spec = MemorySpec::new(512 * MIB, 8192 * MIB, MIB).unwrap();
    let mut mem = TieredMemory::new(spec);
    let w = mem
        .register_workload(4096 * MIB, InitialPlacement::AllSmem)
        .unwrap();
    let batch: Vec<PageId> = (0..256).map(|r| mem.region(w).page(r)).collect();
    let mut pages = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        pages += mem.migrate_batch(&batch, Tier::FMem);
        pages += mem.migrate_batch(&batch, Tier::SMem);
    }
    assert!(mem.check_invariants().is_ok());
    pages as f64 / start.elapsed().as_secs_f64()
}

/// `add_rank` calls that each double the count — every call rebins
/// until the bin cap, then the histogram is aged back down. Returns
/// rebinning add_rank ops/sec.
fn bench_rebin() -> f64 {
    let n: u32 = 16384;
    let region = PageRegion {
        base: 0,
        n_pages: n,
    };
    let mut h = AccessHistogram::new(region);
    for r in 0..n {
        h.add_rank(r, 1);
    }
    let mut ops = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        // Doubling a nonzero count advances its exponent bin by one.
        for _round in 0..(NUM_BINS - 2) {
            for r in 0..n {
                let c = h.count(PageId(r));
                h.add_rank(r, c);
                ops += 1;
            }
        }
        // Age back to bin 1 so the next pass rebins again.
        for _ in 0..NUM_BINS {
            h.age();
        }
        for r in 0..n {
            if h.count(PageId(r)) == 0 {
                h.add_rank(r, 1);
            }
        }
    }
    assert!(h.check_invariants().is_ok());
    ops as f64 / start.elapsed().as_secs_f64()
}

/// `hottest_matching_into` with the residency-bitset predicate over a
/// zipf-populated histogram. Returns (scans/sec, candidate pages/sec).
fn bench_hottest_scan() -> (f64, f64) {
    let n: u32 = 16384;
    let spec = MemorySpec::new(2048 * MIB, 32768 * MIB, MIB).unwrap();
    let mut mem = TieredMemory::new(spec);
    let w = mem
        .register_workload(n as u64 * MIB, InitialPlacement::AllSmem)
        .unwrap();
    let region = mem.region(w);
    let mut h = AccessHistogram::new(region);
    for r in 0..n {
        // Zipf-ish spread across bins.
        h.add_rank(r, 1 + (n - r) as u64 * 17 / (r as u64 + 3));
    }
    // Promote a quarter so the predicate actually filters.
    let promoted: Vec<PageId> = (0..n / 4).map(|r| region.page(r * 4)).collect();
    mem.migrate_batch(&promoted, Tier::FMem);
    let k = 1024usize;
    let mut out = Vec::with_capacity(k);
    let mut scans = 0u64;
    let mut pages = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        h.hottest_matching_into(&mut out, k, |p| !mem.is_fmem(p));
        scans += 1;
        pages += out.len() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (scans as f64 / secs, pages as f64 / secs)
}

/// `Sac::update` rounds on the paper agent (seed 11, updates only on
/// demand) after 2,000 deterministic transitions. Returns updates/sec.
fn bench_sac_update() -> f64 {
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
    let mut updates = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        sac.update();
        updates += 1;
    }
    updates as f64 / start.elapsed().as_secs_f64()
}

/// Full SAC pretraining as `MtatPolicy` runs it (Redis on the paper
/// host, `MtatConfig::full`'s steps and seed), three times. Returns the
/// median wall seconds and the FNV-1a-64 of the trained agent's `Snap`
/// bytes, which must be the same every time.
fn bench_pretrain() -> (f64, u64) {
    let sim = SimConfig::paper();
    let mtat = MtatConfig::full();
    let cfg = LcPartitionerConfig {
        fmem_total: sim.mem.fmem_bytes(),
        max_step_bytes: sim.migration_bw * sim.interval_secs / 2.0,
        online_learning: true,
        explore: false,
    };
    let mut secs = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let p = LcPartitioner::pretrained(
            &LcSpec::redis(),
            cfg.clone(),
            mtat.pretrain_steps,
            mtat.seed,
        );
        secs.push(start.elapsed().as_secs_f64());
        let mut w = SnapWriter::new();
        p.agent().snap(&mut w);
        digests.push(fnv1a64(&w.into_bytes()));
    }
    assert!(
        digests.windows(2).all(|d| d[0] == d[1]),
        "pretraining is not deterministic"
    );
    secs.sort_by(f64::total_cmp);
    (secs[1], digests[0])
}

/// One paper tick of BE sampling per round: each of the four paper BE
/// tables (paper-scale pages and period) gets the true access count of
/// one tick at its ideal hit ratio with the FMem split evenly between
/// them. Returns sampled events/sec.
fn bench_sampler_weighted() -> f64 {
    let cfg = SimConfig::paper();
    let page = cfg.mem.page_size();
    let share = cfg.mem.fmem_bytes() / 4;
    let mut bes: Vec<_> = BeSpec::all_paper_workloads()
        .into_iter()
        .map(|be| {
            let n = be.rss_bytes.div_ceil(page) as usize;
            let total_true = be.accesses_per_sec(be.ideal_hit_ratio(share, page)) * cfg.tick_secs;
            let table = be.popularity(n).to_weight_table();
            (table, total_true, vec![0u64; n], TouchedSet::default())
        })
        .collect();
    let obs = Obs::enabled();
    let mut sampler = AccessSampler::new(cfg.sampler_period, 1).unwrap();
    sampler.set_obs(obs.clone());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        for (table, total_true, out, touched) in &mut bes {
            sampler.sample_weighted_estimates_touched(out, touched, *total_true, table);
        }
    }
    let events = obs.counter_value("tiermem.sampler.events").unwrap_or(0);
    events as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_micro.json".to_string());

    eprintln!("# microbench: migrate_batch...");
    let migrate = bench_migrate_batch();
    eprintln!("#   {migrate:.0} pages/s");
    eprintln!("# microbench: rebin (bin-crossing add_rank)...");
    let rebin = bench_rebin();
    eprintln!("#   {rebin:.0} ops/s");
    eprintln!("# microbench: hottest-scan (k=1024, bitset predicate)...");
    let (scans, scan_pages) = bench_hottest_scan();
    eprintln!("#   {scans:.0} scans/s, {scan_pages:.0} pages/s");
    eprintln!("# microbench: sac_update (paper agent, batch 64)...");
    let sac_updates = bench_sac_update();
    eprintln!("#   {sac_updates:.0} updates/s");
    eprintln!("# microbench: pretrain (12k-step paper agent, median of 3)...");
    let (pretrain_secs, agent_digest) = bench_pretrain();
    eprintln!("#   {pretrain_secs:.3} s, agent {agent_digest:016x}");
    eprintln!("# microbench: sampler_weighted (paper BE tables, one tick each)...");
    let sampler_events = bench_sampler_weighted();
    eprintln!("#   {sampler_events:.0} events/s");

    let json = format!(
        "{{\n  \"schema\": 1,\n  \
         \"migrate_batch_pages_per_sec\": {migrate:.0},\n  \
         \"rebin_ops_per_sec\": {rebin:.0},\n  \
         \"hottest_scan_per_sec\": {scans:.0},\n  \
         \"hottest_scan_pages_per_sec\": {scan_pages:.0},\n  \
         \"sac_update_per_sec\": {sac_updates:.0},\n  \
         \"pretrain_secs\": {pretrain_secs:.3},\n  \
         \"sampler_weighted_events_per_sec\": {sampler_events:.0}\n}}\n"
    );
    print!("{json}");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("# wrote {out_path}");
}
