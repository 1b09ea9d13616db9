//! Latency-critical workload models (Table 1).
//!
//! Each LC server is an M/M/c queue (see [`mtat_tiermem::latency`]) whose
//! mean service time is `S(h) = cpu + n·(h·73 ns + (1−h)·202 ns)` for
//! FMem hit ratio `h`. The `(cpu, n)` pairs below are calibrated so
//! that:
//!
//! 1. with the workload's Table-1 core count and *all 32 GiB of FMem*
//!    (the paper's FMEM_ALL condition) the latency knee — the paper's
//!    *max load* — lands at Table 1's KRPS figure, and
//! 2. running entirely from SMem sustains roughly 75–80 % of that,
//!    matching the SMEM_ALL bars of Fig. 8.
//!
//! LC request traffic is **uniform** over the resident set (§5: "we
//! subject four LC workloads … to uniformly distributed requests"), so
//! the hit ratio of an LC workload equals its FMem residency fraction —
//! the analytical heart of the paper's motivation: promoting a specific
//! LC page buys almost nothing, only *capacity* does.

use mtat_tiermem::latency::{self, ServiceModel};
use mtat_tiermem::GIB;

use crate::access::AccessPattern;

/// Specification of a latency-critical server workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LcSpec {
    /// Benchmark name (e.g. `"redis"`).
    pub name: String,
    /// Resident set size in bytes (Table 1).
    pub rss_bytes: u64,
    /// Service-level objective on P99 response time, seconds (Table 1).
    pub slo_secs: f64,
    /// Serving threads/cores (per §5: Redis and Silo are single-threaded,
    /// Memcached and MongoDB use eight).
    pub cores: usize,
    /// Pure CPU time per request, seconds.
    pub cpu_secs: f64,
    /// DRAM accesses (LLC misses) per request.
    pub accesses_per_req: f64,
    /// Page-popularity shape of request traffic.
    pub pattern: AccessPattern,
}

impl LcSpec {
    /// Redis: single-threaded in-memory KV store, 33.6 GiB RSS,
    /// 20 ms SLO, ~80 KRPS max load.
    pub fn redis() -> Self {
        Self {
            name: "redis".to_string(),
            rss_bytes: gb(33.6),
            slo_secs: 20e-3,
            cores: 1,
            cpu_secs: 5.76e-6,
            accesses_per_req: 82.0,
            pattern: AccessPattern::Uniform,
        }
    }

    /// Memcached: 8-thread in-memory KV store, 31.4 GiB RSS,
    /// 20 ms SLO, ~1220 KRPS max load.
    pub fn memcached() -> Self {
        Self {
            name: "memcached".to_string(),
            rss_bytes: gb(31.4),
            slo_secs: 20e-3,
            cores: 8,
            cpu_secs: 5.52e-6,
            accesses_per_req: 12.5,
            pattern: AccessPattern::Uniform,
        }
    }

    /// MongoDB: 8-thread NoSQL database, 33.2 GiB RSS,
    /// 30 ms SLO, ~125 KRPS max load.
    pub fn mongodb() -> Self {
        Self {
            name: "mongodb".to_string(),
            rss_bytes: gb(33.2),
            slo_secs: 30e-3,
            cores: 8,
            cpu_secs: 45.9e-6,
            accesses_per_req: 216.0,
            pattern: AccessPattern::Uniform,
        }
    }

    /// Silo: single-threaded in-memory transactional database (TPC-C at
    /// 320 warehouses), 30.4 GiB RSS, 15 ms SLO, ~11 KRPS max load.
    pub fn silo() -> Self {
        Self {
            name: "silo".to_string(),
            rss_bytes: gb(30.4),
            slo_secs: 15e-3,
            cores: 1,
            cpu_secs: 74.9e-6,
            accesses_per_req: 195.0,
            pattern: AccessPattern::Uniform,
        }
    }

    /// All four Table-1 workloads, in the paper's order.
    pub fn all_paper_workloads() -> Vec<LcSpec> {
        vec![
            Self::redis(),
            Self::memcached(),
            Self::mongodb(),
            Self::silo(),
        ]
    }

    /// Returns a copy serving with `cores` threads, as swept in Table 3
    /// (LC core counts of 4, 10, and 16).
    ///
    /// Per-request cost is unchanged: more cores mean proportionally more
    /// capacity, so the *normalized* results of Table 3 are comparable.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// The queueing service model for this workload.
    pub fn service_model(&self) -> ServiceModel {
        ServiceModel::with_paper_latencies(self.cpu_secs, self.accesses_per_req)
    }

    /// Mean service time at FMem hit ratio `h`.
    #[inline]
    pub fn service_time(&self, hit_ratio: f64) -> f64 {
        self.service_model().service_time(hit_ratio)
    }

    /// P99 response time at `load_rps` requests/second and hit ratio `h`.
    /// `f64::INFINITY` when the queue is saturated.
    pub fn p99(&self, load_rps: f64, hit_ratio: f64) -> f64 {
        latency::p99_response(load_rps, self.service_time(hit_ratio), self.cores)
    }

    /// Maximum load (req/s) sustainable at hit ratio `h` without
    /// violating this workload's SLO — one point of a Fig. 1 curve.
    pub fn max_load(&self, hit_ratio: f64) -> f64 {
        latency::max_load_for_p99(self.service_time(hit_ratio), self.cores, self.slo_secs)
    }

    /// The hit ratio this workload achieves when given `fmem_bytes` of
    /// fast memory, under its uniform access pattern:
    /// `min(1, fmem / rss)`.
    ///
    /// Note that even FMEM_ALL (all 32 GiB) leaves Redis/MongoDB slightly
    /// below `h = 1` because their resident sets exceed FMem.
    pub fn full_fmem_hit_ratio(&self, fmem_bytes: u64) -> f64 {
        (fmem_bytes as f64 / self.rss_bytes as f64).min(1.0)
    }

    /// Memory accesses per second generated at `load_rps`.
    #[inline]
    pub fn accesses_per_sec(&self, load_rps: f64) -> f64 {
        load_rps * self.accesses_per_req
    }

    /// Table-1 nominal max load in requests/second, i.e. the sustainable
    /// load under FMEM_ALL with the paper's 32 GiB FMem.
    pub fn nominal_max_load(&self) -> f64 {
        self.max_load(self.full_fmem_hit_ratio(32 * GIB))
    }
}

fn gb(v: f64) -> u64 {
    (v * GIB as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper: (constructor, RSS GiB, SLO ms, max KRPS).
    fn table1() -> Vec<(LcSpec, f64, f64, f64)> {
        vec![
            (LcSpec::redis(), 33.6, 20.0, 80.0),
            (LcSpec::memcached(), 31.4, 20.0, 1220.0),
            (LcSpec::mongodb(), 33.2, 30.0, 125.0),
            (LcSpec::silo(), 30.4, 15.0, 11.0),
        ]
    }

    #[test]
    fn table1_characteristics_match() {
        for (spec, rss_gb, slo_ms, max_krps) in table1() {
            assert!(
                (spec.rss_bytes as f64 / GIB as f64 - rss_gb).abs() < 0.01,
                "{} rss",
                spec.name
            );
            assert!(
                (spec.slo_secs * 1e3 - slo_ms).abs() < 1e-9,
                "{} slo",
                spec.name
            );
            let max = spec.nominal_max_load() / 1e3;
            let err = (max - max_krps).abs() / max_krps;
            assert!(
                err < 0.10,
                "{}: calibrated max {max} KRPS vs paper {max_krps}",
                spec.name
            );
        }
    }

    #[test]
    fn smem_only_capacity_ratios_match_calibration() {
        // SMem-only sustainable load as a fraction of the FMEM_ALL knee.
        // Redis is the most memory-sensitive (it anchors the Table 4 /
        // Fig. 9 violation behaviour); the geometric mean across the four
        // workloads lands SMEM_ALL at ~0.70 of FMEM_ALL in Fig. 8, above
        // TPP (whose fault stalls push it lower) as the paper reports.
        let targets = [0.55, 0.80, 0.70, 0.78];
        let mut product = 1.0;
        for ((spec, ..), want) in table1().into_iter().zip(targets) {
            let ratio = spec.max_load(0.0) / spec.nominal_max_load();
            assert!(
                (ratio - want).abs() < 0.05,
                "{}: SMem-only ratio {ratio}, want ~{want}",
                spec.name
            );
            product *= ratio;
        }
        let geomean = product.powf(0.25);
        assert!((0.65..0.76).contains(&geomean), "geomean {geomean}");
    }

    #[test]
    fn max_load_monotone_in_fmem_share() {
        // The Fig. 1 trend: throughput degrades monotonically as FMem
        // diminishes, for every LC workload.
        for (spec, ..) in table1() {
            let mut prev = 0.0;
            for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let h = spec.full_fmem_hit_ratio((pct * 32.0 * GIB as f64) as u64);
                let max = spec.max_load(h);
                assert!(max > prev, "{} at {pct}", spec.name);
                prev = max;
            }
        }
    }

    #[test]
    fn p99_knee_behaviour() {
        let redis = LcSpec::redis();
        let h = redis.full_fmem_hit_ratio(32 * GIB);
        let max = redis.max_load(h);
        // Below the knee: comfortably within SLO.
        assert!(redis.p99(0.5 * max, h) < redis.slo_secs * 0.5);
        // Beyond the knee: violation.
        assert!(redis.p99(1.05 * max, h) > redis.slo_secs);
    }

    #[test]
    fn with_cores_scales_capacity() {
        let m1 = LcSpec::memcached();
        let m2 = LcSpec::memcached().with_cores(16);
        let h = 1.0;
        assert!(m2.max_load(h) > 1.9 * m1.max_load(h));
    }

    #[test]
    fn uniform_pattern_for_all_lc() {
        for (spec, ..) in table1() {
            assert_eq!(spec.pattern, AccessPattern::Uniform, "{}", spec.name);
        }
    }

    #[test]
    fn accesses_scale_with_load() {
        let r = LcSpec::redis();
        assert!((r.accesses_per_sec(1000.0) - 82_000.0).abs() < 1e-9);
    }

    #[test]
    fn all_paper_workloads_has_four() {
        let v = LcSpec::all_paper_workloads();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].name, "redis");
        assert_eq!(v[3].name, "silo");
    }
}
