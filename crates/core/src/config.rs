//! Simulation configuration.

use mtat_tiermem::bandwidth::BandwidthModel;
use mtat_tiermem::memory::MemorySpec;
use mtat_tiermem::{GIB, MIB};

/// Global configuration of a co-location experiment.
///
/// Defaults reproduce the paper's testbed (§5): 32 GiB FMem, 256 GiB
/// SMem, 73/202 ns tier latencies (baked into the workload models),
/// ~4 GB/s of migration bandwidth (§5.5), and PEBS-style sampling.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Tier capacities and page size.
    pub mem: MemorySpec,
    /// Migration bandwidth `M` in bytes/second (paper measures ~4 GB/s
    /// consumed during partition replacement).
    pub migration_bw: f64,
    /// Simulation tick in seconds (performance is evaluated, accesses
    /// sampled, and migration budget granted per tick).
    pub tick_secs: f64,
    /// Partitioning-policy update interval `t` in seconds. The paper's
    /// prototype updates once per minute; the simulator defaults to 5 s
    /// so that a 240 s Fig.-5 run contains enough decision points to
    /// track the 20 s load steps (`ablation_interval` sweeps this: 5 s
    /// more than halves the transient violations of 10 s, and 60 s —
    /// the paper's cadence — leaves only four decisions per run).
    pub interval_secs: f64,
    /// PEBS-like sampling period (true accesses per sampled event).
    pub sampler_period: f64,
    /// Log-normal burstiness of instantaneous LC load: each tick's
    /// offered load is multiplied by `exp(N(-σ²/2, σ))` (mean 1). Zero
    /// disables bursts. Bursts are what make thin FMem headroom visible
    /// as tail-latency SLO violations (Table 4) rather than a knife-edge.
    pub burst_sigma: f64,
    /// RNG seed for the whole experiment (sampling, bursts, policies).
    pub seed: u64,
    /// Per-tier bandwidth capacities and latency-inflation model (§7
    /// extension). The default is uncontended at the paper's traffic.
    pub bandwidth: BandwidthModel,
}

impl SimConfig {
    /// Paper-scale defaults.
    pub fn paper() -> Self {
        Self {
            mem: MemorySpec::paper_scale(),
            migration_bw: 4.0 * GIB as f64,
            tick_secs: 1.0,
            interval_secs: 5.0,
            sampler_period: 1009.0,
            burst_sigma: 0.10,
            seed: 0xC0FFEE,
            bandwidth: BandwidthModel::paper_scale(),
        }
    }

    /// A small configuration (1 GiB FMem / 8 GiB SMem, 1 MiB pages) for
    /// fast unit and integration tests.
    pub fn small_test() -> Self {
        Self {
            mem: MemorySpec::new(GIB, 8 * GIB, MIB).expect("valid small spec"),
            migration_bw: 1.0 * GIB as f64,
            tick_secs: 1.0,
            interval_secs: 5.0,
            sampler_period: 101.0,
            burst_sigma: 0.0,
            seed: 7,
            bandwidth: BandwidthModel::paper_scale(),
        }
    }

    /// Number of ticks per partitioning interval (at least 1).
    pub fn ticks_per_interval(&self) -> u64 {
        ((self.interval_secs / self.tick_secs).round() as u64).max(1)
    }

    /// Returns a copy with a different seed (for repeated trials).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy without load burstiness (deterministic queueing).
    pub fn without_bursts(mut self) -> Self {
        self.burst_sigma = 0.0;
        self
    }

    /// Returns a copy with a bandwidth-starved memory system
    /// ([`BandwidthModel::constrained`]) for the §7 extension studies.
    pub fn with_constrained_bandwidth(mut self) -> Self {
        self.bandwidth = BandwidthModel::constrained();
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper();
        assert_eq!(c.mem.fmem_bytes(), 32 * GIB);
        assert_eq!(c.mem.smem_bytes(), 256 * GIB);
        assert_eq!(c.ticks_per_interval(), 5);
    }

    #[test]
    fn with_seed_and_without_bursts() {
        let c = SimConfig::paper().with_seed(9).without_bursts();
        assert_eq!(c.seed, 9);
        assert_eq!(c.burst_sigma, 0.0);
    }

    #[test]
    fn constrained_bandwidth_helper() {
        let c = SimConfig::paper().with_constrained_bandwidth();
        assert!(c.bandwidth.fmem_bytes_per_sec < 30e9);
        // Paper-scale default is effectively uncontended.
        let d = SimConfig::paper();
        assert!(d.bandwidth.fmem_bytes_per_sec >= 100e9);
    }

    #[test]
    fn ticks_per_interval_is_at_least_one() {
        let mut c = SimConfig::small_test();
        c.interval_secs = 0.1;
        c.tick_secs = 1.0;
        assert_eq!(c.ticks_per_interval(), 1);
    }
}
