//! Memory-bandwidth contention model.
//!
//! The paper's Discussion (§7) sketches *bandwidth-aware* extensions:
//! when the fast tier's channels saturate, its effective access latency
//! rises and can even exceed the slow tier's, so placement should adapt.
//! The base evaluation sidesteps this (server-grade machines have
//! 6–8 channels ≈ 200 GB/s against ~4 GB/s of migration traffic), which
//! is exactly what [`BandwidthModel::paper_scale`] encodes: capacities
//! high enough that contention is negligible.
//!
//! [`BandwidthModel::constrained`] models a bandwidth-starved
//! configuration (a single DDR4-3200 channel, as in the paper's §5.5
//! overhead discussion) where the extension matters: the simulation
//! driver inflates each tier's access latency by an M/M/1-style
//! queueing factor of its utilization, and the `ext_bandwidth_aware`
//! experiment shows placement adapting.

use crate::error::TierMemError;

/// Bytes transferred per DRAM access (one cache line).
pub const CACHE_LINE_BYTES: f64 = 64.0;

/// Per-tier bandwidth capacities and the latency-inflation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Fast-tier bandwidth capacity (bytes/second).
    pub fmem_bytes_per_sec: f64,
    /// Slow-tier bandwidth capacity (bytes/second).
    pub smem_bytes_per_sec: f64,
    /// Cap on the latency-inflation multiplier (keeps the model finite
    /// when demand exceeds capacity).
    pub max_multiplier: f64,
}

impl BandwidthModel {
    /// Creates a model with explicit capacities.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if a capacity is not
    /// strictly positive and finite or the cap is below 1.
    pub fn new(
        fmem_bytes_per_sec: f64,
        smem_bytes_per_sec: f64,
        max_multiplier: f64,
    ) -> Result<Self, TierMemError> {
        for (name, v) in [
            ("fmem_bytes_per_sec", fmem_bytes_per_sec),
            ("smem_bytes_per_sec", smem_bytes_per_sec),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(TierMemError::InvalidConfig {
                    what: "bandwidth capacity",
                    detail: format!("{name} must be positive and finite, got {v}"),
                });
            }
        }
        if !(max_multiplier.is_finite() && max_multiplier >= 1.0) {
            return Err(TierMemError::InvalidConfig {
                what: "max_multiplier",
                detail: format!("must be >= 1, got {max_multiplier}"),
            });
        }
        Ok(Self {
            fmem_bytes_per_sec,
            smem_bytes_per_sec,
            max_multiplier,
        })
    }

    /// Server-grade capacities (§5.5: "6 to 8 memory channels,
    /// approximately 200 GB/s"); CXL-style slow tier at 60 GB/s.
    /// Contention is negligible at the paper's traffic volumes.
    pub fn paper_scale() -> Self {
        Self::new(200e9, 60e9, 10.0).expect("valid paper-scale bandwidth")
    }

    /// A bandwidth-starved configuration: one DDR4-3200 channel
    /// (25.6 GB/s) for the fast tier, 12 GB/s for the slow tier —
    /// the regime where the §7 bandwidth-aware extension matters.
    pub fn constrained() -> Self {
        Self::new(25.6e9, 12e9, 10.0).expect("valid constrained bandwidth")
    }

    /// Utilization of a tier given total demand (bytes/second), clamped
    /// to `[0, 1]`.
    pub fn utilization(&self, demand_bytes_per_sec: f64, fast_tier: bool) -> f64 {
        let cap = if fast_tier {
            self.fmem_bytes_per_sec
        } else {
            self.smem_bytes_per_sec
        };
        (demand_bytes_per_sec / cap).clamp(0.0, 1.0)
    }

    /// M/M/1-style latency-inflation multiplier at utilization `u`:
    /// `1/(1 − u)`, capped at [`Self::max_multiplier`].
    ///
    /// ```
    /// use mtat_tiermem::bandwidth::BandwidthModel;
    /// let m = BandwidthModel::paper_scale();
    /// assert_eq!(m.latency_multiplier(0.0), 1.0);
    /// assert!((m.latency_multiplier(0.5) - 2.0).abs() < 1e-12);
    /// assert_eq!(m.latency_multiplier(1.0), 10.0); // capped
    /// ```
    pub fn latency_multiplier(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        if u >= 1.0 {
            return self.max_multiplier;
        }
        (1.0 / (1.0 - u)).min(self.max_multiplier)
    }

    /// Converts an access rate (accesses/second) to bandwidth demand
    /// (bytes/second) at cache-line granularity.
    pub fn demand_from_access_rate(access_rate: f64) -> f64 {
        access_rate.max(0.0) * CACHE_LINE_BYTES
    }
}

impl Default for BandwidthModel {
    fn default() -> Self {
        Self::paper_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(BandwidthModel::new(0.0, 1.0, 2.0).is_err());
        assert!(BandwidthModel::new(1.0, -1.0, 2.0).is_err());
        assert!(BandwidthModel::new(1.0, 1.0, 0.5).is_err());
        assert!(BandwidthModel::new(1.0, 1.0, f64::NAN).is_err());
        assert!(BandwidthModel::new(1e9, 1e9, 5.0).is_ok());
    }

    #[test]
    fn utilization_clamps() {
        let m = BandwidthModel::new(100.0, 50.0, 10.0).unwrap();
        assert_eq!(m.utilization(50.0, true), 0.5);
        assert_eq!(m.utilization(25.0, false), 0.5);
        assert_eq!(m.utilization(1e9, true), 1.0);
        assert_eq!(m.utilization(-5.0, true), 0.0);
    }

    #[test]
    fn multiplier_shape() {
        let m = BandwidthModel::paper_scale();
        assert_eq!(m.latency_multiplier(0.0), 1.0);
        assert!(m.latency_multiplier(0.9) > m.latency_multiplier(0.5));
        assert_eq!(m.latency_multiplier(0.999999), 10.0);
        assert_eq!(m.latency_multiplier(2.0), 10.0);
        assert_eq!(m.latency_multiplier(-1.0), 1.0);
    }

    #[test]
    fn paper_scale_is_effectively_uncontended() {
        // The paper's traffic: ~30M accesses/s ≈ 2 GB/s against 200 GB/s.
        let m = BandwidthModel::paper_scale();
        let demand = BandwidthModel::demand_from_access_rate(30e6);
        let mult = m.latency_multiplier(m.utilization(demand, true));
        assert!(mult < 1.02, "multiplier {mult}");
    }

    #[test]
    fn constrained_is_contended() {
        // The same traffic on a single channel matters.
        let m = BandwidthModel::constrained();
        let demand = BandwidthModel::demand_from_access_rate(300e6);
        let util = m.utilization(demand, true);
        assert!(util > 0.5, "util {util}");
        assert!(m.latency_multiplier(util) > 2.0);
    }

    #[test]
    fn demand_conversion() {
        assert_eq!(BandwidthModel::demand_from_access_rate(1.0), 64.0);
        assert_eq!(BandwidthModel::demand_from_access_rate(-1.0), 0.0);
    }
}
