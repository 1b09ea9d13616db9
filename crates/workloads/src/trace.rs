//! Sampled load traces.
//!
//! [`LoadTrace`] holds a load level sampled at a fixed period, with
//! linear interpolation between samples — the natural representation
//! for recorded production traffic or synthetic diurnal curves. A trace
//! converts into a piecewise-constant [`LoadPattern`] at any step size
//! for use with the simulation driver.

use crate::load::LoadPattern;

/// A load trace: levels (fractions of max load) sampled every
/// `sample_secs`, linearly interpolated in between.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    sample_secs: f64,
    levels: Vec<f64>,
}

impl LoadTrace {
    /// Creates a trace from samples taken every `sample_secs`.
    ///
    /// # Panics
    ///
    /// Panics if there are no samples, the period is not positive and
    /// finite, or any level is negative or non-finite.
    pub fn new(sample_secs: f64, levels: Vec<f64>) -> Self {
        assert!(
            sample_secs.is_finite() && sample_secs > 0.0,
            "sample period must be positive"
        );
        assert!(!levels.is_empty(), "trace needs at least one sample");
        assert!(
            levels.iter().all(|l| l.is_finite() && *l >= 0.0),
            "levels must be finite and non-negative"
        );
        Self {
            sample_secs,
            levels,
        }
    }

    /// A synthetic diurnal curve: a raised cosine oscillating between
    /// `low` and `high` with the given period, sampled `samples` times
    /// per period for `periods` periods. Peak at mid-period.
    pub fn diurnal(low: f64, high: f64, period_secs: f64, samples: usize, periods: usize) -> Self {
        assert!(samples >= 2, "need at least two samples per period");
        let n = samples * periods;
        let levels = (0..n)
            .map(|i| {
                let phase = (i % samples) as f64 / samples as f64;
                let c = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
                low + (high - low) * c
            })
            .collect();
        Self::new(period_secs / samples as f64, levels)
    }

    /// Trace duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.sample_secs * self.levels.len() as f64
    }

    /// The interpolated level at `t_secs` (clamped to the ends).
    pub fn level_at(&self, t_secs: f64) -> f64 {
        if self.levels.len() == 1 {
            return self.levels[0];
        }
        let pos = (t_secs / self.sample_secs).clamp(0.0, (self.levels.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(self.levels.len() - 1);
        let frac = pos - lo as f64;
        self.levels[lo] * (1.0 - frac) + self.levels[hi] * frac
    }

    /// Peak level in the trace.
    pub fn peak_level(&self) -> f64 {
        self.levels.iter().cloned().fold(0.0, f64::max)
    }

    /// Converts to a piecewise-constant [`LoadPattern`] with steps of
    /// `step_secs` (each step takes the interpolated level at its
    /// midpoint).
    ///
    /// # Panics
    ///
    /// Panics if `step_secs` is not positive and finite.
    pub fn to_pattern(&self, step_secs: f64) -> LoadPattern {
        assert!(
            step_secs.is_finite() && step_secs > 0.0,
            "step must be positive"
        );
        let n = (self.duration_secs() / step_secs).ceil().max(1.0) as usize;
        let steps = (0..n)
            .map(|i| {
                let mid = (i as f64 + 0.5) * step_secs;
                (step_secs, self.level_at(mid))
            })
            .collect();
        LoadPattern::Steps(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_between_samples() {
        let t = LoadTrace::new(10.0, vec![0.0, 1.0, 0.5]);
        assert_eq!(t.level_at(0.0), 0.0);
        assert!((t.level_at(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(t.level_at(10.0), 1.0);
        assert!((t.level_at(15.0) - 0.75).abs() < 1e-12);
        // Clamped past the end.
        assert_eq!(t.level_at(1e6), 0.5);
        assert_eq!(t.duration_secs(), 30.0);
        assert_eq!(t.peak_level(), 1.0);
    }

    #[test]
    fn single_sample_is_constant() {
        let t = LoadTrace::new(1.0, vec![0.7]);
        assert_eq!(t.level_at(0.0), 0.7);
        assert_eq!(t.level_at(100.0), 0.7);
    }

    #[test]
    fn diurnal_shape() {
        let t = LoadTrace::diurnal(0.2, 1.0, 100.0, 20, 2);
        // Trough at phase 0, peak at mid-period.
        assert!((t.level_at(0.0) - 0.2).abs() < 1e-9);
        assert!((t.level_at(50.0) - 1.0).abs() < 0.05);
        assert!((t.level_at(100.0) - 0.2).abs() < 0.05);
        assert!((t.level_at(150.0) - 1.0).abs() < 0.05);
        assert_eq!(t.duration_secs(), 200.0);
        // Bounded by [low, high].
        for i in 0..200 {
            let l = t.level_at(i as f64);
            assert!((0.2..=1.0 + 1e-9).contains(&l), "t={i}: {l}");
        }
    }

    #[test]
    fn to_pattern_tracks_trace() {
        let t = LoadTrace::diurnal(0.1, 0.9, 120.0, 12, 1);
        let p = t.to_pattern(5.0);
        assert_eq!(p.duration_secs(), 120.0);
        for probe in [10.0, 30.0, 60.0, 90.0] {
            let diff = (p.level_at(probe) - t.level_at(probe)).abs();
            assert!(
                diff < 0.15,
                "t={probe}: pattern {} vs trace {}",
                p.level_at(probe),
                t.level_at(probe)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        let _ = LoadTrace::new(1.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_level_panics() {
        let _ = LoadTrace::new(1.0, vec![0.5, -0.1]);
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn bad_period_panics() {
        let _ = LoadTrace::new(0.0, vec![0.5]);
    }
}
