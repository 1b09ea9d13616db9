//! Offered-load schedules for LC workloads.
//!
//! The paper drives each LC server with a time-varying fraction of its
//! maximum load. [`LoadPattern::fig7`] reproduces Figure 7: "the load
//! starts at 20 % of Max Load, increases to 100 % in increments of 20 %
//! every 20 seconds, and then decreases back to 20 % following the same
//! pattern" — with the peak held long enough that the high-load interval
//! spans the 100–140 s window highlighted in Fig. 5.

/// A piecewise-constant offered-load schedule, as a fraction of the
/// workload's maximum load.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadPattern {
    /// A constant fraction of max load for the whole run.
    Constant(f64),
    /// Explicit steps: `(duration_secs, fraction)` segments played in
    /// order; the final level holds forever.
    Steps(Vec<(f64, f64)>),
}

impl LoadPattern {
    /// The Figure 7 trapezoid: 20 s dwells at 20/40/60/80 %, an 80 s
    /// plateau at 100 % (covering the paper's 100–140 s "high load
    /// interval"), then the mirror-image descent. Total 240 s.
    pub fn fig7() -> Self {
        let mut steps = Vec::new();
        for level in [0.2, 0.4, 0.6, 0.8] {
            steps.push((20.0, level));
        }
        steps.push((80.0, 1.0));
        for level in [0.8, 0.6, 0.4, 0.2] {
            steps.push((20.0, level));
        }
        LoadPattern::Steps(steps)
    }

    /// A staircase over the given levels with equal dwell time each —
    /// used by the Fig. 2 experiment, whose steps are the max throughputs
    /// at FMem {0, 25, 50, 75, 100} %.
    pub fn staircase(levels: &[f64], dwell_secs: f64) -> Self {
        LoadPattern::Steps(levels.iter().map(|&l| (dwell_secs, l)).collect())
    }

    /// A sudden demand surge: `base` load, then an instantaneous jump to
    /// `peak` for `surge_secs`, then back to `base`. This is the "sudden
    /// request surge" scenario the paper's RL partitioner is designed to
    /// absorb (§3.2.1).
    pub fn spike(base: f64, peak: f64, before_secs: f64, surge_secs: f64, after_secs: f64) -> Self {
        LoadPattern::Steps(vec![
            (before_secs, base),
            (surge_secs, peak),
            (after_secs, base),
        ])
    }

    /// The load fraction at time `t_secs` (clamped to the last segment).
    ///
    /// ```
    /// use mtat_workloads::load::LoadPattern;
    /// let p = LoadPattern::fig7();
    /// assert_eq!(p.level_at(10.0), 0.2);
    /// assert_eq!(p.level_at(70.0), 0.8);
    /// assert_eq!(p.level_at(120.0), 1.0);
    /// assert_eq!(p.level_at(230.0), 0.2);
    /// assert_eq!(p.level_at(1e9), 0.2); // holds the final level
    /// ```
    pub fn level_at(&self, t_secs: f64) -> f64 {
        match self {
            LoadPattern::Constant(f) => *f,
            LoadPattern::Steps(steps) => {
                let mut t = t_secs.max(0.0);
                let mut last = steps.last().map(|&(_, l)| l).unwrap_or(0.0);
                for &(dur, level) in steps {
                    if t < dur {
                        return level;
                    }
                    t -= dur;
                    last = level;
                }
                last
            }
        }
    }

    /// Total scheduled duration in seconds (`f64::INFINITY` for
    /// [`LoadPattern::Constant`]).
    pub fn duration_secs(&self) -> f64 {
        match self {
            LoadPattern::Constant(_) => f64::INFINITY,
            LoadPattern::Steps(steps) => steps.iter().map(|&(d, _)| d).sum(),
        }
    }

    /// The highest fraction the schedule ever reaches.
    pub fn peak_level(&self) -> f64 {
        match self {
            LoadPattern::Constant(f) => *f,
            LoadPattern::Steps(steps) => steps.iter().map(|&(_, l)| l).fold(0.0, f64::max),
        }
    }

    /// A compact human-readable description for telemetry ("what load
    /// schedule drove this run" in run-start events and dumps).
    pub fn describe(&self) -> String {
        match self {
            LoadPattern::Constant(f) => format!("constant({:.0}%)", f * 100.0),
            LoadPattern::Steps(steps) => format!(
                "steps({}x, {:.0}s, peak {:.0}%)",
                steps.len(),
                self.duration_secs(),
                self.peak_level() * 100.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape() {
        let p = LoadPattern::fig7();
        assert_eq!(p.duration_secs(), 240.0);
        assert_eq!(p.peak_level(), 1.0);
        // Ascent.
        assert_eq!(p.level_at(0.0), 0.2);
        assert_eq!(p.level_at(25.0), 0.4);
        assert_eq!(p.level_at(45.0), 0.6);
        assert_eq!(p.level_at(65.0), 0.8);
        // Plateau covers the paper's 100-140 s high-load interval.
        for t in [85.0, 100.0, 120.0, 140.0, 155.0] {
            assert_eq!(p.level_at(t), 1.0, "t={t}");
        }
        // Descent mirrors the ascent.
        assert_eq!(p.level_at(165.0), 0.8);
        assert_eq!(p.level_at(185.0), 0.6);
        assert_eq!(p.level_at(205.0), 0.4);
        assert_eq!(p.level_at(225.0), 0.2);
    }

    #[test]
    fn fig7_low_load_outside_highlight() {
        // The paper notes "low-load periods (before 60 seconds and after
        // 180 seconds)".
        let p = LoadPattern::fig7();
        for t in [0.0, 30.0, 59.0] {
            assert!(p.level_at(t) <= 0.6);
        }
        for t in [181.0, 200.0, 239.0] {
            assert!(p.level_at(t) <= 0.6);
        }
    }

    #[test]
    fn constant_holds() {
        let p = LoadPattern::Constant(0.5);
        assert_eq!(p.level_at(0.0), 0.5);
        assert_eq!(p.level_at(1e6), 0.5);
        assert_eq!(p.duration_secs(), f64::INFINITY);
        assert_eq!(p.peak_level(), 0.5);
    }

    #[test]
    fn staircase_steps() {
        let p = LoadPattern::staircase(&[0.1, 0.9], 10.0);
        assert_eq!(p.level_at(5.0), 0.1);
        assert_eq!(p.level_at(15.0), 0.9);
        assert_eq!(p.level_at(100.0), 0.9);
        assert_eq!(p.duration_secs(), 20.0);
    }

    #[test]
    fn negative_time_clamps_to_start() {
        let p = LoadPattern::fig7();
        assert_eq!(p.level_at(-5.0), 0.2);
    }

    #[test]
    fn spike_shape() {
        let p = LoadPattern::spike(0.2, 1.0, 60.0, 40.0, 60.0);
        assert_eq!(p.level_at(30.0), 0.2);
        assert_eq!(p.level_at(61.0), 1.0);
        assert_eq!(p.level_at(99.0), 1.0);
        assert_eq!(p.level_at(101.0), 0.2);
        assert_eq!(p.duration_secs(), 160.0);
        assert_eq!(p.peak_level(), 1.0);
    }

    #[test]
    fn empty_steps_are_zero() {
        let p = LoadPattern::Steps(vec![]);
        assert_eq!(p.level_at(0.0), 0.0);
        assert_eq!(p.peak_level(), 0.0);
        assert_eq!(p.duration_secs(), 0.0);
    }
}
