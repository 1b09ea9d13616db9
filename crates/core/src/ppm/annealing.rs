//! Simulated-annealing search over FMem allocations (Algorithm 2).
//!
//! PP-M distributes the FMem left over after the LC reservation among BE
//! workloads by maximizing a performance-degradation objective `P(M)`
//! (in MTAT, the minimum normalized performance `min_i NP_i`). The
//! search starts from an even split, repeatedly shifts ±1 GB between a
//! random pair of workloads, accepts improving moves unconditionally and
//! worsening moves with probability `exp(ΔP/T)`, and cools `T` by a
//! factor `γ` per iteration, remembering the best allocation seen.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters of the annealing search.
#[derive(Debug, Clone)]
pub struct AnnealingConfig {
    /// Initial temperature `T₀`.
    pub t0: f64,
    /// Geometric cooling factor `γ ∈ (0, 1)`.
    pub gamma: f64,
    /// Stop once `T` falls below this.
    pub threshold: f64,
    /// Hard iteration cap `iter_max`.
    pub iter_max: usize,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        Self {
            t0: 0.1,
            gamma: 0.995,
            threshold: 1e-4,
            iter_max: 2000,
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingResult {
    /// Best allocation found (units per workload; sums to the input sum).
    pub best: Vec<u64>,
    /// Objective value of `best`.
    pub best_score: f64,
    /// Iterations actually executed.
    pub iterations: usize,
}

/// Maximizes `objective` over allocations of indivisible units (1 GB in
/// the paper) across `initial.len()` workloads, preserving the total.
///
/// `objective` is called on candidate allocations and must return a
/// finite score (higher is better).
///
/// # Panics
///
/// Panics if `initial` is empty.
pub fn anneal<F>(
    initial: &[u64],
    mut objective: F,
    cfg: &AnnealingConfig,
    seed: u64,
) -> AnnealingResult
where
    F: FnMut(&[u64]) -> f64,
{
    assert!(!initial.is_empty(), "annealing needs at least one workload");
    let n = initial.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = initial.to_vec();
    let mut current_score = objective(&current);
    let mut best = current.clone();
    let mut best_score = current_score;
    let mut temp = cfg.t0;
    let mut iter = 0;

    // A single workload (or zero temperature budget) leaves nothing to do.
    if n >= 2 {
        while iter < cfg.iter_max && temp > cfg.threshold {
            // Randomly select distinct i, j and a ±1 unit shift.
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let delta: i64 = if rng.gen::<bool>() { 1 } else { -1 };
            // M'_i = M_i + Δm, M'_j = M_j − Δm; skip infeasible moves.
            let (gain, lose) = if delta > 0 { (i, j) } else { (j, i) };
            iter += 1;
            temp *= cfg.gamma;
            if current[lose] == 0 {
                continue;
            }
            current[gain] += 1;
            current[lose] -= 1;
            let new_score = objective(&current);
            let dp = new_score - current_score;
            if dp > 0.0 || rng.gen::<f64>() < (dp / temp).exp() {
                current_score = new_score;
                if current_score > best_score {
                    best_score = current_score;
                    best = current.clone();
                }
            } else {
                // Revert the rejected move.
                current[gain] -= 1;
                current[lose] += 1;
            }
        }
    }

    AnnealingResult {
        best,
        best_score,
        iterations: iter,
    }
}

/// Builds the even initial split of Algorithm 2:
/// `M_i = (M_total − M_LC) / n`, with the integer remainder handed to
/// the first workloads one unit each.
pub fn even_split(total_units: u64, n: usize) -> Vec<u64> {
    assert!(n > 0, "need at least one workload");
    let base = total_units / n as u64;
    let rem = (total_units % n as u64) as usize;
    (0..n).map(|i| base + if i < rem { 1 } else { 0 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_conserves_total() {
        assert_eq!(even_split(10, 3), vec![4, 3, 3]);
        assert_eq!(even_split(9, 3), vec![3, 3, 3]);
        assert_eq!(even_split(2, 4), vec![1, 1, 0, 0]);
        let v = even_split(31, 4);
        assert_eq!(v.iter().sum::<u64>(), 31);
    }

    #[test]
    fn total_units_preserved_by_search() {
        let init = even_split(16, 4);
        let res = anneal(&init, |m| -(m[0] as f64), &AnnealingConfig::default(), 1);
        assert_eq!(res.best.iter().sum::<u64>(), 16);
    }

    #[test]
    fn finds_corner_optimum() {
        // Objective: all units to workload 0.
        let init = even_split(12, 3);
        let res = anneal(&init, |m| m[0] as f64, &AnnealingConfig::default(), 2);
        assert!(res.best[0] >= 11, "best {:?}", res.best);
    }

    #[test]
    fn finds_balanced_optimum() {
        // Objective: maximize the minimum (pure fairness) with asymmetric
        // weights — optimum shifts units toward the weaker workload.
        let weights = [1.0, 2.0, 4.0];
        let init = even_split(14, 3);
        let res = anneal(
            &init,
            |m| {
                m.iter()
                    .zip(weights)
                    .map(|(&u, w)| u as f64 * w)
                    .fold(f64::INFINITY, f64::min)
            },
            &AnnealingConfig::default(),
            3,
        );
        // Ideal continuous solution: u ∝ 1/w → 8, 4, 2.
        assert!(res.best[0] >= 7, "{:?}", res.best);
        assert!(res.best[2] <= 3, "{:?}", res.best);
        assert!(res.best_score >= 7.0);
    }

    #[test]
    fn never_goes_negative() {
        let init = vec![1, 0, 0];
        let res = anneal(&init, |m| m[2] as f64, &AnnealingConfig::default(), 4);
        assert!(res.best.iter().all(|&u| u <= 1));
        assert_eq!(res.best.iter().sum::<u64>(), 1);
    }

    #[test]
    fn respects_iteration_cap_and_threshold() {
        let cfg = AnnealingConfig {
            t0: 1.0,
            gamma: 0.5,
            threshold: 0.1,
            iter_max: 1000,
        };
        // T: 1.0 -> below 0.1 after 4 halvings (0.0625 on iter 4).
        let res = anneal(&even_split(4, 2), |_| 0.0, &cfg, 5);
        assert!(res.iterations <= 5, "{}", res.iterations);

        let cfg2 = AnnealingConfig {
            iter_max: 7,
            gamma: 0.999999,
            ..AnnealingConfig::default()
        };
        let res2 = anneal(&even_split(4, 2), |_| 0.0, &cfg2, 5);
        assert_eq!(res2.iterations, 7);
    }

    #[test]
    fn single_workload_is_identity() {
        let res = anneal(&[5], |m| m[0] as f64, &AnnealingConfig::default(), 0);
        assert_eq!(res.best, vec![5]);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let init = even_split(20, 4);
        let f = |m: &[u64]| m.iter().map(|&u| (u as f64).sqrt()).sum::<f64>();
        let a = anneal(&init, f, &AnnealingConfig::default(), 42);
        let b = anneal(&init, f, &AnnealingConfig::default(), 42);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn escapes_local_optima_with_temperature() {
        // A deceptive objective with a local trap at the even split:
        // score is high at even split, zero nearby, highest at corner.
        let init = even_split(8, 2);
        let f = |m: &[u64]| {
            if m[0] == 8 {
                10.0
            } else if m[0] == 4 {
                1.0
            } else {
                0.0
            }
        };
        let cfg = AnnealingConfig {
            t0: 2.0,
            gamma: 0.999,
            threshold: 1e-6,
            iter_max: 5000,
        };
        // With enough temperature the walk crosses the zero plateau.
        let res = anneal(&init, f, &cfg, 11);
        assert!(res.best_score >= 10.0, "stuck at {:?}", res.best);
    }
}
