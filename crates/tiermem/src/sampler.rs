//! PEBS-like probabilistic access sampling.
//!
//! MTAT's PP-E does not see every memory access: it samples
//! `MEM_LOAD_L3_MISS_RETIRED.{LOCAL,REMOTE}_DRAM` and
//! `MEM_INST_RETIRED.ALL_STORES` events through Intel PEBS with a
//! configurable period (§4). The simulator reproduces the same
//! information loss: given the *true* number of accesses a page received
//! in a tick, [`AccessSampler`] returns the number of sampled events, a
//! Poisson draw with mean `true_count / period`.
//!
//! Policies therefore operate on noisy, thinned counts exactly as the
//! real daemon does — undersampling cold pages to zero and occasionally
//! over-ranking lukewarm ones.

use std::hint::black_box;

use mtat_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::TierMemError;

/// One slot of the Walker alias decomposition: a fixed-point threshold
/// and the alias rank events above the threshold are redirected to.
/// Interleaved so each event draw touches exactly one 8-byte entry.
#[derive(Debug, Clone, Copy)]
struct AliasSlot {
    thresh: u32,
    alias: u32,
}

/// Precomputed weight table for the batched weighted sampling path:
/// per-rank access weights in non-increasing (hottest-first) order,
/// prefix sums, and a Walker alias table so scattering an aggregated
/// batch draw over the ranks costs O(1) per event — one RNG draw whose
/// high bits pick the slot and whose low bits decide slot vs. alias.
///
/// Build one per workload (e.g. from a `Popularity`) and reuse it across
/// ticks; construction is O(n), event lookups are O(1).
#[derive(Debug, Clone)]
pub struct WeightTable {
    weights: Vec<f64>,
    /// `prefix[k]` = sum of `weights[..k]`; length `n + 1`.
    prefix: Vec<f64>,
    /// Walker/Vose alias decomposition of the normalized weights.
    alias: Vec<AliasSlot>,
}

impl WeightTable {
    /// Builds a table from non-increasing, non-negative, finite weights
    /// (rank 0 = hottest, matching `Popularity` ordering).
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if any weight is negative
    /// or non-finite, or the sequence increases anywhere — rank order is
    /// hotness order everywhere a table is consumed.
    pub fn new(weights: &[f64]) -> Result<Self, TierMemError> {
        let mut prev = f64::INFINITY;
        for &w in weights {
            if w > prev {
                return Err(TierMemError::InvalidConfig {
                    what: "weight table",
                    detail: "weights must be non-increasing (hottest first)".to_string(),
                });
            }
            if w.is_finite() {
                prev = w;
            }
        }
        Self::new_unsorted(weights)
    }

    /// Builds a table from non-negative, finite weights in *arbitrary*
    /// rank order. The alias decomposition and prefix sums are
    /// order-agnostic, so sampling is exact either way; this constructor
    /// exists for scenario-mutated distributions (rotated hot sets,
    /// leaked prefixes) where rank identity must be preserved and rank
    /// order is deliberately not hotness order.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if any weight is negative
    /// or non-finite.
    pub fn new_unsorted(weights: &[f64]) -> Result<Self, TierMemError> {
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(TierMemError::InvalidConfig {
                    what: "weight table",
                    detail: format!("weights must be finite and non-negative, got {w}"),
                });
            }
            acc += w;
            prefix.push(acc);
        }
        let alias = build_alias(weights, acc);
        Ok(Self {
            weights: weights.to_vec(),
            prefix,
            alias,
        })
    }

    /// Number of pages covered by the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the table covers zero pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total weight mass (1.0 for normalized distributions).
    #[inline]
    pub fn total(&self) -> f64 {
        *self.prefix.last().expect("prefix is never empty")
    }

    /// Per-rank weights, hottest first.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The alias-slot index the high bits of draw `r` select
    /// (multiply-shift); stage-1 of the pipelined scatter prefetches
    /// this slot before [`Self::event_rank`] reads it.
    #[inline]
    fn slot_index(&self, r: u64) -> usize {
        (((r >> 32) * self.alias.len() as u64) >> 32) as usize
    }

    /// Maps one 64-bit uniform draw to a rank, distributed proportionally
    /// to the table weights. The high 32 bits pick an alias slot by
    /// multiply-shift; the low 32 bits are the fixed-point coin deciding
    /// slot vs. alias. O(1), one 8-byte table access per event.
    ///
    /// The coin is resolved by a mask, not a branch: on mixed slots it
    /// is a fair random bit, so a branch mispredicts about every other
    /// event. `black_box` hides the mask's origin from LLVM, whose x86
    /// cmov-conversion pass would otherwise turn the select back into a
    /// conditional jump.
    #[inline]
    fn event_rank(&self, r: u64) -> usize {
        let j = self.slot_index(r);
        debug_assert!(j < self.alias.len());
        // SAFETY: `(x >> 32) * n >> 32 < n` for any 32-bit `x >> 32`.
        let slot = unsafe { *self.alias.get_unchecked(j) };
        let to_alias = black_box(usize::from(r as u32 >= slot.thresh)).wrapping_neg();
        (j & !to_alias) | (slot.alias as usize & to_alias)
    }
}

/// Builds the Walker/Vose alias decomposition of `weights` (total mass
/// `total`). Quantizing thresholds to 32 fixed-point bits perturbs each
/// rank's probability by at most 2⁻³², far below every statistical
/// tolerance in this crate. Ranks left over by floating-point residue
/// carry probability ≈ 1/n and keep themselves as alias.
fn build_alias(weights: &[f64], total: f64) -> Vec<AliasSlot> {
    let n = weights.len();
    if n == 0 || total <= 0.0 {
        return Vec::new();
    }
    let mut scaled: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    let mut slots = vec![
        AliasSlot {
            thresh: u32::MAX,
            alias: 0,
        };
        n
    ];
    while let (Some(s), Some(l)) = (small.pop(), large.last().copied()) {
        large.pop();
        slots[s as usize] = AliasSlot {
            thresh: ((scaled[s as usize] * 4_294_967_296.0) as u64).min(u32::MAX as u64) as u32,
            alias: l,
        };
        scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
        if scaled[l as usize] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    for &i in large.iter().chain(small.iter()) {
        slots[i as usize] = AliasSlot {
            thresh: u32::MAX,
            alias: i,
        };
    }
    slots
}

/// Events per pipelined-scatter chunk: enough to cover the prefetch
/// latency, small enough to stay register/L1-resident.
const SCATTER_CHUNK: usize = 64;

/// Best-effort cache-line prefetch — the pipelined scatter loops hide
/// the alias-table and estimate-buffer miss latency behind the RNG
/// work of later events. A no-op on non-x86 targets. Callers pass
/// `as_ptr().wrapping_add(i)` rather than `&slice[i]`: any address is
/// allowed, so a bounds check would only add instructions per event.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects; any address is allowed.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Dirty-rank bitset over a sampled-estimate buffer: one bit per rank,
/// set for every rank the sampler scattered at least one event into
/// this tick. Consumers (the hotness tracker) iterate set bits instead
/// of walking every page, and the sampler itself zeroes only the
/// previously-touched words instead of the whole buffer — the per-tick
/// cost becomes O(events), not O(pages).
///
/// The conservative fallback is *all-dirty* ([`TouchedSet::default`]):
/// a buffer whose touched-set provenance is unknown (legacy accounting,
/// hand-built observations in tests) is treated as entirely dirty, so
/// dense iteration semantics are preserved exactly.
#[derive(Debug)]
pub struct TouchedSet {
    words: Vec<u64>,
    all: bool,
}

impl Clone for TouchedSet {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            all: self.all,
        }
    }

    /// Reuses the destination's word buffer — the staleness-view copy
    /// runs every tick and must not allocate.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.all = source.all;
    }
}

impl Default for TouchedSet {
    /// All-dirty: every rank is considered touched until a batched
    /// sampler pass takes ownership of the buffer.
    fn default() -> Self {
        Self {
            words: Vec::new(),
            all: true,
        }
    }
}

impl TouchedSet {
    /// Whether the set is in the dense all-dirty fallback state.
    #[inline]
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Forces the dense all-dirty fallback (used by code paths that
    /// write estimate buffers without tracking ranks).
    #[inline]
    pub fn set_all(&mut self) {
        self.all = true;
    }

    /// Marks rank `i` touched. The set must have been sized by
    /// [`TouchedSet::reset`] first.
    #[inline]
    fn set(&mut self, i: usize) {
        debug_assert!(i >> 6 < self.words.len());
        // SAFETY: `reset` sized `words` to cover every rank of the
        // buffer, and callers only pass in-buffer ranks (the scatter
        // loops draw them from `gen_range(0..n)` / the alias table).
        unsafe {
            *self.words.get_unchecked_mut(i >> 6) |= 1u64 << (i & 63);
        }
    }

    /// Zeroes exactly the buffer entries recorded as touched (or the
    /// whole buffer in the all-dirty state), then resets the set to
    /// empty, sized for `out.len()` ranks. Restores the all-zero buffer
    /// invariant in O(touched) instead of O(pages).
    fn reset(&mut self, out: &mut [u64]) {
        let n_words = out.len().div_ceil(64);
        if self.all || self.words.len() != n_words {
            out.fill(0);
            self.words.clear();
            self.words.resize(n_words, 0);
            self.all = false;
            return;
        }
        for (wi, w) in self.words.iter_mut().enumerate() {
            let mut bits = *w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out[(wi << 6) | b] = 0;
                bits &= bits - 1;
            }
            *w = 0;
        }
    }

    /// Iterates touched ranks in ascending order — the same order a
    /// dense front-to-back walk would visit them, so consumers keyed on
    /// visit order (histogram bin insertion) behave identically. Must
    /// not be called in the all-dirty state.
    pub fn iter_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        debug_assert!(!self.all, "dense fallback has no rank list");
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((wi << 6) | b)
            })
        })
    }
}

/// Thins true access counts down to sampled-event counts.
///
/// ```
/// use mtat_tiermem::sampler::AccessSampler;
///
/// # fn main() -> Result<(), mtat_tiermem::TierMemError> {
/// let mut sampler = AccessSampler::new(64.0, 42)?;
/// let sampled = sampler.sample_count(6400.0);
/// // ~100 events expected; Poisson noise keeps it near that.
/// assert!(sampled > 50 && sampled < 150);
/// // Scale back up to estimate the true count.
/// let estimate = sampler.estimate_from_samples(sampled);
/// assert!((estimate as f64 - 6400.0).abs() < 6400.0 * 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AccessSampler {
    period: f64,
    rng: StdRng,
    /// Fault hook: when set, every sample reads zero (PEBS blackout).
    fault_blackout: bool,
    /// Fault hook: extra event survival fraction in (0, 1]; 1.0 is
    /// nominal. Dropped events thin the Poisson stream exactly as a
    /// longer period would, but the estimator still scales by the
    /// configured period — so estimates read low, as a real daemon's
    /// would when the PMU silently drops records.
    fault_keep: f64,
    /// `scale[k]` = [`scale_up`]`(k, period)`: the period scale-up of
    /// the small event counts nearly every touched rank holds, without
    /// a libm `round` call each (baseline x86-64 has no `roundsd`).
    scale: Box<[u64; SCALE_TABLE_LEN]>,
    /// Telemetry handle (disabled by default; owns no RNG, so it can
    /// never perturb the sample stream).
    obs: Obs,
}

impl AccessSampler {
    /// Creates a sampler that records, on average, one event per `period`
    /// true accesses. A period of 1.0 observes everything (no thinning,
    /// but still Poisson-noisy); larger periods observe less.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if `period < 1.0` or is
    /// not finite.
    pub fn new(period: f64, seed: u64) -> Result<Self, TierMemError> {
        if !(period.is_finite() && period >= 1.0) {
            return Err(TierMemError::InvalidConfig {
                what: "sampling period",
                detail: format!("must be finite and >= 1, got {period}"),
            });
        }
        Ok(Self {
            period,
            rng: StdRng::seed_from_u64(seed),
            fault_blackout: false,
            fault_keep: 1.0,
            scale: Box::new(std::array::from_fn(|k| scale_up(k as u64, period))),
            obs: Obs::disabled(),
        })
    }

    /// Attaches a telemetry handle; the batched sampling paths report
    /// batch/event/blackout counters through it. Sampling output is
    /// bit-identical whether or not a handle is attached.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Fault-injection hook (see [`crate::faults`]): a blackout makes
    /// every sample read zero; `keep < 1.0` drops that fraction of
    /// events on top of the configured period. Call with
    /// `(false, 1.0)` to restore nominal behavior; in that state the
    /// sampler's output and RNG stream are identical to a sampler that
    /// never had faults set.
    pub fn set_fault_state(&mut self, blackout: bool, keep: f64) {
        self.fault_blackout = blackout;
        self.fault_keep = keep.clamp(0.0, 1.0);
    }

    /// The sampling period (true accesses per expected sampled event).
    #[inline]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Samples the number of observed events for a page that truly
    /// received `true_count` accesses: `Poisson(true_count / period)`.
    pub fn sample_count(&mut self, true_count: f64) -> u64 {
        if self.fault_blackout {
            return 0;
        }
        let mean = (true_count.max(0.0)) / self.period * self.fault_keep;
        poisson(&mut self.rng, mean)
    }

    /// Multiplies a sampled event count back up by the period to estimate
    /// the true access count, as the kernel daemon does when populating
    /// per-page counters from PEBS records.
    #[inline]
    pub fn estimate_from_samples(&self, sampled: u64) -> u64 {
        if sampled < SCALE_TABLE_LEN as u64 {
            self.scale[sampled as usize]
        } else {
            scale_up(sampled, self.period)
        }
    }

    /// Convenience: samples a whole per-page count vector in place,
    /// returning estimated true counts (sampled × period).
    pub fn sample_estimates(&mut self, true_counts: &[f64]) -> Vec<u64> {
        true_counts
            .iter()
            .map(|&c| {
                let s = self.sample_count(c);
                self.estimate_from_samples(s)
            })
            .collect()
    }

    /// Batched uniform path: fills `out` with sampled event counts for
    /// `out.len()` pages that each truly received `per_page_true`
    /// accesses. Distributionally identical to one [`Self::sample_count`]
    /// per page — n iid Poisson draws equal one aggregate
    /// `Poisson(n · mean)` draw scattered uniformly (Poisson splitting) —
    /// but costs O(events) RNG work instead of O(pages) Poisson draws.
    pub fn sample_uniform_events(&mut self, out: &mut [u64], per_page_true: f64) {
        let _span = self.obs.span_here("sample");
        out.fill(0);
        let n = out.len();
        if self.fault_blackout || n == 0 {
            if self.fault_blackout {
                self.obs.count("tiermem.sampler.blackout_batches", 1);
            }
            return;
        }
        let mean_total = per_page_true.max(0.0) * n as f64 / self.period * self.fault_keep;
        let events = poisson(&mut self.rng, mean_total);
        for _ in 0..events {
            out[self.rng.gen_range(0..n)] += 1;
        }
        self.obs.count("tiermem.sampler.batches", 1);
        self.obs.count("tiermem.sampler.events", events);
    }

    /// [`Self::sample_uniform_events`] followed by the period scale-up of
    /// [`Self::estimate_from_samples`], in place.
    pub fn sample_uniform_estimates(&mut self, out: &mut [u64], per_page_true: f64) {
        self.sample_uniform_events(out, per_page_true);
        self.scale_events_to_estimates(out);
    }

    /// Batched weighted path: fills `out` with sampled event counts for a
    /// workload whose page at rank `r` truly received
    /// `total_true · table.weights()[r]` accesses. One aggregate
    /// `Poisson(total mass)` draw is scattered over the ranks through the
    /// table's Walker alias decomposition — equivalent in distribution to
    /// an independent Poisson draw per page (Poisson splitting: a
    /// Poisson-distributed number of categorical trials yields
    /// independent Poisson counts per category), at O(1) RNG work per
    /// *event* instead of per *page*. Pages whose expected sample count
    /// is negligible are never touched.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != table.len()`.
    pub fn sample_weighted_events(
        &mut self,
        out: &mut [u64],
        total_true: f64,
        table: &WeightTable,
    ) {
        let _span = self.obs.span_here("sample");
        assert_eq!(
            out.len(),
            table.len(),
            "output slice must cover every table rank"
        );
        out.fill(0);
        if self.fault_blackout || out.is_empty() {
            if self.fault_blackout {
                self.obs.count("tiermem.sampler.blackout_batches", 1);
            }
            return;
        }
        // Expected events per unit weight.
        let c = total_true.max(0.0) / self.period * self.fault_keep;
        if c <= 0.0 || table.total() <= 0.0 {
            return;
        }
        let events = poisson(&mut self.rng, table.total() * c);
        for _ in 0..events {
            let r = self.rng.next_u64();
            out[table.event_rank(r)] += 1;
        }
        self.obs.count("tiermem.sampler.batches", 1);
        self.obs.count("tiermem.sampler.events", events);
    }

    /// [`Self::sample_weighted_events`] followed by the period scale-up
    /// of [`Self::estimate_from_samples`], in place.
    pub fn sample_weighted_estimates(
        &mut self,
        out: &mut [u64],
        total_true: f64,
        table: &WeightTable,
    ) {
        self.sample_weighted_events(out, total_true, table);
        self.scale_events_to_estimates(out);
    }

    /// Converts sampled event counts to estimated true counts in place.
    fn scale_events_to_estimates(&self, out: &mut [u64]) {
        for v in out.iter_mut() {
            *v = self.estimate_from_samples(*v);
        }
    }

    /// [`Self::sample_uniform_estimates`] with touched-rank tracking:
    /// `touched` records exactly the ranks that received events, the
    /// buffer is cleared through the set (O(events from last tick), not
    /// O(pages)), and only touched entries are period-scaled. The RNG
    /// stream and the resulting estimates are bit-identical to the
    /// untracked path.
    pub fn sample_uniform_estimates_touched(
        &mut self,
        out: &mut [u64],
        touched: &mut TouchedSet,
        per_page_true: f64,
    ) {
        let _span = self.obs.span_here("sample");
        touched.reset(out);
        let n = out.len();
        if self.fault_blackout || n == 0 {
            if self.fault_blackout {
                self.obs.count("tiermem.sampler.blackout_batches", 1);
            }
            return;
        }
        let mean_total = per_page_true.max(0.0) * n as f64 / self.period * self.fault_keep;
        let events = poisson(&mut self.rng, mean_total);
        // Pipelined scatter: draw a chunk of ranks (prefetching each
        // destination), then apply the increments. The RNG call order
        // and the resulting counts are identical to the one-at-a-time
        // loop — increments within a chunk commute.
        let mut ranks = [0usize; SCATTER_CHUNK];
        let mut left = events as usize;
        while left > 0 {
            let k = left.min(SCATTER_CHUNK);
            for slot in ranks.iter_mut().take(k) {
                let r = self.rng.gen_range(0..n);
                prefetch(out.as_ptr().wrapping_add(r));
                *slot = r;
            }
            for &r in ranks.iter().take(k) {
                debug_assert!(r < out.len());
                // SAFETY: `gen_range(0..n)` with `n == out.len()`.
                unsafe {
                    *out.get_unchecked_mut(r) += 1;
                }
                touched.set(r);
            }
            left -= k;
        }
        self.obs.count("tiermem.sampler.batches", 1);
        self.obs.count("tiermem.sampler.events", events);
        self.scale_touched(out, touched);
    }

    /// [`Self::sample_weighted_estimates`] with touched-rank tracking
    /// (see [`Self::sample_uniform_estimates_touched`]). Bit-identical
    /// output and RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != table.len()`.
    pub fn sample_weighted_estimates_touched(
        &mut self,
        out: &mut [u64],
        touched: &mut TouchedSet,
        total_true: f64,
        table: &WeightTable,
    ) {
        let _span = self.obs.span_here("sample");
        assert_eq!(
            out.len(),
            table.len(),
            "output slice must cover every table rank"
        );
        touched.reset(out);
        if self.fault_blackout || out.is_empty() {
            if self.fault_blackout {
                self.obs.count("tiermem.sampler.blackout_batches", 1);
            }
            return;
        }
        let c = total_true.max(0.0) / self.period * self.fault_keep;
        if c <= 0.0 || table.total() <= 0.0 {
            return;
        }
        let events = poisson(&mut self.rng, table.total() * c);
        // Three-stage pipelined scatter: (1) draw a chunk and prefetch
        // each draw's alias slot, (2) resolve ranks and prefetch each
        // destination, (3) apply the increments. The RNG stream and the
        // resulting counts are identical to the one-at-a-time loop —
        // rank resolution is pure and increments within a chunk
        // commute.
        let mut draws = [0u64; SCATTER_CHUNK];
        let mut ranks = [0usize; SCATTER_CHUNK];
        let mut left = events as usize;
        while left > 0 {
            let k = left.min(SCATTER_CHUNK);
            for slot in draws.iter_mut().take(k) {
                let r = self.rng.next_u64();
                prefetch(table.alias.as_ptr().wrapping_add(table.slot_index(r)));
                *slot = r;
            }
            for i in 0..k {
                let rank = table.event_rank(draws[i]);
                prefetch(out.as_ptr().wrapping_add(rank));
                ranks[i] = rank;
            }
            for &rank in ranks.iter().take(k) {
                debug_assert!(rank < out.len());
                // SAFETY: `event_rank` returns a rank below
                // `table.len()`, which the entry assert pinned to
                // `out.len()`.
                unsafe {
                    *out.get_unchecked_mut(rank) += 1;
                }
                touched.set(rank);
            }
            left -= k;
        }
        self.obs.count("tiermem.sampler.batches", 1);
        self.obs.count("tiermem.sampler.events", events);
        self.scale_touched(out, touched);
    }

    /// Period-scales exactly the touched entries (all nonzero entries
    /// are touched by construction, so untouched entries scale to
    /// themselves and can be skipped).
    fn scale_touched(&self, out: &mut [u64], touched: &TouchedSet) {
        for r in touched.iter_ranks() {
            debug_assert!(r < out.len());
            // SAFETY: the set only holds ranks the scatter loop wrote,
            // all below `out.len()`.
            unsafe {
                let v = out.get_unchecked_mut(r);
                *v = self.estimate_from_samples(*v);
            }
        }
    }
}

/// Entries of [`AccessSampler`]'s scale-up table (2 KiB, L1-resident).
/// Touched ranks mostly hold a handful of events; only the hottest few
/// exceed this and take the computed path.
const SCALE_TABLE_LEN: usize = 256;

/// Estimated true count for `k` sampled events: `k · period`, rounded.
#[inline]
fn scale_up(k: u64, period: f64) -> u64 {
    (k as f64 * period).round() as u64
}

/// Draws from Poisson(mean) — Knuth's method for small means, a normal
/// approximation (clamped at zero) for large means.
fn poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            // Numerical guard: for very small `l`, avoid unbounded loops.
            if k > 1_000 {
                return k;
            }
        }
    } else {
        // Box–Muller normal approximation N(mean, mean).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = mean + mean.sqrt() * z;
        if v < 0.0 {
            0
        } else {
            v.round() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn validation() {
        assert!(AccessSampler::new(0.5, 0).is_err());
        assert!(AccessSampler::new(f64::NAN, 0).is_err());
        assert!(AccessSampler::new(1.0, 0).is_ok());
    }

    #[test]
    fn zero_accesses_sample_zero() {
        let mut s = AccessSampler::new(16.0, 1).unwrap();
        assert_eq!(s.sample_count(0.0), 0);
        assert_eq!(s.sample_count(-5.0), 0);
    }

    #[test]
    fn sampling_is_unbiased_on_average() {
        let mut s = AccessSampler::new(64.0, 7).unwrap();
        let true_count = 640.0; // mean 10 events
        let n = 2000;
        let total: u64 = (0..n).map(|_| s.sample_count(true_count)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn large_mean_uses_normal_approx_sanely() {
        let mut s = AccessSampler::new(2.0, 3).unwrap();
        let true_count = 100_000.0; // mean 50_000
        let v = s.sample_count(true_count);
        assert!(v > 45_000 && v < 55_000, "{v}");
    }

    #[test]
    fn estimate_scales_by_period() {
        let s = AccessSampler::new(64.0, 0).unwrap();
        assert_eq!(s.estimate_from_samples(10), 640);
        assert_eq!(s.period(), 64.0);
    }

    #[test]
    fn sample_estimates_vector() {
        let mut s = AccessSampler::new(1.0, 11).unwrap();
        let ests = s.sample_estimates(&[0.0, 1000.0, 50.0]);
        assert_eq!(ests.len(), 3);
        assert_eq!(ests[0], 0);
        assert!(ests[1] > 800 && ests[1] < 1200);
    }

    #[test]
    fn blackout_reads_zero_and_clears() {
        let mut s = AccessSampler::new(2.0, 5).unwrap();
        s.set_fault_state(true, 1.0);
        for _ in 0..20 {
            assert_eq!(s.sample_count(10_000.0), 0);
        }
        s.set_fault_state(false, 1.0);
        assert!(s.sample_count(10_000.0) > 0);
    }

    #[test]
    fn dropout_thins_the_stream() {
        let mut nominal = AccessSampler::new(4.0, 17).unwrap();
        let mut dropped = AccessSampler::new(4.0, 17).unwrap();
        dropped.set_fault_state(false, 0.25);
        let n = 2000;
        let a: u64 = (0..n).map(|_| nominal.sample_count(400.0)).sum();
        let b: u64 = (0..n).map(|_| dropped.sample_count(400.0)).sum();
        let ratio = b as f64 / a as f64;
        assert!((ratio - 0.25).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn nominal_fault_state_changes_nothing() {
        let mut plain = AccessSampler::new(8.0, 23).unwrap();
        let mut hooked = AccessSampler::new(8.0, 23).unwrap();
        hooked.set_fault_state(false, 1.0);
        for i in 0..200 {
            let c = i as f64 * 31.0;
            assert_eq!(plain.sample_count(c), hooked.sample_count(c));
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let mut a = AccessSampler::new(8.0, 99).unwrap();
        let mut b = AccessSampler::new(8.0, 99).unwrap();
        for i in 0..100 {
            assert_eq!(
                a.sample_count(i as f64 * 13.0),
                b.sample_count(i as f64 * 13.0)
            );
        }
    }

    #[test]
    fn weight_table_validation() {
        assert!(WeightTable::new(&[0.5, 0.3, 0.2]).is_ok());
        assert!(WeightTable::new(&[0.3, 0.5]).is_err()); // increasing
        assert!(WeightTable::new(&[0.5, -0.1]).is_err());
        assert!(WeightTable::new(&[f64::INFINITY]).is_err());
        let t = WeightTable::new(&[0.5, 0.3, 0.2]).unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!((t.total() - 1.0).abs() < 1e-12);
        assert!(WeightTable::new(&[]).unwrap().is_empty());
    }

    /// Empirical mean/variance of first and second moments over many
    /// pages, for pinning the batched paths against the scalar path.
    fn moments(xs: &[u64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<u64>() as f64 / n;
        let var = xs
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        (mean, var)
    }

    /// Seeded equivalence: the batched uniform path matches the per-page
    /// scalar loop in mean and variance. Both are Poisson(m) per page
    /// (the batched draw is the same distribution by Poisson splitting),
    /// so mean ≈ var ≈ m for each.
    #[test]
    fn uniform_batch_matches_scalar_distribution() {
        let n = 20_000;
        let period = 64.0;
        let true_per_page = 640.0; // mean 10 events/page
        let mut scalar = AccessSampler::new(period, 42).unwrap();
        let per_page: Vec<u64> = (0..n).map(|_| scalar.sample_count(true_per_page)).collect();
        let (m_s, v_s) = moments(&per_page);

        let mut batched = AccessSampler::new(period, 43).unwrap();
        let mut out = vec![0u64; n];
        batched.sample_uniform_events(&mut out, true_per_page);
        let (m_b, v_b) = moments(&out);

        // σ of the sample mean is √(10/20000) ≈ 0.022; allow 5σ.
        assert!((m_s - 10.0).abs() < 0.12, "scalar mean {m_s}");
        assert!((m_b - 10.0).abs() < 0.12, "batched mean {m_b}");
        assert!((m_s - m_b).abs() < 0.2, "means {m_s} vs {m_b}");
        // Poisson: variance == mean. Sampling error on var is larger.
        assert!((v_s - 10.0).abs() < 1.0, "scalar var {v_s}");
        assert!((v_b - 10.0).abs() < 1.0, "batched var {v_b}");
    }

    /// Seeded equivalence for the weighted (Zipf-tail) path: per-rank
    /// means from the batched head/tail split track the scalar per-page
    /// loop, and aggregate mean/variance match.
    #[test]
    fn weighted_batch_matches_scalar_distribution() {
        let n = 4096usize;
        let period = 101.0;
        // Zipf-like descending weights, normalized.
        let raw: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-1.1)).collect();
        let total_w: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total_w).collect();
        let table = WeightTable::new(&weights).unwrap();
        let total_true = 2.0e6; // hottest page ≈ 2770 events, deep tail ≪ 1

        let rounds = 200;
        let mut scalar = AccessSampler::new(period, 7).unwrap();
        let mut batched = AccessSampler::new(period, 8).unwrap();
        let mut sum_s = vec![0u64; n];
        let mut sum_b = vec![0u64; n];
        let mut totals_s = Vec::with_capacity(rounds);
        let mut totals_b = Vec::with_capacity(rounds);
        let mut out = vec![0u64; n];
        for _ in 0..rounds {
            let mut t = 0u64;
            for (rank, acc) in sum_s.iter_mut().enumerate() {
                let ev = scalar.sample_count(total_true * weights[rank]);
                *acc += ev;
                t += ev;
            }
            totals_s.push(t);
            batched.sample_weighted_events(&mut out, total_true, &table);
            for (acc, &ev) in sum_b.iter_mut().zip(out.iter()) {
                *acc += ev;
            }
            totals_b.push(out.iter().sum());
        }

        // Aggregate totals: both are Poisson(total_true/period) per round.
        let expect_total = total_true / period;
        let (mt_s, vt_s) = moments(&totals_s);
        let (mt_b, vt_b) = moments(&totals_b);
        let sigma = (expect_total / rounds as f64).sqrt(); // ≈ 10
        assert!((mt_s - expect_total).abs() < 5.0 * sigma, "scalar {mt_s}");
        assert!((mt_b - expect_total).abs() < 5.0 * sigma, "batched {mt_b}");
        // Variance of a Poisson equals its mean (tolerance ~15 %).
        assert!((vt_s / expect_total - 1.0).abs() < 0.3, "scalar var {vt_s}");
        assert!(
            (vt_b / expect_total - 1.0).abs() < 0.3,
            "batched var {vt_b}"
        );

        // Per-rank means agree for head ranks (relative) and for the
        // binned tail (the per-page means there are far below one event).
        for rank in [0usize, 1, 5, 20] {
            let m = total_true * weights[rank] / period * rounds as f64;
            let a = sum_s[rank] as f64;
            let b = sum_b[rank] as f64;
            assert!((a / m - 1.0).abs() < 0.15, "rank {rank} scalar {a} vs {m}");
            assert!((b / m - 1.0).abs() < 0.15, "rank {rank} batched {b} vs {m}");
        }
        let tail_s: u64 = sum_s[1024..].iter().sum();
        let tail_b: u64 = sum_b[1024..].iter().sum();
        let tail_expect =
            total_true * (1.0 - weights[..1024].iter().sum::<f64>()) / period * rounds as f64;
        assert!(
            (tail_s as f64 / tail_expect - 1.0).abs() < 0.1,
            "tail scalar {tail_s} vs {tail_expect}"
        );
        assert!(
            (tail_b as f64 / tail_expect - 1.0).abs() < 0.1,
            "tail batched {tail_b} vs {tail_expect}"
        );
    }

    /// The branchy select `event_rank` replaced, kept as the reference
    /// the branch-free kernel must agree with.
    fn event_rank_branchy(t: &WeightTable, r: u64) -> usize {
        let j = t.slot_index(r);
        let slot = t.alias[j];
        if (r as u32) < slot.thresh {
            j
        } else {
            slot.alias as usize
        }
    }

    /// Draws whose high bits select slot `j` of an `n`-slot table and
    /// whose coins sit on and around the slot's threshold.
    fn edge_draws(j: usize, n: usize, thresh: u32) -> [u64; 5] {
        let hi = ((j as u64) << 32).div_ceil(n as u64);
        let coins = [
            0,
            thresh.saturating_sub(1),
            thresh,
            thresh.saturating_add(1),
            u32::MAX,
        ];
        coins.map(|c| (hi << 32) | u64::from(c))
    }

    /// Asserts the branch-free rank equals the reference for `draws`
    /// and for every slot's threshold-edge coins.
    fn check_ranks(t: &WeightTable, draws: &[u64]) -> Result<(), TestCaseError> {
        for &r in draws {
            prop_assert_eq!(t.event_rank(r), event_rank_branchy(t, r));
        }
        for (j, slot) in t.alias.iter().enumerate() {
            for r in edge_draws(j, t.alias.len(), slot.thresh) {
                prop_assert_eq!(t.slot_index(r), j);
                prop_assert_eq!(t.event_rank(r), event_rank_branchy(t, r));
            }
        }
        Ok(())
    }

    proptest! {
        /// Alias tables built from random weights, a quarter of them
        /// zero: the branch-free rank matches the branchy reference.
        #[test]
        fn branch_free_rank_matches_reference(
            ws in prop::collection::vec((0u32..4, 0.0f64..1.0), 1..300),
            draws in prop::collection::vec(0u64..u64::MAX, 256),
        ) {
            let weights: Vec<f64> = ws.iter().map(|&(z, w)| if z == 0 { 0.0 } else { w }).collect();
            let t = WeightTable::new_unsorted(&weights).unwrap();
            if t.total() > 0.0 {
                check_ranks(&t, &draws)?;
            }
        }

        /// Hand-built slots the Vose construction rarely yields:
        /// self-aliases, `thresh = u32::MAX`, `thresh = 0` and aliases
        /// far from their slot.
        #[test]
        fn branch_free_rank_matches_reference_on_raw_slots(
            raw in prop::collection::vec((0u32..u32::MAX, 0u32..4, 0u32..u32::MAX), 1..200),
            draws in prop::collection::vec(0u64..u64::MAX, 256),
        ) {
            let n = raw.len();
            let mut t = WeightTable::new(&vec![1.0; n]).unwrap();
            t.alias = raw
                .iter()
                .enumerate()
                .map(|(i, &(thresh, kind, alias))| match kind {
                    0 => AliasSlot { thresh: u32::MAX, alias: i as u32 },
                    1 => AliasSlot { thresh: 0, alias: alias % n as u32 },
                    2 => AliasSlot { thresh, alias: i as u32 },
                    _ => AliasSlot { thresh, alias: alias % n as u32 },
                })
                .collect();
            check_ranks(&t, &draws)?;
        }

        /// The scale-up table agrees with the formula at random periods,
        /// on and past its end.
        #[test]
        fn scale_table_matches_formula_at_random_periods(
            period in 1.0f64..20_000.0,
            k in 0u64..2 * SCALE_TABLE_LEN as u64,
        ) {
            let s = AccessSampler::new(period, 0).unwrap();
            prop_assert_eq!(s.estimate_from_samples(k), (k as f64 * period).round() as u64);
        }
    }

    #[test]
    fn scale_table_matches_formula() {
        for period in [1.0, 2.5, 64.0, 101.0, 1009.0, 10090.0] {
            let s = AccessSampler::new(period, 0).unwrap();
            for k in 0..SCALE_TABLE_LEN as u64 + 64 {
                assert_eq!(
                    s.estimate_from_samples(k),
                    (k as f64 * period).round() as u64,
                    "period {period}, k {k}"
                );
            }
        }
    }

    #[test]
    fn batched_paths_respect_faults_and_are_deterministic() {
        let weights = [0.5, 0.3, 0.2];
        let table = WeightTable::new(&weights).unwrap();
        let mut s = AccessSampler::new(2.0, 9).unwrap();
        s.set_fault_state(true, 1.0);
        let mut out = [7u64; 3];
        s.sample_weighted_events(&mut out, 1e6, &table);
        assert_eq!(out, [0, 0, 0]);
        s.sample_uniform_events(&mut out, 1e6);
        assert_eq!(out, [0, 0, 0]);
        s.set_fault_state(false, 1.0);

        // Dropout thins the batched stream like the scalar one.
        let mut nominal = AccessSampler::new(4.0, 17).unwrap();
        let mut dropped = AccessSampler::new(4.0, 17).unwrap();
        dropped.set_fault_state(false, 0.25);
        let mut buf = vec![0u64; 512];
        nominal.sample_uniform_events(&mut buf, 400.0);
        let a: u64 = buf.iter().sum();
        dropped.sample_uniform_events(&mut buf, 400.0);
        let b: u64 = buf.iter().sum();
        let ratio = b as f64 / a as f64;
        assert!((ratio - 0.25).abs() < 0.05, "ratio {ratio}");

        // Same seed, same calls → bit-identical output.
        let run = |seed: u64| {
            let mut s = AccessSampler::new(8.0, seed).unwrap();
            let mut o = vec![0u64; 64];
            s.sample_uniform_estimates(&mut o, 100.0);
            let t = WeightTable::new(&(0..64).map(|r| 1.0 / (r + 1) as f64).collect::<Vec<_>>())
                .unwrap();
            let mut o2 = vec![0u64; 64];
            s.sample_weighted_estimates(&mut o2, 5000.0, &t);
            (o, o2)
        };
        assert_eq!(run(33), run(33));
    }
}
