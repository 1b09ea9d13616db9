//! Host-time benchmark for the MTAT simulator.
//!
//! The benchmark times the simulator from outside: it builds each
//! workload through the public APIs (`make_policy`, `Experiment`,
//! `Fleet`), wraps the policy in [`TimedPolicy`] to time every
//! `Policy::on_tick` call, and reads the existing span profiler
//! (`Obs::traced`) for the stages inside a tick. Nothing here feeds
//! back into the simulation: a wrapped run has the same
//! `RunResult::digest` as an unwrapped one.
//!
//! `run.py` next to this crate is the entry point; see `README.md`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mtat_core::config::SimConfig;
use mtat_core::policy::{SimState, WorkloadClass, WorkloadObs};
use mtat_core::runner::{CheckpointCfg, Experiment};
use mtat_core::supervisor::DegradationState;
use mtat_core::{HealthConfig, Policy};
use mtat_fleet::{Fleet, FleetConfig, FleetResult, ShardFaultPlane, ShardOutcome, ShardSize};
use mtat_obs::Obs;
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_tiermem::memory::{InitialPlacement, TieredMemory};
use mtat_tiermem::page::WorkloadId;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale host, Redis + four BE jobs, `mtat_full`, Fig. 7 load
    /// repeated back to back.
    PaperMtat,
    /// The same host and co-location under `memtis` at 50 % load.
    MemtisSteady,
    /// A fleet of tiny shards under `mtat_full_heuristic` with chaos,
    /// self-healing and metrics on.
    FleetChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMtat,
        Workload::MemtisSteady,
        Workload::FleetChaos,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMtat => "paper_mtat",
            Workload::MemtisSteady => "memtis_steady",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ticks per window of the window statistics ([`fastest_window`]).
    /// paper_mtat: half a Fig. 7 cycle, so every window holds the same
    /// mix of load levels. memtis_steady runs at a constant load, so
    /// short windows catch short quiet spells of the host (30-tick
    /// windows spread about half as much over seeds as 120-tick ones on
    /// a contended host). fleet_chaos: one shard run.
    #[must_use]
    pub fn window_ticks(self) -> usize {
        match self {
            Workload::PaperMtat => 120,
            Workload::MemtisSteady => 30,
            Workload::FleetChaos => FLEET_SECS as usize,
        }
    }

    /// The seed the simulator uses when none is given; digests at this
    /// seed are pinned in `golden.json`.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperMtat | Workload::MemtisSteady => SimConfig::paper().seed,
            Workload::FleetChaos => FLEET_DEFAULT_SEED,
        }
    }
}

/// `fleet_sim`'s default fleet seed.
pub const FLEET_DEFAULT_SEED: u64 = 0xF1EE7;

/// Simulated seconds in one paper_mtat run: Fig. 7 played five times.
pub const PAPER_UNIT_SECS: f64 = 1200.0;
/// Simulated seconds in one memtis_steady run.
pub const MEMTIS_UNIT_SECS: f64 = 600.0;
/// Shards in one fleet_chaos run.
pub const FLEET_SHARDS: usize = 16;
/// Simulated seconds per fleet shard (`fleet_sim --quick`'s day).
pub const FLEET_SECS: f64 = 120.0;
/// Routing-epoch length of the fleet (`fleet_sim --quick`).
pub const FLEET_EPOCH_SECS: f64 = 10.0;
/// Worker threads of the fleet run.
pub const FLEET_WORKERS: usize = 2;
/// Convergence grace before SLO violations count (as in `fig8` and
/// `mtat_sim`).
pub const GRACE_SECS: f64 = 30.0;

/// The policy a single-run workload runs under.
#[must_use]
pub fn policy_name(w: Workload) -> &'static str {
    match w {
        Workload::PaperMtat => "mtat_full",
        Workload::MemtisSteady => "memtis",
        Workload::FleetChaos => "mtat_full_heuristic",
    }
}

/// The paper-scale experiment of a single-run workload, `secs` long,
/// with telemetry passed explicitly.
///
/// # Panics
///
/// Panics for [`Workload::FleetChaos`], which is not a single run.
#[must_use]
pub fn experiment(w: Workload, seed: u64, secs: f64, obs: Obs) -> Experiment {
    let load = match w {
        Workload::PaperMtat => {
            let LoadPattern::Steps(one) = LoadPattern::fig7() else {
                unreachable!("fig7 is a step pattern")
            };
            let reps = (secs / LoadPattern::fig7().duration_secs()).ceil().max(1.0) as usize;
            LoadPattern::Steps(one.repeat(reps))
        }
        Workload::MemtisSteady => LoadPattern::Constant(0.5),
        Workload::FleetChaos => panic!("fleet_chaos is not a single-run workload"),
    };
    Experiment::new(
        SimConfig::paper().with_seed(seed),
        LcSpec::redis(),
        load,
        BeSpec::all_paper_workloads(),
    )
    .with_duration(secs)
    .with_obs(obs)
}

/// Builds the workload's policy through the public constructor.
#[must_use]
pub fn make_policy(w: Workload, exp: &Experiment) -> Box<dyn Policy> {
    mtat_bench::make_policy(policy_name(w), &exp.cfg, &exp.lc, &exp.bes)
}

/// The fleet_chaos configuration: `shards` tiny shards with
/// `fleet_sim --chaos --self-heal` planes and metrics as given.
#[must_use]
pub fn fleet_config(seed: u64, shards: usize, metrics: bool) -> FleetConfig {
    let mut cfg = FleetConfig::new(shards, seed, FLEET_SECS, FLEET_EPOCH_SECS);
    cfg.policy = policy_name(Workload::FleetChaos).into();
    cfg.shard_size = ShardSize::Tiny;
    cfg.self_heal = true;
    cfg.metrics = metrics;
    cfg.faults = default_chaos(shards, seed, FLEET_SECS);
    cfg
}

/// `fleet_sim --chaos`: a fault storm plus a PP-M crash on the first
/// eighth of the fleet (at least one shard).
#[must_use]
pub fn default_chaos(n_shards: usize, seed: u64, duration: f64) -> Vec<ShardFaultPlane> {
    let targeted = (n_shards / 8).max(1);
    vec![ShardFaultPlane {
        shards: 0..targeted,
        plan: FaultPlan::new(seed ^ 0x50AC)
            .with(
                FaultKind::FaultStorm { intensity: 0.6 },
                duration * 0.25 + 1.0,
                duration * 0.15,
            )
            .with(FaultKind::PpmCrash, duration * 0.6 + 1.0, duration * 0.05),
    }]
}

/// Shard `shard` of `fleet` rebuilt as a single run, with its policy:
/// the experiment `Fleet::run_shard` runs, so that a wrapped policy can
/// time its ticks. Its digest must equal the fleet shard's.
#[must_use]
pub fn shard_experiment(fleet: &Fleet, shard: usize) -> (Experiment, Box<dyn Policy>) {
    let cfg = fleet.config();
    let mut sim = SimConfig::small_test().with_seed(mtat_fleet::shard_seed(cfg.fleet_seed, shard));
    sim.sampler_period = 1009.0;
    let mut lc = LcSpec::redis();
    lc.rss_bytes = (1.2 * (1u64 << 30) as f64) as u64;
    let bes = vec![fleet_be()];
    let steps = fleet.routed().levels[shard]
        .iter()
        .map(|&l| (cfg.epoch_secs, l))
        .collect();
    let plan = cfg
        .faults
        .iter()
        .find(|p| p.targets(shard))
        .map_or_else(FaultPlan::none, |p| p.plan.clone());
    let obs = if cfg.metrics {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut exp = Experiment::new(sim, lc, LoadPattern::Steps(steps), bes)
        .with_duration(cfg.duration_secs)
        .with_fault_plan(plan)
        .with_obs(obs);
    if cfg.self_heal {
        exp = exp
            .with_checkpoints(CheckpointCfg::in_memory().with_every(12))
            .with_health(HealthConfig::self_heal());
    }
    let policy = mtat_bench::make_policy(&cfg.policy, &exp.cfg, &exp.lc, &exp.bes);
    (exp, policy)
}

/// A tiny shard's BE job: one 2 GiB SSSP.
fn fleet_be() -> BeSpec {
    let mut be = BeSpec::sssp();
    be.rss_bytes = 2 << 30;
    be
}

/// Throughput of a fleet shard's BE job with all of FMem, for
/// normalized performance (the tiny shard runs one 2 GiB SSSP).
#[must_use]
pub fn fleet_be_perf_full() -> f64 {
    let cfg = SimConfig::small_test();
    fleet_be().perf_full(cfg.mem.fmem_bytes(), cfg.mem.page_size())
}

/// One `on_tick` call as seen from outside the policy.
#[derive(Debug, Clone, Copy)]
pub struct TickTiming {
    /// When the call was entered.
    pub enter: Instant,
    /// How long the call took.
    pub dur: Duration,
    /// Whether the tick was a partitioning-interval boundary.
    pub boundary: bool,
}

/// A policy wrapper that forwards every [`Policy`] method to the
/// wrapped policy and records the host time of each `on_tick` call.
/// Recording reads only the clock, so runs are bit-identical with and
/// without the wrapper.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    ticks: Vec<TickTiming>,
}

impl TimedPolicy {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Self {
            inner,
            ticks: Vec::new(),
        }
    }

    /// Every recorded `on_tick` call, in order.
    #[must_use]
    pub fn ticks(&self) -> &[TickTiming] {
        &self.ticks
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init(&mut self, mem: &TieredMemory, workloads: &[WorkloadObs]) {
        self.inner.init(mem, workloads);
    }
    fn set_obs(&mut self, obs: &Obs) {
        self.inner.set_obs(obs);
    }
    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        let boundary = sim.interval_boundary;
        let enter = Instant::now();
        self.inner.on_tick(sim);
        self.ticks.push(TickTiming {
            enter,
            dur: enter.elapsed(),
            boundary,
        });
    }
    fn initial_placement(&self, class: WorkloadClass) -> InitialPlacement {
        self.inner.initial_placement(class)
    }
    fn smem_access_penalty(&self, w: WorkloadId) -> f64 {
        self.inner.smem_access_penalty(w)
    }
    fn fmem_target(&self, w: WorkloadId) -> Option<u64> {
        self.inner.fmem_target(w)
    }
    fn degradation(&self) -> Option<DegradationState> {
        self.inner.degradation()
    }
    fn wants_page_samples(&self) -> bool {
        self.inner.wants_page_samples()
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.inner.checkpoint()
    }
    fn on_controller_crash(&mut self) {
        self.inner.on_controller_crash();
    }
    fn on_controller_restart(&mut self, mem: &TieredMemory, checkpoint: Option<&[u8]>) {
        self.inner.on_controller_restart(mem, checkpoint);
    }
    fn health_probe(&self) -> Result<(), String> {
        self.inner.health_probe()
    }
    fn inject_poison(&mut self) {
        self.inner.inject_poison();
    }
    fn enter_quarantine(&mut self, now_secs: f64) {
        self.inner.enter_quarantine(now_secs);
    }
    fn after_rollback(&mut self, now_secs: f64) {
        self.inner.after_rollback(now_secs);
    }
}

/// Host-time breakdown of one timed single run.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// From the setup start (process start or just before policy
    /// construction) to the first `on_tick`.
    pub setup: Duration,
    /// From the `try_run` call to the first `on_tick`.
    pub init: Duration,
    /// From the first `on_tick` to `try_run`'s return.
    pub run: Duration,
    /// Per-tick calls.
    pub ticks: Vec<TickTiming>,
}

impl RunTiming {
    /// Intervals between consecutive `on_tick` entries, in µs.
    #[must_use]
    pub fn tick_intervals_us(&self) -> Vec<f64> {
        self.ticks
            .windows(2)
            .map(|p| us(p[1].enter - p[0].enter))
            .collect()
    }

    /// Host time between the end of one `on_tick` and the start of the
    /// next (runner work outside the policy), in µs.
    #[must_use]
    pub fn between_ticks_us(&self) -> Vec<f64> {
        self.ticks
            .windows(2)
            .map(|p| us(p[1].enter.saturating_duration_since(p[0].enter + p[0].dur)))
            .collect()
    }

    /// `on_tick` durations on ticks whose boundary flag is `boundary`,
    /// in µs.
    #[must_use]
    pub fn on_tick_us(&self, boundary: bool) -> Vec<f64> {
        self.ticks
            .iter()
            .filter(|t| t.boundary == boundary)
            .map(|t| us(t.dur))
            .collect()
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `exp` under `policy` wrapped in a [`TimedPolicy`]. `setup_start`
/// is when the caller began setting up (before building the policy).
///
/// # Errors
///
/// Whatever `Experiment::try_run` returns, as text.
pub fn timed_run(
    exp: &Experiment,
    policy: Box<dyn Policy>,
    setup_start: Instant,
) -> Result<(mtat_core::RunResult, RunTiming), String> {
    let mut timed = TimedPolicy::new(policy);
    let call = Instant::now();
    let result = exp.try_run(&mut timed).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let first = timed.ticks().first().map_or(end, |t| t.enter);
    Ok((
        result,
        RunTiming {
            setup: first - setup_start,
            init: first - call,
            run: end - first,
            ticks: timed.ticks,
        },
    ))
}

/// Host time of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetTiming {
    /// The whole `Fleet::run_with_progress` call.
    pub total: Duration,
    /// Per shard, by shard index: from the end of the previous shard on
    /// the same worker thread (or from the start of the call) to the end
    /// of this one, so shard set-up, run and export.
    pub shards: Vec<Duration>,
    /// From the end of the last shard to the call's return: registry
    /// merge and aggregate digest.
    pub merge: Duration,
}

/// Runs `fleet` on `workers` threads, timing every shard through the
/// run's completion callback: `(result, timing)`, or the message of a
/// shard that panicked. The callback only reads the clock, so the
/// result is the same as `Fleet::run`'s.
///
/// # Errors
///
/// A shard's panic message.
pub fn timed_fleet_run(
    fleet: &Fleet,
    workers: usize,
) -> Result<(FleetResult, FleetTiming), String> {
    let n = fleet.config().n_shards;
    let done = Mutex::new(Vec::with_capacity(n));
    let progress = |_: usize, s: &ShardOutcome| {
        let mut done = done.lock().expect("progress log poisoned");
        done.push((std::thread::current().id(), s.shard, Instant::now()));
    };
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        fleet.run_with_progress(workers, &progress)
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "shard panicked".to_string())
    })?;
    let end = Instant::now();
    // Entries are pushed under the lock, so they are in time order.
    let done = done.into_inner().expect("progress log poisoned");
    let mut shards = vec![Duration::ZERO; n];
    let mut last_on: HashMap<ThreadId, Instant> = HashMap::new();
    for &(thread, shard, at) in &done {
        shards[shard] = at - last_on.insert(thread, at).unwrap_or(start);
    }
    let last = done.last().map_or(start, |d| d.2);
    Ok((
        result,
        FleetTiming {
            total: end - start,
            shards,
            merge: end - last,
        },
    ))
}

/// The `p`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks; NaN when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`; NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Ticks per window for the tail percentile (`tick_us_p90`): at least
/// ten samples lie beyond the 90th percentile of a window.
pub const TAIL_WINDOW_TICKS: usize = 120;

/// How many repetitions of a piece of work fill `seconds` of host time
/// when one repetition takes `each` seconds on the reference host (a
/// 2-vCPU VM); at least one.
///
/// A benchmark run does this fixed amount of work rather than running
/// until the time is up: [`fastest_window`] takes a minimum, and a
/// minimum over more windows is smaller, so the number of windows must
/// not depend on how fast the code under test is.
#[must_use]
pub fn reps_for(seconds: f64, each: f64) -> usize {
    ((seconds / each).round() as usize).max(1)
}

/// Host-time statistics of the fastest window of a run.
///
/// A benchmark run repeats the same deterministic work many times. On a
/// shared host the speed of that work changes by up to 2.5x as
/// co-tenants come and go, for seconds to minutes at a time; the share
/// of a run spent at each speed varies from run to run, so whole-run
/// medians swing by 10-35 %. Interference only ever adds time. So each
/// statistic is taken per window of [`Workload::window_ticks`] ticks and the
/// fastest window is reported: the cost of the code with the least
/// interference the run saw. Callers pass a fixed number of runs (see
/// [`reps_for`]), so the minimum is always taken over the same number
/// of windows.
#[derive(Debug, Clone, Copy)]
pub struct FastestWindow {
    /// Lowest window median of the tick interval, µs.
    pub p50_us: f64,
    /// Lowest window 90th percentile of the tick interval, µs.
    pub p90_us: f64,
    /// Highest window throughput, simulated seconds per host second.
    pub sim_s_per_host_s: f64,
    /// Windows the statistics were taken over.
    pub windows: usize,
}

/// [`FastestWindow`] over the tick intervals (µs) of each run, for ticks
/// of `tick_secs` simulated seconds. Interval `i` runs from tick `i` to
/// tick `i + 1`; a window holds the intervals of `window` consecutive
/// ticks (one fewer at the end of a run, whose last tick
/// has no successor). Windows never span two runs.
#[must_use]
pub fn fastest_window(runs: &[Vec<f64>], tick_secs: f64, window: usize) -> FastestWindow {
    let mut out = FastestWindow {
        p50_us: f64::INFINITY,
        p90_us: f64::INFINITY,
        sim_s_per_host_s: 0.0,
        windows: 0,
    };
    let windows = runs
        .iter()
        .flat_map(|r| r.chunks(window))
        .filter(|w| w.len() + 1 >= window);
    for w in windows {
        out.p50_us = out.p50_us.min(percentile(w, 50.0));
        out.p90_us = out.p90_us.min(percentile(w, 90.0));
        let host_s = w.iter().sum::<f64>() / 1e6;
        out.sim_s_per_host_s = out
            .sim_s_per_host_s
            .max(w.len() as f64 * tick_secs / host_s);
        out.windows += 1;
    }
    out
}

/// Environment variables that change what the simulator runs or how
/// many threads it uses; the benchmark refuses to run with any set.
pub const FORBIDDEN_ENV: [&str; 4] = ["MTAT_AUDIT", "MTAT_OBS", "MTAT_TRACE", "MTAT_BENCH_THREADS"];

/// The first forbidden variable that is set, if any.
#[must_use]
pub fn forbidden_env() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|k| std::env::var_os(k).is_some())
}
