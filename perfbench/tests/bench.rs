//! The benchmark's own checks: the timing wrapper is invisible to the
//! simulation, and a slower policy layer shows up in the end-to-end
//! tick metric and is attributed to the right layer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;
use std::time::Instant;

use mtat_core::policy::{SimState, WorkloadClass, WorkloadObs};
use mtat_core::supervisor::DegradationState;
use mtat_core::Policy;
use mtat_fleet::Fleet;
use mtat_obs::Obs;
use mtat_perfbench::{
    experiment, fastest_window, fleet_config, make_policy, median, shard_experiment,
    timed_fleet_run, timed_run, TimedPolicy, Workload,
};
use mtat_tiermem::memory::{InitialPlacement, TieredMemory};
use mtat_tiermem::page::WorkloadId;

/// The tests time real runs; one at a time keeps them from slowing
/// each other down.
static SERIAL: Mutex<()> = Mutex::new(());

/// `run` unwrapped and wrapped in a `TimedPolicy`: the digests.
fn digests(exp: &mtat_core::runner::Experiment, make: impl Fn() -> Box<dyn Policy>) -> (u64, u64) {
    let mut plain = make();
    let a = exp.try_run(plain.as_mut()).expect("unwrapped run").digest();
    let mut timed = TimedPolicy::new(make());
    let b = exp.try_run(&mut timed).expect("wrapped run").digest();
    assert!(!timed.ticks().is_empty(), "the wrapper saw no ticks");
    (a, b)
}

#[test]
fn timed_policy_leaves_every_single_run_workload_bit_identical() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for w in [Workload::PaperMtat, Workload::MemtisSteady] {
        let exp = experiment(w, 3, 240.0, Obs::disabled());
        let (a, b) = digests(&exp, || make_policy(w, &exp));
        assert_eq!(a, b, "{}: wrapped run diverged", w.name());
    }
}

#[test]
fn timed_policy_forwards_crash_restart_and_checkpoint_hooks() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Shard 0 of the chaos fleet runs a fault storm and a PP-M crash
    // with checkpoints and health probes on: every defaulted hook of the
    // Policy trait is exercised.
    let fleet = Fleet::plan(fleet_config(3, 8, false)).expect("fleet plans");
    let (exp, _) = shard_experiment(&fleet, 0);
    let (a, b) = digests(&exp, || shard_experiment(&fleet, 0).1);
    assert_eq!(a, b, "wrapped chaos shard diverged");
    assert_eq!(
        a,
        fleet.run_shard(0).digest,
        "rebuilt shard differs from the fleet's"
    );
}

#[test]
fn timed_fleet_run_times_every_shard_and_changes_nothing() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let fleet = Fleet::plan(fleet_config(3, 8, true)).expect("fleet plans");
    let want = fleet.run(1).aggregate_digest;
    for workers in [1, 2] {
        let (r, t) = timed_fleet_run(&fleet, workers).expect("fleet runs");
        assert_eq!(
            r.aggregate_digest, want,
            "{workers} workers: digest changed"
        );
        assert_eq!(t.shards.len(), 8);
        assert!(t.shards.iter().all(|d| !d.is_zero()), "an untimed shard");
        // Each worker's shards run back to back inside the call.
        let busy: std::time::Duration = t.shards.iter().sum();
        assert!(
            busy <= t.total * workers as u32,
            "{workers} workers: {busy:?} > {t:?}"
        );
        assert!(t.merge < t.total);
    }
}

/// Busy-waits an extra `extra` share of the wrapped policy's `on_tick`
/// time after each call; forwards the hooks a fault-free memtis run
/// uses.
struct SlowPolicy {
    inner: Box<dyn Policy>,
    extra: f64,
}

impl Policy for SlowPolicy {
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
        let start = Instant::now();
        self.inner.on_tick(sim);
        let until = start + start.elapsed().mul_f64(1.0 + self.extra);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
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
}

/// The bound of an end-to-end metric in `BENCHMARK.json`.
fn bound(metric: &str) -> f64 {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    let at = spec
        .find(&format!("\"name\": \"{metric}\""))
        .unwrap_or_else(|| panic!("{metric} not in BENCHMARK.json"));
    let rest = &spec[at..];
    let b = rest.find("\"bound\":").expect("metric has a bound") + "\"bound\":".len();
    let end = rest[b..].find(['}', ',']).expect("bound ends");
    rest[b..b + end].trim().parse().expect("bound is a number")
}

#[derive(Default)]
struct Arm {
    intervals: Vec<Vec<f64>>,
    on_tick: Vec<f64>,
    between: Vec<f64>,
}

impl Arm {
    fn run(&mut self, extra: f64) {
        let w = Workload::MemtisSteady;
        let exp = experiment(w, 5, 600.0, Obs::disabled());
        let inner = make_policy(w, &exp);
        let policy: Box<dyn Policy> = if extra > 0.0 {
            Box::new(SlowPolicy { inner, extra })
        } else {
            inner
        };
        let now = Instant::now();
        let (_, t) = timed_run(&exp, policy, now).expect("run");
        self.intervals.push(t.tick_intervals_us());
        self.on_tick.extend(t.on_tick_us(false));
        self.between.extend(t.between_ticks_us());
    }
}

#[test]
fn a_slower_policy_layer_shows_in_tick_p50_and_is_named_by_its_layer_metric() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (mut base, mut slow20, mut slow100) = (Arm::default(), Arm::default(), Arm::default());
    // Alternate so every arm sees the same host conditions; a fixed
    // number of runs, so every arm's fastest window is taken over the
    // same number of windows.
    for _ in 0..4 {
        base.run(0.0);
        slow20.run(0.2);
        slow100.run(1.0);
    }
    let p50 =
        |a: &Arm| fastest_window(&a.intervals, 1.0, Workload::MemtisSteady.window_ticks()).p50_us;
    let moved = |a: &Arm| p50(a) / p50(&base) - 1.0;
    let limit = bound("tick_us_p50");
    eprintln!(
        "tick_us_p50 {:.0} us; +20 % on_tick: {:+.1} %, +100 % on_tick: {:+.1} %; bound {:.1} %",
        p50(&base),
        moved(&slow20) * 100.0,
        moved(&slow100) * 100.0,
        limit * 100.0
    );
    // on_tick is about 40 % of a memtis_steady tick, so +20 % of it
    // moves the tick by about 8 %, below the bound the host's run-to-run
    // spread allows; +100 % moves it by about 40 %, beyond the bound.
    assert!(
        moved(&slow20) > 0.0,
        "+20 % on_tick did not move tick_us_p50"
    );
    assert!(
        moved(&slow100) > limit,
        "tick_us_p50 moved {:.1} % with a 100 % slower on_tick; its bound is {:.1} %",
        moved(&slow100) * 100.0,
        limit * 100.0
    );
    // The per-layer metrics name the layer: the policy's own time grew
    // by about the injected 20 %, the runner's time around it did not.
    let policy = median(&slow20.on_tick) / median(&base.on_tick) - 1.0;
    let runner = median(&slow20.between) / median(&base.between) - 1.0;
    eprintln!(
        "+20 % on_tick: policy.tick_us.p50 {:+.1} %, runner.between_ticks_us.p50 {:+.1} %",
        policy * 100.0,
        runner * 100.0
    );
    assert!(
        policy > 0.12,
        "policy.tick_us.p50 moved only {:.1} %",
        policy * 100.0
    );
    assert!(
        policy > runner + 0.08,
        "policy layer {:.1} % vs runner layer {:.1} %",
        policy * 100.0,
        runner * 100.0
    );
}
