//! One benchmark process: runs one workload in one mode and prints its
//! raw measurements as a single JSON line on stdout.
//!
//! ```text
//! perfbench <paper_mtat|memtis_steady|fleet_chaos> <e2e|layers|setup> SEED SECONDS
//! ```
//!
//! * `e2e` — untraced runs for `SECONDS` of run-phase host time, plus a
//!   short run at the default seed whose digest `run.py` compares with
//!   `golden.json`.
//! * `layers` — the per-layer pass: layers timed from outside, then
//!   untraced and traced runs alternated (digests must agree).
//! * `setup` — paper_mtat only: one cold policy construction and a
//!   one-tick run, for another `setup_s` sample.
//!
//! `run.py` builds this binary, starts one process per measurement and
//! turns the lines into the benchmark's result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mtat_bench::trace::phase_totals;
use mtat_core::ppm::lc::{LcPartitioner, LcPartitionerConfig};
use mtat_core::{MtatConfig, RunResult};
use mtat_fleet::anomaly::{self, AnomalyConfig};
use mtat_fleet::{Fleet, FleetResult};
use mtat_obs::registry::Registry;
use mtat_obs::Obs;
use mtat_perfbench::{
    experiment, fastest_window, fleet_be_perf_full, fleet_config, forbidden_env, make_policy,
    median, reps_for, shard_experiment, timed_fleet_run, timed_run, RunTiming, Workload,
    FLEET_SECS, FLEET_SHARDS, FLEET_WORKERS, GRACE_SECS, MEMTIS_UNIT_SECS, PAPER_UNIT_SECS,
    TAIL_WINDOW_TICKS,
};
use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};

/// Simulated seconds of the default-seed run checked against
/// `golden.json` (one Fig. 7 cycle).
const PROBE_SECS: f64 = 240.0;
/// Host seconds of `--seconds` budgeted per repetition on the reference
/// host; `reps_for` turns them into fixed repetition counts. A
/// paper_mtat run (1,200 simulated s):
const PAPER_RUN_HOST_S: f64 = 3.75;
/// A memtis_steady run (600 simulated s).
const MEMTIS_RUN_HOST_S: f64 = 1.875;
/// A fleet_chaos repetition: a run on the worker pool (0.43 s) and a
/// round of single runs of every shard (0.85 s).
const FLEET_REP_HOST_S: f64 = 1.275;
/// One iteration of the fleet per-layer loop over shard 0 (three runs
/// of one shard) together with its share of the rest of the pass.
const FLEET_SHARD0_HOST_S: f64 = 0.375;
/// Shards of the default-seed fleet checked against `golden.json`.
const PROBE_SHARDS: usize = 16;
/// Set-ups timed after each run (not for paper_mtat; see `run.py`).
const SETUPS_PER_RUN: usize = 5;
/// Pretraining steps timed for `rl.pretrain_updates_per_s`.
const PRETRAIN_PROBE_STEPS: usize = 3000;
/// `Sac::update` calls timed for `rl.sac_update_us`.
const SAC_UPDATES: usize = 200;
/// Fixed shard subset for `harness.parallel_efficiency` and
/// `obs.metrics_overhead_pct`.
const SUBSET_SHARDS: usize = 16;
const GIB: f64 = (1u64 << 30) as f64;

/// Everything one process reports.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    setup_samples: Vec<f64>,
    digests: Vec<u64>,
    probe_digest: Option<u64>,
    checks: Vec<(String, bool, String)>,
    attempted: u64,
    failed: u64,
    info: BTreeMap<&'static str, f64>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("# CHECK FAILED {name}: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Records an attempted run and whether it failed.
    fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records an attempted run that returned an error. The failure is
    /// counted here once; it is not also an output check.
    fn run_failed(&mut self, what: &str, err: &str) {
        eprintln!("# RUN FAILED {what}: {err}");
        self.attempt(false);
    }

    fn to_json(&self, workload: Workload, mode: &str) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let map = |m: &BTreeMap<&'static str, f64>| {
            m.iter()
                .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",");
        let checks = self
            .checks
            .iter()
            .map(|(n, ok, d)| {
                format!(
                    "{{\"name\":\"{n}\",\"ok\":{ok},\"detail\":\"{}\"}}",
                    d.replace('\\', "\\\\").replace('"', "'")
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let digests = self
            .digests
            .iter()
            .map(|d| format!("\"{d:016x}\""))
            .collect::<Vec<_>>()
            .join(",");
        let probe = self
            .probe_digest
            .map_or("null".to_string(), |d| format!("\"{d:016x}\""));
        format!(
            "{{\"workload\":\"{}\",\"mode\":\"{mode}\",\"metrics\":{{{}}},\"info\":{{{}}},\
             \"setup_samples\":[{}],\"digests\":[{digests}],\
             \"probe_digest\":{probe},\"checks\":[{checks}],\"attempted\":{},\"failed\":{}}}",
            workload.name(),
            map(&self.metrics),
            map(&self.info),
            list(&self.setup_samples),
            self.attempted,
            self.failed,
        )
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn unit_secs(w: Workload) -> f64 {
    match w {
        Workload::PaperMtat => PAPER_UNIT_SECS,
        _ => MEMTIS_UNIT_SECS,
    }
}

/// Timed runs of a single-run workload in a pass of `seconds`.
fn single_runs(w: Workload, seconds: f64) -> usize {
    match w {
        Workload::PaperMtat => reps_for(seconds, PAPER_RUN_HOST_S),
        _ => reps_for(seconds, MEMTIS_RUN_HOST_S),
    }
}

/// One timed single run at `seed`; `None` (counted as failed) when
/// `try_run` returns an error.
fn single_run(
    rep: &mut Report,
    w: Workload,
    seed: u64,
    obs: Obs,
    setup_start: Instant,
) -> Option<(RunResult, RunTiming)> {
    let exp = experiment(w, seed, unit_secs(w), obs);
    let policy = make_policy(w, &exp);
    match timed_run(&exp, policy, setup_start) {
        Ok(r) => {
            rep.attempt(true);
            Some(r)
        }
        Err(e) => {
            rep.run_failed("try_run", &e);
            None
        }
    }
}

/// Checks that every digest equals the first (same seed, same inputs).
fn check_replay(rep: &mut Report, what: &str) {
    let first = rep.digests.first().copied();
    let ok = rep.digests.iter().all(|d| Some(*d) == first);
    rep.check(
        what,
        ok,
        format!("{} runs, digests {:x?}", rep.digests.len(), rep.digests),
    );
}

/// One set-up sample, timed from `start`: construction plus a one-tick
/// run.
fn setup_sample(rep: &mut Report, w: Workload, seed: u64, start: Instant) {
    let exp = experiment(w, seed, 1.0, Obs::disabled());
    let policy = make_policy(w, &exp);
    match timed_run(&exp, policy, start) {
        Ok((_, t)) => {
            rep.attempt(true);
            rep.setup_samples.push(secs(t.setup));
        }
        Err(e) => rep.run_failed("try_run", &e),
    }
}

/// The single-run end-to-end pass.
fn single_e2e(w: Workload, seed: u64, seconds: f64, t0: Instant) -> Report {
    let mut rep = Report::default();
    let mut intervals: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<RunResult> = None;
    let mut setup_start = t0;
    for _ in 0..single_runs(w, seconds) {
        let Some((r, t)) = single_run(&mut rep, w, seed, Obs::disabled(), setup_start) else {
            break;
        };
        // paper_mtat's later runs reuse the pretrained agent, so only
        // the cold first run is a set-up sample.
        if w != Workload::PaperMtat || rep.setup_samples.is_empty() {
            rep.setup_samples.push(secs(t.setup));
        }
        intervals.push(t.tick_intervals_us());
        rep.digests.push(r.digest());
        first.get_or_insert(r);
        // paper_mtat would hit the agent cache here; run.py starts cold
        // processes for its set-up samples instead.
        if w != Workload::PaperMtat {
            for _ in 0..SETUPS_PER_RUN {
                setup_sample(&mut rep, w, seed, Instant::now());
            }
        }
        setup_start = Instant::now();
    }
    check_replay(&mut rep, "replay_digest");
    let Some(r) = first else {
        return rep;
    };
    let fast = fastest_window(&intervals, r.tick_secs, w.window_ticks());
    rep.set("sim_s_per_host_s", fast.sim_s_per_host_s);
    rep.set("tick_us_p50", fast.p50_us);
    rep.set(
        "slo_met_pct",
        (1.0 - r.violation_rate_after(GRACE_SECS)) * 100.0,
    );
    rep.set("be_throughput_mops", r.be_total_throughput() / 1e6);
    rep.set("be_min_np", r.fairness());
    rep.info.insert("runs", intervals.len() as f64);
    rep.info.insert(
        "tick_samples",
        intervals.iter().map(Vec::len).sum::<usize>() as f64,
    );
    rep.info.insert("windows", fast.windows as f64);

    // The default-seed run pinned in golden.json, unwrapped.
    let probe = experiment(w, w.default_seed(), PROBE_SECS, Obs::disabled());
    let mut policy = make_policy(w, &probe);
    match probe.try_run(policy.as_mut()) {
        Ok(r) => {
            rep.attempt(true);
            rep.probe_digest = Some(r.digest());
        }
        Err(e) => rep.run_failed("probe try_run", &e.to_string()),
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    rep
}

/// Span self time and span count per phase name.
type SpanTotals = BTreeMap<String, (u64, u64)>;

/// Adds `spans`' per-phase self time and counts into `into`.
fn add_spans(into: &mut SpanTotals, spans: &[mtat_obs::span::SpanRecord]) {
    for p in phase_totals(spans) {
        let e = into.entry(p.name).or_insert((0, 0));
        e.0 += p.self_ns;
        e.1 += p.count;
    }
}

/// Per-layer numbers from the spans of `runs` traced runs that drew
/// `events` sampler events.
fn span_layers(rep: &mut Report, spans: &SpanTotals, events: f64, runs: f64) {
    let self_ns = |name: &str| spans.get(name).map_or(0.0, |s| s.0 as f64);
    let count = |name: &str| spans.get(name).map_or(0.0, |s| s.1 as f64);
    let ticks = count("tick").max(1.0);
    let plans = count("ppm-plan");
    let per_plan = |name: &str| {
        if plans > 0.0 {
            self_ns(name) / plans
        } else {
            0.0
        }
    };
    rep.set("tiermem.sample_ns", self_ns("sample") / ticks);
    rep.set(
        "tiermem.sample_ns_per_event",
        if events > 0.0 {
            self_ns("sample") / events
        } else {
            0.0
        },
    );
    rep.set("core.track_ns", self_ns("track") / ticks);
    rep.set("ppe.enforce_ns", self_ns("ppe-enforce") / ticks);
    rep.set("ppe.adjust_ns", self_ns("adjust") / ticks);
    rep.set("ppe.refine_ns", self_ns("refine") / ticks);
    rep.set("tiermem.migrate_ns", self_ns("migrate") / ticks);
    rep.set("ppm.plan_ns_per_plan", per_plan("ppm-plan"));
    rep.set("rl.sac_forward_ns_per_plan", per_plan("sac-forward"));
    rep.set("ppm.anneal_ns_per_plan", per_plan("anneal"));
    rep.set("runner.tick_self_ns", self_ns("tick") / ticks);
    rep.set("runner.run_self_ns", self_ns("run") / runs.max(1.0));
}

/// Exact counts from a registry.
fn registry_counts(rep: &mut Report, reg: &Registry, migrated_bytes: u64) {
    let c = |name: &str| reg.counter(name) as f64;
    rep.set("runner.ticks", c("runner.ticks"));
    rep.set("ppm.plans", c("mtat.plans"));
    rep.set("ppe.migrated_gib", migrated_bytes as f64 / GIB);
    rep.set("ckpt.saves", c("ckpt.saves"));
    rep.set(
        "ckpt.save_us.p50",
        reg.histogram("ckpt.save_ns")
            .filter(|h| !h.is_empty())
            .map_or(0.0, |h| h.p50() as f64 / 1e3),
    );
    rep.set("runner.ppm_restarts", c("runner.ppm_restarts"));
    let requested = c("tiermem.migration.requested_pages");
    let completed = c("tiermem.migration.granted_pages") - c("tiermem.migration.failed_pages");
    rep.set(
        "ppe.move_success_ratio",
        if requested > 0.0 {
            completed / requested
        } else {
            0.0
        },
    );
}

/// Relative cost of `slow` over `fast`, in percent.
fn overhead_pct(slow: &[f64], fast: &[f64]) -> f64 {
    (median(slow) / median(fast) - 1.0) * 100.0
}

/// `rl.pretrain_updates_per_s`: pretraining throughput on a short
/// pretraining with the paper agent, built as `MtatPolicy` builds it.
fn pretrain_updates_per_s(w: Workload) -> f64 {
    let exp = experiment(w, w.default_seed(), 1.0, Obs::disabled());
    let cfg = LcPartitionerConfig {
        fmem_total: exp.cfg.mem.fmem_bytes(),
        max_step_bytes: exp.cfg.migration_bw * exp.cfg.interval_secs / 2.0,
        online_learning: true,
        explore: false,
    };
    let start = Instant::now();
    let p = LcPartitioner::pretrained(&exp.lc, cfg, PRETRAIN_PROBE_STEPS, MtatConfig::full().seed);
    p.agent().updates_done() as f64 / secs(start.elapsed())
}

/// `rl.sac_update_us`: median host time of one `Sac::update` at
/// `SacConfig::paper` on a filled replay buffer.
fn sac_update_us() -> f64 {
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
    let mut times = Vec::with_capacity(SAC_UPDATES);
    for _ in 0..SAC_UPDATES {
        let t = Instant::now();
        sac.update();
        times.push(secs(t.elapsed()) * 1e6);
    }
    median(&times)
}

/// Outside-timed layers of the untraced runs of a per-layer pass.
#[derive(Default)]
struct LayerTimes {
    init_ms: Vec<f64>,
    tick: Vec<f64>,
    boundary: Vec<f64>,
    between: Vec<f64>,
    intervals: Vec<Vec<f64>>,
    run_s: Vec<f64>,
}

impl LayerTimes {
    fn add(&mut self, t: &RunTiming) {
        self.init_ms.push(secs(t.init) * 1e3);
        self.tick.extend(t.on_tick_us(false));
        self.boundary.extend(t.on_tick_us(true));
        self.between.extend(t.between_ticks_us());
        self.intervals.push(t.tick_intervals_us());
        self.run_s.push(secs(t.run));
    }

    fn report(&self, rep: &mut Report) {
        let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        rep.set("runner.init_ms", or_zero(&self.init_ms));
        rep.set("policy.tick_us.p50", or_zero(&self.tick));
        rep.set("policy.boundary_tick_us.p50", or_zero(&self.boundary));
        rep.set("runner.between_ticks_us.p50", or_zero(&self.between));
        let tail = fastest_window(&self.intervals, 1.0, TAIL_WINDOW_TICKS);
        rep.set("tick_us_p90", tail.p90_us);
        rep.info.insert("windows", tail.windows as f64);
    }
}

/// The single-run per-layer pass.
fn single_layers(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    // Cold construction first: nothing is cached yet.
    let exp = experiment(w, seed, unit_secs(w), Obs::disabled());
    let start = Instant::now();
    drop(make_policy(w, &exp));
    rep.set("policy.construct_s", secs(start.elapsed()));
    let rl = w == Workload::PaperMtat;
    rep.set(
        "rl.pretrain_updates_per_s",
        if rl { pretrain_updates_per_s(w) } else { 0.0 },
    );
    rep.set("rl.sac_update_us", if rl { sac_update_us() } else { 0.0 });

    // Untraced and traced runs alternate, as many pairs as the
    // end-to-end pass has runs.
    let mut layers = LayerTimes::default();
    let mut traced = Vec::new();
    let mut traced_digests = Vec::new();
    let mut last_traced: Option<(Obs, RunResult)> = None;
    for _ in 0..single_runs(w, seconds) {
        let Some((r, t)) = single_run(&mut rep, w, seed, Obs::disabled(), Instant::now()) else {
            break;
        };
        layers.add(&t);
        rep.digests.push(r.digest());

        let obs = Obs::traced();
        let Some((r, t)) = single_run(&mut rep, w, seed, obs.clone(), Instant::now()) else {
            break;
        };
        traced.push(secs(t.run));
        traced_digests.push(r.digest());
        last_traced = Some((obs, r));
    }
    check_replay(&mut rep, "replay_digest");
    let untraced = rep.digests.first().copied();
    rep.check(
        "traced_digest_matches_untraced",
        !traced_digests.is_empty() && traced_digests.iter().all(|d| Some(*d) == untraced),
        format!("untraced {untraced:x?}, traced {traced_digests:x?}"),
    );
    layers.report(&mut rep);
    rep.set(
        "obs.trace_overhead_pct",
        overhead_pct(&traced, &layers.run_s),
    );
    rep.set("obs.metrics_overhead_pct", 0.0);
    if let Some((obs, r)) = last_traced {
        let mut spans = SpanTotals::new();
        obs.with_tracer(|t| add_spans(&mut spans, t.spans()));
        let events = obs.counter_value("tiermem.sampler.events").unwrap_or(0) as f64;
        span_layers(&mut rep, &spans, events, 1.0);
        let reg = obs.with_registry(Clone::clone).unwrap_or_default();
        registry_counts(&mut rep, &reg, r.total_migration_bytes);
    }
    for name in [
        "fleet.plan_s",
        "fleet.run_s",
        "fleet.anomaly_ms",
        "harness.parallel_efficiency",
    ] {
        rep.set(name, 0.0);
    }
    rep
}

/// paper_mtat's set-up-only process: a cold construction and a
/// one-tick run, timed from process start.
fn single_setup(w: Workload, seed: u64, t0: Instant) -> Report {
    let mut rep = Report::default();
    setup_sample(&mut rep, w, seed, t0);
    rep
}

fn plan(rep: &mut Report, seed: u64, shards: usize, metrics: bool) -> Option<Fleet> {
    match Fleet::plan(fleet_config(seed, shards, metrics)) {
        Ok(f) => Some(f),
        Err(e) => {
            rep.run_failed("Fleet::plan", &e.to_string());
            None
        }
    }
}

/// Checks a fleet result: every shard served traffic and ran every
/// tick.
fn check_fleet(rep: &mut Report, r: &FleetResult) {
    let ticks = FLEET_SECS as usize;
    let bad: Vec<usize> = r
        .shards
        .iter()
        .filter(|s| s.ticks != ticks || s.lc_requests <= 0.0)
        .map(|s| s.shard)
        .collect();
    rep.check(
        "fleet_shards_complete",
        bad.is_empty(),
        format!("bad shards {bad:?}"),
    );
}

/// Set-up samples after each fleet run.
fn fleet_setups(rep: &mut Report, seed: u64) {
    for _ in 0..SETUPS_PER_RUN {
        let setup_start = Instant::now();
        if plan(rep, seed, FLEET_SHARDS, true).is_some() {
            rep.setup_samples.push(secs(setup_start.elapsed()));
        }
    }
}

/// The fleet end-to-end pass. Each repetition plans the fleet, runs it
/// on the worker pool, times set-ups, then rebuilds every shard as a
/// single timed run (its digest must equal the fleet's) for the tick
/// statistics. Pool runs and rebuilds alternate, so that both sample
/// the whole pass and the host's slow spells fall in each.
fn fleet_e2e(seed: u64, seconds: f64, t0: Instant) -> Report {
    let mut rep = Report::default();
    let mut fastest_shard_s = vec![f64::INFINITY; FLEET_SHARDS];
    let mut fastest_p50 = vec![f64::INFINITY; FLEET_SHARDS];
    let mut tails_s = Vec::new();
    let mut first: Option<FleetResult> = None;
    let (mut runs, mut mismatched) = (0, 0);
    let mut setup_start = t0;
    'reps: for _ in 0..reps_for(seconds, FLEET_REP_HOST_S) {
        let Some(fleet) = plan(&mut rep, seed, FLEET_SHARDS, true) else {
            break;
        };
        rep.setup_samples.push(secs(setup_start.elapsed()));
        let (r, t) = match timed_fleet_run(&fleet, FLEET_WORKERS) {
            Ok(x) => {
                rep.attempt(true);
                x
            }
            Err(e) => {
                rep.run_failed("Fleet::run", &e);
                break;
            }
        };
        let detect = Instant::now();
        std::hint::black_box(anomaly::detect(&r.shards, &AnomalyConfig::default()));
        tails_s.push(secs(t.merge + detect.elapsed()));
        for (fastest, d) in fastest_shard_s.iter_mut().zip(&t.shards) {
            *fastest = fastest.min(secs(*d));
        }
        rep.digests.push(r.aggregate_digest);
        check_fleet(&mut rep, &r);
        let want = &first.get_or_insert(r).shards;
        fleet_setups(&mut rep, seed);

        // Every shard rebuilt as a single timed run: each shard's
        // fastest median tick, then the median over shards, so that
        // neither the host's slow spells nor the seed's choice of which
        // shards are hot decide the figure.
        for (shard, fastest) in fastest_p50.iter_mut().enumerate() {
            let (exp, policy) = shard_experiment(&fleet, shard);
            let now = Instant::now();
            match timed_run(&exp, policy, now) {
                Ok((out, t)) => {
                    rep.attempt(true);
                    mismatched += usize::from(out.digest() != want[shard].digest);
                    *fastest = fastest.min(median(&t.tick_intervals_us()));
                }
                Err(e) => {
                    rep.run_failed("try_run", &e);
                    break 'reps;
                }
            }
            runs += 1;
        }
        setup_start = Instant::now();
    }
    check_replay(&mut rep, "replay_digest");
    rep.check(
        "single_shard_digest_matches_fleet",
        mismatched == 0,
        format!("{mismatched} of {runs} single shard runs differ from the fleet's"),
    );
    let Some(r) = first else {
        return rep;
    };

    // Each shard's fastest pass through the pool, as the fastest window
    // of a single run: a fleet run whose every shard ran at its fastest,
    // its shards shared out over the workers, plus the median merge and
    // anomaly sweep.
    let host_s = fastest_shard_s.iter().sum::<f64>() / FLEET_WORKERS as f64 + median(&tails_s);
    rep.set(
        "sim_s_per_host_s",
        FLEET_SECS * FLEET_SHARDS as f64 / host_s,
    );
    rep.set("tick_us_p50", median(&fastest_p50));
    rep.set("slo_met_pct", (1.0 - r.violation_rate()) * 100.0);
    rep.set("be_throughput_mops", r.be_total_throughput() / 1e6);
    let full = fleet_be_perf_full();
    rep.set(
        "be_min_np",
        r.shards
            .iter()
            .map(|s| s.be_throughput / full)
            .fold(f64::INFINITY, f64::min),
    );
    rep.info.insert("fleet_runs", tails_s.len() as f64);
    rep.info.insert("single_shard_runs", runs as f64);

    if let Some(fleet) = plan(
        &mut rep,
        Workload::FleetChaos.default_seed(),
        PROBE_SHARDS,
        false,
    ) {
        match timed_fleet_run(&fleet, FLEET_WORKERS) {
            Ok((r, _)) => {
                rep.attempt(true);
                rep.probe_digest = Some(r.aggregate_digest);
            }
            Err(e) => rep.run_failed("probe Fleet::run", &e),
        }
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    rep
}

/// Median host seconds of `f` over `reps` calls, alternated with `g`:
/// returns `(median f, median g)`.
fn alternate(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (Vec<f64>, Vec<f64>) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        f();
        a.push(secs(t.elapsed()));
        let t = Instant::now();
        g();
        b.push(secs(t.elapsed()));
    }
    (a, b)
}

/// The fleet per-layer pass.
fn fleet_layers(seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let start = Instant::now();
    let Some(fleet) = plan(&mut rep, seed, FLEET_SHARDS, true) else {
        return rep;
    };
    rep.set("fleet.plan_s", secs(start.elapsed()));
    let (mut r, t) = match timed_fleet_run(&fleet, FLEET_WORKERS) {
        Ok(x) => {
            rep.attempt(true);
            x
        }
        Err(e) => {
            rep.run_failed("Fleet::run", &e);
            return rep;
        }
    };
    rep.set("fleet.run_s", secs(t.total));
    let start = Instant::now();
    let report = anomaly::detect(&r.shards, &AnomalyConfig::default());
    rep.set("fleet.anomaly_ms", secs(start.elapsed()) * 1e3);
    report.annotate(&mut r.registry);
    rep.digests.push(r.aggregate_digest);
    check_fleet(&mut rep, &r);
    registry_counts(&mut rep, &r.registry, r.total_migration_bytes());

    // Fixed subset: 1 vs 2 workers, and metrics on vs off.
    let subset_on = plan(&mut rep, seed, SUBSET_SHARDS, true);
    let subset_off = plan(&mut rep, seed, SUBSET_SHARDS, false);
    if let (Some(on), Some(off)) = (subset_on, subset_off) {
        let (one, two) = alternate(2, || drop(on.run(1)), || drop(on.run(FLEET_WORKERS)));
        rep.set(
            "harness.parallel_efficiency",
            median(&one) / median(&two) / FLEET_WORKERS as f64,
        );
        let (with, without) = alternate(3, || drop(on.run(1)), || drop(off.run(1)));
        rep.set("obs.metrics_overhead_pct", overhead_pct(&with, &without));
        rep.attempt(true);
    }

    // Shard 0 rebuilt as a timed single run for the outside-timed
    // layers, then shard 0 of the fleet untraced and traced: both through
    // `Fleet::run_shard`, so the trace overhead compares the same span
    // (shard set-up, run and export). Every digest must equal the
    // fleet's.
    let mut traced_cfg = fleet_config(seed, FLEET_SHARDS, true);
    traced_cfg.trace_shard = Some(0);
    match Fleet::plan(traced_cfg) {
        Ok(traced_fleet) => {
            let mut layers = LayerTimes::default();
            let (mut untraced, mut traced, mut digests) = (Vec::new(), Vec::new(), Vec::new());
            let (mut spans, mut events) = (SpanTotals::new(), 0.0);
            for _ in 0..reps_for(seconds, FLEET_SHARD0_HOST_S) {
                let (exp, policy) = shard_experiment(&fleet, 0);
                let now = Instant::now();
                let a = match timed_run(&exp, policy, now) {
                    Ok((a, t)) => {
                        rep.attempt(true);
                        layers.add(&t);
                        a
                    }
                    Err(e) => {
                        rep.run_failed("try_run", &e);
                        break;
                    }
                };
                let t = Instant::now();
                let u = fleet.run_shard(0);
                untraced.push(secs(t.elapsed()));
                let t = Instant::now();
                let b = traced_fleet.run_shard(0);
                traced.push(secs(t.elapsed()));
                rep.attempt(true);
                rep.attempt(true);
                digests.push((a.digest(), u.digest, b.digest));
                match b.trace.as_deref().map(mtat_bench::trace::parse_trace) {
                    Some(Ok(doc)) => add_spans(&mut spans, &doc.spans),
                    _ => rep.check("shard_trace_parses", false, "no trace document".into()),
                }
                events += b
                    .registry
                    .as_ref()
                    .map_or(0, |g| g.counter("tiermem.sampler.events"))
                    as f64;
            }
            span_layers(&mut rep, &spans, events, traced.len() as f64);
            layers.report(&mut rep);
            let fleet_digest = r.shards.first().map(|s| s.digest);
            let ok = !digests.is_empty()
                && digests
                    .iter()
                    .all(|&(a, u, b)| Some(a) == fleet_digest && u == a && b == a);
            rep.check(
                "traced_digest_matches_untraced",
                ok,
                format!("shard 0 (single run, untraced, traced): {digests:x?}"),
            );
            rep.set("obs.trace_overhead_pct", overhead_pct(&traced, &untraced));
        }
        Err(e) => rep.run_failed("Fleet::plan", &e.to_string()),
    }
    for name in [
        "policy.construct_s",
        "rl.pretrain_updates_per_s",
        "rl.sac_update_us",
    ] {
        rep.set(name, 0.0);
    }
    rep
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <paper_mtat|memtis_steady|fleet_chaos> <e2e|layers|setup> SEED SECONDS"
    );
    std::process::exit(2);
}

fn main() {
    let t0 = Instant::now();
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    if let Some(var) = forbidden_env() {
        eprintln!("perfbench: refusing to run with {var} set; unset it");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 4 {
        usage();
    }
    let workload = Workload::parse(&args[0]).unwrap_or_else(|| usage());
    let seed: u64 = args[2].parse().unwrap_or_else(|_| usage());
    let seconds: f64 = args[3].parse().unwrap_or_else(|_| usage());
    let mode = args[1].as_str();
    let rep = match (workload, mode) {
        (Workload::FleetChaos, "e2e") => fleet_e2e(seed, seconds, t0),
        (Workload::FleetChaos, "layers") => fleet_layers(seed, seconds),
        (w, "e2e") => single_e2e(w, seed, seconds, t0),
        (w, "layers") => single_layers(w, seed, seconds),
        (Workload::PaperMtat, "setup") => single_setup(Workload::PaperMtat, seed, t0),
        _ => usage(),
    };
    println!("{}", rep.to_json(workload, mode));
}
