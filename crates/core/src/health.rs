//! Self-healing runtime: health state machine and recovery directives.
//!
//! The invariant auditor ([`mtat_tiermem::audit`]) and the degradation
//! supervisor ([`crate::supervisor`]) *detect* trouble; until now the
//! runner's only response to a detected violation was to abort the run.
//! This module closes the loop: a [`HealthMonitor`] folds every
//! detection surface — NaN/poison sentinels over PP-M's numeric state,
//! audit violations, per-tick watchdog overruns, SLO-violation streaks —
//! into a four-state health machine and answers each incident with a
//! [`Directive`] the runner executes autonomously:
//!
//! ```text
//!            slo streak                 incident -> rollback
//!  Healthy ─────────────► Degraded          │
//!     ▲  ◄───────────────    │              ▼
//!     │     clean tick       │         Recovering ──► Healthy
//!     │                      │              │   (clean window)
//!     └──────────────────────┘              │
//!                 budget exhausted          ▼
//!  Quarantined ◄──────────────────── (any rollback path)
//! ```
//!
//! * **Healthy** — all sentinels quiet. Checkpoints captured in this
//!   state (and passing the policy's own probe) are *known-good*:
//!   rollback targets.
//! * **Degraded** — the SLO-violation streak crossed the threshold.
//!   Not an incident by itself (the supervisor ladder already handles
//!   it), but checkpoints taken here are no longer marked known-good.
//! * **Recovering** — a rollback just completed; the monitor waits a
//!   clean window before trusting the restored state.
//! * **Quarantined** — the rollback budget is exhausted. Terminal but
//!   *contained*: the supervisor is latched at its Static rung, poison
//!   scans stop (the poisoned agent is parked, not consulted), and the
//!   run continues on the trustworthy fallback instead of crashing.
//!
//! Every decision is driven by simulated time only, so a run with the
//! health subsystem enabled replays bit-identically from the same seed.

use std::collections::VecDeque;

/// Current position in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// All sentinels quiet; checkpoints are known-good candidates.
    Healthy,
    /// SLO-violation streak active; state is suspect but functional.
    Degraded,
    /// Rollback budget exhausted; parked on the Static fallback.
    Quarantined,
    /// Post-rollback probation until a clean window elapses.
    Recovering,
}

impl HealthState {
    /// Compact label for logs and JSONL events.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovering => "recovering",
        }
    }
}

/// What the runner does when the monitor reports an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Full self-healing: repair accounting, roll back to the last
    /// known-good checkpoint, re-enter via the supervisor ladder.
    SelfHeal,
    /// Ablation arm: the daemon crash-stops permanently on the first
    /// incident (PP-E keeps enforcing the last plan).
    CrashStop,
    /// Ablation arm: accounting is repaired but the poisoned policy is
    /// left in place — detection without recovery.
    NoRollback,
}

impl RecoveryMode {
    /// Compact label for logs and matrix row names.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryMode::SelfHeal => "selfheal",
            RecoveryMode::CrashStop => "crashstop",
            RecoveryMode::NoRollback => "norollback",
        }
    }
}

/// Health subsystem thresholds.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// What recovery the runner performs on an incident.
    pub recovery: RecoveryMode,
    /// Maximum rollbacks inside any sliding `budget_window_secs` window
    /// before the monitor escalates to quarantine.
    pub rollback_budget: u32,
    /// Width of the rollback-budget sliding window (seconds, sim time).
    pub budget_window_secs: f64,
    /// Incidents arriving within this long after a completed rollback
    /// are answered with [`Directive::Repair`] instead of a second
    /// rollback — hysteresis against rollback storms while the restored
    /// state warms back up.
    pub hysteresis_secs: f64,
    /// Clean ticks required in [`HealthState::Recovering`] before the
    /// monitor returns to [`HealthState::Healthy`].
    pub recovering_ticks: u32,
    /// Consecutive SLO-violating ticks before Healthy degrades.
    pub degraded_slo_streak: u32,
    /// A tick whose wall-clock budget is stretched beyond this factor
    /// (driven by the simulated clock-skew fault) counts as a watchdog
    /// overrun.
    pub watchdog_budget_factor: f64,
    /// Consecutive overrun ticks before the watchdog raises an incident.
    pub watchdog_streak: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            recovery: RecoveryMode::SelfHeal,
            rollback_budget: 3,
            budget_window_secs: 600.0,
            hysteresis_secs: 15.0,
            recovering_ticks: 10,
            degraded_slo_streak: 8,
            watchdog_budget_factor: 2.5,
            watchdog_streak: 3,
        }
    }
}

impl HealthConfig {
    /// Default self-healing configuration.
    pub fn self_heal() -> Self {
        Self::default()
    }

    /// Crash-stop ablation arm.
    pub fn crash_stop() -> Self {
        Self {
            recovery: RecoveryMode::CrashStop,
            ..Self::default()
        }
    }

    /// Detection-without-recovery ablation arm.
    pub fn no_rollback() -> Self {
        Self {
            recovery: RecoveryMode::NoRollback,
            ..Self::default()
        }
    }

    /// Overrides the rollback budget.
    pub fn with_budget(mut self, budget: u32, window_secs: f64) -> Self {
        self.rollback_budget = budget;
        self.budget_window_secs = window_secs;
        self
    }

    /// Overrides the post-rollback hysteresis window.
    pub fn with_hysteresis(mut self, secs: f64) -> Self {
        self.hysteresis_secs = secs;
        self
    }
}

/// A detected fault the monitor must answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incident {
    /// A NaN/poison sentinel fired; the payload names the surface
    /// (e.g. `"sac_actor_params"`, `"plan_fraction"`).
    Poison(String),
    /// The runtime invariant auditor found a conservation violation.
    AuditViolation(String),
    /// The per-tick watchdog saw a sustained budget overrun.
    WatchdogOverrun,
}

impl Incident {
    /// Compact label for events and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Incident::Poison(_) => "poison",
            Incident::AuditViolation(_) => "audit_violation",
            Incident::WatchdogOverrun => "watchdog_overrun",
        }
    }

    /// Human-readable detail string.
    pub fn detail(&self) -> String {
        match self {
            Incident::Poison(surface) => surface.clone(),
            Incident::AuditViolation(v) => v.clone(),
            Incident::WatchdogOverrun => "tick budget overrun".to_string(),
        }
    }
}

/// What the runner must do in response to an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// No action needed.
    Continue,
    /// Repair memory accounting in place; do not touch the policy.
    Repair,
    /// Full rollback: repair accounting, restore the last known-good
    /// checkpoint, re-enter via the supervisor ladder.
    Rollback,
    /// Budget exhausted: latch the supervisor at Static, stop poison
    /// scans, keep running contained.
    Quarantine,
    /// Crash-stop arm: take the daemon down permanently.
    CrashStop,
}

/// One entry of the health event log — the soak harness serializes
/// these to JSONL and CI uploads them as an artifact.
#[derive(Debug, Clone)]
pub struct HealthEvent {
    /// Simulation time of the event (seconds).
    pub at_secs: f64,
    /// Event kind (`state_change`, `incident`, `rollback`, `repair`, …).
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
    /// Health state *after* the event.
    pub state: HealthState,
}

impl HealthEvent {
    /// Renders the event as one JSON line (hand-rolled, like all JSON in
    /// the workspace).
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"t\":{:.3},\"kind\":\"{}\",\"detail\":\"{}\",\"state\":\"{}\"}}",
            self.at_secs,
            escape_json(&self.kind),
            escape_json(&self.detail),
            self.state.label()
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// End-of-run health accounting, attached to
/// [`crate::stats::RunResult`] when the subsystem is enabled.
#[derive(Debug, Clone)]
pub struct HealthSummary {
    /// Completed rollbacks.
    pub rollbacks: u32,
    /// In-place accounting repairs (including hysteresis-suppressed
    /// rollbacks).
    pub repairs: u32,
    /// Poison-sentinel incidents raised.
    pub poison_incidents: u32,
    /// Audit-violation incidents raised.
    pub audit_incidents: u32,
    /// Watchdog overrun ticks observed.
    pub watchdog_overruns: u32,
    /// Incidents that received no recovery (crash-stop / no-rollback
    /// arms). Zero in a healthy self-healing run.
    pub unrecovered: u32,
    /// Whether the run ended quarantined.
    pub quarantined: bool,
    /// Health state at end of run.
    pub final_state: HealthState,
    /// Whether the final full audit of the memory substrate passed.
    pub final_audit_ok: bool,
    /// The complete event log, oldest first.
    pub events: Vec<HealthEvent>,
}

/// The health state machine. Owned by the experiment runner; fed once
/// per tick and consulted whenever a sentinel fires.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    state: HealthState,
    /// Completion times of rollbacks inside the sliding budget window.
    rollback_window: VecDeque<f64>,
    last_rollback_at: Option<f64>,
    slo_streak: u32,
    watchdog_streak: u32,
    recover_left: u32,
    rollbacks: u32,
    repairs: u32,
    poison_incidents: u32,
    audit_incidents: u32,
    watchdog_overruns: u32,
    unrecovered: u32,
    events: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// A monitor starting Healthy.
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            state: HealthState::Healthy,
            rollback_window: VecDeque::new(),
            last_rollback_at: None,
            slo_streak: 0,
            watchdog_streak: 0,
            recover_left: 0,
            rollbacks: 0,
            repairs: 0,
            poison_incidents: 0,
            audit_incidents: 0,
            watchdog_overruns: 0,
            unrecovered: 0,
            events: Vec::new(),
        }
    }

    /// Current health state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The configured recovery mode.
    pub fn recovery(&self) -> RecoveryMode {
        self.cfg.recovery
    }

    /// Whether the run is parked in quarantine. Sentinel scans stop
    /// here: the poisoned agent is contained, not consulted.
    pub fn is_quarantined(&self) -> bool {
        self.state == HealthState::Quarantined
    }

    /// Whether a checkpoint captured *now* may be marked known-good.
    /// Only Healthy qualifies: Degraded/Recovering state might already
    /// carry the seed of the next incident.
    pub fn checkpoint_trustworthy(&self) -> bool {
        self.state == HealthState::Healthy
    }

    fn transition(&mut self, now_secs: f64, to: HealthState, why: &str) {
        if to == self.state {
            return;
        }
        self.state = to;
        self.push_event(now_secs, "state_change", why);
    }

    fn push_event(&mut self, now_secs: f64, kind: &str, detail: &str) {
        self.events.push(HealthEvent {
            at_secs: now_secs,
            kind: kind.to_string(),
            detail: detail.to_string(),
            state: self.state,
        });
    }

    /// Per-tick observation: SLO outcome of the tick and the effective
    /// clock-skew factor (1.0 nominal; the simulated stand-in for a
    /// wall-clock tick-budget watchdog, so replays stay bit-identical).
    /// Returns a watchdog incident when the overrun streak crosses the
    /// threshold.
    pub fn observe_tick(
        &mut self,
        now_secs: f64,
        slo_violated: bool,
        clock_skew_factor: f64,
    ) -> Option<Incident> {
        // SLO streak drives Healthy <-> Degraded.
        if slo_violated {
            self.slo_streak = self.slo_streak.saturating_add(1);
        } else {
            self.slo_streak = 0;
        }
        match self.state {
            HealthState::Healthy => {
                if self.slo_streak >= self.cfg.degraded_slo_streak {
                    self.transition(now_secs, HealthState::Degraded, "slo violation streak");
                }
            }
            HealthState::Degraded => {
                if self.slo_streak == 0 {
                    self.transition(now_secs, HealthState::Healthy, "slo streak cleared");
                }
            }
            HealthState::Recovering => {
                self.recover_left = self.recover_left.saturating_sub(1);
                if self.recover_left == 0 {
                    self.transition(now_secs, HealthState::Healthy, "recovery window clean");
                }
            }
            HealthState::Quarantined => {}
        }

        // Watchdog: sustained tick-budget overruns raise an incident.
        if clock_skew_factor > self.cfg.watchdog_budget_factor {
            self.watchdog_overruns += 1;
            self.watchdog_streak += 1;
            if self.state != HealthState::Quarantined
                && self.watchdog_streak >= self.cfg.watchdog_streak
            {
                self.watchdog_streak = 0;
                return Some(Incident::WatchdogOverrun);
            }
        } else {
            self.watchdog_streak = 0;
        }
        None
    }

    /// Answers an incident with the directive the runner must execute.
    pub fn on_incident(&mut self, now_secs: f64, incident: &Incident) -> Directive {
        match incident {
            Incident::Poison(_) => self.poison_incidents += 1,
            Incident::AuditViolation(_) => self.audit_incidents += 1,
            Incident::WatchdogOverrun => {}
        }
        self.push_event(
            now_secs,
            "incident",
            &format!("{}: {}", incident.label(), incident.detail()),
        );

        // Quarantine is terminal containment: accounting faults are
        // still repaired so the substrate stays consistent, but the
        // policy is never rolled back again.
        if self.state == HealthState::Quarantined {
            return Directive::Repair;
        }
        match self.cfg.recovery {
            RecoveryMode::CrashStop => {
                self.unrecovered += 1;
                self.push_event(now_secs, "crash_stop", incident.label());
                Directive::CrashStop
            }
            RecoveryMode::NoRollback => {
                self.unrecovered += 1;
                self.repairs += 1;
                self.push_event(now_secs, "repair", "no-rollback arm: accounting only");
                Directive::Repair
            }
            RecoveryMode::SelfHeal => {
                // Hysteresis: an incident hot on the heels of a rollback
                // gets a repair, not another rollback — the restored
                // state needs room to warm up.
                if let Some(last) = self.last_rollback_at {
                    if now_secs - last < self.cfg.hysteresis_secs {
                        self.repairs += 1;
                        self.push_event(now_secs, "repair", "hysteresis: recent rollback");
                        return Directive::Repair;
                    }
                }
                // Sliding-window rollback budget.
                while let Some(&t) = self.rollback_window.front() {
                    if now_secs - t > self.cfg.budget_window_secs {
                        self.rollback_window.pop_front();
                    } else {
                        break;
                    }
                }
                if self.rollback_window.len() as u32 >= self.cfg.rollback_budget {
                    self.transition(
                        now_secs,
                        HealthState::Quarantined,
                        "rollback budget exhausted",
                    );
                    self.push_event(now_secs, "quarantine", "supervisor latched at static");
                    return Directive::Quarantine;
                }
                Directive::Rollback
            }
        }
    }

    /// Records a completed rollback and enters the probation window.
    pub fn on_rollback_complete(&mut self, now_secs: f64, restored_gen: Option<u64>) {
        self.rollbacks += 1;
        self.rollback_window.push_back(now_secs);
        self.last_rollback_at = Some(now_secs);
        self.recover_left = self.cfg.recovering_ticks.max(1);
        self.slo_streak = 0;
        self.watchdog_streak = 0;
        let detail = match restored_gen {
            Some(g) => format!("restored checkpoint generation {g}"),
            None => "cold restart (no known-good checkpoint)".to_string(),
        };
        self.state = HealthState::Recovering;
        self.push_event(now_secs, "rollback", &detail);
    }

    /// Records an in-place accounting repair executed by the runner.
    pub fn note_repair(&mut self, now_secs: f64, counters_fixed: u32) {
        self.repairs += 1;
        self.push_event(
            now_secs,
            "repair",
            &format!("accounting repair: {counters_fixed} counters"),
        );
    }

    /// Count of incidents that received no recovery.
    pub fn unrecovered(&self) -> u32 {
        self.unrecovered
    }

    /// End-of-run summary. `final_audit_ok` is the outcome of the
    /// runner's final full audit of the memory substrate.
    pub fn summary(&self, final_audit_ok: bool) -> HealthSummary {
        HealthSummary {
            rollbacks: self.rollbacks,
            repairs: self.repairs,
            poison_incidents: self.poison_incidents,
            audit_incidents: self.audit_incidents,
            watchdog_overruns: self.watchdog_overruns,
            unrecovered: self.unrecovered,
            quarantined: self.state == HealthState::Quarantined,
            final_state: self.state,
            final_audit_ok,
            events: self.events.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(HealthConfig::default())
    }

    #[test]
    fn slo_streak_degrades_and_clean_tick_restores() {
        let mut m = monitor();
        for i in 0..7 {
            assert!(m.observe_tick(i as f64, true, 1.0).is_none());
            assert_eq!(m.state(), HealthState::Healthy);
        }
        m.observe_tick(7.0, true, 1.0); // 8th consecutive violation
        assert_eq!(m.state(), HealthState::Degraded);
        m.observe_tick(8.0, false, 1.0);
        assert_eq!(m.state(), HealthState::Healthy);
    }

    #[test]
    fn watchdog_requires_sustained_overrun() {
        let mut m = monitor();
        // Two overruns, then a clean tick: streak resets, no incident.
        assert!(m.observe_tick(0.0, false, 3.0).is_none());
        assert!(m.observe_tick(1.0, false, 3.0).is_none());
        assert!(m.observe_tick(2.0, false, 1.0).is_none());
        // Three sustained overruns raise the incident.
        assert!(m.observe_tick(3.0, false, 3.0).is_none());
        assert!(m.observe_tick(4.0, false, 3.0).is_none());
        let inc = m.observe_tick(5.0, false, 3.0);
        assert_eq!(inc, Some(Incident::WatchdogOverrun));
        assert_eq!(m.summary(true).watchdog_overruns, 5);
    }

    #[test]
    fn self_heal_rolls_back_then_hysteresis_represses() {
        let mut m = monitor();
        let inc = Incident::Poison("sac_actor_params".into());
        assert_eq!(m.on_incident(100.0, &inc), Directive::Rollback);
        m.on_rollback_complete(100.0, Some(4));
        assert_eq!(m.state(), HealthState::Recovering);
        // Within hysteresis (15 s): repair, not a second rollback.
        assert_eq!(m.on_incident(105.0, &inc), Directive::Repair);
        // Past hysteresis: rollback again.
        assert_eq!(m.on_incident(130.0, &inc), Directive::Rollback);
        let s = m.summary(true);
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.poison_incidents, 3);
        assert_eq!(s.unrecovered, 0);
    }

    #[test]
    fn budget_exhaustion_quarantines_and_contains() {
        let cfg = HealthConfig::default()
            .with_budget(2, 1000.0)
            .with_hysteresis(0.0);
        let mut m = HealthMonitor::new(cfg);
        let inc = Incident::AuditViolation("popularity drift".into());
        assert_eq!(m.on_incident(10.0, &inc), Directive::Rollback);
        m.on_rollback_complete(10.0, Some(1));
        assert_eq!(m.on_incident(50.0, &inc), Directive::Rollback);
        m.on_rollback_complete(50.0, Some(1));
        // Third incident inside the window: budget (2) exhausted.
        assert_eq!(m.on_incident(90.0, &inc), Directive::Quarantine);
        assert!(m.is_quarantined());
        // Quarantine is terminal: further incidents only repair, and
        // clean ticks never promote back to Healthy.
        assert_eq!(m.on_incident(95.0, &inc), Directive::Repair);
        for i in 0..100 {
            m.observe_tick(100.0 + i as f64, false, 1.0);
        }
        assert!(m.is_quarantined());
        let s = m.summary(true);
        assert!(s.quarantined);
        assert_eq!(s.rollbacks, 2);
    }

    #[test]
    fn budget_window_slides() {
        let cfg = HealthConfig::default()
            .with_budget(1, 100.0)
            .with_hysteresis(0.0);
        let mut m = HealthMonitor::new(cfg);
        let inc = Incident::Poison("p".into());
        assert_eq!(m.on_incident(0.0, &inc), Directive::Rollback);
        m.on_rollback_complete(0.0, None);
        // 200 s later the old rollback has left the window.
        assert_eq!(m.on_incident(200.0, &inc), Directive::Rollback);
    }

    #[test]
    fn ablation_arms_do_not_recover() {
        let mut crash = HealthMonitor::new(HealthConfig::crash_stop());
        let inc = Incident::Poison("p".into());
        assert_eq!(crash.on_incident(5.0, &inc), Directive::CrashStop);
        assert_eq!(crash.unrecovered(), 1);

        let mut norb = HealthMonitor::new(HealthConfig::no_rollback());
        assert_eq!(norb.on_incident(5.0, &inc), Directive::Repair);
        assert_eq!(norb.on_incident(6.0, &inc), Directive::Repair);
        assert_eq!(norb.unrecovered(), 2);
        assert_eq!(norb.summary(true).repairs, 2);
    }

    #[test]
    fn recovering_returns_to_healthy_after_clean_window() {
        let mut m = monitor();
        m.on_rollback_complete(10.0, Some(2));
        assert!(!m.checkpoint_trustworthy());
        for i in 0..9 {
            m.observe_tick(11.0 + i as f64, false, 1.0);
            assert_eq!(m.state(), HealthState::Recovering);
        }
        m.observe_tick(20.0, false, 1.0);
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(m.checkpoint_trustworthy());
    }

    #[test]
    fn events_render_as_json_lines() {
        let mut m = monitor();
        m.on_incident(1.5, &Incident::Poison("plan \"q\"".into()));
        m.on_rollback_complete(1.5, Some(7));
        let s = m.summary(true);
        assert!(s.events.len() >= 2);
        let line = s.events[0].jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\\\"q\\\""), "{line}");
        assert!(s.events.iter().any(|e| e.kind == "rollback"));
    }
}
