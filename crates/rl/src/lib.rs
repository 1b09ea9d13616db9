//! # mtat-rl — Soft Actor-Critic for the MTAT partition policy maker
//!
//! MTAT's PP-M chooses the LC workload's FMem allocation with a Soft
//! Actor-Critic (SAC) agent (Algorithm 1 of the paper): twin Q-networks
//! as the critic, a tanh-squashed Gaussian policy as the actor, a replay
//! buffer of `(s, α, r, s′)` transitions, and soft target-network
//! updates. The state is three-dimensional (FMem Usage Ratio, FMem
//! Access Ratio, Memory Access Count) and the action is the scalar net
//! change in FMem, clipped to `[−M/2t, +M/2t]` (Eq. 1).
//!
//! This crate implements SAC generically over [`env::Environment`] so it
//! can be unit-tested on toy control problems and reused by
//! `mtat-core`'s partitioner:
//!
//! * [`replay::ReplayBuffer`] — uniform-sampling experience replay.
//! * [`policy::GaussianPolicy`] — squashed-Gaussian actor with exact
//!   reparameterized gradients (hand-derived; finite-difference tested).
//! * [`sac::Sac`] — the full agent: critic regression against the soft
//!   Bellman target, actor update through `min(Q1, Q2)`, optional
//!   automatic entropy-temperature tuning.
//! * [`join()`] — the two-way fork-join that runs the twin critics of
//!   each update on two cores.
//!
//! ## Example
//!
//! ```
//! use mtat_rl::sac::{Sac, SacConfig};
//!
//! let cfg = SacConfig::small(3, 1);
//! let mut agent = Sac::new(cfg, 42);
//! let state = vec![0.5, 0.2, 0.1];
//! let action = agent.act(&state);
//! assert_eq!(action.len(), 1);
//! assert!(action[0] >= -1.0 && action[0] <= 1.0);
//! ```

pub mod env;
pub mod join;
pub mod policy;
pub mod replay;
pub mod sac;

pub use env::Environment;
pub use join::join;
pub use policy::GaussianPolicy;
pub use replay::{ReplayBuffer, Transition};
pub use sac::{Sac, SacConfig};
