//! Byte identity of SAC training across the paths of `join`.
//!
//! `Sac::update` runs its twin critics through `mtat_rl::join`, which
//! hands one critic to a process-wide helper thread when it is free and
//! runs both inline otherwise. Training several agents at once on several
//! threads makes them contend for the one helper, so some of their
//! updates take the helper and some the inline fallback. Every agent's
//! `Snap` bytes must equal those of the same agent trained alone, with
//! the helper and, as a reference, entirely inline (training inside the
//! second closure of a `join` holds the helper, so every nested `join`
//! falls back inline).

use std::thread;

use mtat_rl::env::SetPointEnv;
use mtat_rl::join;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_snapshot::{Snap, SnapWriter};
use proptest::prelude::*;

/// One agent to train: its configuration, seed and step count.
#[derive(Clone)]
struct Job {
    cfg: SacConfig,
    seed: u64,
    steps: usize,
}

/// Trains the agent on a set-point task and returns its `Snap` bytes.
fn train(job: &Job) -> Vec<u8> {
    let mut env = SetPointEnv::new(0.6, 25);
    let mut agent = Sac::new(job.cfg.clone(), job.seed);
    agent.train(&mut env, job.steps);
    assert!(agent.updates_done() > 0, "the agent must learn");
    let mut w = SnapWriter::new();
    agent.snap(&mut w);
    w.into_bytes()
}

/// Small agents updating every step, plus one paper-sized agent.
fn jobs(seed: u64, small: usize, steps: usize, batch: usize) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..small as u64)
        .map(|i| {
            let mut cfg = SacConfig::small(1, 1);
            cfg.warmup = 32;
            cfg.batch_size = batch;
            Job {
                cfg,
                seed: seed.wrapping_add(i),
                steps: steps + 7 * i as usize,
            }
        })
        .collect();
    let mut paper = SacConfig::paper(1, 1);
    paper.warmup = 64;
    paper.update_every = 2;
    jobs.push(Job {
        cfg: paper,
        seed: seed ^ 0x9E37,
        steps: 64 + steps / 2,
    });
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn concurrent_agents_match_agents_trained_alone(
        seed in 0u64..1_000_000,
        small in 1usize..4,
        steps in 80usize..200,
        batch in 8usize..40,
    ) {
        let jobs = jobs(seed, small, steps, batch);
        let inline: Vec<Vec<u8>> = join(|| (), || jobs.iter().map(train).collect()).1;
        let alone: Vec<Vec<u8>> = jobs.iter().map(train).collect();
        let together: Vec<Vec<u8>> = thread::scope(|s| {
            let handles: Vec<_> = jobs.iter().map(|j| s.spawn(move || train(j))).collect();
            handles.into_iter().map(|h| h.join().expect("training panicked")).collect()
        });
        for (i, ((a, b), c)) in inline.iter().zip(&alone).zip(&together).enumerate() {
            prop_assert!(a == b, "agent {i}: helper-run bytes differ from inline");
            prop_assert!(a == c, "agent {i}: bytes trained under contention differ");
        }
    }
}
