//! Experience replay buffer.

use rand::rngs::StdRng;
use rand::Rng;

/// One `(s, α, r, s′, done)` transition, as stored by Algorithm 1's
/// `D.store(s, α_clip, r, s_next, done)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f64>,
    /// The (clipped) action taken.
    pub action: Vec<f64>,
    /// Reward received.
    pub reward: f64,
    /// State after the action.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated.
    pub done: bool,
}

/// A fixed-capacity ring buffer of transitions with uniform sampling.
///
/// Transitions are stored flat, one row per transition in each of five
/// arrays, so a stored transition costs its numbers and nothing more,
/// and a minibatch is gathered by copying rows. The state and action
/// widths are fixed by the first transition stored.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    state_dim: usize,
    action_dim: usize,
    rows: Minibatch,
    next: usize,
}

/// Transitions in row-major arrays, one row each: the storage of a
/// [`ReplayBuffer`] and the minibatch that
/// [`ReplayBuffer::sample_into`] gathers.
#[derive(Debug, Clone, Default)]
pub struct Minibatch {
    /// States, `rows × state_dim`.
    pub states: Vec<f64>,
    /// Actions, `rows × action_dim`.
    pub actions: Vec<f64>,
    /// Rewards, one per row.
    pub rewards: Vec<f64>,
    /// Next states, `rows × state_dim`.
    pub next_states: Vec<f64>,
    /// Episode-end flags, one per row.
    pub dones: Vec<bool>,
}

impl Minibatch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// Returns `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    fn clear(&mut self) {
        self.states.clear();
        self.actions.clear();
        self.rewards.clear();
        self.next_states.clear();
        self.dones.clear();
    }

    /// Appends row `i` of `src` (widths `sd`, `ad`).
    fn push_row(&mut self, src: &Minibatch, i: usize, (sd, ad): (usize, usize)) {
        self.states
            .extend_from_slice(&src.states[i * sd..(i + 1) * sd]);
        self.actions
            .extend_from_slice(&src.actions[i * ad..(i + 1) * ad]);
        self.rewards.push(src.rewards[i]);
        self.next_states
            .extend_from_slice(&src.next_states[i * sd..(i + 1) * sd]);
        self.dones.push(src.dones[i]);
    }
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be nonzero");
        Self {
            capacity,
            state_dim: 0,
            action_dim: 0,
            rows: Minibatch::default(),
            next: 0,
        }
    }

    /// Stores a transition, evicting the oldest once full.
    ///
    /// # Panics
    ///
    /// Panics if its state or action width differs from the first
    /// transition stored.
    pub fn push(&mut self, t: Transition) {
        if self.is_empty() {
            self.state_dim = t.state.len();
            self.action_dim = t.action.len();
        }
        let (sd, ad) = (self.state_dim, self.action_dim);
        assert!(
            t.state.len() == sd && t.next_state.len() == sd && t.action.len() == ad,
            "transition shape differs from the buffer's"
        );
        let r = &mut self.rows;
        if r.len() < self.capacity {
            r.states.extend_from_slice(&t.state);
            r.actions.extend_from_slice(&t.action);
            r.rewards.push(t.reward);
            r.next_states.extend_from_slice(&t.next_state);
            r.dones.push(t.done);
        } else {
            let i = self.next;
            r.states[i * sd..(i + 1) * sd].copy_from_slice(&t.state);
            r.actions[i * ad..(i + 1) * ad].copy_from_slice(&t.action);
            r.rewards[i] = t.reward;
            r.next_states[i * sd..(i + 1) * sd].copy_from_slice(&t.next_state);
            r.dones[i] = t.done;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Maximum number of transitions the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// State and action widths of the stored transitions (zero while
    /// empty).
    fn dims(&self) -> (usize, usize) {
        (self.state_dim, self.action_dim)
    }

    /// Replaces `out` with `n` transitions sampled uniformly with
    /// replacement, one row each in draw order. Reusing `out` across
    /// calls keeps sampling free of heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn sample_into(&self, rng: &mut StdRng, n: usize, out: &mut Minibatch) {
        assert!(!self.is_empty(), "cannot sample from an empty buffer");
        out.clear();
        for _ in 0..n {
            let i = rng.gen_range(0..self.len());
            out.push_row(&self.rows, i, self.dims());
        }
    }
}

impl mtat_snapshot::Snap for Transition {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.state.snap(w);
        self.action.snap(w);
        self.reward.snap(w);
        self.next_state.snap(w);
        self.done.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            state: Vec::unsnap(r)?,
            action: Vec::unsnap(r)?,
            reward: f64::unsnap(r)?,
            next_state: Vec::unsnap(r)?,
            done: bool::unsnap(r)?,
        })
    }
}

/// Encoded as the list of stored transitions, each as a [`Transition`],
/// in slot order. The ring write pointer `next` travels with the
/// contents — a restored buffer must evict the same slots the crashed
/// one would have, or replay sampling diverges once the buffer wraps.
impl mtat_snapshot::Snap for ReplayBuffer {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.capacity.snap(w);
        let (sd, ad) = self.dims();
        let r = &self.rows;
        w.put_u64(r.len() as u64);
        for i in 0..r.len() {
            snap_row(&r.states[i * sd..(i + 1) * sd], w);
            snap_row(&r.actions[i * ad..(i + 1) * ad], w);
            r.rewards[i].snap(w);
            snap_row(&r.next_states[i * sd..(i + 1) * sd], w);
            r.dones[i].snap(w);
        }
        self.next.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let capacity = usize::unsnap(r)?;
        let n = r.get_len()?;
        if capacity == 0 || n > capacity {
            return Err(SnapError::Malformed("replay buffer shape"));
        }
        let mut buf = ReplayBuffer::new(capacity);
        for _ in 0..n {
            let t = Transition::unsnap(r)?;
            let (sd, ad) = if buf.is_empty() {
                (t.state.len(), t.action.len())
            } else {
                buf.dims()
            };
            if t.state.len() != sd || t.next_state.len() != sd || t.action.len() != ad {
                return Err(SnapError::Malformed("replay transition shape"));
            }
            buf.push(t);
        }
        buf.next = usize::unsnap(r)?;
        if buf.next >= capacity {
            return Err(SnapError::Malformed("replay buffer shape"));
        }
        Ok(buf)
    }
}

/// Writes `row` exactly as `Vec<f64>`'s encoding would.
fn snap_row(row: &[f64], w: &mut mtat_snapshot::SnapWriter) {
    w.put_u64(row.len() as u64);
    for &v in row {
        w.put_f64(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(r: f64) -> Transition {
        Transition {
            state: vec![r],
            action: vec![0.0],
            reward: r,
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        b.push(t(1.0));
        b.push(t(2.0));
        assert_eq!(b.len(), 2);
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn ring_eviction_keeps_newest() {
        let mut b = ReplayBuffer::new(2);
        b.push(t(1.0));
        b.push(t(2.0));
        b.push(t(3.0)); // evicts t(1.0)
        assert_eq!(b.len(), 2);
        let rewards = &b.rows.rewards;
        assert!(rewards.contains(&2.0) && rewards.contains(&3.0));
    }

    #[test]
    fn sampling_covers_buffer() {
        let mut b = ReplayBuffer::new(16);
        for i in 0..16 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut batch = Minibatch::default();
        b.sample_into(&mut rng, 500, &mut batch);
        assert_eq!(batch.len(), 500);
        // Each row is one whole transition: next state = state + 1.
        for (s, n) in batch.states.iter().zip(&batch.next_states) {
            assert_eq!(*n, s + 1.0);
        }
        let distinct: std::collections::HashSet<u64> =
            batch.rewards.iter().map(|&r| r as u64).collect();
        assert!(distinct.len() > 10, "sampling should reach most entries");
    }

    #[test]
    fn snapshot_encodes_the_slots_as_a_transition_list() {
        use mtat_snapshot::{Snap, SnapReader, SnapWriter};

        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f64));
        }
        // Slots after wrapping: t3, t4, t2; the next write goes to slot 2.
        let mut want = SnapWriter::new();
        3usize.snap(&mut want);
        vec![t(3.0), t(4.0), t(2.0)].snap(&mut want);
        2usize.snap(&mut want);
        let mut got = SnapWriter::new();
        b.snap(&mut got);
        let bytes = got.into_bytes();
        assert_eq!(bytes, want.into_bytes());

        let restored = ReplayBuffer::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        let mut again = SnapWriter::new();
        restored.snap(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn sample_empty_panics() {
        let b = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        b.sample_into(&mut rng, 1, &mut Minibatch::default());
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
