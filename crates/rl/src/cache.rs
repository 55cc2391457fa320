//! Transposition-keyed inference caches for DRL-guided search.
//!
//! MCTS rollouts revisit identical [`SimState`]s along different tree
//! paths (and the path-replay tree re-derives them on every iteration),
//! so the same featurize → forward → softmax pipeline runs many times
//! per scheduling decision. These caches key the *result* of that
//! pipeline by a 64-bit hash, so a repeat visit costs one probe instead
//! of a full network inference. The policy of `spear-mcts` keeps two
//! [`EvalCache`]s: a **frontier table** keyed by
//! [`SimState::frontier_fingerprint`] and probed before featurizing, and
//! an **input table** keyed by [`input_key`] of the featurized input and
//! probed between featurization and the forward pass.
//!
//! Both are capacity-bounded open-addressing tables with linear
//! probing and **generation clearing**: the search bumps the generation
//! at each scheduling *episode* (one complete `schedule()` of one DAG),
//! which invalidates every entry in O(1) without touching the storage.
//! Within an episode the DAG, cluster spec, graph features, and network
//! weights are all fixed, so a fingerprint-keyed entry can never go
//! stale across the episode's decisions — consecutive decisions
//! re-explore overlapping subtrees, and retaining entries across them
//! is where most hits come from. Entries from a *previous* episode
//! would be wrong (different DAG or weights), hence the per-episode
//! bump. There are no deletions, so an out-of-generation slot
//! terminates a probe chain soundly.
//!
//! The REINFORCE trainer keeps a third table, and it is not an
//! [`EvalCache`]: REINFORCE rolls each example out 20 times under one
//! set of weights, and most of those steps revisit a state an earlier
//! rollout already reached. The trainer's table is keyed by
//! [`SimState::frontier_fingerprint`] too, and it is cleared when an
//! example starts. The weights change only after the example's last
//! rollout, so within the table's life the DAG, the cluster and the
//! weights are fixed and it needs no generation. Each entry keeps the
//! state's featurized input and mask next to its row, because the
//! update reads them back; so the table grows instead of evicting, to
//! the few dozen states an example reaches. A 64-bit collision among
//! those is a ~2⁻⁵² event per example; the table has no off switch, and
//! a test drives REINFORCE epochs through uncached forward passes and
//! compares the weights bit for bit.
//!
//! An [`EvalCache`] allocates its storage at its first insert, zeroed
//! (slot cells encode an empty slot as `0`), so building one allocates
//! nothing and its pages fault in only as the search fills them.
//!
//! Collision safety: keys are 64-bit. With tens of thousands of
//! distinct states per episode, the birthday bound puts the
//! per-episode collision probability around 2⁻³⁵; a collision would
//! return a well-formed distribution over the *probed* state's
//! actions, so the search stays deterministic and legal-action-safe
//! either way, and the cache can be disabled outright for differential
//! runs.
//!
//! [`SimState`]: spear_cluster::SimState
//! [`SimState::frontier_fingerprint`]: spear_cluster::SimState::frontier_fingerprint

use spear_dag::TaskId;

/// How many slots a probe walks before giving up (on `get`) or
/// evicting (on `insert`).
const PROBE_LIMIT: usize = 8;

/// SplitMix64 finalizer: a cheap full-avalanche bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The input table's key: a 64-bit hash of the exact bits of one policy
/// input, every feature's [`f64::to_bits`] plus the legality mask.
/// Under fixed weights the masked distribution is a pure function of
/// these bits, so equal keys (absent a 64-bit collision) share one
/// probability row whatever state produced them.
#[must_use]
pub fn input_key(features: &[f64], mask: &[bool]) -> u64 {
    // Four independent lanes keep the ~160-word fold off one serial
    // dependency chain. Each step is a bijection of its lane for a fixed
    // word and of the word for a fixed lane, so inputs that differ in
    // one word never collide; `mix64` avalanches the result because the
    // tables index by the low bits.
    let step = |lane: u64, word: u64| {
        (lane ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    };
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut quads = features.chunks_exact(4);
    for quad in &mut quads {
        for (lane, x) in lanes.iter_mut().zip(quad) {
            *lane = step(*lane, x.to_bits());
        }
    }
    for (lane, x) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = step(*lane, x.to_bits());
    }
    for (i, bits) in mask.chunks(64).enumerate() {
        let word = bits
            .iter()
            .enumerate()
            .fold(0u64, |w, (b, &legal)| w | (u64::from(legal) << b));
        lanes[i % 4] = step(lanes[i % 4], word);
    }
    let lengths = (features.len() as u64) << 32 | mask.len() as u64;
    lanes.iter().fold(mix64(lengths), |h, &lane| {
        mix64(h.wrapping_add(mix64(lane)))
    })
}

/// Encodes one slot → task cell: `0` is an empty slot, `i + 1` task `i`.
///
/// # Panics
/// On a task index the `u32` encoding cannot hold, rather than alias it
/// with another task.
fn slot_cell(task: Option<TaskId>) -> u32 {
    task.map_or(0, |t| {
        u32::try_from(t.index())
            .ok()
            .and_then(|i| i.checked_add(1))
            .expect("task index fits the u32 slot encoding")
    })
}

/// A cached slot → task row, as stored: one `u32` cell per visible
/// ready slot (`0` = empty, `i + 1` = task `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRow<'a>(&'a [u32]);

impl SlotRow<'_> {
    /// The slot holding `task`, or `None` if it is not visible.
    #[must_use]
    pub fn position(&self, task: TaskId) -> Option<usize> {
        let cell = u32::try_from(task.index()).ok()?.checked_add(1)?;
        self.0.iter().position(|&c| c == cell)
    }

    /// The task in each slot, in slot order.
    pub fn tasks(&self) -> impl Iterator<Item = Option<TaskId>> + '_ {
        self.0
            .iter()
            .map(|&c| c.checked_sub(1).map(|i| TaskId::new(i as usize)))
    }
}

/// Hit/miss/evict counters for one cache instance.
///
/// "Hit" and "miss" count `get` probes; "evictions" counts inserts that
/// displaced a live same-generation entry because the whole probe
/// window was occupied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Probes that found a live entry for the requested key.
    pub hits: u64,
    /// Probes that found nothing (and were typically followed by a
    /// fresh inference plus an `insert`).
    pub misses: u64,
    /// Inserts that overwrote a live entry for a *different* key.
    pub evictions: u64,
}

/// Generation-cleared policy-evaluation cache.
///
/// Stores, per key, the masked softmax distribution a `DrlPolicy`
/// produced (`action_dim` probabilities) together with the ready-slot →
/// task assignment (`max_ready` slots) that gives those probabilities
/// meaning. A hit reproduces `action_probs` output bit-identically
/// without featurizing or running the network. The input table, whose
/// caller has just featurized and holds the slot assignment itself,
/// stores rows alone (`max_ready` of 0).
///
/// Generic over the probability element: `f64` (the default) for the
/// exact path, `f32` ([`EvalCacheF32`]) for the fast-precision path,
/// where halving the row footprint doubles the effective entry count at
/// the same memory budget.
#[derive(Debug, Clone)]
pub struct EvalCache<T = f64> {
    /// Slot count; always a power of two so probing can mask.
    capacity: usize,
    /// Fingerprint stored in each slot (valid only when the slot's
    /// generation matches the current one). Empty until the first
    /// insert, like the other storage vectors.
    keys: Vec<u64>,
    /// Generation tag per slot; `0` is never current, so fresh slots
    /// read as stale.
    gens: Vec<u64>,
    /// Current generation; bumped by [`EvalCache::begin_generation`].
    generation: u64,
    /// Flat `capacity × action_dim` probability storage.
    probs: Vec<T>,
    /// Flat `capacity × max_ready` slot-task cells (see [`SlotRow`]).
    slots: Vec<u32>,
    /// Probability row width.
    action_dim: usize,
    /// Slot-task row width.
    max_ready: usize,
    /// Lifetime counters.
    stats: EvalCacheStats,
}

impl<T: Copy + Default> EvalCache<T> {
    /// Creates a cache with room for at least `capacity` entries
    /// (rounded up to a power of two), each holding `action_dim`
    /// probabilities and `max_ready` slot tasks. Storage is allocated at
    /// the first insert.
    #[must_use]
    pub fn new(capacity: usize, action_dim: usize, max_ready: usize) -> Self {
        Self {
            capacity: capacity.max(PROBE_LIMIT).next_power_of_two(),
            keys: Vec::new(),
            gens: Vec::new(),
            generation: 1,
            probs: Vec::new(),
            slots: Vec::new(),
            action_dim,
            max_ready,
            stats: EvalCacheStats::default(),
        }
    }

    /// Invalidates every entry in O(1). Call at each scheduling
    /// episode boundary so entries never outlive the DAG/network pair
    /// they were computed under.
    pub fn begin_generation(&mut self) {
        self.generation += 1;
    }

    /// Looks up `key`, returning the cached `(probabilities,
    /// slot_tasks)` rows on a hit. Counts a hit or a miss either way.
    pub fn get(&mut self, key: u64) -> Option<(&[T], SlotRow<'_>)> {
        if self.keys.is_empty() {
            self.stats.misses += 1;
            return None;
        }
        let mask = self.capacity - 1;
        let start = (key as usize) & mask;
        for step in 0..PROBE_LIMIT {
            let idx = (start + step) & mask;
            if self.gens[idx] != self.generation {
                // Occupancy is monotone within a generation (no
                // deletions), so a stale slot ends the chain.
                break;
            }
            if self.keys[idx] == key {
                self.stats.hits += 1;
                let p = &self.probs[idx * self.action_dim..(idx + 1) * self.action_dim];
                let s = &self.slots[idx * self.max_ready..(idx + 1) * self.max_ready];
                return Some((p, SlotRow(s)));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Stores `(probs, slot_tasks)` under `key`, evicting the entry at
    /// the probe start if the whole window is live with other keys.
    ///
    /// # Panics
    /// If the row widths disagree with the ones given to `new`, or a task
    /// index does not fit the `u32` slot encoding.
    pub fn insert(&mut self, key: u64, probs: &[T], slot_tasks: &[Option<TaskId>]) {
        assert_eq!(probs.len(), self.action_dim);
        assert_eq!(slot_tasks.len(), self.max_ready);
        if self.keys.is_empty() {
            // Zero bits throughout: allocated zeroed, touched only as
            // entries land.
            self.keys = vec![0; self.capacity];
            self.gens = vec![0; self.capacity];
            self.probs = vec![T::default(); self.capacity * self.action_dim];
            self.slots = vec![0; self.capacity * self.max_ready];
        }
        let mask = self.capacity - 1;
        let start = (key as usize) & mask;
        let mut target = start;
        let mut found = false;
        for step in 0..PROBE_LIMIT {
            let idx = (start + step) & mask;
            if self.gens[idx] != self.generation || self.keys[idx] == key {
                target = idx;
                found = true;
                break;
            }
        }
        if !found {
            self.stats.evictions += 1;
        }
        self.keys[target] = key;
        self.gens[target] = self.generation;
        self.probs[target * self.action_dim..(target + 1) * self.action_dim].copy_from_slice(probs);
        for (cell, &task) in self.slots[target * self.max_ready..(target + 1) * self.max_ready]
            .iter_mut()
            .zip(slot_tasks)
        {
            *cell = slot_cell(task);
        }
    }

    /// Lifetime hit/miss/evict counters.
    #[must_use]
    pub fn stats(&self) -> EvalCacheStats {
        self.stats
    }
}

/// The `f32`-row policy cache of the fast-precision inference path.
pub type EvalCacheF32 = EvalCache<f32>;

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f64, dim: usize) -> Vec<f64> {
        vec![v; dim]
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut cache = EvalCache::new(64, 3, 2);
        assert!(cache.get(42).is_none());
        cache.insert(42, &row(0.5, 3), &[Some(TaskId::new(7)), None]);
        let (p, s) = cache.get(42).expect("inserted key must hit");
        assert_eq!(p, &[0.5, 0.5, 0.5]);
        assert_eq!(s.tasks().collect::<Vec<_>>(), [Some(TaskId::new(7)), None]);
        assert_eq!(s.position(TaskId::new(7)), Some(0));
        assert_eq!(s.position(TaskId::new(0)), None);
        assert_eq!(
            cache.stats(),
            EvalCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn generation_bump_clears_without_touching_storage() {
        let mut cache = EvalCache::new(64, 1, 1);
        cache.insert(9, &[1.0], &[None]);
        assert!(cache.get(9).is_some());
        cache.begin_generation();
        assert!(cache.get(9).is_none(), "old generation must read as empty");
        cache.insert(9, &[2.0], &[None]);
        assert_eq!(cache.get(9).unwrap().0, &[2.0]);
    }

    #[test]
    fn full_probe_window_evicts_and_counts() {
        let mut cache = EvalCache::new(8, 1, 1);
        // Capacity 8 with PROBE_LIMIT 8: nine distinct keys mapping into
        // the table must force at least one eviction.
        for key in 0..9u64 {
            cache.insert(key, &[key as f64], &[None]);
        }
        assert!(cache.stats().evictions >= 1);
        // The survivors still hit with the right payload.
        let mut live = 0;
        for key in 0..9u64 {
            if let Some((p, _)) = cache.get(key) {
                assert_eq!(p, &[key as f64]);
                live += 1;
            }
        }
        assert_eq!(live, 8);
    }

    #[test]
    fn reinsert_same_key_overwrites_in_place() {
        let mut cache = EvalCache::new(16, 2, 1);
        cache.insert(5, &[1.0, 2.0], &[Some(TaskId::new(0))]);
        cache.insert(5, &[3.0, 4.0], &[Some(TaskId::new(1))]);
        let (p, s) = cache.get(5).unwrap();
        assert_eq!(p, &[3.0, 4.0]);
        assert_eq!(s.tasks().collect::<Vec<_>>(), [Some(TaskId::new(1))]);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn f32_variants_round_trip_at_half_footprint() {
        let mut cache: EvalCacheF32 = EvalCache::new(64, 3, 2);
        assert!(cache.get(42).is_none());
        cache.insert(42, &[0.25f32, 0.5, 0.25], &[Some(TaskId::new(7)), None]);
        let (p, s) = cache.get(42).expect("inserted key must hit");
        assert_eq!(p, &[0.25f32, 0.5, 0.25]);
        assert_eq!(s.position(TaskId::new(7)), Some(0));
        cache.begin_generation();
        assert!(cache.get(42).is_none());
    }

    #[test]
    fn slot_cells_round_trip_task_zero_and_empty_slots() {
        let mut cache = EvalCache::new(16, 1, 3);
        cache.insert(
            1,
            &[1.0],
            &[None, Some(TaskId::new(0)), Some(TaskId::new(9))],
        );
        let (_, s) = cache.get(1).unwrap();
        assert_eq!(
            s.tasks().collect::<Vec<_>>(),
            [None, Some(TaskId::new(0)), Some(TaskId::new(9))]
        );
        assert_eq!(s.position(TaskId::new(0)), Some(1));
        assert_eq!(s.position(TaskId::new(usize::MAX)), None);
    }

    #[test]
    #[should_panic(expected = "u32 slot encoding")]
    fn task_index_beyond_the_slot_encoding_panics() {
        let mut cache = EvalCache::new(16, 1, 1);
        cache.insert(1, &[1.0], &[Some(TaskId::new(u32::MAX as usize))]);
    }

    #[test]
    fn input_key_reads_every_feature_bit_and_the_mask() {
        let features: Vec<f64> = (0..163).map(|i| f64::from(i % 7) / 7.0).collect();
        let mask = vec![true; 16];
        let key = input_key(&features, &mask);
        assert_eq!(key, input_key(&features, &mask));
        for i in 0..features.len() {
            let mut flipped = features.clone();
            flipped[i] = f64::from_bits(flipped[i].to_bits() ^ 1);
            assert_ne!(key, input_key(&flipped, &mask), "feature {i}");
        }
        for i in 0..mask.len() {
            let mut flipped = mask.clone();
            flipped[i] = false;
            assert_ne!(key, input_key(&features, &flipped), "mask bit {i}");
        }
        // The key follows bits, not numeric equality: -0.0 and 0.0 key
        // apart (at worst a missed hit, never a wrong one).
        let mut negative_zero = vec![0.0; 8];
        let zero = input_key(&negative_zero, &mask);
        negative_zero[3] = -0.0;
        assert_ne!(zero, input_key(&negative_zero, &mask));
    }

    #[test]
    fn input_table_stores_rows_without_slots() {
        let mut cache = EvalCache::new(16, 2, 0);
        let key = input_key(&[0.5, 0.25], &[true, false]);
        cache.insert(key, &[0.75, 0.25], &[]);
        let (p, s) = cache.get(key).unwrap();
        assert_eq!(p, &[0.75, 0.25]);
        assert_eq!(s.tasks().count(), 0);
    }
}
