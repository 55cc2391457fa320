//! A thread-shared view of the policy-evaluation cache.
//!
//! Tree-parallel MCTS runs N workers against one DAG/network pair, so a
//! state evaluated by one worker is a cache hit for every other worker —
//! but [`EvalCache`] counts probes through `&mut self` and is therefore
//! single-owner. [`SharedEvalCache`] stripes one logical cache across
//! `S` independently locked [`EvalCache`] shards, with the stripe chosen
//! by the key's high bits (the low bits index the probe window inside a
//! shard, so using disjoint bit ranges keeps both selections well
//! distributed). Contention on any single mutex drops roughly by the
//! stripe count; the payload copy out of the shard happens under the
//! lock, but a policy row is a few hundred bytes, so the critical
//! section stays in the sub-microsecond range.
//!
//! Hits are copied into caller-owned buffers rather than borrowed,
//! because a borrow would hold the stripe lock for the caller's whole
//! decision. The copy is the price of sharing; the sequential path keeps
//! using the unlocked [`EvalCache`] directly and pays nothing.

use std::sync::Mutex;

use spear_dag::TaskId;

use crate::{EvalCache, EvalCacheStats};

/// Striped-mutex wrapper sharing one logical [`EvalCache`] between
/// search workers.
#[derive(Debug)]
pub struct SharedEvalCache {
    /// Independently locked shards; length is a power of two.
    stripes: Vec<Mutex<EvalCache>>,
    /// `64 - log2(stripes.len())`: right-shift that maps a key's high
    /// bits to a stripe index.
    shift: u32,
}

impl SharedEvalCache {
    /// Creates a cache with room for at least `capacity` entries in
    /// total, striped across `stripes` shards (rounded up to a power of
    /// two). Row widths follow [`EvalCache::new`].
    #[must_use]
    pub fn new(capacity: usize, action_dim: usize, max_ready: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let per_stripe = capacity.div_ceil(stripes);
        Self {
            stripes: (0..stripes)
                .map(|_| Mutex::new(EvalCache::new(per_stripe, action_dim, max_ready)))
                .collect(),
            shift: 64 - stripes.trailing_zeros(),
        }
    }

    fn stripe(&self, key: u64) -> &Mutex<EvalCache> {
        // `shift == 64` means a single stripe; the shift itself would
        // overflow, so special-case it.
        let idx = if self.shift >= 64 {
            0
        } else {
            (key >> self.shift) as usize
        };
        &self.stripes[idx]
    }

    /// Looks up `key`; on a hit copies the cached probability row and
    /// slot-task row into the caller's buffers (cleared first) and
    /// returns `true`. Counts a hit or a miss on the owning stripe.
    pub fn get_into(
        &self,
        key: u64,
        probs: &mut Vec<f64>,
        slot_tasks: &mut Vec<Option<TaskId>>,
    ) -> bool {
        let mut shard = self.stripe(key).lock().expect("cache stripe poisoned");
        match shard.get(key) {
            Some((p, s)) => {
                probs.clear();
                probs.extend_from_slice(p);
                slot_tasks.clear();
                slot_tasks.extend(s.tasks());
                true
            }
            None => false,
        }
    }

    /// Stores `(probs, slot_tasks)` under `key` in the owning stripe.
    ///
    /// # Panics
    /// If the row widths disagree with the ones given to `new`, or a task
    /// index does not fit the `u32` slot encoding.
    pub fn insert(&self, key: u64, probs: &[f64], slot_tasks: &[Option<TaskId>]) {
        self.stripe(key)
            .lock()
            .expect("cache stripe poisoned")
            .insert(key, probs, slot_tasks);
    }

    /// Invalidates every entry in O(stripes). Call at episode
    /// boundaries, from one thread, while no worker is probing.
    pub fn begin_generation(&self) {
        for stripe in &self.stripes {
            stripe
                .lock()
                .expect("cache stripe poisoned")
                .begin_generation();
        }
    }

    /// Lifetime counters summed across stripes.
    #[must_use]
    pub fn stats(&self) -> EvalCacheStats {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("cache stripe poisoned").stats())
            .fold(EvalCacheStats::default(), EvalCacheStats::merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_stripes() {
        let cache = SharedEvalCache::new(256, 3, 2, 4);
        let mut probs = Vec::new();
        let mut slots = Vec::new();
        // Keys spanning all high-bit patterns so every stripe is hit.
        let keys: Vec<u64> = (0..16).map(|i| (i as u64) << 60 | i as u64).collect();
        for (task, &k) in keys.iter().enumerate() {
            assert!(!cache.get_into(k, &mut probs, &mut slots));
            cache.insert(k, &[k as f64, 0.0, 1.0], &[Some(TaskId::new(task)), None]);
        }
        for (task, &k) in keys.iter().enumerate() {
            assert!(cache.get_into(k, &mut probs, &mut slots));
            assert_eq!(probs, &[k as f64, 0.0, 1.0]);
            assert_eq!(slots, &[Some(TaskId::new(task)), None]);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.misses, 16);
    }

    #[test]
    fn single_stripe_degenerate_shift_is_sound() {
        let cache = SharedEvalCache::new(64, 1, 1, 1);
        cache.insert(u64::MAX, &[0.5], &[None]);
        let mut probs = Vec::new();
        let mut slots = Vec::new();
        assert!(cache.get_into(u64::MAX, &mut probs, &mut slots));
        assert_eq!(probs, &[0.5]);
    }

    #[test]
    fn generation_bump_clears_all_stripes() {
        let cache = SharedEvalCache::new(256, 1, 1, 8);
        let keys: Vec<u64> = (0u64..32)
            .map(|i| i << 59 ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i))
            .collect();
        let mut probs = Vec::new();
        let mut slots = Vec::new();
        for &k in &keys {
            cache.insert(k, &[1.0], &[None]);
        }
        cache.begin_generation();
        for &k in &keys {
            assert!(
                !cache.get_into(k, &mut probs, &mut slots),
                "key {k:#x} survived the bump"
            );
        }
    }

    #[test]
    fn concurrent_probes_agree_with_inserts() {
        let cache = SharedEvalCache::new(1024, 2, 1, 8);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    let mut probs = Vec::new();
                    let mut slots = Vec::new();
                    for i in 0..200u64 {
                        let key = worker << 62 | i;
                        cache.insert(
                            key,
                            &[worker as f64, i as f64],
                            &[Some(TaskId::new(i as usize))],
                        );
                        assert!(cache.get_into(key, &mut probs, &mut slots));
                        assert_eq!(probs, &[worker as f64, i as f64]);
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 800);
    }
}
