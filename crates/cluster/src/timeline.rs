//! The resource-time occupancy grid.
//!
//! [`ResourceTimeline`] is the "array of rectangles" view of the cluster
//! (paper §III-B): per time slot, the summed demand of everything placed in
//! that slot. It backs two consumers:
//!
//! * Graphene's **virtual placement** phase, which packs troublesome tasks
//!   into an empty space forward (from time 0 up) or backward (from a
//!   horizon down) while ignoring dependencies, and
//! * the occupancy judges of `diffcheck`, which replay a schedule (and a
//!   fault-injected run's failed attempts) slot by slot against each
//!   machine's capacity.
//!
//! Occupancy is stored as a step function over change points, so memory
//! and time grow with the number of placements, not with their runtimes.

use serde::{Deserialize, Serialize};
use spear_dag::{ResourceVec, FIT_EPSILON};

/// A growable occupancy grid over time slots for a fixed-capacity cluster.
///
/// ```
/// use spear_dag::ResourceVec;
/// use spear_cluster::ResourceTimeline;
///
/// let mut tl = ResourceTimeline::new(ResourceVec::from_slice(&[1.0]));
/// let d = ResourceVec::from_slice(&[0.6]);
/// assert_eq!(tl.earliest_start(&d, 3, 0), 0);
/// tl.place(&d, 0, 3);
/// // A second 0.6-demand task no longer fits before t=3.
/// assert_eq!(tl.earliest_start(&d, 2, 0), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceTimeline {
    capacity: ResourceVec,
    // Change points `(slot, used)`, strictly increasing in `slot` and
    // starting at slot 0: `used` holds from its slot until the next
    // point's, the last one until `horizon`. Splitting a segment copies
    // its sum, so every slot's sum accumulates its placements' demands in
    // placement order, exactly as a per-slot grid would.
    segments: Vec<(u64, ResourceVec)>,
    horizon: u64,
}

impl ResourceTimeline {
    /// Creates an empty timeline for a cluster with the given capacity.
    pub fn new(capacity: ResourceVec) -> Self {
        ResourceTimeline {
            capacity,
            segments: Vec::new(),
            horizon: 0,
        }
    }

    /// Cluster capacity per dimension.
    pub fn capacity(&self) -> &ResourceVec {
        &self.capacity
    }

    /// Number of slots currently materialized (the latest finish of any
    /// placement; slots beyond are implicitly empty).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Index of the segment holding `slot` (which must be below the
    /// horizon).
    fn segment_at(&self, slot: u64) -> usize {
        self.segments.partition_point(|&(t, _)| t <= slot) - 1
    }

    /// End (exclusive) of segment `i`.
    fn segment_end(&self, i: usize) -> u64 {
        self.segments.get(i + 1).map_or(self.horizon, |&(t, _)| t)
    }

    /// Occupancy at `slot` (zero beyond the horizon).
    pub fn used_at(&self, slot: u64) -> ResourceVec {
        if slot >= self.horizon {
            return ResourceVec::zeros(self.capacity.dims());
        }
        self.segments[self.segment_at(slot)].1.clone()
    }

    /// The segments inside `[start, end)` in which `demand` does not fit,
    /// as `(start of the first, end of the last)`; `None` when it fits
    /// throughout. Slots at or beyond the horizon are empty.
    fn blocked(&self, demand: &ResourceVec, start: u64, end: u64) -> Option<(u64, u64)> {
        let end = end.min(self.horizon);
        if start >= end {
            return None;
        }
        let mut blocked: Option<(u64, u64)> = None;
        let mut i = self.segment_at(start);
        while i < self.segments.len() && self.segments[i].0 < end {
            let (from, used) = &self.segments[i];
            let fits = used
                .as_slice()
                .iter()
                .zip(demand.as_slice())
                .zip(self.capacity.as_slice())
                .all(|((&u, &d), &c)| u + d <= c + FIT_EPSILON);
            if !fits {
                let first = blocked.map_or(*from, |(first, _)| first);
                blocked = Some((first, self.segment_end(i)));
            }
            i += 1;
        }
        blocked
    }

    /// Whether `demand` fits in every slot of `[start, start + duration)`.
    ///
    /// Overflow-safe: an interval that would run past `u64::MAX` on the
    /// time axis does not fit (rather than wrapping or panicking on
    /// `start + duration`). Allocation-free: segments are compared
    /// component-wise in place — this sits inside Graphene's packing loop.
    pub fn fits(&self, demand: &ResourceVec, start: u64, duration: u64) -> bool {
        if !demand.fits_within(&self.capacity) {
            return false;
        }
        let Some(end) = start.checked_add(duration) else {
            return false;
        };
        self.blocked(demand, start, end).is_none()
    }

    /// The earliest start `>= not_before` at which `demand` fits for
    /// `duration` consecutive slots. Always exists (beyond the horizon the
    /// timeline is empty), provided `demand` fits the total capacity.
    /// Probes jump past blocking segments instead of stepping slot by
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if `demand` exceeds the cluster capacity (it would never
    /// fit), `duration` is zero, or no start at or after `not_before` lets
    /// the task finish by `u64::MAX` (the interval would run off the end of
    /// the time axis).
    pub fn earliest_start(&self, demand: &ResourceVec, duration: u64, not_before: u64) -> u64 {
        assert!(duration > 0, "duration must be positive");
        assert!(
            demand.fits_within(&self.capacity),
            "demand exceeds cluster capacity"
        );
        let last_feasible = u64::MAX - duration;
        let mut t = not_before;
        loop {
            assert!(
                t <= last_feasible,
                "no feasible start before the end of the time axis"
            );
            // Every start before the end of the last blocking segment in
            // the window still overlaps that segment.
            match self.blocked(demand, t, t + duration) {
                None => return t,
                Some((_, last_end)) => t = last_end,
            }
        }
    }

    /// The latest start such that the task *finishes by* `deadline`
    /// (`start + duration <= deadline`) and fits; `None` if no such start
    /// exists. Used by Graphene's backward packing; probes jump below
    /// blocking segments instead of stepping slot by slot.
    pub fn latest_start(&self, demand: &ResourceVec, duration: u64, deadline: u64) -> Option<u64> {
        if duration == 0 || duration > deadline || !demand.fits_within(&self.capacity) {
            return None;
        }
        let mut t = deadline - duration;
        loop {
            // Every start above `first_start - duration` still overlaps
            // the first blocking segment in the window.
            match self.blocked(demand, t, t + duration) {
                None => return Some(t),
                Some((first_start, _)) => t = first_start.checked_sub(duration)?,
            }
        }
    }

    /// Splits the segment holding `slot` so that a change point sits at
    /// `slot` (which must be below the horizon).
    fn split_at(&mut self, slot: u64) {
        let i = self.segment_at(slot);
        if self.segments[i].0 != slot {
            let used = self.segments[i].1.clone();
            self.segments.insert(i + 1, (slot, used));
        }
    }

    /// Commits `demand` to slots `[start, start + duration)`, growing the
    /// grid as needed. Placement is unchecked — callers decide whether to
    /// respect capacity (Graphene's virtual space never overflows because
    /// it only places at `earliest_start`/`latest_start` results).
    ///
    /// The occupied interval saturates at `u64::MAX` rather than wrapping:
    /// a placement that would run past the end of the time axis is clamped
    /// to end there (adversarial trace inputs used to wrap `start +
    /// duration` in release builds and panic in debug builds).
    pub fn place(&mut self, demand: &ResourceVec, start: u64, duration: u64) {
        let end = start.saturating_add(duration);
        if end > self.horizon {
            // The grown tail is empty until something lands on it.
            let zeros = ResourceVec::zeros(self.capacity.dims());
            self.segments.push((self.horizon, zeros));
            self.horizon = end;
        }
        if start >= end {
            return;
        }
        self.split_at(start);
        if end < self.horizon {
            self.split_at(end);
        }
        let first = self.segment_at(start);
        for (from, used) in &mut self.segments[first..] {
            if *from >= end {
                break;
            }
            used.add_assign(demand);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> ResourceTimeline {
        ResourceTimeline::new(ResourceVec::from_slice(&[1.0, 1.0]))
    }

    #[test]
    fn empty_timeline_is_free_everywhere() {
        let tl = unit();
        assert_eq!(tl.horizon(), 0);
        assert!(tl.fits(&ResourceVec::from_slice(&[1.0, 1.0]), 100, 50));
        assert_eq!(tl.used_at(42).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn place_and_query() {
        let mut tl = unit();
        tl.place(&ResourceVec::from_slice(&[0.5, 0.25]), 2, 3);
        assert_eq!(tl.horizon(), 5);
        assert_eq!(tl.used_at(1).as_slice(), &[0.0, 0.0]);
        assert_eq!(tl.used_at(2).as_slice(), &[0.5, 0.25]);
        assert_eq!(tl.used_at(4).as_slice(), &[0.5, 0.25]);
        assert_eq!(tl.used_at(5).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn earliest_start_skips_busy_slots() {
        let mut tl = unit();
        tl.place(&ResourceVec::from_slice(&[0.8, 0.1]), 0, 4);
        let d = ResourceVec::from_slice(&[0.5, 0.5]);
        assert_eq!(tl.earliest_start(&d, 2, 0), 4);
        // A small task can share slots with the big one.
        let small = ResourceVec::from_slice(&[0.1, 0.1]);
        assert_eq!(tl.earliest_start(&small, 2, 0), 0);
        // not_before is honoured.
        assert_eq!(tl.earliest_start(&small, 2, 3), 3);
    }

    #[test]
    fn earliest_start_requires_contiguous_fit() {
        let mut tl = unit();
        // Busy at slot 2 only.
        tl.place(&ResourceVec::from_slice(&[0.9, 0.9]), 2, 1);
        let d = ResourceVec::from_slice(&[0.5, 0.5]);
        // Duration 3 cannot straddle slot 2; first fit is 3.
        assert_eq!(tl.earliest_start(&d, 3, 0), 3);
        // Duration 2 fits at 0.
        assert_eq!(tl.earliest_start(&d, 2, 0), 0);
    }

    #[test]
    fn latest_start_packs_from_deadline() {
        let mut tl = unit();
        let d = ResourceVec::from_slice(&[0.6, 0.6]);
        assert_eq!(tl.latest_start(&d, 3, 10), Some(7));
        tl.place(&d, 7, 3);
        // Second task of same demand cannot overlap [7,10): latest is 4.
        assert_eq!(tl.latest_start(&d, 3, 10), Some(4));
    }

    #[test]
    fn latest_start_none_when_impossible() {
        let mut tl = unit();
        tl.place(&ResourceVec::from_slice(&[0.9, 0.9]), 0, 10);
        let d = ResourceVec::from_slice(&[0.5, 0.5]);
        assert_eq!(tl.latest_start(&d, 3, 10), None);
        // Duration longer than deadline.
        assert_eq!(tl.latest_start(&d, 11, 10), None);
        assert_eq!(tl.latest_start(&d, 0, 10), None);
    }

    #[test]
    #[should_panic(expected = "demand exceeds cluster capacity")]
    fn earliest_start_rejects_oversized_demand() {
        let tl = unit();
        tl.earliest_start(&ResourceVec::from_slice(&[1.5, 0.0]), 1, 0);
    }

    #[test]
    fn fits_is_overflow_safe_at_the_end_of_the_time_axis() {
        let tl = unit();
        let d = ResourceVec::from_slice(&[0.5, 0.5]);
        // The interval [u64::MAX, u64::MAX + 1) runs off the time axis.
        assert!(!tl.fits(&d, u64::MAX, 1));
        assert!(!tl.fits(&d, u64::MAX - 5, 6));
        assert!(!tl.fits(&d, 1, u64::MAX));
        // Ending exactly at u64::MAX is still representable.
        assert!(tl.fits(&d, u64::MAX - 5, 5));
        assert!(tl.fits(&d, 0, u64::MAX));
    }

    #[test]
    fn latest_start_is_overflow_safe_at_extreme_deadlines() {
        let tl = unit();
        let d = ResourceVec::from_slice(&[0.5, 0.5]);
        // Backward packing from the largest representable deadline must not
        // wrap when probing `start + duration`.
        assert_eq!(tl.latest_start(&d, 3, u64::MAX), Some(u64::MAX - 3));
        assert_eq!(tl.latest_start(&d, u64::MAX, u64::MAX), Some(0));
    }

    #[test]
    fn earliest_start_succeeds_at_the_last_feasible_slot() {
        let tl = unit();
        let d = ResourceVec::from_slice(&[0.5, 0.5]);
        // Plenty of room when the interval still ends by u64::MAX.
        assert_eq!(tl.earliest_start(&d, 5, u64::MAX - 5), u64::MAX - 5);
    }

    #[test]
    #[should_panic(expected = "no feasible start before the end of the time axis")]
    fn earliest_start_panics_when_no_start_fits_on_the_time_axis() {
        let tl = unit();
        let d = ResourceVec::from_slice(&[0.5, 0.5]);
        tl.earliest_start(&d, 5, u64::MAX - 4);
    }

    #[test]
    fn zero_duration_placements_grow_the_horizon_only() {
        let mut tl = ResourceTimeline::new(ResourceVec::from_slice(&[1.0]));
        tl.place(&ResourceVec::from_slice(&[0.5]), 0, 1);
        tl.place(&ResourceVec::from_slice(&[0.5]), 4, 0);
        assert_eq!(tl.horizon(), 4);
        assert_eq!(tl.used_at(0).as_slice(), &[0.5]);
        assert_eq!(tl.used_at(3).as_slice(), &[0.0]);
    }

    #[test]
    fn sums_accumulate_in_placement_order_like_a_per_slot_grid() {
        // A per-slot grid adds each placement's demand to its slots in
        // placement order; the step function must produce the same bits
        // wherever placements overlap partially.
        let demands = [0.1, 0.2, 0.3, 0.7, 0.05];
        let spans = [(0u64, 5u64), (2, 9), (4, 4), (1, 2), (8, 3)];
        let mut tl = ResourceTimeline::new(ResourceVec::from_slice(&[10.0]));
        let mut grid = [0.0f64; 12];
        for (&d, &(start, len)) in demands.iter().zip(&spans) {
            tl.place(&ResourceVec::from_slice(&[d]), start, len);
            for slot in &mut grid[start as usize..(start + len) as usize] {
                *slot += d;
            }
        }
        assert_eq!(tl.horizon(), 11);
        for (slot, &want) in grid.iter().enumerate() {
            assert_eq!(
                tl.used_at(slot as u64)[0].to_bits(),
                want.to_bits(),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn billions_of_slots_cost_a_few_segments() {
        // One 3e9-slot placement used to materialize one vector per slot.
        let mut tl = unit();
        let long = 3_000_000_000;
        let d = ResourceVec::from_slice(&[0.6, 0.6]);
        tl.place(&d, 0, long);
        assert_eq!(tl.horizon(), long);
        assert_eq!(tl.earliest_start(&d, 5, 0), long);
        assert_eq!(tl.latest_start(&d, 5, long + 10), Some(long + 5));
        assert_eq!(tl.latest_start(&d, 5, long + 4), None);
        assert!(tl.fits(&ResourceVec::from_slice(&[0.4, 0.4]), 7, long));
        tl.place(&d, long - 1, 2);
        assert!(!tl.fits(&d, long, 1));
        assert_eq!(tl.earliest_start(&d, 1, 0), long + 1);
    }
}
