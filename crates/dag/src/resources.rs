//! Multi-dimensional resource vectors.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// A vector of non-negative resource quantities, one entry per resource
/// dimension (e.g. CPU and memory).
///
/// `ResourceVec` is used both for task *demands* and for cluster
/// *capacities*/*free space*; the arithmetic helpers below implement the
/// resource-time-space bookkeeping of the simulator.
///
/// # Example
///
/// ```
/// use spear_dag::ResourceVec;
///
/// let capacity = ResourceVec::from_slice(&[1.0, 1.0]);
/// let demand = ResourceVec::from_slice(&[0.4, 0.7]);
/// assert!(demand.fits_within(&capacity));
/// let free = capacity.saturating_sub(&demand);
/// assert!((free[0] - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceVec(Vec<f64>);

// Manual `Clone` so `clone_from` reuses the destination's allocation: the
// MCTS rollout scratch copies a `ResourceVec` per rollout and must not
// allocate in steady state (the derived impl falls back to a fresh `Vec`).
impl Clone for ResourceVec {
    fn clone(&self) -> Self {
        ResourceVec(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl ResourceVec {
    /// Creates a zero vector with `dims` dimensions.
    ///
    /// ```
    /// use spear_dag::ResourceVec;
    /// let z = ResourceVec::zeros(3);
    /// assert_eq!(z.dims(), 3);
    /// ```
    pub fn zeros(dims: usize) -> Self {
        ResourceVec(vec![0.0; dims])
    }

    /// Creates a vector with every dimension set to `value`.
    pub fn splat(dims: usize, value: f64) -> Self {
        ResourceVec(vec![value; dims])
    }

    /// Creates a vector from a slice of quantities.
    pub fn from_slice(values: &[f64]) -> Self {
        ResourceVec(values.to_vec())
    }

    /// Number of resource dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Returns the raw quantities.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Returns `true` if every component is finite and non-negative.
    pub fn is_valid_demand(&self) -> bool {
        self.0.iter().all(|&v| v.is_finite() && v >= 0.0)
    }

    /// Component-wise `self <= other` within a small tolerance; the "does
    /// this demand fit in this free space" test used by every scheduler.
    #[inline]
    pub fn fits_within(&self, other: &ResourceVec) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.0
            .iter()
            .zip(&other.0)
            .all(|(&a, &b)| a <= b + FIT_EPSILON)
    }

    /// Component-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&self, other: &ResourceVec) -> ResourceVec {
        assert_eq!(self.dims(), other.dims(), "resource dimension mismatch");
        ResourceVec(self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect())
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn add_assign(&mut self, other: &ResourceVec) {
        assert_eq!(self.dims(), other.dims(), "resource dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Component-wise subtraction clamped at zero (guards against the tiny
    /// negative values floating-point bookkeeping would otherwise
    /// accumulate).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn saturating_sub(&self, other: &ResourceVec) -> ResourceVec {
        assert_eq!(self.dims(), other.dims(), "resource dimension mismatch");
        ResourceVec(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| (a - b).max(0.0))
                .collect(),
        )
    }

    /// Subtracts `other` from `self` in place, clamping at zero.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn saturating_sub_assign(&mut self, other: &ResourceVec) {
        assert_eq!(self.dims(), other.dims(), "resource dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a - b).max(0.0);
        }
    }

    /// Dot product — the Tetris *alignment score* between a task demand and
    /// the free space of the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot(&self, other: &ResourceVec) -> f64 {
        assert_eq!(self.dims(), other.dims(), "resource dimension mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Multiplies every component by `factor`.
    pub fn scale(&self, factor: f64) -> ResourceVec {
        ResourceVec(self.0.iter().map(|v| v * factor).collect())
    }

    /// Component-wise maximum.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn component_max(&self, other: &ResourceVec) -> ResourceVec {
        assert_eq!(self.dims(), other.dims(), "resource dimension mismatch");
        ResourceVec(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.max(*b))
                .collect(),
        )
    }

    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// The single feasibility tolerance of the workspace: every demand-vs-
/// capacity comparison — [`ResourceVec::fits_within`], schedule validation,
/// the resource timeline and the invariant auditor — uses this constant, so
/// the simulator, the validators and the auditors can never disagree about
/// what "fits" means. It absorbs the floating-point drift of repeated
/// add/sub bookkeeping; do not hand-roll other `1e-9`-style literals for
/// feasibility checks.
pub const FIT_EPSILON: f64 = 1e-9;

impl Index<usize> for ResourceVec {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.0[index]
    }
}

impl IndexMut<usize> for ResourceVec {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.0[index]
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.3}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for ResourceVec {
    fn from(values: Vec<f64>) -> Self {
        ResourceVec(values)
    }
}

impl FromIterator<f64> for ResourceVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        ResourceVec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_within_exact_boundary() {
        let cap = ResourceVec::from_slice(&[1.0, 1.0]);
        assert!(ResourceVec::from_slice(&[1.0, 1.0]).fits_within(&cap));
        assert!(!ResourceVec::from_slice(&[1.0 + 1e-6, 0.5]).fits_within(&cap));
    }

    #[test]
    fn fits_within_tolerates_float_drift() {
        let cap = ResourceVec::from_slice(&[0.1 + 0.2]); // 0.30000000000000004
        assert!(ResourceVec::from_slice(&[0.3]).fits_within(&cap));
        let cap2 = ResourceVec::from_slice(&[0.3]);
        assert!(ResourceVec::from_slice(&[0.1 + 0.2]).fits_within(&cap2));
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = ResourceVec::from_slice(&[0.5, 0.25]);
        let b = ResourceVec::from_slice(&[0.25, 0.5]);
        let sum = a.add(&b);
        let back = sum.saturating_sub(&b);
        assert!((back[0] - 0.5).abs() < 1e-12);
        assert!((back[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = ResourceVec::from_slice(&[0.1]);
        let b = ResourceVec::from_slice(&[0.5]);
        assert_eq!(a.saturating_sub(&b)[0], 0.0);
    }

    #[test]
    fn dot_product() {
        let a = ResourceVec::from_slice(&[2.0, 3.0]);
        let b = ResourceVec::from_slice(&[4.0, 5.0]);
        assert_eq!(a.dot(&b), 23.0);
    }

    #[test]
    fn valid_demand_rejects_nan_and_negative() {
        assert!(!ResourceVec::from_slice(&[f64::NAN]).is_valid_demand());
        assert!(!ResourceVec::from_slice(&[-0.1]).is_valid_demand());
        assert!(ResourceVec::from_slice(&[0.0, 0.3]).is_valid_demand());
    }

    #[test]
    #[should_panic(expected = "resource dimension mismatch")]
    fn add_panics_on_dim_mismatch() {
        let _ = ResourceVec::zeros(1).add(&ResourceVec::zeros(2));
    }

    #[test]
    fn display_formats_components() {
        let v = ResourceVec::from_slice(&[0.5, 1.0]);
        assert_eq!(format!("{v}"), "[0.500, 1.000]");
    }

    #[test]
    fn component_and_max_helpers() {
        let a = ResourceVec::from_slice(&[1.0, 5.0]);
        let b = ResourceVec::from_slice(&[2.0, 3.0]);
        let m = a.component_max(&b);
        assert_eq!(m.as_slice(), &[2.0, 5.0]);
        assert_eq!(m.total(), 7.0);
    }

    #[test]
    fn from_iterator_collects() {
        let v: ResourceVec = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
