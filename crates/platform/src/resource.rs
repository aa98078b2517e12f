//! Vector-valued resources, after the vector notation of Hölzenspies et al.
//!
//! Every processing element *provides* a [`ResourceVector`] and every task
//! implementation *requires* one. The mapping phase only ever compares, adds
//! and subtracts these vectors component-wise, so the whole resource model of
//! the paper reduces to a small fixed-arity algebra.

use std::fmt;
use std::ops::{Add, AddAssign, Index, Sub, SubAssign};

/// Number of distinct resource kinds tracked per element.
pub const RESOURCE_KIND_COUNT: usize = 4;

/// The kinds of resources a processing element can provide.
///
/// The concrete set follows the CRISP platform of the paper: computation
/// capacity (DSP/GPP cycles), local memory, reconfigurable area (FPGA) and
/// I/O interface slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// Computation capacity, in abstract cycle-budget units.
    Compute,
    /// Local memory, in KiB.
    Memory,
    /// Reconfigurable logic area, in abstract LUT units.
    Area,
    /// I/O interface slots (stream endpoints).
    Io,
}

impl ResourceKind {
    /// All resource kinds, in vector-index order.
    pub const ALL: [ResourceKind; RESOURCE_KIND_COUNT] =
        [ResourceKind::Compute, ResourceKind::Memory, ResourceKind::Area, ResourceKind::Io];

    /// The index of this kind within a [`ResourceVector`].
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Compute => 0,
            ResourceKind::Memory => 1,
            ResourceKind::Area => 2,
            ResourceKind::Io => 3,
        }
    }

    /// Short human-readable label used by `Display` impls.
    pub const fn label(self) -> &'static str {
        match self {
            ResourceKind::Compute => "cpu",
            ResourceKind::Memory => "mem",
            ResourceKind::Area => "area",
            ResourceKind::Io => "io",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fixed-arity vector of resource quantities.
///
/// `ResourceVector` is `Copy` and cheap; all operations are component-wise.
/// Subtraction that would underflow is only available through
/// [`ResourceVector::checked_sub`], keeping the "free resources" ledgers of a
/// platform free of silent wrap-arounds.
///
/// # Examples
///
/// ```
/// use kairos_platform::{ResourceKind, ResourceVector};
///
/// let capacity = ResourceVector::new(1000, 64, 0, 2);
/// let demand = ResourceVector::with(ResourceKind::Compute, 700);
/// assert!(capacity.fits(&demand));
/// let free = capacity.checked_sub(&demand).unwrap();
/// assert_eq!(free[ResourceKind::Compute], 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ResourceVector([u64; RESOURCE_KIND_COUNT]);

impl ResourceVector {
    /// The all-zero vector.
    pub const ZERO: ResourceVector = ResourceVector([0; RESOURCE_KIND_COUNT]);

    /// Creates a vector from explicit components, in [`ResourceKind::ALL`] order.
    #[inline]
    pub const fn new(compute: u64, memory: u64, area: u64, io: u64) -> Self {
        ResourceVector([compute, memory, area, io])
    }

    /// Creates a vector that is zero except for a single `kind`.
    #[inline]
    pub fn with(kind: ResourceKind, amount: u64) -> Self {
        let mut v = Self::ZERO;
        v.0[kind.index()] = amount;
        v
    }

    /// Creates a vector with the same `amount` in every component.
    #[inline]
    pub const fn splat(amount: u64) -> Self {
        ResourceVector([amount; RESOURCE_KIND_COUNT])
    }

    /// Returns the quantity of `kind` in this vector.
    #[inline]
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.0[kind.index()]
    }

    /// Sets the quantity of `kind`, returning the previous value.
    #[inline]
    pub fn set(&mut self, kind: ResourceKind, amount: u64) -> u64 {
        std::mem::replace(&mut self.0[kind.index()], amount)
    }

    /// Returns `true` when every component of `demand` fits within `self`.
    ///
    /// This is the availability test `av(e, t)` of the paper restricted to
    /// quantities; kind-compatibility is checked by the binding phase.
    #[inline]
    pub fn fits(&self, demand: &ResourceVector) -> bool {
        self.0.iter().zip(demand.0.iter()).all(|(have, need)| have >= need)
    }

    /// Component-wise subtraction; `None` when any component would underflow.
    #[inline]
    pub fn checked_sub(&self, rhs: &ResourceVector) -> Option<ResourceVector> {
        let mut out = [0u64; RESOURCE_KIND_COUNT];
        for (slot, (have, need)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *slot = have.checked_sub(*need)?;
        }
        Some(ResourceVector(out))
    }

    /// Component-wise saturating subtraction.
    #[inline]
    pub fn saturating_sub(&self, rhs: &ResourceVector) -> ResourceVector {
        ResourceVector(std::array::from_fn(|i| self.0[i].saturating_sub(rhs.0[i])))
    }

    /// Component-wise saturating addition.
    #[inline]
    pub fn saturating_add(&self, rhs: &ResourceVector) -> ResourceVector {
        ResourceVector(std::array::from_fn(|i| self.0[i].saturating_add(rhs.0[i])))
    }

    /// Sum of all components — a crude scalar "size" used by knapsack
    /// tie-breaking and greedy value/size ratios. Saturates at `u64::MAX`,
    /// so a hostile demand cannot wrap into a small one.
    #[inline]
    pub fn total(&self) -> u64 {
        self.0.iter().fold(0, |sum, &x| sum.saturating_add(x))
    }

    /// Scales every component by `num/den`, rounding down.
    ///
    /// Used by the workload generator to express demands as a fraction of an
    /// element capacity.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn scaled(&self, num: u64, den: u64) -> ResourceVector {
        assert!(den != 0, "scale denominator must be non-zero");
        ResourceVector(std::array::from_fn(|i| self.0[i].saturating_mul(num) / den))
    }

    /// The utilisation of `self` relative to `capacity`, as the maximum
    /// component-wise ratio in `[0, 1]`. Components with zero capacity are
    /// ignored.
    pub fn utilisation_of(&self, capacity: &ResourceVector) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..RESOURCE_KIND_COUNT {
            if capacity.0[i] > 0 {
                worst = worst.max(self.0[i] as f64 / capacity.0[i] as f64);
            }
        }
        worst
    }

    /// Iterates over `(kind, amount)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, u64)> + '_ {
        ResourceKind::ALL.iter().map(move |&k| (k, self.0[k.index()]))
    }

    /// Raw component view, in [`ResourceKind::ALL`] order.
    #[inline]
    pub fn as_array(&self) -> &[u64; RESOURCE_KIND_COUNT] {
        &self.0
    }
}

impl From<[u64; RESOURCE_KIND_COUNT]> for ResourceVector {
    fn from(raw: [u64; RESOURCE_KIND_COUNT]) -> Self {
        ResourceVector(raw)
    }
}

impl Index<ResourceKind> for ResourceVector {
    type Output = u64;

    fn index(&self, kind: ResourceKind) -> &u64 {
        &self.0[kind.index()]
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;

    fn add(self, rhs: ResourceVector) -> ResourceVector {
        self.saturating_add(&rhs)
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = self.saturating_add(&rhs);
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;

    /// Component-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on underflow; use [`ResourceVector::checked_sub`] in ledgers.
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        self.checked_sub(&rhs).expect("resource vector subtraction underflowed")
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        *self = *self - rhs;
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (kind, amount)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{kind}:{amount}")?;
        }
        write!(f, "]")
    }
}

impl std::iter::Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |acc, v| acc + v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_get_roundtrip() {
        let v = ResourceVector::new(1, 2, 3, 4);
        assert_eq!(v.get(ResourceKind::Compute), 1);
        assert_eq!(v.get(ResourceKind::Memory), 2);
        assert_eq!(v.get(ResourceKind::Area), 3);
        assert_eq!(v.get(ResourceKind::Io), 4);
    }

    #[test]
    fn with_sets_single_component() {
        let v = ResourceVector::with(ResourceKind::Memory, 42);
        assert_eq!(v, ResourceVector::new(0, 42, 0, 0));
    }

    #[test]
    fn total_saturates() {
        assert_eq!(ResourceVector::new(1, 2, 3, 4).total(), 10);
        assert_eq!(ResourceVector::new(u64::MAX, 1, 0, 0).total(), u64::MAX);
        assert_eq!(ResourceVector::splat(u64::MAX).total(), u64::MAX);
    }

    #[test]
    fn fits_is_componentwise() {
        let cap = ResourceVector::new(10, 10, 0, 0);
        assert!(cap.fits(&ResourceVector::new(10, 10, 0, 0)));
        assert!(cap.fits(&ResourceVector::ZERO));
        assert!(!cap.fits(&ResourceVector::new(11, 0, 0, 0)));
        assert!(!cap.fits(&ResourceVector::new(0, 0, 1, 0)));
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        let a = ResourceVector::new(5, 5, 5, 5);
        let b = ResourceVector::new(6, 0, 0, 0);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(a.checked_sub(&ResourceVector::splat(5)), Some(ResourceVector::ZERO));
    }

    #[test]
    fn saturating_ops_clamp() {
        let a = ResourceVector::new(1, 2, 3, 4);
        assert_eq!(a.saturating_sub(&ResourceVector::splat(10)), ResourceVector::ZERO);
        let b = ResourceVector::splat(u64::MAX);
        assert_eq!(b.saturating_add(&a), b);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = ResourceVector::new(7, 8, 9, 10);
        let b = ResourceVector::new(1, 2, 3, 4);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn sub_panics_on_underflow() {
        let _ = ResourceVector::ZERO - ResourceVector::splat(1);
    }

    #[test]
    fn scaled_rounds_down() {
        let v = ResourceVector::new(10, 5, 0, 1);
        assert_eq!(v.scaled(50, 100), ResourceVector::new(5, 2, 0, 0));
        assert_eq!(v.scaled(100, 100), v);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn scaled_panics_on_zero_denominator() {
        let _ = ResourceVector::splat(1).scaled(1, 0);
    }

    #[test]
    fn utilisation_ignores_zero_capacity() {
        let cap = ResourceVector::new(100, 0, 0, 0);
        let use_ = ResourceVector::new(70, 999, 0, 0);
        assert!((use_.utilisation_of(&cap) - 0.7).abs() < 1e-12);
        assert_eq!(ResourceVector::ZERO.utilisation_of(&ResourceVector::ZERO), 0.0);
    }

    #[test]
    fn total_sums_the_components() {
        assert_eq!(ResourceVector::new(1, 2, 3, 4).total(), 10);
    }

    #[test]
    fn display_is_nonempty_and_labelled() {
        let s = ResourceVector::new(1, 2, 3, 4).to_string();
        assert!(s.contains("cpu:1") && s.contains("mem:2") && s.contains("io:4"));
    }

    #[test]
    fn sum_folds_vectors() {
        let total: ResourceVector =
            vec![ResourceVector::splat(1), ResourceVector::splat(2)].into_iter().sum();
        assert_eq!(total, ResourceVector::splat(3));
    }

    #[test]
    fn kind_indices_are_dense_and_unique() {
        let mut seen = [false; RESOURCE_KIND_COUNT];
        for kind in ResourceKind::ALL {
            assert!(!seen[kind.index()]);
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
