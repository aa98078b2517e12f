//! The [`Strategy`] trait and the combinators the workspace uses.

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A generator of test values. Unlike the real crate there is no shrinking:
/// `generate` draws one value directly.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { base: self, f }
    }

    /// Type-erases the strategy, for heterogeneous collections of arms.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Strategy always yielding a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.generate(rng))
    }
}

/// Uniform choice between boxed arms; built by `prop_oneof!`.
pub struct OneOf<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> OneOf<V> {
    /// A choice over `arms`. Panics when `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let pick = (0..self.arms.len()).generate(rng);
        self.arms[pick].generate(rng)
    }
}

/// Strategy wrapping a generation closure; used by `prop_compose!`.
pub struct FnStrategy<F> {
    f: F,
}

impl<F> FnStrategy<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        FnStrategy { f }
    }
}

impl<V, F: Fn(&mut TestRng) -> V> Strategy for FnStrategy<F> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (self.f)(rng)
    }
}

// The span is computed in a wide type and the offset added with modular
// arithmetic, so full-width ranges (e.g. `i32::MIN..1`) sample correctly
// instead of overflowing in the operand type.
macro_rules! impl_range_strategy {
    ($(($t:ty, $wide:ty)),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64 as u128;
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "cannot sample empty range");
                let span =
                    ((*self.end() as $wide).wrapping_sub(*self.start() as $wide) as u64 as u128)
                        + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                self.start().wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

impl_range_strategy!(
    (u8, u64),
    (u16, u64),
    (u32, u64),
    (u64, u64),
    (usize, u64),
    (i32, i64),
    (i64, i64)
);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
