//! Offline shim of `proptest` 1.x.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal local stand-in for its one external dev-dependency (see
//! `shims/README.md`). This crate reimplements the macro surface and the
//! strategy combinators that the Kairos property tests use — `proptest!`,
//! `prop_compose!`, `prop_oneof!`, `prop_assert!`/`prop_assert_eq!`,
//! ranges/tuples/`Just`/`any`/`collection::vec` strategies, `.prop_map` —
//! as straightforward seeded generate-and-assert loops.
//!
//! Differences from the real crate: no shrinking (a failing case reports
//! its case index and message only) and a fixed deterministic seed per test
//! derived from the test name, so failures are always reproducible.

pub mod strategy;

pub mod test_runner {
    //! Test configuration and the deterministic RNG driving generation.

    /// Configuration accepted by `proptest!`'s `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// The RNG handed to strategies: xoshiro256\*\* seeded by SplitMix64,
    /// deterministic per test name. The shim keeps its own copy of the
    /// generator so that no test dependency reaches into a product crate.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: [u64; 4],
    }

    impl TestRng {
        /// An RNG seeded from the FNV-1a hash of the test name.
        pub fn for_test(name: &str) -> Self {
            let mut sm = name
                .bytes()
                .fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3));
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            TestRng { state: [next(), next(), next(), next()] }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.state;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::TestRng;
        use crate::strategy::Strategy;

        /// Recorded from the generator this shim carried before it owned
        /// one: changing either list re-draws every property test's cases.
        #[test]
        fn the_stream_of_a_test_name_is_pinned() {
            let mut rng = TestRng::for_test("kairos");
            let words: Vec<String> = (0..8).map(|_| format!("{:016x}", rng.next_u64())).collect();
            let draws: Vec<usize> = (0..8).map(|_| (0usize..=300).generate(&mut rng)).collect();
            let pinned = "81bc421b74427d50 ede1b56ab7884eba ec5384a185aa7acf feacdf2bf6f9db12 \
                          9d9dfe3a053173f9 390d1865d1b149f1 2d349a416dff2ee4 0d6ea83204b53843";
            assert_eq!(words.join(" "), pinned);
            assert_eq!(draws, [85, 224, 271, 284, 210, 255, 147, 60]);
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Size specification of a generated collection, mirroring
    /// `proptest::collection::SizeRange` conversions.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// Strategy producing vectors of values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = (self.size.lo..=self.size.hi_inclusive).generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod prelude {
    //! The usual glob import, mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not the
/// whole process) with a formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", ::std::stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)*));
        }
    };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                        l, r
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(::std::format!($($fmt)*));
                }
            }
        }
    };
}

/// `assert_ne!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `left != right`\n  left: {:?}\n right: {:?}",
                        l,
                        r
                    ));
                }
            }
        }
    };
}

/// Uniform choice between strategies sharing a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Defines a named strategy function from component strategies, mirroring
/// `proptest::prop_compose!` for the single-binding-list form.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident ( $($params:tt)* )
        ( $($arg:ident in $strat:expr),* $(,)? )
        -> $ret:ty $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($params)*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $(let $arg = $strat;)*
            $crate::strategy::FnStrategy::new(
                move |__rng: &mut $crate::test_runner::TestRng| -> $ret {
                    $(let $arg = $crate::strategy::Strategy::generate(&$arg, __rng);)*
                    $body
                },
            )
        }
    };
}

/// Declares property tests: each `fn` runs its body over `cases` generated
/// inputs, reporting the first failing case index and message.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    ( ($config:expr) ) => {};
    (
        ($config:expr)
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::for_test(::std::stringify!($name));
            $(let $arg = $strat;)*
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut rng);)*
                let outcome = (move || -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(message) = outcome {
                    ::std::panic!("property `{}` failed at case {}: {}",
                        ::std::stringify!($name), case, message);
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}
