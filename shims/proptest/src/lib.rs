//! Offline shim for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace ships
//! the subset of the proptest API its test suites use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`);
//! * [`strategy::Strategy`] with `prop_map`, implemented for numeric
//!   ranges and tuples;
//! * [`collection::vec`] with fixed or ranged lengths;
//! * [`prop_assert!`] / [`prop_assert_eq!`] (panic-based — no shrinking).
//!
//! Each test runs `ProptestConfig::cases` deterministic cases seeded per
//! case index, so failures are reproducible run-to-run. There is no input
//! shrinking: a failing case reports the case index instead.

#![warn(missing_docs)]

pub use rand;

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

/// Strategy trait and combinators.
pub mod strategy {
    use rand::rngs::StdRng;

    /// A generator of random test inputs.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// A strategy producing one fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rand::Rng::random_range(rng, self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rand::Rng::random_range(rng, self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut StdRng) -> f64 {
            rand::Rng::random_range(rng, self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, G);
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;

    /// Lengths accepted by [`vec()`]: a fixed `usize` or a `usize` range.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rand::Rng::random_range(rng, self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rand::Rng::random_range(rng, self.clone())
        }
    }

    /// A strategy for `Vec<S::Value>` with the given length (or length
    /// range).
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            // The `#[test]` attribute arrives via `$meta` (proptest bodies
            // spell it out), so it is forwarded rather than re-emitted.
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for __case in 0..config.cases {
                    // Seed per case (offset by the test name hash so sibling
                    // tests see different streams).
                    let __seed = {
                        let name = stringify!($name);
                        let mut h = 0xcbf2_9ce4_8422_2325u64;
                        for b in name.bytes() {
                            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
                        }
                        h ^ (__case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    };
                    let mut __rng = <$crate::rand::rngs::StdRng as $crate::rand::SeedableRng>::seed_from_u64(__seed);
                    $(
                        let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);
                    )*
                    let run = || { $body };
                    if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                        eprintln!(
                            "proptest case {}/{} of `{}` failed (seed {:#x})",
                            __case + 1, config.cases, stringify!($name), __seed
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

/// Commonly used items.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        #[test]
        fn ranges_stay_in_bounds(x in 1usize..10, y in 0.5f64..2.0) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0.5..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(0u64..5, 3), w in collection::vec(0u64..5, 2..6)) {
            prop_assert_eq!(v.len(), 3);
            prop_assert!((2..6).contains(&w.len()));
            prop_assert!(v.iter().chain(&w).all(|&e| e < 5));
        }

        #[test]
        fn tuples_and_map_compose(p in (1u32..4, 1u32..4).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..16).contains(&p));
        }
    }

    #[test]
    fn default_config_runs() {
        assert_eq!(ProptestConfig::default().cases, 32);
        assert_eq!(ProptestConfig::with_cases(7).cases, 7);
    }
}
