//! Offline stand-in for the parts of the `proptest` API this workspace
//! uses. Property tests written against the upstream macro surface —
//! `proptest!`, `prop_assert!`, `prop_oneof!`, range and tuple strategies,
//! `prop_map`/`prop_flat_map`, `any::<T>()`, `collection::vec` — run
//! unchanged, driven by a deterministic per-test RNG instead of upstream's
//! shrinking test runner.
//!
//! Differences from upstream, by design: cases never shrink (the failing
//! input is printed instead), and case counts default to 64 — or, as
//! upstream's do, to the `PROPTEST_CASES` environment variable when it
//! is set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// `proptest::collection`: strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive-exclusive or inclusive length specification for
    /// [`vec()`](fn@vec).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector of `size` elements of
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.usize_in(self.size.lo, self.size.hi_inclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `proptest::option`: strategies for `Option`.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `None` half the time, `Some(inner)` otherwise.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `proptest::option::of`: an optional value of `inner`'s type.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// The things `use proptest::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Per-block configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for upstream compatibility; shrinking never runs here.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES").ok();
            ProptestConfig {
                cases: cases.and_then(|v| v.parse().ok()).unwrap_or(64),
                max_shrink_iters: 0,
            }
        }
    }
}

/// Asserts inside a property; identical to `assert!` here (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted or unweighted union of strategies over one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::box_strategy($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::box_strategy($strat))),+
        ])
    };
}

/// Defines property tests: each function runs its body over `cases`
/// sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::prelude::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cases = { $cfg }.cases;
            let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for __case in 0..__cases {
                let _ = __case;
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 1u16..=3, f in 0.0f64..1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((1..=3).contains(&y));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies(v in crate::collection::vec((0u8..4, 5usize..9), 1..30)) {
            prop_assert!(!v.is_empty() && v.len() < 30);
            for (a, b) in v {
                prop_assert!(a < 4 && (5..9).contains(&b));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

        /// Docs on a property function must parse too.
        #[test]
        fn config_and_oneof_and_maps(
            choice in prop_oneof![
                2 => (0u32..10).prop_map(|v| v as u64),
                1 => Just(99u64),
            ],
            pair in (1u16..=4).prop_flat_map(|n| (Just(n), 0u32..u32::from(n))),
        ) {
            prop_assert!(choice < 10 || choice == 99);
            prop_assert!(pair.1 < u32::from(pair.0));
        }
    }

    #[test]
    fn any_covers_domain_reasonably() {
        let mut rng = crate::test_runner::TestRng::for_test("any");
        let strat = crate::strategy::any::<u16>();
        let mut seen_high = false;
        for _ in 0..200 {
            if strat.sample(&mut rng) > u16::MAX / 2 {
                seen_high = true;
            }
        }
        assert!(seen_high);
    }
}
