//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim vendors the
//! slice of proptest the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`,
//! * range strategies (`lo..hi` for `f64`/integers, `lo..=hi` for unsigned
//!   integers up to the full width), `collection::vec`, and `bool::ANY`.
//!
//! Values are drawn from a splitmix64 generator seeded from the test's module
//! path and name, so every run of a given test explores the same cases —
//! deliberately reproducible, like proptest with a fixed RNG seed. Failing
//! cases are reported with the generated inputs. Shrinking is not
//! implemented: cases here are already small by construction.

pub mod test_runner {
    /// Per-test configuration; only `cases` is meaningful in the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assert!`-style failure: the property is violated.
        Fail(String),
        /// `prop_assume!`-style rejection: the inputs are out of scope.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    pub type TestCaseResult = Result<(), TestCaseError>;

    /// splitmix64: tiny, high-quality-enough, and fully deterministic.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test identifier (FNV-1a over the name) so each test
        /// gets its own reproducible stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self { state: h | 1 }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values; the generation half of proptest's
    /// `Strategy` (no shrinking in the shim).
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty strategy range");
                    // `None`: the range is all 2^64 values of a 64-bit type.
                    match ((*self.end() - *self.start()) as u64).checked_add(1) {
                        Some(span) => *self.start() + rng.below(span) as $t,
                        None => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    int_range_strategy!(usize, u64, u32, u16, u8);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer strategy range");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }
    signed_range_strategy!(i64, i32);

    /// Constant strategy (`Just` in proptest proper).
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform boolean strategy (`proptest::bool::ANY`).
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Accepted by [`vec`] wherever proptest takes `impl Into<SizeRange>`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub lo: usize,
        /// Exclusive upper bound.
        pub hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector of `element` draws with a
    /// length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// The proptest entry macro: expands each `fn name(args in strategies)` item
/// into a `#[test]`-able function that draws `cases` inputs and runs the body
/// against each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            let max_attempts = cfg.cases.saturating_mul(20).max(200);
            while accepted < cfg.cases {
                attempts += 1;
                assert!(
                    attempts <= max_attempts,
                    "proptest {}: too many rejected cases ({} accepted of {} wanted)",
                    stringify!($name), accepted, cfg.cases,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let case = format!(
                    concat!($(stringify!($arg), " = {:?}; ",)+),
                    $(&$arg),+
                );
                let outcome: $crate::test_runner::TestCaseResult =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest {} failed: {}\n  inputs: {}", stringify!($name), msg, case);
                    }
                }
            }
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+), l, r
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..1000 {
            let x = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let f = (-2.0f64..5.0).generate(&mut rng);
            assert!((-2.0..5.0).contains(&f));
            let v = crate::collection::vec(0.0f64..1.0, 2..9).generate(&mut rng);
            assert!((2..9).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    fn full_width_inclusive_ranges_generate() {
        let mut rng = TestRng::deterministic("full width");
        let mut seen = [false; 256];
        let (mut high, mut low) = (false, false);
        for _ in 0..4096 {
            seen[(u8::MIN..=u8::MAX).generate(&mut rng) as usize] = true;
            let x = (0..=u64::MAX).generate(&mut rng);
            high |= x > u64::MAX / 2;
            low |= x <= u64::MAX / 2;
            assert_eq!((7u64..=7).generate(&mut rng), 7);
        }
        assert!(seen.iter().all(|&s| s), "every u8 value is drawn");
        assert!(high && low, "both halves of u64 are drawn");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_draws_and_asserts(a in 1usize..50, b in 1usize..50) {
            prop_assume!(a != b);
            prop_assert!(a + b > 1, "sum too small: {} + {}", a, b);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn vec_and_bool_strategies(v in crate::collection::vec(-1.0f64..1.0, 0..20),
                                   flag in crate::bool::ANY) {
            prop_assert!(v.len() < 20);
            let _ = flag;
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        let r = std::panic::catch_unwind(|| {
            proptest! {
                #[allow(unused)]
                fn inner(x in 0usize..10) {
                    prop_assert!(x < 3, "x too big");
                }
            }
            inner();
        });
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("x too big") && msg.contains("inputs"), "{msg}");
    }
}
