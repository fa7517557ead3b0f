//! The ambient-randomness surface of upstream `rand`, as stubs.

pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng
}

pub fn random<T: Default>() -> T {
    T::default()
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;

    fn from_entropy() -> Self {
        Self::seed_from_u64(0)
    }
}

pub mod rngs {
    pub struct OsRng;

    pub struct ThreadRng;

    pub struct StdRng;

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(_: u64) -> Self {
            StdRng
        }
    }
}
