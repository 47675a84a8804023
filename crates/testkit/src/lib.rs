//! # dsb-testkit — hermetic verification substrate
//!
//! The workspace's test tooling, built entirely on
//! [`dsb_simcore::Rng`] and the standard library so the whole suite
//! builds and runs with no network access and no crates-io
//! dependencies. Two pieces:
//!
//! * [`runner`] + [`gen`] + [`shrink`] — a minimal property-testing
//!   engine: deterministic generators seeded from SplitMix-derived
//!   per-case seeds, the [`prop!`] macro with configurable case counts,
//!   and integrated greedy shrinking that reports the *minimized*
//!   counterexample together with the seed that replays it.
//! * [`golden`] — checked-in text fixtures ("golden traces") with an
//!   `UPDATE_GOLDENS=1` regeneration path, used to pin simulation
//!   summaries (request counts, latency percentiles at fixed seeds).
//!
//! # Property tests in one minute
//!
//! ```
//! use dsb_testkit::{gen, prop, prop_assert};
//!
//! // Inside a #[test] fn:
//! prop!(
//!     cases = 64,
//!     |rng| gen::vec_with(rng, 0, 20, |r| gen::u64_in(r, 0, 1000)),
//!     |xs: &Vec<u64>| {
//!         let mut sorted = xs.clone();
//!         sorted.sort_unstable();
//!         prop_assert!(sorted.len() == xs.len(), "sorting must not lose elements");
//!         Ok(())
//!     }
//! );
//! ```
//!
//! On failure the engine shrinks the input (halving integers toward
//! zero, truncating vectors, then element-wise) and panics with the
//! minimized value plus a `DSB_PROP_SEED=<seed>` line; exporting that
//! variable makes the failing case the *only* case on the next run.
//!
//! Environment knobs: `DSB_PROP_CASES` overrides every test's case
//! count, `DSB_PROP_SEED` replays one specific case, `UPDATE_GOLDENS=1`
//! rewrites golden fixtures.

#![warn(missing_docs)]

pub mod gen;
pub mod golden;
pub mod runner;
pub mod shrink;

pub use runner::{Config, Counterexample, PropResult};
pub use shrink::Shrink;

/// The RNG all generators take, re-exported so test code can name the
/// type in helper-generator signatures. This matters inside crates that
/// `dsb-testkit` itself depends on (e.g. `dsb-simcore`'s unit tests):
/// there, `crate::Rng` and the `Rng` testkit links against are distinct
/// types, and this re-export is the only spellable name for the latter.
pub use dsb_simcore::Rng;
