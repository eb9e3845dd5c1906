//! Fault injection for the anytime-soundness contract ([`fi`]), plus
//! the Criterion microbenches under `benches/`.
//!
//! The paper's experiments run through `coremax-solve`: `--generate`
//! writes the instance suites and batch mode prints one `r` row per
//! instance and the abort count (see the README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fi;
