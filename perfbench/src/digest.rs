//! The output-correctness digest: a 64-bit FNV-1a hash of a run's
//! simulated results.
//!
//! Reports are hashed through their `Debug` rendering, which prints
//! every field and round-trips floats exactly, so any change to a
//! simulated count, rate or quantile changes the digest. Two runs of
//! one seed must agree, and so must a traced run and an untraced one.

use std::fmt::{self, Write};

/// An FNV-1a hasher fed through [`fmt::Write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Adds one named value, rendered with `Debug`.
    pub fn add(&mut self, name: &str, value: &impl fmt::Debug) {
        write!(self, "{name}={value:?};").expect("hashing never fails");
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
