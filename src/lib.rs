//! Meta crate re-exporting the workspace (see README).

#![forbid(unsafe_code)]
