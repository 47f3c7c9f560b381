//! Code shared by the root test crates that declare `mod common;`.

pub mod interp;
