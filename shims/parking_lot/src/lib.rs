//! An empty placeholder for `parking_lot`.
//!
//! Nothing in the workspace locks anything through it any more: a
//! started simulation shares its state within one OS thread and needs
//! no lock. The package stays because `regwin-rt`'s manifest still names
//! it, which keeps the benchmark package's committed lock file
//! (`repro-e2e/Cargo.lock`) valid; it goes together with that entry.
