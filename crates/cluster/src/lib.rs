//! # regwin-cluster
//!
//! Discrete-event simulation of a **multi-PE PIE64 cluster**: N
//! single-PE regwin machines composed over one contended shared bus,
//! the configuration the source paper's register-window schemes were
//! designed for (*"Multiple Threads in Cyclic Register Windows"*,
//! Hidaka, Koike, Tanaka — ISCA 1993, §2: PIE64 couples hundreds of
//! inference PEs through shared network resources).
//!
//! * [`ClusterBuilder`] — composition: each PE is a
//!   [`regwin_rt::StartedSim`] stepped between bus interactions. One
//!   event loop drives the PEs and the bus: PEs send the bus requests
//!   and the bus sends PEs grants and deliveries, through typed
//!   mailboxes, and a min-heap keyed `(tick, node)` orders every
//!   firing, PEs in PE order before the bus at equal ticks.
//! * The bus — per-PE FIFO request queues, fixed-priority or
//!   round-robin arbitration ([`Arbitration`]), wire occupancy and
//!   delivery latency ([`BusConfig`]). Contention stalls are charged
//!   to the requesting PE.
//! * [`run_spell_cluster`] — the spell workload shards its corpus
//!   across PEs and routes every remote PE's misspelling report to a
//!   collector on PE 0.
//!
//! A 1-PE cluster is **byte-identical** to the legacy single-machine
//! path by construction (see [`ClusterReport::merged`]) — the
//! differential oracle the determinism suite pins down.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod bus;
mod cluster;
mod spell;

pub use bus::{Arbitration, BusConfig};
pub use cluster::{ClusterBuilder, ClusterReport};
pub use spell::{run_spell_cluster, ClusterConfig, ClusterOutcome, PeConfig};
