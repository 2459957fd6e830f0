//! # regwin-obs
//!
//! The unified observability layer of the regwin workspace: one
//! [`Probe`] trait through which every layer — the window machine, the
//! trap schemes, the runtime scheduler and the sweep engine — reports
//! what it is doing, instead of each layer inventing its own counting
//! API.
//!
//! The design has three pieces:
//!
//! * **Events** ([`ProbeEvent`]): hierarchical spans
//!   (`job → simulation → trap`, [`SpanKind`]), typed counter
//!   increments ([`Metric`]) and gauges (e.g. ready-queue depth).
//!   Instrumented code emits events through an optional
//!   `Arc<dyn Probe>`; with no probe installed the only cost on the
//!   hot path is one `Option` branch.
//! * **Counters** ([`Metric`], [`MetricSet`]): a closed set of typed
//!   counters with a fixed, deterministic iteration order, so two
//!   aggregations of the same run serialize byte-identically no matter
//!   the thread interleaving that produced them.
//! * **Sinks**: [`NoopProbe`] (the zero-cost default),
//!   [`RecordingProbe`] (an in-memory event log for tests and
//!   diagnostics) and [`MetricProbe`] (a thread-safe aggregator
//!   producing a [`MetricSet`] snapshot). Deterministic JSONL rows for
//!   trace files are built with [`jsonl::Row`].
//!
//! This crate is dependency-free and sits below every other regwin
//! crate.
//!
//! ```rust
//! use regwin_obs::{Metric, MetricProbe, Probe, ProbeEvent};
//! use std::sync::Arc;
//!
//! let probe = Arc::new(MetricProbe::new());
//! probe.record(&ProbeEvent::Counter { metric: Metric::SavesExecuted, delta: 2 });
//! probe.record(&ProbeEvent::Counter { metric: Metric::SavesExecuted, delta: 1 });
//! assert_eq!(probe.snapshot().get(Metric::SavesExecuted), 3);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod histogram;
pub mod jsonl;
mod metric;
mod probe;

pub use histogram::Histogram;
pub use metric::{Metric, MetricSet};
pub use probe::{
    MetricProbe, NoopProbe, OwnedProbeEvent, Probe, ProbeEvent, RecordingProbe, SpanKind,
    StreamProbe,
};
