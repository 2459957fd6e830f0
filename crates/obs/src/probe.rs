//! The `Probe` trait and its built-in sinks.

use crate::metric::{Metric, MetricSet};
use std::fmt;
use std::sync::Mutex;

/// The level of the span hierarchy an event belongs to. Spans nest
/// `Job → Simulation → Trap`; `Switch` spans are siblings of `Trap`
/// inside a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One sweep job (a single (behaviour, scheme, windows) cell).
    Job,
    /// One simulation run inside a job.
    Simulation,
    /// One window trap (overflow or underflow) handled by a scheme.
    Trap,
    /// One context switch performed by the scheduler.
    Switch,
    /// One window-state audit pass (integrity verification and repair)
    /// run by the machine's window auditor.
    Audit,
}

impl SpanKind {
    /// The span kind's stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Simulation => "simulation",
            SpanKind::Trap => "trap",
            SpanKind::Switch => "switch",
            SpanKind::Audit => "audit",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One instrumentation event, passed by reference so emitting costs
/// nothing beyond the values it carries. Names are borrowed to keep the
/// hot path allocation-free; sinks that retain events own-copy them
/// (see [`OwnedProbeEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent<'a> {
    /// A span opened (e.g. a trap handler was entered).
    SpanStart {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name (e.g. `"overflow"`, a job key).
        name: &'a str,
    },
    /// A span closed, with the simulated cycles it covered.
    SpanEnd {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name, matching its `SpanStart`.
        name: &'a str,
        /// Simulated cycles elapsed inside the span (0 where the layer
        /// has no cycle notion, e.g. sweep jobs).
        cycles: u64,
    },
    /// A typed counter increment.
    Counter {
        /// Which counter.
        metric: Metric,
        /// How much to add.
        delta: u64,
    },
    /// An instantaneous level sample (e.g. ready-queue depth at
    /// dispatch).
    Gauge {
        /// The gauge's name.
        name: &'a str,
        /// The sampled value.
        value: u64,
    },
}

/// An owned copy of a [`ProbeEvent`], for sinks that retain events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedProbeEvent {
    /// See [`ProbeEvent::SpanStart`].
    SpanStart {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name.
        name: String,
    },
    /// See [`ProbeEvent::SpanEnd`].
    SpanEnd {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name.
        name: String,
        /// Simulated cycles elapsed inside the span.
        cycles: u64,
    },
    /// See [`ProbeEvent::Counter`].
    Counter {
        /// Which counter.
        metric: Metric,
        /// How much was added.
        delta: u64,
    },
    /// See [`ProbeEvent::Gauge`].
    Gauge {
        /// The gauge's name.
        name: String,
        /// The sampled value.
        value: u64,
    },
}

impl From<&ProbeEvent<'_>> for OwnedProbeEvent {
    fn from(ev: &ProbeEvent<'_>) -> Self {
        match *ev {
            ProbeEvent::SpanStart { kind, name } => {
                OwnedProbeEvent::SpanStart { kind, name: name.to_string() }
            }
            ProbeEvent::SpanEnd { kind, name, cycles } => {
                OwnedProbeEvent::SpanEnd { kind, name: name.to_string(), cycles }
            }
            ProbeEvent::Counter { metric, delta } => OwnedProbeEvent::Counter { metric, delta },
            ProbeEvent::Gauge { name, value } => {
                OwnedProbeEvent::Gauge { name: name.to_string(), value }
            }
        }
    }
}

/// A sink for instrumentation events.
///
/// Probes are shared across threads behind an `Arc` and record through
/// `&self` (interior mutability): the machine, the runtime and the
/// sweep engine all forward to the same instance. Implementations must
/// be cheap — `record` is called on the simulation hot path when a
/// probe is installed.
pub trait Probe: Send + Sync + fmt::Debug {
    /// Consumes one event.
    fn record(&self, event: &ProbeEvent<'_>);

    /// Whether this probe actually observes anything. Instrumented code
    /// may skip building expensive event payloads when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers whatever events the probe holds back. Emitters call it
    /// at the end of each batch of events; the default holds nothing
    /// back.
    fn flush(&self) {}
}

/// An in-memory event log: retains every event in arrival order.
/// Intended for tests and diagnostics, not for full-scale sweeps.
#[derive(Debug, Default)]
pub struct RecordingProbe {
    events: Mutex<Vec<OwnedProbeEvent>>,
}

impl RecordingProbe {
    /// An empty recording probe.
    pub fn new() -> Self {
        RecordingProbe::default()
    }

    /// A copy of every event recorded so far.
    pub fn events(&self) -> Vec<OwnedProbeEvent> {
        self.events.lock().expect("probe log poisoned").clone()
    }

    /// The summed deltas recorded for `metric`.
    pub fn counter_total(&self, metric: Metric) -> u64 {
        self.events
            .lock()
            .expect("probe log poisoned")
            .iter()
            .map(|e| match e {
                OwnedProbeEvent::Counter { metric: m, delta } if *m == metric => *delta,
                _ => 0,
            })
            .sum()
    }

    /// How many spans of `kind` were closed.
    pub fn span_count(&self, kind: SpanKind) -> usize {
        self.events
            .lock()
            .expect("probe log poisoned")
            .iter()
            .filter(|e| matches!(e, OwnedProbeEvent::SpanEnd { kind: k, .. } if *k == kind))
            .count()
    }
}

impl Probe for RecordingProbe {
    fn record(&self, event: &ProbeEvent<'_>) {
        self.events.lock().expect("probe log poisoned").push(event.into());
    }
}

/// A thread-safe counter aggregator: folds every [`ProbeEvent::Counter`]
/// into a [`MetricSet`] and ignores spans and gauges. The cheap
/// always-on sink for live runs.
#[derive(Debug, Default)]
pub struct MetricProbe {
    set: Mutex<MetricSet>,
}

impl MetricProbe {
    /// An empty aggregator.
    pub fn new() -> Self {
        MetricProbe::default()
    }

    /// A copy of the current totals.
    pub fn snapshot(&self) -> MetricSet {
        self.set.lock().expect("metric set poisoned").clone()
    }
}

impl Probe for MetricProbe {
    fn record(&self, event: &ProbeEvent<'_>) {
        if let ProbeEvent::Counter { metric, delta } = event {
            self.set.lock().expect("metric set poisoned").add(*metric, *delta);
        }
    }
}

/// A forwarding sink: renders each event to one deterministic JSONL
/// line (via [`crate::jsonl::Row`]) and hands the lines to a
/// caller-supplied closure — a socket writer, a log file, a channel.
///
/// This is the streaming half of sweep-as-a-service: the daemon
/// installs a `StreamProbe` whose sink writes `event` frames to the
/// client connection, so a thin client watches job progress live.
///
/// Lines are handed over in batches, so a batch costs its consumer one
/// write: the probe holds lines back until [`Probe::flush`], until it
/// holds 64 KiB, or until it drops, and then calls the sink once with
/// every held line, each ended by `\n`. The sink is called under a
/// mutex, so a slow consumer (a full socket buffer) back-pressures the
/// emitting workers instead of growing an unbounded queue.
///
/// Only [`SpanKind::Job`] spans are forwarded: per-trap and per-switch
/// events fire on the simulation hot path and would swamp any socket.
pub struct StreamProbe {
    /// The sink, and the lines held back for it.
    held: Mutex<(StreamSink, String)>,
}

/// The most rendered bytes a [`StreamProbe`] holds back before it hands
/// them to its sink unflushed.
const STREAM_HOLD_BYTES: usize = 64 << 10;

/// The boxed consumer a [`StreamProbe`] forwards rendered lines to.
type StreamSink = Box<dyn FnMut(&str) + Send>;

impl fmt::Debug for StreamProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamProbe").finish_non_exhaustive()
    }
}

impl StreamProbe {
    /// A probe forwarding job-level span events to `sink`.
    pub fn new(sink: impl FnMut(&str) + Send + 'static) -> Self {
        StreamProbe { held: Mutex::new((Box::new(sink), String::new())) }
    }

    /// Holds `lines` back, then hands every held line to the sink if at
    /// least `limit` bytes (and at least one) are held.
    fn hold(&self, lines: &str, limit: usize) {
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        let (sink, held) = &mut *held;
        held.push_str(lines);
        if held.len() >= limit.max(1) {
            sink(held);
            held.clear();
        }
    }

    /// Renders one event as a deterministic JSONL line (no newline).
    pub fn render(event: &ProbeEvent<'_>) -> String {
        match *event {
            ProbeEvent::SpanStart { kind, name } => crate::jsonl::Row::new()
                .str("ev", "start")
                .str("kind", kind.name())
                .str("name", name)
                .finish(),
            ProbeEvent::SpanEnd { kind, name, cycles } => crate::jsonl::Row::new()
                .str("ev", "end")
                .str("kind", kind.name())
                .str("name", name)
                .int("cycles", cycles)
                .finish(),
            ProbeEvent::Counter { metric, delta } => crate::jsonl::Row::new()
                .str("ev", "counter")
                .str("metric", metric.name())
                .int("delta", delta)
                .finish(),
            ProbeEvent::Gauge { name, value } => crate::jsonl::Row::new()
                .str("ev", "gauge")
                .str("name", name)
                .int("value", value)
                .finish(),
        }
    }
}

impl Probe for StreamProbe {
    fn record(&self, event: &ProbeEvent<'_>) {
        if !matches!(
            event,
            ProbeEvent::SpanStart { kind: SpanKind::Job, .. }
                | ProbeEvent::SpanEnd { kind: SpanKind::Job, .. }
        ) {
            return;
        }
        let mut line = Self::render(event);
        line.push('\n');
        self.hold(&line, STREAM_HOLD_BYTES);
    }

    fn flush(&self) {
        self.hold("", 0);
    }
}

impl Drop for StreamProbe {
    fn drop(&mut self) {
        self.hold("", 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_probe_retains_events_in_order() {
        let p = RecordingProbe::new();
        p.record(&ProbeEvent::SpanStart { kind: SpanKind::Trap, name: "overflow" });
        p.record(&ProbeEvent::Counter { metric: Metric::OverflowTraps, delta: 1 });
        p.record(&ProbeEvent::SpanEnd { kind: SpanKind::Trap, name: "overflow", cycles: 93 });
        p.record(&ProbeEvent::Gauge { name: "ready_queue_depth", value: 3 });
        let events = p.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            OwnedProbeEvent::SpanStart { kind: SpanKind::Trap, name: "overflow".into() }
        );
        assert_eq!(p.counter_total(Metric::OverflowTraps), 1);
        assert_eq!(p.span_count(SpanKind::Trap), 1);
        assert!(p.enabled());
    }

    #[test]
    fn metric_probe_aggregates_counters_only() {
        let p = MetricProbe::new();
        p.record(&ProbeEvent::Counter { metric: Metric::CyclesApp, delta: 10 });
        p.record(&ProbeEvent::Counter { metric: Metric::CyclesApp, delta: 5 });
        p.record(&ProbeEvent::SpanEnd { kind: SpanKind::Simulation, name: "x", cycles: 99 });
        let snap = p.snapshot();
        assert_eq!(snap.get(Metric::CyclesApp), 15);
        assert_eq!(snap.iter_nonzero().count(), 1);
    }

    #[test]
    fn stream_probe_forwards_job_spans_as_jsonl_lines() {
        let lines = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let lines = std::sync::Arc::clone(&lines);
            move |line: &str| lines.lock().unwrap().push(line.to_string())
        };
        let p = StreamProbe::new(sink);
        p.record(&ProbeEvent::SpanStart { kind: SpanKind::Job, name: "SP FIFO w=8" });
        p.record(&ProbeEvent::Counter { metric: Metric::Dispatches, delta: 7 });
        p.record(&ProbeEvent::SpanEnd { kind: SpanKind::Trap, name: "overflow", cycles: 93 });
        p.record(&ProbeEvent::SpanEnd { kind: SpanKind::Job, name: "SP FIFO w=8", cycles: 0 });
        assert!(lines.lock().unwrap().is_empty(), "lines are held back until a flush");
        p.flush();
        // A second flush has nothing to hand over and calls no sink.
        p.flush();
        assert_eq!(
            *lines.lock().unwrap(),
            vec![concat!(
                r#"{"ev":"start","kind":"job","name":"SP FIFO w=8"}"#,
                "\n",
                r#"{"ev":"end","kind":"job","name":"SP FIFO w=8","cycles":0}"#,
                "\n",
            )
            .to_string()],
            "only job spans pass the socket filter, and a flush hands them over in one call"
        );
    }

    #[test]
    fn stream_probe_hands_over_what_it_holds_when_full_and_when_dropped() {
        let batches = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let batches = std::sync::Arc::clone(&batches);
            move |lines: &str| batches.lock().unwrap().push(lines.len())
        };
        let p = StreamProbe::new(sink);
        let name = "x".repeat(1000);
        let event = ProbeEvent::SpanStart { kind: SpanKind::Job, name: &name };
        let line = StreamProbe::render(&event).len() + 1;
        let per_batch = STREAM_HOLD_BYTES.div_ceil(line);
        for _ in 0..per_batch + 1 {
            p.record(&event);
        }
        assert_eq!(*batches.lock().unwrap(), vec![per_batch * line], "a full hold is handed over");
        drop(p);
        assert_eq!(*batches.lock().unwrap(), vec![per_batch * line, line], "drop hands the rest");
    }

    #[test]
    fn stream_probe_renders_every_variant() {
        assert_eq!(
            StreamProbe::render(&ProbeEvent::Counter { metric: Metric::Dispatches, delta: 7 }),
            r#"{"ev":"counter","metric":"dispatches","delta":7}"#
        );
        assert_eq!(
            StreamProbe::render(&ProbeEvent::Gauge { name: "ready_queue_depth", value: 3 }),
            r#"{"ev":"gauge","name":"ready_queue_depth","value":3}"#
        );
    }

    #[test]
    fn probes_are_object_safe_and_shareable() {
        let inner = std::sync::Arc::new(MetricProbe::new());
        let probe: std::sync::Arc<dyn Probe> = inner.clone();
        let clones: Vec<_> = (0..4).map(|_| std::sync::Arc::clone(&probe)).collect();
        std::thread::scope(|s| {
            for p in &clones {
                s.spawn(move || {
                    for _ in 0..100 {
                        p.record(&ProbeEvent::Counter { metric: Metric::Dispatches, delta: 1 });
                    }
                });
            }
        });
        assert_eq!(inner.snapshot().get(Metric::Dispatches), 400);
    }
}
