//! Window-occupancy timelines: replay a trace and render who owns each
//! physical window slot over time — the register file's story as a text
//! strip chart, one row per slot, one column per sample.
//!
//! This is the picture behind the paper's Figures 5–9: under the sharing
//! schemes, each thread's windows sit still across context switches
//! (long horizontal runs of one thread's digit), while under NS every
//! switch repaints the file.

use regwin_machine::{MachineConfig, SlotUse, WindowIndex};
use regwin_rt::{RtError, Trace, TraceEvent};
use regwin_traps::{Cpu, RestoreInstr, Scheme};

/// One sampled snapshot of the window file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Event index at which the sample was taken.
    pub at_event: usize,
    /// Per-slot usage, indexed by window.
    pub slots: Vec<SlotUse>,
    /// The CWP at sample time.
    pub cwp: WindowIndex,
}

/// A rendered occupancy timeline plus the raw snapshots.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Scheme and window count description.
    pub title: String,
    /// The snapshots, oldest first.
    pub snapshots: Vec<Snapshot>,
}

impl Timeline {
    /// Renders the timeline as one text row per window slot: digits are
    /// live frames (thread index mod 10), `·` free, lowercase letters
    /// dead frames, `R` the global reservation, `p` a PRW; `*` overlays
    /// the CWP slot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let nslots = self.snapshots.first().map(|s| s.slots.len()).unwrap_or(0);
        for slot in 0..nslots {
            out.push_str(&format!("W{slot:<2} "));
            for snap in &self.snapshots {
                let c = if snap.cwp.index() == slot {
                    '*'
                } else {
                    match snap.slots[slot] {
                        SlotUse::Free => '·',
                        SlotUse::Live(t) => {
                            char::from_digit((t.index() % 10) as u32, 10).unwrap_or('?')
                        }
                        SlotUse::Dead(t) => (b'a' + (t.index() % 26) as u8) as char,
                        SlotUse::Reserved => 'R',
                        SlotUse::Prw(_) => 'p',
                    }
                };
                out.push(c);
            }
            out.push('\n');
        }
        out.push_str(
            "    (digits: live frames by thread, letters: dead, p: PRW, R: reserved, *: CWP)\n",
        );
        out
    }

    /// The fraction of samples in which a given thread had at least one
    /// live window resident — a residency measure per thread.
    pub fn residency(&self, thread: usize) -> f64 {
        if self.snapshots.is_empty() {
            return 0.0;
        }
        let hits = self
            .snapshots
            .iter()
            .filter(|s| {
                s.slots.iter().any(|u| matches!(u, SlotUse::Live(t) if t.index() == thread))
            })
            .count();
        hits as f64 / self.snapshots.len() as f64
    }
}

/// Replays `trace` under the given scheme, sampling the window file
/// `samples` times at even event intervals.
///
/// # Errors
///
/// Propagates replay errors.
pub fn sample_timeline(
    trace: &Trace,
    nwindows: usize,
    scheme: Box<dyn Scheme>,
    samples: usize,
) -> Result<Timeline, RtError> {
    let title = format!("{} on {} windows, {} samples", scheme.kind(), nwindows, samples.max(1));
    let mut cpu = Cpu::with_config(MachineConfig::new(nwindows), scheme)?;
    let threads: Vec<_> = (0..trace.thread_names().len()).map(|_| cpu.add_thread()).collect();
    let stride = (trace.len() / samples.max(1)).max(1);
    let mut snapshots = Vec::new();
    for (i, event) in trace.events().iter().enumerate() {
        match *event {
            TraceEvent::Save => cpu.save()?,
            TraceEvent::Restore => cpu.restore_with(&RestoreInstr::trivial())?,
            TraceEvent::Compute(c) => cpu.compute(c),
            TraceEvent::SwitchTo(t) => cpu.switch_to(threads[t.index()])?,
            TraceEvent::Terminate => {
                cpu.terminate_current()?;
            }
        }
        if i % stride == 0 {
            let m = cpu.machine();
            snapshots.push(Snapshot {
                at_event: i,
                slots: (0..nwindows).map(|w| m.slot_use(WindowIndex::new(w))).collect(),
                cwp: m.cwp(),
            });
        }
    }
    Ok(Timeline { title, snapshots })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regwin_spell::{CorpusSpec, SpellConfig, SpellPipeline};
    use regwin_traps::{build_scheme, SchemeKind};

    fn trace() -> Trace {
        let pipeline = SpellPipeline::new(SpellConfig::new(CorpusSpec::small(), 4, 4));
        pipeline.run_traced(8, SchemeKind::Sp).unwrap().1
    }

    #[test]
    fn timeline_samples_and_renders() {
        let t = trace();
        let tl = sample_timeline(&t, 8, build_scheme(SchemeKind::Sp), 60).unwrap();
        assert!(tl.snapshots.len() >= 50);
        let rendered = tl.render();
        assert!(rendered.lines().count() >= 9, "8 slot rows + header");
        assert!(rendered.contains('*'), "CWP marker present");
    }

    #[test]
    fn sharing_keeps_threads_resident_longer_than_ns() {
        let t = trace();
        let sp = sample_timeline(&t, 16, build_scheme(SchemeKind::Sp), 200).unwrap();
        let ns = sample_timeline(&t, 16, build_scheme(SchemeKind::Ns), 200).unwrap();
        // Mean residency across the pipeline threads: under NS only the
        // running thread is ever resident, under SP most threads stay.
        let mean = |tl: &Timeline| -> f64 { (0..7).map(|i| tl.residency(i)).sum::<f64>() / 7.0 };
        assert!(
            mean(&sp) > mean(&ns) + 0.3,
            "SP residency {:.2} must far exceed NS {:.2}",
            mean(&sp),
            mean(&ns)
        );
    }
}
