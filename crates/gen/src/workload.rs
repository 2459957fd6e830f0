//! Workload synthesis: turning a [`WorkloadSpec`] into concrete thread
//! programs, and interpreting those programs through the runtime's
//! [`Ctx`] op stream.
//!
//! A synthesized workload is plain data — streams, threads, and per
//! thread a step list — so its byte encoding can be compared across
//! runs (the generator-determinism property test) and its execution is
//! a pure fold over [`Ctx`] calls: exactly the op stream the spell
//! pipeline feeds the runtime, which is why generated scenarios run
//! unmodified through machine, rt and cluster under any policy ×
//! timing backend.

use crate::spec::{splitmix64, WorkloadSpec};
use regwin_rt::{Ctx, RtError, Simulation, StreamId};

/// What a work item does at the bottom of its call descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepIo {
    /// Pure compute, no stream traffic (burst-gap steps).
    None,
    /// Write this byte to the thread's output stream (sources).
    Write(u8),
    /// Read one byte from the input stream and forward
    /// `byte.wrapping_add(1)` to the output stream (relays).
    Forward,
    /// Read one byte from the input stream and check it equals the
    /// synthesized expectation (sinks); a mismatch is a typed runtime
    /// error, so stream-level corruption can never pass silently.
    ReadExpect(u8),
}

/// One work item: descend `depth` call frames, charge `compute` cycles
/// at the bottom, perform the I/O there, and return back up. Every
/// frame of the descent is a real `save`/`restore` pair on the
/// simulated CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Call frames to descend (bounded by the spec's `max_depth`).
    pub depth: u8,
    /// Cycles charged at the bottom frame.
    pub compute: u16,
    /// The bottom-frame I/O.
    pub io: StepIo,
}

/// A stream to create on the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDef {
    /// Stream name (shows up in deadlock details and traces).
    pub name: String,
    /// Byte capacity.
    pub capacity: usize,
}

/// One synthesized thread: a name, its stream endpoints (indices into
/// [`Workload::streams`]) and the step list it interprets. After the
/// steps, a thread with an input reads end-of-stream (anything else is
/// an error) and a thread with an output closes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadProgram {
    /// Thread name (`c<chain>t<stage>:<role>`).
    pub name: String,
    /// Input stream index, if the thread consumes one.
    pub input: Option<usize>,
    /// Output stream index, if the thread produces one.
    pub output: Option<usize>,
    /// The work items, in program order.
    pub steps: Vec<Step>,
}

/// A fully synthesized workload: pure data, ready to install on any
/// [`Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// The spec this workload was synthesized from.
    pub spec: WorkloadSpec,
    /// Streams to create, in creation order.
    pub streams: Vec<StreamDef>,
    /// Threads to spawn, in spawn order.
    pub threads: Vec<ThreadProgram>,
}

impl Workload {
    /// Synthesizes the workload for `spec`. Deterministic: the same
    /// spec always produces the identical structure, step lists and
    /// payload bytes (the fuzz farm's cache keys and reproducers rely
    /// on it).
    pub fn synthesize(spec: &WorkloadSpec) -> Workload {
        let mut state = spec.seed ^ 0x5EED_F00D_CAFE_D00D;
        let mut streams = Vec::new();
        let mut threads = Vec::new();
        let relays = usize::from(spec.stages) - 2;
        for chain in 0..usize::from(spec.chains) {
            let first_stream = streams.len();
            for link in 0..usize::from(spec.stages) - 1 {
                streams.push(StreamDef {
                    name: format!("c{chain}s{link}"),
                    capacity: usize::from(spec.capacity),
                });
            }
            // Source: sampled payload bytes in bursts, a pure-compute
            // gap step after each burst.
            let payload: Vec<u8> =
                (0..spec.payload).map(|_| (splitmix64(&mut state) & 0x7F) as u8).collect();
            let mut steps = Vec::new();
            for (i, &b) in payload.iter().enumerate() {
                steps.push(Step {
                    depth: spec.depth.sample(&mut state, spec.max_depth),
                    compute: spec.compute,
                    io: StepIo::Write(b),
                });
                if (i + 1) % usize::from(spec.burst) == 0 {
                    steps.push(Step {
                        depth: spec.depth.sample(&mut state, spec.max_depth),
                        compute: spec.compute * 2,
                        io: StepIo::None,
                    });
                }
            }
            threads.push(ThreadProgram {
                name: format!("c{chain}t0:source"),
                input: None,
                output: Some(first_stream),
                steps,
            });
            // Relays: one forward per payload byte, sampled depths.
            for r in 0..relays {
                let steps = (0..spec.payload)
                    .map(|_| Step {
                        depth: spec.depth.sample(&mut state, spec.max_depth),
                        compute: spec.compute,
                        io: StepIo::Forward,
                    })
                    .collect();
                threads.push(ThreadProgram {
                    name: format!("c{chain}t{}:relay", r + 1),
                    input: Some(first_stream + r),
                    output: Some(first_stream + r + 1),
                    steps,
                });
            }
            // Sink: each relay bumped the byte by one, so the expected
            // arrivals are statically known.
            let steps = payload
                .iter()
                .map(|&b| Step {
                    depth: spec.depth.sample(&mut state, spec.max_depth),
                    compute: spec.compute,
                    io: StepIo::ReadExpect(b.wrapping_add(relays as u8)),
                })
                .collect();
            threads.push(ThreadProgram {
                name: format!("c{chain}t{}:sink", usize::from(spec.stages) - 1),
                input: Some(first_stream + relays),
                output: None,
                steps,
            });
        }
        Workload { spec: *spec, streams, threads }
    }

    /// A canonical byte encoding of the whole workload — structure,
    /// streams, step lists, payload bytes. Two encodings are equal iff
    /// the synthesized op streams are identical; the determinism
    /// property tests compare these across runs and across threads.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.spec.canonical().as_bytes());
        for s in &self.streams {
            out.push(b'|');
            out.extend_from_slice(s.name.as_bytes());
            out.extend_from_slice(&(s.capacity as u32).to_le_bytes());
        }
        for t in &self.threads {
            out.push(b'#');
            out.extend_from_slice(t.name.as_bytes());
            out.push(t.input.map_or(0xFF, |i| i as u8));
            out.push(t.output.map_or(0xFF, |i| i as u8));
            for step in &t.steps {
                out.push(step.depth);
                out.extend_from_slice(&step.compute.to_le_bytes());
                match step.io {
                    StepIo::None => out.push(0),
                    StepIo::Write(b) => out.extend_from_slice(&[1, b]),
                    StepIo::Forward => out.push(2),
                    StepIo::ReadExpect(b) => out.extend_from_slice(&[3, b]),
                }
            }
        }
        out
    }

    /// Creates the streams and spawns the threads on `sim` (in
    /// synthesis order, so the schedule is a pure function of the
    /// scenario).
    pub fn install(&self, sim: &mut Simulation) {
        let ids: Vec<StreamId> =
            self.streams.iter().map(|s| sim.add_stream(s.name.clone(), s.capacity, 1)).collect();
        for t in &self.threads {
            let prog = ResolvedProgram {
                input: t.input.map(|i| ids[i]),
                output: t.output.map(|i| ids[i]),
                steps: t.steps.clone(),
            };
            sim.spawn_async(t.name.clone(), async move |ctx| prog.run(ctx).await);
        }
    }
}

/// A thread program with its stream indices resolved to live ids —
/// what actually moves into the spawned closure.
#[derive(Debug, Clone)]
struct ResolvedProgram {
    input: Option<StreamId>,
    output: Option<StreamId>,
    steps: Vec<Step>,
}

impl ResolvedProgram {
    async fn run(self, ctx: &mut Ctx) -> Result<(), RtError> {
        for step in &self.steps {
            self.exec(ctx, step.depth, step).await?;
        }
        // Epilogue: drain end-of-stream, then close downstream.
        if let Some(input) = self.input {
            if let Some(extra) = ctx.read_byte(input).await? {
                return Err(RtError::Internal {
                    detail: format!("generated stream carried unexpected trailing byte {extra:#x}"),
                });
            }
        }
        if let Some(output) = self.output {
            ctx.close_writer(output)?;
        }
        Ok(())
    }

    async fn exec(&self, ctx: &mut Ctx, depth: u8, step: &Step) -> Result<(), RtError> {
        if depth > 0 {
            return ctx.call(async |ctx| Box::pin(self.exec(ctx, depth - 1, step)).await).await;
        }
        if step.compute > 0 {
            ctx.compute(u64::from(step.compute));
        }
        match step.io {
            StepIo::None => Ok(()),
            StepIo::Write(b) => {
                ctx.write_byte(self.output.expect("writer step on a thread with no output"), b)
                    .await
            }
            StepIo::Forward => {
                let input = self.input.expect("forward step on a thread with no input");
                let output = self.output.expect("forward step on a thread with no output");
                match ctx.read_byte(input).await? {
                    Some(b) => ctx.write_byte(output, b.wrapping_add(1)).await,
                    None => Err(RtError::Internal {
                        detail: "generated stream ended before the program did".into(),
                    }),
                }
            }
            StepIo::ReadExpect(want) => {
                let input = self.input.expect("read step on a thread with no input");
                match ctx.read_byte(input).await? {
                    Some(got) if got == want => Ok(()),
                    Some(got) => Err(RtError::Internal {
                        detail: format!("generated sink expected {want:#x}, got {got:#x}"),
                    }),
                    None => Err(RtError::Internal {
                        detail: "generated stream ended before the program did".into(),
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regwin_machine::SchemeKind;

    #[test]
    fn synthesis_is_byte_deterministic() {
        for seed in 0..100u64 {
            let spec = WorkloadSpec::from_seed(seed);
            assert_eq!(
                Workload::synthesize(&spec).encode(),
                Workload::synthesize(&spec).encode(),
                "seed {seed}",
            );
        }
    }

    #[test]
    fn synthesis_is_byte_deterministic_across_threads() {
        // The --jobs 1 vs --jobs 8 half of the determinism property:
        // concurrent synthesis on 8 threads produces the identical
        // encoding, so parallel sweep workers see the same workload.
        let spec = WorkloadSpec::from_seed(0xFEED);
        let reference = Workload::synthesize(&spec).encode();
        let encodings: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| Workload::synthesize(&spec).encode())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in encodings {
            assert_eq!(e, reference);
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_op_streams() {
        let distinct: std::collections::HashSet<Vec<u8>> =
            (0..50).map(|s| Workload::synthesize(&WorkloadSpec::from_seed(s)).encode()).collect();
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    fn topology_matches_the_spec() {
        for seed in 0..30u64 {
            let spec = WorkloadSpec::from_seed(seed);
            let wl = Workload::synthesize(&spec);
            assert_eq!(wl.threads.len(), spec.threads());
            assert_eq!(wl.streams.len(), usize::from(spec.chains) * (usize::from(spec.stages) - 1),);
        }
    }

    #[test]
    fn generated_scenarios_run_clean_on_the_runtime() {
        for seed in [0u64, 3, 17] {
            let spec = WorkloadSpec::from_seed(seed);
            let wl = Workload::synthesize(&spec);
            let mut sim = Simulation::new(6, SchemeKind::Sp).unwrap();
            wl.install(&mut sim);
            let report = sim.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(report.stats.context_switches > 0, "seed {seed} never switched");
        }
    }

    #[test]
    fn sp_saturates_at_the_computable_window_demand() {
        // The paper's central behavioural claim: the sharing schemes stop
        // improving once the file covers the total window activity. With
        // a fixed call depth the demand is exact: under SP every thread
        // holding its deepest descent keeps its base frame, that many
        // call frames and one private reserved window resident.
        let spec = WorkloadSpec {
            chains: 1,
            stages: 4,
            payload: 120,
            capacity: 1,
            depth: crate::DepthDist::Uniform { lo: 3, hi: 3 },
            max_depth: 3,
            burst: 8,
            compute: 2,
            ..WorkloadSpec::from_seed(7)
        };
        let wl = Workload::synthesize(&spec);
        let demand: usize = wl
            .threads
            .iter()
            .map(|t| 2 + usize::from(t.steps.iter().map(|s| s.depth).max().unwrap_or(0)))
            .sum();
        assert_eq!(demand, 20, "4 threads, each 1 base + 3 calls + 1 PRW");
        let at = |nwindows: usize| {
            let mut sim = Simulation::new(nwindows, SchemeKind::Sp).unwrap();
            wl.install(&mut sim);
            sim.run().unwrap().total_cycles()
        };
        let (scarce, covered, plenty) = (at(4), at(demand), at(40));
        assert!(covered < scarce, "covering the demand must help: {covered} vs {scarce}");
        assert!(covered < at(demand - 1), "the demand is exact: one window fewer costs more");
        let covered_f = covered as f64;
        assert!(
            (plenty as f64 - covered_f).abs() / covered_f < 0.10,
            "beyond the demand, more windows change little: {covered} vs {plenty}"
        );
    }
}
