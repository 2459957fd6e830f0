//! The shared bus: the cluster's single contended resource.
//!
//! Every cross-PE byte crosses one bus, modelled the way the PIE64
//! prototype shares its inter-PE network: a request is raised when the
//! sending PE completes the send, the arbiter picks among pending
//! requests (fixed-priority or round-robin), the wire is occupied for
//! `cycles_per_byte`, and the payload lands at the receiver after a
//! further `latency` cycles. The gap between a request and its grant is
//! the *contention stall* — charged to the requesting PE in the run's
//! [`regwin_rt::BusSummary`], which is what the saturation figure
//! plots.
//!
//! Requests from one PE are queued FIFO, so per-sender byte order is
//! preserved under both arbitration policies; arbitration only decides
//! how requests from *different* PEs interleave.

use regwin_rt::StreamId;
use std::collections::{HashMap, VecDeque};

/// A PE asks the bus to move one byte (or a close marker,
/// `payload: None`) off one of its outbound streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    /// The requesting PE.
    pub(crate) from_pe: usize,
    /// The outbound stream, in the sender's id space.
    pub(crate) stream: StreamId,
    /// The byte, or `None` for the writer-close message.
    pub(crate) payload: Option<u8>,
}

/// What the bus sends a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ToPe {
    /// One in-flight byte of the sender's outbound stream (in its id
    /// space) was granted; a blocked writer may resume.
    Grant(StreamId),
    /// A byte (or the close, `None`) lands in an inbound stream of the
    /// receiver, in its id space. The message's tick is the bus-time
    /// instant it arrives.
    Deliver(StreamId, Option<u8>),
}

/// How the bus picks among PEs with pending requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// The lowest-numbered requesting PE always wins. Simple, starves
    /// high-numbered PEs under saturation.
    FixedPriority,
    /// A rotating cursor: after PE *i* is granted, PE *i*+1 is checked
    /// first for the next grant. Fair under saturation.
    RoundRobin,
}

impl Arbitration {
    /// The canonical lowercase name (CLI flag value, artifact field).
    pub fn name(self) -> &'static str {
        match self {
            Arbitration::FixedPriority => "fixed",
            Arbitration::RoundRobin => "rr",
        }
    }

    /// Parses a canonical name.
    pub fn parse(s: &str) -> Option<Arbitration> {
        match s {
            "fixed" | "fixed-priority" => Some(Arbitration::FixedPriority),
            "rr" | "round-robin" => Some(Arbitration::RoundRobin),
            _ => None,
        }
    }
}

/// Bus timing and arbitration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Arbitration policy.
    pub arbitration: Arbitration,
    /// Cycles the wire is occupied per payload byte (close messages
    /// are free: they ride the last byte's framing).
    pub cycles_per_byte: u64,
    /// Propagation delay from grant completion to delivery at the
    /// receiving PE.
    pub latency: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig { arbitration: Arbitration::RoundRobin, cycles_per_byte: 2, latency: 4 }
    }
}

/// The shared bus: per-PE FIFO request queues, the arbiter, and the
/// contention accounting the saturation figure is drawn from.
#[derive(Debug)]
pub(crate) struct Bus {
    cfg: BusConfig,
    npes: usize,
    /// Routes an outbound stream of a sending PE to the inbound stream
    /// of the receiving PE.
    routes: HashMap<(usize, StreamId), (usize, StreamId)>,
    /// Each PE's requests with the tick they were raised at.
    queues: Vec<VecDeque<(u64, Request)>>,
    busy_until: u64,
    rr_cursor: usize,
    grants: u64,
    messages: u64,
    per_pe_stall: Vec<u64>,
}

impl Bus {
    /// A bus serving `npes` PEs with the given configuration.
    pub(crate) fn new(cfg: BusConfig, npes: usize) -> Self {
        Bus {
            cfg,
            npes,
            routes: HashMap::new(),
            queues: (0..npes).map(|_| VecDeque::new()).collect(),
            busy_until: 0,
            rr_cursor: 0,
            grants: 0,
            messages: 0,
            per_pe_stall: vec![0; npes],
        }
    }

    /// Routes `(from_pe, outbound stream)` to `(to_pe, inbound
    /// stream)`. Every outbound stream a PE drains must be routed
    /// before the run starts.
    pub(crate) fn add_route(
        &mut self,
        from_pe: usize,
        outbound: StreamId,
        to_pe: usize,
        inbound: StreamId,
    ) {
        self.routes.insert((from_pe, outbound), (to_pe, inbound));
    }

    /// Bus transactions granted so far (payload bytes plus closes).
    pub(crate) fn grants(&self) -> u64 {
        self.grants
    }

    /// Payload bytes delivered so far.
    pub(crate) fn messages(&self) -> u64 {
        self.messages
    }

    /// Contention stall cycles charged to each requesting PE: for
    /// every granted request, the grant tick minus the request tick.
    pub(crate) fn per_pe_stall(&self) -> &[u64] {
        &self.per_pe_stall
    }

    /// Queues a request raised at `tick`.
    pub(crate) fn push(&mut self, tick: u64, req: Request) {
        self.queues[req.from_pe].push_back((tick, req));
    }

    /// Grants every queued request, sending a [`ToPe::Grant`] to the
    /// sender (payload bytes only — closes occupy no sender capacity)
    /// and a [`ToPe::Deliver`] to the routed target, each as
    /// `send(pe, tick, message)`.
    pub(crate) fn arbitrate(&mut self, mut send: impl FnMut(usize, u64, ToPe)) {
        // The earliest instant any queued request exists; the bus cannot
        // decide before it is both free and has a request.
        while let Some(floor) = self.queues.iter().filter_map(|q| q.front()).map(|r| r.0).min() {
            let t = self.busy_until.max(floor);
            // Requests raised by time t compete for this grant; later
            // ones wait for the next arbitration round.
            let eligible = |pe: usize| self.queues[pe].front().map(|r| r.0 <= t).unwrap_or(false);
            let pe = match self.cfg.arbitration {
                Arbitration::FixedPriority => (0..self.npes).find(|&p| eligible(p)),
                Arbitration::RoundRobin => (0..self.npes)
                    .map(|off| (self.rr_cursor + off) % self.npes)
                    .find(|&p| eligible(p)),
            }
            .expect("a request at the floor tick is always eligible");
            let (tick, req) = self.queues[pe].pop_front().expect("eligible queue has a head");
            let grant_tick = t;
            self.per_pe_stall[pe] += grant_tick - tick;
            self.grants += 1;
            let cost = if req.payload.is_some() { self.cfg.cycles_per_byte } else { 0 };
            self.busy_until = grant_tick + cost;
            if req.payload.is_some() {
                self.messages += 1;
                send(pe, grant_tick, ToPe::Grant(req.stream));
            }
            let &(to_pe, inbound) = self
                .routes
                .get(&(pe, req.stream))
                .unwrap_or_else(|| panic!("unrouted outbound stream on PE {pe}"));
            send(to_pe, grant_tick + cost + self.cfg.latency, ToPe::Deliver(inbound, req.payload));
            if self.cfg.arbitration == Arbitration::RoundRobin {
                self.rr_cursor = (pe + 1) % self.npes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(sim: &mut regwin_rt::Simulation, name: &str) -> StreamId {
        sim.add_stream(name, 4, 1)
    }

    /// Builds a 2-PE bus with routes (pe 0, a) → (pe 1, b) and
    /// (pe 1, a) → (pe 0, b), returning (bus, a, b).
    fn two_pe_bus(arb: Arbitration) -> (Bus, StreamId, StreamId) {
        let mut sim = regwin_rt::Simulation::new(8, regwin_traps::SchemeKind::Sp).expect("sim");
        let a = sid(&mut sim, "a");
        let b = sid(&mut sim, "b");
        let mut bus = Bus::new(BusConfig { arbitration: arb, cycles_per_byte: 2, latency: 4 }, 2);
        bus.add_route(0, a, 1, b);
        bus.add_route(1, a, 0, b);
        (bus, a, b)
    }

    /// Queues `requests` as `(pe, tick, stream, payload)` and returns
    /// everything one arbitration sends, as `(pe, tick, message)`.
    fn fire(
        bus: &mut Bus,
        requests: &[(usize, u64, StreamId, Option<u8>)],
    ) -> Vec<(usize, u64, ToPe)> {
        for &(from_pe, tick, stream, payload) in requests {
            bus.push(tick, Request { from_pe, stream, payload });
        }
        let mut sent = Vec::new();
        bus.arbitrate(|pe, tick, msg| sent.push((pe, tick, msg)));
        sent
    }

    #[test]
    fn fixed_priority_grants_the_lower_pe_first() {
        let (mut bus, a, b) = two_pe_bus(Arbitration::FixedPriority);
        // Both PEs request at tick 10; PE 0 must win both rounds.
        let sent = fire(&mut bus, &[(1, 10, a, Some(7)), (0, 10, a, Some(3))]);
        // Grants: PE 0 at 10, PE 1 at 12 (2 cycles/byte wire time);
        // deliveries land at grant + wire + latency, on stream b.
        assert_eq!(
            sent,
            vec![
                (0, 10, ToPe::Grant(a)),
                (1, 16, ToPe::Deliver(b, Some(3))),
                (1, 12, ToPe::Grant(a)),
                (0, 18, ToPe::Deliver(b, Some(7))),
            ]
        );
        // PE 1 stalled 2 cycles waiting for the wire; PE 0 none.
        assert_eq!(bus.per_pe_stall(), &[0, 2]);
        assert_eq!(bus.grants(), 2);
        assert_eq!(bus.messages(), 2);
    }

    #[test]
    fn round_robin_alternates_between_saturating_pes() {
        let (mut bus, a, _) = two_pe_bus(Arbitration::RoundRobin);
        // Two requests each, all raised at tick 0: grants must
        // alternate 0, 1, 0, 1 instead of draining PE 0 first.
        let sent = fire(
            &mut bus,
            &[(0, 0, a, Some(1)), (0, 0, a, Some(2)), (1, 0, a, Some(8)), (1, 0, a, Some(9))],
        );
        let grant_order: Vec<_> = sent
            .iter()
            .filter(|(_, _, m)| matches!(m, ToPe::Grant(_)))
            .map(|&(to, _, _)| to)
            .collect();
        assert_eq!(grant_order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn close_messages_cost_no_wire_time() {
        let (mut bus, a, b) = two_pe_bus(Arbitration::FixedPriority);
        // No Grant (closes hold no sender capacity); Deliver at
        // tick 5 + 0 wire + 4 latency closing stream b.
        assert_eq!(fire(&mut bus, &[(0, 5, a, None)]), vec![(1, 9, ToPe::Deliver(b, None))]);
        assert_eq!(bus.grants(), 1);
        assert_eq!(bus.messages(), 0);
    }

    #[test]
    fn an_arbitration_grants_every_queued_request() {
        let (mut bus, a, _) = two_pe_bus(Arbitration::RoundRobin);
        fire(&mut bus, &[(0, 0, a, Some(1)), (1, 30, a, Some(2))]);
        assert!(bus.queues.iter().all(VecDeque::is_empty));
        assert_eq!(bus.grants(), 2);
    }
}
