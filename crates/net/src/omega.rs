//! The circular Omega network.
//!
//! An Omega network for `N = 2^n` ports consists of `n` stages of `N/2`
//! two-by-two switches, with a perfect-shuffle permutation feeding each
//! stage. Routing is destination-tag: at stage `i` the packet exits on the
//! switch output selected by bit `n-1-i` of the destination address, so every
//! source/destination pair has exactly one path of `n` hops.
//!
//! The EM-X variant is *circular*: each processor is attached to a switch
//! box, the last stage wraps back to the first, and machines whose processor
//! count is not a power of two (the 80-PE prototype) route as a network
//! padded to the next power of two with the surplus ports unused.
//!
//! Timing follows the paper's Switching Unit description:
//!
//! * virtual cut-through — the packet head advances one hop per
//!   [`hop_cycles`](emx_core::NetConfig::hop_cycles) cycle, so an
//!   uncontended packet reaches a processor k hops away in k+1 cycles;
//! * each switch output port accepts one packet every
//!   [`port_service`](emx_core::NetConfig::port_service) cycles (two in the
//!   paper: one word per clock, two words per packet);
//! * contention delays a packet until the port it needs frees up, and
//!   because the path is unique and ports are FIFO, messages on the same
//!   source/destination pair can never overtake one another.

use emx_core::{Cycle, NetConfig, PeId, SimError};

use crate::stats::NetStats;
use crate::Network;

/// Identifies one switch output port: `(stage, switch, output)` flattened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u32);

/// Compute the sequence of output ports a packet traverses from `src` to
/// `dst` in an Omega network of `stages` stages (`2^stages` ports).
///
/// Returns one `PortId` per stage. This is the pure routing function; the
/// [`OmegaNetwork`] adds timing on top of it.
pub fn route_ports(src: usize, dst: usize, stages: u32) -> Vec<PortId> {
    let n = stages;
    let mask = (1usize << n) - 1;
    let mut pos = src & mask;
    let mut ports = Vec::with_capacity(n as usize);
    for stage in 0..n {
        // Perfect shuffle: rotate the position left by one bit...
        pos = ((pos << 1) | (pos >> (n - 1))) & mask;
        // ...then the switch replaces the low bit with the routing bit.
        let bit = (dst >> (n - 1 - stage)) & 1;
        pos = (pos & !1) | bit;
        // The output port is uniquely identified by (stage, position): the
        // switch index is pos >> 1 and the output within the switch is bit.
        ports.push(PortId((stage << n) | pos as u32));
    }
    debug_assert_eq!(
        pos,
        dst & mask,
        "destination-tag routing must terminate at dst"
    );
    ports
}

/// The circular Omega network with per-port contention.
pub struct OmegaNetwork {
    num_pes: usize,
    stages: u32,
    cfg: NetConfig,
    /// `next_free[stage << stages | position]`: first cycle the port can
    /// accept another packet.
    next_free: Vec<Cycle>,
    stats: NetStats,
    /// Scratch buffer reused across route calls to avoid per-packet
    /// allocation in the hot path.
    scratch: Vec<PortId>,
}

impl OmegaNetwork {
    /// Build the network for `num_pes` endpoints (padded to a power of two).
    pub fn new(num_pes: usize, cfg: NetConfig) -> Result<Self, SimError> {
        if num_pes == 0 {
            return Err(SimError::BadConfig {
                reason: "omega network needs at least one port".into(),
            });
        }
        let padded = num_pes.next_power_of_two().max(2);
        let stages = padded.trailing_zeros();
        let ports = (stages as usize) << stages;
        Ok(OmegaNetwork {
            num_pes,
            stages,
            cfg,
            next_free: vec![Cycle::ZERO; ports.max(1)],
            stats: NetStats::default(),
            scratch: Vec::with_capacity(stages as usize),
        })
    }

    /// Number of switch stages (= hops for any non-local route).
    #[inline]
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Number of endpoints the network was built for.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    fn route_scratch(&mut self, src: usize, dst: usize) {
        let n = self.stages;
        let mask = (1usize << n) - 1;
        let mut pos = src & mask;
        self.scratch.clear();
        for stage in 0..n {
            pos = ((pos << 1) | (pos >> (n - 1))) & mask;
            let bit = (dst >> (n - 1 - stage)) & 1;
            pos = (pos & !1) | bit;
            self.scratch.push(PortId((stage << n) | pos as u32));
        }
    }
}

impl Network for OmegaNetwork {
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle {
        debug_assert!(src.index() < self.num_pes, "source {src} outside machine");
        debug_assert!(
            dst.index() < self.num_pes,
            "destination {dst} outside machine"
        );

        if src == dst {
            // Local delivery through the switch box: the paper's k+1 formula
            // with k = 0 — one cycle from OBU back to IBU.
            self.stats.record(1, 0, Cycle::ZERO);
            return now + u64::from(self.cfg.hop_cycles);
        }

        self.route_scratch(src.index(), dst.index());
        let hop = u64::from(self.cfg.hop_cycles);
        let service = u64::from(self.cfg.port_service);

        // Injection from the processor into its switch box: one hop cycle.
        let mut head = now + hop;
        let mut waited = Cycle::ZERO;
        for i in 0..self.scratch.len() {
            let port = self.scratch[i].0 as usize;
            let free = self.next_free[port];
            let ready = head.max(free);
            waited += ready - head;
            // The port is busy for the packet's two words.
            self.next_free[port] = ready + service;
            // Cut-through: the head advances to the next stage immediately.
            head = ready + hop;
        }

        self.stats.record(1, self.stages, waited);
        head
    }

    fn hops(&self, src: PeId, dst: PeId) -> u32 {
        if src == dst {
            0
        } else {
            self.stages
        }
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn save_state(&self) -> crate::NetSnapshot {
        crate::NetSnapshot {
            stats: self.stats.clone(),
            words: self.next_free.iter().map(|c| c.get()).collect(),
            inner: None,
        }
    }

    fn load_state(&mut self, snap: &crate::NetSnapshot) -> Result<(), SimError> {
        if snap.words.len() != self.next_free.len() {
            return Err(crate::NetSnapshot::shape_error("circular-omega"));
        }
        self.stats = snap.stats.clone();
        for (slot, &w) in self.next_free.iter_mut().zip(&snap.words) {
            *slot = Cycle::new(w);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "circular-omega"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pes: usize) -> OmegaNetwork {
        OmegaNetwork::new(pes, NetConfig::default()).unwrap()
    }

    #[test]
    fn uncontended_latency_is_k_plus_one() {
        // "A packet can be transferred in k+1 cycles to the processor k hops
        // beyond" — with k = stages = log2(P).
        for pes in [2usize, 4, 16, 64, 128] {
            let mut n = net(pes);
            let k = n.stages() as u64;
            let arrival = n.route(Cycle::new(100), PeId(0), PeId((pes - 1) as u16));
            assert_eq!(
                arrival,
                Cycle::new(100 + k + 1),
                "P={pes}: expected k+1 = {} cycles",
                k + 1
            );
        }
    }

    #[test]
    fn local_delivery_is_one_cycle() {
        let mut n = net(16);
        assert_eq!(n.route(Cycle::new(5), PeId(3), PeId(3)), Cycle::new(6));
        assert_eq!(n.hops(PeId(3), PeId(3)), 0);
    }

    #[test]
    fn eighty_pes_route_as_padded_128() {
        let n = net(80);
        assert_eq!(n.stages(), 7);
        assert_eq!(n.hops(PeId(0), PeId(79)), 7);
    }

    #[test]
    fn route_ports_terminates_at_destination_for_all_pairs() {
        // route_ports carries a debug_assert that the walk ends at dst;
        // exercise every pair in a 32-port network.
        for src in 0..32 {
            for dst in 0..32 {
                let ports = route_ports(src, dst, 5);
                assert_eq!(ports.len(), 5);
            }
        }
    }

    #[test]
    fn distinct_paths_have_distinct_final_ports() {
        // Two different destinations must exit through different last-stage
        // ports (the last-stage port determines the destination).
        let a = route_ports(0, 3, 4);
        let b = route_ports(0, 9, 4);
        assert_ne!(a.last(), b.last());
    }

    #[test]
    fn contention_delays_second_packet_on_shared_port() {
        let mut n = net(16);
        // Two packets from the same source to the same destination share the
        // whole path; the second must wait for the first's port occupancy.
        let t1 = n.route(Cycle::new(0), PeId(0), PeId(5));
        let t2 = n.route(Cycle::new(0), PeId(0), PeId(5));
        assert!(t2 > t1, "second packet must be serialized behind the first");
        // With port_service = 2 the delay is at least one extra cycle.
        assert!(t2.get() > t1.get());
    }

    #[test]
    fn non_overtaking_per_pair_under_cross_traffic() {
        let mut n = net(64);
        let mut last = Cycle::ZERO;
        for i in 0..200u64 {
            // Cross traffic from other sources...
            n.route(
                Cycle::new(i),
                PeId((i % 64) as u16),
                PeId(((i * 7) % 64) as u16),
            );
            // ...must never reorder the monitored pair 3 -> 42.
            let arr = n.route(Cycle::new(i), PeId(3), PeId(42));
            assert!(arr >= last, "packet {i} overtook its predecessor");
            last = arr;
        }
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        // In an 4-port omega, 0->0 and 3->3 style identity routes use
        // disjoint ports... safer: compare against fresh-network latency.
        let mut n = net(16);
        let base = n.route(Cycle::new(0), PeId(1), PeId(2));
        // A second packet on a (hopefully) disjoint pair, injected at the
        // same time, is at worst delayed by shared ports — but a pair with a
        // fully disjoint path must see the uncontended latency.
        let mut fresh = net(16);
        let alone = fresh.route(Cycle::new(0), PeId(12), PeId(11));
        let mut together = net(16);
        together.route(Cycle::new(0), PeId(1), PeId(2));
        let with_traffic = together.route(Cycle::new(0), PeId(12), PeId(11));
        let disjoint = route_ports(1, 2, 4)
            .iter()
            .all(|p| !route_ports(12, 11, 4).contains(p));
        if disjoint {
            assert_eq!(with_traffic, alone);
        } else {
            assert!(with_traffic >= alone);
        }
        let _ = base;
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(16);
        n.route(Cycle::new(0), PeId(0), PeId(1));
        n.route(Cycle::new(0), PeId(0), PeId(1));
        let s = n.stats();
        assert_eq!(s.packets, 2);
        assert!(s.contention_wait.get() > 0, "second packet waited");
    }

    #[test]
    fn rejects_empty_network() {
        assert!(OmegaNetwork::new(0, NetConfig::default()).is_err());
    }
}
