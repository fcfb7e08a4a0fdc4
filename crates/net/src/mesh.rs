//! A 2D mesh with XY dimension-order routing: the torus without wraparound.
//!
//! Mesh fabrics are the workhorse of modern manycore interconnects, so the
//! cross-topology benches want one next to the torus: identical link
//! timing, but edge nodes pay the full Manhattan distance instead of
//! taking the short way around a ring. Packets route X first then Y; every
//! unidirectional link is a contended resource with the same
//! virtual-cut-through timing as the Omega switches (head advances
//! [`hop_cycles`](emx_core::NetConfig::hop_cycles) per hop, each link busy
//! [`port_service`](emx_core::NetConfig::port_service) cycles per packet).
//!
//! XY routing is deterministic and strictly orders every path's channels:
//! all X-dimension links precede all Y-dimension links, and within a
//! dimension the coordinate moves monotonically toward the destination.
//! The channel dependency graph is therefore acyclic — the classic
//! dimension-order deadlock-freedom argument — and non-overtaking per
//! (source, destination) pair holds because same-pair packets traverse the
//! identical link sequence in injection order.

use emx_core::{Cycle, NetConfig, PeId, SimError};

use crate::stats::NetStats;
use crate::Network;

/// Direction of a unidirectional mesh link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    XPlus,
    XMinus,
    YPlus,
    YMinus,
}

impl Dir {
    fn index(self) -> usize {
        match self {
            Dir::XPlus => 0,
            Dir::XMinus => 1,
            Dir::YPlus => 2,
            Dir::YMinus => 3,
        }
    }

    #[cfg(test)]
    fn is_x(self) -> bool {
        matches!(self, Dir::XPlus | Dir::XMinus)
    }
}

/// A `width x height` mesh with per-link contention and no wraparound.
pub struct MeshNetwork {
    width: usize,
    height: usize,
    cfg: NetConfig,
    /// `next_free[node * 4 + dir]`.
    next_free: Vec<Cycle>,
    stats: NetStats,
}

impl MeshNetwork {
    /// Build a mesh covering at least `num_pes` nodes, as close to square
    /// as possible (extra nodes, if any, sit unused).
    pub fn new(num_pes: usize, cfg: NetConfig) -> Result<Self, SimError> {
        if num_pes == 0 {
            return Err(SimError::BadConfig {
                reason: "mesh needs at least one node".into(),
            });
        }
        let mut width = (num_pes as f64).sqrt().ceil() as usize;
        width = width.max(1);
        let height = num_pes.div_ceil(width);
        Ok(MeshNetwork {
            width,
            height,
            cfg,
            next_free: vec![Cycle::ZERO; width * height * 4],
            stats: NetStats::default(),
        })
    }

    /// Grid shape `(width, height)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    fn coords(&self, pe: PeId) -> (usize, usize) {
        (pe.index() % self.width, pe.index() / self.width)
    }

    /// The (node, dir) link sequence from src to dst under XY routing:
    /// monotone X moves, then monotone Y moves.
    fn links(&self, src: PeId, dst: PeId) -> Vec<(usize, Dir)> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut links = Vec::new();
        while x != dx {
            let dir = if dx > x { Dir::XPlus } else { Dir::XMinus };
            links.push((y * self.width + x, dir));
            x = if dx > x { x + 1 } else { x - 1 };
        }
        while y != dy {
            let dir = if dy > y { Dir::YPlus } else { Dir::YMinus };
            links.push((y * self.width + x, dir));
            y = if dy > y { y + 1 } else { y - 1 };
        }
        links
    }
}

impl Network for MeshNetwork {
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle {
        if src == dst {
            self.stats.record(1, 0, Cycle::ZERO);
            return now + u64::from(self.cfg.hop_cycles);
        }
        let hop = u64::from(self.cfg.hop_cycles);
        let service = u64::from(self.cfg.port_service);
        let links = self.links(src, dst);
        let hops = links.len() as u32;
        let mut head = now + hop;
        let mut waited = Cycle::ZERO;
        for (node, dir) in links {
            let port = node * 4 + dir.index();
            let free = self.next_free[port];
            let ready = head.max(free);
            waited += ready - head;
            self.next_free[port] = ready + service;
            head = ready + hop;
        }
        self.stats.record(1, hops, waited);
        head
    }

    fn hops(&self, src: PeId, dst: PeId) -> u32 {
        if src == dst {
            return 0;
        }
        let (x, y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        (x.abs_diff(dx) + y.abs_diff(dy)) as u32
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
            return Err(crate::NetSnapshot::shape_error("mesh-2d"));
        }
        self.stats = snap.stats.clone();
        for (slot, &w) in self.next_free.iter_mut().zip(&snap.words) {
            *slot = Cycle::new(w);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "mesh-2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pes: usize) -> MeshNetwork {
        MeshNetwork::new(pes, NetConfig::default()).unwrap()
    }

    #[test]
    fn shape_covers_the_machine() {
        for pes in [1usize, 2, 7, 16, 64, 80] {
            let n = net(pes);
            let (w, h) = n.shape();
            assert!(w * h >= pes, "{pes}: {w}x{h}");
        }
        assert_eq!(net(16).shape(), (4, 4));
    }

    #[test]
    fn no_wraparound_corner_to_corner_pays_full_manhattan_distance() {
        let n = net(16); // 4x4
                         // (0,0) -> (3,0): the torus takes one wrap hop; the mesh walks 3.
        assert_eq!(n.hops(PeId(0), PeId(3)), 3);
        // (0,0) -> (0,3) likewise along Y.
        assert_eq!(n.hops(PeId(0), PeId(12)), 3);
        // (0,0) -> (3,3): the full diameter, 6 hops.
        assert_eq!(n.hops(PeId(0), PeId(15)), 6);
    }

    #[test]
    fn uncontended_latency_is_hops_plus_one() {
        let mut n = net(16); // 4x4
                             // (0,0) -> (2,2): 2 + 2 = 4 hops, latency 5.
        let dst = PeId(2 * 4 + 2);
        assert_eq!(n.hops(PeId(0), dst), 4);
        assert_eq!(n.route(Cycle::new(10), PeId(0), dst), Cycle::new(15));
    }

    #[test]
    fn xy_routing_orders_x_before_y_and_moves_monotonically() {
        // The dimension-order deadlock-freedom argument, checked
        // structurally over every pair: once a path takes a Y link it never
        // takes another X link, and each dimension moves in one direction
        // only — so the channel dependency graph is acyclic.
        let n = net(16);
        for s in 0..16u16 {
            for d in 0..16u16 {
                let links = n.links(PeId(s), PeId(d));
                let mut seen_y = false;
                let mut x_dir: Option<Dir> = None;
                let mut y_dir: Option<Dir> = None;
                for &(_, dir) in &links {
                    if dir.is_x() {
                        assert!(!seen_y, "{s}->{d}: X link after a Y link");
                        assert_eq!(*x_dir.get_or_insert(dir), dir, "{s}->{d}: X turned");
                    } else {
                        seen_y = true;
                        assert_eq!(*y_dir.get_or_insert(dir), dir, "{s}->{d}: Y turned");
                    }
                }
                assert_eq!(links.len() as u32, n.hops(PeId(s), PeId(d)));
            }
        }
    }

    #[test]
    fn contention_serializes_shared_links() {
        let mut n = net(16);
        let a = n.route(Cycle::new(0), PeId(0), PeId(2));
        let b = n.route(Cycle::new(0), PeId(0), PeId(2));
        assert!(b > a);
        assert!(n.stats().contention_wait.get() > 0);
    }

    #[test]
    fn non_overtaking_per_pair() {
        let mut n = net(64);
        let mut last = Cycle::ZERO;
        for i in 0..100u64 {
            n.route(
                Cycle::new(i),
                PeId((i % 64) as u16),
                PeId(((i * 11) % 64) as u16),
            );
            let arr = n.route(Cycle::new(i), PeId(5), PeId(50));
            assert!(arr >= last);
            last = arr;
        }
    }

    #[test]
    fn local_delivery_one_cycle() {
        let mut n = net(9);
        assert_eq!(n.route(Cycle::new(3), PeId(4), PeId(4)), Cycle::new(4));
    }

    #[test]
    fn rejects_empty() {
        assert!(MeshNetwork::new(0, NetConfig::default()).is_err());
    }
}
