//! A 2D torus with dimension-order routing, for cross-topology ablations.
//!
//! The EM-X's contemporaries (and the EM-4 testbeds) were frequently
//! evaluated against mesh/torus fabrics; this model lets the benches ask
//! how much of the EM-X's behaviour is Omega-specific. Packets route X
//! first then Y, taking the shorter way around each ring; every
//! unidirectional link is a contended resource with the same
//! virtual-cut-through timing as the Omega switches (head advances
//! [`hop_cycles`](emx_core::NetConfig::hop_cycles) per hop, each link busy
//! [`port_service`](emx_core::NetConfig::port_service) cycles per packet).
//! Dimension-order routing is deterministic, so non-overtaking per
//! source/destination pair holds for the same reason as in the Omega
//! fabric.

use emx_core::{Cycle, NetConfig, PeId, SimError};

use crate::stats::NetStats;
use crate::Network;

/// Direction of a unidirectional torus link.
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
}

/// A `width x height` torus with per-link contention.
pub struct TorusNetwork {
    width: usize,
    height: usize,
    cfg: NetConfig,
    /// `next_free[node * 4 + dir]`.
    next_free: Vec<Cycle>,
    stats: NetStats,
}

impl TorusNetwork {
    /// Build a torus covering at least `num_pes` nodes, as close to square
    /// as possible (extra nodes, if any, sit unused).
    pub fn new(num_pes: usize, cfg: NetConfig) -> Result<Self, SimError> {
        if num_pes == 0 {
            return Err(SimError::BadConfig {
                reason: "torus needs at least one node".into(),
            });
        }
        // Widest factor pair w >= h with w*h >= num_pes, starting from the
        // square root.
        let mut width = (num_pes as f64).sqrt().ceil() as usize;
        width = width.max(1);
        let height = num_pes.div_ceil(width);
        Ok(TorusNetwork {
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

    /// Signed shortest-way offset and per-step direction along a ring of
    /// size `len` from `a` to `b`.
    fn ring_steps(a: usize, b: usize, len: usize) -> (usize, bool) {
        let fwd = (b + len - a) % len;
        let bwd = (a + len - b) % len;
        if fwd <= bwd {
            (fwd, true)
        } else {
            (bwd, false)
        }
    }

    /// The (node, dir) link sequence from src to dst under XY routing.
    fn links(&self, src: PeId, dst: PeId) -> Vec<(usize, Dir)> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut links = Vec::new();
        let (xsteps, xfwd) = Self::ring_steps(x, dx, self.width);
        for _ in 0..xsteps {
            let dir = if xfwd { Dir::XPlus } else { Dir::XMinus };
            links.push((y * self.width + x, dir));
            x = if xfwd {
                (x + 1) % self.width
            } else {
                (x + self.width - 1) % self.width
            };
        }
        let (ysteps, yfwd) = Self::ring_steps(y, dy, self.height);
        for _ in 0..ysteps {
            let dir = if yfwd { Dir::YPlus } else { Dir::YMinus };
            links.push((y * self.width + x, dir));
            y = if yfwd {
                (y + 1) % self.height
            } else {
                (y + self.height - 1) % self.height
            };
        }
        links
    }
}

impl Network for TorusNetwork {
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
        let (xs, _) = Self::ring_steps(x, dx, self.width);
        let (ys, _) = Self::ring_steps(y, dy, self.height);
        (xs + ys) as u32
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
            return Err(crate::NetSnapshot::shape_error("torus-2d"));
        }
        self.stats = snap.stats.clone();
        for (slot, &w) in self.next_free.iter_mut().zip(&snap.words) {
            *slot = Cycle::new(w);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "torus-2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pes: usize) -> TorusNetwork {
        TorusNetwork::new(pes, NetConfig::default()).unwrap()
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
    fn uncontended_latency_is_hops_plus_one() {
        let mut n = net(16); // 4x4
                             // (0,0) -> (2,2): 2 + 2 = 4 hops, latency 5.
        let dst = PeId(2 * 4 + 2);
        assert_eq!(n.hops(PeId(0), dst), 4);
        assert_eq!(n.route(Cycle::new(10), PeId(0), dst), Cycle::new(15));
    }

    #[test]
    fn wraparound_takes_the_short_way() {
        let n = net(16); // 4x4
                         // (0,0) -> (3,0): one hop backwards around the X ring.
        assert_eq!(n.hops(PeId(0), PeId(3)), 1);
        // (0,0) -> (0,3): one hop backwards around the Y ring.
        assert_eq!(n.hops(PeId(0), PeId(12)), 1);
        // Maximum distance on a 4x4 torus is 2+2.
        assert_eq!(n.hops(PeId(0), PeId(10)), 4);
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
        assert!(TorusNetwork::new(0, NetConfig::default()).is_err());
    }
}
