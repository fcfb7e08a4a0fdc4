//! A fault-injecting wrapper around any [`Network`] model.
//!
//! [`FaultyNetwork`] composes with every topology the simulator knows
//! (ideal, crossbar, omega, torus): it forwards routing to the wrapped model
//! and perturbs the result according to a seeded [`FaultPlan`]. Data-plane
//! packets may be dropped at injection, duplicated (both copies traverse the
//! inner network), or delayed; control traffic is only ever delayed, because
//! the runtime has no acknowledgement protocol for it (see
//! [`DeliveryClass`]).
//!
//! The wrapper preserves the one network invariant the runtime relies on:
//! per-(source, destination) message non-overtaking. Every arrival it emits
//! — delayed or not — is clamped to be no earlier than the latest arrival
//! already scheduled on that pair.

use std::collections::HashMap;

use emx_core::{Cycle, FaultKind, PacketKind, PeId, Probe, TraceKind};
use emx_net::{Deliveries, DeliveryClass, FaultCounters, NetStats, Network};

use crate::rng::{FaultPlan, Rng64};

/// A [`Network`] that injects seeded drop/duplicate/delay faults into an
/// inner model.
pub struct FaultyNetwork {
    inner: Box<dyn Network>,
    drop_ppm: u32,
    dup_ppm: u32,
    delay_ppm: u32,
    max_delay: u32,
    rng: Rng64,
    counters: FaultCounters,
    last_arrival: HashMap<(PeId, PeId), Cycle>,
}

impl FaultyNetwork {
    /// Wrap `inner` with the network-fault stream of `plan`.
    pub fn new(inner: Box<dyn Network>, plan: &FaultPlan) -> FaultyNetwork {
        let spec = plan.spec();
        FaultyNetwork {
            inner,
            drop_ppm: spec.drop_ppm,
            dup_ppm: spec.dup_ppm,
            delay_ppm: spec.delay_ppm,
            max_delay: spec.max_delay,
            rng: plan.net_rng(),
            counters: FaultCounters::default(),
            last_arrival: HashMap::new(),
        }
    }

    /// Clamp `t` to preserve non-overtaking on the (src, dst) pair and
    /// record it as that pair's latest scheduled arrival.
    fn clamp(&mut self, src: PeId, dst: PeId, t: Cycle) -> Cycle {
        let last = self.last_arrival.entry((src, dst)).or_insert(Cycle::ZERO);
        let t = t.max(*last);
        *last = t;
        t
    }

    /// Draw the delay fault for one traversal of the inner network.
    fn maybe_delay(&mut self, t: Cycle) -> Cycle {
        if self.rng.chance_ppm(self.delay_ppm) {
            self.counters.delayed += 1;
            t + (1 + self.rng.below(u64::from(self.max_delay)))
        } else {
            t
        }
    }
}

impl Network for FaultyNetwork {
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle {
        let t = self.inner.route(now, src, dst);
        self.clamp(src, dst, t)
    }

    fn route_deliveries(
        &mut self,
        now: Cycle,
        src: PeId,
        dst: PeId,
        class: DeliveryClass,
    ) -> Deliveries {
        let data = class == DeliveryClass::Data;
        if data && self.rng.chance_ppm(self.drop_ppm) {
            // Dropped at injection: the packet never enters the inner
            // network, so NetStats keeps counting actual traversals.
            self.counters.dropped += 1;
            return Deliveries::none();
        }
        let t = self.inner.route(now, src, dst);
        let t = self.maybe_delay(t);
        let t = self.clamp(src, dst, t);
        if data && self.rng.chance_ppm(self.dup_ppm) {
            self.counters.duplicated += 1;
            let d = self.inner.route(now, src, dst);
            let d = self.clamp(src, dst, d);
            return Deliveries::two(t, d);
        }
        Deliveries::one(t)
    }

    fn route_probed(
        &mut self,
        now: Cycle,
        src: PeId,
        dst: PeId,
        class: DeliveryClass,
        pkt: PacketKind,
        probe: Option<&mut dyn Probe>,
    ) -> Deliveries {
        // Same routing as the probe-less path, but narrate what the fault
        // plan did: compare the counters before and after to see which
        // faults this packet drew. NetInject is still emitted for dropped
        // packets — the source switch accepted them; they die inside.
        let before = self.counters;
        let deliveries = self.route_deliveries(now, src, dst, class);
        if let Some(p) = probe {
            p.on(
                now,
                src,
                TraceKind::NetInject {
                    pkt,
                    dst,
                    hops: self.inner.hops(src, dst),
                },
            );
            let after = self.counters;
            for (fault, hit) in [
                (FaultKind::Drop, after.dropped > before.dropped),
                (FaultKind::Dup, after.duplicated > before.duplicated),
                (FaultKind::Delay, after.delayed > before.delayed),
            ] {
                if hit {
                    p.on(now, src, TraceKind::FaultInjected { pkt, dst, fault });
                }
            }
        }
        deliveries
    }

    fn hops(&self, src: PeId, dst: PeId) -> u32 {
        self.inner.hops(src, dst)
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn fault_counters(&self) -> Option<FaultCounters> {
        Some(self.counters)
    }

    fn save_state(&self) -> emx_net::NetSnapshot {
        // Words: RNG cursor, the three fault counters, then the
        // non-overtaking clamp table as (src, dst, cycle) triples sorted by
        // pair — the sort keeps the image independent of HashMap order.
        let mut words = vec![
            self.rng.state(),
            self.counters.dropped,
            self.counters.duplicated,
            self.counters.delayed,
        ];
        let mut pairs: Vec<(u16, u16, u64)> = self
            .last_arrival
            .iter()
            .map(|(&(s, d), &t)| (s.0, d.0, t.get()))
            .collect();
        pairs.sort_unstable();
        for (s, d, t) in pairs {
            words.extend([u64::from(s), u64::from(d), t]);
        }
        emx_net::NetSnapshot {
            stats: self.inner.stats().clone(),
            words,
            inner: Some(Box::new(self.inner.save_state())),
        }
    }

    fn load_state(&mut self, snap: &emx_net::NetSnapshot) -> Result<(), emx_core::SimError> {
        let Some(inner) = snap.inner.as_deref() else {
            return Err(emx_net::NetSnapshot::shape_error("faulty"));
        };
        if snap.words.len() < 4 || (snap.words.len() - 4) % 3 != 0 {
            return Err(emx_net::NetSnapshot::shape_error("faulty"));
        }
        self.inner.load_state(inner)?;
        self.rng = Rng64::from_state(snap.words[0]);
        self.counters = FaultCounters {
            dropped: snap.words[1],
            duplicated: snap.words[2],
            delayed: snap.words[3],
        };
        self.last_arrival = snap.words[4..]
            .chunks_exact(3)
            .map(|c| ((PeId(c[0] as u16), PeId(c[1] as u16)), Cycle::new(c[2])))
            .collect();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::{FaultSpec, NetConfig, NetModelKind};
    use emx_net::build_network;

    fn wrap(spec: FaultSpec, model: NetModelKind, pes: usize) -> FaultyNetwork {
        let cfg = NetConfig {
            model,
            ..NetConfig::default()
        };
        FaultyNetwork::new(build_network(&cfg, pes).unwrap(), &FaultPlan::new(spec))
    }

    /// A deterministic traffic pattern mixing pairs and both classes.
    fn drive(net: &mut dyn Network, n: u64, pes: u16) -> Vec<Vec<Cycle>> {
        (0..n)
            .map(|i| {
                let now = Cycle::new(i * 2);
                let src = PeId((i % u64::from(pes)) as u16);
                let dst = PeId(((i * 7 + 3) % u64::from(pes)) as u16);
                let class = if i % 3 == 0 {
                    DeliveryClass::Control
                } else {
                    DeliveryClass::Data
                };
                net.route_deliveries(now, src, dst, class)
                    .as_slice()
                    .to_vec()
            })
            .collect()
    }

    #[test]
    fn zero_probability_plan_is_identity() {
        for model in [
            NetModelKind::CircularOmega,
            NetModelKind::Ideal { latency: 12 },
            NetModelKind::FullCrossbar,
            NetModelKind::Torus2D,
        ] {
            let cfg = NetConfig {
                model,
                ..NetConfig::default()
            };
            let mut bare = build_network(&cfg, 16).unwrap();
            let mut faulty = wrap(FaultSpec::new(99), model, 16);
            assert_eq!(
                drive(bare.as_mut(), 200, 16),
                drive(&mut faulty, 200, 16),
                "{model:?}"
            );
            assert_eq!(faulty.fault_counters(), Some(FaultCounters::default()));
        }
    }

    #[test]
    fn certain_drop_loses_data_but_not_control() {
        let spec = FaultSpec::with_loss(1, 999_999);
        let mut net = wrap(spec, NetModelKind::Ideal { latency: 5 }, 8);
        let deliveries = drive(&mut net, 300, 8);
        let (mut data_dropped, mut control_delivered) = (0u64, 0u64);
        for (i, d) in deliveries.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(d.len(), 1, "control packet {i} must be delivered");
                control_delivered += 1;
            } else if d.is_empty() {
                data_dropped += 1;
            }
        }
        assert!(control_delivered > 0);
        assert!(data_dropped > 150, "999999 ppm should drop nearly all data");
        assert_eq!(net.fault_counters().unwrap().dropped, data_dropped);
    }

    #[test]
    fn duplication_emits_two_arrivals() {
        let mut spec = FaultSpec::new(2);
        spec.dup_ppm = 999_999;
        let mut net = wrap(spec, NetModelKind::Ideal { latency: 5 }, 8);
        let d = net.route_deliveries(Cycle::ZERO, PeId(0), PeId(1), DeliveryClass::Data);
        assert_eq!(d.len(), 2);
        let c = net.route_deliveries(Cycle::ZERO, PeId(0), PeId(1), DeliveryClass::Control);
        assert_eq!(c.len(), 1, "control traffic is never duplicated");
        assert_eq!(net.fault_counters().unwrap().duplicated, 1);
    }

    #[test]
    fn delay_preserves_per_pair_non_overtaking() {
        let mut spec = FaultSpec::new(3);
        spec.delay_ppm = 500_000;
        spec.max_delay = 200;
        for model in [NetModelKind::CircularOmega, NetModelKind::Torus2D] {
            let mut net = wrap(spec.clone(), model, 8);
            let mut last: HashMap<(PeId, PeId), Cycle> = HashMap::new();
            for i in 0..500u64 {
                let now = Cycle::new(i);
                let src = PeId((i % 4) as u16);
                let dst = PeId((4 + i % 4) as u16);
                for &t in net
                    .route_deliveries(now, src, dst, DeliveryClass::Data)
                    .as_slice()
                {
                    let prev = last.entry((src, dst)).or_insert(Cycle::ZERO);
                    assert!(t >= *prev, "overtaking on {src:?}->{dst:?} at step {i}");
                    *prev = t;
                }
            }
            assert!(net.fault_counters().unwrap().delayed > 100);
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let mut spec = FaultSpec::new(77);
        spec.drop_ppm = 100_000;
        spec.dup_ppm = 50_000;
        spec.delay_ppm = 200_000;
        spec.max_delay = 30;
        let mut a = wrap(spec.clone(), NetModelKind::CircularOmega, 16);
        let mut b = wrap(spec, NetModelKind::CircularOmega, 16);
        assert_eq!(drive(&mut a, 400, 16), drive(&mut b, 400, 16));
        assert_eq!(a.fault_counters(), b.fault_counters());
    }

    #[test]
    fn probed_routing_narrates_every_fault_it_draws() {
        use emx_core::{FaultKind, PacketKind, Probe, TraceKind};

        #[derive(Default)]
        struct Rec(Vec<TraceKind>);
        impl Probe for Rec {
            fn on(&mut self, _at: Cycle, _pe: PeId, kind: TraceKind) {
                self.0.push(kind);
            }
        }

        let mut spec = FaultSpec::new(11);
        spec.drop_ppm = 200_000;
        spec.dup_ppm = 100_000;
        spec.delay_ppm = 200_000;
        spec.max_delay = 16;
        let mut net = wrap(spec, NetModelKind::CircularOmega, 8);
        let mut rec = Rec::default();
        for i in 0..400u64 {
            let src = PeId((i % 8) as u16);
            let dst = PeId(((i * 5 + 1) % 8) as u16);
            net.route_probed(
                Cycle::new(i * 3),
                src,
                dst,
                DeliveryClass::Data,
                PacketKind::ReadReq,
                Some(&mut rec),
            );
        }
        let counters = net.fault_counters().unwrap();
        let count = |f: FaultKind| {
            rec.0
                .iter()
                .filter(|k| matches!(k, TraceKind::FaultInjected { fault, .. } if *fault == f))
                .count() as u64
        };
        // One FaultInjected per counter increment, of the matching kind.
        assert_eq!(count(FaultKind::Drop), counters.dropped);
        assert_eq!(count(FaultKind::Dup), counters.duplicated);
        assert_eq!(count(FaultKind::Delay), counters.delayed);
        assert!(counters.dropped > 0 && counters.duplicated > 0 && counters.delayed > 0);
        // NetInject is still emitted for every routed packet, drops included.
        let injects = rec
            .0
            .iter()
            .filter(|k| matches!(k, TraceKind::NetInject { .. }))
            .count();
        assert_eq!(injects, 400);
    }
}
