//! Property-based tests of the core types: packings, wire encodings, time
//! arithmetic, event-queue ordering, and the config text codecs.

use emx_core::addr::{MAX_FRAMES, MAX_OFFSET, MAX_PES};
use emx_core::{
    Continuation, Cycle, EventQueue, FaultSpec, FrameId, GlobalAddr, NetModelKind, Packet, PeId,
    Priority, ServiceMode, SlotId, WirePacket,
};
use proptest::prelude::*;

fn arb_gaddr() -> impl Strategy<Value = GlobalAddr> {
    (0..MAX_PES as u16, 0..=MAX_OFFSET)
        .prop_map(|(pe, off)| GlobalAddr::new(PeId(pe), off).unwrap())
}

fn arb_cont() -> impl Strategy<Value = Continuation> {
    (0..MAX_PES as u16, 0..MAX_FRAMES as u16, any::<u8>())
        .prop_map(|(pe, f, s)| Continuation::new(PeId(pe), FrameId(f), SlotId(s)).unwrap())
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        (arb_gaddr(), arb_cont(), 0..MAX_PES as u16).prop_map(|(g, c, src)| Packet::read_req(
            PeId(src),
            g,
            c
        )),
        (arb_gaddr(), arb_cont(), 1u16..=4096, 0..MAX_PES as u16)
            .prop_map(|(g, c, n, src)| Packet::read_block_req(PeId(src), g, c, n).unwrap()),
        (arb_cont(), any::<u32>(), 0..MAX_PES as u16).prop_map(|(c, v, src)| Packet::read_resp(
            PeId(src),
            c,
            v
        )),
        (arb_gaddr(), any::<u32>(), 0..MAX_PES as u16).prop_map(|(g, v, src)| Packet::write(
            PeId(src),
            g,
            v
        )),
        (arb_gaddr(), any::<u32>(), 0..MAX_PES as u16).prop_map(|(g, a, src)| Packet::spawn(
            PeId(src),
            g,
            a
        )),
    ]
}

fn arb_net() -> impl Strategy<Value = NetModelKind> {
    prop_oneof![
        Just(NetModelKind::CircularOmega),
        any::<u32>().prop_map(|latency| NetModelKind::Ideal { latency }),
        Just(NetModelKind::FullCrossbar),
        Just(NetModelKind::Torus2D),
        Just(NetModelKind::Mesh2D),
        any::<u32>().prop_map(|arity| NetModelKind::FatTree { arity }),
    ]
}

fn arb_faults() -> impl Strategy<Value = FaultSpec> {
    let ppms = (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    );
    let rest = (
        any::<u32>(),
        any::<u32>(),
        (any::<bool>(), any::<u32>()),
        proptest::collection::vec(any::<u16>(), 0..4),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        any::<bool>(),
    );
    (any::<u64>(), ppms, rest).prop_map(
        |(
            seed,
            (drop, dup, delay, spill, dma),
            (max_delay, dma_cycles, cap, pes, retry, check),
        )| {
            FaultSpec {
                seed,
                drop_ppm: drop,
                dup_ppm: dup,
                delay_ppm: delay,
                max_delay,
                spill_ppm: spill,
                dma_stall_ppm: dma,
                dma_stall_cycles: dma_cycles,
                frame_cap: cap.0.then_some(cap.1),
                frame_cap_pes: pes,
                retry_timeout: retry.0,
                retry_backoff_cap: retry.1,
                max_attempts: retry.2,
                check_invariants: check,
            }
        },
    )
}

proptest! {
    /// Every network model, with any parameter, parses back from its one
    /// word; so does each service mode.
    #[test]
    fn net_and_service_words_roundtrip(net in arb_net(), exu in any::<bool>()) {
        prop_assert_eq!(net.to_string().parse::<NetModelKind>(), Ok(net));
        let mode = if exu { ServiceMode::ExuThread } else { ServiceMode::BypassDma };
        prop_assert_eq!(mode.to_string().parse::<ServiceMode>(), Ok(mode));
    }

    /// Every fault-plan field, including the frame-cap processor list and
    /// the invariant-checker switch, survives the text form.
    #[test]
    fn fault_plan_text_roundtrips(f in arb_faults()) {
        let text = f.to_string();
        prop_assert!(!text.contains(char::is_whitespace), "one token: {text}");
        prop_assert_eq!(text.parse::<FaultSpec>(), Ok(f));
    }
}

proptest! {
    /// Global addresses and continuations pack into one word and back
    /// without loss, for the whole representable range.
    #[test]
    fn addr_packings_roundtrip(g in arb_gaddr(), c in arb_cont()) {
        prop_assert_eq!(GlobalAddr::unpack(g.pack()), g);
        prop_assert_eq!(Continuation::unpack(c.pack()), c);
    }

    /// Distinct addresses pack to distinct words (injectivity).
    #[test]
    fn addr_packing_is_injective(a in arb_gaddr(), b in arb_gaddr()) {
        prop_assert_eq!(a.pack() == b.pack(), a == b);
    }

    /// Every constructible packet survives the wire encoding, including a
    /// byte-level serialize/deserialize pass, and routes to the same
    /// destination afterwards.
    #[test]
    fn packets_roundtrip_on_the_wire(p in arb_packet(), prio in any::<bool>()) {
        let p = p.with_priority(if prio { Priority::High } else { Priority::Low });
        let wire = p.to_wire();
        let mut buf = bytes::BytesMut::new();
        wire.put(&mut buf);
        let mut rd = buf.freeze();
        let wire2 = WirePacket::get(&mut rd).unwrap();
        prop_assert_eq!(wire2, wire);
        let back = Packet::from_wire(wire2, p.src).unwrap();
        prop_assert_eq!(back, p);
        prop_assert_eq!(back.dst(), p.dst());
    }

    /// Cycle arithmetic: addition is associative/commutative over samples,
    /// subtraction saturates, min/max are consistent.
    #[test]
    fn cycle_arithmetic_laws(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let (ca, cb, cc) = (Cycle::new(a.into()), Cycle::new(b.into()), Cycle::new(c.into()));
        prop_assert_eq!(ca + cb, cb + ca);
        prop_assert_eq!((ca + cb) + cc, ca + (cb + cc));
        prop_assert_eq!(ca - cb, Cycle::new(u64::from(a).saturating_sub(u64::from(b))));
        prop_assert_eq!(ca.max(cb).get(), u64::from(a.max(b)));
        prop_assert_eq!(ca.min(cb).get(), u64::from(a.min(b)));
    }

    /// The event queue is a stable priority queue: output is sorted by time
    /// and FIFO within a time.
    #[test]
    fn event_queue_is_stable_and_sorted(times in proptest::collection::vec(0u64..64, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle::new(t), i).unwrap();
        }
        let mut out: Vec<(u64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t.get(), i));
        }
        prop_assert_eq!(out.len(), times.len());
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated within a tick");
            }
        }
    }

    /// offset_by walks memory without crossing processors.
    #[test]
    fn offset_by_preserves_pe(g in arb_gaddr(), d in 0u32..1024) {
        if let Ok(g2) = g.offset_by(d) {
            prop_assert_eq!(g2.pe, g.pe);
            prop_assert_eq!(g2.offset, g.offset + d);
        } else {
            prop_assert!(g.offset.checked_add(d).map(|o| o > MAX_OFFSET).unwrap_or(true));
        }
    }
}
