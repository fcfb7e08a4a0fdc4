//! The bench probe of the traced run, and the replays of what it records
//! through single layers.
//!
//! The probe wraps a [`DigestProbe`] and times every call into it. Beside
//! that it stamps host time and allocator totals at each event, and keeps only what the replays need: each network injection as
//! (at, src, dst), each processor's enqueue/dispatch sequence as one byte
//! per operation, and the first [`PREFIX`] events for the digest replay.
//! The full stream is never buffered: bitonic-p64 emits ~27M events.

use std::hint::black_box;
use std::mem;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use emx::core::{
    Cycle, GlobalAddr, NetConfig, Packet, PeId, Priority, Probe, TraceEvent, TraceKind,
};
use emx::hostprof::CountingAlloc;
use emx::net::build_network;
use emx::obs::{DigestHandle, DigestProbe};
use emx::proc::{PacketQueue, Pushed};

/// Events kept for the digest replay.
pub const PREFIX: usize = 1 << 16;

const PUSH_LOW: u8 = 0;
const PUSH_HIGH: u8 = 1;
const POP: u8 = 2;
const SPILLED: u8 = 4;

/// What one run's probe recorded.
#[derive(Debug, Default)]
pub struct Records {
    /// Trace events seen.
    pub events: u64,
    /// Host time when the first event arrived.
    pub first: Option<Instant>,
    /// Host time when the last event had been handled.
    pub last: Option<Instant>,
    /// Allocator totals (allocations, bytes) at the first event.
    pub first_totals: (u64, u64),
    /// Allocator totals after the last event.
    pub last_totals: (u64, u64),
    /// Allocations and bytes made inside the probe itself.
    pub own: (u64, u64),
    /// Events passed on to the wrapped `DigestProbe`.
    pub digested: u64,
    /// Nanoseconds inside `DigestProbe::on`.
    pub digest_ns: u64,
    /// Allocations inside `DigestProbe::on`.
    pub digest_allocs: u64,
    /// `ThreadSpawn` events.
    pub spawns: u64,
    /// Injection time of each routed packet.
    pub route_at: Vec<u64>,
    /// `src << 16 | dst` of each routed packet.
    pub route_pair: Vec<u32>,
    /// Per processor: one byte per enqueue (class, spilled) or dispatch.
    pub queue: Vec<Vec<u8>>,
    /// The first [`PREFIX`] events.
    pub prefix: Vec<TraceEvent>,
    /// The live digest after the prefix.
    pub prefix_hex: String,
    /// The live digest of every event digested.
    pub live_hex: String,
}

impl Records {
    /// Allocations and bytes the simulator made between the first and the
    /// last event, excluding the probe's own.
    pub fn runtime_allocs(&self) -> (u64, u64) {
        (
            self.last_totals.0 - self.first_totals.0 - self.own.0,
            self.last_totals.1 - self.first_totals.1 - self.own.1,
        )
    }
}

/// The probe; its records land in the shared slot when it is dropped
/// with the machine.
pub struct BenchProbe {
    digest_all: bool,
    digest: DigestProbe,
    handle: DigestHandle,
    rec: Records,
    out: Arc<Mutex<Option<Records>>>,
}

impl BenchProbe {
    /// A probe for a machine of `pes` processors, plus the slot its
    /// records arrive in. With `digest_all` every event goes through the
    /// wrapped `DigestProbe`, as on a workload whose untraced path carries
    /// one; otherwise only the first [`PREFIX`] events do, which bounds
    /// the probe's cost on workloads that run without observers.
    pub fn new(pes: usize, digest_all: bool) -> (BenchProbe, Arc<Mutex<Option<Records>>>) {
        let (digest, handle) = DigestProbe::new();
        let out = Arc::new(Mutex::new(None));
        let rec = Records {
            queue: vec![Vec::new(); pes],
            ..Records::default()
        };
        let probe = BenchProbe {
            digest_all,
            digest,
            handle,
            rec,
            out: Arc::clone(&out),
        };
        (probe, out)
    }
}

impl Probe for BenchProbe {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        let a0 = CountingAlloc::raw_totals();
        let t0 = Instant::now();
        let r = &mut self.rec;
        if r.first.is_none() {
            r.first = Some(t0);
            r.first_totals = a0;
        }
        r.events += 1;
        if self.digest_all || r.prefix.len() < PREFIX {
            self.digest.on(at, pe, kind);
            let t1 = Instant::now();
            let a1 = CountingAlloc::raw_totals();
            r.digested += 1;
            r.digest_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
            r.digest_allocs += a1.0 - a0.0;
        }
        match kind {
            TraceKind::ThreadSpawn { .. } => r.spawns += 1,
            TraceKind::NetInject { dst, .. } => {
                r.route_at.push(at.get());
                r.route_pair.push(u32::from(pe.0) << 16 | u32::from(dst.0));
            }
            TraceKind::Enqueue {
                priority, spilled, ..
            } => {
                let class = match priority {
                    Priority::High => PUSH_HIGH,
                    Priority::Low => PUSH_LOW,
                };
                r.queue[usize::from(pe.0)].push(class | if spilled { SPILLED } else { 0 });
            }
            TraceKind::Dispatch { .. } => r.queue[usize::from(pe.0)].push(POP),
            _ => {}
        }
        if r.prefix.len() < PREFIX {
            r.prefix.push(TraceEvent { at, pe, kind });
            if r.prefix.len() == PREFIX {
                r.prefix_hex = self.handle.hex();
            }
        }
        r.last = Some(Instant::now());
        let a2 = CountingAlloc::raw_totals();
        r.last_totals = a2;
        r.own.0 += a2.0 - a0.0;
        r.own.1 += a2.1 - a0.1;
    }
}

impl Drop for BenchProbe {
    fn drop(&mut self) {
        let mut rec = mem::take(&mut self.rec);
        rec.live_hex = self.handle.hex();
        if rec.prefix.len() < PREFIX {
            rec.prefix_hex = rec.live_hex.clone();
        }
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(rec);
        }
    }
}

/// Take the records a dropped probe left in its slot.
pub fn take(slot: &Mutex<Option<Records>>) -> Records {
    slot.lock()
        .expect("probe slot poisoned")
        .take()
        .expect("the probe is dropped with its machine")
}

/// Re-hash the recorded prefix through a fresh [`DigestProbe`]: true when
/// it reproduces the live digest at the same point of the stream.
pub fn replay_digest(rec: &Records) -> bool {
    let (mut p, h) = DigestProbe::new();
    for e in &rec.prefix {
        p.on(e.at, e.pe, e.kind);
    }
    h.hex() == rec.prefix_hex
}

/// Replay every recorded injection through a freshly built network of
/// the same configuration. Returns (routes, nanoseconds).
pub fn replay_routes(rec: &Records, net: &NetConfig, pes: usize) -> (u64, u64) {
    let mut n = build_network(net, pes).expect("the network of a machine that ran builds");
    let t = Instant::now();
    for (&at, &pair) in rec.route_at.iter().zip(&rec.route_pair) {
        let src = PeId((pair >> 16) as u16);
        let dst = PeId((pair & 0xffff) as u16);
        black_box(n.route(Cycle::new(at), src, dst));
    }
    let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (rec.route_at.len() as u64, ns)
}

/// Replay every processor's enqueue/dispatch sequence through a fresh
/// [`PacketQueue`] of `capacity`. Returns (operations, nanoseconds,
/// whether every push spilled exactly as recorded).
pub fn replay_queue(rec: &Records, capacity: usize) -> (u64, u64, bool) {
    let addr = GlobalAddr::new(PeId(0), 0).expect("offset 0 of PE 0 is addressable");
    let low = Packet::write(PeId(0), addr, 0).with_priority(Priority::Low);
    let high = low.with_priority(Priority::High);
    let mut ops = 0;
    let mut same = true;
    let t = Instant::now();
    for seq in &rec.queue {
        let mut q = PacketQueue::new(capacity);
        for &op in seq {
            if op == POP {
                black_box(q.pop());
            } else {
                let pkt = if op & PUSH_HIGH != 0 { high } else { low };
                let spilled = q.push(black_box(pkt)) == Pushed::Spilled;
                same &= spilled == (op & SPILLED != 0);
            }
        }
        ops += seq.len() as u64;
    }
    let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ops, ns, same)
}
