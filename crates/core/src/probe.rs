//! The structured observability vocabulary: trace events and the [`Probe`]
//! sink the simulator layers emit them through.
//!
//! Every layer of the simulator — the `Machine` event loop, the Input
//! Buffer Unit's packet queue, the by-passing DMA, and the network models —
//! can narrate what it does as a stream of [`TraceKind`] events. The stream
//! covers the full packet/thread lifecycle the paper's Figure 4 walks
//! through by hand: thread spawn/suspend/resume/retire (with the suspension
//! cause, distinguishing an R-cycle end from a remote-read switch), queue
//! enqueue/spill/unspill per priority, by-pass DMA service, and network
//! injection/ejection with hop counts.
//!
//! Consumers implement [`Probe`] — one callback, one event. The runtime
//! holds its probe as an `Option`, so a disabled probe costs one branch per
//! emission site and no event is ever constructed; this is the
//! "zero-cost-when-disabled" contract the sweep benchmarks rely on. The
//! exporters (Perfetto/Chrome-trace JSON, columnar CSV) and the metrics
//! registry live in the `emx-obs` crate; the wire format is specified in
//! `docs/OBSERVABILITY.md` as `emx-trace/1`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::{FrameId, PeId};
use crate::packet::{PacketKind, Priority};
use crate::time::Cycle;

/// Version tag of the trace event schema. Bump when [`TraceKind`] gains,
/// loses, or reshapes a variant; the exporters stamp it into every file so
/// a reader can never misparse an old dump (`docs/OBSERVABILITY.md`).
///
/// `emx-trace/2` added [`TraceKind::DispatchEnd`] (exact burst-end marks,
/// enabling trace-side time attribution) and [`TraceKind::FaultInjected`]
/// (network fault narration from `emx-faults`).
pub const TRACE_SCHEMA: &str = "emx-trace/2";

/// Why a thread left the EXU at the end of a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuspendCause {
    /// Split-phase single-word remote read issued; resumes on the response.
    RemoteRead,
    /// Block read issued; resumes when the last word is deposited.
    BlockRead,
    /// Arrived at a global barrier; resumes on the release poll.
    Barrier,
    /// Waiting on a sequence cell (merge-order thread synchronization).
    ThreadSync,
    /// Explicit yield instruction.
    Yield,
}

impl SuspendCause {
    /// Short lower-case label used by the CSV and Chrome-trace exporters.
    pub fn label(self) -> &'static str {
        match self {
            SuspendCause::RemoteRead => "remote-read",
            SuspendCause::BlockRead => "block-read",
            SuspendCause::Barrier => "barrier",
            SuspendCause::ThreadSync => "thread-sync",
            SuspendCause::Yield => "yield",
        }
    }
}

/// What a fault-injecting network did to a packet at the injection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The packet was silently discarded; no arrival is scheduled.
    Drop,
    /// A duplicate arrival was scheduled after the genuine one.
    Dup,
    /// The arrival was pushed later than the fault-free route time.
    Delay,
}

impl FaultKind {
    /// Short lower-case label used by the CSV and Chrome-trace exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Dup => "dup",
            FaultKind::Delay => "delay",
        }
    }
}

/// What happened. One variant per observable step of the packet/thread
/// lifecycle; the emitting layer is noted on each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// The EXU popped a packet from the queue and acted on it (runtime).
    Dispatch {
        /// Kind of the dispatched packet.
        pkt: PacketKind,
    },
    /// A packet left this processor's OBU for `dst` (runtime).
    Send {
        /// Kind of the injected packet.
        pkt: PacketKind,
        /// Destination processor.
        dst: PeId,
    },
    /// A new thread was instantiated in activation frame `frame` (runtime).
    ThreadSpawn {
        /// Frame the thread occupies.
        frame: FrameId,
        /// Registered entry (native factory or ISA template) it runs.
        entry: u32,
    },
    /// A suspended thread was switched back onto the EXU (runtime).
    ThreadResume {
        /// Frame of the resumed thread.
        frame: FrameId,
    },
    /// A running thread left the EXU mid-R-cycle (runtime). `cause` is the
    /// context-switch reason — a remote read, a barrier, a merge-order
    /// wait, or an explicit yield. A run-to-completion end is
    /// [`TraceKind::ThreadRetire`] instead.
    ThreadSuspend {
        /// Frame of the suspended thread.
        frame: FrameId,
        /// Why it suspended.
        cause: SuspendCause,
    },
    /// A thread ran to the end of its R-cycle and its frame was freed
    /// (runtime).
    ThreadRetire {
        /// Frame the thread occupied.
        frame: FrameId,
    },
    /// A packet entered the IBU packet queue (proc). `depth` is the total
    /// number of queued packets after the push; `spilled` marks an
    /// overflow (or fault-forced) trip through the on-memory buffer.
    Enqueue {
        /// Kind of the queued packet.
        pkt: PacketKind,
        /// FIFO class it joined.
        priority: Priority,
        /// Whether it overflowed to the on-memory buffer.
        spilled: bool,
        /// Packets waiting across both classes after this push.
        depth: usize,
    },
    /// A spilled packet was restored from the on-memory buffer at dispatch
    /// (proc); the restore penalty is charged to switching.
    Unspill {
        /// Kind of the restored packet.
        pkt: PacketKind,
        /// FIFO class it was restored into.
        priority: Priority,
    },
    /// The by-pass DMA serviced a remote access without consuming EXU
    /// cycles (proc) — the EM-X's signature path.
    DmaService {
        /// Kind of the serviced request.
        pkt: PacketKind,
        /// Words read or written (a block read counts its length).
        words: u16,
    },
    /// A packet was accepted by the network at the source switch (net).
    /// Emitted alongside [`TraceKind::Send`]; adds the route's hop count.
    NetInject {
        /// Kind of the injected packet.
        pkt: PacketKind,
        /// Destination processor.
        dst: PeId,
        /// Switch hops the route traverses.
        hops: u32,
    },
    /// A packet was ejected from the network into this processor's IBU
    /// (runtime, on arrival of a packet that travelled the wire).
    NetDeliver {
        /// Kind of the delivered packet.
        pkt: PacketKind,
        /// Source processor.
        src: PeId,
    },
    /// The EXU finished acting on the packet dispatched at the matching
    /// [`TraceKind::Dispatch`] and committed its cycle charges (runtime).
    /// The interval from dispatch to dispatch-end is the exact occupied
    /// span the profiler attributes; emitted since `emx-trace/2`.
    DispatchEnd,
    /// A fault-injecting network perturbed this packet at the injection
    /// port (net, `emx-faults`); emitted alongside [`TraceKind::NetInject`]
    /// since `emx-trace/2`.
    FaultInjected {
        /// Kind of the perturbed packet.
        pkt: PacketKind,
        /// Destination processor it was bound for.
        dst: PeId,
        /// What the fault plan did to it.
        fault: FaultKind,
    },
}

impl TraceKind {
    /// Short lower-case event name used by the CSV and Chrome-trace
    /// exporters and documented in `docs/OBSERVABILITY.md`.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Dispatch { .. } => "dispatch",
            TraceKind::Send { .. } => "send",
            TraceKind::ThreadSpawn { .. } => "thread-spawn",
            TraceKind::ThreadResume { .. } => "thread-resume",
            TraceKind::ThreadSuspend { .. } => "thread-suspend",
            TraceKind::ThreadRetire { .. } => "thread-retire",
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::Unspill { .. } => "unspill",
            TraceKind::DmaService { .. } => "dma-service",
            TraceKind::NetInject { .. } => "net-inject",
            TraceKind::NetDeliver { .. } => "net-deliver",
            TraceKind::DispatchEnd => "dispatch-end",
            TraceKind::FaultInjected { .. } => "fault-injected",
        }
    }
}

/// One trace record: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub at: Cycle,
    /// Processor the event happened on.
    pub pe: PeId,
    /// The event.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Render the event's canonical one-line form, without a trailing
    /// newline, as a sequence of string pieces passed to `out`.
    ///
    /// This is the single definition of the line format: [`fmt::Display`]
    /// writes these pieces to a formatter, and the `emx-obs` trace-digest
    /// probe hashes them directly, so neither allocates. The cycle is
    /// unpadded (`1234cy PE5 dispatch ReadReq`); packet kinds and
    /// priorities are their variant names; the grammar of every variant
    /// is listed in `docs/OBSERVABILITY.md`.
    pub fn render(&self, out: impl FnMut(&str)) {
        let mut w = Pieces(out);
        w.n(self.at.get()).s("cy PE").n(self.pe.0).s(" ");
        match self.kind {
            TraceKind::Dispatch { pkt } => w.s("dispatch ").s(packet_name(pkt)),
            TraceKind::Send { pkt, dst } => w.s("send ").s(packet_name(pkt)).s(" -> PE").n(dst.0),
            TraceKind::ThreadSpawn { frame, entry } => w
                .s("spawn thread F")
                .n(frame.0)
                .s(" (entry ")
                .n(entry)
                .s(")"),
            TraceKind::ThreadResume { frame } => w.s("resume thread F").n(frame.0),
            TraceKind::ThreadSuspend { frame, cause } => w
                .s("suspend thread F")
                .n(frame.0)
                .s(" (")
                .s(cause.label())
                .s(")"),
            TraceKind::ThreadRetire { frame } => w.s("retire thread F").n(frame.0),
            TraceKind::Enqueue {
                pkt,
                priority,
                spilled,
                depth,
            } => w
                .s("enqueue ")
                .s(packet_name(pkt))
                .s(" ")
                .s(priority_name(priority))
                .s(if spilled { " SPILL" } else { "" })
                .s(" depth=")
                .n(depth as u64),
            TraceKind::Unspill { pkt, priority } => w
                .s("unspill ")
                .s(packet_name(pkt))
                .s(" ")
                .s(priority_name(priority)),
            TraceKind::DmaService { pkt, words } => {
                w.s("dma ").s(packet_name(pkt)).s(" x").n(words)
            }
            TraceKind::NetInject { pkt, dst, hops } => w
                .s("net-inject ")
                .s(packet_name(pkt))
                .s(" -> PE")
                .n(dst.0)
                .s(" (")
                .n(hops)
                .s(" hops)"),
            TraceKind::NetDeliver { pkt, src } => {
                w.s("net-deliver ").s(packet_name(pkt)).s(" <- PE").n(src.0)
            }
            TraceKind::DispatchEnd => w.s("dispatch-end"),
            TraceKind::FaultInjected { pkt, dst, fault } => w
                .s("fault ")
                .s(packet_name(pkt))
                .s(" -> PE")
                .n(dst.0)
                .s(" (")
                .s(fault.label())
                .s(")"),
        };
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut res = Ok(());
        self.render(|piece| {
            if res.is_ok() {
                res = f.write_str(piece);
            }
        });
        res
    }
}

/// The sink of [`TraceEvent::render`], with chaining helpers.
struct Pieces<F>(F);

impl<F: FnMut(&str)> Pieces<F> {
    /// Pass on a literal piece.
    fn s(&mut self, piece: &str) -> &mut Self {
        (self.0)(piece);
        self
    }

    /// Pass on the decimal digits of `v` as one piece, formatted in a
    /// stack buffer (20 digits hold `u64::MAX`).
    fn n(&mut self, v: impl Into<u64>) -> &mut Self {
        let mut v = v.into();
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.s(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"))
    }
}

/// Variant name of a packet kind, as it appears in a trace line.
fn packet_name(pkt: PacketKind) -> &'static str {
    match pkt {
        PacketKind::ReadReq => "ReadReq",
        PacketKind::ReadBlockReq => "ReadBlockReq",
        PacketKind::ReadResp => "ReadResp",
        PacketKind::Write => "Write",
        PacketKind::Spawn => "Spawn",
        PacketKind::SyncArrive => "SyncArrive",
        PacketKind::SyncRelease => "SyncRelease",
    }
}

/// Variant name of a priority class, as it appears in a trace line.
fn priority_name(priority: Priority) -> &'static str {
    match priority {
        Priority::High => "High",
        Priority::Low => "Low",
    }
}

/// A sink for trace events.
///
/// The runtime, processor units, and network call [`Probe::on`] once per
/// observable step when — and only when — a probe is attached; the
/// implementor decides what to keep (the `emx-obs` recorder keeps a bounded
/// event log and a metrics registry). Implementations must be cheap: they
/// run inside the simulator's hot loop.
pub trait Probe {
    /// Record that `kind` happened on `pe` at cycle `at`.
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind);
}

/// A probe that discards everything — handy default for probed call paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn on(&mut self, _at: Cycle, _pe: PeId, _kind: TraceKind) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_stable() {
        // The CSV/JSON exporters and docs/OBSERVABILITY.md key on these
        // exact strings; changing one is a schema bump.
        let ev = TraceKind::ThreadSuspend {
            frame: FrameId(3),
            cause: SuspendCause::RemoteRead,
        };
        assert_eq!(ev.name(), "thread-suspend");
        assert_eq!(SuspendCause::RemoteRead.label(), "remote-read");
        assert_eq!(TraceKind::DispatchEnd.name(), "dispatch-end");
        assert_eq!(FaultKind::Delay.label(), "delay");
        assert_eq!(TRACE_SCHEMA, "emx-trace/2");
    }

    /// Every variant at boundary values, paired with the line `Display`
    /// produced before it delegated to [`TraceEvent::render`]. Trace
    /// digests hash these bytes, so a change here is a digest change.
    #[test]
    fn display_covers_every_variant() {
        use PacketKind::*;
        use TraceKind::*;
        let far = PeId(u16::MAX);
        let f7 = FrameId(7);
        let table = [
            (Dispatch { pkt: ReadReq }, "dispatch ReadReq"),
            (Dispatch { pkt: ReadBlockReq }, "dispatch ReadBlockReq"),
            (Dispatch { pkt: ReadResp }, "dispatch ReadResp"),
            (Dispatch { pkt: Write }, "dispatch Write"),
            (Dispatch { pkt: Spawn }, "dispatch Spawn"),
            (Dispatch { pkt: SyncArrive }, "dispatch SyncArrive"),
            (Dispatch { pkt: SyncRelease }, "dispatch SyncRelease"),
            (
                Send {
                    pkt: ReadReq,
                    dst: far,
                },
                "send ReadReq -> PE65535",
            ),
            (
                ThreadSpawn {
                    frame: FrameId(u16::MAX),
                    entry: u32::MAX,
                },
                "spawn thread F65535 (entry 4294967295)",
            ),
            (
                ThreadSpawn {
                    frame: FrameId(0),
                    entry: 0,
                },
                "spawn thread F0 (entry 0)",
            ),
            (
                ThreadResume {
                    frame: FrameId(u16::MAX),
                },
                "resume thread F65535",
            ),
            (
                ThreadSuspend {
                    frame: f7,
                    cause: SuspendCause::RemoteRead,
                },
                "suspend thread F7 (remote-read)",
            ),
            (
                ThreadSuspend {
                    frame: f7,
                    cause: SuspendCause::BlockRead,
                },
                "suspend thread F7 (block-read)",
            ),
            (
                ThreadSuspend {
                    frame: f7,
                    cause: SuspendCause::Barrier,
                },
                "suspend thread F7 (barrier)",
            ),
            (
                ThreadSuspend {
                    frame: f7,
                    cause: SuspendCause::ThreadSync,
                },
                "suspend thread F7 (thread-sync)",
            ),
            (
                ThreadSuspend {
                    frame: f7,
                    cause: SuspendCause::Yield,
                },
                "suspend thread F7 (yield)",
            ),
            (ThreadRetire { frame: FrameId(0) }, "retire thread F0"),
            (
                Enqueue {
                    pkt: ReadResp,
                    priority: Priority::High,
                    spilled: true,
                    depth: usize::MAX,
                },
                "enqueue ReadResp High SPILL depth=18446744073709551615",
            ),
            (
                Enqueue {
                    pkt: Spawn,
                    priority: Priority::Low,
                    spilled: false,
                    depth: 0,
                },
                "enqueue Spawn Low depth=0",
            ),
            (
                Unspill {
                    pkt: Write,
                    priority: Priority::High,
                },
                "unspill Write High",
            ),
            (
                Unspill {
                    pkt: SyncArrive,
                    priority: Priority::Low,
                },
                "unspill SyncArrive Low",
            ),
            (
                DmaService {
                    pkt: ReadBlockReq,
                    words: u16::MAX,
                },
                "dma ReadBlockReq x65535",
            ),
            (
                DmaService {
                    pkt: ReadReq,
                    words: 0,
                },
                "dma ReadReq x0",
            ),
            (
                NetInject {
                    pkt: SyncRelease,
                    dst: far,
                    hops: u32::MAX,
                },
                "net-inject SyncRelease -> PE65535 (4294967295 hops)",
            ),
            (
                NetDeliver {
                    pkt: ReadResp,
                    src: far,
                },
                "net-deliver ReadResp <- PE65535",
            ),
            (DispatchEnd, "dispatch-end"),
            (
                FaultInjected {
                    pkt: Write,
                    dst: far,
                    fault: FaultKind::Drop,
                },
                "fault Write -> PE65535 (drop)",
            ),
            (
                FaultInjected {
                    pkt: Write,
                    dst: far,
                    fault: FaultKind::Dup,
                },
                "fault Write -> PE65535 (dup)",
            ),
            (
                FaultInjected {
                    pkt: Write,
                    dst: far,
                    fault: FaultKind::Delay,
                },
                "fault Write -> PE65535 (delay)",
            ),
        ];
        // Rotate the cycle and processor through their boundaries too;
        // the cycle is never padded.
        let stamps = [
            (Cycle::ZERO, PeId(0), "0cy PE0 "),
            (Cycle::MAX, far, "18446744073709551615cy PE65535 "),
            (Cycle::new(1234), PeId(5), "1234cy PE5 "),
        ];
        for (i, (kind, body)) in table.into_iter().enumerate() {
            let (at, pe, stamp) = stamps[i % stamps.len()];
            let line = TraceEvent { at, pe, kind }.to_string();
            assert_eq!(line, format!("{stamp}{body}"));
        }
    }

    #[test]
    fn null_probe_accepts_events() {
        let mut p = NullProbe;
        p.on(
            Cycle::ZERO,
            PeId(0),
            TraceKind::Dispatch {
                pkt: PacketKind::Spawn,
            },
        );
    }
}
