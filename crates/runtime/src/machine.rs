//! The [`Machine`]: processors, network, event loop, and scheduling.
//!
//! The simulator is event-driven: the only events are packet arrivals and
//! EXU dispatch attempts. A thread's execution between two suspension points
//! (a *burst*) is computed in one event, accumulating cycle charges into the
//! four Figure-8 classes; the Input/Output Buffer Units and the by-pass DMA
//! run on their own per-processor timelines, so remote reads are serviced
//! without consuming EXU cycles — unless the EM-4 ablation mode
//! ([`ServiceMode::ExuThread`]) is selected, in which case requests join the
//! packet queue and steal processor time exactly as the paper describes for
//! the EM-X's predecessor.
//!
//! ## The event loop
//!
//! One calendar holds every pending event, popped in canonical [`EvKey`]
//! order. Each event's effects are applied where it pops, in a fixed order
//! the trace and report digests rely on:
//!
//! 1. the invariant checker observes the event (and, for a network
//!    arrival, the arrival);
//! 2. the handler runs against [`Core`] — the processors and the calendar
//!    — writing its own trace lines straight to the [`Observers`] sink;
//! 3. the packets the handler sent, buffered in [`Core::sends`], are
//!    routed in send order: each one's `Send` line, the network model's
//!    lines, the checker's send observation, then its arrivals;
//! 4. the handler's error, if any, is returned.
//!
//! Routing at the point of the send would interleave the network's trace
//! lines with the handler's, so sends wait in the buffer until step 3.
//! [`Shared`] holds the immutable tables the handlers read alongside the
//! core: configuration, entry definitions, barrier membership.

use emx_core::{
    Continuation, Cycle, FrameId, GlobalAddr, MachineConfig, Packet, PacketKind, PeId, Priority,
    Probe, ServiceMode, SimError, SlotId, SuspendCause,
};
use emx_faults::{FaultPlan, FaultReport, FaultyNetwork, InvariantChecker, Rng64};
use emx_isa::{Effect, Program, Reg, ThreadState};
use emx_net::{build_network, DeliveryClass, Network};
use emx_proc::{BypassDma, FrameTable, LocalMemory, PacketQueue};
use emx_stats::{FaultSummary, PeStats, RunReport};

use crate::calendar::{Calendar, EvKey, LANE_DISPATCH, LANE_LOCAL, LANE_RETRY};
use crate::thread::{Action, BarrierId, ThreadBody, ThreadCtx, WorkKind};
use crate::trace::{Trace, TraceKind};

/// Continuation slot carrying a data value or a block-read completion.
const SLOT_DATA: SlotId = SlotId(0);
/// Continuation slot marking a barrier re-poll.
const SLOT_POLL: SlotId = SlotId(1);
/// Continuation slot marking a sequence-cell wake-up.
const SLOT_SEQ: SlotId = SlotId(2);
/// Continuation slot marking an explicit-yield resumption.
const SLOT_YIELD: SlotId = SlotId(3);

/// The processor that runs the barrier-coordination service threads.
pub const BARRIER_COORDINATOR: PeId = PeId(0);

/// Deterministic jitter added to barrier re-poll delays.
///
/// A fully deterministic machine with identical per-PE work phase-locks:
/// every processor polls on the same grid, and quantization offsets can
/// amplify into large artificial barrier skew at particular intervals (a
/// resonance real hardware never exhibits, because instruction timing,
/// refresh, and arbitration add noise). A small hash-based jitter — a pure
/// function of (pe, frame, time), so runs remain exactly reproducible —
/// breaks the phase lock.
#[inline]
fn poll_jitter(pe: usize, fid: FrameId, now: Cycle) -> u64 {
    let mut x = (pe as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(fid.0) << 32)
        .wrapping_add(now.get());
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x % 13
}

/// Words of local memory reserved per activation frame for ISA threads
/// (the `fp` register points at `frame_index * FRAME_WORDS`).
pub const FRAME_WORDS: u32 = 64;

/// Default fuel limit of [`Machine::run`], in cycles: 2^32, about 3.6
/// minutes of simulated 20 MHz time and more than 180x the longest
/// committed experiment (the P=1024 FFT at 22.8M cycles). Generous enough
/// that no legitimate workload hits it, small enough that a livelocked run
/// fails in bounded host time with [`SimError::FuelExhausted`].
pub const DEFAULT_FUEL: u64 = 1 << 32;

/// Identifier of a registered thread entry (native factory or ISA template).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(pub u32);

/// Entry factories travel with the machine, which must stay `Send`.
pub(crate) type Factory = Box<dyn Fn(PeId, u32) -> Box<dyn ThreadBody> + Send>;

pub(crate) enum EntryDef {
    Native { name: String, factory: Factory },
    Template(Program),
}

pub(crate) enum ThreadKind {
    /// A native body plus the entry index it was instantiated from, kept so
    /// a snapshot can name the factory that rebuilds the body on restore.
    Native {
        body: Box<dyn ThreadBody>,
        entry: u32,
    },
    Isa {
        state: ThreadState,
        template: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Running or queued for dispatch.
    Ready,
    /// One split-phase read outstanding; for ISA threads the register the
    /// value lands in.
    Value { isa_dst: Option<Reg> },
    /// Block read in flight: `received` of `len` words deposited at
    /// `local_dst`.
    Block {
        local_dst: u32,
        len: u16,
        received: u16,
    },
    /// Waiting for barrier `id`'s release number to reach `target`.
    Barrier { id: u32, target: u64 },
    /// Waiting for sequence cell `cell` to reach `threshold`.
    Seq { cell: u32, threshold: u64 },
    /// Explicitly yielded; resumption packet in flight.
    Yielded,
}

pub(crate) struct Frame {
    pub(crate) thread: ThreadKind,
    pub(crate) wait: Wait,
    pub(crate) arg: u32,
    /// Value delivered by the last read, consumed by the next step.
    pub(crate) inbox: Option<u32>,
    /// Unique id across frame-slot reuse, so a stale retry timer can never
    /// act on a later thread that recycled the slot.
    pub(crate) uid: u64,
    /// Sequence number of the thread's current split-phase read; stamped on
    /// requests and matched against responses when the retry protocol is
    /// armed.
    pub(crate) cur_seq: u16,
    /// Retry re-issues of the current read.
    pub(crate) attempts: u32,
    /// The in-flight request, kept for idempotent re-issue.
    pub(crate) pending: Option<Packet>,
    /// Bitmap of block-read word indices already deposited (duplicate
    /// suppression under response duplication/retry).
    pub(crate) seen: Vec<u64>,
}

impl Frame {
    /// Mark word `idx` as deposited; returns whether it already was.
    fn seen_test_and_set(&mut self, idx: u16) -> bool {
        let (w, b) = (usize::from(idx) / 64, usize::from(idx) % 64);
        if w >= self.seen.len() {
            self.seen.resize(w + 1, 0);
        }
        let hit = self.seen[w] & (1 << b) != 0;
        self.seen[w] |= 1 << b;
        hit
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LocalBarrier {
    pub(crate) arrived: usize,
    pub(crate) releases: u64,
}

pub(crate) struct Pe {
    pub(crate) mem: LocalMemory,
    pub(crate) queue: PacketQueue,
    pub(crate) frames: FrameTable<Frame>,
    pub(crate) dma: BypassDma,
    pub(crate) busy_until: Cycle,
    pub(crate) dispatch_scheduled: bool,
    pub(crate) live_threads: usize,
    pub(crate) seq_cells: Vec<u64>,
    pub(crate) seq_waiters: Vec<(FrameId, u32, u64)>,
    pub(crate) barriers: Vec<LocalBarrier>,
    pub(crate) stats: PeStats,
    /// Source of per-frame [`Frame::uid`] values.
    pub(crate) next_uid: u64,
    /// Per-PE seeded fault-decision streams (present iff fault injection is
    /// configured), so each processor's draws are a function of the seed
    /// and that processor alone.
    pub(crate) spill_rng: Option<Rng64>,
    pub(crate) dma_rng: Option<Rng64>,
    /// Canonical-key counters, one per [`EvKey`] lane homed on this PE.
    /// They advance only while this PE's own events execute (or during
    /// pre-run setup), so an event's key never depends on push order.
    pub(crate) ev_dispatch_seq: u64,
    pub(crate) ev_local_seq: u64,
    pub(crate) ev_retry_seq: u64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Packet arrival; the flag records whether it travelled the network
    /// (local scheduler wake-ups and loader spawns did not), which the
    /// invariant checker's conservation ledger needs.
    Arrive(PeId, Packet, bool),
    Dispatch(PeId),
    /// Retry timer for frame `FrameId` (identified by uid) read `seq`.
    Retry(PeId, FrameId, u64, u16),
}

/// Cycle charges accumulated during one dispatch, by breakdown class.
#[derive(Debug, Default, Clone, Copy)]
struct Charges {
    compute: u64,
    overhead: u64,
    switch: u64,
    /// Busy cycles that are really synchronization waiting in disguise
    /// (barrier re-polls); classified as communication time, matching the
    /// paper's observation that excessive iteration-sync switching erodes
    /// the communication minimum at high thread counts.
    comm: u64,
}

/// The one observation sink: fans every trace line out to the ring
/// [`Trace`] and the attached [`Probe`]. With neither attached,
/// [`Observers::as_probe`] is `None` and no line is built.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) trace: Option<Trace>,
    pub(crate) probe: Option<Box<dyn Probe + Send>>,
    /// Lines emitted so far; the event loop takes differences of it to
    /// count each handler's lines (`replay.emissions`).
    lines: u64,
}

impl Observers {
    #[inline]
    fn enabled(&self) -> bool {
        self.trace.is_some() || self.probe.is_some()
    }

    /// `Some(self)` when observation is on, else `None`, for the `*_probed`
    /// entry points of the processor units and the network.
    #[inline]
    fn as_probe(&mut self) -> Option<&mut dyn Probe> {
        if self.enabled() {
            Some(self)
        } else {
            None
        }
    }
}

impl Probe for Observers {
    #[inline]
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        self.lines += 1;
        if let Some(t) = self.trace.as_mut() {
            t.record(at, pe, kind);
        }
        if let Some(p) = self.probe.as_mut() {
            p.on(at, pe, kind);
        }
    }
}

/// A packet produced during a dispatch, to be scheduled after borrows end.
enum Outgoing {
    /// Route through the network from this processor at `depart`.
    Net { depart: Cycle, pkt: Packet },
    /// Deliver locally (scheduler bookkeeping) at `at`.
    LocalAt { at: Cycle, pkt: Packet },
    /// Arm a remote-read retry timer.
    RetryAt {
        at: Cycle,
        fid: FrameId,
        uid: u64,
        seq: u16,
    },
}

/// A packet an event handler sent, routed when the event's handler is done.
pub(crate) struct NetSend {
    pub(crate) depart: Cycle,
    pub(crate) src: PeId,
    pub(crate) pkt: Packet,
}

/// The state event handlers mutate: the processors, the event calendar,
/// the observation sink and the buffer of packets sent by the current
/// event.
pub(crate) struct Core {
    pub(crate) pes: Vec<Pe>,
    pub(crate) cal: Calendar<Ev>,
    /// Coordinator-side arrival counts per barrier id.
    pub(crate) barrier_counts: Vec<usize>,
    /// Latest meaningful simulated time: advanced by arrivals, dispatches
    /// and real retry re-issues, but *not* by stale retry timers popping
    /// after the workload completed — those must not inflate `elapsed`.
    pub(crate) progress: Cycle,
    /// Recovery tallies (DMA stalls, retries, stale responses).
    pub(crate) fsummary: FaultSummary,
    pub(crate) obs: Observers,
    /// Packets the current event sent, in send order; empty between
    /// events.
    pub(crate) sends: Vec<NetSend>,
}

/// The immutable tables the event handlers read.
pub(crate) struct Shared<'a> {
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) entries: &'a [EntryDef],
    /// Participants per PE for each barrier id.
    pub(crate) barrier_defs: &'a [usize],
}

impl Shared<'_> {
    /// Whether split-phase reads carry sequence numbers and retry timers:
    /// only when network faults can actually lose or duplicate packets and
    /// the retry protocol is switched on.
    fn retry_armed(&self) -> bool {
        self.cfg
            .faults
            .as_ref()
            .is_some_and(|f| f.any_net_faults() && f.retry_enabled())
    }
}

/// The EM-X machine: configuration, processors, network, and event loop.
///
/// See the crate docs for a usage example. A `Machine` simulates one run:
/// populate memories, register entries, spawn initial threads, call
/// [`run`](Machine::run), then inspect memories and the returned
/// [`RunReport`].
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) net: Box<dyn Network>,
    pub(crate) core: Core,
    pub(crate) entries: Vec<EntryDef>,
    /// Participants per PE for each barrier id.
    pub(crate) barrier_defs: Vec<usize>,
    /// Fault-model invariant checker, fed as each event pops.
    pub(crate) checker: Option<InvariantChecker>,
    pub(crate) ran: bool,
}

/// `Machine` must stay [`Send`]: the sweep engine (`emx-sweep`) builds and
/// runs machines on worker threads. `Network` and `ThreadBody` carry
/// explicit `Send` bounds for the same reason — adding a non-`Send` field
/// (an `Rc`, a raw pointer, a thread-local handle) breaks parallel sweeps,
/// and this guard turns that mistake into a compile error here rather than
/// a trait-bound error three crates away.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

impl Machine {
    /// Build a machine from a validated configuration.
    pub fn new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let mut net = build_network(&cfg.net, cfg.num_pes)?;
        let plan = cfg.faults.as_ref().map(|spec| FaultPlan::new(spec.clone()));
        let checker = cfg
            .faults
            .as_ref()
            .and_then(|spec| spec.check_invariants.then(InvariantChecker::new));
        if let Some(spec) = &cfg.faults {
            if spec.any_net_faults() {
                net = Box::new(FaultyNetwork::new(net, &FaultPlan::new(spec.clone())));
            }
        }
        let pes = (0..cfg.num_pes)
            .map(|i| {
                let frames = match cfg.faults.as_ref().and_then(|s| s.frame_cap_for(i)) {
                    Some(cap) => (cap as usize).min(cfg.frames_per_pe),
                    None => cfg.frames_per_pe,
                };
                Pe {
                    mem: LocalMemory::new(i, cfg.local_memory_words),
                    queue: PacketQueue::new(cfg.ibu_fifo_capacity),
                    frames: FrameTable::new(i, frames),
                    dma: BypassDma::new(
                        PeId(i as u16),
                        cfg.costs.dma_service,
                        cfg.costs.obu_forward,
                    ),
                    busy_until: Cycle::ZERO,
                    dispatch_scheduled: false,
                    live_threads: 0,
                    seq_cells: Vec::new(),
                    seq_waiters: Vec::new(),
                    barriers: Vec::new(),
                    stats: PeStats::default(),
                    next_uid: 0,
                    spill_rng: plan.as_ref().map(|p| p.spill_rng_for(i)),
                    dma_rng: plan.as_ref().map(|p| p.dma_rng_for(i)),
                    ev_dispatch_seq: 0,
                    ev_local_seq: 0,
                    ev_retry_seq: 0,
                }
            })
            .collect();
        Ok(Machine {
            cfg,
            net,
            core: Core {
                pes,
                cal: Calendar::new(),
                barrier_counts: Vec::new(),
                progress: Cycle::ZERO,
                fsummary: FaultSummary::default(),
                obs: Observers::default(),
                sends: Vec::new(),
            },
            entries: Vec::new(),
            barrier_defs: Vec::new(),
            checker,
            ran: false,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Register a native thread entry: `factory(pe, arg)` builds the body
    /// when an invocation packet for this entry is dispatched.
    pub fn register_entry(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(PeId, u32) -> Box<dyn ThreadBody> + Send + 'static,
    ) -> EntryId {
        self.entries.push(EntryDef::Native {
            name: name.into(),
            factory: Box::new(factory),
        });
        EntryId(self.entries.len() as u32 - 1)
    }

    /// Register an ISA template; spawns of this entry run the interpreted
    /// program with `arg` in the `arg` register and `fp` pointing at the
    /// frame's [`FRAME_WORDS`]-word memory region.
    pub fn register_template(&mut self, prog: Program) -> EntryId {
        self.entries.push(EntryDef::Template(prog));
        EntryId(self.entries.len() as u32 - 1)
    }

    /// Record up to `capacity` scheduling events (dispatches, packet
    /// injections, thread lifecycle, queue and DMA activity) for post-run
    /// inspection via [`Machine::trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.obs.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.core.obs.trace.as_ref()
    }

    /// Attach an observability probe. The probe receives every event the
    /// trace would (unbounded — the probe owns its retention policy), so
    /// exporters and metrics registries (`emx-obs`) can observe a run
    /// without the machine holding their storage. With no probe attached
    /// every emission site is a single `None` check and no event is built.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe + Send>) {
        self.core.obs.probe = Some(probe);
    }

    /// Detach and return the attached probe, if any.
    pub fn detach_probe(&mut self) -> Option<Box<dyn Probe + Send>> {
        self.core.obs.probe.take()
    }

    /// Name of a registered entry (for traces; templates report their
    /// program name).
    pub fn entry_name(&self, entry: EntryId) -> Option<&str> {
        self.entries.get(entry.0 as usize).map(|d| match d {
            EntryDef::Native { name, .. } => name.as_str(),
            EntryDef::Template(p) => p.name.as_str(),
        })
    }

    /// Define a global barrier with `participants_per_pe` threads arriving
    /// on every processor per epoch.
    pub fn define_barrier(&mut self, participants_per_pe: usize) -> BarrierId {
        let id = self.barrier_defs.len() as u32;
        self.barrier_defs.push(participants_per_pe);
        self.core.barrier_counts.push(0);
        for pe in &mut self.core.pes {
            pe.barriers.push(LocalBarrier::default());
        }
        BarrierId(id)
    }

    /// Give every processor `count` sequence cells (initialized to zero) for
    /// [`Action::WaitSeq`]/[`Action::SignalSeq`] ordering.
    pub fn define_seq_cells(&mut self, count: usize) {
        for pe in &mut self.core.pes {
            pe.seq_cells = vec![0; count];
        }
    }

    /// Immutable access to a processor's local memory.
    pub fn mem(&self, pe: PeId) -> Result<&LocalMemory, SimError> {
        self.core
            .pes
            .get(pe.index())
            .map(|p| &p.mem)
            .ok_or(SimError::BadPe { pe: pe.index() })
    }

    /// Mutable access to a processor's local memory (workload setup).
    pub fn mem_mut(&mut self, pe: PeId) -> Result<&mut LocalMemory, SimError> {
        self.core
            .pes
            .get_mut(pe.index())
            .map(|p| &mut p.mem)
            .ok_or(SimError::BadPe { pe: pe.index() })
    }

    /// Enqueue an invocation of `entry` on `pe` at cycle zero (free of
    /// charge: models the program loader, not a runtime spawn).
    pub fn spawn_at_start(&mut self, pe: PeId, entry: EntryId, arg: u32) -> Result<(), SimError> {
        if pe.index() >= self.core.pes.len() {
            return Err(SimError::BadPe { pe: pe.index() });
        }
        if entry.0 as usize >= self.entries.len() {
            return Err(SimError::Workload {
                reason: format!("entry {} not registered", entry.0),
            });
        }
        let pkt = Packet::spawn(pe, GlobalAddr::new(pe, entry.0)?, arg);
        let key = self.core.lane_key(Cycle::ZERO, pe, LANE_LOCAL);
        self.core.cal.push(key, Ev::Arrive(pe, pkt, false))
    }

    /// Run to quiescence under the default fuel limit [`DEFAULT_FUEL`].
    ///
    /// The limit is real: a run that passes it fails with
    /// [`SimError::FuelExhausted`] carrying the offending cycle and the
    /// live-thread count, so livelocks surface as diagnosable structured
    /// errors instead of wall-clock hangs.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_until(Cycle::new(DEFAULT_FUEL))
    }

    /// Run to quiescence, failing if simulated time passes `limit` (guards
    /// against livelock from a barrier that can never be satisfied).
    pub fn run_until(&mut self, limit: Cycle) -> Result<RunReport, SimError> {
        if self.ran {
            return Err(SimError::Workload {
                reason: "Machine::run may only be called once per machine".into(),
            });
        }
        loop {
            if let Some(report) = self.step_events(u64::MAX, limit)? {
                return Ok(report);
            }
        }
    }

    /// Step the machine forward by at most `max_events` events, pausing at
    /// an event boundary.
    ///
    /// Returns `Ok(Some(report))` when the machine quiesced within the
    /// budget — the machine is then finished exactly as after
    /// [`Machine::run_until`] — or `Ok(None)` when it paused with events
    /// still pending. A paused machine can be snapshotted
    /// ([`Machine::snapshot`]), stepped again, or handed to
    /// [`Machine::run_until`] to finish.
    pub fn step_events(
        &mut self,
        max_events: u64,
        limit: Cycle,
    ) -> Result<Option<RunReport>, SimError> {
        if self.ran {
            return Err(SimError::Workload {
                reason: "Machine::step_events on a finished machine".into(),
            });
        }
        match self.drive_events(limit, max_events) {
            Ok(true) => {
                self.ran = true;
                self.finish().map(Some)
            }
            Ok(false) => Ok(None),
            Err(mut e) => {
                self.ran = true;
                if let SimError::FuelExhausted { live_threads, .. } = &mut e {
                    *live_threads = self.core.suspended();
                }
                Err(e)
            }
        }
    }

    /// Pop and apply up to `max_events` events. `Ok(true)` means the
    /// calendar drained (quiescence); `Ok(false)` means the budget ran out
    /// with events still pending.
    fn drive_events(&mut self, limit: Cycle, max_events: u64) -> Result<bool, SimError> {
        for _ in 0..max_events {
            let Some(head) = self.core.cal.peek_key() else {
                return Ok(true);
            };
            if head.at > limit {
                // `step_events` patches in the live-thread census.
                return Err(SimError::FuelExhausted {
                    cycle: head.at.get(),
                    live_threads: 0,
                });
            }
            let Some((key, ev)) = self.core.cal.pop() else {
                break;
            };
            emx_faults::kill::tick();
            self.apply(key, ev)?;
        }
        Ok(self.core.cal.peek_key().is_none())
    }

    /// Apply one popped event's effects in the order the module docs list.
    fn apply(&mut self, key: EvKey, ev: Ev) -> Result<(), SimError> {
        if let Some(ck) = self.checker.as_mut() {
            ck.observe_event(key.at).map_err(FaultReport::into_error)?;
            if matches!(ev, Ev::Arrive(_, _, true)) {
                ck.observe_arrival();
            }
        }
        let sh = Shared {
            cfg: &self.cfg,
            entries: &self.entries,
            barrier_defs: &self.barrier_defs,
        };
        let lines = self.core.obs.lines;
        let handled = self.core.handle(&sh, key.at, ev);
        emx_hostprof::add(
            emx_hostprof::Sim::ReplayEmissions,
            self.core.obs.lines - lines,
        );
        self.route_sends()?;
        handled
    }

    /// Route the current event's sends in send order: each packet's `Send`
    /// line, the network model's own lines, the checker's send
    /// observation, then its arrivals on the calendar.
    fn route_sends(&mut self) -> Result<(), SimError> {
        let Machine {
            cfg,
            net,
            core,
            checker,
            ..
        } = self;
        let Core {
            cal, obs, sends, ..
        } = core;
        emx_hostprof::add(emx_hostprof::Sim::ReplayRoutes, sends.len() as u64);
        for NetSend { depart, src, pkt } in sends.drain(..) {
            let dst = pkt.dst();
            if dst.index() >= cfg.num_pes {
                return Err(SimError::BadPe { pe: dst.index() });
            }
            let class = match pkt.kind {
                PacketKind::ReadReq | PacketKind::ReadBlockReq | PacketKind::ReadResp => {
                    DeliveryClass::Data
                }
                _ => DeliveryClass::Control,
            };
            if let Some(o) = obs.as_probe() {
                o.on(depart, src, TraceKind::Send { pkt: pkt.kind, dst });
            }
            let deliveries = net.route_probed(depart, src, dst, class, pkt.kind, obs.as_probe());
            if let Some(ck) = checker.as_mut() {
                ck.observe_send(src, dst, deliveries.as_slice())
                    .map_err(FaultReport::into_error)?;
            }
            for (dup, &arrival) in deliveries.as_slice().iter().enumerate() {
                cal.push(
                    EvKey::net(arrival, dst, src, depart, dup as u64),
                    Ev::Arrive(dst, pkt, true),
                )?;
            }
        }
        Ok(())
    }

    /// End-of-run checks: deadlock detection, the invariant checker's
    /// final pass, and report assembly.
    fn finish(&mut self) -> Result<RunReport, SimError> {
        let suspended = self.core.suspended();
        if suspended > 0 {
            return Err(SimError::Deadlock {
                at: self.core.cal.now().get(),
                suspended,
            });
        }
        if let Some(ck) = &self.checker {
            ck.final_check(self.net.fault_counters())
                .map_err(FaultReport::into_error)?;
            let fifo = self.core.fifo_violations();
            if fifo > 0 {
                return Err(FaultReport::new(
                    "fifo-within-priority",
                    format!("{fifo} packet(s) popped out of enqueue order"),
                )
                .into_error());
            }
        }
        Ok(self.report())
    }

    /// Assemble the run report.
    pub(crate) fn report(&self) -> RunReport {
        let net_stats = self.net.stats();
        // The last dispatch event starts before its burst finishes: the true
        // end of the run is the latest EXU activity, not the last event.
        let elapsed = self
            .core
            .pes
            .iter()
            .map(|p| p.busy_until)
            .fold(self.core.progress, Cycle::max);
        RunReport {
            per_pe: self
                .core
                .pes
                .iter()
                .map(|p| {
                    let mut s = p.stats.clone();
                    s.max_queue_depth = p.queue.max_depth;
                    s.ibu_spills = p.queue.spills;
                    s.high_spills = p.queue.high_spills;
                    s.low_spills = p.queue.low_spills;
                    s.forced_spills = p.queue.forced_spills;
                    s.max_high_depth = p.queue.max_high_depth;
                    s.max_low_depth = p.queue.max_low_depth;
                    s
                })
                .collect(),
            elapsed,
            clock_hz: self.cfg.clock_hz,
            net_packets: net_stats.packets,
            net_contention: net_stats.contention_wait,
            faults: self.cfg.faults.as_ref().map(|_| {
                let c = self.net.fault_counters().unwrap_or_default();
                FaultSummary {
                    dropped: c.dropped,
                    duplicated: c.duplicated,
                    delayed: c.delayed,
                    forced_spills: self.core.pes.iter().map(|p| p.queue.forced_spills).sum(),
                    dma_stalls: self.core.fsummary.dma_stalls,
                    retries: self.core.fsummary.retries,
                    stale_responses: self.core.fsummary.stale_responses,
                }
            }),
        }
    }
}

impl Core {
    /// Threads still live (suspended or queued).
    pub(crate) fn suspended(&self) -> usize {
        self.pes.iter().map(|p| p.live_threads).sum()
    }

    /// FIFO-within-priority violations observed by the packet queues.
    pub(crate) fn fifo_violations(&self) -> u64 {
        self.pes.iter().map(|p| p.queue.fifo_violations).sum()
    }

    /// Mint the canonical key for the next lane-`lane` event homed on `pe`.
    fn lane_key(&mut self, at: Cycle, pe: PeId, lane: u8) -> EvKey {
        let p = &mut self.pes[pe.index()];
        let ctr = match lane {
            LANE_DISPATCH => &mut p.ev_dispatch_seq,
            LANE_LOCAL => &mut p.ev_local_seq,
            _ => &mut p.ev_retry_seq,
        };
        let a = *ctr;
        *ctr += 1;
        EvKey {
            at,
            pe: pe.0,
            lane,
            a,
            b: 0,
        }
    }

    /// Emit a trace line (no-op when observation is off).
    #[inline]
    fn record(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        if self.obs.enabled() {
            self.obs.on(at, pe, kind);
        }
    }

    /// Buffer a packet for the network; it is routed once the current
    /// event's handler returns.
    fn send(&mut self, depart: Cycle, src: PeId, pkt: Packet) {
        self.sends.push(NetSend { depart, src, pkt });
    }

    /// Run the handler of one popped event.
    pub(crate) fn handle(&mut self, sh: &Shared<'_>, t: Cycle, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::Arrive(pe, pkt, via_net) => {
                self.progress = self.progress.max(t);
                if via_net {
                    self.record(
                        t,
                        pe,
                        TraceKind::NetDeliver {
                            pkt: pkt.kind,
                            src: pkt.src,
                        },
                    );
                }
                self.on_arrive(sh, t, pe, pkt)
            }
            Ev::Dispatch(pe) => {
                self.progress = self.progress.max(t);
                self.on_dispatch(sh, t, pe)
            }
            Ev::Retry(pe, fid, uid, seq) => self.on_retry(sh, t, pe, fid, uid, seq),
        }
    }

    /// A retry timer fired: if the read it guards is still outstanding,
    /// re-issue the request idempotently and re-arm with exponential
    /// backoff. Timers for completed, superseded, or recycled frames are
    /// ignored without advancing `progress`.
    fn on_retry(
        &mut self,
        sh: &Shared<'_>,
        t: Cycle,
        pe_id: PeId,
        fid: FrameId,
        uid: u64,
        seq: u16,
    ) -> Result<(), SimError> {
        let Some((timeout, backoff_cap, max_attempts)) = sh
            .cfg
            .faults
            .as_ref()
            .map(|f| (f.retry_timeout, f.retry_backoff_cap, f.max_attempts))
        else {
            return Ok(());
        };
        let pe_idx = pe_id.index();
        let (pkt, attempts) = {
            let pe = &mut self.pes[pe_idx];
            let Some(frame) = pe.frames.get_mut(fid) else {
                return Ok(());
            };
            if frame.uid != uid || frame.cur_seq != seq {
                return Ok(());
            }
            if !matches!(frame.wait, Wait::Value { .. } | Wait::Block { .. }) {
                return Ok(());
            }
            let Some(pkt) = frame.pending else {
                return Ok(());
            };
            frame.attempts += 1;
            if max_attempts > 0 && frame.attempts > max_attempts {
                return Err(SimError::RetryExhausted {
                    pe: pe_idx,
                    frame: fid.index(),
                    attempts: frame.attempts - 1,
                });
            }
            pe.stats.packets_sent += 1;
            (pkt, frame.attempts)
        };
        self.progress = self.progress.max(t);
        self.fsummary.retries += 1;
        let depart = self.pes[pe_idx].dma.obu_depart(t);
        self.send(depart, pe_id, pkt);
        let shift = attempts.min(16);
        let delay = (u64::from(timeout) << shift).min(u64::from(backoff_cap.max(timeout)));
        let key = self.lane_key(depart + delay, pe_id, LANE_RETRY);
        self.cal.push(key, Ev::Retry(pe_id, fid, uid, seq))
    }

    /// Enqueue `pkt` on `pe`'s packet queue at time `t` and make sure a
    /// dispatch is scheduled.
    fn enqueue(
        &mut self,
        sh: &Shared<'_>,
        t: Cycle,
        pe_id: PeId,
        pkt: Packet,
    ) -> Result<(), SimError> {
        let spill_ppm = sh.cfg.faults.as_ref().map_or(0, |s| s.spill_ppm);
        let Core { pes, cal, obs, .. } = self;
        let pe = &mut pes[pe_id.index()];
        let force_spill = match pe.spill_rng.as_mut() {
            Some(rng) => rng.chance_ppm(spill_ppm),
            None => false,
        };
        pe.queue
            .push_probed(pkt, force_spill, t, pe_id, obs.as_probe());
        if !pe.dispatch_scheduled {
            let at = t.max(pe.busy_until);
            pe.dispatch_scheduled = true;
            let a = pe.ev_dispatch_seq;
            pe.ev_dispatch_seq += 1;
            cal.push(
                EvKey {
                    at,
                    pe: pe_id.0,
                    lane: LANE_DISPATCH,
                    a,
                    b: 0,
                },
                Ev::Dispatch(pe_id),
            )?;
        }
        Ok(())
    }

    fn on_arrive(
        &mut self,
        sh: &Shared<'_>,
        t: Cycle,
        pe_id: PeId,
        pkt: Packet,
    ) -> Result<(), SimError> {
        let bypass = sh.cfg.service_mode == ServiceMode::BypassDma;
        match pkt.kind {
            // Remote accesses are serviced by the IBU/by-pass DMA without
            // touching the EXU — the EM-X's key feature. In the EM-4
            // ablation they fall through to the packet queue instead.
            PacketKind::ReadReq | PacketKind::ReadBlockReq | PacketKind::Write if bypass => {
                let (stall_ppm, stall_cycles) = sh
                    .cfg
                    .faults
                    .as_ref()
                    .map_or((0, 0), |s| (s.dma_stall_ppm, s.dma_stall_cycles));
                let outcome = {
                    let Core {
                        pes, obs, fsummary, ..
                    } = self;
                    let pe = &mut pes[pe_id.index()];
                    // An injected DMA stall holds the request at the IBU
                    // before the by-pass path services it.
                    let stalled = pe
                        .dma_rng
                        .as_mut()
                        .is_some_and(|rng| rng.chance_ppm(stall_ppm));
                    let t = if stalled {
                        fsummary.dma_stalls += 1;
                        t + u64::from(stall_cycles)
                    } else {
                        t
                    };
                    pe.dma
                        .service_probed(t, &pkt, &mut pe.mem, obs.as_probe())?
                };
                for (depart, resp) in outcome.responses {
                    self.send(depart, pe_id, resp);
                }
                Ok(())
            }
            // Block-read data words are deposited by the *requester's* IBU,
            // also off the EXU; the completion resumes the thread through
            // the queue.
            PacketKind::ReadResp if bypass && pkt.continuation().slot == SLOT_DATA => {
                let cont = pkt.continuation();
                let retry_armed = sh.retry_armed();
                let pe = &mut self.pes[pe_id.index()];
                let is_block = matches!(
                    pe.frames.get(cont.frame).map(|f| f.wait),
                    Some(Wait::Block { .. })
                );
                if is_block {
                    let frame = pe
                        .frames
                        .get_mut(cont.frame)
                        .ok_or(SimError::FrameOutOfRange {
                            frame: cont.frame.index(),
                        })?;
                    let Wait::Block {
                        local_dst,
                        len,
                        received,
                    } = frame.wait
                    else {
                        return Err(SimError::Workload {
                            reason: format!("block deposit for non-block frame {}", cont.frame),
                        });
                    };
                    // Response matching: a word from a superseded attempt,
                    // or one already deposited, is discarded at the IBU.
                    let idx = if retry_armed { pkt.idx } else { received };
                    if retry_armed && (pkt.seq != frame.cur_seq || frame.seen_test_and_set(idx)) {
                        self.fsummary.stale_responses += 1;
                        return Ok(());
                    }
                    let done = pe.dma.ibu_deposit(t);
                    let cur_seq = frame.cur_seq;
                    pe.mem.write(local_dst + u32::from(idx), pkt.data)?;
                    let received = received + 1;
                    frame.wait = Wait::Block {
                        local_dst,
                        len,
                        received,
                    };
                    if received == len {
                        let resume = Packet::read_resp(pe_id, cont, u32::from(len));
                        let resume = if retry_armed {
                            resume.with_seq(cur_seq)
                        } else {
                            resume
                        };
                        self.enqueue(sh, done, pe_id, resume)?;
                    }
                    return Ok(());
                }
                self.enqueue(sh, t, pe_id, prioritize(sh.cfg, pkt))
            }
            _ => self.enqueue(sh, t, pe_id, prioritize(sh.cfg, pkt)),
        }
    }
}

/// Apply the optional scheduler policy: read responses jump to the
/// high-priority IBU FIFO so suspended threads resume before new
/// invocations.
fn prioritize(cfg: &MachineConfig, pkt: Packet) -> Packet {
    if cfg.priority_read_responses
        && pkt.kind == PacketKind::ReadResp
        && pkt.continuation().slot == SLOT_DATA
    {
        pkt.with_priority(Priority::High)
    } else {
        pkt
    }
}

/// Build the thread body for a spawn of `entry`.
fn instantiate(sh: &Shared<'_>, entry: u32, pe: PeId, arg: u32) -> Result<ThreadKind, SimError> {
    let def = sh
        .entries
        .get(entry as usize)
        .ok_or_else(|| SimError::Workload {
            reason: format!("spawn of unregistered entry {entry}"),
        })?;
    Ok(match def {
        EntryDef::Native { factory, .. } => ThreadKind::Native {
            body: factory(pe, arg),
            entry,
        },
        EntryDef::Template(_) => ThreadKind::Isa {
            state: ThreadState::at_entry(pe.0, sh.cfg.num_pes as u32, 0, arg),
            template: entry,
        },
    })
}

impl Core {
    fn on_dispatch(&mut self, sh: &Shared<'_>, t: Cycle, pe_id: PeId) -> Result<(), SimError> {
        let pe_idx = pe_id.index();
        let costs = sh.cfg.costs;
        let (pkt, spilled, start) = {
            let Core { pes, obs, .. } = &mut *self;
            let pe = &mut pes[pe_idx];
            pe.dispatch_scheduled = false;
            let start = t.max(pe.busy_until);
            let Some((pkt, spilled)) = pe.queue.pop_probed(start, pe_id, obs.as_probe()) else {
                return Ok(());
            };
            // EXU idle between the last burst and this dispatch: if this
            // processor still had live (suspended) threads, the gap is time
            // lost to communication/synchronization — the Figure 6 quantity.
            let gap = start - pe.busy_until;
            if pe.live_threads > 0 && gap.get() > 0 {
                pe.stats.breakdown.comm += gap;
            }
            pe.stats.dispatches += 1;
            if obs.enabled() {
                obs.on(start, pe_id, TraceKind::Dispatch { pkt: pkt.kind });
            }
            (pkt, spilled, start)
        };

        let mut now = start;
        let mut ch = Charges::default();
        let mut out: Vec<Outgoing> = Vec::new();
        if spilled {
            // Restoring a packet from the on-memory overflow buffer costs
            // extra IBU/memory cycles, charged to switching.
            now += u64::from(costs.ibu_spill);
            ch.switch += u64::from(costs.ibu_spill);
        }

        match pkt.kind {
            PacketKind::Spawn => {
                let entry = pkt.global_addr().offset;
                let arg = pkt.data;
                let thread = instantiate(sh, entry, pe_id, arg)?;
                now += u64::from(costs.context_switch);
                ch.switch += u64::from(costs.context_switch);
                let fid = {
                    let pe = &mut self.pes[pe_idx];
                    pe.live_threads += 1;
                    pe.next_uid += 1;
                    let fid = pe.frames.alloc(Frame {
                        thread,
                        wait: Wait::Ready,
                        arg,
                        inbox: None,
                        uid: pe.next_uid,
                        cur_seq: 0,
                        attempts: 0,
                        pending: None,
                        seen: Vec::new(),
                    })?;
                    // ISA threads address their operand segment through fp.
                    if let Some(Frame {
                        thread: ThreadKind::Isa { state, .. },
                        ..
                    }) = pe.frames.get_mut(fid)
                    {
                        state.set(Reg::FP, fid.index() as u32 * FRAME_WORDS);
                    }
                    fid
                };
                self.record(now, pe_id, TraceKind::ThreadSpawn { frame: fid, entry });
                self.run_burst(sh, pe_idx, fid, &mut now, &mut ch, &mut out)?;
            }
            PacketKind::ReadResp => {
                let cont = pkt.continuation();
                let fid = cont.frame;
                match cont.slot {
                    SLOT_DATA => {
                        // In EM-4 mode incoming block-read words are not
                        // intercepted by the IBU; the EXU deposits each one
                        // (consuming cycles) and the thread resumes only
                        // after the last.
                        //
                        // With the retry protocol armed, a response whose
                        // sequence number does not match the frame's current
                        // read — or that lands on a dead, recycled, or
                        // already-resumed frame — is a late duplicate of a
                        // retried request and is discarded silently.
                        let retry_armed = sh.retry_armed();
                        let mut resume = true;
                        let mut stale = false;
                        {
                            let pe = &mut self.pes[pe_idx];
                            match pe.frames.get_mut(fid) {
                                None if retry_armed => stale = true,
                                None => {
                                    return Err(SimError::Workload {
                                        reason: format!("response for dead frame {fid} on {pe_id}"),
                                    })
                                }
                                Some(frame) if retry_armed && pkt.seq != frame.cur_seq => {
                                    stale = true;
                                }
                                Some(frame) => {
                                    match frame.wait {
                                        Wait::Value { isa_dst } => {
                                            frame.inbox = Some(pkt.data);
                                            if let (Some(reg), ThreadKind::Isa { state, .. }) =
                                                (isa_dst, &mut frame.thread)
                                            {
                                                state.set(reg, pkt.data);
                                            }
                                        }
                                        Wait::Block { len, received, .. } if received == len => {
                                            frame.inbox = Some(u32::from(len));
                                        }
                                        Wait::Block {
                                            local_dst,
                                            len,
                                            received,
                                        } => {
                                            debug_assert_eq!(
                                                sh.cfg.service_mode,
                                                ServiceMode::ExuThread,
                                                "partial block deposits reach the EXU only in EM-4 mode"
                                            );
                                            let idx = if retry_armed { pkt.idx } else { received };
                                            if retry_armed && frame.seen_test_and_set(idx) {
                                                stale = true;
                                            } else {
                                                now += u64::from(costs.dma_service);
                                                ch.overhead += u64::from(costs.dma_service);
                                                pe.mem
                                                    .write(local_dst + u32::from(idx), pkt.data)?;
                                                let received = received + 1;
                                                frame.wait = Wait::Block {
                                                    local_dst,
                                                    len,
                                                    received,
                                                };
                                                if received == len {
                                                    frame.inbox = Some(u32::from(len));
                                                } else {
                                                    resume = false;
                                                }
                                            }
                                        }
                                        _ if retry_armed => stale = true,
                                        other => {
                                            return Err(SimError::Workload {
                                                reason: format!(
                                                "data response for frame {fid} in state {other:?}"
                                            ),
                                            })
                                        }
                                    }
                                    if resume && !stale {
                                        frame.wait = Wait::Ready;
                                        frame.pending = None;
                                    }
                                }
                            }
                        }
                        if stale {
                            self.fsummary.stale_responses += 1;
                        } else if resume {
                            now += u64::from(costs.context_switch);
                            ch.switch += u64::from(costs.context_switch);
                            self.record(now, pe_id, TraceKind::ThreadResume { frame: fid });
                            self.run_burst(sh, pe_idx, fid, &mut now, &mut ch, &mut out)?;
                        }
                    }
                    SLOT_POLL => {
                        let released = {
                            let pe = &self.pes[pe_idx];
                            let frame = pe.frames.get(fid).ok_or_else(|| SimError::Workload {
                                reason: format!("poll for dead frame {fid} on {pe_id}"),
                            })?;
                            let Wait::Barrier { id, target } = frame.wait else {
                                return Err(SimError::Workload {
                                    reason: format!("poll for non-waiting frame {fid}"),
                                });
                            };
                            pe.barriers[id as usize].releases >= target
                        };
                        if released {
                            now += u64::from(costs.context_switch);
                            ch.switch += u64::from(costs.context_switch);
                            self.pes[pe_idx]
                                .frames
                                .get_mut(fid)
                                .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?
                                .wait = Wait::Ready;
                            self.record(now, pe_id, TraceKind::ThreadResume { frame: fid });
                            self.run_burst(sh, pe_idx, fid, &mut now, &mut ch, &mut out)?;
                        } else {
                            // Unsuccessful check: the iteration-sync switch
                            // of Figure 9. Its cycles are synchronization
                            // waiting, so they count as communication time.
                            // Re-poll after the configured interval.
                            now += 2;
                            ch.comm += 2;
                            self.pes[pe_idx].stats.switches.iter_sync += 1;
                            out.push(Outgoing::LocalAt {
                                at: now
                                    + u64::from(costs.barrier_poll_interval)
                                    + poll_jitter(pe_idx, fid, now),
                                pkt,
                            });
                        }
                    }
                    SLOT_SEQ => {
                        let satisfied = {
                            let pe = &self.pes[pe_idx];
                            let frame = pe.frames.get(fid).ok_or_else(|| SimError::Workload {
                                reason: format!("seq wake for dead frame {fid} on {pe_id}"),
                            })?;
                            match frame.wait {
                                Wait::Seq { cell, threshold } => {
                                    pe.seq_cells[cell as usize] >= threshold
                                }
                                _ => {
                                    return Err(SimError::Workload {
                                        reason: format!("seq wake for non-waiting frame {fid}"),
                                    })
                                }
                            }
                        };
                        if satisfied {
                            now += u64::from(costs.context_switch);
                            ch.switch += u64::from(costs.context_switch);
                            self.pes[pe_idx]
                                .frames
                                .get_mut(fid)
                                .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?
                                .wait = Wait::Ready;
                            self.record(now, pe_id, TraceKind::ThreadResume { frame: fid });
                            self.run_burst(sh, pe_idx, fid, &mut now, &mut ch, &mut out)?;
                        } else {
                            // Spurious wake (signal raced a higher
                            // threshold): re-register and count the
                            // thread-sync switch.
                            now += 2;
                            ch.switch += 2;
                            let pe = &mut self.pes[pe_idx];
                            pe.stats.switches.thread_sync += 1;
                            let frame = pe
                                .frames
                                .get(fid)
                                .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?;
                            if let Wait::Seq { cell, threshold } = frame.wait {
                                pe.seq_waiters.push((fid, cell, threshold));
                            }
                        }
                    }
                    SLOT_YIELD => {
                        now += u64::from(costs.context_switch);
                        ch.switch += u64::from(costs.context_switch);
                        let frame = self.pes[pe_idx].frames.get_mut(fid).ok_or_else(|| {
                            SimError::Workload {
                                reason: format!("yield resume for dead frame {fid}"),
                            }
                        })?;
                        frame.wait = Wait::Ready;
                        self.record(now, pe_id, TraceKind::ThreadResume { frame: fid });
                        self.run_burst(sh, pe_idx, fid, &mut now, &mut ch, &mut out)?;
                    }
                    other => {
                        return Err(SimError::Workload {
                            reason: format!("unknown continuation slot {}", other.0),
                        })
                    }
                }
            }
            PacketKind::SyncArrive => {
                debug_assert_eq!(pe_id, BARRIER_COORDINATOR);
                let id = pkt.global_addr().offset as usize;
                now += 2;
                ch.switch += 2;
                self.barrier_counts[id] += 1;
                if self.barrier_counts[id] == sh.cfg.num_pes {
                    self.barrier_counts[id] = 0;
                    // Release broadcast: one send instruction per processor.
                    for j in 0..sh.cfg.num_pes {
                        now += u64::from(costs.send_packet);
                        ch.switch += u64::from(costs.send_packet);
                        let depart = self.pes[pe_idx].dma.obu_depart(now);
                        let target = PeId(j as u16);
                        let rel = Packet {
                            kind: PacketKind::SyncRelease,
                            priority: Priority::Low,
                            addr: GlobalAddr::new(target, id as u32)?.pack(),
                            data: 0,
                            block_len: 1,
                            src: pe_id,
                            seq: 0,
                            idx: 0,
                        };
                        out.push(Outgoing::Net { depart, pkt: rel });
                        self.pes[pe_idx].stats.packets_sent += 1;
                    }
                }
            }
            PacketKind::SyncRelease => {
                let id = pkt.global_addr().offset as usize;
                now += 2;
                ch.switch += 2;
                self.pes[pe_idx].barriers[id].releases += 1;
            }
            // EM-4 ablation: remote accesses consume EXU cycles as
            // one-instruction threads.
            PacketKind::ReadReq | PacketKind::ReadBlockReq | PacketKind::Write => {
                debug_assert_eq!(sh.cfg.service_mode, ServiceMode::ExuThread);
                self.exu_service(sh, pe_idx, &pkt, &mut now, &mut ch, &mut out)?;
            }
        }

        // Commit charges and schedule follow-ups.
        {
            let pe = &mut self.pes[pe_idx];
            pe.busy_until = now;
            pe.stats.breakdown.compute += ch.compute;
            pe.stats.breakdown.overhead += ch.overhead;
            pe.stats.breakdown.switch += ch.switch;
            pe.stats.breakdown.comm += Cycle::new(ch.comm);
        }
        // The burst's occupied span is exactly [start, now]: `now` is the
        // value committed to busy_until above, so the profiler can
        // reconstruct per-PE occupancy without the cost model.
        self.record(now, pe_id, TraceKind::DispatchEnd);
        for o in out {
            match o {
                Outgoing::Net { depart, pkt } => self.send(depart, pe_id, pkt),
                Outgoing::LocalAt { at, pkt } => {
                    let key = self.lane_key(at, pe_id, LANE_LOCAL);
                    self.cal.push(key, Ev::Arrive(pe_id, pkt, false))?
                }
                Outgoing::RetryAt { at, fid, uid, seq } => {
                    let key = self.lane_key(at, pe_id, LANE_RETRY);
                    self.cal.push(key, Ev::Retry(pe_id, fid, uid, seq))?
                }
            }
        }
        let redispatch = {
            let pe = &mut self.pes[pe_idx];
            if !pe.queue.is_empty() && !pe.dispatch_scheduled {
                pe.dispatch_scheduled = true;
                Some(pe.busy_until)
            } else {
                None
            }
        };
        if let Some(at) = redispatch {
            let key = self.lane_key(at, pe_id, LANE_DISPATCH);
            self.cal.push(key, Ev::Dispatch(pe_id))?;
        }
        Ok(())
    }
}

impl Core {
    /// EM-4-mode servicing of a remote access on the EXU.
    fn exu_service(
        &mut self,
        sh: &Shared<'_>,
        pe_idx: usize,
        pkt: &Packet,
        now: &mut Cycle,
        ch: &mut Charges,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), SimError> {
        let costs = sh.cfg.costs;
        let pe = &mut self.pes[pe_idx];
        match pkt.kind {
            PacketKind::Write => {
                *now += u64::from(costs.dma_service);
                ch.overhead += u64::from(costs.dma_service);
                let ga = pkt.global_addr();
                pe.mem.write(ga.offset, pkt.data)?;
            }
            PacketKind::ReadReq => {
                *now += u64::from(costs.dma_service);
                ch.overhead += u64::from(costs.dma_service);
                let ga = pkt.global_addr();
                let value = pe.mem.read(ga.offset)?;
                let depart = pe.dma.obu_depart(*now);
                let resp = Packet::read_resp(PeId(pe_idx as u16), pkt.continuation(), value)
                    .with_seq(pkt.seq);
                pe.stats.packets_sent += 1;
                out.push(Outgoing::Net { depart, pkt: resp });
            }
            PacketKind::ReadBlockReq => {
                let ga = pkt.global_addr();
                for i in 0..u32::from(pkt.block_len) {
                    *now += u64::from(costs.dma_service);
                    ch.overhead += u64::from(costs.dma_service);
                    let value = pe.mem.read(ga.offset + i)?;
                    let depart = pe.dma.obu_depart(*now);
                    let resp = Packet::read_resp(PeId(pe_idx as u16), pkt.continuation(), value)
                        .with_seq(pkt.seq)
                        .with_idx(i as u16);
                    pe.stats.packets_sent += 1;
                    out.push(Outgoing::Net { depart, pkt: resp });
                }
            }
            _ => unreachable!("exu_service only handles remote accesses"),
        }
        Ok(())
    }

    /// Execute a thread burst: repeatedly step the thread, applying
    /// non-suspending actions inline, until it suspends or ends.
    fn run_burst(
        &mut self,
        sh: &Shared<'_>,
        pe_idx: usize,
        fid: FrameId,
        now: &mut Cycle,
        ch: &mut Charges,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), SimError> {
        let costs = sh.cfg.costs;
        let npes = sh.cfg.num_pes as u32;
        let pe_id = PeId(pe_idx as u16);
        // Base retry timeout, when the protocol is armed for this run.
        let retry_timeout = if sh.retry_armed() {
            sh.cfg.faults.as_ref().map(|f| f.retry_timeout)
        } else {
            None
        };
        let entries = sh.entries;
        let barrier_defs = sh.barrier_defs;
        let Core { pes, obs, .. } = self;
        let pe = &mut pes[pe_idx];

        loop {
            let Pe {
                mem,
                frames,
                seq_cells,
                ..
            } = pe;
            let frame = frames.get_mut(fid).ok_or_else(|| SimError::Workload {
                reason: format!("burst on dead frame {fid}"),
            })?;
            // Produce the next action, either from the native body or by
            // interpreting ISA instructions up to the next effect.
            let (action, isa_dst): (Action, Option<Reg>) = match &mut frame.thread {
                ThreadKind::Native { body, .. } => {
                    let mut ctx = ThreadCtx {
                        pe: pe_id,
                        npes,
                        now: *now,
                        value: frame.inbox.take(),
                        arg: frame.arg,
                        mem,
                        seq: seq_cells,
                    };
                    (body.step(&mut ctx), None)
                }
                ThreadKind::Isa { state, template } => {
                    let prog = match &entries[*template as usize] {
                        EntryDef::Template(p) => p,
                        EntryDef::Native { .. } => unreachable!("template id points at native"),
                    };
                    frame.inbox = None;
                    let mut translated: Option<(Action, Option<Reg>)> = None;
                    while translated.is_none() {
                        let outcome = emx_isa::step(prog, state, mem, &costs)?;
                        let cost = u64::from(outcome.cost);
                        match outcome.effect {
                            Effect::None => {
                                *now += cost;
                                ch.compute += cost;
                            }
                            Effect::RemoteWrite { gaddr, value } => {
                                *now += cost;
                                ch.overhead += cost;
                                let ga = GlobalAddr::unpack(gaddr);
                                translated = Some((Action::Write { addr: ga, value }, None));
                            }
                            Effect::Spawn { entry, arg } => {
                                *now += cost;
                                ch.overhead += cost;
                                let ga = GlobalAddr::unpack(entry);
                                translated = Some((
                                    Action::Spawn {
                                        pe: ga.pe,
                                        entry: EntryId(ga.offset),
                                        arg,
                                    },
                                    None,
                                ));
                            }
                            Effect::RemoteRead { gaddr, dst } => {
                                *now += cost;
                                ch.overhead += cost;
                                translated = Some((
                                    Action::Read {
                                        addr: GlobalAddr::unpack(gaddr),
                                    },
                                    Some(dst),
                                ));
                            }
                            Effect::RemoteReadBlock { gaddr, local, len } => {
                                *now += cost;
                                ch.overhead += cost;
                                translated = Some((
                                    Action::ReadBlock {
                                        addr: GlobalAddr::unpack(gaddr),
                                        len,
                                        local_dst: local,
                                    },
                                    None,
                                ));
                            }
                            Effect::Yield => {
                                *now += cost;
                                ch.switch += cost;
                                translated = Some((Action::Yield, None));
                            }
                            Effect::End => {
                                *now += cost;
                                ch.compute += cost;
                                translated = Some((Action::End, None));
                            }
                        }
                    }
                    translated.expect("loop exits only when set")
                }
            };

            let is_isa = matches!(frame.thread, ThreadKind::Isa { .. });
            match action {
                Action::Work { cycles, kind } => {
                    *now += u64::from(cycles);
                    match kind {
                        WorkKind::Compute => ch.compute += u64::from(cycles),
                        WorkKind::Overhead => ch.overhead += u64::from(cycles),
                    }
                }
                Action::Write { addr, value } => {
                    if !is_isa {
                        *now += u64::from(costs.send_packet);
                        ch.overhead += u64::from(costs.send_packet);
                    }
                    let depart = pe.dma.obu_depart(*now);
                    pe.stats.packets_sent += 1;
                    out.push(Outgoing::Net {
                        depart,
                        pkt: Packet::write(pe_id, addr, value),
                    });
                }
                Action::Spawn {
                    pe: target,
                    entry,
                    arg,
                } => {
                    if !is_isa {
                        *now += u64::from(costs.send_packet);
                        ch.overhead += u64::from(costs.send_packet);
                    }
                    let depart = pe.dma.obu_depart(*now);
                    pe.stats.packets_sent += 1;
                    out.push(Outgoing::Net {
                        depart,
                        pkt: Packet::spawn(pe_id, GlobalAddr::new(target, entry.0)?, arg),
                    });
                }
                Action::SignalSeq { cell } => {
                    *now += 1;
                    ch.compute += 1;
                    let c = cell as usize;
                    if c >= pe.seq_cells.len() {
                        return Err(SimError::Workload {
                            reason: format!("signal of undefined seq cell {cell}"),
                        });
                    }
                    pe.seq_cells[c] += 1;
                    let value = pe.seq_cells[c];
                    let mut i = 0;
                    while i < pe.seq_waiters.len() {
                        let (wfid, wcell, wthr) = pe.seq_waiters[i];
                        if wcell == cell && value >= wthr {
                            pe.seq_waiters.swap_remove(i);
                            let cont = Continuation::new(pe_id, wfid, SLOT_SEQ)?;
                            out.push(Outgoing::LocalAt {
                                at: *now + 1,
                                pkt: Packet::read_resp(pe_id, cont, 0),
                            });
                        } else {
                            i += 1;
                        }
                    }
                }
                Action::Read { addr } => {
                    if !is_isa {
                        *now += u64::from(costs.send_packet);
                        ch.overhead += u64::from(costs.send_packet);
                    }
                    let frame = pe
                        .frames
                        .get_mut(fid)
                        .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?;
                    frame.wait = Wait::Value { isa_dst };
                    let cont = Continuation::new(pe_id, fid, SLOT_DATA)?;
                    let depart = pe.dma.obu_depart(*now);
                    pe.stats.packets_sent += 1;
                    pe.stats.reads_issued += 1;
                    pe.stats.switches.remote_read += 1;
                    let mut req = Packet::read_req(pe_id, addr, cont);
                    if let Some(timeout) = retry_timeout {
                        frame.cur_seq = frame.cur_seq.wrapping_add(1);
                        frame.attempts = 0;
                        req = req.with_seq(frame.cur_seq);
                        frame.pending = Some(req);
                        out.push(Outgoing::RetryAt {
                            at: depart + u64::from(timeout),
                            fid,
                            uid: frame.uid,
                            seq: frame.cur_seq,
                        });
                    }
                    out.push(Outgoing::Net { depart, pkt: req });
                    *now += u64::from(costs.context_switch);
                    ch.switch += u64::from(costs.context_switch);
                    if obs.enabled() {
                        obs.on(
                            *now,
                            pe_id,
                            TraceKind::ThreadSuspend {
                                frame: fid,
                                cause: SuspendCause::RemoteRead,
                            },
                        );
                    }
                    return Ok(());
                }
                Action::ReadBlock {
                    addr,
                    len,
                    local_dst,
                } => {
                    if !is_isa {
                        *now += u64::from(costs.send_packet);
                        ch.overhead += u64::from(costs.send_packet);
                    }
                    let frame = pe
                        .frames
                        .get_mut(fid)
                        .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?;
                    frame.wait = Wait::Block {
                        local_dst,
                        len,
                        received: 0,
                    };
                    let cont = Continuation::new(pe_id, fid, SLOT_DATA)?;
                    let depart = pe.dma.obu_depart(*now);
                    pe.stats.packets_sent += 1;
                    pe.stats.reads_issued += u64::from(len);
                    pe.stats.switches.remote_read += 1;
                    let mut req = Packet::read_block_req(pe_id, addr, cont, len)?;
                    if let Some(timeout) = retry_timeout {
                        frame.cur_seq = frame.cur_seq.wrapping_add(1);
                        frame.attempts = 0;
                        frame.seen.clear();
                        req = req.with_seq(frame.cur_seq);
                        frame.pending = Some(req);
                        out.push(Outgoing::RetryAt {
                            at: depart + u64::from(timeout),
                            fid,
                            uid: frame.uid,
                            seq: frame.cur_seq,
                        });
                    }
                    out.push(Outgoing::Net { depart, pkt: req });
                    *now += u64::from(costs.context_switch);
                    ch.switch += u64::from(costs.context_switch);
                    if obs.enabled() {
                        obs.on(
                            *now,
                            pe_id,
                            TraceKind::ThreadSuspend {
                                frame: fid,
                                cause: SuspendCause::BlockRead,
                            },
                        );
                    }
                    return Ok(());
                }
                Action::Barrier { id } => {
                    let bid = id.0 as usize;
                    if bid >= barrier_defs.len() {
                        return Err(SimError::Workload {
                            reason: format!("arrival at undefined barrier {}", id.0),
                        });
                    }
                    let participants = barrier_defs[bid];
                    let lb = &mut pe.barriers[bid];
                    lb.arrived += 1;
                    let target = lb.releases + 1;
                    let complete = lb.arrived == participants;
                    if complete {
                        lb.arrived = 0;
                        // Last local thread notifies the coordinator.
                        *now += u64::from(costs.send_packet);
                        ch.switch += u64::from(costs.send_packet);
                        let depart = pe.dma.obu_depart(*now);
                        pe.stats.packets_sent += 1;
                        let arrive_pkt = Packet {
                            kind: PacketKind::SyncArrive,
                            priority: Priority::Low,
                            addr: GlobalAddr::new(BARRIER_COORDINATOR, id.0)?.pack(),
                            data: u32::from(pe_id.0),
                            block_len: 1,
                            src: pe_id,
                            seq: 0,
                            idx: 0,
                        };
                        out.push(Outgoing::Net {
                            depart,
                            pkt: arrive_pkt,
                        });
                    }
                    let frame = pe
                        .frames
                        .get_mut(fid)
                        .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?;
                    frame.wait = Wait::Barrier { id: id.0, target };
                    // First check counts as an iteration-sync switch, then
                    // the thread polls on the configured interval.
                    pe.stats.switches.iter_sync += 1;
                    let cont = Continuation::new(pe_id, fid, SLOT_POLL)?;
                    out.push(Outgoing::LocalAt {
                        at: *now
                            + u64::from(costs.barrier_poll_interval)
                            + poll_jitter(pe_idx, fid, *now),
                        pkt: Packet::read_resp(pe_id, cont, 0),
                    });
                    *now += u64::from(costs.context_switch);
                    ch.switch += u64::from(costs.context_switch);
                    if obs.enabled() {
                        obs.on(
                            *now,
                            pe_id,
                            TraceKind::ThreadSuspend {
                                frame: fid,
                                cause: SuspendCause::Barrier,
                            },
                        );
                    }
                    return Ok(());
                }
                Action::WaitSeq { cell, threshold } => {
                    let c = cell as usize;
                    if c >= pe.seq_cells.len() {
                        return Err(SimError::Workload {
                            reason: format!("wait on undefined seq cell {cell}"),
                        });
                    }
                    if pe.seq_cells[c] >= threshold {
                        // Already satisfied: continue without switching —
                        // this is the fast path a well-ordered merge takes.
                        continue;
                    }
                    let frame = pe
                        .frames
                        .get_mut(fid)
                        .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?;
                    frame.wait = Wait::Seq { cell, threshold };
                    pe.seq_waiters.push((fid, cell, threshold));
                    pe.stats.switches.thread_sync += 1;
                    *now += u64::from(costs.context_switch);
                    ch.switch += u64::from(costs.context_switch);
                    if obs.enabled() {
                        obs.on(
                            *now,
                            pe_id,
                            TraceKind::ThreadSuspend {
                                frame: fid,
                                cause: SuspendCause::ThreadSync,
                            },
                        );
                    }
                    return Ok(());
                }
                Action::Yield => {
                    let frame = pe
                        .frames
                        .get_mut(fid)
                        .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?;
                    frame.wait = Wait::Yielded;
                    let cont = Continuation::new(pe_id, fid, SLOT_YIELD)?;
                    out.push(Outgoing::LocalAt {
                        at: *now + 1,
                        pkt: Packet::read_resp(pe_id, cont, 0),
                    });
                    *now += u64::from(costs.context_switch);
                    ch.switch += u64::from(costs.context_switch);
                    if obs.enabled() {
                        obs.on(
                            *now,
                            pe_id,
                            TraceKind::ThreadSuspend {
                                frame: fid,
                                cause: SuspendCause::Yield,
                            },
                        );
                    }
                    return Ok(());
                }
                Action::End => {
                    *now += u64::from(costs.context_switch);
                    ch.switch += u64::from(costs.context_switch);
                    pe.live_threads -= 1;
                    pe.frames.free(fid);
                    if obs.enabled() {
                        obs.on(*now, pe_id, TraceKind::ThreadRetire { frame: fid });
                    }
                    return Ok(());
                }
            }
        }
    }
}
