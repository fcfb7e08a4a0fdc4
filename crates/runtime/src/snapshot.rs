//! Deterministic checkpoint/restore of a [`Machine`] at an event boundary.
//!
//! [`Machine::snapshot`] serializes the complete dynamic state of a paused
//! (or not-yet-run) machine into the `emx-snap/1` container defined by the
//! `emx-snap` crate: thread frames (native bodies via their
//! [`ThreadBody::save_state`](crate::ThreadBody::save_state) hooks, ISA
//! threads by register file and PC), packet queues, in-flight packets and
//! retry timers on the calendar, DMA and OBU timelines, per-PE clocks and
//! statistics, RNG cursors, fault tallies, the network model's port
//! timelines, and the invariant checker's ledger.
//!
//! [`Machine::restore`] is the inverse: it rebuilds that state inside a
//! *shell* — a freshly constructed machine with the same configuration and
//! the same entries, barriers and templates registered, which has not run.
//! The snapshot pins a digest of the machine configuration and the restore
//! path validates the entry table against it, so a snapshot only restores
//! into the machine it came from. A restored machine continues through
//! [`Machine::run_until`] or [`Machine::step_events`] and produces
//! byte-identical reports, traces and errors to the uninterrupted run —
//! the property `tests/snapshot_restore.rs` checks at every k-th event
//! boundary.
//!
//! What is deliberately *not* serialized: the trace buffer and any attached
//! probe (host-side observers own their retention), and the entry table
//! itself (factories are code, not data — the shell re-registers them).

use emx_core::{Cycle, FrameId, MachineConfig, Packet, PacketKind, PeId, Priority, SimError};
use emx_faults::{CheckerState, InvariantChecker, Rng64};
use emx_isa::{Reg, ThreadState};
use emx_net::{NetSnapshot, NetStats};
use emx_proc::QueueState;
use emx_snap::{SnapError, SnapReader, SnapWriter, Tokens};
use emx_stats::digest::digest_hex;
use emx_stats::{Breakdown, FaultSummary, PeStats, SwitchCensus};

use crate::calendar::{Calendar, EvKey};
use crate::machine::{EntryDef, Ev, Frame, LocalBarrier, Machine, ThreadKind, Wait};

/// The digest restore validates a snapshot's `config` line against: a hash
/// of the machine configuration's canonical debug rendering. Two machines
/// agree on it exactly when they were built from equal configurations.
pub fn config_digest(cfg: &MachineConfig) -> String {
    digest_hex(&format!("{cfg:?}"))
}

/// Lift a container-format error into the simulator's error type.
fn inv(e: SnapError) -> SimError {
    SimError::SnapshotInvalid {
        reason: e.to_string(),
    }
}

fn bad(reason: impl Into<String>) -> SimError {
    SimError::SnapshotInvalid {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Token-level encoders/decoders for the composite types.

fn put_packet(w: &mut SnapWriter, p: &Packet) {
    w.u8(p.kind.code());
    w.u8(p.priority.bit());
    w.u32(p.addr);
    w.u32(p.data);
    w.u16(p.block_len);
    w.u16(p.seq);
    w.u16(p.idx);
    w.u16(p.src.0);
}

fn get_packet(t: &mut Tokens<'_>) -> Result<Packet, SimError> {
    Ok(Packet {
        kind: PacketKind::from_code(t.u8().map_err(inv)?)?,
        priority: Priority::from_bit(t.u8().map_err(inv)?),
        addr: t.u32().map_err(inv)?,
        data: t.u32().map_err(inv)?,
        block_len: t.u16().map_err(inv)?,
        seq: t.u16().map_err(inv)?,
        idx: t.u16().map_err(inv)?,
        src: PeId(t.u16().map_err(inv)?),
    })
}

fn put_ev(w: &mut SnapWriter, ev: &Ev) {
    match ev {
        Ev::Arrive(pe, pkt, via_net) => {
            w.u8(0);
            w.u16(pe.0);
            w.bool(*via_net);
            put_packet(w, pkt);
        }
        Ev::Dispatch(pe) => {
            w.u8(1);
            w.u16(pe.0);
        }
        Ev::Retry(pe, fid, uid, seq) => {
            w.u8(2);
            w.u16(pe.0);
            w.u16(fid.0);
            w.u64(*uid);
            w.u16(*seq);
        }
    }
}

fn get_ev(t: &mut Tokens<'_>) -> Result<Ev, SimError> {
    Ok(match t.u8().map_err(inv)? {
        0 => {
            let pe = PeId(t.u16().map_err(inv)?);
            let via_net = t.bool().map_err(inv)?;
            Ev::Arrive(pe, get_packet(t)?, via_net)
        }
        1 => Ev::Dispatch(PeId(t.u16().map_err(inv)?)),
        2 => Ev::Retry(
            PeId(t.u16().map_err(inv)?),
            FrameId(t.u16().map_err(inv)?),
            t.u64().map_err(inv)?,
            t.u16().map_err(inv)?,
        ),
        tag => return Err(bad(format!("unknown calendar event tag {tag}"))),
    })
}

fn put_wait(w: &mut SnapWriter, wait: &Wait) {
    match wait {
        Wait::Ready => w.u8(0),
        Wait::Value { isa_dst } => {
            w.u8(1);
            w.bool(isa_dst.is_some());
            w.u8(isa_dst.map_or(0, Reg::num));
        }
        Wait::Block {
            local_dst,
            len,
            received,
        } => {
            w.u8(2);
            w.u32(*local_dst);
            w.u16(*len);
            w.u16(*received);
        }
        Wait::Barrier { id, target } => {
            w.u8(3);
            w.u32(*id);
            w.u64(*target);
        }
        Wait::Seq { cell, threshold } => {
            w.u8(4);
            w.u32(*cell);
            w.u64(*threshold);
        }
        Wait::Yielded => w.u8(5),
    }
}

fn get_wait(t: &mut Tokens<'_>) -> Result<Wait, SimError> {
    Ok(match t.u8().map_err(inv)? {
        0 => Wait::Ready,
        1 => {
            let present = t.bool().map_err(inv)?;
            let num = t.u8().map_err(inv)?;
            let isa_dst = if present {
                Some(Reg::try_r(num).ok_or_else(|| bad(format!("bad register number {num}")))?)
            } else {
                None
            };
            Wait::Value { isa_dst }
        }
        2 => Wait::Block {
            local_dst: t.u32().map_err(inv)?,
            len: t.u16().map_err(inv)?,
            received: t.u16().map_err(inv)?,
        },
        3 => Wait::Barrier {
            id: t.u32().map_err(inv)?,
            target: t.u64().map_err(inv)?,
        },
        4 => Wait::Seq {
            cell: t.u32().map_err(inv)?,
            threshold: t.u64().map_err(inv)?,
        },
        5 => Wait::Yielded,
        tag => return Err(bad(format!("unknown wait tag {tag}"))),
    })
}

/// Depth-first encoding of a network snapshot, wrapper layers included.
fn put_net(w: &mut SnapWriter, s: &NetSnapshot) {
    w.u64(s.stats.packets);
    w.u64(s.stats.total_hops);
    w.u64(s.stats.contention_wait.get());
    w.u64(s.words.len() as u64);
    for &word in &s.words {
        w.u64(word);
    }
    w.bool(s.inner.is_some());
    if let Some(inner) = &s.inner {
        put_net(w, inner);
    }
}

fn get_net(t: &mut Tokens<'_>) -> Result<NetSnapshot, SimError> {
    let stats = NetStats {
        packets: t.u64().map_err(inv)?,
        total_hops: t.u64().map_err(inv)?,
        contention_wait: Cycle::new(t.u64().map_err(inv)?),
    };
    let n = t.usize().map_err(inv)?;
    let mut words = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        words.push(t.u64().map_err(inv)?);
    }
    let inner = if t.bool().map_err(inv)? {
        Some(Box::new(get_net(t)?))
    } else {
        None
    };
    Ok(NetSnapshot {
        stats,
        words,
        inner,
    })
}

// ---------------------------------------------------------------------------
// Intermediate images parsed before any machine state is touched, so a
// malformed snapshot never leaves the target half-restored.

/// A thread's serialized payload before the body is rebuilt.
enum ThreadImage {
    Native { entry: u32, words: Vec<u64> },
    Isa { template: u32, state: ThreadState },
}

struct FrameImage {
    thread: ThreadImage,
    wait: Wait,
    arg: u32,
    inbox: Option<u32>,
    uid: u64,
    cur_seq: u16,
    attempts: u32,
    pending: Option<Packet>,
    seen: Vec<u64>,
}

struct PeImage {
    busy_until: u64,
    dispatch_scheduled: bool,
    live_threads: usize,
    next_uid: u64,
    ev_dispatch_seq: u64,
    ev_local_seq: u64,
    ev_retry_seq: u64,
    spill_rng: Option<u64>,
    dma_rng: Option<u64>,
    mem: Vec<(u32, u32)>,
    queue: QueueState,
    dma: (u64, u64, u64),
    frames: Vec<(u16, FrameImage)>,
    free_list: Vec<u16>,
    max_live: usize,
    seq_cells: Vec<u64>,
    seq_waiters: Vec<(FrameId, u32, u64)>,
    barriers: Vec<LocalBarrier>,
    stats: PeStats,
}

fn get_frame(t: &mut Tokens<'_>) -> Result<FrameImage, SimError> {
    let thread = match t.u8().map_err(inv)? {
        0 => {
            let entry = t.u32().map_err(inv)?;
            let n = t.usize().map_err(inv)?;
            let mut words = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                words.push(t.u64().map_err(inv)?);
            }
            ThreadImage::Native { entry, words }
        }
        1 => {
            let template = t.u32().map_err(inv)?;
            let pc = t.u32().map_err(inv)?;
            let mut regs = [0u32; 32];
            for r in &mut regs {
                *r = t.u32().map_err(inv)?;
            }
            ThreadImage::Isa {
                template,
                state: ThreadState { regs, pc },
            }
        }
        tag => return Err(bad(format!("unknown thread tag {tag}"))),
    };
    let wait = get_wait(t)?;
    let arg = t.u32().map_err(inv)?;
    let inbox = if t.bool().map_err(inv)? {
        Some(t.u32().map_err(inv)?)
    } else {
        None
    };
    let uid = t.u64().map_err(inv)?;
    let cur_seq = t.u16().map_err(inv)?;
    let attempts = t.u32().map_err(inv)?;
    let pending = if t.bool().map_err(inv)? {
        Some(get_packet(t)?)
    } else {
        None
    };
    let n = t.usize().map_err(inv)?;
    let mut seen = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        seen.push(t.u64().map_err(inv)?);
    }
    Ok(FrameImage {
        thread,
        wait,
        arg,
        inbox,
        uid,
        cur_seq,
        attempts,
        pending,
        seen,
    })
}

impl Machine {
    /// Serialize the machine's complete dynamic state as an `emx-snap/1`
    /// snapshot.
    ///
    /// Valid at any event boundary: before the first event, at a
    /// [`Machine::step_events`] pause, or after quiescence. Fails with
    /// [`SimError::SnapshotUnsupported`] if a live native thread's body
    /// does not implement [`ThreadBody::save_state`](crate::ThreadBody);
    /// ISA threads always serialize.
    pub fn snapshot(&self) -> Result<String, SimError> {
        debug_assert!(
            self.core.sends.is_empty(),
            "snapshot mid-event: unrouted sends would be lost"
        );
        let mut w = SnapWriter::new(&config_digest(&self.cfg));

        w.section("meta");
        w.u64(self.cfg.num_pes as u64);
        w.u64(self.core.progress.get());
        w.u64(self.core.cal.now().get());

        // The entry table is code, not state; record names and kinds so
        // restore can verify the shell registered the same table.
        w.section("entries");
        w.u64(self.entries.len() as u64);
        for def in &self.entries {
            match def {
                EntryDef::Native { name, .. } => {
                    w.u8(0);
                    w.str(name);
                }
                EntryDef::Template(p) => {
                    w.u8(1);
                    w.str(&p.name);
                }
            }
        }

        w.section("barriers");
        w.u64(self.barrier_defs.len() as u64);
        for &participants in &self.barrier_defs {
            w.u64(participants as u64);
        }
        for &count in &self.core.barrier_counts {
            w.u64(count as u64);
        }

        let fs = &self.core.fsummary;
        w.section("fsummary");
        for v in [
            fs.dropped,
            fs.duplicated,
            fs.delayed,
            fs.forced_spills,
            fs.dma_stalls,
            fs.retries,
            fs.stale_responses,
        ] {
            w.u64(v);
        }

        w.section("checker");
        w.bool(self.checker.is_some());
        if let Some(ck) = &self.checker {
            let st = ck.save_state();
            w.u64(st.last_event);
            w.u64(st.last_pair.len() as u64);
            for &(src, dst, at) in &st.last_pair {
                w.u16(src);
                w.u16(dst);
                w.u64(at);
            }
            w.u64(st.injected);
            w.u64(st.scheduled);
            w.u64(st.delivered);
        }

        w.section("net");
        put_net(&mut w, &self.net.save_state());

        for pe in &self.core.pes {
            w.section("pe");
            w.u64(pe.busy_until.get());
            w.bool(pe.dispatch_scheduled);
            w.u64(pe.live_threads as u64);
            w.u64(pe.next_uid);
            w.u64(pe.ev_dispatch_seq);
            w.u64(pe.ev_local_seq);
            w.u64(pe.ev_retry_seq);
            for rng in [&pe.spill_rng, &pe.dma_rng] {
                w.bool(rng.is_some());
                if let Some(r) = rng {
                    w.u64(r.state());
                }
            }

            w.section("mem");
            let words: Vec<(u32, u32)> = pe.mem.nonzero_words().collect();
            w.u64(words.len() as u64);
            for (addr, val) in words {
                w.u32(addr);
                w.u32(val);
            }

            let qs = pe.queue.save_state();
            w.section("queue");
            for class in [&qs.high, &qs.low] {
                w.u64(class.len() as u64);
                for (pkt, spilled, seq) in class {
                    put_packet(&mut w, pkt);
                    w.bool(*spilled);
                    w.u64(*seq);
                }
            }
            w.u64(qs.spills);
            w.u64(qs.max_depth as u64);
            w.u64(qs.high_spills);
            w.u64(qs.low_spills);
            w.u64(qs.forced_spills);
            w.u64(qs.max_high_depth as u64);
            w.u64(qs.max_low_depth as u64);
            w.u64(qs.fifo_violations);
            w.u64(qs.next_seq);
            w.u64(qs.last_popped[0]);
            w.u64(qs.last_popped[1]);

            w.section("dma");
            w.u64(pe.dma.ibu_free().get());
            w.u64(pe.dma.obu_free().get());
            w.u64(pe.dma.serviced_words);

            w.section("frames");
            w.u64(pe.frames.live() as u64);
            for (fid, frame) in pe.frames.iter_live() {
                w.u16(fid.0);
                match &frame.thread {
                    ThreadKind::Native { body, entry } => {
                        let words = body.save_state().ok_or_else(|| {
                            let name = match self.entries.get(*entry as usize) {
                                Some(EntryDef::Native { name, .. }) => name.as_str(),
                                _ => body.name(),
                            };
                            SimError::SnapshotUnsupported {
                                what: format!(
                                    "native thread '{name}' (entry {entry}) has no save_state hook"
                                ),
                            }
                        })?;
                        w.u8(0);
                        w.u32(*entry);
                        w.u64(words.len() as u64);
                        for word in words {
                            w.u64(word);
                        }
                    }
                    ThreadKind::Isa { state, template } => {
                        w.u8(1);
                        w.u32(*template);
                        w.u32(state.pc);
                        for &r in &state.regs {
                            w.u32(r);
                        }
                    }
                }
                put_wait(&mut w, &frame.wait);
                w.u32(frame.arg);
                w.bool(frame.inbox.is_some());
                if let Some(v) = frame.inbox {
                    w.u32(v);
                }
                w.u64(frame.uid);
                w.u16(frame.cur_seq);
                w.u32(frame.attempts);
                w.bool(frame.pending.is_some());
                if let Some(pkt) = &frame.pending {
                    put_packet(&mut w, pkt);
                }
                w.u64(frame.seen.len() as u64);
                for &word in &frame.seen {
                    w.u64(word);
                }
            }
            w.u64(pe.frames.free_list().len() as u64);
            for &idx in pe.frames.free_list() {
                w.u16(idx);
            }
            w.u64(pe.frames.max_live as u64);

            w.section("seq");
            w.u64(pe.seq_cells.len() as u64);
            for &cell in &pe.seq_cells {
                w.u64(cell);
            }
            w.u64(pe.seq_waiters.len() as u64);
            for &(fid, cell, threshold) in &pe.seq_waiters {
                w.u16(fid.0);
                w.u32(cell);
                w.u64(threshold);
            }

            w.section("lb");
            w.u64(pe.barriers.len() as u64);
            for lb in &pe.barriers {
                w.u64(lb.arrived as u64);
                w.u64(lb.releases);
            }

            let s = &pe.stats;
            w.section("stats");
            for v in [
                s.breakdown.compute,
                s.breakdown.overhead,
                s.breakdown.comm,
                s.breakdown.switch,
            ] {
                w.u64(v.get());
            }
            for v in [
                s.switches.remote_read,
                s.switches.iter_sync,
                s.switches.thread_sync,
                s.packets_sent,
                s.reads_issued,
                s.dispatches,
                s.max_queue_depth as u64,
                s.ibu_spills,
                s.high_spills,
                s.low_spills,
                s.forced_spills,
                s.max_high_depth as u64,
                s.max_low_depth as u64,
            ] {
                w.u64(v);
            }
        }

        let entries = self.core.cal.entries_sorted();
        w.section("cal");
        w.u64(entries.len() as u64);
        for (key, ev) in &entries {
            w.u64(key.at.get());
            w.u16(key.pe);
            w.u8(key.lane);
            w.u64(key.a);
            w.u64(key.b);
            put_ev(&mut w, ev);
        }

        Ok(w.finish())
    }

    /// Restore a snapshot produced by [`Machine::snapshot`] into this
    /// machine, which must be a fresh shell: same configuration, same
    /// entries/templates/barriers registered, never run.
    ///
    /// Parsing is all-or-nothing — validation happens before any machine
    /// state is touched (entry bodies are rebuilt last, from the shell's
    /// own factories, and fed their saved words via
    /// [`ThreadBody::load_state`](crate::ThreadBody)). On success the
    /// machine is paused exactly where the snapshot was taken and
    /// [`Machine::run_until`] / [`Machine::step_events`] continue it.
    pub fn restore(&mut self, text: &str) -> Result<(), SimError> {
        if self.ran {
            return Err(bad("restore target has already run"));
        }
        let mut r = SnapReader::parse(text).map_err(inv)?;
        let want = config_digest(&self.cfg);
        if r.config_digest() != want {
            return Err(bad(format!(
                "configuration digest mismatch: snapshot {} vs machine {want} \
                 (snapshots restore only into an identically configured machine)",
                r.config_digest()
            )));
        }

        let mut t = r.section("meta").map_err(inv)?;
        let num_pes = t.usize().map_err(inv)?;
        let progress = t.u64().map_err(inv)?;
        let cal_now = t.u64().map_err(inv)?;
        t.end().map_err(inv)?;
        if num_pes != self.cfg.num_pes {
            return Err(bad(format!(
                "snapshot has {num_pes} PEs, machine has {}",
                self.cfg.num_pes
            )));
        }

        let mut t = r.section("entries").map_err(inv)?;
        let n_entries = t.usize().map_err(inv)?;
        if n_entries != self.entries.len() {
            return Err(bad(format!(
                "snapshot registered {n_entries} entries, shell registered {}",
                self.entries.len()
            )));
        }
        for (i, def) in self.entries.iter().enumerate() {
            let tag = t.u8().map_err(inv)?;
            let name = t.str().map_err(inv)?;
            let (want_tag, want_name) = match def {
                EntryDef::Native { name, .. } => (0, name.as_str()),
                EntryDef::Template(p) => (1, p.name.as_str()),
            };
            if tag != want_tag || name != want_name {
                return Err(bad(format!(
                    "entry {i} mismatch: snapshot has {name:?} (kind {tag}), \
                     shell has {want_name:?} (kind {want_tag})"
                )));
            }
        }
        t.end().map_err(inv)?;

        let mut t = r.section("barriers").map_err(inv)?;
        let n_barriers = t.usize().map_err(inv)?;
        if n_barriers != self.barrier_defs.len() {
            return Err(bad(format!(
                "snapshot defines {n_barriers} barriers, shell defines {}",
                self.barrier_defs.len()
            )));
        }
        for (i, &want) in self.barrier_defs.iter().enumerate() {
            let got = t.usize().map_err(inv)?;
            if got != want {
                return Err(bad(format!(
                    "barrier {i} has {got} participants per PE in the snapshot, {want} in the shell"
                )));
            }
        }
        let mut barrier_counts = Vec::with_capacity(n_barriers);
        for _ in 0..n_barriers {
            barrier_counts.push(t.usize().map_err(inv)?);
        }
        t.end().map_err(inv)?;

        let mut t = r.section("fsummary").map_err(inv)?;
        let fsummary = FaultSummary {
            dropped: t.u64().map_err(inv)?,
            duplicated: t.u64().map_err(inv)?,
            delayed: t.u64().map_err(inv)?,
            forced_spills: t.u64().map_err(inv)?,
            dma_stalls: t.u64().map_err(inv)?,
            retries: t.u64().map_err(inv)?,
            stale_responses: t.u64().map_err(inv)?,
        };
        t.end().map_err(inv)?;

        let mut t = r.section("checker").map_err(inv)?;
        let checker_state = if t.bool().map_err(inv)? {
            let last_event = t.u64().map_err(inv)?;
            let n = t.usize().map_err(inv)?;
            let mut last_pair = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let src = t.u16().map_err(inv)?;
                let dst = t.u16().map_err(inv)?;
                let at = t.u64().map_err(inv)?;
                last_pair.push((src, dst, at));
            }
            Some(CheckerState {
                last_event,
                last_pair,
                injected: t.u64().map_err(inv)?,
                scheduled: t.u64().map_err(inv)?,
                delivered: t.u64().map_err(inv)?,
            })
        } else {
            None
        };
        t.end().map_err(inv)?;
        if checker_state.is_some() != self.checker.is_some() {
            return Err(bad(
                "snapshot and shell disagree on invariant-checker presence",
            ));
        }

        let mut t = r.section("net").map_err(inv)?;
        let net_state = get_net(&mut t)?;
        t.end().map_err(inv)?;

        let mut pe_images = Vec::with_capacity(num_pes);
        for _ in 0..num_pes {
            let mut t = r.section("pe").map_err(inv)?;
            let busy_until = t.u64().map_err(inv)?;
            let dispatch_scheduled = t.bool().map_err(inv)?;
            let live_threads = t.usize().map_err(inv)?;
            let next_uid = t.u64().map_err(inv)?;
            let ev_dispatch_seq = t.u64().map_err(inv)?;
            let ev_local_seq = t.u64().map_err(inv)?;
            let ev_retry_seq = t.u64().map_err(inv)?;
            let mut rngs = [None, None];
            for slot in &mut rngs {
                if t.bool().map_err(inv)? {
                    *slot = Some(t.u64().map_err(inv)?);
                }
            }
            t.end().map_err(inv)?;

            let mut t = r.section("mem").map_err(inv)?;
            let n = t.usize().map_err(inv)?;
            let mut mem = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let addr = t.u32().map_err(inv)?;
                let val = t.u32().map_err(inv)?;
                mem.push((addr, val));
            }
            t.end().map_err(inv)?;

            let mut t = r.section("queue").map_err(inv)?;
            let mut classes = [Vec::new(), Vec::new()];
            for class in &mut classes {
                let n = t.usize().map_err(inv)?;
                for _ in 0..n {
                    let pkt = get_packet(&mut t)?;
                    let spilled = t.bool().map_err(inv)?;
                    let seq = t.u64().map_err(inv)?;
                    class.push((pkt, spilled, seq));
                }
            }
            let [high, low] = classes;
            let queue = QueueState {
                high,
                low,
                spills: t.u64().map_err(inv)?,
                max_depth: t.usize().map_err(inv)?,
                high_spills: t.u64().map_err(inv)?,
                low_spills: t.u64().map_err(inv)?,
                forced_spills: t.u64().map_err(inv)?,
                max_high_depth: t.usize().map_err(inv)?,
                max_low_depth: t.usize().map_err(inv)?,
                fifo_violations: t.u64().map_err(inv)?,
                next_seq: t.u64().map_err(inv)?,
                last_popped: [t.u64().map_err(inv)?, t.u64().map_err(inv)?],
            };
            t.end().map_err(inv)?;

            let mut t = r.section("dma").map_err(inv)?;
            let dma = (
                t.u64().map_err(inv)?,
                t.u64().map_err(inv)?,
                t.u64().map_err(inv)?,
            );
            t.end().map_err(inv)?;

            let mut t = r.section("frames").map_err(inv)?;
            let n_live = t.usize().map_err(inv)?;
            let mut frames = Vec::with_capacity(n_live.min(1 << 16));
            for _ in 0..n_live {
                let fid = t.u16().map_err(inv)?;
                frames.push((fid, get_frame(&mut t)?));
            }
            let n_free = t.usize().map_err(inv)?;
            let mut free_list = Vec::with_capacity(n_free.min(1 << 16));
            for _ in 0..n_free {
                free_list.push(t.u16().map_err(inv)?);
            }
            let max_live = t.usize().map_err(inv)?;
            t.end().map_err(inv)?;

            let mut t = r.section("seq").map_err(inv)?;
            let n = t.usize().map_err(inv)?;
            let mut seq_cells = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                seq_cells.push(t.u64().map_err(inv)?);
            }
            let n = t.usize().map_err(inv)?;
            let mut seq_waiters = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let fid = FrameId(t.u16().map_err(inv)?);
                let cell = t.u32().map_err(inv)?;
                let threshold = t.u64().map_err(inv)?;
                seq_waiters.push((fid, cell, threshold));
            }
            t.end().map_err(inv)?;

            let mut t = r.section("lb").map_err(inv)?;
            let n = t.usize().map_err(inv)?;
            if n != n_barriers {
                return Err(bad(format!(
                    "PE records {n} local barriers, machine defines {n_barriers}"
                )));
            }
            let mut barriers = Vec::with_capacity(n);
            for _ in 0..n {
                barriers.push(LocalBarrier {
                    arrived: t.usize().map_err(inv)?,
                    releases: t.u64().map_err(inv)?,
                });
            }
            t.end().map_err(inv)?;

            let mut t = r.section("stats").map_err(inv)?;
            let stats = PeStats {
                breakdown: Breakdown {
                    compute: Cycle::new(t.u64().map_err(inv)?),
                    overhead: Cycle::new(t.u64().map_err(inv)?),
                    comm: Cycle::new(t.u64().map_err(inv)?),
                    switch: Cycle::new(t.u64().map_err(inv)?),
                },
                switches: SwitchCensus {
                    remote_read: t.u64().map_err(inv)?,
                    iter_sync: t.u64().map_err(inv)?,
                    thread_sync: t.u64().map_err(inv)?,
                },
                packets_sent: t.u64().map_err(inv)?,
                reads_issued: t.u64().map_err(inv)?,
                dispatches: t.u64().map_err(inv)?,
                max_queue_depth: t.usize().map_err(inv)?,
                ibu_spills: t.u64().map_err(inv)?,
                high_spills: t.u64().map_err(inv)?,
                low_spills: t.u64().map_err(inv)?,
                forced_spills: t.u64().map_err(inv)?,
                max_high_depth: t.usize().map_err(inv)?,
                max_low_depth: t.usize().map_err(inv)?,
            };
            t.end().map_err(inv)?;

            pe_images.push(PeImage {
                busy_until,
                dispatch_scheduled,
                live_threads,
                next_uid,
                ev_dispatch_seq,
                ev_local_seq,
                ev_retry_seq,
                spill_rng: rngs[0],
                dma_rng: rngs[1],
                mem,
                queue,
                dma,
                frames,
                free_list,
                max_live,
                seq_cells,
                seq_waiters,
                barriers,
                stats,
            });
        }

        let mut t = r.section("cal").map_err(inv)?;
        let n = t.usize().map_err(inv)?;
        let mut cal_entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let key = EvKey {
                at: Cycle::new(t.u64().map_err(inv)?),
                pe: t.u16().map_err(inv)?,
                lane: t.u8().map_err(inv)?,
                a: t.u64().map_err(inv)?,
                b: t.u64().map_err(inv)?,
            };
            cal_entries.push((key, get_ev(&mut t)?));
        }
        t.end().map_err(inv)?;
        r.done().map_err(inv)?;

        // Everything parsed; now rebuild state. Bodies come from the
        // shell's own factories, re-fed their saved words.
        let cal = Calendar::restore(Cycle::new(cal_now), cal_entries)?;

        for (i, img) in pe_images.into_iter().enumerate() {
            let pe_id = PeId(i as u16);
            let mut frames = Vec::with_capacity(img.frames.len());
            for (fid, fimg) in img.frames {
                let thread = match fimg.thread {
                    ThreadImage::Native { entry, words } => {
                        let def = self.entries.get(entry as usize);
                        let Some(EntryDef::Native { factory, name }) = def else {
                            return Err(bad(format!(
                                "frame on PE{i} names entry {entry}, which is not a native entry"
                            )));
                        };
                        let mut body = factory(pe_id, fimg.arg);
                        if !body.load_state(&words) {
                            return Err(bad(format!(
                                "native thread '{name}' on PE{i} rejected its saved state"
                            )));
                        }
                        ThreadKind::Native { body, entry }
                    }
                    ThreadImage::Isa { template, state } => {
                        match self.entries.get(template as usize) {
                            Some(EntryDef::Template(_)) => {}
                            _ => {
                                return Err(bad(format!(
                                    "frame on PE{i} names template {template}, \
                                     which is not a registered template"
                                )))
                            }
                        }
                        ThreadKind::Isa { state, template }
                    }
                };
                frames.push((
                    FrameId(fid),
                    Frame {
                        thread,
                        wait: fimg.wait,
                        arg: fimg.arg,
                        inbox: fimg.inbox,
                        uid: fimg.uid,
                        cur_seq: fimg.cur_seq,
                        attempts: fimg.attempts,
                        pending: fimg.pending,
                        seen: fimg.seen,
                    },
                ));
            }

            let pe = &mut self.core.pes[i];
            pe.mem.reset();
            for (addr, val) in img.mem {
                pe.mem.write(addr, val)?;
            }
            pe.queue.restore_state(img.queue);
            pe.frames
                .restore_state(frames, img.free_list, img.max_live)?;
            pe.dma
                .restore_state(Cycle::new(img.dma.0), Cycle::new(img.dma.1), img.dma.2);
            pe.busy_until = Cycle::new(img.busy_until);
            pe.dispatch_scheduled = img.dispatch_scheduled;
            pe.live_threads = img.live_threads;
            pe.next_uid = img.next_uid;
            pe.ev_dispatch_seq = img.ev_dispatch_seq;
            pe.ev_local_seq = img.ev_local_seq;
            pe.ev_retry_seq = img.ev_retry_seq;
            pe.spill_rng = img.spill_rng.map(Rng64::from_state);
            pe.dma_rng = img.dma_rng.map(Rng64::from_state);
            pe.seq_cells = img.seq_cells;
            pe.seq_waiters = img.seq_waiters;
            pe.barriers = img.barriers;
            pe.stats = img.stats;
        }

        self.net.load_state(&net_state)?;
        if let Some(st) = checker_state {
            self.checker = Some(InvariantChecker::from_state(&st));
        }
        self.core.cal = cal;
        self.core.barrier_counts = barrier_counts;
        self.core.progress = Cycle::new(progress);
        self.core.fsummary = fsummary;
        Ok(())
    }
}
