//! The self-contained `.emxfuzz` case format (`emx-fuzz/2`, with `/1`
//! still parsed) and its well-formedness rules.
//!
//! A case is *explicit*, not a seed: the shrinker needs structure it can
//! cut, and a committed reproducer must replay identically even after the
//! generator changes. The format is line-oriented plain text (the vendored
//! serde derive stand-in emits no code, so every on-disk format in this
//! workspace is hand-rolled) with `key = value` headers, one `prog` line
//! per program, one `root` line per initial thread, and optional `expect`
//! lines recording the oracle's verdict and reference trace digest.

use emx_core::{FaultSpec, NetModelKind, ServiceMode};

/// One operation of a generated thread. The oracle's op thread executes its
/// program one op per scheduler step, so every program is a finite straight
/// line — the foundation of the generator's termination-by-construction
/// argument (see `docs/FUZZING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Charge EXU cycles.
    Work {
        /// Cycles to burn.
        cycles: u32,
    },
    /// Split-phase remote read of one word.
    Read {
        /// Target processor.
        pe: u16,
        /// Word offset on the target.
        offset: u32,
    },
    /// Block read into local memory.
    ReadBlock {
        /// Target processor.
        pe: u16,
        /// First remote word.
        offset: u32,
        /// Word count (>= 1).
        len: u16,
        /// Local destination offset.
        dst: u32,
    },
    /// Remote write (non-suspending).
    Write {
        /// Target processor.
        pe: u16,
        /// Word offset on the target.
        offset: u32,
        /// Value to store.
        value: u32,
    },
    /// Spawn a later program on a processor (non-suspending).
    Spawn {
        /// Target processor.
        pe: u16,
        /// Program index; must be greater than the spawning program's own
        /// index (the spawn graph is a DAG by construction).
        prog: u16,
        /// Argument word.
        arg: u32,
    },
    /// Increment this processor's sequence cell (non-suspending).
    SignalSeq {
        /// Local cell index.
        cell: u32,
    },
    /// Suspend until this processor's sequence cell reaches a threshold.
    WaitSeq {
        /// Local cell index.
        cell: u32,
        /// Required cell value.
        threshold: u64,
    },
    /// Arrive at the case's global barrier (id 0) and wait for release.
    Barrier,
    /// Explicit thread switch.
    Yield,
    /// Fire-and-forget remote read-modify-write: spawn the oracle's
    /// built-in increment thread on `pe` to add one to word `offset` —
    /// histogram-style scatter traffic that travels as a control-class
    /// spawn packet, so it exercises the fault layer's never-lost path.
    RmwAdd {
        /// Target processor.
        pe: u16,
        /// Word the spawned thread increments.
        offset: u32,
    },
    /// Halo exchange: block-read `len` words at `offset` from *both* ring
    /// neighbours of the executing processor into `dst` and `dst + len` —
    /// stencil-style paired bulk traffic issued back to back.
    Halo {
        /// First remote word on each neighbour.
        offset: u32,
        /// Word count per neighbour (>= 1).
        len: u16,
        /// Local destination; the second block lands at `dst + len`.
        dst: u32,
    },
}

impl Op {
    /// Render as a case-file token.
    pub fn token(&self) -> String {
        match self {
            Op::Work { cycles } => format!("work:{cycles}"),
            Op::Read { pe, offset } => format!("read:{pe},{offset}"),
            Op::ReadBlock {
                pe,
                offset,
                len,
                dst,
            } => format!("rblk:{pe},{offset},{len},{dst}"),
            Op::Write { pe, offset, value } => format!("write:{pe},{offset},{value}"),
            Op::Spawn { pe, prog, arg } => format!("spawn:{pe},{prog},{arg}"),
            Op::SignalSeq { cell } => format!("sig:{cell}"),
            Op::WaitSeq { cell, threshold } => format!("wait:{cell},{threshold}"),
            Op::Barrier => "barrier".into(),
            Op::Yield => "yield".into(),
            Op::RmwAdd { pe, offset } => format!("rmw:{pe},{offset}"),
            Op::Halo { offset, len, dst } => format!("halo:{offset},{len},{dst}"),
        }
    }

    /// Parse a case-file token.
    pub fn parse_token(tok: &str) -> Result<Op, String> {
        let bad = || format!("malformed op token {tok:?}");
        let (head, rest) = match tok.split_once(':') {
            Some((h, r)) => (h, r),
            None => (tok, ""),
        };
        let nums: Vec<u64> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|s| s.parse::<u64>().map_err(|_| bad()))
                .collect::<Result<_, _>>()?
        };
        let n = |i: usize| -> Result<u64, String> { nums.get(i).copied().ok_or_else(bad) };
        let op = match head {
            "work" => Op::Work {
                cycles: n(0)? as u32,
            },
            "read" => Op::Read {
                pe: n(0)? as u16,
                offset: n(1)? as u32,
            },
            "rblk" => Op::ReadBlock {
                pe: n(0)? as u16,
                offset: n(1)? as u32,
                len: n(2)? as u16,
                dst: n(3)? as u32,
            },
            "write" => Op::Write {
                pe: n(0)? as u16,
                offset: n(1)? as u32,
                value: n(2)? as u32,
            },
            "spawn" => Op::Spawn {
                pe: n(0)? as u16,
                prog: n(1)? as u16,
                arg: n(2)? as u32,
            },
            "sig" => Op::SignalSeq { cell: n(0)? as u32 },
            "wait" => Op::WaitSeq {
                cell: n(0)? as u32,
                threshold: n(1)?,
            },
            "barrier" => Op::Barrier,
            "yield" => Op::Yield,
            "rmw" => Op::RmwAdd {
                pe: n(0)? as u16,
                offset: n(1)? as u32,
            },
            "halo" => Op::Halo {
                offset: n(0)? as u32,
                len: n(1)? as u16,
                dst: n(2)? as u32,
            },
            _ => return Err(bad()),
        };
        Ok(op)
    }
}

/// One generated program: a finite op list, stepped one op per resumption.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramSpec {
    /// The ops, in execution order; the thread ends after the last.
    pub ops: Vec<Op>,
}

/// One initial thread: `prog` invoked on `pe` with `arg` at cycle zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Root {
    /// Home processor.
    pub pe: u16,
    /// Program index.
    pub prog: u16,
    /// Argument word.
    pub arg: u32,
}

/// The oracle outcome a committed case expects on replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expected {
    /// Verdict string (`pass`, `deadlock`, `fuel-exhausted`, `error:<kind>`, ...).
    pub verdict: String,
    /// Reference-run trace digest (32 hex), when the case pins one.
    pub trace_digest: Option<String>,
}

/// A complete, self-contained fuzz case: machine shape, fault plan,
/// programs, and initial threads.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Case name (used in file names and campaign lines).
    pub name: String,
    /// Generator seed this case came from (provenance only; replay never
    /// consults it).
    pub seed: u64,
    /// Processor count.
    pub pes: usize,
    /// Network model.
    pub net: NetModelKind,
    /// On-chip IBU FIFO capacity, packets.
    pub ibu_capacity: usize,
    /// Activation frames per processor.
    pub frames_per_pe: usize,
    /// Local memory per processor, words.
    pub memory_words: usize,
    /// Fuel limit in cycles; a well-formed case finishes far below it.
    pub fuel: u64,
    /// Remote-read servicing mode.
    pub service_mode: ServiceMode,
    /// Put read responses in the high-priority IBU FIFO.
    pub priority_read_responses: bool,
    /// Sequence cells per processor.
    pub seq_cells: usize,
    /// Barrier participants per processor (0 = no barrier defined).
    pub barrier_participants: usize,
    /// Fault-injection plan; the oracle arms `check_invariants` on top.
    pub faults: FaultSpec,
    /// The programs; entry id = index.
    pub programs: Vec<ProgramSpec>,
    /// Initial threads.
    pub roots: Vec<Root>,
    /// Expected oracle outcome, for committed corpus cases.
    pub expect: Option<Expected>,
}

impl CaseSpec {
    /// A minimal empty case on `pes` processors (no programs, no roots).
    pub fn empty(name: impl Into<String>, pes: usize) -> CaseSpec {
        CaseSpec {
            name: name.into(),
            seed: 0,
            pes,
            net: NetModelKind::CircularOmega,
            ibu_capacity: 8,
            frames_per_pe: 64,
            memory_words: 4096,
            fuel: 5_000_000,
            service_mode: ServiceMode::BypassDma,
            priority_read_responses: false,
            seq_cells: 0,
            barrier_participants: 0,
            faults: FaultSpec::new(0),
            programs: Vec::new(),
            roots: Vec::new(),
            expect: None,
        }
    }

    /// Render the case in `emx-fuzz/2` text form.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("emx-fuzz/2\n");
        s.push_str(&format!("name = {}\n", self.name));
        s.push_str(&format!("seed = {}\n", self.seed));
        s.push_str(&format!("pes = {}\n", self.pes));
        let net = match self.net {
            NetModelKind::CircularOmega => "omega".to_string(),
            NetModelKind::Ideal { latency } => format!("ideal:{latency}"),
            NetModelKind::FullCrossbar => "crossbar".to_string(),
            NetModelKind::Torus2D => "torus".to_string(),
            NetModelKind::Mesh2D => "mesh".to_string(),
            NetModelKind::FatTree { arity } => format!("fattree:{arity}"),
        };
        s.push_str(&format!("net = {net}\n"));
        s.push_str(&format!("ibu = {}\n", self.ibu_capacity));
        s.push_str(&format!("frames = {}\n", self.frames_per_pe));
        s.push_str(&format!("mem = {}\n", self.memory_words));
        s.push_str(&format!("fuel = {}\n", self.fuel));
        let service = match self.service_mode {
            ServiceMode::BypassDma => "bypass",
            ServiceMode::ExuThread => "exu",
        };
        s.push_str(&format!("service = {service}\n"));
        s.push_str(&format!(
            "prio-responses = {}\n",
            self.priority_read_responses
        ));
        s.push_str(&format!("seq-cells = {}\n", self.seq_cells));
        s.push_str(&format!(
            "barrier-participants = {}\n",
            self.barrier_participants
        ));
        let f = &self.faults;
        let cap = match f.frame_cap {
            Some(c) => c.to_string(),
            None => "none".into(),
        };
        s.push_str(&format!(
            "faults = fseed:{} drop:{} dup:{} delay:{},{} spill:{} dma:{},{} cap:{} retry:{},{},{}\n",
            f.seed,
            f.drop_ppm,
            f.dup_ppm,
            f.delay_ppm,
            f.max_delay,
            f.spill_ppm,
            f.dma_stall_ppm,
            f.dma_stall_cycles,
            cap,
            f.retry_timeout,
            f.retry_backoff_cap,
            f.max_attempts,
        ));
        for (i, p) in self.programs.iter().enumerate() {
            let toks: Vec<String> = p.ops.iter().map(Op::token).collect();
            s.push_str(&format!("prog {i} = {}\n", toks.join(" ")));
        }
        for r in &self.roots {
            s.push_str(&format!("root = {},{},{}\n", r.pe, r.prog, r.arg));
        }
        if let Some(e) = &self.expect {
            s.push_str(&format!("expect = {}\n", e.verdict));
            if let Some(d) = &e.trace_digest {
                s.push_str(&format!("expect-digest = {d}\n"));
            }
        }
        s
    }

    /// Parse an `emx-fuzz/2` case file (`emx-fuzz/1` is still accepted —
    /// version 2 only *adds* vocabulary: the `rmw`/`halo` ops and the
    /// `mesh`/`fattree` network models).
    pub fn parse(text: &str) -> Result<CaseSpec, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == "emx-fuzz/1" || l.trim() == "emx-fuzz/2" => {}
            other => {
                return Err(format!(
                    "expected header 'emx-fuzz/2' (or '/1'), got {:?}",
                    other.map(|(_, l)| l).unwrap_or("")
                ))
            }
        }
        let mut case = CaseSpec::empty("unnamed", 1);
        for (ln, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", ln + 1);
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| at(format!("expected 'key = value', got {line:?}")))?;
            let parse_usize = |v: &str| -> Result<usize, String> {
                v.parse().map_err(|_| at(format!("bad number {v:?}")))
            };
            match key {
                "name" => case.name = value.to_string(),
                "seed" => {
                    case.seed = value
                        .parse()
                        .map_err(|_| at(format!("bad seed {value:?}")))?
                }
                "pes" => case.pes = parse_usize(value)?,
                "net" => {
                    case.net = match value {
                        "omega" => NetModelKind::CircularOmega,
                        "crossbar" => NetModelKind::FullCrossbar,
                        "torus" => NetModelKind::Torus2D,
                        "mesh" => NetModelKind::Mesh2D,
                        other => {
                            if let Some(lat) = other.strip_prefix("ideal:") {
                                NetModelKind::Ideal {
                                    latency: lat
                                        .parse()
                                        .map_err(|_| at(format!("bad ideal latency {lat:?}")))?,
                                }
                            } else if let Some(k) = other.strip_prefix("fattree:") {
                                NetModelKind::FatTree {
                                    arity: k
                                        .parse()
                                        .map_err(|_| at(format!("bad fat-tree arity {k:?}")))?,
                                }
                            } else {
                                return Err(at(format!("unknown net model {other:?}")));
                            }
                        }
                    }
                }
                "ibu" => case.ibu_capacity = parse_usize(value)?,
                "frames" => case.frames_per_pe = parse_usize(value)?,
                "mem" => case.memory_words = parse_usize(value)?,
                "fuel" => {
                    case.fuel = value
                        .parse()
                        .map_err(|_| at(format!("bad fuel {value:?}")))?
                }
                "service" => {
                    case.service_mode = match value {
                        "bypass" => ServiceMode::BypassDma,
                        "exu" => ServiceMode::ExuThread,
                        other => return Err(at(format!("unknown service mode {other:?}"))),
                    }
                }
                "prio-responses" => {
                    case.priority_read_responses = value
                        .parse()
                        .map_err(|_| at(format!("bad bool {value:?}")))?
                }
                "seq-cells" => case.seq_cells = parse_usize(value)?,
                "barrier-participants" => case.barrier_participants = parse_usize(value)?,
                "faults" => case.faults = parse_faults(value).map_err(at)?,
                "expect" => {
                    let mut e = case.expect.take().unwrap_or_default();
                    e.verdict = value.to_string();
                    case.expect = Some(e);
                }
                "expect-digest" => {
                    let mut e = case.expect.take().unwrap_or_default();
                    e.trace_digest = Some(value.to_string());
                    case.expect = Some(e);
                }
                "root" => {
                    let nums: Vec<u64> = value
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .map_err(|_| at(format!("bad root {value:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                    if nums.len() != 3 {
                        return Err(at(format!("root wants pe,prog,arg; got {value:?}")));
                    }
                    case.roots.push(Root {
                        pe: nums[0] as u16,
                        prog: nums[1] as u16,
                        arg: nums[2] as u32,
                    });
                }
                k if k.starts_with("prog ") => {
                    let idx: usize = k[5..]
                        .trim()
                        .parse()
                        .map_err(|_| at(format!("bad program index in {k:?}")))?;
                    if idx != case.programs.len() {
                        return Err(at(format!(
                            "program {idx} out of order (expected {})",
                            case.programs.len()
                        )));
                    }
                    let ops = value
                        .split_whitespace()
                        .map(Op::parse_token)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(at)?;
                    case.programs.push(ProgramSpec { ops });
                }
                other => return Err(at(format!("unknown key {other:?}"))),
            }
        }
        Ok(case)
    }

    /// Machine-level validity: every index and range in the case can be
    /// built and executed without tripping a bounds error. Weaker than
    /// [`CaseSpec::validate`] — shrunk reproducers only need to *run*
    /// deterministically, not to be deadlock-free by construction.
    pub fn check_buildable(&self) -> Result<(), String> {
        if self.pes == 0 || self.pes > 1024 {
            return Err(format!("pes {} outside 1..=1024", self.pes));
        }
        if self.memory_words == 0 {
            return Err("memory_words must be positive".into());
        }
        if self.ibu_capacity == 0 || self.frames_per_pe == 0 {
            return Err("ibu and frame capacities must be positive".into());
        }
        if self.fuel == 0 {
            return Err("fuel must be positive".into());
        }
        self.faults.validate().map_err(|e| e.to_string())?;
        if self.roots.is_empty() {
            return Err("case has no roots".into());
        }
        for (i, r) in self.roots.iter().enumerate() {
            if usize::from(r.pe) >= self.pes {
                return Err(format!("root {i}: pe {} out of range", r.pe));
            }
            if usize::from(r.prog) >= self.programs.len() {
                return Err(format!("root {i}: program {} out of range", r.prog));
            }
        }
        for (pi, p) in self.programs.iter().enumerate() {
            for (oi, op) in p.ops.iter().enumerate() {
                let ctx = |msg: String| format!("prog {pi} op {oi}: {msg}");
                match *op {
                    Op::Work { .. } | Op::Barrier | Op::Yield => {}
                    Op::Read { pe, offset } | Op::Write { pe, offset, .. } => {
                        if usize::from(pe) >= self.pes {
                            return Err(ctx(format!("pe {pe} out of range")));
                        }
                        if offset as usize >= self.memory_words {
                            return Err(ctx(format!("offset {offset} out of range")));
                        }
                    }
                    Op::ReadBlock {
                        pe,
                        offset,
                        len,
                        dst,
                    } => {
                        if usize::from(pe) >= self.pes {
                            return Err(ctx(format!("pe {pe} out of range")));
                        }
                        if len == 0 {
                            return Err(ctx("zero-length block read".into()));
                        }
                        if offset as usize + usize::from(len) > self.memory_words
                            || dst as usize + usize::from(len) > self.memory_words
                        {
                            return Err(ctx("block read out of range".into()));
                        }
                    }
                    Op::Spawn { pe, prog, .. } => {
                        if usize::from(pe) >= self.pes {
                            return Err(ctx(format!("pe {pe} out of range")));
                        }
                        if usize::from(prog) <= pi || usize::from(prog) >= self.programs.len() {
                            return Err(ctx(format!(
                                "spawn target {prog} must be a later program"
                            )));
                        }
                    }
                    Op::SignalSeq { cell } | Op::WaitSeq { cell, .. } => {
                        if cell as usize >= self.seq_cells {
                            return Err(ctx(format!("seq cell {cell} out of range")));
                        }
                    }
                    Op::RmwAdd { pe, offset } => {
                        if usize::from(pe) >= self.pes {
                            return Err(ctx(format!("pe {pe} out of range")));
                        }
                        if offset as usize >= self.memory_words {
                            return Err(ctx(format!("offset {offset} out of range")));
                        }
                    }
                    Op::Halo { offset, len, dst } => {
                        if len == 0 {
                            return Err(ctx("zero-length halo exchange".into()));
                        }
                        if offset as usize + usize::from(len) > self.memory_words
                            || dst as usize + 2 * usize::from(len) > self.memory_words
                        {
                            return Err(ctx("halo exchange out of range".into()));
                        }
                    }
                }
            }
        }
        if self.programs.iter().any(|p| p.ops.contains(&Op::Barrier))
            && self.barrier_participants == 0
        {
            return Err("barrier op used but no barrier defined".into());
        }
        Ok(())
    }

    /// Full well-formedness: [`CaseSpec::check_buildable`] plus the rules
    /// that make a generated case terminate under fuel *by design*:
    ///
    /// 1. Spawn-target programs use no sync ops (no barrier, no seq ops),
    ///    so spawned threads never participate in synchronization.
    /// 2. A program either signals or waits on sequence cells, never both.
    /// 3. In every program, all seq ops precede the first barrier op, so a
    ///    wait can never depend on a signal stuck behind a barrier.
    /// 4. Every root program carries the same number of barrier ops, and
    ///    when that number is positive every processor hosts exactly
    ///    `barrier_participants` roots — the release condition is met each
    ///    epoch on every processor.
    /// 5. Per (processor, cell): every wait threshold is covered by the
    ///    signals the roots of that same processor will eventually emit.
    ///
    /// With the retry protocol armed (required whenever drop or dup faults
    /// are enabled), every suspending op then completes: reads are
    /// re-issued until a response survives (the fault layer never drops
    /// control packets), waits are satisfied by rule 5, barriers release by
    /// rule 4 — so a finite op list always drains.
    pub fn validate(&self) -> Result<(), String> {
        self.check_buildable()?;
        if self.faults.any_net_faults() {
            if !self.faults.retry_enabled() {
                return Err("net faults without the retry protocol can deadlock".into());
            }
            if self.faults.max_attempts != 0 {
                return Err("bounded retry attempts can abort a well-formed case".into());
            }
        }
        let is_spawn_target: Vec<bool> = {
            let mut t = vec![false; self.programs.len()];
            for p in &self.programs {
                for op in &p.ops {
                    if let Op::Spawn { prog, .. } = op {
                        t[usize::from(*prog)] = true;
                    }
                }
            }
            t
        };
        for (pi, p) in self.programs.iter().enumerate() {
            let has_sync = p
                .ops
                .iter()
                .any(|o| matches!(o, Op::Barrier | Op::SignalSeq { .. } | Op::WaitSeq { .. }));
            if is_spawn_target[pi] && has_sync {
                return Err(format!("prog {pi}: spawn target uses sync ops"));
            }
            let signals = p.ops.iter().any(|o| matches!(o, Op::SignalSeq { .. }));
            let waits = p.ops.iter().any(|o| matches!(o, Op::WaitSeq { .. }));
            if signals && waits {
                return Err(format!("prog {pi}: both signals and waits"));
            }
            let first_barrier = p.ops.iter().position(|o| matches!(o, Op::Barrier));
            if let Some(fb) = first_barrier {
                if p.ops[fb..]
                    .iter()
                    .any(|o| matches!(o, Op::SignalSeq { .. } | Op::WaitSeq { .. }))
                {
                    return Err(format!("prog {pi}: seq op after a barrier"));
                }
            }
        }
        // Rule 4: uniform barrier epochs and root coverage.
        let barrier_count =
            |p: &ProgramSpec| p.ops.iter().filter(|o| matches!(o, Op::Barrier)).count();
        let rooted: Vec<u16> = {
            let mut r: Vec<u16> = self.roots.iter().map(|r| r.prog).collect();
            r.sort_unstable();
            r.dedup();
            r
        };
        let epochs: Vec<usize> = rooted
            .iter()
            .map(|&p| barrier_count(&self.programs[usize::from(p)]))
            .collect();
        let uses_barrier = epochs.iter().any(|&e| e > 0);
        if uses_barrier {
            if epochs.windows(2).any(|w| w[0] != w[1]) {
                return Err("root programs disagree on barrier epoch count".into());
            }
            let mut per_pe = vec![0usize; self.pes];
            for r in &self.roots {
                per_pe[usize::from(r.pe)] += 1;
            }
            if per_pe.iter().any(|&c| c != self.barrier_participants) {
                return Err(format!(
                    "barrier needs exactly {} roots on every processor",
                    self.barrier_participants
                ));
            }
        }
        // Rule 5: wait thresholds covered per (pe, cell).
        if self.seq_cells > 0 {
            let mut signals = vec![vec![0u64; self.seq_cells]; self.pes];
            for r in &self.roots {
                for op in &self.programs[usize::from(r.prog)].ops {
                    if let Op::SignalSeq { cell } = op {
                        signals[usize::from(r.pe)][*cell as usize] += 1;
                    }
                }
            }
            for r in &self.roots {
                for op in &self.programs[usize::from(r.prog)].ops {
                    if let Op::WaitSeq { cell, threshold } = op {
                        let have = signals[usize::from(r.pe)][*cell as usize];
                        if *threshold > have {
                            return Err(format!(
                                "root on pe {} waits for cell {cell} threshold {threshold}, \
                                 but only {have} signals exist on that processor",
                                r.pe
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Total op count across all programs (the shrinker's size metric).
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(|p| p.ops.len()).sum()
    }
}

/// Parse the `faults =` value:
/// `fseed:<s> drop:<p> dup:<p> delay:<p>,<max> spill:<p> dma:<p>,<cy> cap:<none|n> retry:<t>,<b>,<a>`.
fn parse_faults(value: &str) -> Result<FaultSpec, String> {
    let mut f = FaultSpec::new(0);
    for part in value.split_whitespace() {
        let (key, v) = part
            .split_once(':')
            .ok_or_else(|| format!("malformed fault field {part:?}"))?;
        let nums = |v: &str, want: usize| -> Result<Vec<u64>, String> {
            let ns: Vec<u64> = v
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("bad fault number {v:?}")))
                .collect::<Result<_, _>>()?;
            if ns.len() != want {
                return Err(format!("fault field {key} wants {want} numbers, got {v:?}"));
            }
            Ok(ns)
        };
        match key {
            "fseed" => f.seed = nums(v, 1)?[0],
            "drop" => f.drop_ppm = nums(v, 1)?[0] as u32,
            "dup" => f.dup_ppm = nums(v, 1)?[0] as u32,
            "delay" => {
                let n = nums(v, 2)?;
                f.delay_ppm = n[0] as u32;
                f.max_delay = n[1] as u32;
            }
            "spill" => f.spill_ppm = nums(v, 1)?[0] as u32,
            "dma" => {
                let n = nums(v, 2)?;
                f.dma_stall_ppm = n[0] as u32;
                f.dma_stall_cycles = n[1] as u32;
            }
            "cap" => {
                f.frame_cap = if v == "none" {
                    None
                } else {
                    Some(nums(v, 1)?[0] as u32)
                }
            }
            "retry" => {
                let n = nums(v, 3)?;
                f.retry_timeout = n[0] as u32;
                f.retry_backoff_cap = n[1] as u32;
                f.max_attempts = n[2] as u32;
            }
            other => return Err(format!("unknown fault field {other:?}")),
        }
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CaseSpec {
        let mut c = CaseSpec::empty("roundtrip", 4);
        c.seed = 99;
        c.net = NetModelKind::Ideal { latency: 5 };
        c.seq_cells = 1;
        c.barrier_participants = 1;
        c.faults.drop_ppm = 1000;
        c.faults.delay_ppm = 2000;
        c.faults.max_delay = 8;
        c.programs.push(ProgramSpec {
            ops: vec![
                Op::Work { cycles: 3 },
                Op::Read { pe: 1, offset: 16 },
                Op::SignalSeq { cell: 0 },
                Op::Barrier,
            ],
        });
        c.programs.push(ProgramSpec {
            ops: vec![Op::Write {
                pe: 0,
                offset: 8,
                value: 7,
            }],
        });
        for pe in 0..4 {
            c.roots.push(Root {
                pe,
                prog: 0,
                arg: u32::from(pe),
            });
        }
        c
    }

    #[test]
    fn text_roundtrip_is_identity() {
        let c = sample();
        let text = c.to_text();
        let back = CaseSpec::parse(&text).unwrap();
        assert_eq!(c, back);
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn sample_is_well_formed() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_unsatisfiable_waits() {
        let mut c = sample();
        c.programs[0].ops[2] = Op::WaitSeq {
            cell: 0,
            threshold: 1,
        };
        assert!(c.validate().is_err(), "nobody signals cell 0");
        assert!(c.check_buildable().is_ok(), "but it still builds");
    }

    #[test]
    fn validate_rejects_spawn_cycles_and_sync_targets() {
        let mut c = sample();
        c.programs[1].ops.push(Op::Spawn {
            pe: 0,
            prog: 1,
            arg: 0,
        });
        assert!(c.check_buildable().is_err(), "self-spawn is a cycle");

        let mut c = sample();
        c.programs[0].ops.push(Op::Spawn {
            pe: 0,
            prog: 1,
            arg: 0,
        });
        c.programs[1].ops.push(Op::SignalSeq { cell: 0 });
        assert!(c.validate().is_err(), "spawn target uses sync");
    }

    #[test]
    fn v2_vocabulary_round_trips() {
        let mut c = CaseSpec::empty("v2", 4);
        c.net = NetModelKind::FatTree { arity: 4 };
        c.programs.push(ProgramSpec {
            ops: vec![
                Op::RmwAdd { pe: 2, offset: 100 },
                Op::Halo {
                    offset: 8,
                    len: 4,
                    dst: 256,
                },
            ],
        });
        c.roots.push(Root {
            pe: 0,
            prog: 0,
            arg: 0,
        });
        c.validate().unwrap();
        assert_eq!(CaseSpec::parse(&c.to_text()).unwrap(), c);
        c.net = NetModelKind::Mesh2D;
        assert_eq!(CaseSpec::parse(&c.to_text()).unwrap(), c);
    }

    #[test]
    fn v1_header_still_parses() {
        let text = sample().to_text().replacen("emx-fuzz/2", "emx-fuzz/1", 1);
        assert_eq!(CaseSpec::parse(&text).unwrap(), sample());
    }

    #[test]
    fn buildable_rejects_out_of_range_v2_ops() {
        let mut c = sample();
        c.programs[1].ops.push(Op::RmwAdd { pe: 99, offset: 0 });
        assert!(c.check_buildable().is_err(), "rmw pe out of range");
        let mut c = sample();
        c.programs[1].ops.push(Op::Halo {
            offset: 0,
            len: 16,
            dst: c.memory_words as u32 - 8,
        });
        assert!(c.check_buildable().is_err(), "halo dst needs 2*len words");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CaseSpec::parse("nonsense").is_err());
        assert!(CaseSpec::parse("emx-fuzz/1\nbogus-key = 3\n").is_err());
        assert!(CaseSpec::parse("emx-fuzz/1\nprog 1 = work:1\n").is_err());
        assert!(Op::parse_token("read:1").is_err());
        assert!(Op::parse_token("frobnicate:2").is_err());
    }
}
