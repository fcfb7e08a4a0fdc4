//! Greedy deterministic shrinker for failing fuzz cases.
//!
//! Given a case whose oracle verdict is a failure, the shrinker repeatedly
//! tries strictly-smaller candidate cases — fewer roots, fewer ops, fewer
//! programs, fewer processors, weaker fault plans, cheaper ops — and keeps
//! any candidate that still reproduces the *same* verdict. The search is a fixpoint over a fixed candidate order with no
//! randomness, so shrinking the same case always yields the same minimized
//! case.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::case::{CaseSpec, Op};
use crate::oracle::{run_case, Verdict};

/// Knobs for one shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkOptions {
    /// Hard cap on oracle executions (each candidate costs three
    /// simulator runs).
    pub max_attempts: usize,
}

impl Default for ShrinkOptions {
    fn default() -> Self {
        ShrinkOptions { max_attempts: 2000 }
    }
}

/// Result of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized case (the original if nothing smaller reproduced).
    pub case: CaseSpec,
    /// The verdict the minimized case reproduces.
    pub verdict: Verdict,
    /// Oracle executions spent.
    pub attempts: usize,
    /// Fixpoint rounds completed.
    pub rounds: usize,
}

/// Judge a case defensively: simulator panics count as [`Verdict::Panic`],
/// matching the campaign driver's classification.
fn verdict_of(case: &CaseSpec) -> Verdict {
    match catch_unwind(AssertUnwindSafe(|| run_case(case, false))) {
        Ok(outcome) => outcome.verdict,
        Err(_) => Verdict::Panic,
    }
}

/// Minimize `case` while preserving its oracle verdict.
///
/// The original verdict is re-established first; if it is not a failure the
/// case is returned unchanged (there is nothing to preserve-and-shrink).
pub fn shrink(case: &CaseSpec, opts: &ShrinkOptions) -> ShrinkResult {
    let target = verdict_of(case);
    let mut best = case.clone();
    let mut attempts = 1;
    let mut rounds = 0;
    if !target.is_failure() {
        return ShrinkResult {
            case: best,
            verdict: target,
            attempts,
            rounds,
        };
    }
    'fixpoint: loop {
        rounds += 1;
        let mut improved = false;
        for cand in candidates(&best) {
            if cand == best || cand.check_buildable().is_err() {
                continue;
            }
            if attempts >= opts.max_attempts {
                break 'fixpoint;
            }
            attempts += 1;
            if verdict_of(&cand) == target {
                // Restart candidate generation from the new, smaller case.
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    ShrinkResult {
        case: best,
        verdict: target,
        attempts,
        rounds,
    }
}

/// All strictly-smaller candidates for one round, in fixed priority order:
/// structural cuts first (roots, ops, programs), then processor folds,
/// then fault-plan and op-cost weakening.
fn candidates(base: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    remove_roots(base, &mut out);
    remove_ops(base, &mut out);
    drop_unreferenced_programs(base, &mut out);
    fold_pes(base, &mut out);
    weaken_faults(base, &mut out);
    cheapen_ops(base, &mut out);
    out
}

fn remove_roots(base: &CaseSpec, out: &mut Vec<CaseSpec>) {
    let n = base.roots.len();
    if n <= 1 {
        return;
    }
    // Halves first for big cuts, then each single root.
    for (start, len) in [(0, n / 2), (n / 2, n - n / 2)] {
        if len > 0 && len < n {
            let mut c = base.clone();
            c.roots.drain(start..start + len);
            out.push(c);
        }
    }
    for i in 0..n {
        let mut c = base.clone();
        c.roots.remove(i);
        out.push(c);
    }
}

fn remove_ops(base: &CaseSpec, out: &mut Vec<CaseSpec>) {
    for (pi, prog) in base.programs.iter().enumerate() {
        let n = prog.ops.len();
        if n <= 1 {
            continue;
        }
        for (start, len) in [(0, n / 2), (n / 2, n - n / 2)] {
            if len > 0 && len < n {
                let mut c = base.clone();
                c.programs[pi].ops.drain(start..start + len);
                out.push(c);
            }
        }
        for i in 0..n {
            let mut c = base.clone();
            c.programs[pi].ops.remove(i);
            out.push(c);
        }
    }
}

/// Drop a program nothing roots or spawns, renumbering spawn targets and
/// root program indices above it.
fn drop_unreferenced_programs(base: &CaseSpec, out: &mut Vec<CaseSpec>) {
    for victim in 0..base.programs.len() {
        let rooted = base.roots.iter().any(|r| usize::from(r.prog) == victim);
        let spawned = base.programs.iter().any(|p| {
            p.ops
                .iter()
                .any(|op| matches!(op, Op::Spawn { prog, .. } if usize::from(*prog) == victim))
        });
        if rooted || spawned {
            continue;
        }
        let mut c = base.clone();
        c.programs.remove(victim);
        for r in &mut c.roots {
            if usize::from(r.prog) > victim {
                r.prog -= 1;
            }
        }
        for p in &mut c.programs {
            for op in &mut p.ops {
                if let Op::Spawn { prog, .. } = op {
                    if usize::from(*prog) > victim {
                        *prog -= 1;
                    }
                }
            }
        }
        out.push(c);
    }
}

/// Fold the machine onto fewer processors, remapping every PE reference
/// modulo the new count.
fn fold_pes(base: &CaseSpec, out: &mut Vec<CaseSpec>) {
    let mut targets = Vec::new();
    if base.pes / 2 >= 1 && base.pes / 2 < base.pes {
        targets.push(base.pes / 2);
    }
    if base.pes > 1 && !targets.contains(&(base.pes - 1)) {
        targets.push(base.pes - 1);
    }
    for new_pes in targets {
        let mut c = base.clone();
        c.pes = new_pes;
        let fold = |pe: &mut u16| *pe %= new_pes as u16;
        for r in &mut c.roots {
            fold(&mut r.pe);
        }
        for p in &mut c.programs {
            for op in &mut p.ops {
                match op {
                    Op::Read { pe, .. }
                    | Op::ReadBlock { pe, .. }
                    | Op::Write { pe, .. }
                    | Op::Spawn { pe, .. }
                    | Op::RmwAdd { pe, .. } => fold(pe),
                    _ => {}
                }
            }
        }
        out.push(c);
    }
}

/// Weaken the fault plan one dimension at a time, then all at once.
fn weaken_faults(base: &CaseSpec, out: &mut Vec<CaseSpec>) {
    let f = &base.faults;
    if !f.is_noop() {
        let mut c = base.clone();
        let seed = c.faults.seed;
        let (rt, rb) = (c.faults.retry_timeout, c.faults.retry_backoff_cap);
        c.faults = emx_core::FaultSpec::new(seed);
        c.faults.retry_timeout = rt;
        c.faults.retry_backoff_cap = rb;
        out.push(c);
    }
    for field in 0..6usize {
        let mut c = base.clone();
        let g = &mut c.faults;
        let changed = match field {
            0 => std::mem::take(&mut g.drop_ppm) != 0,
            1 => std::mem::take(&mut g.dup_ppm) != 0,
            2 => {
                let was = g.delay_ppm != 0;
                g.delay_ppm = 0;
                g.max_delay = 0;
                was
            }
            3 => std::mem::take(&mut g.spill_ppm) != 0,
            4 => {
                let was = g.dma_stall_ppm != 0;
                g.dma_stall_ppm = 0;
                g.dma_stall_cycles = 0;
                was
            }
            _ => g.frame_cap.take().is_some(),
        };
        if changed {
            out.push(c);
        }
    }
}

/// Halve work-cycle counts and collapse block reads to single words.
fn cheapen_ops(base: &CaseSpec, out: &mut Vec<CaseSpec>) {
    let mut c = base.clone();
    let mut changed = false;
    for p in &mut c.programs {
        for op in &mut p.ops {
            match op {
                Op::Work { cycles } if *cycles > 1 => {
                    *cycles /= 2;
                    changed = true;
                }
                Op::ReadBlock { len, .. } | Op::Halo { len, .. } if *len > 1 => {
                    *len = 1;
                    changed = true;
                }
                _ => {}
            }
        }
    }
    if changed {
        out.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{ProgramSpec, Root};

    /// A hand-built deadlock: one thread waits on a seq cell nothing
    /// signals, padded with removable noise the shrinker should strip.
    fn deadlock_case() -> CaseSpec {
        let mut case = CaseSpec::empty("shrink-me".to_string(), 4);
        case.seq_cells = 1;
        case.programs = vec![
            ProgramSpec {
                ops: vec![
                    Op::Work { cycles: 20 },
                    Op::Read { pe: 2, offset: 9 },
                    Op::WaitSeq {
                        cell: 0,
                        threshold: 1,
                    },
                ],
            },
            ProgramSpec {
                ops: vec![Op::Work { cycles: 8 }, Op::Yield, Op::Work { cycles: 8 }],
            },
        ];
        case.roots = vec![
            Root {
                pe: 0,
                prog: 0,
                arg: 1,
            },
            Root {
                pe: 1,
                prog: 1,
                arg: 2,
            },
            Root {
                pe: 2,
                prog: 1,
                arg: 3,
            },
        ];
        case
    }

    #[test]
    fn shrinks_a_deadlock_and_preserves_the_verdict() {
        let case = deadlock_case();
        let result = shrink(&case, &ShrinkOptions::default());
        assert_eq!(result.verdict, Verdict::Deadlock);
        assert_eq!(verdict_of(&result.case), Verdict::Deadlock);
        let before: usize = case.total_ops() + case.roots.len();
        let after: usize = result.case.total_ops() + result.case.roots.len();
        assert!(after < before, "no reduction: {after} vs {before}");
        assert!(result.case.roots.len() <= 1);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let case = deadlock_case();
        let a = shrink(&case, &ShrinkOptions::default());
        let b = shrink(&case, &ShrinkOptions::default());
        assert_eq!(a.case, b.case);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn passing_cases_are_returned_unchanged() {
        let mut case = CaseSpec::empty("fine".to_string(), 2);
        case.programs = vec![ProgramSpec {
            ops: vec![Op::Work { cycles: 4 }],
        }];
        case.roots = vec![Root {
            pe: 0,
            prog: 0,
            arg: 0,
        }];
        let result = shrink(&case, &ShrinkOptions::default());
        assert_eq!(result.verdict, Verdict::Pass);
        assert_eq!(result.case, case);
    }
}
