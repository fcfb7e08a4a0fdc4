//! Checkpoint/restore: a machine snapshotted at an event boundary and
//! restored into a fresh shell finishes byte-identically to the
//! uninterrupted run — reports, memories, and under either driver.

use emx_core::{GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};

const NPES: u16 = 4;

/// A thread with real suspension structure: remote read from the left
/// neighbour, compute, barrier, then a second read — so checkpoints land
/// while packets are in flight, frames are suspended, and barrier ledgers
/// are mid-epoch.
struct Relay {
    step: u8,
    carry: u32,
}

impl ThreadBody for Relay {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        self.step += 1;
        let left = PeId((ctx.pe.0 + ctx.npes as u16 - 1) % ctx.npes as u16);
        match self.step {
            1 => Action::Read {
                addr: GlobalAddr::new(left, 0).unwrap(),
            },
            2 => {
                self.carry = ctx.value.unwrap() * 3 + 1;
                Action::Work {
                    cycles: 5,
                    kind: WorkKind::Compute,
                }
            }
            3 => Action::Barrier { id: BarrierId(0) },
            4 => Action::Read {
                addr: GlobalAddr::new(left, 1).unwrap(),
            },
            5 => {
                let v = ctx.value.unwrap();
                ctx.mem.write(2, self.carry.wrapping_add(v)).unwrap();
                Action::End
            }
            _ => unreachable!(),
        }
    }

    fn name(&self) -> &'static str {
        "relay"
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        Some(vec![u64::from(self.step), u64::from(self.carry)])
    }

    fn load_state(&mut self, words: &[u64]) -> bool {
        let [step, carry] = words else { return false };
        self.step = *step as u8;
        self.carry = *carry as u32;
        true
    }
}

fn build() -> Machine {
    let mut m = Machine::new(MachineConfig::with_pes(usize::from(NPES))).unwrap();
    let entry = m.register_entry("relay", |_pe, _arg| Box::new(Relay { step: 0, carry: 0 }));
    m.define_barrier(1);
    for pe in 0..NPES {
        let mem = m.mem_mut(PeId(pe)).unwrap();
        mem.write(0, 100 + u32::from(pe)).unwrap();
        mem.write(1, 7 * u32::from(pe)).unwrap();
        m.spawn_at_start(PeId(pe), entry, 0).unwrap();
    }
    m
}

fn final_words(m: &Machine) -> Vec<u32> {
    (0..NPES)
        .map(|pe| m.mem(PeId(pe)).unwrap().read(2).unwrap())
        .collect()
}

#[test]
fn restore_at_every_boundary_matches_uninterrupted() {
    let mut reference = build();
    let ref_report = reference.run().unwrap();
    let ref_words = final_words(&reference);

    // Walk the whole run: pause after k events for every k until the run
    // quiesces within the budget, snapshotting and resuming at each pause.
    let mut k = 1;
    loop {
        let mut paused = build();
        match paused.step_events(k, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL)) {
            Ok(None) => {}
            Ok(Some(report)) => {
                assert_eq!(report, ref_report, "stepped-to-completion report diverged");
                break;
            }
            Err(e) => panic!("step_events failed at k={k}: {e}"),
        }
        let snap = paused.snapshot().unwrap();

        let mut resumed = build();
        resumed.restore(&snap).unwrap();
        let report = resumed.run().unwrap();
        assert_eq!(report, ref_report, "resume after {k} events diverged");
        assert_eq!(final_words(&resumed), ref_words);

        // The snapshot itself is deterministic: the paused machine
        // re-serializes to the same bytes, and so does the restored shell.
        assert_eq!(paused.snapshot().unwrap(), snap);
        assert_eq!(resumed_shell_snapshot(&snap), snap);
        k += 1;
    }
    assert!(k > 3, "workload too small to exercise mid-run checkpoints");
}

/// Restore a snapshot into a fresh shell and immediately re-serialize it.
fn resumed_shell_snapshot(snap: &str) -> String {
    let mut shell = build();
    shell.restore(snap).unwrap();
    shell.snapshot().unwrap()
}

#[test]
fn restored_machine_resumes_under_step_events() {
    let mut reference = build();
    let ref_report = reference.run().unwrap();
    let ref_words = final_words(&reference);

    let fuel = emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL);
    let mut paused = build();
    assert!(paused.step_events(6, fuel).unwrap().is_none());
    let snap = paused.snapshot().unwrap();

    // Finish the restored shell one event at a time instead of with `run`.
    let mut resumed = build();
    resumed.restore(&snap).unwrap();
    let report = loop {
        if let Some(report) = resumed.step_events(1, fuel).unwrap() {
            break report;
        }
    };
    assert_eq!(report, ref_report, "stepped resume diverged");
    assert_eq!(final_words(&resumed), ref_words);
}

#[test]
fn pre_run_snapshot_restores_the_initial_state() {
    let m = build();
    let snap = m.snapshot().unwrap();
    let mut resumed = build();
    resumed.restore(&snap).unwrap();
    let report = resumed.run().unwrap();
    let mut reference = build();
    assert_eq!(report, reference.run().unwrap());
}

#[test]
fn restore_rejects_config_mismatch() {
    let m = build();
    let snap = m.snapshot().unwrap();
    let mut other = Machine::new(MachineConfig::with_pes(8)).unwrap();
    let err = other.restore(&snap).unwrap_err();
    assert!(matches!(err, SimError::SnapshotInvalid { .. }));
    assert!(err.to_string().contains("digest"));
}

#[test]
fn restore_rejects_entry_table_mismatch() {
    let m = build();
    let snap = m.snapshot().unwrap();
    // Same config, different registration: restore must refuse.
    let mut shell = Machine::new(MachineConfig::with_pes(usize::from(NPES))).unwrap();
    shell.register_entry("impostor", |_pe, _arg| {
        Box::new(Relay { step: 0, carry: 0 })
    });
    shell.define_barrier(1);
    let err = shell.restore(&snap).unwrap_err();
    assert!(err.to_string().contains("impostor") || err.to_string().contains("entry"));
}

#[test]
fn restore_rejects_tampered_text() {
    let m = build();
    let snap = m.snapshot().unwrap();
    let tampered = snap.replacen("s meta", "s mata", 1);
    assert!(matches!(
        build().restore(&tampered),
        Err(SimError::SnapshotInvalid { .. })
    ));
}

/// A body without checkpoint hooks: snapshot must fail loudly once such a
/// thread is live, never silently drop its state.
struct Opaque;
impl ThreadBody for Opaque {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if ctx.value.is_some() {
            Action::End
        } else {
            Action::Read {
                addr: GlobalAddr::new(PeId(0), 0).unwrap(),
            }
        }
    }
}

#[test]
fn snapshot_of_hookless_native_thread_is_unsupported() {
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let entry = m.register_entry("opaque", |_pe, _arg| Box::new(Opaque));
    m.spawn_at_start(PeId(1), entry, 0).unwrap();
    // Step far enough that the thread is suspended on its read.
    let mut stepped = 0;
    loop {
        stepped += 1;
        assert!(stepped < 64, "workload never suspended");
        m.step_events(1, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL))
            .unwrap();
        match m.snapshot() {
            Err(SimError::SnapshotUnsupported { what }) => {
                assert!(what.contains("opaque"));
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
